import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bincp.core import (
    NEGATIVE,
    POSITIVE,
    REGIONS,
    UNKNOWN,
    Dataset,
    Label,
    PredictionRegion,
    SignificanceLevel,
)
from bincp.icp import (
    CalibrationTable,
    SplitConfig,
    build_calibration_table,
    p_values,
    predict_set,
    region,
    split_dataset,
)

from conftest import FIGURE1_NEG, FIGURE1_POS
from oracles import REGION_KEEPING


def oracle_p(calibration, score):
    """Rank-count definition, written independently of the engine."""
    return (sum(1 for c in calibration if c <= score) + 1) / (len(calibration) + 1)


# Few distinct values, so calibration and test scores tie often.
TIED_SCORES = st.sampled_from(
    [-math.inf, -1.0, 0.0, 0.25, 0.5, 1.0, math.inf]
) | st.floats(allow_nan=False, width=32)


# Signed zeros and infinities, which the table and the keys share.
EDGE_SCORES = [-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, math.inf]


def smoothed_oracle_p(calibration, score, tau):
    """The smoothed rank count: ties and the test sample weighted by tau."""
    below = sum(1 for c in calibration if c < score)
    tied = sum(1 for c in calibration if c == score)
    return (below + tau * (tied + 1)) / (len(calibration) + 1)


def labelled(n_neg, n_pos, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_columns(
        [f"n{i}" for i in range(n_neg)] + [f"p{i}" for i in range(n_pos)],
        [NEGATIVE] * n_neg + [POSITIVE] * n_pos,
        rng.normal(size=(n_neg + n_pos, 2)),
    )


def scored(pairs, probability=False, labels=None):
    """A dataset of score pairs with ids t0, t1, ... and unknown labels by default."""
    return Dataset.from_columns(
        [f"t{i}" for i in range(len(pairs))],
        [UNKNOWN] * len(pairs) if labels is None else labels,
        scores=np.array(pairs, dtype=float).reshape(-1, 2),
        probability=probability,
    )


def region_of(p_pos, p_neg, eps):
    return REGIONS[region(p_pos, p_neg, SignificanceLevel(eps))]


class TestSplitDataset:
    def test_parts_partition_the_input(self, figure1):
        proper, calibration = split_dataset(figure1, SplitConfig(0.7, seed=1))
        ids = proper.ids.tolist() + calibration.ids.tolist()
        assert sorted(ids) == sorted(figure1.ids.tolist())
        assert len(proper) + len(calibration) == len(figure1)

    def test_stratified_sizes_round_half_up_per_class(self, figure1):
        # 10 negatives -> 7 proper, 11 positives -> 8 proper
        proper, calibration = split_dataset(figure1, SplitConfig(0.7, seed=3))
        assert (~proper.positive).sum() == 7
        assert proper.positive.sum() == 8
        assert len(calibration) == 6

    def test_unstratified_size_rounds_half_up_globally(self, figure1):
        proper, _ = split_dataset(figure1, SplitConfig(0.7, seed=3, stratified=False))
        # round(0.7 * 21) = 15
        assert len(proper) == 15

    def test_same_seed_reproduces_the_split(self, figure1):
        first = split_dataset(figure1, SplitConfig(0.6, seed=11))
        second = split_dataset(figure1, SplitConfig(0.6, seed=11))
        assert first[0].ids.tolist() == second[0].ids.tolist()
        assert first[1].ids.tolist() == second[1].ids.tolist()

    def test_different_seeds_differ(self, figure1):
        splits = {
            tuple(split_dataset(figure1, SplitConfig(0.5, seed=k))[0].ids.tolist())
            for k in range(6)
        }
        assert len(splits) > 1

    def test_original_order_is_kept_within_each_part(self, figure1):
        order = {sample_id: i for i, sample_id in enumerate(figure1.ids.tolist())}
        proper, calibration = split_dataset(figure1, SplitConfig(0.7, seed=5))
        for part in (proper, calibration):
            positions = [order[sample_id] for sample_id in part.ids.tolist()]
            assert positions == sorted(positions)

    def test_high_fraction_still_leaves_calibration_nonempty(self):
        data = labelled(2, 2)
        proper, calibration = split_dataset(
            data, SplitConfig(0.99, seed=0, stratified=False)
        )
        assert len(calibration) >= 1
        assert len(proper) >= 1

    def test_low_fraction_still_leaves_proper_nonempty(self):
        data = labelled(2, 2)
        proper, calibration = split_dataset(
            data, SplitConfig(0.01, seed=0, stratified=False)
        )
        assert len(proper) >= 1
        assert len(calibration) >= 1

    def test_stratification_requires_both_classes(self):
        data = labelled(4, 0)
        with pytest.raises(ValueError, match="positive"):
            split_dataset(data, SplitConfig(0.5, seed=0))

    def test_rejects_tiny_and_unlabelled_data(self):
        with pytest.raises(ValueError):
            split_dataset(labelled(1, 0), SplitConfig(0.5, seed=0))
        unlabelled = Dataset.from_columns(["a", "b"], [UNKNOWN] * 2, [(0.0,), (1.0,)])
        with pytest.raises(ValueError):
            split_dataset(unlabelled, SplitConfig(0.5, seed=0))

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_fraction_must_be_strictly_inside_unit_interval(self, fraction):
        with pytest.raises(ValueError):
            SplitConfig(fraction, seed=0)


class TestCalibrationTable:
    def test_figure_one_columns(self, figure1_table):
        assert figure1_table.pos_scores.tolist() == sorted(FIGURE1_POS)
        assert figure1_table.neg_scores.tolist() == sorted(FIGURE1_NEG)
        assert figure1_table.pos_scores.size == 11
        assert figure1_table.neg_scores.size == 10

    def test_pooled_table_merges_own_label_scores(self, figure1):
        table = build_calibration_table(figure1, mondrian=False)
        expected = sorted(FIGURE1_POS + FIGURE1_NEG)
        assert table.pos_scores.tolist() == expected
        assert table.neg_scores.tolist() == expected

    def test_shuffling_calibration_does_not_change_the_table(self, figure1):
        rng = np.random.default_rng(2)
        shuffled = figure1.take(rng.permutation(len(figure1)))
        table = build_calibration_table(shuffled)
        assert np.array_equal(table.pos_scores, sorted(FIGURE1_POS))
        assert np.array_equal(table.neg_scores, sorted(FIGURE1_NEG))

    def test_single_class_calibration_is_an_error(self):
        only_pos = scored([(0.9, 0.1)], probability=True, labels=[POSITIVE])
        with pytest.raises(ValueError, match="negative"):
            build_calibration_table(only_pos)

    def test_missing_scores_are_reported_by_id(self):
        unscored = Dataset.from_columns(["zz"], [POSITIVE], [(0.0,)])
        with pytest.raises(ValueError, match="zz"):
            build_calibration_table(unscored)

    def test_constructor_validates_order_and_nan(self):
        with pytest.raises(ValueError):
            CalibrationTable(np.array([0.3, 0.1]), np.array([0.1]))
        with pytest.raises(ValueError):
            CalibrationTable(np.array([0.1]), np.array([math.nan]))
        with pytest.raises(ValueError):
            CalibrationTable(np.array([]), np.array([0.1]))
        with pytest.raises(ValueError):
            CalibrationTable(np.array([math.inf, -math.inf]), np.array([0.1]))

    def test_repeated_infinite_scores_are_sorted_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = CalibrationTable(
                np.array([-math.inf, -math.inf, 0.2, math.inf, math.inf]),
                np.array([-math.inf, -math.inf]),
            )
        assert table.pos_scores.size == 5

    def test_table_arrays_are_read_only(self, figure1_table):
        with pytest.raises(ValueError):
            figure1_table.pos_scores[0] = 9.9


class TestPValues:
    def test_balanced_scores_worked_case(self, figure1_table):
        p_pos, p_neg = p_values(figure1_table, 0.5, 0.5)
        assert p_pos == 6 / 12
        assert p_neg == 6 / 11

    def test_confident_positive_worked_case(self, figure1_table):
        p_pos, p_neg = p_values(figure1_table, 0.999, 0.001)
        assert p_pos == 1.0
        assert p_neg == 1 / 11

    def test_matches_rank_count_oracle_on_a_grid(self, figure1_table):
        # the grid includes exact tie points present in both columns
        grid = [0.0, 0.001, 0.01, 0.15, 0.5, 0.75, 0.80, 0.95, 0.999, 1.0]
        p_pos, p_neg = p_values(figure1_table, grid, grid)
        assert p_pos.tolist() == [oracle_p(FIGURE1_POS, s) for s in grid]
        assert p_neg.tolist() == [oracle_p(FIGURE1_NEG, s) for s in grid]

    def test_extreme_scores_hit_the_bounds(self, figure1_table):
        low = p_values(figure1_table, -math.inf, -math.inf)
        high = p_values(figure1_table, math.inf, math.inf)
        assert low == (1 / 12, 1 / 11)
        assert high == (1.0, 1.0)

    def test_pooled_table_uses_the_hypothesis_side_of_the_pair(self, figure1):
        table = build_calibration_table(figure1, mondrian=False)
        pooled = sorted(FIGURE1_POS + FIGURE1_NEG)
        p_pos, p_neg = p_values(table, 0.9, 0.1)
        assert p_pos == oracle_p(pooled, 0.9)
        assert p_neg == oracle_p(pooled, 0.1)

    def test_smoothed_draws_positive_hypothesis_first(self, figure1_table):
        p_pos, p_neg = p_values(
            figure1_table, 0.75, 0.75, rng=np.random.default_rng(42)
        )
        ref = np.random.default_rng(42)
        tau_pos = 1.0 - ref.random()
        tau_neg = 1.0 - ref.random()
        pos = np.searchsorted(figure1_table.pos_scores, 0.75)
        pos_ties = np.searchsorted(figure1_table.pos_scores, 0.75, side="right") - pos
        neg = np.searchsorted(figure1_table.neg_scores, 0.75)
        neg_ties = np.searchsorted(figure1_table.neg_scores, 0.75, side="right") - neg
        assert p_pos == (pos + tau_pos * (pos_ties + 1)) / 12
        assert p_neg == (neg + tau_neg * (neg_ties + 1)) / 11

    def test_smoothed_never_exceeds_the_plain_p_value(self, figure1_table):
        rng = np.random.default_rng(0)
        for s in [0.0, 0.21, 0.75, 0.95, 1.0]:
            plain_pos, plain_neg = p_values(figure1_table, s, s)
            smooth_pos, smooth_neg = p_values(
                figure1_table, [s] * 25, [s] * 25, rng=rng
            )
            assert ((0.0 < smooth_pos) & (smooth_pos <= plain_pos)).all()
            assert ((0.0 < smooth_neg) & (smooth_neg <= plain_neg)).all()

    @given(
        calibration=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=40,
        ),
        a=st.floats(allow_nan=False, width=32),
        b=st.floats(allow_nan=False, width=32),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_monotonicity_property(self, calibration, a, b):
        scores = np.array(sorted(calibration))
        table = CalibrationTable(scores, scores)
        lo, hi = sorted((a, b))
        p_lo, _ = p_values(table, lo, lo)
        p_hi, _ = p_values(table, hi, hi)
        for p in (p_lo, p_hi):
            assert 1 / (len(calibration) + 1) <= p <= 1.0
        assert p_lo <= p_hi
        assert p_lo == oracle_p(list(scores), lo)

    @staticmethod
    def edge_table(rng, pooled):
        pos, neg = (
            np.sort(np.concatenate([rng.choice(EDGE_SCORES, 30), rng.normal(size=5)]))
            for _ in range(2)
        )
        if pooled:
            pos = neg = np.sort(np.concatenate([pos, neg]))
        return CalibrationTable(pos, neg)

    @staticmethod
    def edge_keys(rng, shape):
        # Heavy ties in random order, with values the table does not hold.
        keys = rng.choice(EDGE_SCORES + [0.25, -2.0], size=shape)
        return np.where(rng.random(shape) < 0.2, rng.normal(size=shape), keys)

    @pytest.mark.parametrize("shape", [(), (1,), (97,), (7, 13)])
    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_any_key_order_matches_the_rank_count_oracle(self, shape, pooled, seed):
        rng = np.random.default_rng(seed)
        table = self.edge_table(rng, pooled)
        s_pos, s_neg = self.edge_keys(rng, shape), self.edge_keys(rng, shape)
        p_pos, p_neg = p_values(table, s_pos, s_neg)
        assert np.shape(p_pos) == np.shape(p_neg) == shape
        for got, column, keys in (
            (p_pos, table.pos_scores.tolist(), s_pos),
            (p_neg, table.neg_scores.tolist(), s_neg),
        ):
            want = [oracle_p(column, key) for key in keys.ravel().tolist()]
            assert np.ravel(got).tolist() == want

    @pytest.mark.parametrize("shape", [(), (97,), (7, 13)])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_smoothed_any_key_order_matches_the_row_by_row_oracle(self, shape, pooled):
        rng = np.random.default_rng(11)
        table = self.edge_table(rng, pooled)
        s_pos, s_neg = self.edge_keys(rng, shape), self.edge_keys(rng, shape)
        p_pos, p_neg = p_values(
            table, s_pos, s_neg, rng=np.random.default_rng(4)
        )
        assert np.shape(p_pos) == np.shape(p_neg) == shape
        # Taus are drawn row by row, the positive hypothesis first.
        taus = np.random.default_rng(4)
        pos, neg = table.pos_scores.tolist(), table.neg_scores.tolist()
        want_pos, want_neg = [], []
        for a, b in zip(s_pos.ravel().tolist(), s_neg.ravel().tolist()):
            want_pos.append(smoothed_oracle_p(pos, a, 1.0 - taus.random()))
            want_neg.append(smoothed_oracle_p(neg, b, 1.0 - taus.random()))
        assert np.ravel(p_pos).tolist() == want_pos
        assert np.ravel(p_neg).tolist() == want_neg

    def test_score_columns_must_match_and_not_be_nan(self, figure1_table):
        with pytest.raises(ValueError, match="shapes"):
            p_values(figure1_table, [0.5, 0.5], [0.5])
        with pytest.raises(ValueError, match="NaN"):
            p_values(figure1_table, [0.5, math.nan], [0.5, 0.5])


class TestRegion:
    def test_strictly_greater_than_epsilon_is_required(self):
        assert region_of(0.2, 0.5, 0.2) is PredictionRegion.SINGLE_NEGATIVE
        assert region_of(0.21, 0.5, 0.2) is PredictionRegion.BOTH
        assert region_of(0.5, 0.2, 0.2) is PredictionRegion.SINGLE_POSITIVE

    def test_all_four_regions_are_reachable(self):
        assert region_of(0.5, 0.5, 0.1) is PredictionRegion.BOTH
        assert region_of(0.05, 0.05, 0.1) is PredictionRegion.EMPTY
        assert region_of(0.5, 0.05, 0.1) is PredictionRegion.SINGLE_POSITIVE
        assert region_of(0.05, 0.5, 0.1) is PredictionRegion.SINGLE_NEGATIVE

    def test_regions_shrink_as_epsilon_grows(self, figure1_table):
        p_pos, p_neg = p_values(
            figure1_table, [0.5, 0.999, 0.08, 0.01], [0.5, 0.001, 0.95, 0.02]
        )
        grid = [SignificanceLevel(e) for e in (0.0, 0.05, 0.1, 0.2, 0.5, 0.9, 1.0)]
        previous = None
        for eps in grid:
            current = [
                {label for label in Label if REGIONS[code].contains(label)}
                for code in region(p_pos, p_neg, eps).tolist()
            ]
            if previous is not None:
                assert all(now <= before for now, before in zip(current, previous))
            previous = current

    def test_epsilon_zero_keeps_everything(self, figure1_table):
        p_pos, p_neg = p_values(figure1_table, 0.001, 0.001)
        assert region_of(p_pos, p_neg, 0.0) is PredictionRegion.BOTH


class TestPredictSet:
    def test_demo_regions_at_default_epsilon(self, figure1_table):
        tests = scored([(0.5, 0.5), (0.999, 0.001)], probability=True)
        p_pos, p_neg = predict_set(figure1_table, tests)
        codes = region(p_pos, p_neg, SignificanceLevel(0.2))
        assert [REGIONS[c] for c in codes] == [
            PredictionRegion.BOTH,
            PredictionRegion.SINGLE_POSITIVE,
        ]
        assert p_pos[1] == 1.0

    def test_input_order_is_preserved(self, figure1_table):
        pairs = [(i / 10, 1 - i / 10) for i in range(10)]
        p_pos, p_neg = predict_set(figure1_table, scored(pairs, probability=True))
        assert list(zip(p_pos.tolist(), p_neg.tolist())) == [
            p_values(figure1_table, a, b) for a, b in pairs
        ]

    def test_missing_scores_error_names_the_sample(self, figure1_table):
        tests = Dataset.from_columns(["bad"], [UNKNOWN], [(1.0, 2.0)])
        with pytest.raises(ValueError, match="bad"):
            predict_set(figure1_table, tests)

    @given(
        pos=st.lists(TIED_SCORES, min_size=1, max_size=30),
        neg=st.lists(TIED_SCORES, min_size=1, max_size=30),
        rows=st.lists(st.tuples(TIED_SCORES, TIED_SCORES), min_size=1, max_size=200),
        pooled=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_matches_the_rank_count_oracle_row_by_row(
        self, pos, neg, rows, pooled
    ):
        if pooled:
            pos = neg = pos + neg
        table = CalibrationTable(np.sort(pos), np.sort(neg))
        p_pos, p_neg = predict_set(table, scored(rows))
        codes = region(p_pos, p_neg, SignificanceLevel(0.2))
        for pp, pn, code, (a, b) in zip(p_pos, p_neg, codes, rows, strict=True):
            assert pp == oracle_p(pos, a)
            assert pn == oracle_p(neg, b)
            assert REGIONS[code] is REGION_KEEPING[pp > 0.2, pn > 0.2]

    @pytest.mark.parametrize("mondrian", [True, False])
    def test_smoothed_batch_equals_successive_single_rows(self, figure1, mondrian):
        table = build_calibration_table(figure1, mondrian=mondrian)
        values = FIGURE1_POS + FIGURE1_NEG + [-math.inf, 0.5, math.inf]
        rng = np.random.default_rng(3)
        pairs = [rng.choice(values, size=2) for _ in range(300)]
        batch = predict_set(
            table, scored(pairs), rng=np.random.default_rng(8)
        )
        single_rng = np.random.default_rng(8)
        singles = [p_values(table, a, b, rng=single_rng) for a, b in pairs]
        assert list(zip(*batch)) == singles

    def test_smoothed_predictions_are_reproducible_by_seed(self, figure1_table):
        tests = scored([(0.75, 0.75), (0.4, 0.6)])
        first = predict_set(
            figure1_table, tests, rng=np.random.default_rng(5)
        )
        second = predict_set(
            figure1_table, tests, rng=np.random.default_rng(5)
        )
        assert [column.tolist() for column in first] == [
            column.tolist() for column in second
        ]
