import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bincp.core import (
    Dataset,
    Label,
    PredictionRegion,
    Sample,
    ScorePair,
    SignificanceLevel,
)
from bincp.icp import (
    CalibrationTable,
    PValuePair,
    SplitConfig,
    build_calibration_table,
    p_values,
    predict_set,
    region,
    split_dataset,
)

from conftest import FIGURE1_NEG, FIGURE1_POS


def oracle_p(calibration, score):
    """Rank-count definition, written independently of the engine."""
    return (sum(1 for c in calibration if c <= score) + 1) / (len(calibration) + 1)


# Few distinct values, so calibration and test scores tie often.
TIED_SCORES = st.sampled_from(
    [-math.inf, -1.0, 0.0, 0.25, 0.5, 1.0, math.inf]
) | st.floats(allow_nan=False, width=32)


def labelled(n_neg, n_pos, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_neg):
        samples.append(
            Sample(id=f"n{i}", features=tuple(rng.normal(size=2)), true_label=Label.NEGATIVE)
        )
    for i in range(n_pos):
        samples.append(
            Sample(id=f"p{i}", features=tuple(rng.normal(size=2)), true_label=Label.POSITIVE)
        )
    return Dataset(tuple(samples))


class TestSplitDataset:
    def test_parts_partition_the_input(self, figure1):
        proper, calibration = split_dataset(figure1, SplitConfig(0.7, seed=1))
        ids = sorted(s.id for s in proper) + sorted(s.id for s in calibration)
        assert sorted(ids) == sorted(s.id for s in figure1)
        assert len(proper) + len(calibration) == len(figure1)

    def test_stratified_sizes_round_half_up_per_class(self, figure1):
        # 10 negatives -> 7 proper, 11 positives -> 8 proper
        proper, calibration = split_dataset(figure1, SplitConfig(0.7, seed=3))
        assert proper.count(Label.NEGATIVE) == 7
        assert proper.count(Label.POSITIVE) == 8
        assert len(calibration) == 6

    def test_unstratified_size_rounds_half_up_globally(self, figure1):
        proper, _ = split_dataset(figure1, SplitConfig(0.7, seed=3, stratified=False))
        # round(0.7 * 21) = 15
        assert len(proper) == 15

    def test_same_seed_reproduces_the_split(self, figure1):
        first = split_dataset(figure1, SplitConfig(0.6, seed=11))
        second = split_dataset(figure1, SplitConfig(0.6, seed=11))
        assert [s.id for s in first[0]] == [s.id for s in second[0]]
        assert [s.id for s in first[1]] == [s.id for s in second[1]]

    def test_different_seeds_differ(self, figure1):
        splits = {
            tuple(s.id for s in split_dataset(figure1, SplitConfig(0.5, seed=k))[0])
            for k in range(6)
        }
        assert len(splits) > 1

    def test_original_order_is_kept_within_each_part(self, figure1):
        order = {s.id: i for i, s in enumerate(figure1)}
        proper, calibration = split_dataset(figure1, SplitConfig(0.7, seed=5))
        for part in (proper, calibration):
            positions = [order[s.id] for s in part]
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
        unlabelled = Dataset((
            Sample(id="a", features=(0.0,)),
            Sample(id="b", features=(1.0,)),
        ))
        with pytest.raises(ValueError):
            split_dataset(unlabelled, SplitConfig(0.5, seed=0))

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_fraction_must_be_strictly_inside_unit_interval(self, fraction):
        with pytest.raises(ValueError):
            SplitConfig(fraction, seed=0)


class TestCalibrationTable:
    def test_figure_one_columns(self, figure1_table):
        assert figure1_table.mondrian
        assert figure1_table.pos_scores.tolist() == sorted(FIGURE1_POS)
        assert figure1_table.neg_scores.tolist() == sorted(FIGURE1_NEG)
        assert figure1_table.n_pos == 11
        assert figure1_table.n_neg == 10

    def test_pooled_table_merges_own_label_scores(self, figure1):
        table = build_calibration_table(figure1, mondrian=False)
        expected = sorted(FIGURE1_POS + FIGURE1_NEG)
        assert table.pos_scores.tolist() == expected
        assert table.neg_scores.tolist() == expected
        assert not table.mondrian

    def test_shuffling_calibration_does_not_change_the_table(self, figure1):
        rng = np.random.default_rng(2)
        shuffled = Dataset(tuple(figure1[int(i)] for i in rng.permutation(len(figure1))))
        table = build_calibration_table(shuffled)
        assert np.array_equal(table.pos_scores, sorted(FIGURE1_POS))
        assert np.array_equal(table.neg_scores, sorted(FIGURE1_NEG))

    def test_single_class_calibration_is_an_error(self):
        only_pos = Dataset((
            Sample(id="p", scores=ScorePair(0.9, 0.1, probability=True),
                   true_label=Label.POSITIVE),
        ))
        with pytest.raises(ValueError, match="negative"):
            build_calibration_table(only_pos)

    def test_missing_scores_are_reported_by_id(self):
        unscored = Dataset((
            Sample(id="zz", features=(0.0,), true_label=Label.POSITIVE),
        ))
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
        assert table.n_pos == 5

    def test_table_arrays_are_read_only(self, figure1_table):
        with pytest.raises(ValueError):
            figure1_table.pos_scores[0] = 9.9


class TestPValues:
    def test_balanced_scores_worked_case(self, figure1_table):
        p = p_values(figure1_table, ScorePair(0.5, 0.5, probability=True))
        assert p.p_pos == 6 / 12
        assert p.p_neg == 6 / 11

    def test_confident_positive_worked_case(self, figure1_table):
        p = p_values(figure1_table, ScorePair(0.999, 0.001, probability=True))
        assert p.p_pos == 1.0
        assert p.p_neg == 1 / 11

    def test_matches_rank_count_oracle_on_a_grid(self, figure1_table):
        # the grid includes exact tie points present in both columns
        grid = [0.0, 0.001, 0.01, 0.15, 0.5, 0.75, 0.80, 0.95, 0.999, 1.0]
        for s in grid:
            p = p_values(figure1_table, ScorePair(s, s))
            assert p.p_pos == oracle_p(FIGURE1_POS, s)
            assert p.p_neg == oracle_p(FIGURE1_NEG, s)

    def test_extreme_scores_hit_the_bounds(self, figure1_table):
        low = p_values(figure1_table, ScorePair(-math.inf, -math.inf))
        high = p_values(figure1_table, ScorePair(math.inf, math.inf))
        assert low.p_pos == 1 / 12
        assert low.p_neg == 1 / 11
        assert high.p_pos == 1.0
        assert high.p_neg == 1.0

    def test_pooled_table_uses_the_hypothesis_side_of_the_pair(self, figure1):
        table = build_calibration_table(figure1, mondrian=False)
        pooled = sorted(FIGURE1_POS + FIGURE1_NEG)
        p = p_values(table, ScorePair(0.9, 0.1, probability=True))
        assert p.p_pos == oracle_p(pooled, 0.9)
        assert p.p_neg == oracle_p(pooled, 0.1)

    def test_smoothed_requires_a_generator(self, figure1_table):
        with pytest.raises(ValueError):
            p_values(figure1_table, ScorePair(0.5, 0.5, probability=True), smoothed=True)

    def test_smoothed_draws_positive_hypothesis_first(self, figure1_table):
        pair = ScorePair(0.75, 0.75)
        p = p_values(figure1_table, pair, smoothed=True, rng=np.random.default_rng(42))
        ref = np.random.default_rng(42)
        tau_pos = 1.0 - ref.random()
        tau_neg = 1.0 - ref.random()
        pos = np.searchsorted(figure1_table.pos_scores, 0.75)
        pos_ties = np.searchsorted(figure1_table.pos_scores, 0.75, side="right") - pos
        neg = np.searchsorted(figure1_table.neg_scores, 0.75)
        neg_ties = np.searchsorted(figure1_table.neg_scores, 0.75, side="right") - neg
        assert p.p_pos == (pos + tau_pos * (pos_ties + 1)) / 12
        assert p.p_neg == (neg + tau_neg * (neg_ties + 1)) / 11

    def test_smoothed_never_exceeds_the_plain_p_value(self, figure1_table):
        rng = np.random.default_rng(0)
        for s in [0.0, 0.21, 0.75, 0.95, 1.0]:
            pair = ScorePair(s, s)
            plain = p_values(figure1_table, pair)
            for _ in range(25):
                smooth = p_values(figure1_table, pair, smoothed=True, rng=rng)
                assert 0.0 < smooth.p_pos <= plain.p_pos
                assert 0.0 < smooth.p_neg <= plain.p_neg

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
        table = CalibrationTable(scores, scores, mondrian=False)
        lo, hi = sorted((a, b))
        p_lo = p_values(table, ScorePair(lo, lo))
        p_hi = p_values(table, ScorePair(hi, hi))
        for p in (p_lo, p_hi):
            assert 1 / (len(calibration) + 1) <= p.p_pos <= 1.0
        assert p_lo.p_pos <= p_hi.p_pos
        assert p_lo.p_pos == oracle_p(list(scores), lo)

    def test_p_value_pair_validates_range(self):
        with pytest.raises(ValueError):
            PValuePair(0.0, 0.5)
        with pytest.raises(ValueError):
            PValuePair(0.5, 1.2)


class TestRegion:
    def test_strictly_greater_than_epsilon_is_required(self):
        eps = SignificanceLevel(0.2)
        assert region(PValuePair(0.2, 0.5), eps) is PredictionRegion.SINGLE_NEGATIVE
        assert region(PValuePair(0.21, 0.5), eps) is PredictionRegion.BOTH
        assert region(PValuePair(0.5, 0.2), eps) is PredictionRegion.SINGLE_POSITIVE

    def test_all_four_regions_are_reachable(self):
        eps = SignificanceLevel(0.1)
        assert region(PValuePair(0.5, 0.5), eps) is PredictionRegion.BOTH
        assert region(PValuePair(0.05, 0.05), eps) is PredictionRegion.EMPTY
        assert region(PValuePair(0.5, 0.05), eps) is PredictionRegion.SINGLE_POSITIVE
        assert region(PValuePair(0.05, 0.5), eps) is PredictionRegion.SINGLE_NEGATIVE

    def test_regions_shrink_as_epsilon_grows(self, figure1_table):
        pairs = [
            ScorePair(0.5, 0.5),
            ScorePair(0.999, 0.001),
            ScorePair(0.08, 0.95),
            ScorePair(0.01, 0.02),
        ]
        grid = [SignificanceLevel(e) for e in (0.0, 0.05, 0.1, 0.2, 0.5, 0.9, 1.0)]
        for pair in pairs:
            p = p_values(figure1_table, pair)
            previous = None
            for eps in grid:
                current = {
                    label
                    for label in (Label.POSITIVE, Label.NEGATIVE)
                    if region(p, eps).contains(label)
                }
                if previous is not None:
                    assert current <= previous
                previous = current

    def test_epsilon_zero_keeps_everything(self, figure1_table):
        p = p_values(figure1_table, ScorePair(0.001, 0.001))
        assert region(p, SignificanceLevel(0.0)) is PredictionRegion.BOTH


class TestPredictSet:
    def test_demo_regions_at_default_epsilon(self, figure1_table):
        tests = Dataset((
            Sample(id="t1", scores=ScorePair(0.5, 0.5, probability=True)),
            Sample(id="t2", scores=ScorePair(0.999, 0.001, probability=True)),
        ))
        predictions = predict_set(figure1_table, tests, SignificanceLevel(0.2))
        assert [p.sample_id for p in predictions] == ["t1", "t2"]
        assert predictions[0].region is PredictionRegion.BOTH
        assert predictions[1].region is PredictionRegion.SINGLE_POSITIVE
        assert predictions[1].p.p_pos == 1.0

    def test_input_order_is_preserved(self, figure1_table):
        tests = Dataset(tuple(
            Sample(id=f"t{i}", scores=ScorePair(i / 10, 1 - i / 10, probability=True))
            for i in range(10)
        ))
        predictions = predict_set(figure1_table, tests, SignificanceLevel(0.1))
        assert [p.sample_id for p in predictions] == [f"t{i}" for i in range(10)]

    def test_missing_scores_error_names_the_sample(self, figure1_table):
        tests = Dataset((Sample(id="bad", features=(1.0, 2.0)),))
        with pytest.raises(ValueError, match="bad"):
            predict_set(figure1_table, tests, SignificanceLevel(0.2))

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
        table = CalibrationTable(np.sort(pos), np.sort(neg), mondrian=not pooled)
        tests = Dataset(tuple(
            Sample(id=f"t{i}", scores=ScorePair(a, b)) for i, (a, b) in enumerate(rows)
        ))
        predictions = predict_set(table, tests, SignificanceLevel(0.2))
        for prediction, (a, b) in zip(predictions, rows, strict=True):
            assert prediction.p.p_pos == oracle_p(pos, a)
            assert prediction.p.p_neg == oracle_p(neg, b)
            assert prediction.region is PredictionRegion.from_membership(
                prediction.p.p_pos > 0.2, prediction.p.p_neg > 0.2
            )

    @pytest.mark.parametrize("mondrian", [True, False])
    def test_smoothed_batch_equals_successive_single_rows(self, figure1, mondrian):
        table = build_calibration_table(figure1, mondrian=mondrian)
        values = FIGURE1_POS + FIGURE1_NEG + [-math.inf, 0.5, math.inf]
        rng = np.random.default_rng(3)
        tests = Dataset(tuple(
            Sample(id=f"t{i}", scores=ScorePair(*rng.choice(values, size=2)))
            for i in range(300)
        ))
        batch = predict_set(
            table, tests, SignificanceLevel(0.2),
            smoothed=True, rng=np.random.default_rng(8),
        )
        single_rng = np.random.default_rng(8)
        singles = [
            p_values(table, s.scores, smoothed=True, rng=single_rng) for s in tests
        ]
        assert [prediction.p for prediction in batch] == singles

    def test_smoothed_predictions_are_reproducible_by_seed(self, figure1_table):
        tests = Dataset((
            Sample(id="t1", scores=ScorePair(0.75, 0.75)),
            Sample(id="t2", scores=ScorePair(0.4, 0.6, probability=True)),
        ))
        first = predict_set(
            figure1_table, tests, SignificanceLevel(0.2),
            smoothed=True, rng=np.random.default_rng(5),
        )
        second = predict_set(
            figure1_table, tests, SignificanceLevel(0.2),
            smoothed=True, rng=np.random.default_rng(5),
        )
        assert [(p.p.p_pos, p.p.p_neg) for p in first] == [
            (p.p.p_pos, p.p.p_neg) for p in second
        ]
