from unittest import mock

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
    PredictionRegion,
    SignificanceLevel,
)
from bincp.data import SyntheticSpec, generate_synthetic
from bincp.evaluate import (
    RegionDistribution,
    _region_codes,
    auroc,
    binary_report,
    calibration_report,
    efficiency,
    evaluate_predictions,
    region_distribution,
    scored_accuracy,
    validity,
)
from bincp.icp import predict_set, region
from bincp.nonconformity import MeasureSpec, TrainingBag, score_dataset
from oracles import all_pairs_auroc, forced_choice, region_figures

# Region codes.
POS, NEG, BOTH, EMPTY = (
    REGIONS.index(kind)
    for kind in (
        PredictionRegion.SINGLE_POSITIVE,
        PredictionRegion.SINGLE_NEGATIVE,
        PredictionRegion.BOTH,
        PredictionRegion.EMPTY,
    )
)


def mixture(correct_single, false_single, both, empty):
    """Region codes plus a positive mask realizing the requested four-way counts."""
    regions = (
        [POS] * correct_single + [POS] * false_single + [BOTH] * both + [EMPTY] * empty
    )
    positive = (
        [True] * correct_single + [False] * false_single + [True] * both + [False] * empty
    )
    return regions, positive


class TestValidity:
    def test_mostly_both_with_some_empty(self):
        regions, truths = mixture(0, 0, 950, 50)
        assert validity(regions, truths) == 0.95

    def test_all_both_is_fully_valid(self):
        regions, truths = mixture(0, 0, 10, 0)
        assert validity(regions, truths) == 1.0

    def test_all_empty_is_never_valid(self):
        regions, truths = mixture(0, 0, 0, 10)
        assert validity(regions, truths) == 0.0

    def test_errors_on_empty_or_mismatched_input(self):
        with pytest.raises(ValueError):
            validity([], [])
        with pytest.raises(ValueError):
            validity([BOTH], [True, False])


class TestEfficiency:
    def test_all_both_is_useless(self):
        assert efficiency([BOTH] * 7) == 0.0

    def test_all_singletons_is_fully_efficient(self):
        assert efficiency([POS, NEG, POS]) == 1.0

    def test_71_2_mixture(self):
        regions, _ = mixture(71, 2, 15, 12)
        assert efficiency(regions) == 0.73

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            efficiency([])


class TestRegionDistribution:
    def test_four_way_mixture(self):
        regions, truths = mixture(18, 5, 25, 2)
        dist = region_distribution(regions, truths)
        assert dist.frac_correct_single == 0.36
        assert dist.frac_false_single == 0.10
        assert dist.frac_both == 0.50
        assert dist.frac_empty == 0.04
        assert dist.validity == 0.86

    def test_all_both(self):
        regions, truths = mixture(0, 0, 9, 0)
        dist = region_distribution(regions, truths)
        assert (dist.frac_correct_single, dist.frac_false_single) == (0.0, 0.0)
        assert (dist.frac_both, dist.frac_empty) == (1.0, 0.0)

    def test_all_singletons_mixture(self):
        regions, truths = mixture(43, 7, 0, 0)
        dist = region_distribution(regions, truths)
        assert dist.frac_correct_single == 0.86
        assert dist.frac_false_single == 0.14
        assert dist.validity == 0.86
        assert dist.efficiency == 1.0

    def test_negative_singletons_count_by_truth(self):
        dist = region_distribution([NEG, NEG], [False, True])
        assert dist.frac_correct_single == 0.5
        assert dist.frac_false_single == 0.5

    def test_invariants_are_enforced(self):
        with pytest.raises(ValueError):
            RegionDistribution(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            RegionDistribution(-0.1, 0.5, 0.5, 0.1)


class TestScoredAccuracy:
    def test_all_both_under_each_convention(self):
        regions, truths = mixture(0, 0, 12, 0)
        assert scored_accuracy("both_correct", regions, truths) == 1.0
        assert scored_accuracy("both_wrong", regions, truths) == 0.0

    def test_four_way_mixture_under_each_convention(self):
        regions, truths = mixture(18, 5, 25, 2)
        assert scored_accuracy("both_correct", regions, truths) == 0.86
        assert scored_accuracy("both_wrong", regions, truths) == 0.36

    def test_empty_regions_are_wrong_under_both_conventions(self):
        regions, truths = mixture(1, 0, 0, 1)
        assert scored_accuracy("both_correct", regions, truths) == 0.5
        assert scored_accuracy("both_wrong", regions, truths) == 0.5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            scored_accuracy("optimistic", [BOTH], [True])

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([POS, NEG, BOTH, EMPTY]),
                st.booleans(),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_decomposition_identities_property(self, rows):
        regions = [r for r, _ in rows]
        truths = [t for _, t in rows]
        dist = region_distribution(regions, truths)
        gap = scored_accuracy("both_correct", regions, truths) - scored_accuracy(
            "both_wrong", regions, truths
        )
        assert abs(validity(regions, truths) - dist.validity) <= 1e-12
        assert abs(efficiency(regions) - dist.efficiency) <= 1e-12
        assert abs(gap - dist.frac_both) <= 1e-12
        n = len(rows)
        assert round(dist.frac_both * n) == sum(1 for r in regions if r == BOTH)


def scored_set(s_pos, positive, probability=True):
    """A labelled dataset of s_pos scores: probabilities (s, 1 - s) or generic (s, 0)."""
    s_pos = np.asarray(s_pos, dtype=float)
    s_neg = 1.0 - s_pos if probability else np.zeros_like(s_pos)
    return Dataset.from_columns(
        [f"r{i}" for i in range(len(s_pos))],
        np.where(positive, POSITIVE, NEGATIVE),
        scores=np.column_stack([s_pos, s_neg]),
        probability=probability,
    )


def binary_panel(s_pos, positive, threshold=0.5, probability=True):
    """The thresholded panel of the scores; it does not read any region."""
    return binary_report(scored_set(s_pos, positive, probability), threshold)


def singleton_panel(regions, s_pos, positive):
    return evaluate_predictions(regions, s_pos, positive)["singleton_conditional"]


class TestBinaryMetrics:
    def test_small_confusion_matrix(self):
        m = binary_panel([0.9, 0.3, 0.5, 0.2], [True, True, False, False], threshold=0.5)
        # the 0.5 ties to a positive call, so it lands as a false positive
        assert (m["accuracy"], m["sensitivity"], m["specificity"]) == (0.5, 0.5, 0.5)

    def test_threshold_zero_calls_everything_positive(self):
        m = binary_panel([0.0, 1.0], [False, True], threshold=0.0)
        assert m["sensitivity"] == 1.0
        assert m["specificity"] == 0.0

    def test_missing_class_leaves_rate_undefined(self):
        m = binary_panel([0.9, 0.1], [True] * 2)
        assert m["specificity"] is None
        assert m["sensitivity"] == 0.5
        assert m["auroc"] is None

    def test_threshold_must_be_a_unit_interval_value(self):
        with pytest.raises(ValueError):
            binary_panel([0.5], [True], threshold=1.5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: auroc([], []), "s_pos must not be empty"),
        (lambda: evaluate_predictions([], [], []), "regions must not be empty"),
        (lambda: evaluate_predictions([0, 4], [0.5, 0.5], [True, False]),
         "region codes must be in [0, 4)"),
        (lambda: validity([-1, 0], [True, False]), "region codes must be in [0, 4)"),
        (lambda: auroc([0.5], [True, False]),
         "s_pos and positive must have equal length, got 1 and 2"),
        (lambda: evaluate_predictions([0, 1], [0.5, 0.5], [True]),
         "regions and positive must have equal length, got 2 and 1"),
        (lambda: evaluate_predictions([0, 1], [0.5], [True, False]),
         "regions and s_pos must have equal length, got 2 and 1"),
    ],
    ids=["empty-scores", "empty-regions", "code-above", "code-below", "short-truth-auroc",
         "short-truth", "short-scores"],
)
def test_bad_columns_are_rejected_with_their_message(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


def test_evaluate_predictions_checks_its_region_codes_once():
    with mock.patch("bincp.evaluate._region_codes", wraps=_region_codes) as codes:
        evaluate_predictions([0, 1, 2, 3], [0.9, 0.1, 0.5, 0.5], [True, False, True, False])
    assert codes.call_count == 1


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.1, 0.2], [True, True, False, False]) == 1.0

    def test_perfectly_inverted(self):
        assert auroc([0.1, 0.2, 0.9, 0.8], [True, True, False, False]) == 0.0

    def test_all_tied_scores_give_one_half(self):
        assert auroc([0.5] * 6, [True, False] * 3) == 0.5

    def test_single_pair_tie(self):
        assert auroc([0.4, 0.4], [True, False]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.4, 0.6], [True, True])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_all_pairs_oracle_with_heavy_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        values = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
        truths = (rng.random(n) < 0.5).tolist()
        if len(set(truths)) < 2:
            truths[0] = True
            truths[-1] = False
        scores = [float(v) for v in values]
        assert auroc(scores, truths) == all_pairs_auroc(scores, truths)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_all_pairs_oracle_on_signed_zeros_and_infinities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        pool = [-np.inf, -1.0, -0.0, 0.0, 0.5, np.inf]
        values = np.where(rng.random(n) < 0.2, rng.normal(size=n), rng.choice(pool, n))
        truths = (rng.random(n) < 0.5).tolist()
        truths[0], truths[-1] = True, False
        # Unsorted input: a shuffled copy must give the same value.
        scores = values.tolist()
        order = rng.permutation(n).tolist()
        shuffled = [scores[i] for i in order], [truths[i] for i in order]
        assert auroc(scores, truths) == all_pairs_auroc(scores, truths)
        assert auroc(*shuffled) == all_pairs_auroc(scores, truths)

    def test_works_on_unbounded_conformity_scores(self):
        assert auroc([-0.5, -2.0], [True, False]) == 1.0


class TestCalibrationReport:
    def test_figure_one_numbers(self, figure1):
        report = calibration_report(figure1)
        assert report == {"accuracy": 11 / 21, "auroc": 58 / 110, "n": 21}
        assert abs(report["auroc"] - 0.527) <= 0.0005
        assert abs(report["accuracy"] - 0.524) <= 0.0005

    def test_requires_scores_and_labels(self):
        bare = Dataset.from_columns(["x"], [UNKNOWN], [(1.0,)])
        with pytest.raises(ValueError, match="x"):
            calibration_report(bare)

    def test_one_class_gives_no_auroc_and_the_panel_accuracy(self, figure1):
        negatives = figure1.take(~figure1.positive)
        report = calibration_report(negatives)
        # Every s_pos >= 0.5 is a false positive.
        called = int((negatives.scores[:, 0] >= 0.5).sum())
        assert report == {"accuracy": 1 - called / 10, "auroc": None, "n": 10}
        assert report["accuracy"] == binary_panel(
            negatives.scores[:, 0], negatives.positive
        )["accuracy"]

    def test_scores_that_are_not_probabilities_report_the_size_alone(self):
        data = generate_synthetic(SyntheticSpec(n_per_class=15, dim=2, seed=4))
        bag = TrainingBag.from_dataset(data.take(slice(0, None, 2)))
        scored = score_dataset(MeasureSpec("knn_ratio", 1), bag, data.take(slice(1, None, 2)))
        assert not scored.probability
        assert calibration_report(scored) == {"accuracy": None, "auroc": None, "n": 15}


class TestConditionalSingletonMetrics:
    def test_figure_one_self_evaluation(self, figure1, figure1_table):
        regions = region(*predict_set(figure1_table, figure1), SignificanceLevel(0.2))
        scores = figure1.scores[:, 0]
        truths = figure1.positive

        assert validity(regions, truths) == 19 / 21
        assert efficiency(regions) == 5 / 21

        assert singleton_panel(regions, scores, truths) == {
            "accuracy": 3 / 5,
            "sensitivity": 1 / 2,
            "specificity": 2 / 3,
            "auroc": 1 / 3,
            "n_singleton": 5,
            "false_positives_in_singletons": 1,
        }

    def test_no_singletons_reports_counts_only(self):
        regions, truths = mixture(0, 0, 3, 1)
        cond = singleton_panel(regions, [0.5] * 4, truths)
        assert cond["n_singleton"] == 0
        assert cond["false_positives_in_singletons"] == 0
        assert cond["accuracy"] is None
        assert cond["auroc"] is None

    def test_single_class_restriction_skips_auroc(self):
        regions = [POS, NEG, BOTH]
        cond = singleton_panel(regions, [0.9, 0.2, 0.5], [True, True, False])
        assert cond["n_singleton"] == 2
        assert cond["auroc"] is None
        assert cond["sensitivity"] == 0.5
        assert cond["specificity"] is None


class TestEvaluatePredictions:
    def test_report_is_internally_consistent(self):
        regions, truths = mixture(18, 5, 25, 2)
        scores = [0.9 if t else 0.1 for t in truths]
        report = evaluate_predictions(regions, scores, truths)
        assert list(report) == [
            "n", "validity", "efficiency", "distribution", "scored_accuracy",
            "singleton_conditional",
        ]
        assert report["n"] == 50
        dist = report["distribution"]
        assert abs(report["validity"] - (dist["correct_single"] + dist["both"])) <= 1e-12
        assert abs(
            report["efficiency"] - (dist["correct_single"] + dist["false_single"])
        ) <= 1e-12
        gap = report["scored_accuracy"]["both_correct"] - report["scored_accuracy"]["both_wrong"]
        assert abs(gap - dist["both"]) <= 1e-12
        binary = binary_panel(scores, truths)
        assert binary["auroc"] == 1.0
        assert binary["accuracy"] == 1.0

    def test_non_probability_scores_skip_thresholded_rates(self):
        _, truths = mixture(1, 1, 1, 1)
        binary = binary_panel([-0.1, -0.2, -0.9, -0.8], truths, probability=False)
        assert binary["accuracy"] is None
        assert binary["sensitivity"] is None
        assert binary["auroc"] is not None


# Probability scores from a grid, so thresholds and scores tie; generic
# scores add signed zeros and infinities.
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
PROBABILITY_SCORES = st.sampled_from(GRID) | st.floats(0.0, 1.0)
GENERIC_SCORES = st.sampled_from([-np.inf, -1.0, -0.0, *GRID, np.inf]) | st.floats(
    allow_nan=False
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_forced_choice_blocks_match_the_row_by_row_oracle(data):
    probability = data.draw(st.booleans())
    rows = data.draw(st.lists(
        st.tuples(
            st.sampled_from([POS, NEG, BOTH, EMPTY]),
            st.booleans(),
            PROBABILITY_SCORES if probability else GENERIC_SCORES,
        ),
        min_size=1,
        max_size=40,
    ))
    threshold = data.draw(st.sampled_from(GRID) | st.floats(0.0, 1.0))
    regions, truths, s_pos = (list(column) for column in zip(*rows))
    dataset = scored_set(s_pos, truths, probability)

    binary = forced_choice([s >= threshold for s in s_pos], s_pos, truths)
    calibration = {"accuracy": None, "auroc": None, "n": len(rows)}
    if probability:
        calibration.update(accuracy=binary["accuracy"], auroc=binary["auroc"])
    else:
        binary.update(accuracy=None, sensitivity=None, specificity=None)
    assert binary_report(dataset, threshold) == binary
    assert calibration_report(dataset, threshold) == calibration

    singles = [row for row in rows if row[0] in (POS, NEG)]
    singleton = forced_choice(
        [code == POS for code, _, _ in singles],
        [s for _, _, s in singles],
        [truth for _, truth, _ in singles],
    )
    singleton["n_singleton"] = len(singles)
    singleton["false_positives_in_singletons"] = sum(
        code == POS and not truth for code, truth, _ in singles
    )
    assert evaluate_predictions(regions, s_pos, truths)["singleton_conditional"] == singleton


@given(rows=st.lists(
    st.tuples(st.sampled_from([POS, NEG, BOTH, EMPTY]), st.booleans()),
    min_size=1,
    max_size=60,
))
@settings(max_examples=200, deadline=None)
def test_region_figures_match_the_row_by_row_oracle(rows):
    regions, truths = (list(column) for column in zip(*rows))
    expected = region_figures(regions, truths)
    report = evaluate_predictions(regions, [0.5] * len(rows), truths)
    singleton = report["singleton_conditional"]
    report["singleton_conditional"] = {
        key: singleton[key] for key in expected["singleton_conditional"]
    }
    # The reprs match too, so every figure is a Python int or float.
    assert report == expected
    assert repr(report) == repr(expected)
    assert validity(regions, truths) == expected["validity"]
    assert efficiency(regions) == expected["efficiency"]
    dist = region_distribution(regions, truths)
    assert {kind: getattr(dist, "frac_" + kind) for kind in expected["distribution"]} == (
        expected["distribution"]
    )
    for mode, value in expected["scored_accuracy"].items():
        assert scored_accuracy(mode, regions, truths) == value
