import math

import numpy as np
import pytest

from bincp import nonconformity
from bincp.core import Dataset, Label, Sample, ScorePair
from bincp.nonconformity import (
    MeasureSpec,
    NonconformityValue,
    TrainingBag,
    conformity_from_ratio,
    knn_distance_ratio,
    knn_probability_scores,
    probability_conformity,
    score_dataset,
)


def _scoring_layouts():
    """(name, points, labels, queries) cases for the batch scoring oracle.

    Every bag has 60 points in 10 dimensions and two classes of about 30,
    except the one-class bag.
    """
    rng = np.random.default_rng(20)
    points = rng.normal(size=(60, 10))
    labels = rng.random(60) < 0.5
    queries = rng.normal(size=(12, 10))
    yield "plain", points, labels, queries

    dup, dup_labels = points.copy(), labels.copy()
    dup[10:20] = dup[0]  # duplicates within one class
    dup_labels[10:20] = dup_labels[0]
    dup[20:30] = dup[1]  # duplicates split across the classes
    dup_labels[20:30] = np.arange(10) % 2 == 0
    near = dup[[0, 1, 0, 1]] + 1e-3 * rng.normal(size=(4, 10))
    yield "duplicates", dup, dup_labels, np.vstack([queries, dup[[0, 1]], near])

    yield "one-class", points, np.ones(60, dtype=bool), queries

    # Uncentred, |q|^2 + |p|^2 - 2 q.p would cancel badly this far out.
    yield "far", points + 1e8, labels, queries + 1e8

    tied = points.copy()
    tied[:55] = tied[0]
    close = tied[0] + 1e-2 * rng.normal(size=(6, 10))
    yield "tied", tied, labels, np.vstack([tied[:1], close, queries])


def bag_of(*pairs):
    return TrainingBag.from_pairs(
        [(features, label) for features, label in pairs]
    )


class TestKnnDistanceRatio:
    def test_equidistant_neighbours_give_one(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((2.0,), Label.POSITIVE))
        assert knn_distance_ratio(bag, (1.0,), Label.NEGATIVE).alpha == 1.0

    def test_sitting_on_same_label_point_gives_zero(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((2.0,), Label.POSITIVE))
        assert knn_distance_ratio(bag, (0.0,), Label.NEGATIVE).alpha == 0.0

    def test_one_dimensional_worked_case(self):
        # same-label distance 6, opposite-label distance 3, by hand
        bag = bag_of(
            ((0.0,), Label.NEGATIVE),
            ((1.0,), Label.NEGATIVE),
            ((10.0,), Label.POSITIVE),
        )
        value = knn_distance_ratio(bag, (4.0,), Label.POSITIVE)
        assert value.alpha == 6.0 / 3.0

    def test_sitting_on_other_label_point_gives_infinity(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((2.0,), Label.POSITIVE))
        assert knn_distance_ratio(bag, (2.0,), Label.NEGATIVE).alpha == math.inf

    def test_coincident_same_and_other_label_gives_one(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((0.0,), Label.POSITIVE))
        assert knn_distance_ratio(bag, (0.0,), Label.NEGATIVE).alpha == 1.0

    def test_no_same_label_neighbour_gives_infinity(self):
        bag = bag_of(((0.0,), Label.NEGATIVE))
        assert knn_distance_ratio(bag, (5.0,), Label.POSITIVE).alpha == math.inf

    def test_no_other_label_neighbour_gives_zero(self):
        bag = bag_of(((0.0,), Label.NEGATIVE))
        assert knn_distance_ratio(bag, (5.0,), Label.NEGATIVE).alpha == 0.0

    def test_k_larger_than_one_averages_distances(self):
        # same-label distances 1 and 3 (mean 2), other-label distances 4 and 8 (mean 6)
        bag = bag_of(
            ((1.0,), Label.POSITIVE),
            ((3.0,), Label.POSITIVE),
            ((4.0,), Label.NEGATIVE),
            ((8.0,), Label.NEGATIVE),
        )
        value = knn_distance_ratio(bag, (0.0,), Label.POSITIVE, k=2)
        assert value.alpha == pytest.approx(2.0 / 6.0)

    def test_k_beyond_pool_size_uses_available_neighbours(self):
        bag = bag_of(((1.0,), Label.POSITIVE), ((4.0,), Label.NEGATIVE))
        value = knn_distance_ratio(bag, (0.0,), Label.POSITIVE, k=5)
        assert value.alpha == 1.0 / 4.0

    def test_scale_invariance_power_of_two_is_exact(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(12, 3))
        labels = rng.random(12) < 0.5
        query = rng.normal(size=3)
        bag = TrainingBag(points, labels)
        for scale in (0.5, 2.0, 4.0):
            scaled = TrainingBag(points * scale, labels)
            for label in (Label.POSITIVE, Label.NEGATIVE):
                assert (
                    knn_distance_ratio(scaled, query * scale, label, k=2).alpha
                    == knn_distance_ratio(bag, query, label, k=2).alpha
                )

    def test_scale_invariance_general_scale_is_close(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(10, 2))
        labels = rng.random(10) < 0.5
        query = rng.normal(size=2)
        bag = TrainingBag(points, labels)
        scaled = TrainingBag(points * 3.7, labels)
        assert knn_distance_ratio(scaled, query * 3.7, Label.POSITIVE).alpha == (
            pytest.approx(knn_distance_ratio(bag, query, Label.POSITIVE).alpha, rel=1e-9)
        )

    def test_swapping_bag_labels_swaps_hypotheses(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(9, 2))
        labels = rng.random(9) < 0.4
        query = rng.normal(size=2)
        bag = TrainingBag(points, labels)
        flipped = TrainingBag(points, ~labels)
        assert (
            knn_distance_ratio(bag, query, Label.POSITIVE).alpha
            == knn_distance_ratio(flipped, query, Label.NEGATIVE).alpha
        )

    def test_dimension_mismatch_rejected(self):
        bag = bag_of(((0.0, 0.0), Label.NEGATIVE), ((1.0, 1.0), Label.POSITIVE))
        with pytest.raises(ValueError):
            knn_distance_ratio(bag, (1.0,), Label.POSITIVE)

    def test_k_must_be_positive(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((1.0,), Label.POSITIVE))
        with pytest.raises(ValueError):
            knn_distance_ratio(bag, (0.5,), Label.POSITIVE, k=0)


class TestConformityFromRatio:
    def test_direction_flip(self):
        assert conformity_from_ratio(NonconformityValue(0.0)) == 0.0
        assert conformity_from_ratio(NonconformityValue(2.0)) == -2.0

    def test_infinite_strangeness_maps_to_minus_infinity(self):
        assert conformity_from_ratio(NonconformityValue(math.inf)) == -math.inf

    def test_nonconformity_value_rejects_negative_and_nan(self):
        with pytest.raises(ValueError):
            NonconformityValue(-0.1)
        with pytest.raises(ValueError):
            NonconformityValue(math.nan)


class TestProbabilityConformity:
    def test_selects_the_hypothesized_side(self):
        pair = ScorePair(0.48, 0.52, probability=True)
        assert probability_conformity(pair, Label.NEGATIVE) == 0.52
        assert probability_conformity(pair, Label.POSITIVE) == 0.48

    def test_symmetry_under_swap_and_flip(self):
        pair = ScorePair(0.3, 0.7, probability=True)
        for label in (Label.POSITIVE, Label.NEGATIVE):
            assert probability_conformity(pair, label) == probability_conformity(
                pair.swapped(), label.flipped()
            )

    def test_rejects_generic_scores(self):
        with pytest.raises(ValueError):
            probability_conformity(ScorePair(-2.0, -0.5), Label.POSITIVE)


class TestKnnProbabilityScores:
    def test_two_nearest_positives(self):
        bag = bag_of(
            ((0.0,), Label.POSITIVE),
            ((1.0,), Label.POSITIVE),
            ((10.0,), Label.NEGATIVE),
        )
        assert knn_probability_scores(bag, (0.5,), k=2) == ScorePair(
            1.0, 0.0, probability=True
        )

    def test_mixed_neighbourhood(self):
        bag = bag_of(
            ((0.0,), Label.POSITIVE),
            ((1.0,), Label.NEGATIVE),
            ((2.0,), Label.NEGATIVE),
            ((3.0,), Label.NEGATIVE),
        )
        pair = knn_probability_scores(bag, (0.1,), k=4)
        assert pair == ScorePair(0.25, 0.75, probability=True)

    def test_distance_ties_break_by_bag_index(self):
        # both bag points sit at distance 1; index 0 wins the k=1 slot
        bag = bag_of(((0.0,), Label.POSITIVE), ((2.0,), Label.NEGATIVE))
        assert knn_probability_scores(bag, (1.0,), k=1).s_pos == 1.0
        flipped = bag_of(((0.0,), Label.NEGATIVE), ((2.0,), Label.POSITIVE))
        assert knn_probability_scores(flipped, (1.0,), k=1).s_pos == 0.0

    def test_k_bounds_enforced(self):
        bag = bag_of(((0.0,), Label.POSITIVE), ((1.0,), Label.NEGATIVE))
        with pytest.raises(ValueError):
            knn_probability_scores(bag, (0.5,), k=0)
        with pytest.raises(ValueError):
            knn_probability_scores(bag, (0.5,), k=3)


class TestTrainingBag:
    def test_empty_bag_rejected(self):
        with pytest.raises(ValueError):
            TrainingBag.from_pairs([])

    def test_arrays_are_read_only(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((1.0,), Label.POSITIVE))
        with pytest.raises(ValueError):
            bag.points[0, 0] = 5.0

    def test_with_sample_grows_a_copy(self):
        bag = bag_of(((0.0,), Label.NEGATIVE))
        grown = bag.with_sample((1.0,), Label.POSITIVE)
        assert len(bag) == 1
        assert len(grown) == 2
        assert bool(grown.is_positive[1])

    def test_from_dataset_requires_features_and_labels(self):
        data = Dataset((Sample(id="a", scores=ScorePair(0.5, 0.5, probability=True)),))
        with pytest.raises(ValueError):
            TrainingBag.from_dataset(data)


class TestScoreDataset:
    def test_passthrough_keeps_scores_and_input_untouched(self):
        samples = tuple(
            Sample(id=f"s{i}", scores=ScorePair(0.4, 0.6, probability=True))
            for i in range(3)
        )
        data = Dataset(samples)
        out = score_dataset(MeasureSpec("passthrough"), None, data)
        assert out is not data
        assert [s.scores for s in out] == [s.scores for s in data]

    def test_passthrough_requires_scores(self):
        data = Dataset((Sample(id="a", features=(0.0,)),))
        with pytest.raises(ValueError, match="a"):
            score_dataset(MeasureSpec("passthrough"), None, data)

    def test_ratio_measure_worked_case(self):
        bag = bag_of(
            ((0.0,), Label.NEGATIVE),
            ((1.0,), Label.NEGATIVE),
            ((10.0,), Label.POSITIVE),
        )
        data = Dataset((Sample(id="q", features=(4.0,)),))
        out = score_dataset(MeasureSpec("knn_ratio", 1), bag, data)
        assert out[0].scores == ScorePair(-2.0, -0.5)

    def test_neighbour_measures_need_a_bag(self):
        data = Dataset((Sample(id="q", features=(4.0,)),))
        with pytest.raises(ValueError):
            score_dataset(MeasureSpec("knn_ratio", 1), None, data)

    def test_neighbour_measures_need_features(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((1.0,), Label.POSITIVE))
        data = Dataset((Sample(id="q", scores=ScorePair(0.5, 0.5, probability=True)),))
        with pytest.raises(ValueError, match="q"):
            score_dataset(MeasureSpec("knn_prob", 1), bag, data)

    def test_empty_dataset_scores_to_empty(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((1.0,), Label.POSITIVE))
        out = score_dataset(MeasureSpec("knn_ratio", 1), bag, Dataset(()))
        assert len(out) == 0

    @pytest.mark.parametrize("kind", ["knn_ratio", "knn_prob"])
    @pytest.mark.parametrize("k", [1, 2, 5, 9, 40, 60])
    def test_batch_scoring_matches_single_point_scoring(self, kind, k, monkeypatch):
        # Bit-for-bit oracle for the blocked k-nearest kernel; k=60 is the
        # whole bag.  The "tied" layout puts 55 copies of one point next to
        # the queries, more than k + margin, so the exact fallback must run.
        fallback_rows = []
        exact = nonconformity._distances

        def counted(points, x):
            fallback_rows.append(x)
            return exact(points, x)

        monkeypatch.setattr(nonconformity, "_distances", counted)
        for layout, points, labels, queries in _scoring_layouts():
            bag = TrainingBag(points, labels)
            data = Dataset(
                tuple(
                    Sample(id=f"q{i}", features=tuple(q))
                    for i, q in enumerate(queries)
                )
            )
            fallback_rows.clear()
            out = score_dataset(MeasureSpec(kind, k), bag, data)
            if layout == "tied" and k <= 9:
                assert fallback_rows, "exact fallback did not run"
            for sample in out:
                if kind == "knn_prob":
                    expected = knn_probability_scores(bag, sample.features, k)
                else:
                    a_pos = knn_distance_ratio(bag, sample.features, Label.POSITIVE, k)
                    a_neg = knn_distance_ratio(bag, sample.features, Label.NEGATIVE, k)
                    expected = ScorePair(
                        conformity_from_ratio(a_pos), conformity_from_ratio(a_neg)
                    )
                assert sample.scores == expected, (layout, sample.id)

    def test_duplicate_points_across_classes_score_to_negative_infinity(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((0.0,), Label.POSITIVE))
        data = Dataset((Sample(id="q", features=(1.0,)),))
        out = score_dataset(MeasureSpec("knn_ratio", 1), bag, data)
        # equal distances to both classes: alpha 1 either way
        assert out[0].scores == ScorePair(-1.0, -1.0)

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpec("svm")
