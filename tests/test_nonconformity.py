import math

import numpy as np
import pytest

from bincp import nonconformity
from bincp.core import UNKNOWN, Dataset, Label, _feature_limit
from bincp.nonconformity import MeasureSpec, TrainingBag, score_dataset

import oracles


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


def _grouped_layouts():
    """(name, points, labels, queries) cases whose shortlist prunes groups.

    Bags hold about 1,000 points, a size that is not a multiple of
    `_GROUP`, so each class pool has more groups than k + margin for every
    k the tests use, and the last group is padded.  Queries include the
    bag's mean, where a padding row would be nearest if it were not
    excluded.
    """
    size = nonconformity._GROUP
    n = size * (1000 // size) + 3
    groups = -(-n // size)
    rng = np.random.default_rng(21)
    for dim in (10, 2, 1):
        points = rng.normal(size=(n, dim))
        mean = points.mean(axis=0)
        near_mean = mean + 1e-3 * rng.normal(size=(2, dim))
        queries = np.vstack(
            [rng.normal(size=(12, dim)), mean, near_mean, points[[0, n // 2, n - 1]]]
        )
        yield f"d={dim}", points, rng.random(n) < 0.5, queries

    points = rng.normal(size=(n, 10))
    labels = rng.random(n) < 0.5
    dup = points.copy()
    first = np.arange(0, 40, 4)
    dup[first + groups] = dup[first]  # columns i and i + groups: one group
    dup[first + 2] = dup[first]  # two groups apart
    near = dup[first[:4]] + 1e-3 * rng.normal(size=(4, 10))
    queries = np.vstack([dup[first[:6]], near, points.mean(axis=0)])
    yield "duplicates", dup, labels, queries

    queries = np.vstack([rng.normal(size=(12, 10)), points[:4]])
    yield "far", points + 1e8, labels, queries + 1e8

    # More copies of one point than any shortlist holds, all of one class
    # and spread over many groups, so queries near them take the exact
    # fallback in either class pool.
    tied, tied_labels = points.copy(), labels.copy()
    copies = rng.choice(n, 60, replace=False)
    tied[copies] = tied[copies[0]]
    tied_labels[copies] = True
    close = tied[copies[0]] + 1e-2 * rng.normal(size=(6, 10))
    yield "tied", tied, tied_labels, np.vstack([tied[copies[:1]], close])

    # For each k, a cluster of exactly k + margin copies of one point, one
    # copy per group and far from the rest, labelled alternately in index
    # order.  Every copy's group must be kept: a shortlist one group short
    # would prove a row that leaves out a copy, and which copies fill the
    # k nearest (ties go to the lower index) changes the score.
    crowd, crowd_labels = points.copy(), labels.copy()
    centres = 20.0 * np.eye(4, 10)
    slots = rng.permutation(groups - 1)
    for centre, k in zip(centres, (1, 5, 9, 40)):
        count = k + nonconformity._SHORTLIST_MARGIN
        chosen, slots = slots[:count], slots[count:]
        # Any row of groups but the last stays inside the bag.
        columns = chosen + groups * rng.integers(0, size - 1, count)
        crowd[columns] = centre
        crowd_labels[np.sort(columns)] = np.arange(count) % 2 == 0
    queries = np.vstack([centres, centres + 1e-3 * rng.normal(size=centres.shape)])
    yield "crowd", crowd, crowd_labels, queries


def bag_of(*pairs):
    return TrainingBag.from_pairs(
        [(features, label) for features, label in pairs]
    )


def rows(points):
    """An unlabelled dataset of feature rows q0, q1, ..."""
    return Dataset.from_columns(
        [f"q{i}" for i in range(len(points))], [UNKNOWN] * len(points), points
    )


def alphas(bag, point, k=1):
    """(alpha under positive, alpha under negative) of one point, by batch scoring."""
    out = score_dataset(MeasureSpec("knn_ratio", k), bag, rows([point]))
    s_pos, s_neg = out.scores[0].tolist()
    return -s_pos, -s_neg


def positive_fraction(bag, point, k):
    """s_pos of one point under the knn_prob measure, by batch scoring."""
    out = score_dataset(MeasureSpec("knn_prob", k), bag, rows([point]))
    assert out.probability and out.scores[0, 1] == 1.0 - out.scores[0, 0]
    return out.scores[0, 0]


class TestKnnDistanceRatio:
    # One-row cases of the knn_ratio measure: alphas() gives the strangeness
    # under the positive and under the negative hypothesis.
    def test_equidistant_neighbours_give_one(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((2.0,), Label.POSITIVE))
        assert alphas(bag, (1.0,))[1] == 1.0

    def test_sitting_on_same_label_point_gives_zero(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((2.0,), Label.POSITIVE))
        assert alphas(bag, (0.0,))[1] == 0.0

    def test_one_dimensional_worked_case(self):
        # same-label distance 6, opposite-label distance 3, by hand
        bag = bag_of(
            ((0.0,), Label.NEGATIVE),
            ((1.0,), Label.NEGATIVE),
            ((10.0,), Label.POSITIVE),
        )
        assert alphas(bag, (4.0,))[0] == 6.0 / 3.0

    def test_sitting_on_other_label_point_gives_infinity(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((2.0,), Label.POSITIVE))
        assert alphas(bag, (2.0,))[1] == math.inf

    def test_coincident_same_and_other_label_gives_one(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((0.0,), Label.POSITIVE))
        assert alphas(bag, (0.0,)) == (1.0, 1.0)

    def test_no_same_label_neighbour_gives_infinity(self):
        bag = bag_of(((0.0,), Label.NEGATIVE))
        assert alphas(bag, (5.0,))[0] == math.inf

    def test_no_other_label_neighbour_gives_zero(self):
        bag = bag_of(((0.0,), Label.NEGATIVE))
        assert alphas(bag, (5.0,))[1] == 0.0

    def test_k_larger_than_one_averages_distances(self):
        # same-label distances 1 and 3 (mean 2), other-label distances 4 and 8 (mean 6)
        bag = bag_of(
            ((1.0,), Label.POSITIVE),
            ((3.0,), Label.POSITIVE),
            ((4.0,), Label.NEGATIVE),
            ((8.0,), Label.NEGATIVE),
        )
        assert alphas(bag, (0.0,), k=2)[0] == pytest.approx(2.0 / 6.0)

    def test_k_beyond_pool_size_uses_available_neighbours(self):
        bag = bag_of(((1.0,), Label.POSITIVE), ((4.0,), Label.NEGATIVE))
        assert alphas(bag, (0.0,), k=5)[0] == 1.0 / 4.0

    def test_scale_invariance_power_of_two_is_exact(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(12, 3))
        labels = rng.random(12) < 0.5
        query = rng.normal(size=3)
        bag = TrainingBag(points, labels)
        for scale in (0.5, 2.0, 4.0):
            scaled = TrainingBag(points * scale, labels)
            assert alphas(scaled, query * scale, k=2) == alphas(bag, query, k=2)

    def test_scale_invariance_general_scale_is_close(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(10, 2))
        labels = rng.random(10) < 0.5
        query = rng.normal(size=2)
        bag = TrainingBag(points, labels)
        scaled = TrainingBag(points * 3.7, labels)
        assert alphas(scaled, query * 3.7)[0] == (
            pytest.approx(alphas(bag, query)[0], rel=1e-9)
        )

    def test_swapping_bag_labels_swaps_hypotheses(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(9, 2))
        labels = rng.random(9) < 0.4
        query = rng.normal(size=2)
        bag = TrainingBag(points, labels)
        flipped = TrainingBag(points, ~labels)
        assert alphas(bag, query)[0] == alphas(flipped, query)[1]

    def test_dimension_mismatch_rejected(self):
        bag = bag_of(((0.0, 0.0), Label.NEGATIVE), ((1.0, 1.0), Label.POSITIVE))
        with pytest.raises(ValueError):
            alphas(bag, (1.0,))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            MeasureSpec("knn_ratio", 0)


class TestConformityFromRatio:
    # score_dataset negates the distance ratio into the shared
    # higher-is-more-conforming direction.
    def test_direction_flip(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((3.0,), Label.POSITIVE))
        out = score_dataset(MeasureSpec("knn_ratio", 1), bag, rows([(1.0,)]))
        assert oracles.knn_distance_ratio(bag, (1.0,), Label.POSITIVE) == 2.0
        assert out.scores.tolist() == [[-2.0, -0.5]]
        assert not out.probability

    def test_infinite_strangeness_maps_to_minus_infinity(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((3.0,), Label.POSITIVE))
        out = score_dataset(MeasureSpec("knn_ratio", 1), bag, rows([(0.0,)]))
        assert oracles.knn_distance_ratio(bag, (0.0,), Label.POSITIVE) == math.inf
        assert out.scores[0, 0] == -math.inf

    def test_ratio_array_takes_every_degenerate_case_of_the_scalar_ratio(self):
        values = [0.0, 1e-9, 0.5, 2.0, 1e9, math.inf]
        pairs = [(a, b) for a in values for b in values]
        d_same, d_diff = np.array(pairs).T
        expected = [oracles.ratio(a, b) for a, b in pairs]
        assert nonconformity._ratio_array(d_same, d_diff).tolist() == expected

    def test_ratio_beyond_the_largest_float_is_infinite_without_a_warning(self):
        # The suite turns warnings into errors, so an overflow warning fails here.
        ratio = nonconformity._ratio_array(np.array([1e300]), np.array([1e-300]))
        assert ratio.tolist() == [math.inf]


class TestKnnProbabilityScores:
    # One-row cases of the knn_prob measure.
    def test_two_nearest_positives(self):
        bag = bag_of(
            ((0.0,), Label.POSITIVE),
            ((1.0,), Label.POSITIVE),
            ((10.0,), Label.NEGATIVE),
        )
        assert positive_fraction(bag, (0.5,), k=2) == 1.0

    def test_mixed_neighbourhood(self):
        bag = bag_of(
            ((0.0,), Label.POSITIVE),
            ((1.0,), Label.NEGATIVE),
            ((2.0,), Label.NEGATIVE),
            ((3.0,), Label.NEGATIVE),
        )
        assert positive_fraction(bag, (0.1,), k=4) == 0.25

    def test_distance_ties_break_by_bag_index(self):
        # both bag points sit at distance 1; index 0 wins the k=1 slot
        bag = bag_of(((0.0,), Label.POSITIVE), ((2.0,), Label.NEGATIVE))
        assert positive_fraction(bag, (1.0,), k=1) == 1.0
        flipped = bag_of(((0.0,), Label.NEGATIVE), ((2.0,), Label.POSITIVE))
        assert positive_fraction(flipped, (1.0,), k=1) == 0.0

    def test_k_bounds_enforced(self):
        bag = bag_of(((0.0,), Label.POSITIVE), ((1.0,), Label.NEGATIVE))
        with pytest.raises(ValueError):
            positive_fraction(bag, (0.5,), k=0)
        with pytest.raises(ValueError):
            positive_fraction(bag, (0.5,), k=3)


class TestTrainingBag:
    def test_empty_bag_rejected(self):
        with pytest.raises(ValueError):
            TrainingBag.from_pairs([])

    def test_arrays_are_read_only(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((1.0,), Label.POSITIVE))
        with pytest.raises(ValueError):
            bag.points[0, 0] = 5.0

    @pytest.mark.parametrize("dim", [1, 3])
    def test_points_beyond_the_feature_bound_are_rejected(self, dim):
        limit = _feature_limit(dim)
        points = np.full((2, dim), -limit)
        TrainingBag(points, [True, False])
        points[1, -1] = np.nextafter(limit, np.inf)
        with pytest.raises(ValueError, match="bag points must be within"):
            TrainingBag(points, [True, False])

    def test_from_dataset_requires_features_and_labels(self):
        data = rows([(0.0,), (1.0,)])
        with pytest.raises(ValueError, match="q0"):
            TrainingBag.from_dataset(data)
        scored = Dataset.from_columns(["a"], [1], scores=[(0.5, 0.5)], probability=True)
        with pytest.raises(ValueError, match="a"):
            TrainingBag.from_dataset(scored)


class TestScoreDataset:
    def test_passthrough_keeps_scores_and_input_untouched(self):
        scores = np.array([[0.4, 0.6]] * 3)
        data = Dataset.from_columns(
            ["s0", "s1", "s2"], [UNKNOWN] * 3, scores=scores, probability=True
        )
        out = score_dataset(MeasureSpec("passthrough"), None, data)
        assert out.scores.tolist() == scores.tolist()
        assert data.scores.tolist() == scores.tolist()
        assert not data.scores.flags.writeable

    def test_passthrough_requires_scores(self):
        data = Dataset.from_columns(["a"], [UNKNOWN], [(0.0,)])
        with pytest.raises(ValueError, match="a"):
            score_dataset(MeasureSpec("passthrough"), None, data)

    def test_ratio_measure_worked_case(self):
        bag = bag_of(
            ((0.0,), Label.NEGATIVE),
            ((1.0,), Label.NEGATIVE),
            ((10.0,), Label.POSITIVE),
        )
        out = score_dataset(MeasureSpec("knn_ratio", 1), bag, rows([(4.0,)]))
        assert out.scores.tolist() == [[-2.0, -0.5]]

    def test_neighbour_measures_need_a_bag(self):
        with pytest.raises(ValueError):
            score_dataset(MeasureSpec("knn_ratio", 1), None, rows([(4.0,)]))

    def test_neighbour_measures_need_features(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((1.0,), Label.POSITIVE))
        data = Dataset.from_columns(["q"], [UNKNOWN], scores=[(0.5, 0.5)], probability=True)
        with pytest.raises(ValueError, match="q"):
            score_dataset(MeasureSpec("knn_prob", 1), bag, data)

    def test_empty_dataset_scores_to_empty(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((1.0,), Label.POSITIVE))
        out = score_dataset(MeasureSpec("knn_ratio", 1), bag, Dataset(()))
        assert len(out) == 0

    @staticmethod
    def _check_layouts(layouts, kind, k, monkeypatch):
        """Score each layout's queries and compare them with the oracles.

        Returns the names of the layouts where the exact fallback ran.
        """
        fallback_layouts = set()
        exact = nonconformity._distances
        calls = []

        def counted(points, x):
            calls.append(x)
            return exact(points, x)

        monkeypatch.setattr(nonconformity, "_distances", counted)
        for layout, points, labels, queries in layouts:
            bag = TrainingBag(points, labels)
            calls.clear()
            out = score_dataset(MeasureSpec(kind, k), bag, rows(queries))
            if calls:
                fallback_layouts.add(layout)
            for query, (s_pos, s_neg) in zip(queries, out.scores.tolist()):
                if kind == "knn_prob":
                    frac = oracles.knn_positive_fraction(bag, query, k)
                    expected = [frac, 1.0 - frac]
                else:
                    expected = [
                        -oracles.knn_distance_ratio(bag, query, label, k)
                        for label in (Label.POSITIVE, Label.NEGATIVE)
                    ]
                assert [s_pos, s_neg] == expected, layout
        return fallback_layouts

    @pytest.mark.parametrize("kind", ["knn_ratio", "knn_prob"])
    @pytest.mark.parametrize("k", [1, 2, 5, 9, 40, 60])
    def test_batch_scoring_matches_single_point_scoring(self, kind, k, monkeypatch):
        # Bit-for-bit oracle for the blocked k-nearest kernel; k=60 is the
        # whole bag.  The "tied" layout puts 55 copies of one point next to
        # the queries, more than k + margin, so the exact fallback must run.
        fallback = self._check_layouts(_scoring_layouts(), kind, k, monkeypatch)
        if k <= 9:
            assert "tied" in fallback, "exact fallback did not run"

    @pytest.mark.parametrize("kind", ["knn_ratio", "knn_prob"])
    @pytest.mark.parametrize("k", [1, 5, 9, 40])
    def test_group_pruned_shortlist_matches_single_point_scoring(
        self, kind, k, monkeypatch
    ):
        # The same oracle on bags large enough that the shortlist keeps only
        # some of the groups of each class pool.
        for layout, points, labels, _ in _grouped_layouts():
            assert len(points) % nonconformity._GROUP != 0
            smallest_pool = min(labels.sum(), (~labels).sum())
            groups = -(-smallest_pool // nonconformity._GROUP)
            assert groups > k + nonconformity._SHORTLIST_MARGIN, layout
        fallback = self._check_layouts(_grouped_layouts(), kind, k, monkeypatch)
        assert "tied" in fallback, "exact fallback did not run"

    def test_overflowing_squares_fall_back_within_the_bag(self):
        # |p|^2 overflows, so every GEMM value is inf or nan: no row can be
        # proven, and no padding column may be taken for a bag point.
        rng = np.random.default_rng(5)
        for n in (20, 21, 61):
            points = np.sort(rng.uniform(-1.0, 1.0, size=(n, 1)), axis=0) * 1e200
            queries = np.array([[3e200], [-3e200], [1e199]])
            with np.errstate(over="ignore", invalid="ignore"):
                index, dist = nonconformity._k_nearest(queries, points, 5)
                for query, got_index, got_dist in zip(queries, index, dist):
                    d = oracles.distances(points, query)
                    nearest = np.argsort(d, kind="stable")[:5]
                    assert got_index.tolist() == nearest.tolist()
                    assert got_dist.tolist() == d[nearest].tolist()

    def test_duplicate_points_across_classes_score_to_negative_infinity(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((0.0,), Label.POSITIVE))
        out = score_dataset(MeasureSpec("knn_ratio", 1), bag, rows([(1.0,)]))
        # equal distances to both classes: alpha 1 either way
        assert out.scores.tolist() == [[-1.0, -1.0]]

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpec("svm")
