import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bincp import nonconformity
from bincp.core import UNKNOWN, Dataset, Label, _feature_limit
from bincp.nonconformity import MeasureSpec, TrainingBag, score_dataset

import oracles


def _scoring_layouts():
    """(name, points, labels, queries) cases for the batch scoring oracle.

    Every bag has 60 points in 10 dimensions and two classes of about 30,
    except the one-class bag.  The last four sit at the extremes of the
    kernel's power-of-two scaling.
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

    # Squared distances from the origin of 1 + 2e-8 j, j = 0..59 in shuffled
    # order: the k-th and (k + margin)-th differ by 1.6e-7, far above the
    # rounding of a float64 product (about 1e-14 here) but below that of a
    # float32 one (about 3e-6), so these rows must take the exact fallback.
    sphere = rng.normal(size=(60, 10))
    sphere *= (1.0 + 1e-8 * rng.permutation(60))[:, None] / np.linalg.norm(sphere, axis=1)[:, None]
    near_origin = np.vstack([np.zeros(10), 1e-9 * rng.normal(size=(3, 10))])
    yield "float32-resolution", sphere, labels, near_origin

    limit = _feature_limit(10)
    spread = rng.uniform(-1.0, 1.0, size=(72, 10)) * limit
    yield "feature-limit", spread[:60], labels, spread[60:]

    yield "tiny", points * 1e-30, labels, queries * 1e-30

    # The queries set the scale, so the bag's spread is about 1e-6 of it.
    yield "far-query", points * 1e-3, labels, queries + 1e3

    # One far query sets the scale, so the bag's scaled coordinates are
    # near 2^-72 and their float32 squares and products are subnormal.
    shell = rng.normal(size=(60, 10))
    shell *= ((1.0 + 1e-3 * rng.permutation(60)) / np.linalg.norm(shell, axis=1))[:, None]
    yield "float32-subnormal", shell * 2.0**-72, labels, np.vstack([np.ones(10), np.zeros(10)])


def _grouped_layouts():
    """(name, points, labels, queries) cases whose shortlist prunes groups.

    Bags hold 2,587 points.  The shortlist pads them to whole super-groups
    of `_GROUP`**2 columns, 41 of them; neither the size nor its group count
    (324) is a multiple of `_GROUP`, so both levels hold padding.  Each
    class pool has about 21 super-groups, so for k up to 9 the super-group
    level prunes in either measure, and for k = 40 it keeps them all.
    Queries include the bag's mean, where a padding row would be nearest if
    it were not excluded.
    """
    size = nonconformity._GROUP
    n = size**2 * 40 + 27
    supers = -(-n // size**2)
    groups = supers * size
    rng = np.random.default_rng(21)
    for dim in (10, 2, 1):
        points = rng.normal(size=(n, dim))
        mean = points.mean(axis=0)
        near_mean = mean + 1e-3 * rng.normal(size=(2, dim))
        queries = np.vstack(
            [rng.normal(size=(12, dim)), mean, near_mean, points[[0, n // 2, n - 1]]]
        )
        yield f"d={dim}", points, rng.random(n) < 0.5, queries

    # Column j is in group j mod groups and super-group j mod supers.
    points = rng.normal(size=(n, 10))
    labels = rng.random(n) < 0.5
    dup = points.copy()
    first = np.arange(0, 40, 4)
    dup[first + groups] = dup[first]  # one group
    dup[first + supers] = dup[first]  # one super-group, two groups
    dup[first + 2] = dup[first]  # two super-groups
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

    # For each k, a cluster of exactly k + margin copies of one point, far
    # from the rest and labelled alternately in index order: one copy per
    # super-group for k up to 9, one per group for k = 40 (more copies than
    # super-groups).  Every copy's super-group and group must be kept: a
    # shortlist one short would prove a row that leaves out a copy, and
    # which copies fill the k nearest (ties go to the lower index) changes
    # the score.
    crowd, crowd_labels = points.copy(), labels.copy()
    centres = 20.0 * np.eye(4, 10)
    residues, taken = rng.permutation(supers), []
    for centre, k in zip(centres, (1, 5, 9, 40)):
        count = k + nonconformity._SHORTLIST_MARGIN
        if k < 40:
            chosen, residues = residues[:count], residues[count:]
            chosen = chosen + supers * rng.integers(0, size, count)
        else:
            chosen = rng.choice(np.setdiff1d(np.arange(groups), taken), count, replace=False)
        taken.extend(chosen)
        # Rows 0 to 6 of any group lie inside the bag.
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

    def test_distances_sum_each_point_in_the_order_of_a_row_sum(self):
        # `_distances` reads points as columns and the oracle sums rows, so
        # the two must add the squares in one order.  Dimensions up to 300
        # take all three branches of `_row_sums`: under 8, up to 128 and
        # split beyond; magnitudes run up to the feature bound.  Points of
        # no features are all at distance 0.
        rng = np.random.default_rng(30)
        for dim in range(301):
            for scale in (1e-150, 1.0, 1e100, _feature_limit(dim)):

                def draw(*shape):
                    spread = 10.0 ** rng.uniform(-3.0, 0.0, size=shape)
                    return scale * spread * rng.uniform(-1.0, 1.0, size=shape)

                points, x = draw(7, dim), draw(dim)
                got = nonconformity._distances(np.ascontiguousarray(points.T), x[:, None])
                assert got.tolist() == oracles.distances(points, x).tolist(), (dim, scale)
                # A block of queries, each against its own gathered points.
                gathered, queries = draw(2, 4, dim), draw(2, dim)
                got = nonconformity._distances(
                    np.ascontiguousarray(np.moveaxis(gathered, -1, 0)), queries.T[:, :, None]
                )
                expected = [oracles.distances(g, q).tolist() for g, q in zip(gathered, queries)]
                assert got.tolist() == expected, (dim, scale)

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


def masked_pool_means(block):
    """`_pool_means` with every entry masked: padding read as 0 in a
    cumulative sum down the columns, divided by each column's pool size."""
    if not block.shape[-2]:
        return np.full(block.shape[:-2] + block.shape[-1:], np.inf)
    finite = np.isfinite(block)
    sums = np.cumsum(np.where(finite, block, 0.0), axis=-2)[..., -1, :]
    counts = finite.sum(axis=-2)
    return np.divide(sums, counts, out=np.full(sums.shape, np.inf), where=counts > 0)


def masked_ratio(d_same, d_diff):
    """`_ratio_array` with its floating-point warnings off and NaN read as 1."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quotient = d_same / d_diff
    return np.where(np.isnan(quotient), 1.0, quotient)


# Neighbour distances: zeros, a subnormal, ties from repeated draws and
# values far apart, all small enough that k of them sum without overflow.
DISTANCE = st.sampled_from([0.0, 5e-324, 1e-9, 0.1, 0.2, 0.3, 0.7, 1.0, 2.0, 1e150])
RATIO_VALUE = st.sampled_from([0.0, 5e-324, 1e-9, 0.5, 2.0, 1e9, 1e150, math.inf])


@st.composite
def pool_blocks(draw):
    """A (sides, rows, columns) block of sorted pools padded with +inf; a
    pool may be empty, and the rows may be none.  The block is in C order,
    in Fortran order, or a view whose columns are contiguous, as batch
    scoring passes the k-nearest distances."""
    sides, rows, cols = draw(st.integers(1, 2)), draw(st.integers(0, 9)), draw(st.integers(1, 6))
    full = draw(st.booleans())
    block = np.full((sides, rows, cols), np.inf)
    for side in range(sides):
        for col in range(cols):
            size = rows if full else draw(st.integers(0, rows))
            pool = draw(st.lists(DISTANCE, min_size=size, max_size=size))
            block[side, :size, col] = sorted(pool)
    layout = draw(st.sampled_from(["C", "F", "columns"]))
    if layout == "columns":
        return np.ascontiguousarray(block.swapaxes(-1, -2)).swapaxes(-1, -2)
    return np.asfortranarray(block) if layout == "F" else block


class TestFastPaths:
    """`_pool_means` and `_ratio_array` give the bits of their masked forms."""

    @given(block=pool_blocks())
    def test_pool_means_match_the_masked_form(self, block):
        got = nonconformity._pool_means(block)
        want = masked_pool_means(block)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(pairs=st.lists(st.tuples(RATIO_VALUE, RATIO_VALUE), min_size=1, max_size=8))
    def test_ratio_array_matches_the_masked_form(self, pairs):
        d_same, d_diff = np.array(pairs).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nonconformity._ratio_array(d_same, d_diff)
        assert got.tobytes() == masked_ratio(d_same, d_diff).tobytes()

    @pytest.mark.parametrize(
        "d_same, d_diff, expected",
        [(0.0, 0.0, 1.0), (math.inf, math.inf, 1.0), (2.0, 0.0, math.inf),
         (1e150, 5e-324, math.inf), (0.5, 2.0, 0.25)],
        ids=["0/0", "inf/inf", "x/0", "huge/subnormal", "plain"],
    )
    def test_ratio_array_warns_on_no_degenerate_case(self, d_same, d_diff, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = nonconformity._ratio_array(np.array([d_same, 1.0]), np.array([d_diff, 1.0]))
        assert ratio.tolist() == [expected, 1.0]


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

    @pytest.mark.parametrize("label", ["positive", True, None])
    def test_labels_that_are_not_label_members_are_rejected(self, label):
        # The text of a label is not a label: it once read as negative.
        with pytest.raises(ValueError, match=f"got {label!r}"):
            TrainingBag.from_pairs([((10.0,), label), ((0.0,), Label.NEGATIVE)])

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
        with pytest.raises(ValueError, match="^bag point 1 has features beyond"):
            TrainingBag(points, [True, False])

    @pytest.mark.parametrize(
        "points, labels, message",
        [
            (np.zeros((0, 2)), [], "bag needs a nonempty (n, m) point array"),
            ([[0.0, math.nan], [1.0, 1.0]], [True, False], "bag point 0 has non-finite features"),
            ([[0.0, 0.0], [-math.inf, 1.0]], [True, False], "bag point 1 has non-finite features"),
            (
                [[0.0, 0.0], [math.nan, 1.0], [1.0, 1.0]],
                [True, False, True],
                "bag point 1 has non-finite features",
            ),
            ([[0.0, 0.0], [1.0, 1.0]], [True], "one label per bag point required"),
        ],
        ids=["no-rows", "nan", "inf", "middle-row", "label-count"],
    )
    def test_a_bad_bag_is_rejected_with_its_message(self, points, labels, message):
        with pytest.raises(ValueError) as caught:
            TrainingBag(points, labels)
        assert str(caught.value) == message

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
    def _fallback_calls(monkeypatch):
        """A list that gains an entry for each query the exact fallback ranks."""
        exact = nonconformity._distances
        calls = []

        def counted(coords, x):
            # The direct form passes a (d, block, width) gather of
            # candidates; the fallback ranks one query against all n
            # points, (d, n).
            if coords.ndim == 2:
                calls.append(x)
            return exact(coords, x)

        monkeypatch.setattr(nonconformity, "_distances", counted)
        return calls

    @classmethod
    def _check_layouts(cls, layouts, kind, k, monkeypatch):
        """Score each layout's queries and compare them with the oracles.

        Returns the names of the layouts where the exact fallback ran, and
        checks that it did not run in all of them.
        """
        fallback_layouts, names = set(), set()
        calls = cls._fallback_calls(monkeypatch)
        for layout, points, labels, queries in layouts:
            names.add(layout)
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
        assert fallback_layouts < names, "every layout took the exact fallback"
        return fallback_layouts

    @pytest.mark.parametrize("kind", ["knn_ratio", "knn_prob"])
    @pytest.mark.parametrize("k", [1, 2, 5, 9, 40, 60])
    def test_batch_scoring_matches_single_point_scoring(self, kind, k, monkeypatch):
        # Bit-for-bit oracle for the blocked k-nearest kernel; k=60 is the
        # whole bag.  The "tied" layout puts 55 copies of one point next to
        # the queries, more than k + margin, and the "float32-resolution"
        # one spaces its points below the float32 product's rounding, so
        # the exact fallback must run in both.
        fallback = self._check_layouts(_scoring_layouts(), kind, k, monkeypatch)
        if k <= 9:
            assert {"tied", "float32-resolution"} <= fallback, "exact fallback did not run"

    @pytest.mark.parametrize("kind", ["knn_ratio", "knn_prob"])
    @pytest.mark.parametrize("k", [1, 5, 9, 40])
    def test_group_pruned_shortlist_matches_single_point_scoring(
        self, kind, k, monkeypatch
    ):
        # The same oracle on bags large enough that the shortlist keeps only
        # some of the groups of each class pool, and some of the super-groups
        # too for k up to 9, while k = 40 keeps every super-group.
        size, width = nonconformity._GROUP, k + nonconformity._SHORTLIST_MARGIN
        for layout, points, labels, _ in _grouped_layouts():
            assert -(-len(points) // size) % size != 0, layout
            pools = [len(points)] if kind == "knn_prob" else [labels.sum(), (~labels).sum()]
            for pool in pools:
                assert -(-pool // size) > width, layout
                assert (-(-pool // size**2) > width) == (k < 40), layout
        fallback = self._check_layouts(_grouped_layouts(), kind, k, monkeypatch)
        assert "tied" in fallback, "exact fallback did not run"

    @pytest.mark.parametrize("k", [5, 9])
    def test_binary_features_fall_back_in_distance_then_index_order(self, k, monkeypatch):
        # Fingerprint-like 0/1 features: distances take the values sqrt(j),
        # j <= 8, so most rows tie past the shortlist's margin and are
        # ranked by the exact fallback, which selects before it sorts.
        rng = np.random.default_rng(8)
        points = rng.integers(0, 2, size=(600, 8)).astype(float)
        queries = rng.integers(0, 2, size=(300, 8)).astype(float)
        calls = self._fallback_calls(monkeypatch)
        index, dist = nonconformity._k_nearest(queries, points, k)
        assert len(calls) > len(queries) // 2
        for query, got_index, got_dist in zip(queries, index, dist):
            d = oracles.distances(points, query)
            nearest = np.lexsort((np.arange(len(points)), d))[:k]
            assert got_index.tolist() == nearest.tolist()
            assert got_dist.tolist() == d[nearest].tolist()

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

    @pytest.mark.parametrize("seed", [5, 9, 14])
    def test_subnormal_squared_distances_fall_back(self, seed):
        # Points at radii 1e-160 (1 + 2e-5 j) from the query: squared
        # distances near 1e-320 are subnormal, so the direct form rounds
        # each square to steps of about 5e-4 of the whole and ties points
        # that the scaled product tells apart.  Only the proof's absolute
        # term leaves those rows to the exact fallback.
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(60, 10))
        radii = (1.0 + 2e-5 * rng.permutation(60)) * 1e-160
        points *= (radii / np.linalg.norm(points, axis=1))[:, None]
        query = np.zeros(10)
        d = oracles.distances(points, query)
        for k in (1, 2, 5, 9):
            index, dist = nonconformity._k_nearest(query[None], points, k)
            nearest = np.argsort(d, kind="stable")[:k]
            assert index[0].tolist() == nearest.tolist(), k
            assert dist[0].tolist() == d[nearest].tolist(), k

    def test_blocks_of_one_query_give_the_same_neighbours(self, monkeypatch):
        # 2,000 points: both pruning levels cut.
        rng = np.random.default_rng(6)
        points, queries = rng.normal(size=(2_000, 4)), rng.normal(size=(40, 4))
        queries[:4] = points[:4]
        expected = nonconformity._k_nearest(queries, points, 5)
        monkeypatch.setattr(nonconformity, "_BLOCK_BYTES", 1)
        got = nonconformity._k_nearest(queries, points, 5)
        assert [a.tolist() for a in got] == [a.tolist() for a in expected]

    def test_scratch_memory_stays_near_the_block_size(self):
        # The Gram block is float32: a row count reckoned in 8-byte entries
        # would use half the block, one that ignored the other scratch would
        # overshoot it.
        rng = np.random.default_rng(7)
        points, queries = rng.normal(size=(5_600, 10)), rng.normal(size=(2_000, 10))
        tracemalloc.start()
        try:
            index, dist = nonconformity._k_nearest(queries, points, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch = peak - index.nbytes - dist.nbytes
        assert 0.75 <= scratch / nonconformity._BLOCK_BYTES <= 1.25

    def test_duplicate_points_across_classes_score_to_negative_infinity(self):
        bag = bag_of(((0.0,), Label.NEGATIVE), ((0.0,), Label.POSITIVE))
        out = score_dataset(MeasureSpec("knn_ratio", 1), bag, rows([(1.0,)]))
        # equal distances to both classes: alpha 1 either way
        assert out.scores.tolist() == [[-1.0, -1.0]]

    def test_unknown_measure_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpec("svm")
