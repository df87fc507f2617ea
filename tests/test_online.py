import math

import numpy as np
import pytest

from bincp.core import Label, PredictionRegion, SignificanceLevel, _feature_limit
from bincp.nonconformity import TrainingBag, _pool_means
from bincp.online import OnlineRound, _OnlineSession, full_cp_pvalue, run_online

import oracles


def oracle_full_cp(bag, features, label, k=1):
    """Score every member of the augmented bag against the bag minus itself."""
    aug_points = np.vstack([bag.points, np.asarray(features, dtype=float)[None, :]])
    aug_positive = np.append(bag.is_positive, label is Label.POSITIVE)
    n = aug_points.shape[0]
    alphas = []
    for i in range(n):
        rest = TrainingBag(
            np.delete(aug_points, i, axis=0), np.delete(aug_positive, i)
        )
        member_label = Label.POSITIVE if aug_positive[i] else Label.NEGATIVE
        alphas.append(oracles.knn_distance_ratio(rest, aug_points[i], member_label, k))
    candidate_alpha = alphas[-1]
    return sum(1 for a in alphas if a >= candidate_alpha) / n


def two_point_bag():
    return TrainingBag.from_pairs([((0.0,), Label.NEGATIVE), ((10.0,), Label.POSITIVE)])


def random_stream(n, dim, seed, decimals=None):
    rng = np.random.default_rng(seed)
    labels = rng.random(n) < 0.5
    points = rng.normal(size=(n, dim)) + np.where(labels, 1.0, -1.0)[:, None]
    if decimals is not None:
        points = np.round(points, decimals)
    return [
        (tuple(points[i]), Label.POSITIVE if labels[i] else Label.NEGATIVE)
        for i in range(n)
    ]


def long_stream(n, seed):
    """One-decimal points with repeats; the first twelve are all negative."""
    rng = np.random.default_rng(seed)
    labels = rng.random(n) < 0.5
    labels[:12] = False
    points = np.round(rng.normal(size=(n, 2)) + np.where(labels, 0.5, -0.5)[:, None], 1)
    for i in np.flatnonzero(rng.random(n) < 0.15)[1:]:
        points[i] = points[rng.integers(i)]
    return points, labels


def cached_by_class(session):
    """Each class's sorted alphas, sorted mean pairs and sorted reaches, as bytes."""
    table, n, n_pos = session.table, session.n, session.n_pos
    state = []
    for cols in (slice(0, n_pos), slice(n_pos, n)):
        means = table[-4:-2, cols]
        pairs = means[:, np.lexsort(means[::-1])]
        state.append([np.sort(table[-2, cols]).tobytes(), pairs.tobytes(),
                      np.sort(table[-1, cols]).tobytes()])
    return state


def test_from_scratch_oracle_agrees_with_the_per_member_oracle():
    points, labels = long_stream(25, seed=15)
    dist = oracles.pairwise_distances(points)
    for k in (1, 3, 30):
        for n in (1, 5, 12, 24):
            bag = TrainingBag(points[:n], labels[:n])
            assert oracles.loo_p_values(dist[: n + 1, : n + 1], labels[:n], k) == (
                oracle_full_cp(bag, points[n], Label.POSITIVE, k),
                oracle_full_cp(bag, points[n], Label.NEGATIVE, k),
            )


def test_pool_means_sum_each_column_smallest_first():
    # Nine 0.1s sum to 0.8999999999999999 in order but to 0.9 pairwise.
    columns = [[0.1] * 9, [1.0, 2.0] + [math.inf] * 7, [math.inf] * 9]
    means = _pool_means(np.array(columns).T)
    finite = [[d for d in column if math.isfinite(d)] for column in columns]
    expected = [oracles.mean_smallest(np.array(pool), 9) for pool in finite]
    assert means.tolist() == expected
    assert means[0] != np.mean(columns[0])


class TestFullCpPValue:
    def test_two_point_bag_worked_case(self):
        # leave-one-out alphas: candidate 1/9, the negative 1/10, the positive inf
        assert full_cp_pvalue(two_point_bag(), ((1.0,), Label.NEGATIVE)) == 2 / 3

    def test_two_point_bag_positive_hypothesis(self):
        # alphas: candidate 9, the negative inf (no same-label peer), the positive 9/10
        assert full_cp_pvalue(two_point_bag(), ((1.0,), Label.POSITIVE)) == 2 / 3

    def test_duplicate_of_a_same_label_point_is_fully_conforming(self):
        bag = TrainingBag.from_pairs(
            [((0.0,), Label.NEGATIVE), ((10.0,), Label.POSITIVE), ((4.0,), Label.POSITIVE)]
        )
        assert full_cp_pvalue(bag, ((4.0,), Label.POSITIVE)) == 1.0

    def test_single_member_bag_coincident_opposite_candidate(self):
        # both members of the augmented bag are equally strange by symmetry,
        # so neither can be stranger than the other
        bag = TrainingBag.from_pairs([((0.0,), Label.NEGATIVE)])
        assert full_cp_pvalue(bag, ((0.0,), Label.POSITIVE)) == 1.0

    @pytest.mark.parametrize("k", [1, 2, 3, 9])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_leave_one_out_oracle(self, k, seed):
        rng = np.random.default_rng(seed)
        n = 12
        points = rng.normal(size=(n, 2))
        labels = rng.random(n) < 0.5
        bag = TrainingBag(points, labels)
        for _ in range(6):
            query = tuple(rng.normal(size=2))
            for label in (Label.POSITIVE, Label.NEGATIVE):
                assert full_cp_pvalue(bag, (query, label), k) == oracle_full_cp(
                    bag, query, label, k
                )

    def test_k_beyond_pool_sizes_still_matches_oracle(self):
        bag = TrainingBag.from_pairs(
            [((0.0, 0.0), Label.NEGATIVE), ((1.0, 1.0), Label.POSITIVE)]
        )
        candidate = ((0.3, 0.4), Label.POSITIVE)
        assert full_cp_pvalue(bag, candidate, k=5) == oracle_full_cp(
            bag, *candidate, k=5
        )

    def test_p_values_live_in_the_unit_interval(self):
        bag = two_point_bag()
        for x in np.linspace(-5, 15, 9):
            for label in (Label.POSITIVE, Label.NEGATIVE):
                p = full_cp_pvalue(bag, ((float(x),), label))
                assert 1 / (len(bag) + 1) <= p <= 1.0

    def test_candidate_label_must_be_a_label_member(self):
        with pytest.raises(ValueError, match="got 'positive'"):
            full_cp_pvalue(two_point_bag(), ((1.0,), "positive"))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            full_cp_pvalue(two_point_bag(), ((1.0, 2.0), Label.POSITIVE))

    def test_non_finite_candidate_rejected(self):
        with pytest.raises(ValueError):
            full_cp_pvalue(two_point_bag(), ((math.nan,), Label.POSITIVE))

    def test_candidate_beyond_the_feature_bound_rejected(self):
        limit = _feature_limit(1)
        assert full_cp_pvalue(two_point_bag(), ((limit,), Label.POSITIVE)) > 0.0
        for value, message in (
            (math.inf, "finite"),
            (-limit * 2, "beyond"),
            (np.nextafter(limit, math.inf), "beyond"),
        ):
            with pytest.raises(ValueError, match=message):
                full_cp_pvalue(two_point_bag(), ((value,), Label.POSITIVE))


@pytest.mark.parametrize(
    "call",
    [
        lambda k: run_online(two_point_bag(), [((1.0,), Label.NEGATIVE)], SignificanceLevel(0.2), k),
        lambda k: full_cp_pvalue(two_point_bag(), ((1.0,), Label.NEGATIVE), k),
    ],
    ids=["run_online", "full_cp_pvalue"],
)
def test_k_below_one_is_rejected_by_the_measure_rule(call):
    with pytest.raises(ValueError) as caught:
        call(0)
    assert str(caught.value) == "k must be >= 1, got 0"


class TestOnlineRound:
    """One round of the protocol: a one-item stream."""

    @staticmethod
    def one_round(epsilon):
        stream = [((1.0,), Label.NEGATIVE)]
        [only] = run_online(two_point_bag(), stream, SignificanceLevel(epsilon))
        return only

    def test_epsilon_zero_always_predicts_both(self):
        only = self.one_round(0.0)
        assert only.region is PredictionRegion.BOTH
        assert only.cumulative_error_rate == 0.0

    def test_epsilon_one_always_predicts_empty(self):
        only = self.one_round(1.0)
        assert only.region is PredictionRegion.EMPTY
        assert only.cumulative_error_rate == 1.0

    def test_two_point_bag_at_one_half(self):
        only = self.one_round(0.5)
        # both hypotheses reach p = 2/3 > 0.5
        assert only.region is PredictionRegion.BOTH
        assert only.region.contains(Label.NEGATIVE)
        assert only.cumulative_error_rate == 0.0


class TestRunOnline:
    def test_epsilon_zero_stream_never_errs(self):
        rounds = run_online(two_point_bag(), random_stream(25, 1, 4), SignificanceLevel(0.0))
        assert all(r.region is PredictionRegion.BOTH for r in rounds)
        assert all(r.cumulative_error_rate == 0.0 for r in rounds)

    def test_epsilon_one_stream_always_errs(self):
        rounds = run_online(two_point_bag(), random_stream(25, 1, 4), SignificanceLevel(1.0))
        assert all(r.region is PredictionRegion.EMPTY for r in rounds)
        assert all(r.cumulative_error_rate == 1.0 for r in rounds)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            run_online(two_point_bag(), [], SignificanceLevel(0.2))

    def test_stream_labels_must_be_label_members(self):
        stream = [((9.0,), "positive"), ((1.0,), "negative")]
        with pytest.raises(ValueError, match="got 'positive'"):
            run_online(two_point_bag(), stream, SignificanceLevel(0.2))

    def test_round_indices_count_from_one(self):
        rounds = run_online(two_point_bag(), random_stream(10, 1, 5), SignificanceLevel(0.2))
        assert [r.round_index for r in rounds] == list(range(1, 11))

    def test_error_counts_are_monotone_and_bounded(self):
        rounds = run_online(two_point_bag(), random_stream(40, 1, 6), SignificanceLevel(0.3))
        errors = [round(r.cumulative_error_rate * r.round_index) for r in rounds]
        assert all(b - a in (0, 1) for a, b in zip(errors, errors[1:]))
        assert all(0 <= e <= r.round_index for e, r in zip(errors, rounds))

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_every_round_matches_leave_one_out_oracle(self, k):
        # Coordinates at one decimal make distances, means and alphas tie.
        initial = random_stream(6, 2, 7, decimals=1)
        stream = random_stream(30, 2, 8, decimals=1)
        session = _OnlineSession(TrainingBag.from_pairs(initial), k)
        seen = list(initial)
        expected_p = []
        for features, label in stream:
            bag = TrainingBag.from_pairs(seen)
            expected_p.append((
                oracle_full_cp(bag, features, Label.POSITIVE, k),
                oracle_full_cp(bag, features, Label.NEGATIVE, k),
            ))
            assert session.step(features, label) == expected_p[-1]
            seen.append((features, label))
        # Each round's region and error recounted row by row from the
        # oracle's p-values and `REGION_KEEPING`.
        for epsilon in (0.1, 0.25, 0.5):
            expected, errors = [], 0
            for index, ((p_pos, p_neg), (_, label)) in enumerate(
                zip(expected_p, stream), start=1
            ):
                region = oracles.REGION_KEEPING[p_pos > epsilon, p_neg > epsilon]
                keeps_pos, keeps_neg = oracles.keeps(region)
                errors += not (keeps_pos if label is Label.POSITIVE else keeps_neg)
                expected.append(OnlineRound(index, region, label, errors / index))
            rounds = run_online(
                TrainingBag.from_pairs(initial), stream, SignificanceLevel(epsilon), k
            )
            # The reprs match too, so every rate is a Python float.
            assert rounds == expected
            assert repr(rounds) == repr(expected)

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_long_stream_matches_the_from_scratch_oracle(self, k):
        # The bag starts at one point and grows past 256, so the table
        # doubles eight times, and pools stay below k=40 for many rounds.
        points, labels = long_stream(301, seed=14)
        dist = oracles.pairwise_distances(points)
        session = _OnlineSession(TrainingBag(points[:1], labels[:1]), k)
        for n in range(1, len(points)):
            label = Label.POSITIVE if labels[n] else Label.NEGATIVE
            assert session.step(points[n], label) == oracles.loo_p_values(
                dist[: n + 1, : n + 1], labels[:n], k
            )
        assert session.table.shape[1] == 512

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_cached_columns_match_a_session_built_from_scratch(self, k):
        # A rescored column left stale can keep its alpha on the same side
        # of every later candidate, so p-values alone would not show it.
        points, labels = long_stream(301, seed=14)
        session = _OnlineSession(TrainingBag(points[:1], labels[:1]), k)
        checked = 0
        for n in range(1, len(points)):
            capacity = session.table.shape[1]
            session.step(points[n], Label.POSITIVE if labels[n] else Label.NEGATIVE)
            if session.table.shape[1] != capacity or n == len(points) - 1:
                fresh = _OnlineSession(TrainingBag(points[: n + 1], labels[: n + 1]), k)
                assert cached_by_class(session) == cached_by_class(fresh), n
                checked += 1
        assert checked == 9

    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_a_class_missing_from_the_initial_bag_arrives_late(self, k):
        # The bag starts with three negatives and no positive; the first
        # positive arrives once the negative buffers have doubled four times.
        points, labels = long_stream(90, seed=16)
        labels[:50] = False
        assert labels[50:].any()
        dist = oracles.pairwise_distances(points)
        session = _OnlineSession(TrainingBag(points[:3], labels[:3]), k)
        for n in range(3, len(points)):
            label = Label.POSITIVE if labels[n] else Label.NEGATIVE
            assert session.step(points[n], label) == oracles.loo_p_values(
                dist[: n + 1, : n + 1], labels[:n], k
            )
            if n == 49:
                assert (session.n, session.n_pos, session.table.shape[1]) == (50, 0, 96)
        assert session.n_pos == labels.sum()

    def test_points_of_no_features_are_all_alike(self):
        # Every distance is 0, so the candidate's alpha is 1 and no member's
        # is smaller: both p-values are 1.
        bag = TrainingBag(np.zeros((3, 0)), [True, False, True])
        session = _OnlineSession(bag, 2)
        assert session.step((), Label.POSITIVE) == (1.0, 1.0)

    def test_k_beyond_the_data_gives_the_same_rounds(self):
        initial = TrainingBag.from_pairs(random_stream(5, 2, 12, decimals=1))
        stream = random_stream(25, 2, 13, decimals=1)
        eps = SignificanceLevel(0.3)
        assert run_online(initial, stream, eps, k=10**9) == run_online(
            initial, stream, eps, k=len(initial) + len(stream)
        )

    def test_a_step_that_fails_its_checks_leaves_the_bag_as_it_was(self):
        session = _OnlineSession(two_point_bag(), 1)
        session.step((1.0,), Label.NEGATIVE)
        with pytest.raises(ValueError, match="features"):
            session.step((1.0, 2.0), Label.NEGATIVE)
        with pytest.raises(ValueError, match="^candidate has non-finite features$"):
            session.step((math.nan,), Label.NEGATIVE)
        with pytest.raises(ValueError, match="got 'negative'"):
            session.step((2.0,), "negative")
        bag = TrainingBag.from_pairs(
            [((0.0,), Label.NEGATIVE), ((10.0,), Label.POSITIVE), ((1.0,), Label.NEGATIVE)]
        )
        assert session.step((4.0,), Label.NEGATIVE) == (
            oracle_full_cp(bag, (4.0,), Label.POSITIVE),
            oracle_full_cp(bag, (4.0,), Label.NEGATIVE),
        )

    def test_trajectory_is_reproducible(self):
        stream = random_stream(20, 2, 9)
        initial = TrainingBag.from_pairs([(p, lab) for p, lab in random_stream(4, 2, 10)])
        eps = SignificanceLevel(0.2)
        first = run_online(initial, stream, eps)
        second = run_online(initial, stream, eps)
        assert first == second

    def test_rounds_record_the_revealed_labels(self):
        stream = random_stream(8, 1, 11)
        rounds = run_online(two_point_bag(), stream, SignificanceLevel(0.2))
        assert [r.true_label for r in rounds] == [label for _, label in stream]

    def test_round_dataclass_is_comparable(self):
        r = OnlineRound(1, PredictionRegion.BOTH, Label.POSITIVE, 0.0)
        assert r == OnlineRound(1, PredictionRegion.BOTH, Label.POSITIVE, 0.0)
