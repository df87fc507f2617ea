"""Validity of conformal p-values, Mondrian and pooled, and the pooled pitfall.

Under exchangeability a smoothed p-value is exactly uniform on (0, 1]
(Vovk, Gammerman & Shafer 2005), so a test row errs at epsilon (the p-value
of its own label is at most epsilon) with probability exactly epsilon,
whatever the ties: within its class in Mondrian mode, over the mixture of
classes in pooled mode.  Over DRAWS independent draws the error count is
then Binomial(DRAWS, epsilon): it must lie inside a two-sided band, since a
predictor that is too conservative is wrong too.  Deterministic p-values
count ties in full, so they are only conservative: their count must stay at
or below the band's upper end.  Each side of a band has tail probability at
most TAIL.

Mondrian: each draw is a fresh calibration set of CAL_SIZES rows per class
plus one test row per class.  Pooled: each draw is n + 1 i.i.d. rows of the
class mixture (a row is positive with probability POSITIVE_SHARE), n in
POOLED_SIZES, the last of them the test row, so the n + 1 rows are
exchangeable.  All rows are scored by TREES-tree vote fractions, so ties
between test and calibration scores are common.  With 2 classes times 2
epsilons plus 2 pooled epsilons the smoothed checks of a correct predictor
fail for fewer than 12 * TAIL of seeds.

The pitfall (the paper's own point): a pooled predictor is valid over the
mixture while it excludes the minority class from most of its own rows.
One `generate_synthetic` draw of PITFALL_PER_CLASS rows per class,
separation 1.5, keeps every negative and every IMBALANCE-th positive
(6,000 and 300 rows), shuffles them and cuts them into thirds: proper
training, calibration and test (2,100 rows, about 100 positive).  `knn_prob`
at k = 15 scores the calibration and test rows against the proper ones.  At
epsilon 0.1 the pooled marginal error stays within epsilon plus the band of
the test size while more than half of the positive rows err; Mondrian keeps
each class within epsilon plus the band of its size.

The exact count needs no band.  Take any m rows and make each in turn the
test row, the other m - 1 its calibration set.  Then at every epsilon at
most floor(epsilon * m) of the m deterministic p-values are at most
epsilon, for every dataset, not only on average: the proof of validity is
this count.  Smoothed p-values meet epsilon * m exactly in expectation over
tau.  Mondrian mode counts within each class, pooled mode over all rows.
The full (on-line) predictor obeys the same count: `full_cp_pvalue` of row
i against the other m - 1 rows scores the same augmented bag for every i.
FULL_CP_SETS seeded sets of FULL_CP_SIZES rows each, on a small integer
grid so that distances tie, check it in about a second.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bincp.core import NEGATIVE, POSITIVE, Dataset, Label
from bincp.data import SyntheticSpec, generate_synthetic
from bincp.icp import build_calibration_table, p_values, predict_set
from bincp.nonconformity import MeasureSpec, TrainingBag, score_dataset
from bincp.online import full_cp_pvalue

DRAWS = 1500
TREES = 10
CAL_SIZES = (3, 12)
POOLED_SIZES = (5, 30)
POSITIVE_SHARE = 0.3
EPSILONS = (0.1, 0.2)
TAIL = 1e-6
# Per-tree vote probability of each class; the classes overlap.
VOTE_P = {POSITIVE: 0.65, NEGATIVE: 0.35}
PITFALL_PER_CLASS = 6000
IMBALANCE = 20
PITFALL_EPSILON = 0.1
FULL_CP_SETS = 40
FULL_CP_SIZES = (4, 30)


def binomial_band(n: int, p: float, tail: float) -> tuple[int, int]:
    """The narrowest [lo, hi] with P(X < lo) <= tail and P(X > hi) <= tail."""
    log_pmf = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in range(n + 1)
    ]
    pmf = [math.exp(v) for v in log_pmf]
    lo, below = 0, 0.0
    while below + pmf[lo] <= tail:
        below += pmf[lo]
        lo += 1
    hi, above = n, 0.0
    while above + pmf[hi] <= tail:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def vote_rows(rng, label, n):
    votes = rng.binomial(TREES, VOTE_P[label], n) / TREES
    return np.full(n, label), np.column_stack([votes, 1.0 - votes])


def mixture_rows(rng, n):
    """n i.i.d. rows of the class mixture: a class drawn first, then its votes."""
    labels = np.where(rng.random(n) < POSITIVE_SHARE, POSITIVE, NEGATIVE)
    vote_p = np.where(labels == POSITIVE, VOTE_P[POSITIVE], VOTE_P[NEGATIVE])
    votes = rng.binomial(TREES, vote_p) / TREES
    return labels, np.column_stack([votes, 1.0 - votes])


def own_p_values(table, test, rng=None):
    """The p-value of each test row's own label."""
    p_pos, p_neg = predict_set(table, test, rng=rng)
    return np.where(test.positive, p_pos, p_neg)


def error_counts(seed: int) -> dict[tuple[bool, int, float], int]:
    """Errors per (smoothed, class, epsilon) over DRAWS independent draws."""
    rng = np.random.default_rng(seed)
    taus = np.random.default_rng([seed, 1])
    ids = [f"r{i}" for i in range(2 * CAL_SIZES[1])]
    counts = {
        (smoothed, label, eps): 0
        for smoothed in (True, False) for label in (POSITIVE, NEGATIVE) for eps in EPSILONS
    }
    for _ in range(DRAWS):
        pos, neg = (
            vote_rows(rng, label, int(rng.integers(CAL_SIZES[0], CAL_SIZES[1] + 1)))
            for label in (POSITIVE, NEGATIVE)
        )
        labels, scores = (np.concatenate(pair) for pair in zip(pos, neg))
        calibration = Dataset.from_columns(
            ids[: len(labels)], labels, scores=scores, probability=True
        )
        labels, scores = (
            np.concatenate(pair)
            for pair in zip(vote_rows(rng, POSITIVE, 1), vote_rows(rng, NEGATIVE, 1))
        )
        test = Dataset.from_columns(["p", "n"], labels, scores=scores, probability=True)
        table = build_calibration_table(calibration)
        for smoothed in (True, False):
            own = own_p_values(table, test, taus if smoothed else None)
            # Row 0 is the positive test row, row 1 the negative one.
            for label, p in zip((POSITIVE, NEGATIVE), own):
                for eps in EPSILONS:
                    counts[smoothed, label, eps] += int(p <= eps)
    return counts


def pooled_error_counts(seed: int) -> dict[tuple[bool, float], int]:
    """Errors per (smoothed, epsilon) over DRAWS independent pooled draws."""
    rng = np.random.default_rng(seed)
    taus = np.random.default_rng([seed, 1])
    ids = [f"r{i}" for i in range(POOLED_SIZES[1] + 1)]
    counts = {(smoothed, eps): 0 for smoothed in (True, False) for eps in EPSILONS}
    for _ in range(DRAWS):
        n = int(rng.integers(POOLED_SIZES[0], POOLED_SIZES[1] + 1))
        labels, scores = mixture_rows(rng, n + 1)
        rows = Dataset.from_columns(ids[: n + 1], labels, scores=scores, probability=True)
        table = build_calibration_table(rows.take(slice(None, n)), mondrian=False)
        test = rows.take(slice(n, None))
        for smoothed in (True, False):
            (p,) = own_p_values(table, test, taus if smoothed else None)
            for eps in EPSILONS:
                counts[smoothed, eps] += int(p <= eps)
    return counts


@pytest.fixture(scope="module")
def counts():
    return error_counts(seed=12)


@pytest.fixture(scope="module")
def pooled_counts():
    return pooled_error_counts(seed=13)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("label", [POSITIVE, NEGATIVE], ids=["positive", "negative"])
def test_smoothed_errors_per_class_lie_in_the_two_sided_band(counts, label, eps):
    lo, hi = binomial_band(DRAWS, eps, TAIL)
    assert lo <= counts[True, label, eps] <= hi, (lo, hi)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("label", [POSITIVE, NEGATIVE], ids=["positive", "negative"])
def test_deterministic_errors_per_class_stay_below_the_band(counts, label, eps):
    _, hi = binomial_band(DRAWS, eps, TAIL)
    assert counts[False, label, eps] <= hi


@pytest.mark.parametrize("eps", EPSILONS)
def test_smoothed_pooled_errors_lie_in_the_two_sided_band(pooled_counts, eps):
    lo, hi = binomial_band(DRAWS, eps, TAIL)
    assert lo <= pooled_counts[True, eps] <= hi, (lo, hi)


@pytest.mark.parametrize("eps", EPSILONS)
def test_deterministic_pooled_errors_stay_below_the_band(pooled_counts, eps):
    _, hi = binomial_band(DRAWS, eps, TAIL)
    assert pooled_counts[False, eps] <= hi


def upper_error(n: int) -> float:
    """Epsilon plus the band above it, as an error rate over n rows."""
    return binomial_band(n, PITFALL_EPSILON, TAIL)[1] / n


@pytest.fixture(scope="module")
def imbalanced():
    """Calibration and test rows of the 1:IMBALANCE draw, scored by knn_prob."""
    draw = generate_synthetic(
        SyntheticSpec(n_per_class=PITFALL_PER_CLASS, separation=1.5, seed=14)
    )
    kept = np.concatenate(
        [np.flatnonzero(~draw.positive), np.flatnonzero(draw.positive)[::IMBALANCE]]
    )
    order = np.random.default_rng(14).permutation(kept)
    proper, calibration, test = (draw.take(part) for part in np.array_split(order, 3))
    bag, measure = TrainingBag.from_dataset(proper), MeasureSpec("knn_prob", 15)
    return score_dataset(measure, bag, calibration), score_dataset(measure, bag, test)


def test_pooled_is_valid_over_the_mixture_and_fails_the_minority(imbalanced):
    calibration, test = imbalanced
    table = build_calibration_table(calibration, mondrian=False)
    errs = own_p_values(table, test) <= PITFALL_EPSILON
    assert errs.mean() <= upper_error(len(test))
    assert errs[test.positive].mean() > 0.5


def test_mondrian_keeps_each_class_valid_on_the_same_rows(imbalanced):
    calibration, test = imbalanced
    errs = own_p_values(build_calibration_table(calibration), test) <= PITFALL_EPSILON
    for rows in (test.positive, ~test.positive):
        assert errs[rows].mean() <= upper_error(int(rows.sum()))


def test_band_holds_the_binomial_mass():
    lo, hi = binomial_band(200, 0.1, 0.01)
    # Binomial(200, 0.1): P(X <= 10) = 0.0081 and P(X <= 11) = 0.0168;
    # P(X >= 30) = 0.0163 and P(X >= 31) = 0.0095.
    assert (lo, hi) == (11, 30)


class FixedTau:
    """A generator stub: `p_values` draws tau = 1 - random(), here always `tau`."""

    def __init__(self, tau: float):
        self.tau = tau

    def random(self, shape):
        return np.full(shape, 1.0 - self.tau)


def leave_one_out(data: Dataset, rows: np.ndarray, mondrian: bool, rng=None):
    """The p-value of each of `rows`' own label against a table of the other
    rows of `data`, and m, the size of that table plus one, which the rows of
    one group share."""
    p, sizes = [], set()
    for row in rows.tolist():
        table = build_calibration_table(data.take(np.arange(len(data)) != row), mondrian)
        side = 0 if data.positive[row] else 1
        p.append(p_values(table, *data.scores[row], rng=rng)[side])
        sizes.add((table.pos_scores, table.neg_scores)[side].size + 1)
    [m] = sizes
    return np.array(p), m


def assert_exact_counts(data: Dataset, rows: np.ndarray, mondrian: bool) -> None:
    """The exact validity count over one group of rows, deterministic and smoothed.

    Deterministic: m * p_i is a whole rank k_i.  #{i : p_i <= epsilon} <=
    floor(epsilon * m) at every epsilon; the count steps only at p-values,
    so it is enough that at epsilon = k_l / m the count of ranks at most k_l
    is exactly k_l, the rows whose scores are at most row l's.

    Smoothed: p_i is affine in tau, read at tau = 1 and 1/2, and tau is
    uniform on (0, 1].  A tie group of g rows above b lower ones then errs
    with expected count clip(epsilon * m - b, 0, g), and over the groups
    these sum to epsilon * m exactly.
    """
    p, m = leave_one_out(data, rows, mondrian)
    ranks = np.rint(p * m)
    assert (ranks / m == p).all()
    assert ((ranks[None, :] <= ranks[:, None]).sum(axis=1) == ranks).all()
    half, _ = leave_one_out(data, rows, mondrian, FixedTau(0.5))
    slope = 2.0 * (p - half)
    for epsilon in np.linspace(0.0, 1.0, 21):
        mass = np.clip((epsilon - p + slope) / slope, 0.0, 1.0).sum()
        assert mass == pytest.approx(epsilon * m, abs=1e-9)


# Scores with heavy ties and both infinities; each class holds at least two
# rows, so every Mondrian table of the other rows has a row of each class.
EXACT_SCORE = st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 1.0, math.inf])
EXACT_CLASS = st.lists(st.tuples(EXACT_SCORE, EXACT_SCORE), min_size=2, max_size=10)


@given(positive=EXACT_CLASS, negative=EXACT_CLASS)
@settings(max_examples=100, deadline=None)
def test_icp_error_count_is_exact_for_every_test_row(positive, negative):
    labels = [POSITIVE] * len(positive) + [NEGATIVE] * len(negative)
    data = Dataset.from_columns(
        [f"r{i}" for i in range(len(labels))], labels, scores=positive + negative
    )
    everyone = np.arange(len(data))
    assert_exact_counts(data, everyone, mondrian=False)
    for label in (POSITIVE, NEGATIVE):
        assert_exact_counts(data, everyone[data.labels == label], mondrian=True)


def test_full_cp_error_count_is_exact_for_every_row():
    """#{i : p_i <= epsilon} <= floor(epsilon * m) for the m leave-one-out
    full-CP p-values of a set, at every epsilon.

    m * p_i is a whole count c_i, and both sides step only at multiples of
    1 / m, so epsilon = j / m for j = 0..m is every case: #{i : c_i <= j} <= j,
    in integers.  Sets draw m in FULL_CP_SIZES, d in 1..3 and k in 1..5.
    """
    rng = np.random.default_rng(2020)
    for _ in range(FULL_CP_SETS):
        m = int(rng.integers(FULL_CP_SIZES[0], FULL_CP_SIZES[1] + 1))
        points = rng.integers(0, 3, size=(m, int(rng.integers(1, 4)))).astype(float)
        labels = [Label.POSITIVE if flip else Label.NEGATIVE for flip in rng.random(m) < 0.5]
        k = int(rng.integers(1, 6))
        p = np.array([
            full_cp_pvalue(
                TrainingBag.from_pairs(zip(np.delete(points, i, axis=0), np.delete(labels, i))),
                (points[i], labels[i]),
                k,
            )
            for i in range(m)
        ])
        counts = np.rint(p * m)
        assert (counts / m == p).all()
        for j in range(m + 1):
            assert (counts <= j).sum() <= j
