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
"""

import math

import numpy as np
import pytest

from bincp.core import NEGATIVE, POSITIVE, Dataset
from bincp.data import SyntheticSpec, generate_synthetic
from bincp.icp import build_calibration_table, predict_set
from bincp.nonconformity import MeasureSpec, TrainingBag, score_dataset

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
