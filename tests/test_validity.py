"""Label-conditional validity of smoothed p-values, checked two-sided.

Under exchangeability a smoothed p-value is exactly uniform on (0, 1]
(Vovk, Gammerman & Shafer 2005), so in Mondrian mode a test row of class c
errs at epsilon (the p-value of its own label is at most epsilon) with
probability exactly epsilon, whatever the ties.  Over DRAWS independent
draws the errors of class c are Binomial(DRAWS, epsilon): the count must
lie inside a two-sided band, since a predictor that is too conservative is
wrong too.  Deterministic p-values count ties in full, so they are only
conservative: their count must stay at or below the band's upper end.

Each draw is a fresh Mondrian calibration set of CAL_SIZES rows per class
plus one test row per class, all scored by TREES-tree vote fractions, so
ties between test and calibration scores are common.  Each side of a band
has tail probability at most TAIL; with 2 classes times 2 epsilons the
smoothed checks of a correct predictor fail for fewer than 8 * TAIL of
seeds.
"""

import math

import numpy as np
import pytest

from bincp.core import NEGATIVE, POSITIVE, Dataset
from bincp.icp import build_calibration_table, predict_set

DRAWS = 1500
TREES = 10
CAL_SIZES = (3, 12)
EPSILONS = (0.1, 0.2)
TAIL = 1e-6
# Per-tree vote probability of each class; the classes overlap.
VOTE_P = {POSITIVE: 0.65, NEGATIVE: 0.35}


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
            p_pos, p_neg = predict_set(table, test, rng=taus if smoothed else None)
            # Row 0 is the positive test row, row 1 the negative one.
            own = {POSITIVE: p_pos[0], NEGATIVE: p_neg[1]}
            for label, p in own.items():
                for eps in EPSILONS:
                    counts[smoothed, label, eps] += int(p <= eps)
    return counts


@pytest.fixture(scope="module")
def counts():
    return error_counts(seed=12)


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


def test_band_holds_the_binomial_mass():
    lo, hi = binomial_band(200, 0.1, 0.01)
    # Binomial(200, 0.1): P(X <= 10) = 0.0081 and P(X <= 11) = 0.0168;
    # P(X >= 30) = 0.0163 and P(X >= 31) = 0.0095.
    assert (lo, hi) == (11, 30)
