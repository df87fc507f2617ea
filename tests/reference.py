"""A reference for the passthrough `evaluate` run, in plain loops.

From the rows of a calibration set and a test set it computes the report
document `pipeline.run_pipeline` gives for the passthrough measure: the
calibration block, Mondrian or pooled p-values counted one calibration score
at a time, the region of each test row at each epsilon, and every figure of
each result row.  The figures come from the row-by-row oracles in `oracles`;
nothing here calls the code it checks.  A row is (id, is positive, s_pos,
s_neg), its scores class probabilities.
"""

import numpy as np

from bincp.core import REGIONS
from oracles import REGION_KEEPING, forced_choice, keeps, region_figures


def p_value(calibration_scores, score, tau):
    """(below + tau (tied + 1)) / (n + 1): the test row counts as a tie with itself."""
    below = sum(s < score for s in calibration_scores)
    tied = sum(s == score for s in calibration_scores)
    return (below + tau * (tied + 1)) / (len(calibration_scores) + 1)


def p_value_columns(calibration, test, mondrian, smoothing_seed):
    """The (p_pos, p_neg) of every test row, as lists.

    Mondrian tables hold the positive rows' s_pos and the negative rows'
    s_neg; a pooled table holds each row's score under its own label, for
    both hypotheses.  Smoothing draws tau as `icp.p_values` documents: one
    (n_test, 2) block of 1 - random(), the positive hypothesis first.
    """
    if mondrian:
        pos_table = [s_pos for _, positive, s_pos, _ in calibration if positive]
        neg_table = [s_neg for _, positive, _, s_neg in calibration if not positive]
    else:
        pos_table = neg_table = [
            s_pos if positive else s_neg for _, positive, s_pos, s_neg in calibration
        ]
    taus = [(1.0, 1.0)] * len(test)
    if smoothing_seed is not None:
        rng = np.random.default_rng(smoothing_seed)
        taus = (1.0 - rng.random((len(test), 2))).tolist()
    p_pos = [p_value(pos_table, row[2], tau[0]) for row, tau in zip(test, taus)]
    p_neg = [p_value(neg_table, row[3], tau[1]) for row, tau in zip(test, taus)]
    return p_pos, p_neg


def region_column(p_pos, p_neg, epsilon):
    """The region code of each row: a label is kept when its p-value exceeds epsilon."""
    return [
        REGIONS.index(REGION_KEEPING[(p > epsilon, q > epsilon)]) for p, q in zip(p_pos, p_neg)
    ]


def result_row(epsilon, codes, test, binary):
    """Every figure of the result row at `epsilon`, keyed as in the report."""
    truths = [positive for _, positive, _, _ in test]
    row = {
        "epsilon": epsilon,
        "confidence_percent": round(100.0 * (1.0 - epsilon), 12),
        **region_figures(codes, truths),
        "binary": binary,
    }
    # The singletons call positive where they keep only the positive label.
    calls, s_pos, positive = [], [], []
    for code, (_, truth, score, _) in zip(codes, test):
        keeps_pos, keeps_neg = keeps(REGIONS[code])
        if keeps_pos != keeps_neg:
            calls.append(keeps_pos)
            s_pos.append(score)
            positive.append(truth)
    row["singleton_conditional"] = {
        **forced_choice(calls, s_pos, positive), **row["singleton_conditional"]
    }
    return row


def passthrough_evaluate(
    calibration, test, *, positive_class, epsilons, mondrian, threshold, smoothing_seed
):
    """The report document, p-value columns and regions per epsilon of the run."""

    def binary(rows):
        s_pos = [row[2] for row in rows]
        return forced_choice(
            [s >= threshold for s in s_pos], s_pos, [row[1] for row in rows]
        )

    calibration_panel = binary(calibration)
    p_pos, p_neg = p_value_columns(calibration, test, mondrian, smoothing_seed)
    regions = {epsilon: region_column(p_pos, p_neg, epsilon) for epsilon in epsilons}
    test_panel = binary(test)
    document = {
        "config": {
            "positive_class": positive_class,
            "measure": {"kind": "passthrough", "k": 1},
            "mondrian": mondrian,
            "threshold": threshold,
            "smoothed": smoothing_seed is not None,
            "smoothing_seed": smoothing_seed,
            "split": None,
            "epsilons": list(epsilons),
        },
        "calibration": {
            "accuracy": calibration_panel["accuracy"],
            "auroc": calibration_panel["auroc"],
            "n": len(calibration),
        },
        "n_test": len(test),
        "results": [
            result_row(epsilon, codes, test, test_panel) for epsilon, codes in regions.items()
        ],
    }
    return document, (p_pos, p_neg), regions
