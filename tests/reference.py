"""A reference for the `evaluate` run, in plain loops.

From the rows of its input files it computes the report document
`pipeline.run_pipeline` gives: for the `--train` route the split into
proper training and calibration rows and each row's nearest-neighbour
scores; then the calibration block, Mondrian or pooled p-values counted one
calibration score at a time, the region of each test row at each epsilon,
and every figure of each result row.  The scores and figures come from the
one-point and row-by-row oracles in `oracles`; nothing here calls the code
it checks.  A scored row is (id, is positive, s_pos, s_neg), a feature row
(id, is positive, features).
"""

import math

import numpy as np

from bincp.core import REGIONS, Label
from bincp.nonconformity import TrainingBag
from oracles import (
    REGION_KEEPING,
    forced_choice,
    keeps,
    knn_distance_ratio,
    knn_positive_fraction,
    region_figures,
)


def proper_count(n, fraction):
    """The rows of n that go to proper training: fraction * n, halves rounded up."""
    return math.floor(fraction * n + 0.5)


def split_rows(rows, fraction, seed, stratified):
    """(proper, calibration) as `icp.split_dataset` documents it.

    One generator draws a permutation per class, negatives first, or one of
    all rows; the first `proper_count` rows of each go to proper training.
    An empty proper part takes row 0, and an empty calibration part gives
    up the last row.  Both parts keep the input order.
    """
    rng = np.random.default_rng(seed)
    chosen = [False] * len(rows)
    if stratified:
        groups = [[i for i, row in enumerate(rows) if row[1] == positive]
                  for positive in (False, True)]
    else:
        groups = [list(range(len(rows)))]
    for members in groups:
        for j in rng.permutation(len(members))[: proper_count(len(members), fraction)]:
            chosen[members[j]] = True
    if not any(chosen):
        chosen[0] = True
    elif all(chosen):
        chosen[-1] = False
    proper = [row for row, keep in zip(rows, chosen) if keep]
    calibration = [row for row, keep in zip(rows, chosen) if not keep]
    return proper, calibration


def score_rows(kind, k, proper, rows):
    """The scored rows of feature `rows` against a bag of the `proper` rows.

    knn_prob scores a row by the positive fraction f of its k nearest, as
    the probabilities (f, 1 - f); knn_ratio by minus its distance ratio
    under each hypothesis, which are no probabilities.
    """
    bag = TrainingBag([row[2] for row in proper], [row[1] for row in proper])
    scored = []
    for sample_id, positive, features in rows:
        if kind == "knn_prob":
            fraction = knn_positive_fraction(bag, features, k)
            s_pos, s_neg = fraction, 1.0 - fraction
        else:
            s_pos, s_neg = (
                -knn_distance_ratio(bag, features, label, k)
                for label in (Label.POSITIVE, Label.NEGATIVE)
            )
        scored.append((sample_id, positive, s_pos, s_neg))
    return scored


def p_value(calibration_scores, score, tau):
    """(below + tau (tied + 1)) / (n + 1): the test row counts as a tie with itself."""
    below = sum(s < score for s in calibration_scores)
    tied = sum(s == score for s in calibration_scores)
    return (below + tau * (tied + 1)) / (len(calibration_scores) + 1)


def p_value_columns(calibration, test, mondrian, smoothing_seed):
    """The (p_pos, p_neg) of every test row, as lists.

    Mondrian tables hold the positive rows' s_pos and the negative rows'
    s_neg, and a class with no calibration row is an error, the positive
    class named first; a pooled table holds each row's score under its own
    label, for both hypotheses.  Smoothing draws tau as `icp.p_values`
    documents: one (n_test, 2) block of 1 - random(), the positive
    hypothesis first.
    """
    if mondrian:
        pos_table = [s_pos for _, positive, s_pos, _ in calibration if positive]
        neg_table = [s_neg for _, positive, _, s_neg in calibration if not positive]
        for label, table in ((Label.POSITIVE, pos_table), (Label.NEGATIVE, neg_table)):
            if not table:
                raise ValueError(f"calibration has no {label} samples")
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


def config_block(positive_class, kind, k, mondrian, threshold, smoothing_seed, split, epsilons):
    return {
        "positive_class": positive_class,
        "measure": {"kind": kind, "k": k},
        "mondrian": mondrian,
        "threshold": threshold,
        "smoothed": smoothing_seed is not None,
        "smoothing_seed": smoothing_seed,
        "split": split,
        "epsilons": list(epsilons),
    }


def scored_evaluate(calibration, test, config, probability):
    """The report document, p-value columns and regions per epsilon of a run
    on scored calibration and test rows, its config block given.

    Scores that are not probabilities have no threshold to call at: the
    calibration block holds only its size, and the `binary` block only AUROC.
    """
    threshold, mondrian = config["threshold"], config["mondrian"]

    def binary(rows):
        s_pos = [row[2] for row in rows]
        panel = forced_choice([s >= threshold for s in s_pos], s_pos, [row[1] for row in rows])
        if not probability:
            panel.update(accuracy=None, sensitivity=None, specificity=None)
        return panel

    calibration_panel = binary(calibration) if probability else {"accuracy": None, "auroc": None}
    p_pos, p_neg = p_value_columns(calibration, test, mondrian, config["smoothing_seed"])
    regions = {epsilon: region_column(p_pos, p_neg, epsilon) for epsilon in config["epsilons"]}
    test_panel = binary(test)
    document = {
        "config": config,
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


def passthrough_evaluate(
    calibration, test, *, positive_class, epsilons, mondrian, threshold, smoothing_seed
):
    """The report document, p-value columns and regions per epsilon of the
    passthrough run on scored rows."""
    config = config_block(
        positive_class, "passthrough", 1, mondrian, threshold, smoothing_seed, None, epsilons
    )
    return scored_evaluate(calibration, test, config, probability=True)


def train_evaluate(
    train, test, *, positive_class, kind, k, fraction, seed, stratified, epsilons, mondrian,
    threshold, smoothing_seed,
):
    """The report document, p-value columns and regions per epsilon of the
    `--train` run of a nearest-neighbour measure on feature rows."""
    proper, calibration = split_rows(train, fraction, seed, stratified)
    split = {"proper_fraction": fraction, "seed": seed, "stratified": stratified}
    config = config_block(
        positive_class, kind, k, mondrian, threshold, smoothing_seed, split, epsilons
    )
    return scored_evaluate(
        score_rows(kind, k, proper, calibration), score_rows(kind, k, proper, test), config,
        probability=kind == "knn_prob",
    )
