"""`run_pipeline`'s `evaluate` against the plain-loop reference: the
passthrough run, and the `--train` run of each nearest-neighbour measure.

Every figure of the document is a count or a ratio of counts, so the two
must agree exactly, as must the p-values unless smoothed (then to 1e-12)
and the region codes.  Scores sit on an 11-value grid so that ties occur
in the tables, against epsilon and against the threshold; features sit on
a small integer grid so that distances tie and must break by row index.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bincp.icp import SplitConfig
from bincp.nonconformity import MeasureSpec
from bincp.pipeline import PipelineError, RunConfig, run_pipeline

from reference import passthrough_evaluate, split_rows, train_evaluate

GRID = [i / 10 for i in range(11)]
EPSILONS = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def labelled_rows(draw, prefix, labels):
    """Rows with the given labels in a drawn order, s_pos on the grid and
    s_neg = 1 - s_pos."""
    labels = draw(st.permutations(labels))
    cells = draw(st.lists(st.integers(0, 10), min_size=len(labels), max_size=len(labels)))
    return [(f"{prefix}{i}", label, GRID[c], GRID[10 - c]) for i, (label, c) in
            enumerate(zip(labels, cells))]


@st.composite
def calibration_rows(draw):
    """2-60 rows holding both classes, the larger at most 20 times the smaller."""
    minority = draw(st.integers(1, 30))
    majority = draw(st.integers(minority, min(20 * minority, 60 - minority)))
    positive_first = draw(st.booleans())
    labels = [positive_first] * minority + [not positive_first] * majority
    return draw(labelled_rows("c", labels))


def rows_to_predict():
    return st.lists(st.booleans(), min_size=1, max_size=60).flatmap(
        lambda labels: labelled_rows("t", labels)
    )


def write_rows(path, rows):
    lines = ["id,label,s_pos,s_neg"]
    lines += [f"{i},{'act' if p else 'inact'},{s!r},{q!r}" for i, p, s, q in rows]
    path.write_text("\n".join(lines) + "\n")


@given(
    calibration=calibration_rows(),
    test=rows_to_predict(),
    epsilons=st.lists(EPSILONS, min_size=1, max_size=3),
    mondrian=st.booleans(),
    smoothing_seed=st.none() | st.integers(0, 2**32 - 1),
    threshold=st.sampled_from(GRID),
)
@settings(max_examples=150, deadline=None)
def test_passthrough_evaluate_matches_the_reference(
    calibration, test, epsilons, mondrian, smoothing_seed, threshold
):
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp, "calibration.csv"), Path(tmp, "test.csv")
        write_rows(paths[0], calibration)
        write_rows(paths[1], test)
        result = run_pipeline(RunConfig(
            positive_class="act",
            epsilons=tuple(epsilons),
            measure=MeasureSpec("passthrough"),
            mondrian=mondrian,
            threshold=threshold,
            calibration_path=paths[0],
            test_path=paths[1],
            smoothing_seed=smoothing_seed,
        ))
    document, p_values, regions = passthrough_evaluate(
        calibration, test, positive_class="act", epsilons=epsilons, mondrian=mondrian,
        threshold=threshold, smoothing_seed=smoothing_seed,
    )
    assert result.document == document
    tolerance = 0.0 if smoothing_seed is None else 1e-12
    for actual, expected in zip(result.p_values, p_values):
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=tolerance)
    assert {eps: codes.tolist() for eps, codes in result.regions.items()} == regions


@st.composite
def feature_rows(draw, prefix, labels, dim):
    """Rows with the given labels in a drawn order, each feature in 0..3."""
    labels = draw(st.permutations(labels))
    points = draw(st.lists(
        st.tuples(*[st.integers(0, 3).map(float)] * dim),
        min_size=len(labels), max_size=len(labels),
    ))
    return [(f"{prefix}{i}", label, point) for i, (label, point) in enumerate(zip(labels, points))]


@st.composite
def train_and_test(draw):
    """4-40 training rows holding both classes and 1-20 test rows, of 1-3 features."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(4, 40))
    n_pos = draw(st.integers(1, n - 1))
    train = draw(feature_rows("r", [True] * n_pos + [False] * (n - n_pos), dim))
    test = draw(st.lists(st.booleans(), min_size=1, max_size=20).flatmap(
        lambda labels: feature_rows("t", labels, dim)
    ))
    return train, test


def write_features(path, rows):
    dim = len(rows[0][2])
    lines = ["id,label," + ",".join(f"x{i}" for i in range(1, dim + 1))]
    lines += [f"{i},{'act' if p else 'inact'}," + ",".join(map(repr, x)) for i, p, x in rows]
    path.write_text("\n".join(lines) + "\n")


# The split's two fallbacks: at 0.95 every row is chosen for proper
# training and the last one moves to calibration; at 0.05 none is and row 0
# moves to proper training.
_FALLBACKS = dict(
    rows=(
        [("r0", True, (0.0,)), ("r1", False, (1.0,)), ("r2", True, (3.0,)), ("r3", False, (2.0,))],
        [(f"t{i}", i % 2 == 0, (float(i),)) for i in range(4)],
    ),
    kind="knn_ratio", k=1, seed=0, stratified=True, epsilons=[0.5], mondrian=False,
    smoothing_seed=None, threshold=0.5,
)


@given(
    rows=train_and_test(),
    kind=st.sampled_from(["knn_prob", "knn_ratio"]),
    k=st.integers(1, 5),
    fraction=st.sampled_from([0.05, 0.25, 0.5, 0.7, 0.95]) | st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
    stratified=st.booleans(),
    epsilons=st.lists(EPSILONS, min_size=1, max_size=3),
    mondrian=st.booleans(),
    smoothing_seed=st.none() | st.integers(0, 2**32 - 1),
    threshold=st.sampled_from(GRID),
)
@example(fraction=0.95, **_FALLBACKS)
@example(fraction=0.05, **_FALLBACKS)
@settings(max_examples=100, deadline=None)
def test_train_evaluate_matches_the_reference(
    rows, kind, k, fraction, seed, stratified, epsilons, mondrian, smoothing_seed, threshold
):
    train, test = rows
    if kind == "knn_prob":
        # knn_prob needs k within the proper part.
        k = min(k, len(split_rows(train, fraction, seed, stratified)[0]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp, "train.csv"), Path(tmp, "test.csv")
        write_features(paths[0], train)
        write_features(paths[1], test)
        config = RunConfig(
            positive_class="act",
            epsilons=tuple(epsilons),
            measure=MeasureSpec(kind, k),
            mondrian=mondrian,
            threshold=threshold,
            train_path=paths[0],
            test_path=paths[1],
            split=SplitConfig(fraction, seed, stratified),
            smoothing_seed=smoothing_seed,
        )
        try:
            document, p_values, regions = train_evaluate(
                train, test, positive_class="act", kind=kind, k=k, fraction=fraction,
                seed=seed, stratified=stratified, epsilons=epsilons, mondrian=mondrian,
                threshold=threshold, smoothing_seed=smoothing_seed,
            )
        except ValueError as err:
            # A Mondrian calibration part that lacks a class.
            with pytest.raises(PipelineError, match=f"^calibrate: {err}$"):
                run_pipeline(config)
            return
        result = run_pipeline(config)
    assert result.document == document
    tolerance = 0.0 if smoothing_seed is None else 1e-12
    for actual, expected in zip(result.p_values, p_values):
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=tolerance)
    assert {eps: codes.tolist() for eps, codes in result.regions.items()} == regions
