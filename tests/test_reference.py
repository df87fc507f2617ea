"""`run_pipeline`'s passthrough `evaluate` against the plain-loop reference.

Every figure of the document is a count or a ratio of counts, so the two
must agree exactly, as must the p-values unless smoothed (then to 1e-12)
and the region codes.  Scores sit on an 11-value grid so that ties occur
in the tables, against epsilon and against the threshold.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bincp.nonconformity import MeasureSpec
from bincp.pipeline import RunConfig, run_pipeline

from reference import passthrough_evaluate

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
