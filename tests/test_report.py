"""The report format: the renderers and reader of report documents, the
field tables they share, and the regions and trajectory CSV writers."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bincp import report
from bincp.core import (
    NEGATIVE,
    POSITIVE,
    REGIONS,
    UNKNOWN,
    Dataset,
    PredictionRegion,
    SignificanceLevel,
)
from bincp.data import SyntheticSpec, generate_synthetic, write_dataset
from bincp.icp import region
from bincp.nonconformity import MEASURE_KINDS, MeasureSpec
from bincp.pipeline import PipelineResult, RunConfig, run_pipeline, simulate_online
from bincp.report import (
    REPORT_CSV_COLUMNS,
    REPORT_FORMATS,
    emit_report,
    parse_report,
    regions_csv_chunks,
    trajectory_csv,
)

import oracles
from conftest import demo_config, regions_bytes, traced_peak, write_stream, write_votes_file

CHUNK = report._CHUNK_ROWS

# Ids a CSV writer must quote: a bare CR is quoted too, which Python 3.11's
# csv writer does not do.
QUOTED_IDS = ["cr\rid", "x\r\ny", "a,b", 'say "hi"', "two\nlines"]

# Report bytes for figure1 calibration plus the demo test set at epsilon 0.1
# and 0.2, written out literally so that any change to a renderer shows.
SINGLE_ROW_TEXT = """\
  validity=1.0000  efficiency=0.3333
  regions  correct_single=0.3333  false_single=0.0000  both=0.6667  empty=0.0000
  scored_accuracy  both_correct=1.0000  both_wrong=0.3333
  binary  accuracy=0.6667  sensitivity=1.0000  specificity=0.0000  auroc=0.7500
  singleton  accuracy=1.0000  sensitivity=1.0000  specificity=—  auroc=—  n_singleton=1  false_positives=0
"""
DEMO_TEXT = (
    "run  positive_class=B measure=passthrough k=1 mondrian=True\n"
    "calibration  n=21  accuracy=0.5238  auroc=0.5273\n"
    "\nepsilon=0.1  confidence=90.0%  n=3\n" + SINGLE_ROW_TEXT
    + "\nepsilon=0.2  confidence=80.0%  n=3\n" + SINGLE_ROW_TEXT
)
CSV_HEADER = (
    "epsilon,confidence_percent,n,validity,efficiency,frac_correct_single,"
    "frac_false_single,frac_both,frac_empty,scored_accuracy_both_correct,"
    "scored_accuracy_both_wrong,binary_accuracy,binary_sensitivity,"
    "binary_specificity,binary_auroc,singleton_accuracy,singleton_sensitivity,"
    "singleton_specificity,singleton_auroc,n_singleton,"
    "false_positives_in_singletons,calibration_accuracy,calibration_auroc,"
    "calibration_n\n"
)
CSV_ROW_TAIL = (
    ",3,1.0,0.3333333333333333,0.3333333333333333,0.0,0.6666666666666666,0.0,"
    "1.0,0.3333333333333333,0.6666666666666666,1.0,0.0,0.75,1.0,1.0,,,1,0,"
    "0.5238095238095238,0.5272727272727272,21\n"
)
DEMO_CSV = CSV_HEADER + "0.1,90.0" + CSV_ROW_TAIL + "0.2,80.0" + CSV_ROW_TAIL


# The config figures whose kind holds values no run accepts, drawn from the
# range a run accepts instead.
RUN_RANGES = {
    ("measure", "kind"): st.sampled_from(MEASURE_KINDS),
    ("measure", "k"): st.integers(min_value=1, max_value=2**63),
    ("threshold",): st.floats(min_value=0.0, max_value=1.0),
    ("split", "proper_fraction"): st.floats(
        min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True
    ),
}


def figure_values(field):
    """Values of a report figure's kind, and None where the field allows it."""
    if field.path in RUN_RANGES:
        values = RUN_RANGES[field.path]
    elif field.kind == report._OBJECT:
        # The config's split is the only object figure.
        values = figure_block(report._SPLIT_FIELDS).map(lambda block: block["split"])
    elif field.kind == report._LEVELS:
        values = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3)
    else:
        values = {
            report._COUNT: st.integers(min_value=0, max_value=2**63),
            report._FLOAT: st.floats(allow_nan=False, allow_infinity=False),
            report._STRING: st.text(),
            report._BOOL: st.booleans(),
        }[field.kind]
    return st.none() | values if field.optional else values


def figure_block(fields):
    """A block holding every field of `fields` at its path."""

    def nest(values):
        block = {}
        for field, value in zip(fields, values):
            *outer, key = field.path
            inner = block
            for name in outer:
                inner = inner.setdefault(name, {})
            inner[key] = value
        return block

    return st.tuples(*map(figure_values, fields)).map(nest)


@given(
    calibration=figure_block(report._CALIBRATION_FIELDS),
    results=st.lists(figure_block(report._RESULT_FIELDS), max_size=3),
    # A document may leave out the config block and n_test.
    config=st.just({}) | figure_block(
        report._CONFIG_FIELDS + report._CONFIG_CHECKED
    ).map(lambda c: {"config": c}),
    n_test=st.just({}) | figure_block((report._N_TEST,)),
)
@settings(max_examples=100, deadline=None)
def test_documents_built_from_the_field_table_round_trip(calibration, results, config, n_test):
    document = {"calibration": calibration, "results": results, **config, **n_test}
    payload = emit_report(document, "json")
    assert parse_report(payload) == document
    assert emit_report(parse_report(payload), "json") == payload
    for fmt in ("csv", "text"):
        assert emit_report(parse_report(payload), fmt) == emit_report(document, fmt)


class TestReportRendering:
    def test_json_round_trip(self):
        document = run_pipeline(demo_config()).document
        assert parse_report(emit_report(document, "json")) == document

    def test_json_is_newline_terminated_and_sorted(self):
        payload = emit_report(run_pipeline(demo_config()).document, "json")
        assert payload.endswith(b"\n")
        parsed = json.loads(payload)
        assert list(parsed) == sorted(parsed)

    def test_csv_header_and_demo_row(self):
        document = run_pipeline(demo_config()).document
        lines = emit_report(document, "csv").decode("utf-8").splitlines()
        assert lines[0] == ",".join(REPORT_CSV_COLUMNS)
        assert len(lines) == 2
        row = dict(zip(REPORT_CSV_COLUMNS, lines[1].split(",")))
        assert row["epsilon"] == "0.2"
        assert row["validity"] == "1.0"
        assert row["n_singleton"] == "1"

    def test_csv_with_no_results_keeps_calibration_columns(self):
        document = run_pipeline(demo_config(test_path=None)).document
        lines = emit_report(document, "csv").decode("utf-8").splitlines()
        assert len(lines) == 2
        row = dict(zip(REPORT_CSV_COLUMNS, lines[1].split(",")))
        assert row["epsilon"] == ""
        assert row["calibration_n"] == "21"

    def test_csv_cells_are_quoted_as_a_csv_writer_quotes_them(self):
        # `report --in` renders documents from elsewhere, whose cells may need quotes.
        document = run_pipeline(demo_config()).document
        rows = list(csv.reader(io.StringIO(emit_report(document, "csv").decode())))
        document["calibration"]["n"] = 'twenty, "one"'
        for row in rows[1:]:
            row[REPORT_CSV_COLUMNS.index("calibration_n")] = 'twenty, "one"'
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        quoted = emit_report(document, "csv")
        assert quoted == buffer.getvalue().encode("utf-8")
        assert b',"twenty, ""one"""\n' in quoted

    def test_text_rendering_mentions_the_key_numbers(self):
        document = run_pipeline(demo_config()).document
        text = emit_report(document, "text").decode("utf-8")
        assert "calibration  n=21" in text
        assert "epsilon=0.2" in text
        assert "validity=1.0000" in text

    def test_text_marks_absent_values(self):
        document = {
            "calibration": {"accuracy": None, "auroc": None, "n": 5},
            "results": [],
        }
        text = emit_report(document, "text").decode("utf-8")
        assert "accuracy=—" in text
        assert "epsilon=" not in text

    def test_text_and_csv_bytes_are_pinned(self):
        document = run_pipeline(demo_config(epsilons=(0.1, 0.2))).document
        assert emit_report(document, "text").decode("utf-8") == DEMO_TEXT
        assert emit_report(document, "csv").decode("utf-8") == DEMO_CSV

    def test_absent_values_bytes_are_pinned(self):
        document = {
            "calibration": {"accuracy": None, "auroc": None, "n": 5},
            "results": [],
        }
        assert emit_report(document, "text").decode("utf-8") == (
            "calibration  n=5  accuracy=—  auroc=—\n"
        )
        assert emit_report(document, "csv").decode("utf-8") == (
            CSV_HEADER + ",,,,,,,,,,,,,,,,,,,,,,,5\n"
        )

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report({"results": []}, "yaml")

    def test_parse_report_rejects_non_reports(self):
        with pytest.raises(ValueError):
            parse_report(b"not json")
        with pytest.raises(ValueError):
            parse_report(b"[1, 2]")
        with pytest.raises(ValueError):
            parse_report(b"{}")

    def test_regions_csv_contents(self):
        result = run_pipeline(demo_config(epsilons=(0.2, 0.05)))
        lines = regions_bytes(result).decode("utf-8").splitlines()
        assert lines[0] == "epsilon,id,true_label,p_pos,p_neg,region"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[0] == "0.2"
        assert first[1] == "t1"
        assert first[2] == "positive"
        assert float(first[3]) == 0.5
        assert float(first[4]) == 6 / 11
        assert first[5] == "both"


def write_votes(path, ids, labels, trees, rng):
    """A scored file of `trees`-tree vote fractions, so scores take trees + 1 values."""
    votes = rng.integers(0, trees + 1, len(ids)) / trees
    scores = np.column_stack([votes, 1.0 - votes])
    write_dataset(Dataset.from_columns(ids, labels, None, scores, probability=True), path)
    return path


class TestRegionsWriter:
    @pytest.mark.parametrize(
        "n_test, ids, labels, smoothed, epsilons",
        [
            (400, None, None, False, (0.1, 0.2)),
            (400, None, None, True, (0.1, 0.2)),
            (
                5,
                ["a,b", 'say "hi"', "two\nlines", " lead", "plain"],
                [POSITIVE, NEGATIVE, UNKNOWN, POSITIVE, NEGATIVE],
                False,
                (0.1,),
            ),
            (50, None, None, False, (0.2, 0.05, 0.2, 0.1)),
            (1, None, None, True, (0.1, 0.3)),
            (60, None, None, True, (1.0, 0.0)),
            (
                5,
                [" lead", "tab\there", "a\u2028b", "it's", "x\x0cy"],
                [POSITIVE, NEGATIVE, UNKNOWN, POSITIVE, NEGATIVE],
                False,
                (0.1,),
            ),
        ],
        ids=[
            "ties", "smoothed-distinct", "quoted-ids", "repeated-unsorted-eps", "one-row",
            "all-empty-and-all-both", "unquoted-odd-ids",
        ],
    )
    def test_bytes_match_the_row_by_row_writer(
        self, tmp_path, n_test, ids, labels, smoothed, epsilons
    ):
        rng = np.random.default_rng(n_test)
        calibration = write_votes(
            tmp_path / "calibration.csv",
            [f"c{i}" for i in range(200)],
            rng.integers(NEGATIVE, POSITIVE + 1, 200),
            10,
            rng,
        )
        test = write_votes(
            tmp_path / "test.csv",
            ids or [f"t{i}" for i in range(n_test)],
            rng.integers(NEGATIVE, POSITIVE + 1, n_test) if labels is None else labels,
            10,
            rng,
        )
        result = run_pipeline(RunConfig(
            positive_class="positive",
            epsilons=epsilons,
            calibration_path=calibration,
            test_path=test,
            smoothing_seed=3 if smoothed else None,
        ))
        distinct = [np.unique(column).size for column in result.p_values]
        if smoothed:
            assert distinct == [n_test, n_test]
        elif n_test == 400:
            # Each class of 200 calibration rows has at most 11 distinct scores.
            assert max(distinct) <= 11
        # The column writer merges values that compare equal only where their
        # text is the same, and p-values are never -0.0.
        assert not any(np.signbit(column).any() for column in result.p_values)
        # At epsilon 0 every region keeps both labels, at 1 neither.
        for value, kind in ((0.0, PredictionRegion.BOTH), (1.0, PredictionRegion.EMPTY)):
            if value in result.regions:
                assert set(result.regions[value].tolist()) == {REGIONS.index(kind)}
        assert regions_bytes(result) == oracles.regions_csv_rows(result)

    @pytest.mark.parametrize("odd", ["a,b", 'say "hi"', "two\nlines"])
    def test_one_id_among_many_that_csv_may_quote(self, odd):
        ids = [f"t{i}" for i in range(300)]
        ids[150] = odd
        test = Dataset.from_columns(ids, [POSITIVE] * 300, None, np.full((300, 2), 0.5))
        p_pos, p_neg = np.linspace(0.0, 1.0, 300), np.linspace(1.0, 0.0, 300)
        codes = region(p_pos, p_neg, SignificanceLevel(0.1))
        result = PipelineResult({}, (p_pos, p_neg), {0.1: codes}, test)
        assert regions_bytes(result) == oracles.regions_csv_rows(result)

    @pytest.mark.parametrize("odd", QUOTED_IDS)
    def test_a_csv_reader_reads_every_id_back(self, odd):
        ids = [f"t{i}" for i in range(300)]
        ids[150] = odd
        test = Dataset.from_columns(ids, [POSITIVE] * 300, None, np.full((300, 2), 0.5))
        p_pos, p_neg = np.linspace(0.0, 1.0, 300), np.linspace(1.0, 0.0, 300)
        codes = region(p_pos, p_neg, SignificanceLevel(0.1))
        result = PipelineResult({}, (p_pos, p_neg), {0.1: codes, 0.2: codes}, test)
        text = regions_bytes(result).decode("utf-8")
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert [row[1] for row in rows[1:]] == ids + ids

    def test_one_block_holds_every_region(self):
        test = Dataset.from_columns(
            ["a", "b,c", "d", "e"],
            [POSITIVE, NEGATIVE, UNKNOWN, POSITIVE],
            None,
            np.full((4, 2), 0.5),
        )
        # Positive, negative, both and empty at epsilon 0.1, then all both.
        p_pos, p_neg = np.array([0.5, 0.05, 0.5, 0.1]), np.array([0.1, 0.5, 0.25, 0.05])
        codes = region(p_pos, p_neg, SignificanceLevel(0.1))
        assert codes.tolist() == [REGIONS.index(kind) for kind in REGIONS]
        both = np.full(4, REGIONS.index(PredictionRegion.BOTH))
        result = PipelineResult({}, (p_pos, p_neg), {0.1: codes, 0.0: both}, test)
        assert regions_bytes(result) == oracles.regions_csv_rows(result)

    def test_negative_zero_keeps_its_own_text(self):
        test = Dataset.from_columns(
            ["a", "b"], [POSITIVE, NEGATIVE], None, np.array([[0.5, 0.5], [0.5, 0.5]])
        )
        result = PipelineResult(
            {},
            (np.array([0.0, -0.0]), np.array([-0.0, 0.5])),
            {0.1: np.array([0, 3])},
            test,
        )
        assert regions_bytes(result) == oracles.regions_csv_rows(result)
        assert b",0.0,-0.0," in regions_bytes(result)

    @pytest.mark.parametrize(
        "n_test, epsilons",
        [
            (CHUNK - 1, (0.1,)),
            (CHUNK, (0.1,)),
            (CHUNK + 1, (0.2, 0.1)),
            (2 * CHUNK + 1, (0.3, 0.05, 0.2)),
        ],
        ids=["chunk-less-one", "chunk", "chunk-plus-one", "two-chunks-plus-one"],
    )
    def test_chunks_hold_whole_rows_across_boundaries(self, n_test, epsilons):
        rng = np.random.default_rng(n_test)
        ids = [f"t{i}" for i in range(n_test)]
        # Quoted ids, one holding a newline, near the end of the first chunk and last.
        ids[CHUNK - 3], ids[-1] = 'say "hi"', "two\nlines"
        test = Dataset.from_columns(
            ids, rng.integers(UNKNOWN, POSITIVE + 1, n_test), None, np.full((n_test, 2), 0.5)
        )
        p_pos, p_neg = rng.random(n_test), rng.random(n_test)
        p_pos[-1], p_neg[0] = -0.0, -0.0
        regions = {value: region(p_pos, p_neg, SignificanceLevel(value)) for value in epsilons}
        result = PipelineResult({}, (p_pos, p_neg), regions, test)
        chunks = list(regions_csv_chunks(result))
        assert len(chunks) == 1 + len(epsilons) * -(-n_test // CHUNK)
        assert regions_bytes(result) == oracles.regions_csv_rows(result)

    def test_a_run_without_a_test_set_writes_the_header_alone(self):
        result = run_pipeline(demo_config(test_path=None))
        assert list(regions_csv_chunks(result)) == [oracles.regions_csv_rows(result)]

    def test_peak_memory_does_not_grow_with_the_levels(self, tmp_path):
        rng = np.random.default_rng(0)
        calibration = write_votes(
            tmp_path / "calibration.csv",
            [f"c{i}" for i in range(2000)],
            rng.integers(NEGATIVE, POSITIVE + 1, 2000),
            100,
            rng,
        )
        test = write_votes(
            tmp_path / "test.csv",
            [f"t{i}" for i in range(20_000)],
            rng.integers(NEGATIVE, POSITIVE + 1, 20_000),
            100,
            rng,
        )
        result = run_pipeline(RunConfig(
            positive_class="positive",
            epsilons=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3),
            calibration_path=calibration,
            test_path=test,
            smoothing_seed=0,
        ))
        one = PipelineResult({}, result.p_values, {0.1: result.regions[0.1]}, test=result.test)

        def peak(result):
            return traced_peak(lambda: sum(map(len, regions_csv_chunks(result))))

        assert peak(result) <= 1.2 * peak(one)

    def test_peak_memory_is_a_fraction_of_the_output(self, tmp_path):
        """Over 40,000 rows and 3 epsilons (7.8 MB of CSV; Python 3.11,
        numpy 2.4) the writer peaks at 0.41 times its output; one that
        formatted a string per row peaked at 1.04 times."""
        calibration = write_votes_file(tmp_path / "calibration.csv", 2000, seed=1)
        test = write_votes_file(tmp_path / "test.csv", 40_000, seed=2)
        result = run_pipeline(RunConfig(
            positive_class="positive",
            epsilons=(0.05, 0.1, 0.2),
            calibration_path=calibration,
            test_path=test,
        ))
        size = sum(map(len, regions_csv_chunks(result)))
        assert traced_peak(lambda: sum(map(len, regions_csv_chunks(result)))) <= 0.65 * size


class TestTrajectoryWriter:
    def test_trajectory_csv_layout(self, tmp_path):
        path = write_stream(tmp_path)
        rounds = simulate_online(path, positive_class="positive", epsilon=0.0, initial_size=4)
        lines = trajectory_csv(rounds).decode("utf-8").splitlines()
        assert lines[0] == "round,region,true_label,cumulative_error_rate"
        assert len(lines) == len(rounds) + 1
        assert lines[1].startswith("1,both,")
        assert lines[1].endswith(",0.0")


def grid_columns(n, seed):
    """Ids, label codes at one positive to nine negatives, and grid points k
    of the score k/1024, drawn from `seed`."""
    rng = np.random.default_rng(seed)
    positive = rng.permutation(n) < n // 10
    k = rng.binomial(1024, np.where(positive, 0.6, 0.4))
    return np.array([f"r{i}" for i in range(n)]), np.where(positive, POSITIVE, NEGATIVE), k


GRID_CALIBRATION, GRID_TEST = grid_columns(2000, 1), grid_columns(1000, 2)
# Each region code's mirror image under swapped classes.
MIRRORED = np.array([REGIONS.index(kind) for kind in (
    PredictionRegion.SINGLE_NEGATIVE, PredictionRegion.SINGLE_POSITIVE,
    PredictionRegion.BOTH, PredictionRegion.EMPTY,
)])


def order_preserving(k):
    """h(k)/4096: h is strictly increasing, h(1024 - k) = 4096 - h(k) and
    h(512) = 2048, so it keeps s_neg = 1 - s_pos and the threshold 0.5."""
    j = np.abs(k - 512)
    return (2048 + np.sign(k - 512) * (j + 3 * j**2 // 512)) / 4096


def reordered(columns, order):
    return tuple(column[order] for column in columns)


def classes_swapped(columns):
    """The other class positive: at k/1024, s_pos and s_neg = 1 - s_pos swap exactly."""
    ids, labels, k = columns
    return ids, np.where(labels == POSITIVE, NEGATIVE, POSITIVE), 1024 - k


def grid_run(directory, scale=lambda k: k / 1024, calibration=GRID_CALIBRATION,
             test=GRID_TEST, **config):
    """Write calibration and test columns of the grid, with s_pos = scale(k),
    under `directory` and run them at three epsilons."""
    directory.mkdir()
    paths = []
    for name, (ids, labels, k) in (("calibration", calibration), ("test", test)):
        s_pos = scale(k)
        scores = np.column_stack([s_pos, 1.0 - s_pos])
        paths.append(directory / f"{name}.csv")
        write_dataset(
            Dataset.from_columns(ids.tolist(), labels, None, scores, probability=True), paths[-1]
        )
    return run_pipeline(RunConfig(
        positive_class="positive", epsilons=(0.05, 0.1, 0.2),
        calibration_path=paths[0], test_path=paths[1], **config,
    ))


def features_run(directory, kind, order, **config):
    """Run `kind` at k = 5 through a proper set of 1,000 Gaussian rows in d = 10,
    written in `order`, with 300 calibration and 200 test rows."""
    directory.mkdir()
    paths = []
    for name, n_per_class, seed, rows in (
        ("proper", 500, 11, order), ("calibration", 150, 12, slice(None)),
        ("test", 100, 13, slice(None)),
    ):
        data = generate_synthetic(SyntheticSpec(n_per_class=n_per_class, dim=10, seed=seed))
        paths.append(directory / f"{name}.csv")
        write_dataset(data.take(rows), paths[-1])
    return run_pipeline(RunConfig(
        positive_class="positive", epsilons=(0.05, 0.1, 0.2), measure=MeasureSpec(kind, 5),
        proper_path=paths[0], calibration_path=paths[1], test_path=paths[2], **config,
    ))


MONDRIAN = pytest.mark.parametrize("mondrian", [True, False], ids=["mondrian", "pooled"])


class TestMetamorphicRelations:
    """A conformal p-value is a rank, so the outputs depend on the scores only
    through their order, on the rows not through theirs, and on which class
    is called positive only through the labels they carry."""

    @MONDRIAN
    @pytest.mark.parametrize("smoothing_seed", [None, 0], ids=["plain", "smoothed"])
    def test_an_order_preserving_map_of_the_scores_changes_no_byte(
        self, tmp_path, mondrian, smoothing_seed
    ):
        config = dict(mondrian=mondrian, smoothing_seed=smoothing_seed)
        grid = grid_run(tmp_path / "grid", **config)
        mapped = grid_run(tmp_path / "mapped", scale=order_preserving, **config)
        assert not np.array_equal(mapped.test.scores, grid.test.scores)
        assert emit_report(mapped.document, "json") == emit_report(grid.document, "json")
        assert regions_bytes(mapped) == regions_bytes(grid)

    @MONDRIAN
    def test_permuted_rows_change_no_figure(self, tmp_path, mondrian):
        rng = np.random.default_rng(0)
        grid = grid_run(tmp_path / "grid", mondrian=mondrian)
        calibration = grid_run(
            tmp_path / "calibration", mondrian=mondrian,
            calibration=reordered(GRID_CALIBRATION, rng.permutation(2000)),
        )
        test = grid_run(
            tmp_path / "test", mondrian=mondrian, test=reordered(GRID_TEST, rng.permutation(1000))
        )
        for fmt in REPORT_FORMATS:
            assert emit_report(calibration.document, fmt) == emit_report(grid.document, fmt)
            assert emit_report(test.document, fmt) == emit_report(grid.document, fmt)
        assert regions_bytes(calibration) == regions_bytes(grid)
        # Test rows keep their own lines, in their new order.
        assert regions_bytes(test) != regions_bytes(grid)
        assert sorted(regions_bytes(test).splitlines()) == sorted(regions_bytes(grid).splitlines())

    @MONDRIAN
    def test_swapped_classes_swap_the_p_values_and_mirror_the_regions(self, tmp_path, mondrian):
        grid = grid_run(tmp_path / "grid", mondrian=mondrian)
        swapped = grid_run(
            tmp_path / "swapped", mondrian=mondrian,
            calibration=classes_swapped(GRID_CALIBRATION), test=classes_swapped(GRID_TEST),
        )
        assert [column.tolist() for column in swapped.p_values] == [
            column.tolist() for column in grid.p_values[::-1]
        ]
        for epsilon, codes in grid.regions.items():
            assert swapped.regions[epsilon].tolist() == MIRRORED[codes].tolist()
        # Both singletons occur, so the mirror moves some region.
        singletons = {REGIONS.index(PredictionRegion.SINGLE_POSITIVE),
                      REGIONS.index(PredictionRegion.SINGLE_NEGATIVE)}
        assert singletons <= set(np.concatenate(list(grid.regions.values())).tolist())

    @pytest.mark.parametrize("smoothing_seed", [None, 0], ids=["plain", "smoothed"])
    def test_added_negatives_leave_every_mondrian_p_pos(self, tmp_path, smoothing_seed):
        ids, labels, k = grid_columns(1000, 3)
        negatives = labels == NEGATIVE
        extra = np.char.add("x", ids[negatives]), labels[negatives], k[negatives]
        calibration = tuple(map(np.concatenate, zip(GRID_CALIBRATION, extra)))
        grid = grid_run(tmp_path / "grid", smoothing_seed=smoothing_seed)
        more = grid_run(tmp_path / "more", calibration=calibration, smoothing_seed=smoothing_seed)
        assert more.p_values[0].tolist() == grid.p_values[0].tolist()
        assert more.p_values[1].tolist() != grid.p_values[1].tolist()

    @MONDRIAN
    @pytest.mark.parametrize("kind", ["knn_prob", "knn_ratio"])
    def test_permuted_proper_rows_change_no_byte(self, tmp_path, mondrian, kind):
        # Gaussian features tie with probability 0, so the order of the
        # proper rows, which breaks distance ties, must not show.
        order = np.random.default_rng(4).permutation(1000)
        runs = [
            features_run(tmp_path / name, kind, rows, mondrian=mondrian)
            for name, rows in (("proper", slice(None)), ("permuted", order))
        ]
        for fmt in REPORT_FORMATS:
            assert emit_report(runs[1].document, fmt) == emit_report(runs[0].document, fmt)
        assert regions_bytes(runs[1]) == regions_bytes(runs[0])
