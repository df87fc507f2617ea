import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bincp.core import (
    NEGATIVE,
    POSITIVE,
    REGIONS,
    UNKNOWN,
    Dataset,
    Label,
    PredictionRegion,
    SignificanceLevel,
)
from bincp.data import (
    SyntheticSpec,
    demo_test_path,
    figure1_path,
    generate_synthetic,
    load_dataset,
    write_dataset,
)
from bincp import evaluate, pipeline
from bincp.nonconformity import MEASURE_KINDS, MeasureSpec
from bincp.icp import SplitConfig, region, split_dataset
from bincp.pipeline import (
    REPORT_CSV_COLUMNS,
    PipelineError,
    PipelineResult,
    RunConfig,
    emit_report,
    parse_report,
    regions_csv_chunks,
    run_pipeline,
    simulate_online,
    trajectory_csv,
)

import oracles
from conftest import traced_peak, write_votes_file

CHUNK = pipeline._CHUNK_ROWS

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


def demo_config(**overrides):
    base = dict(
        positive_class="B",
        epsilons=(0.2,),
        calibration_path=figure1_path(),
        test_path=demo_test_path(),
    )
    base.update(overrides)
    return RunConfig(**base)


def regions_bytes(result):
    """The regions CSV as one bytes object; every chunk must end a row."""
    chunks = list(regions_csv_chunks(result))
    assert all(chunk.endswith(b"\n") for chunk in chunks)
    return b"".join(chunks)


@pytest.fixture()
def feature_files(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    write_dataset(
        generate_synthetic(SyntheticSpec(n_per_class=30, dim=2, separation=2.0, seed=1)),
        train,
    )
    write_dataset(
        generate_synthetic(SyntheticSpec(n_per_class=10, dim=2, separation=2.0, seed=2)),
        test,
    )
    return train, test


class TestRunPipeline:
    def test_demo_end_to_end(self):
        result = run_pipeline(demo_config())
        regions = [REGIONS[code] for code in result.regions[0.2]]
        assert regions == [
            PredictionRegion.BOTH,
            PredictionRegion.SINGLE_POSITIVE,
            PredictionRegion.BOTH,
        ]
        document = result.document
        assert document["calibration"]["n"] == 21
        assert document["calibration"]["auroc"] == 58 / 110
        assert document["calibration"]["accuracy"] == 11 / 21
        assert document["n_test"] == 3

        row = document["results"][0]
        assert row["epsilon"] == 0.2
        assert row["confidence_percent"] == 80.0
        assert row["validity"] == 1.0
        assert row["efficiency"] == 1 / 3
        assert row["singleton_conditional"]["n_singleton"] == 1
        assert row["singleton_conditional"]["accuracy"] == 1.0
        assert row["singleton_conditional"]["false_positives_in_singletons"] == 0

    def test_two_runs_emit_identical_bytes(self):
        first = emit_report(run_pipeline(demo_config()).document, "json")
        second = emit_report(run_pipeline(demo_config()).document, "json")
        assert first == second

    def test_duplicate_epsilons_collapse(self):
        result = run_pipeline(demo_config(epsilons=(0.2, 0.2, 0.1)))
        assert list(result.regions) == [0.2, 0.1]
        assert [row["epsilon"] for row in result.document["results"]] == [0.2, 0.1]

    def test_train_split_route_with_probability_measure(self, feature_files):
        train, test = feature_files
        config = RunConfig(
            positive_class="positive",
            epsilons=(0.1, 0.3),
            measure=MeasureSpec("knn_prob", k=3),
            train_path=train,
            test_path=test,
            split=SplitConfig(0.7, seed=0),
        )
        result = run_pipeline(config)
        assert result.document["calibration"]["n"] == 60 - 42
        assert result.document["n_test"] == 20
        assert len(result.document["results"]) == 2
        assert result.test.scores.shape == (20, 2)
        for row in result.document["results"]:
            assert 0.0 <= row["validity"] <= 1.0
            assert row["binary"]["accuracy"] is not None

    @pytest.mark.parametrize(
        "measure, mondrian, smoothing_seed",
        [(MeasureSpec("knn_prob", k=3), True, None), (MeasureSpec("knn_ratio", k=3), False, 7)],
        ids=["knn-prob-mondrian", "knn-ratio-pooled-smoothed"],
    )
    def test_the_split_parts_as_files_give_the_train_route_run(
        self, feature_files, tmp_path, measure, mondrian, smoothing_seed
    ):
        # The documented `--calibration ... --proper ...` route, given the
        # parts that the `--train` route's split makes.
        train, test = feature_files
        split = SplitConfig(0.7, seed=0)
        parts = tmp_path / "proper.csv", tmp_path / "calibration.csv"
        for part, path in zip(split_dataset(load_dataset(train, "positive"), split), parts):
            write_dataset(part, path)
        shared = dict(
            positive_class="positive", epsilons=(0.1, 0.3), measure=measure,
            mondrian=mondrian, test_path=test, smoothing_seed=smoothing_seed,
        )
        by_train = run_pipeline(RunConfig(train_path=train, split=split, **shared))
        by_parts = run_pipeline(
            RunConfig(proper_path=parts[0], calibration_path=parts[1], **shared)
        )
        assert regions_bytes(by_parts) == regions_bytes(by_train)
        for key in ("calibration", "n_test", "results"):
            assert by_parts.document[key] == by_train.document[key]
        assert by_parts.document["config"] == {**by_train.document["config"], "split": None}

    def test_ratio_measure_reports_no_thresholded_calibration_rates(self, feature_files):
        train, test = feature_files
        config = RunConfig(
            positive_class="positive",
            epsilons=(0.2,),
            measure=MeasureSpec("knn_ratio", k=1),
            train_path=train,
            test_path=test,
            split=SplitConfig(0.7, seed=0),
        )
        document = run_pipeline(config).document
        assert document["calibration"]["accuracy"] is None
        assert document["calibration"]["auroc"] is None
        assert document["calibration"]["n"] == 18
        row = document["results"][0]
        assert row["binary"]["accuracy"] is None
        assert row["binary"]["auroc"] is not None

    def test_binary_block_is_computed_once_and_carried_by_every_row(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            pipeline, "binary_report",
            lambda *args: calls.append(args) or evaluate.binary_report(*args),
        )
        results = run_pipeline(demo_config(epsilons=(0.1, 0.2, 0.3))).document["results"]
        assert len(calls) == 1
        assert [row["epsilon"] for row in results] == [0.1, 0.2, 0.3]
        first = results[0]["binary"]
        assert first == evaluate.binary_report(calls[0][0], 0.5)
        assert all(row["binary"] == first for row in results)

    def test_pooled_calibration_route(self):
        result = run_pipeline(demo_config(mondrian=False))
        assert result.document["config"]["mondrian"] is False
        assert len(result.regions[0.2]) == 3

    def test_pooled_calibration_of_one_class_has_no_auroc(self, figure1_a_rows):
        result = run_pipeline(demo_config(mondrian=False, calibration_path=figure1_a_rows))
        # Five of figure1's ten A rows have s_pos >= 0.5: false positives.
        assert result.document["calibration"] == {"accuracy": 0.5, "auroc": None, "n": 10}
        assert len(result.document["results"]) == 1

    def test_without_test_data_only_calibration_is_reported(self):
        result = run_pipeline(demo_config(test_path=None))
        assert result.document["n_test"] is None
        assert result.document["results"] == []
        assert result.regions == {}
        assert result.p_values is None
        assert result.test is None

    def test_unlabelled_test_yields_predictions_but_no_metrics(self, tmp_path):
        path = tmp_path / "unlabelled.csv"
        path.write_text(
            "id,label,s_pos,s_neg\nu1,,0.9,0.1\nu2,,0.4,0.6\n", encoding="utf-8"
        )
        result = run_pipeline(demo_config(test_path=path))
        assert len(result.regions[0.2]) == 2
        assert result.document["results"] == []
        assert result.document["n_test"] == 2

    def test_smoothed_runs_reproduce_by_seed(self):
        config = demo_config(smoothing_seed=7)
        first = run_pipeline(config)
        second = run_pipeline(config)
        assert regions_bytes(first) == regions_bytes(second)
        other = run_pipeline(demo_config(smoothing_seed=8))
        assert regions_bytes(first) != regions_bytes(other)
        assert first.document["config"]["smoothed"] is True
        assert first.document["config"]["smoothing_seed"] == 7
        plain = run_pipeline(demo_config()).document["config"]
        assert (plain["smoothed"], plain["smoothing_seed"]) == (False, None)

    def test_smoothed_regions_nest_across_epsilons(self):
        both = run_pipeline(
            demo_config(epsilons=(0.1, 0.2), smoothing_seed=0)
        )
        alone = run_pipeline(
            demo_config(epsilons=(0.2,), smoothing_seed=0)
        )
        assert both.regions[0.2].tolist() == alone.regions[0.2].tolist()
        assert both.document["results"][1] == alone.document["results"][0]
        for wide, narrow in zip(both.regions[0.1], both.regions[0.2]):
            for label in Label:
                if REGIONS[narrow].contains(label):
                    assert REGIONS[wide].contains(label)

    def test_smoothed_p_values_stay_below_plain_ones(self):
        plain = run_pipeline(demo_config()).p_values
        smooth = run_pipeline(demo_config(smoothing_seed=3)).p_values
        for a, b in zip(smooth, plain):
            assert (a <= b).all()


class TestConfigValidation:
    def test_exactly_one_data_route(self, feature_files):
        train, _ = feature_files
        with pytest.raises(PipelineError, match="config:"):
            run_pipeline(
                demo_config(train_path=train, split=SplitConfig(0.7, seed=0))
            )
        with pytest.raises(PipelineError, match="config:"):
            run_pipeline(demo_config(calibration_path=None))

    def test_train_route_needs_a_split(self, feature_files):
        train, _ = feature_files
        with pytest.raises(PipelineError, match="split"):
            run_pipeline(
                RunConfig(
                    positive_class="positive", epsilons=(0.2,), train_path=train
                )
            )

    def test_split_is_rejected_on_the_calibration_route(self):
        with pytest.raises(PipelineError, match="split"):
            run_pipeline(demo_config(split=SplitConfig(0.7, seed=0)))

    def test_epsilons_are_validated(self):
        with pytest.raises(PipelineError, match="epsilon"):
            run_pipeline(demo_config(epsilons=()))
        with pytest.raises(PipelineError, match="config:"):
            run_pipeline(demo_config(epsilons=(1.5,)))

    def test_bag_measures_need_a_proper_set_on_the_calibration_route(self):
        with pytest.raises(PipelineError, match="proper_path"):
            run_pipeline(demo_config(measure=MeasureSpec("knn_ratio", 1)))

    def test_a_proper_set_is_rejected_for_measures_without_a_bag(self, tmp_path):
        # The file does not exist: the config stage rejects it before loading.
        message = "config: proper_path does not apply to measure 'passthrough'"
        with pytest.raises(PipelineError, match=message):
            run_pipeline(demo_config(proper_path=tmp_path / "absent.csv"))

    def test_a_proper_set_is_rejected_on_the_train_route(self, feature_files):
        train, _ = feature_files
        config = RunConfig(
            positive_class="positive", epsilons=(0.2,), measure=MeasureSpec("knn_prob"),
            train_path=train, proper_path=train, split=SplitConfig(0.7, seed=0),
        )
        with pytest.raises(PipelineError) as caught:
            run_pipeline(config)
        assert str(caught.value) == (
            "config: proper_path only applies when calibration_path is given"
        )

    def test_load_errors_name_the_stage(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,label\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="load:"):
            run_pipeline(demo_config(calibration_path=bad))

    def test_missing_files_surface_as_os_errors(self, tmp_path):
        with pytest.raises(OSError):
            run_pipeline(demo_config(calibration_path=tmp_path / "absent.csv"))


class TestSimulateOnline:
    def make_file(self, tmp_path, n_per_class=12, seed=5):
        path = tmp_path / "stream.csv"
        write_dataset(
            generate_synthetic(
                SyntheticSpec(n_per_class=n_per_class, dim=2, separation=2.0, seed=seed)
            ),
            path,
        )
        return path

    def test_rounds_cover_the_stream(self, tmp_path):
        path = self.make_file(tmp_path)
        rounds = simulate_online(path, positive_class="positive", epsilon=0.2, initial_size=4)
        assert len(rounds) == 24 - 4
        assert [r.round_index for r in rounds] == list(range(1, 21))

    def test_simulation_is_deterministic(self, tmp_path):
        path = self.make_file(tmp_path)
        config = dict(positive_class="positive", epsilon=0.2, initial_size=4)
        assert trajectory_csv(simulate_online(path, **config)) == trajectory_csv(
            simulate_online(path, **config)
        )

    def test_initial_size_must_leave_a_stream(self, tmp_path):
        path = self.make_file(tmp_path, n_per_class=3)
        with pytest.raises(PipelineError, match="initial_size"):
            simulate_online(path, positive_class="positive", epsilon=0.2, initial_size=6)
        with pytest.raises(PipelineError, match="initial_size"):
            simulate_online(path, positive_class="positive", epsilon=0.2, initial_size=0)

    def test_unlabelled_rows_are_rejected(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("id,label,x1\na,positive,1.0\nb,,2.0\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="labelled"):
            simulate_online(path, positive_class="positive", epsilon=0.2, initial_size=1)

    def test_trajectory_csv_layout(self, tmp_path):
        path = self.make_file(tmp_path)
        rounds = simulate_online(path, positive_class="positive", epsilon=0.0, initial_size=4)
        lines = trajectory_csv(rounds).decode("utf-8").splitlines()
        assert lines[0] == "round,region,true_label,cumulative_error_rate"
        assert len(lines) == len(rounds) + 1
        assert lines[1].startswith("1,both,")
        assert lines[1].endswith(",0.0")


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
    elif field.kind == pipeline._OBJECT:
        # The config's split is the only object figure.
        values = figure_block(pipeline._SPLIT_FIELDS).map(lambda block: block["split"])
    elif field.kind == pipeline._LEVELS:
        values = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3)
    else:
        values = {
            pipeline._COUNT: st.integers(min_value=0, max_value=2**63),
            pipeline._FLOAT: st.floats(allow_nan=False, allow_infinity=False),
            pipeline._STRING: st.text(),
            pipeline._BOOL: st.booleans(),
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
    calibration=figure_block(pipeline._CALIBRATION_FIELDS),
    results=st.lists(figure_block(pipeline._RESULT_FIELDS), max_size=3),
    # A document may leave out the config block and n_test.
    config=st.just({}) | figure_block(
        pipeline._CONFIG_FIELDS + pipeline._CONFIG_CHECKED
    ).map(lambda c: {"config": c}),
    n_test=st.just({}) | figure_block((pipeline._N_TEST,)),
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
