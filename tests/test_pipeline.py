import json

import pytest

from bincp.core import Label, PredictionRegion
from bincp.data import (
    SyntheticSpec,
    demo_test_path,
    figure1_path,
    generate_synthetic,
    write_dataset,
)
from bincp.nonconformity import MeasureSpec
from bincp.icp import SplitConfig
from bincp.pipeline import (
    REPORT_CSV_COLUMNS,
    OnlineConfig,
    PipelineError,
    RunConfig,
    emit_report,
    parse_report,
    regions_csv,
    run_pipeline,
    simulate_online,
    trajectory_csv,
)


def demo_config(**overrides):
    base = dict(
        positive_class="B",
        epsilons=(0.2,),
        calibration_path=figure1_path(),
        test_path=demo_test_path(),
    )
    base.update(overrides)
    return RunConfig(**base)


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
        regions = [p.region for p in result.predictions[0.2]]
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
        assert sorted(result.predictions) == [0.1, 0.2]
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
        assert all(s.scores is not None for s in result.test)
        for row in result.document["results"]:
            assert 0.0 <= row["validity"] <= 1.0
            assert row["binary"]["accuracy"] is not None

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

    def test_pooled_calibration_route(self):
        result = run_pipeline(demo_config(mondrian=False))
        assert result.document["config"]["mondrian"] is False
        assert len(result.predictions[0.2]) == 3

    def test_without_test_data_only_calibration_is_reported(self):
        result = run_pipeline(demo_config(test_path=None))
        assert result.document["n_test"] is None
        assert result.document["results"] == []
        assert result.predictions == {}
        assert result.test is None

    def test_unlabelled_test_yields_predictions_but_no_metrics(self, tmp_path):
        path = tmp_path / "unlabelled.csv"
        path.write_text(
            "id,label,s_pos,s_neg\nu1,,0.9,0.1\nu2,,0.4,0.6\n", encoding="utf-8"
        )
        result = run_pipeline(demo_config(test_path=path))
        assert len(result.predictions[0.2]) == 2
        assert result.document["results"] == []
        assert result.document["n_test"] == 2

    def test_smoothed_runs_reproduce_by_seed(self):
        config = demo_config(smoothed=True, smoothing_seed=7)
        first = run_pipeline(config)
        second = run_pipeline(config)
        assert regions_csv(first) == regions_csv(second)
        other = run_pipeline(demo_config(smoothed=True, smoothing_seed=8))
        assert regions_csv(first) != regions_csv(other)

    def test_smoothed_regions_nest_across_epsilons(self):
        both = run_pipeline(
            demo_config(epsilons=(0.1, 0.2), smoothed=True, smoothing_seed=0)
        )
        alone = run_pipeline(
            demo_config(epsilons=(0.2,), smoothed=True, smoothing_seed=0)
        )
        assert both.predictions[0.2] == alone.predictions[0.2]
        assert both.document["results"][1] == alone.document["results"][0]
        for wide, narrow in zip(both.predictions[0.1], both.predictions[0.2]):
            for label in Label:
                if narrow.region.contains(label):
                    assert wide.region.contains(label)

    def test_smoothed_p_values_stay_below_plain_ones(self):
        plain = run_pipeline(demo_config()).predictions[0.2]
        smooth = run_pipeline(
            demo_config(smoothed=True, smoothing_seed=3)
        ).predictions[0.2]
        for a, b in zip(smooth, plain):
            assert a.p.p_pos <= b.p.p_pos
            assert a.p.p_neg <= b.p.p_neg


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

    def test_smoothing_needs_a_seed(self):
        with pytest.raises(PipelineError, match="smoothing_seed"):
            run_pipeline(demo_config(smoothed=True))

    def test_bag_measures_need_a_proper_set_on_the_calibration_route(self):
        with pytest.raises(PipelineError, match="proper_path"):
            run_pipeline(demo_config(measure=MeasureSpec("knn_ratio", 1)))

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
        rounds = simulate_online(
            OnlineConfig(path, positive_class="positive", epsilon=0.2, initial_size=4)
        )
        assert len(rounds) == 24 - 4
        assert [r.round_index for r in rounds] == list(range(1, 21))

    def test_simulation_is_deterministic(self, tmp_path):
        path = self.make_file(tmp_path)
        config = OnlineConfig(path, positive_class="positive", epsilon=0.2, initial_size=4)
        assert trajectory_csv(simulate_online(config)) == trajectory_csv(
            simulate_online(config)
        )

    def test_initial_size_must_leave_a_stream(self, tmp_path):
        path = self.make_file(tmp_path, n_per_class=3)
        with pytest.raises(PipelineError, match="initial_size"):
            simulate_online(
                OnlineConfig(path, positive_class="positive", epsilon=0.2, initial_size=6)
            )
        with pytest.raises(PipelineError, match="initial_size"):
            simulate_online(
                OnlineConfig(path, positive_class="positive", epsilon=0.2, initial_size=0)
            )

    def test_unlabelled_rows_are_rejected(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("id,label,x1\na,positive,1.0\nb,,2.0\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="labelled"):
            simulate_online(
                OnlineConfig(path, positive_class="positive", epsilon=0.2, initial_size=1)
            )

    def test_trajectory_csv_layout(self, tmp_path):
        path = self.make_file(tmp_path)
        rounds = simulate_online(
            OnlineConfig(path, positive_class="positive", epsilon=0.0, initial_size=4)
        )
        lines = trajectory_csv(rounds).decode("utf-8").splitlines()
        assert lines[0] == "round,region,true_label,cumulative_error_rate"
        assert len(lines) == len(rounds) + 1
        assert lines[1].startswith("1,both,")
        assert lines[1].endswith(",0.0")


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
        lines = regions_csv(result).decode("utf-8").splitlines()
        assert lines[0] == "epsilon,id,true_label,p_pos,p_neg,region"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[0] == "0.2"
        assert first[1] == "t1"
        assert first[2] == "positive"
        assert float(first[3]) == 0.5
        assert float(first[4]) == 6 / 11
        assert first[5] == "both"
