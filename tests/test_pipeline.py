import pytest

from bincp.core import REGIONS, Label, PredictionRegion
from bincp.data import SyntheticSpec, generate_synthetic, load_dataset, write_dataset
from bincp import evaluate, pipeline
from bincp.nonconformity import MeasureSpec
from bincp.icp import SplitConfig, split_dataset
from bincp.pipeline import PipelineError, RunConfig, run_pipeline, simulate_online
from bincp.report import emit_report, trajectory_csv

from conftest import demo_config, regions_bytes, write_stream


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
    def test_rounds_cover_the_stream(self, tmp_path):
        path = write_stream(tmp_path)
        rounds = simulate_online(path, positive_class="positive", epsilon=0.2, initial_size=4)
        assert len(rounds) == 24 - 4
        assert [r.round_index for r in rounds] == list(range(1, 21))

    def test_simulation_is_deterministic(self, tmp_path):
        path = write_stream(tmp_path)
        config = dict(positive_class="positive", epsilon=0.2, initial_size=4)
        assert trajectory_csv(simulate_online(path, **config)) == trajectory_csv(
            simulate_online(path, **config)
        )

    def test_initial_size_must_leave_a_stream(self, tmp_path):
        path = write_stream(tmp_path, n_per_class=3)
        with pytest.raises(PipelineError, match="initial_size"):
            simulate_online(path, positive_class="positive", epsilon=0.2, initial_size=6)
        with pytest.raises(PipelineError, match="initial_size"):
            simulate_online(path, positive_class="positive", epsilon=0.2, initial_size=0)

    def test_unlabelled_rows_are_rejected(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("id,label,x1\na,positive,1.0\nb,,2.0\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="labelled"):
            simulate_online(path, positive_class="positive", epsilon=0.2, initial_size=1)
