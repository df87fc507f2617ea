import json

import pytest

from bincp.cli import main
from bincp.data import demo_test_path, figure1_path

FIG = str(figure1_path())
DEMO = str(demo_test_path())


def demo_args(*extra):
    return [
        "evaluate",
        "--calibration", FIG,
        "--test", DEMO,
        "--positive-class", "B",
        *extra,
    ]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluateCommand:
    def test_text_report_to_stdout(self, capsys):
        code, out, err = run(capsys, *demo_args())
        assert code == 0
        assert err == ""
        assert "calibration  n=21" in out
        assert "validity=1.0000" in out

    def test_json_report_has_the_expected_row(self, capsys):
        code, out, _ = run(capsys, *demo_args("--format", "json"))
        assert code == 0
        document = json.loads(out)
        assert document["results"][0]["epsilon"] == 0.2
        assert document["results"][0]["validity"] == 1.0
        assert document["calibration"]["n"] == 21

    def test_output_and_regions_files(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        regions = tmp_path / "regions.csv"
        code, out, _ = run(
            capsys,
            *demo_args(
                "--format", "json",
                "--out", str(report),
                "--regions-out", str(regions),
            ),
        )
        assert code == 0
        assert out == ""
        assert json.loads(report.read_text(encoding="utf-8"))["n_test"] == 3
        lines = regions.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epsilon,id,true_label,p_pos,p_neg,region"
        assert len(lines) == 4

    def test_confidence_flag_matches_equivalent_epsilon(self, capsys):
        code_a, out_a, _ = run(capsys, *demo_args("--format", "json"))
        code_b, out_b, _ = run(
            capsys,
            "evaluate",
            "--calibration", FIG,
            "--test", DEMO,
            "--positive-class", "B",
            "--confidence", "80",
            "--format", "json",
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_repeated_epsilons_make_multiple_rows(self, capsys):
        code, out, _ = run(
            capsys,
            *demo_args("--epsilon", "0.1", "--epsilon", "0.3", "--format", "json"),
        )
        assert code == 0
        rows = json.loads(out)["results"]
        assert [r["epsilon"] for r in rows] == [0.1, 0.3]

    def test_calibration_only_run(self, capsys):
        code, out, _ = run(
            capsys, "evaluate", "--calibration", FIG, "--positive-class", "B"
        )
        assert code == 0
        assert "calibration  n=21" in out

    def test_unlabelled_test_rows_fail_validation(self, capsys, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("id,label,s_pos,s_neg\nu1,,0.9,0.1\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "evaluate",
            "--calibration", FIG,
            "--test", str(path),
            "--positive-class", "B",
        )
        assert code == 1
        assert "labels" in err

    def test_regions_out_without_test_writes_nothing(self, capsys, tmp_path):
        report = tmp_path / "rep.txt"
        code, _, err = run(
            capsys,
            "evaluate",
            "--calibration", FIG,
            "--positive-class", "B",
            "--out", str(report),
            "--regions-out", str(tmp_path / "regions.csv"),
        )
        assert code == 1
        assert "--test" in err
        assert not report.exists()

    def test_class_name_typo_across_files_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "typo.csv"
        path.write_text("id,label,s_pos,s_neg\nu1,b,0.9,0.1\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            "evaluate",
            "--calibration", FIG,
            "--test", str(path),
            "--positive-class", "B",
        )
        assert code == 1
        assert out == ""
        assert str(path) in err
        assert "more than two classes" in err

    def test_test_file_of_the_negative_class_alone_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "negatives.csv"
        path.write_text(
            "id,label,s_pos,s_neg\nu1,A,0.9,0.1\nu2,A,0.2,0.8\n", encoding="utf-8"
        )
        code, out, _ = run(
            capsys,
            "evaluate",
            "--calibration", FIG,
            "--test", str(path),
            "--positive-class", "B",
            "--format", "json",
        )
        assert code == 0
        row = json.loads(out)["results"][0]
        assert row["n"] == 2
        assert row["binary"]["sensitivity"] is None

    def test_smoothed_runs_are_seed_reproducible(self, capsys):
        args = demo_args("--smoothed", "--smoothing-seed", "5", "--format", "json")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b


class TestPredictCommand:
    def test_regions_to_stdout(self, capsys):
        code, out, _ = run(
            capsys,
            "predict",
            "--calibration", FIG,
            "--test", DEMO,
            "--positive-class", "B",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "epsilon,id,true_label,p_pos,p_neg,region"
        t2 = lines[2].split(",")
        assert t2[1] == "t2"
        assert float(t2[3]) == 1.0
        assert t2[5] == "positive"

    def test_requires_a_test_set(self, capsys):
        code, _, err = run(
            capsys, "predict", "--calibration", FIG, "--positive-class", "B"
        )
        assert code == 1
        assert "--test" in err


class TestSimulateOnlineCommand:
    @pytest.fixture()
    def stream_file(self, capsys, tmp_path):
        path = tmp_path / "stream.csv"
        code, _, _ = run(
            capsys,
            "synth",
            "--out", str(path),
            "--n-per-class", "8",
            "--separation", "2.0",
            "--seed", "3",
        )
        assert code == 0
        return path

    def test_trajectory_to_stdout(self, capsys, stream_file):
        code, out, _ = run(
            capsys,
            "simulate-online",
            "--data", str(stream_file),
            "--positive-class", "positive",
            "--initial-size", "4",
            "--epsilon", "0.2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "round,region,true_label,cumulative_error_rate"
        assert len(lines) == 1 + (16 - 4)

    def test_epsilon_and_confidence_are_mutually_exclusive(self, capsys, stream_file):
        code, _, err = run(
            capsys,
            "simulate-online",
            "--data", str(stream_file),
            "--positive-class", "positive",
            "--epsilon", "0.2",
            "--confidence", "80",
        )
        assert code == 1
        assert "either" in err

    def test_runs_are_reproducible(self, capsys, stream_file, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            code, _, _ = run(
                capsys,
                "simulate-online",
                "--data", str(stream_file),
                "--positive-class", "positive",
                "--initial-size", "4",
                "--out", str(out),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestSynthCommand:
    def test_same_seed_writes_identical_files(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "synth",
                "--out", str(path),
                "--n-per-class", "5",
                "--seed", "7",
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_is_a_validation_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "synth",
            "--out", str(tmp_path / "x.csv"),
            "--n-per-class", "0",
        )
        assert code == 1
        assert "n_per_class" in err


class TestReportCommand:
    def test_round_trip_preserves_bytes(self, capsys, tmp_path):
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        code, _, _ = run(capsys, *demo_args("--format", "json", "--out", str(first)))
        assert code == 0
        code, _, _ = run(
            capsys,
            "report",
            "--in", str(first),
            "--format", "json",
            "--out", str(second),
        )
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_re_render_as_csv(self, capsys, tmp_path):
        saved = tmp_path / "r.json"
        run(capsys, *demo_args("--format", "json", "--out", str(saved)))
        code, out, _ = run(capsys, "report", "--in", str(saved), "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("epsilon,confidence_percent,")

    def test_garbage_input_is_a_validation_error(self, capsys, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("not a report", encoding="utf-8")
        code, _, err = run(capsys, "report", "--in", str(junk))
        assert code == 1
        assert "report" in err


class TestExitCodes:
    def test_missing_file_is_an_io_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "evaluate",
            "--calibration", str(tmp_path / "absent.csv"),
            "--positive-class", "B",
        )
        assert code == 2
        assert "i/o error" in err

    def test_unknown_flag_is_a_validation_error(self, capsys):
        code, _, err = run(capsys, *demo_args("--frobnicate"))
        assert code == 1
        assert "error" in err

    def test_missing_required_flag_is_a_validation_error(self, capsys):
        code, _, _ = run(capsys, "evaluate", "--calibration", FIG)
        assert code == 1

    def test_invalid_epsilon_is_a_validation_error(self, capsys):
        code, _, err = run(capsys, *demo_args("--epsilon", "1.5"))
        assert code == 1
        assert "error" in err

    def test_split_flags_without_train_are_rejected(self, capsys):
        code, _, err = run(capsys, *demo_args("--split-fraction", "0.5"))
        assert code == 1
        assert "--train" in err

    def test_train_route_via_cli(self, capsys, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        for path, seed, n in ((train, 1, "25"), (test, 2, "10")):
            assert run(
                capsys,
                "synth",
                "--out", str(path),
                "--n-per-class", n,
                "--separation", "2.0",
                "--seed", str(seed),
            )[0] == 0
        code, out, _ = run(
            capsys,
            "evaluate",
            "--train", str(train),
            "--test", str(test),
            "--positive-class", "positive",
            "--measure", "knn-prob",
            "--k", "3",
            "--split-fraction", "0.7",
            "--split-seed", "1",
            "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["results"]
        assert document["config"]["measure"]["kind"] == "knn_prob"
