import csv
import json

import numpy as np
import pytest

from bincp.cli import main
from bincp.core import _feature_limit
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


# 24 rows at one decimal, so many distances tie; the first 4 seed the bag.
PINNED_STREAM = """\
id,label,x1,x2
r0,neg,-1.4,-0.6
r1,pos,0.1,0.5
r2,pos,0.6,1.2
r3,neg,-1.2,-0.5
r4,neg,-0.7,-0.4
r5,pos,1.0,2.5
r6,pos,0.1,2.0
r7,pos,0.4,-0.2
r8,pos,2.0,0.4
r9,pos,0.4,-0.6
r10,neg,-2.9,-0.2
r11,neg,-2.0,-0.0
r12,pos,2.6,0.7
r13,neg,-1.9,-0.4
r14,pos,1.6,0.5
r15,pos,0.8,2.1
r16,neg,0.5,-0.1
r17,neg,-1.7,-0.9
r18,neg,-0.2,-1.0
r19,pos,0.2,0.0
r20,pos,0.2,0.1
r21,pos,0.3,1.9
r22,pos,-0.0,1.7
r23,neg,-0.4,-0.7
"""

# `simulate-online --epsilon 0.15` on PINNED_STREAM, byte for byte.
PINNED_TRAJECTORIES = {
    1: """\
round,region,true_label,cumulative_error_rate
1,both,negative,0.0
2,both,positive,0.0
3,positive,positive,0.0
4,empty,positive,0.25
5,positive,positive,0.2
6,positive,positive,0.16666666666666666
7,negative,negative,0.14285714285714285
8,negative,negative,0.125
9,positive,positive,0.1111111111111111
10,negative,negative,0.1
11,positive,positive,0.09090909090909091
12,positive,positive,0.08333333333333333
13,positive,negative,0.15384615384615385
14,negative,negative,0.14285714285714285
15,both,negative,0.13333333333333333
16,both,positive,0.125
17,positive,positive,0.11764705882352941
18,positive,positive,0.1111111111111111
19,positive,positive,0.10526315789473684
20,negative,negative,0.1
""",
    5: """\
round,region,true_label,cumulative_error_rate
1,both,negative,0.0
2,both,positive,0.0
3,positive,positive,0.0
4,negative,positive,0.25
5,positive,positive,0.2
6,negative,positive,0.3333333333333333
7,negative,negative,0.2857142857142857
8,negative,negative,0.25
9,positive,positive,0.2222222222222222
10,negative,negative,0.2
11,positive,positive,0.18181818181818182
12,positive,positive,0.16666666666666666
13,positive,negative,0.23076923076923078
14,negative,negative,0.21428571428571427
15,negative,negative,0.2
16,both,positive,0.1875
17,positive,positive,0.17647058823529413
18,positive,positive,0.16666666666666666
19,positive,positive,0.15789473684210525
20,negative,negative,0.15
""",
}


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

    @pytest.mark.parametrize(
        "flags", [("--smoothed",), ("--smoothing-seed", "4")], ids=["flag", "seed"]
    )
    def test_smoothing_flags_go_together(self, capsys, flags):
        code, out, err = run(capsys, *demo_args(*flags))
        assert (code, out) == (1, "")
        assert err == "error: --smoothed and --smoothing-seed must be given together\n"

    def test_pooled_calibration_of_one_class_reports_null_auroc(
        self, capsys, figure1_a_rows
    ):
        args = demo_args("--no-mondrian", "--format", "json")
        args[args.index(FIG)] = str(figure1_a_rows)
        code, out, err = run(capsys, *args)
        assert (code, err) == (0, "")
        document = json.loads(out)
        assert document["calibration"] == {"accuracy": 0.5, "auroc": None, "n": 10}

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

    def test_duplicate_ids_name_the_file_and_both_lines(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "id,label,s_pos,s_neg\na,A,0.9,0.1\nb,B,0.2,0.8\na,B,0.5,0.5\n",
            encoding="utf-8",
        )
        code, out, err = run(
            capsys, "evaluate", "--calibration", str(path), "--positive-class", "B"
        )
        assert (code, out) == (1, "")
        assert err == f"error: load: {path}:4: duplicate sample id 'a' (first on line 2)\n"

    @pytest.mark.parametrize("flag", ["--calibration", "--test"])
    def test_oversized_field_names_the_file_and_line(self, capsys, tmp_path, flag):
        limit = csv.field_size_limit()
        path = tmp_path / "big.csv"
        path.write_text(
            f"id,label,s_pos,s_neg\na,A,0.9,0.1\n{'b' * (limit + 1)},B,0.2,0.8\n",
            encoding="utf-8",
        )
        files = {"--calibration": FIG, "--test": DEMO, flag: str(path)}
        code, out, err = run(
            capsys, "evaluate", *(arg for item in files.items() for arg in item),
            "--positive-class", "B",
        )
        assert (code, out) == (1, "")
        assert err == f"error: load: {path}:3: field larger than field limit ({limit})\n"

    def test_smoothed_runs_are_seed_reproducible(self, capsys):
        args = demo_args("--smoothed", "--smoothing-seed", "5", "--format", "json")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    @pytest.mark.parametrize(
        "flags", [("--smoothed",), ("--smoothing-seed", "4")], ids=["flag", "seed"]
    )
    def test_smoothing_flags_go_together(self, capsys, flags):
        code, out, err = run(capsys, *demo_args(*flags))
        assert (code, out) == (1, "")
        assert err == "error: --smoothed and --smoothing-seed must be given together\n"

    def test_pooled_calibration_of_one_class_reports_null_auroc(
        self, capsys, figure1_a_rows
    ):
        args = demo_args("--no-mondrian", "--format", "json")
        args[args.index(FIG)] = str(figure1_a_rows)
        code, out, err = run(capsys, *args)
        assert (code, err) == (0, "")
        document = json.loads(out)
        assert document["calibration"] == {"accuracy": 0.5, "auroc": None, "n": 10}


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

    def test_ids_that_need_quoting_are_quoted(self, capsys, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(
            'id,label,s_pos,s_neg\n"a,1",A,0.9,0.1\n"b""q",B,0.2,0.8\n"c\nd",B,0.5,0.5\n',
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "predict", "--calibration", str(path), "--test", str(path),
            "--positive-class", "B", "--epsilon", "0.6",
        )
        assert code == 0
        assert out == (
            "epsilon,id,true_label,p_pos,p_neg,region\n"
            '0.6,"a,1",negative,1.0,1.0,both\n'
            '0.6,"b""q",positive,0.6666666666666666,1.0,both\n'
            '0.6,"c\nd",positive,1.0,1.0,both\n'
        )

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

    def test_k_is_checked_before_the_file_is_read(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "simulate-online",
            "--data", str(tmp_path / "missing.csv"),
            "--positive-class", "positive",
            "--k", "0",
        )
        assert code == 1
        assert "k must be >= 1" in err

    @pytest.mark.parametrize("k", sorted(PINNED_TRAJECTORIES))
    def test_trajectory_bytes_are_pinned(self, capsys, tmp_path, k):
        path = tmp_path / "pinned.csv"
        path.write_text(PINNED_STREAM, encoding="utf-8")
        code, out, err = run(
            capsys,
            "simulate-online",
            "--data", str(path),
            "--positive-class", "pos",
            "--initial-size", "4",
            "--epsilon", "0.15",
            "--k", str(k),
        )
        assert (code, err) == (0, "")
        assert out == PINNED_TRAJECTORIES[k]

def write_features(path, points, labels):
    lines = ["id,label," + ",".join(f"x{i + 1}" for i in range(points.shape[1]))]
    for i, (point, label) in enumerate(zip(points.tolist(), labels)):
        lines.append(f"r{i},{label}," + ",".join(map(repr, point)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestFeatureBound:
    """Features whose squares would overflow are load errors, not scores."""

    LIMIT = _feature_limit(2)

    @pytest.fixture()
    def files(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = ["A", "B"] * 20
        small = rng.normal(size=(40, 2))
        # Rows 7 on are at 1e160 scale: the first of them is on line 9.
        big = small * np.where(np.arange(40) >= 7, 1e160, 1.0)[:, None]
        return (
            write_features(tmp_path / "small.csv", small, labels),
            write_features(tmp_path / "big.csv", big, labels),
        )

    def evaluate(self, capsys, train, test, measure="knn-ratio"):
        return run(
            capsys, "evaluate", "--train", str(train), "--test", str(test),
            "--positive-class", "A", "--measure", measure, "--k", "3",
            "--split-fraction", "0.5", "--split-seed", "0",
        )

    @pytest.mark.parametrize("route", ["--train", "--test", "simulate-online"])
    def test_a_row_beyond_the_bound_names_its_line(self, capsys, files, route):
        small, big = files
        if route == "simulate-online":
            code, out, err = run(
                capsys, "simulate-online", "--data", str(big), "--positive-class", "A",
                "--epsilon", "0.2",
            )
        elif route == "--train":
            code, out, err = self.evaluate(capsys, big, small)
        else:
            code, out, err = self.evaluate(capsys, small, big)
        assert (code, out) == (1, "")
        assert err == (
            f"error: load: {big}:9: sample 'r7' has features beyond "
            f"±{self.LIMIT:.4g}, whose squared distances overflow\n"
        )

    def test_features_at_the_bound_score_cleanly(self, capsys, tmp_path):
        # Most rows of each class sit at one corner, a few at the opposite
        # one, so the squared distances reach 4 d LIMIT^2 and the kernel's
        # largest sums twice that; any overflow warning fails the run.
        rng = np.random.default_rng(1)
        corner = np.where(rng.random(60) < 0.2, 1.0, -1.0)
        points = corner[:, None] * np.full((60, 2), self.LIMIT)
        path = write_features(tmp_path / "edge.csv", points, ["A", "B"] * 30)
        for measure in ("knn-ratio", "knn-prob"):
            code, out, err = self.evaluate(capsys, path, path, measure)
            assert (code, err) == (0, "")
            assert out
        code, out, err = run(
            capsys, "simulate-online", "--data", str(path), "--positive-class", "A",
            "--epsilon", "0.2",
        )
        assert (code, err) == (0, "")
        assert out.count("\n") == 1 + 60 - 10

    def test_one_ulp_beyond_the_bound_is_rejected(self, capsys, tmp_path):
        points = np.zeros((20, 2))
        points[12, 1] = -np.nextafter(self.LIMIT, np.inf)
        path = write_features(tmp_path / "ulp.csv", points, ["A", "B"] * 10)
        code, _, err = self.evaluate(capsys, path, path)
        assert code == 1
        assert err.startswith(f"error: load: {path}:14: sample 'r12' has features beyond")


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

    @pytest.mark.parametrize(
        "results, missing",
        [
            ('[{"epsilon": 0.1}]', "result 1 has no 'confidence_percent'"),
            ("[7]", "result 1 has no 'epsilon'"),
            ('{"epsilon": 0.1}', "'results' is not a list"),
        ],
        ids=["missing-field", "row-not-an-object", "not-a-list"],
    )
    def test_incomplete_result_rows_are_a_validation_error(
        self, capsys, tmp_path, results, missing
    ):
        partial = tmp_path / "partial.json"
        partial.write_text(f'{{"results": {results}}}', encoding="utf-8")
        for fmt in ("json", "csv", "text"):
            code, out, err = run(capsys, "report", "--in", str(partial), "--format", fmt)
            assert (code, out) == (1, "")
            assert missing in err

    @pytest.mark.parametrize(
        "document, block",
        [
            ('{"results": [], "calibration": []}', "calibration"),
            ('{"results": [], "calibration": null}', "calibration"),
            ('{"results": [], "config": []}', "config"),
            ('{"results": [], "config": {"measure": 3}}', "config.measure"),
        ],
        ids=["calibration-list", "calibration-null", "config-list", "measure-number"],
    )
    def test_blocks_that_are_not_objects_are_a_validation_error(
        self, capsys, tmp_path, document, block
    ):
        saved = tmp_path / "blocks.json"
        saved.write_text(document, encoding="utf-8")
        for fmt in ("json", "csv", "text"):
            code, out, err = run(capsys, "report", "--in", str(saved), "--format", fmt)
            assert (code, out) == (1, "")
            assert err == f"error: not a report document: {block!r} is not an object\n"

    def test_a_row_missing_a_nested_figure_is_named(self, capsys, tmp_path):
        saved = tmp_path / "r.json"
        run(capsys, *demo_args("--format", "json", "--out", str(saved)))
        document = json.loads(saved.read_text(encoding="utf-8"))
        del document["results"][0]["binary"]["auroc"]
        saved.write_text(json.dumps(document), encoding="utf-8")
        code, _, err = run(capsys, "report", "--in", str(saved))
        assert code == 1
        assert "result 1 has no 'binary.auroc'" in err


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

    def test_proper_set_with_the_passthrough_measure_is_rejected(self, capsys):
        code, out, err = run(capsys, *demo_args("--proper", FIG, "--epsilon", "0.2"))
        assert (code, out) == (1, "")
        assert "config: proper_path does not apply to measure 'passthrough'" in err

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
