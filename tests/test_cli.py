import codecs
import csv
import json

import numpy as np
import pytest

from bincp.cli import main
from bincp.core import Dataset, _feature_limit
from bincp.data import demo_test_path, figure1_path, write_dataset
from bincp.pipeline import _CHUNK_ROWS

from conftest import needs_dev_fd, piped

FIG = str(figure1_path())
DEMO = str(demo_test_path())
LEVELS = "a non-empty list of finite floats"


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

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_a_file_that_is_not_utf8_names_the_file_and_line(self, capsys, tmp_path, end):
        path = tmp_path / "latin1.csv"
        rows = ["id,label,s_pos,s_neg", "a,A,0.9,0.1", "caf\xe9,B,0.2,0.8", ""]
        path.write_bytes(end.join(rows).encode("latin-1"))
        code, out, err = run(
            capsys, "evaluate", "--calibration", str(path), "--positive-class", "B"
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: load: {path}:3: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"
        )

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

    def test_stdout_out_and_regions_out_write_the_same_bytes(self, capsys, tmp_path):
        # More rows than one chunk of the regions writer, at two levels.
        n = _CHUNK_ROWS + 900
        rng = np.random.default_rng(0)
        votes = rng.integers(0, 101, n) / 100
        path = tmp_path / "votes.csv"
        write_dataset(
            Dataset.from_columns(
                [f"t{i}" for i in range(n)], rng.integers(0, 2, n), None,
                np.column_stack([votes, 1.0 - votes]), probability=True,
            ),
            path,
        )
        args = ("--calibration", str(path), "--test", str(path),
                "--positive-class", "positive", "--epsilon", "0.1", "--epsilon", "0.2")
        code, out, _ = run(capsys, "predict", *args)
        assert code == 0
        assert out.count("\n") == 1 + 2 * n
        predict, regions = tmp_path / "predict.csv", tmp_path / "regions.csv"
        assert run(capsys, "predict", *args, "--out", str(predict))[:2] == (0, "")
        assert run(
            capsys, "evaluate", *args, "--out", str(tmp_path / "report.txt"),
            "--regions-out", str(regions),
        )[:2] == (0, "")
        assert predict.read_bytes() == regions.read_bytes() == out.encode("utf-8")

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

    @pytest.mark.parametrize(
        "levels",
        [
            ("--epsilon", "0.2", "--epsilon", "0.1"),
            ("--confidence", "80", "--confidence", "90"),
            ("--epsilon", "0.2", "--confidence", "80"),
        ],
        ids=["two-epsilons", "two-confidences", "epsilon-and-confidence"],
    )
    def test_more_than_one_level_is_rejected(self, capsys, stream_file, tmp_path, levels):
        # On-line validity holds at the one level a run is at; no level is kept silently.
        out = tmp_path / "trajectory.csv"
        code, stdout, err = run(
            capsys,
            "simulate-online",
            "--data", str(stream_file),
            "--positive-class", "positive",
            "--out", str(out),
            *levels,
        )
        assert (code, stdout, out.exists()) == (1, "", False)
        assert err == "error: simulate-online takes one --epsilon or --confidence, got 2\n"

    @pytest.mark.parametrize(
        "level, same_as",
        [(("--confidence", "90"), ("--epsilon", "0.1")), ((), ("--epsilon", "0.2"))],
        ids=["confidence", "default"],
    )
    def test_a_level_reads_as_in_the_batch_commands(self, capsys, tmp_path, level, same_as):
        path = tmp_path / "pinned.csv"
        path.write_text(PINNED_STREAM, encoding="utf-8")
        outputs = []
        for flags in (level, same_as, ("--epsilon", "0.15")):
            code, out, err = run(
                capsys,
                "simulate-online",
                "--data", str(path),
                "--positive-class", "pos",
                "--initial-size", "4",
                *flags,
            )
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[0] == outputs[1] != outputs[2]

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
        assert err == "error: config: --k must be >= 1, got 0\n"

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


# One labelled set in three layouts; the header alone says which columns a
# file holds, and the stage that needs a missing column names it.
LAYOUT_COLUMNS = {"both": (True, True), "features": (True, False), "scores": (False, True)}
EVALUATE_LAYOUT = (
    "evaluate", "--train", "{}", "--test", "{}", "--positive-class", "pos",
    "--split-fraction", "0.5", "--format", "json",
)
SIMULATE_LAYOUT = (
    "simulate-online", "--data", "{}", "--positive-class", "pos", "--initial-size", "6",
)


@pytest.fixture()
def layouts(tmp_path):
    rng = np.random.default_rng(11)
    points = rng.normal(size=(24, 2)).tolist()
    s_pos = rng.random(24).tolist()
    labels = ["pos", "neg"] * 12
    paths = {}
    for name, (features, scores) in LAYOUT_COLUMNS.items():
        lines = ["id,label" + ",x1,x2" * features + ",s_pos,s_neg" * scores]
        for i, (point, p, label) in enumerate(zip(points, s_pos, labels)):
            fields = [f"r{i}", label] + list(map(repr, point)) * features
            lines.append(",".join(fields + [repr(p), repr(1.0 - p)] * scores))
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


@pytest.mark.parametrize(
    "argv, layout, same_as, message",
    [
        (EVALUATE_LAYOUT, "both", "scores", None),
        (EVALUATE_LAYOUT + ("--measure", "knn-prob", "--k", "3"), "both", "features", None),
        (SIMULATE_LAYOUT, "both", "features", None),
        (EVALUATE_LAYOUT, "features", None,
         "score: passthrough needs precomputed scores, missing for"),
        (EVALUATE_LAYOUT + ("--measure", "knn-ratio"), "scores", None,
         "score: bag samples need features and labels, missing for"),
        (SIMULATE_LAYOUT, "scores", None,
         "simulate: bag samples need features and labels, missing for"),
        (EVALUATE_LAYOUT + ("--schema", "auto"), "both", None,
         "unrecognized arguments: --schema auto"),
    ],
    ids=[
        "passthrough-ignores-features", "knn-ignores-scores", "online-ignores-scores",
        "passthrough-needs-scores", "knn-needs-features", "online-needs-features",
        "no-schema-flag",
    ],
)
def test_the_header_alone_sets_the_layout(capsys, layouts, argv, layout, same_as, message):
    def run_on(name):
        return run(capsys, *(arg.format(layouts[name]) for arg in argv))

    code, out, err = run_on(layout)
    if message is None:
        assert (code, err) == (0, "")
        assert out == run_on(same_as)[1]
    else:
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")


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
            ("[]", "calibration has no 'accuracy'"),
        ],
        ids=["missing-field", "row-not-an-object", "not-a-list", "no-calibration"],
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

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_a_figure_that_is_not_finite_is_a_validation_error(
        self, capsys, tmp_path, constant, fmt
    ):
        saved = tmp_path / "r.json"
        run(capsys, *demo_args("--format", "json", "--out", str(saved)))
        text = saved.read_text(encoding="utf-8")
        edited = text.replace('"validity": 1.0', f'"validity": {constant}', 1)
        assert edited != text
        saved.write_text(edited, encoding="utf-8")
        code, out, err = run(capsys, "report", "--in", str(saved), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error: not a report document: {constant} is not a finite number\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize(
        "block, path, value, kind",
        [
            ("results", ("validity",), "0.97", "a finite float"),
            ("results", ("n",), [1, 2], "a count"),
            ("results", ("binary", "auroc"), {"value": 0.75}, "a finite float or null"),
            ("results", ("efficiency",), True, "a finite float"),
            ("results", ("singleton_conditional", "n_singleton"), False, "a count"),
            ("results", ("distribution", "both"), None, "a finite float"),
            ("results", ("n",), 3.0, "a count"),
            ("results", ("n",), -1, "a count"),
            ("calibration", ("accuracy",), "0.52", "a finite float or null"),
            ("calibration", ("n",), None, "a count"),
        ],
        ids=[
            "string", "list", "object", "bool-float", "bool-count", "null",
            "float-count", "negative-count", "calibration-string", "calibration-null",
        ],
    )
    def test_a_figure_of_the_wrong_kind_is_a_validation_error(
        self, capsys, tmp_path, block, path, value, kind, fmt
    ):
        saved = tmp_path / "r.json"
        run(capsys, *demo_args("--format", "json", "--out", str(saved)))
        document = json.loads(saved.read_text(encoding="utf-8"))
        target = document["calibration"] if block == "calibration" else document["results"][0]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        saved.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = run(capsys, "report", "--in", str(saved), "--format", fmt)
        where = "calibration" if block == "calibration" else "result 1"
        assert (code, out) == (1, "")
        name = ".".join(path)
        assert err == f"error: not a report document: {where} {name!r} is not {kind}\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("config", "positive_class"), 7, "config 'positive_class' is not a string"),
            (("config", "measure", "kind"), None, "config 'measure.kind' is not a string"),
            (("config", "measure", "k"), [5], "config 'measure.k' is not a count"),
            (("config", "measure", "k"), True, "config 'measure.k' is not a count"),
            (("config", "mondrian"), "yes", "config 'mondrian' is not a bool"),
            (("config", "mondrian"), 1, "config 'mondrian' is not a bool"),
            (("config", "mondrian"), ..., "config has no 'mondrian'"),
            (("n_test",), "three", "document 'n_test' is not a count or null"),
            (("n_test",), 3.0, "document 'n_test' is not a count or null"),
            # The config figures off the run line are checked as well.
            (("config", "threshold"), "high", "config 'threshold' is not a finite float"),
            (("config", "threshold"), ..., "config has no 'threshold'"),
            (("config", "smoothed"), 3, "config 'smoothed' is not a bool"),
            (
                ("config", "smoothing_seed"), -4.5,
                "config 'smoothing_seed' is not a count or null",
            ),
            (("config", "split"), [1], "config 'split' is not an object or null"),
            (
                ("config", "split"), {"proper_fraction": 0.7, "seed": -1, "stratified": True},
                "config 'split.seed' is not a count",
            ),
            (
                ("config", "split"), {"proper_fraction": "0.7", "seed": 0, "stratified": True},
                "config 'split.proper_fraction' is not a finite float",
            ),
            (
                ("config", "split"), {"proper_fraction": 0.7, "seed": 0},
                "config has no 'split.stratified'",
            ),
            (("config", "epsilons"), "all", "config 'epsilons' is not " + LEVELS),
            (("config", "epsilons"), [], "config 'epsilons' is not " + LEVELS),
            (("config", "epsilons"), [0.1, 1], "config 'epsilons' is not " + LEVELS),
            # A figure of the right kind must lie in the range a run accepts.
            (
                ("config", "epsilons"), [0.1, 1.5],
                "config 'epsilons': epsilon must be in [0, 1], got 1.5",
            ),
            (
                ("config", "threshold"), 7.5,
                "config 'threshold': threshold must be in [0, 1], got 7.5",
            ),
            (
                ("config", "split"), {"proper_fraction": 3.0, "seed": 0, "stratified": True},
                "config 'split': proper_fraction must be in (0, 1), got 3.0",
            ),
            (("config", "measure", "k"), 0, "config 'measure': k must be >= 1, got 0"),
            (
                ("config", "measure", "kind"), "svm",
                "config 'measure': unknown measure 'svm', expected one of "
                "('knn_ratio', 'knn_prob', 'passthrough')",
            ),
        ],
        ids=[
            "class-number", "kind-null", "k-list", "k-bool", "mondrian-string",
            "mondrian-count", "mondrian-missing", "n-test-string", "n-test-float",
            "threshold-string", "threshold-missing", "smoothed-count", "seed-float",
            "split-list", "split-seed", "split-fraction-string", "split-missing-figure",
            "epsilons-string", "epsilons-empty", "epsilons-int", "epsilons-above-one",
            "threshold-above-one", "split-fraction-above-one", "k-zero", "kind-unknown",
        ],
    )
    def test_a_run_figure_of_the_wrong_kind_is_a_validation_error(
        self, capsys, tmp_path, path, value, message, fmt
    ):
        saved = tmp_path / "r.json"
        run(capsys, *demo_args("--format", "json", "--out", str(saved)))
        document = json.loads(saved.read_text(encoding="utf-8"))
        target = document
        for key in path[:-1]:
            target = target[key]
        if value is ...:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        saved.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = run(capsys, "report", "--in", str(saved), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error: not a report document: {message}\n"

    def test_a_row_missing_a_nested_figure_is_named(self, capsys, tmp_path):
        saved = tmp_path / "r.json"
        run(capsys, *demo_args("--format", "json", "--out", str(saved)))
        document = json.loads(saved.read_text(encoding="utf-8"))
        del document["results"][0]["binary"]["auroc"]
        saved.write_text(json.dumps(document), encoding="utf-8")
        code, _, err = run(capsys, "report", "--in", str(saved))
        assert code == 1
        assert "result 1 has no 'binary.auroc'" in err

    @needs_dev_fd
    def test_a_piped_report_with_a_byte_order_mark_renders_as_without(self, capsys, tmp_path):
        saved = tmp_path / "r.json"
        run(capsys, *demo_args("--format", "json", "--out", str(saved)))
        for fmt in ("json", "csv", "text"):
            expected = run(capsys, "report", "--in", str(saved), "--format", fmt)
            with piped(codecs.BOM_UTF8 + saved.read_bytes()) as path:
                assert run(capsys, "report", "--in", str(path), "--format", fmt) == expected
            assert expected[0] == 0

    @needs_dev_fd
    def test_a_byte_that_is_not_utf8_names_its_line(self, capsys, tmp_path):
        saved = tmp_path / "r.json"
        run(capsys, *demo_args("--format", "json", "--out", str(saved)))
        good = saved.read_bytes()
        raw = good.replace(b'"positive_class": "B"', b'"positive_class": "B\xe9"')
        line = good[: good.index(b'"positive_class"')].count(b"\n") + 1
        for copy in (raw, codecs.BOM_UTF8 + raw):
            with piped(copy) as path:
                code, out, err = run(capsys, "report", "--in", str(path))
            assert (code, out) == (1, "")
            assert err == (
                f"error: not a report document: line {line}: "
                "byte 0xe9 is not UTF-8 (invalid continuation byte)\n"
            )


def _synth_pair(capsys, tmp_path):
    """A labelled training file and a test file, written by `synth`."""
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    for path, seed, n in ((train, 1, "25"), (test, 2, "10")):
        assert run(
            capsys, "synth", "--out", str(path), "--n-per-class", n,
            "--separation", "2.0", "--seed", str(seed),
        )[0] == 0
    return train, test


class TestSeeds:
    """Every report a run writes is one `report --in` accepts, seeds included."""

    @pytest.mark.parametrize("smoothing", [(), ("--smoothed", "--smoothing-seed", "0")],
                             ids=["exact", "smoothed-seed-0"])
    @pytest.mark.parametrize("pooling", [(), ("--no-mondrian",)], ids=["mondrian", "pooled"])
    @pytest.mark.parametrize("route", ["train", "calibration", "calibration-only"])
    def test_report_in_accepts_every_report_a_run_writes(
        self, capsys, tmp_path, route, pooling, smoothing
    ):
        if route == "train":
            train, test = _synth_pair(capsys, tmp_path)
            inputs = ["--train", str(train), "--test", str(test), "--positive-class",
                      "positive", "--measure", "knn-prob", "--k", "3", "--split-seed", "0"]
        else:
            inputs = ["--calibration", FIG, "--positive-class", "B"]
            inputs += ["--test", DEMO] if route == "calibration" else []
        saved = tmp_path / "r.json"
        code, _, err = run(
            capsys, "evaluate", *inputs, *pooling, *smoothing,
            "--epsilon", "0.1", "--epsilon", "0.3", "--format", "json", "--out", str(saved),
        )
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "report", "--in", str(saved), "--format", "json")
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == saved.read_bytes()
        for fmt in ("csv", "text"):
            assert run(capsys, "report", "--in", str(saved), "--format", fmt)[0] == 0

    @pytest.mark.parametrize("test", [[], ["--test", "absent.csv"]], ids=["no-test", "test"])
    def test_a_negative_smoothing_seed_fails_before_loading(self, capsys, test):
        code, out, err = run(
            capsys, "evaluate", "--calibration", "absent.csv", *test, "--positive-class", "B",
            "--smoothed", "--smoothing-seed", "-1",
        )
        assert (code, out) == (1, "")
        assert err == "error: config: smoothing_seed must be >= 0, got -1\n"

    def test_a_negative_split_seed_fails_before_loading(self, capsys):
        code, out, err = run(
            capsys, "evaluate", "--train", "absent.csv", "--positive-class", "B",
            "--split-seed", "-1",
        )
        assert (code, out) == (1, "")
        assert err == "error: config: --split-seed must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--split-fraction", "1.5"), "--split-fraction must be in (0, 1), got 1.5"),
            (("--split-fraction", "nan"), "--split-fraction must be in (0, 1), got nan"),
            (("--measure", "knn-prob", "--k", "0"), "--k must be >= 1, got 0"),
        ],
        ids=["split-fraction", "split-fraction-nan", "k"],
    )
    def test_a_bad_config_flag_is_named_before_loading(self, capsys, flags, message):
        code, out, err = run(
            capsys, "evaluate", "--train", "absent.csv", "--positive-class", "B", *flags
        )
        assert (code, out) == (1, "")
        assert err == f"error: config: {message}\n"


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
