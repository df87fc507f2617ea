"""Output bytes of whole CLI runs, pinned by sha256.

Each case runs the CLI on inputs generated from fixed seeds and hashes its
stdout and every file the run writes, inputs made by `bincp synth` included,
so a change to any byte of any output shows as a changed digest.
"""

import hashlib

import numpy as np
import pytest

from bincp.cli import main
from bincp.data import demo_test_path, figure1_path
from bincp.pipeline import RunConfig, emit_report, run_pipeline

EPSILONS = ("--epsilon", "0.05", "--epsilon", "0.1", "--epsilon", "0.2")


def write_scored(path, n, seed):
    """Vote fractions of a 100-tree ensemble: 101 distinct values, many ties."""
    rng = np.random.default_rng(seed)
    positive = (rng.random(n) < 0.5).tolist()
    votes = rng.binomial(100, np.where(positive, 0.6, 0.4)).tolist()
    rows = [
        f"r{i},{'yes' if p else 'no'},{v / 100!r},{(100 - v) / 100!r}"
        for i, (p, v) in enumerate(zip(positive, votes))
    ]
    path.write_text("\n".join(["id,label,s_pos,s_neg", *rows]) + "\n", encoding="utf-8")


def write_synth(tmp_path):
    """Train and test files from `bincp synth`, 10 features each."""
    paths = {"train": tmp_path / "train.csv", "test": tmp_path / "test.csv"}
    for (name, path), n, seed in zip(paths.items(), ("60", "25"), ("1", "2")):
        argv = ["synth", "--out", str(path), "--n-per-class", n, "--dim", "10",
                "--separation", "1.5", "--seed", seed]
        assert main(argv) == 0
    return paths


def digests(capsys, argv, files):
    """sha256 of stdout and of each named file after one CLI run."""
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    out = {"stdout": captured.out.encode("utf-8")}
    out.update((name, path.read_bytes()) for name, path in files.items())
    return {name: hashlib.sha256(data).hexdigest() for name, data in out.items()}


# The regions file is the same whatever the report format.
REGIONS_DIGEST = "f8d75ab7c48f8ff2a2317e02f5a1ee68a790a80818d2ab5a5423b5e10d81b8fc"
PINNED_EVALUATE = {
    "json": "0da3d10e1e32e836dc931db9c258a468119d1d898d8bdfe37ee8a71a2a0c13ad",
    "csv": "509a839c7faaa037b67b2c198ccce667b9e03a098a8cdd2fc6f04a5481d307c0",
    "text": "08912a054e1035723b6a8a4f97fc246b262a4f7e8ac6be5f845c945cb7f8846b",
}


@pytest.mark.parametrize("fmt", sorted(PINNED_EVALUATE))
def test_evaluate_scored_files_bytes(capsys, tmp_path, fmt):
    calibration, test = tmp_path / "cal.csv", tmp_path / "test.csv"
    write_scored(calibration, 400, 5)
    write_scored(test, 300, 6)
    regions = tmp_path / "regions.csv"
    argv = ["evaluate", "--calibration", str(calibration), "--test", str(test),
            "--positive-class", "yes", *EPSILONS, "--format", fmt,
            "--regions-out", str(regions)]
    assert digests(capsys, argv, {"regions": regions}) == {
        "stdout": PINNED_EVALUATE[fmt], "regions": REGIONS_DIGEST
    }


def test_evaluate_knn_prob_on_synth_files_bytes(capsys, tmp_path):
    files = write_synth(tmp_path)
    files["regions"] = tmp_path / "regions.csv"
    argv = ["evaluate", "--train", str(files["train"]), "--test", str(files["test"]),
            "--positive-class", "positive", "--measure", "knn-prob", "--k", "5",
            "--split-fraction", "0.7", "--split-seed", "3", *EPSILONS,
            "--format", "json", "--regions-out", str(files["regions"])]
    assert digests(capsys, argv, files) == {
        "stdout": "f40e8c3d5eabfd7d830713310fbd880ecf4deb9927c9f18cd5adb6c9a2b9649b",
        "train": "d02cf21af2fec09a17f0ac808f489b5ab31848469b0aed431922dc53c8f19a31",
        "test": "a25ede17793b51aac61c5eb1bfd3e475e749432a4315db3ac0a26f5e29db3b79",
        "regions": "e6c9ca7bf4cde0dd26cb12ebbe9fc4e98690f0485654e86e4c650ccc0850ff9b",
    }


def test_predict_knn_ratio_pooled_smoothed_bytes(capsys, tmp_path):
    files = write_synth(tmp_path)
    argv = ["predict", "--train", str(files["train"]), "--test", str(files["test"]),
            "--positive-class", "positive", "--measure", "knn-ratio", "--k", "3",
            "--split-fraction", "0.6", "--split-seed", "4", "--no-mondrian",
            "--smoothed", "--smoothing-seed", "7", *EPSILONS]
    assert digests(capsys, argv, {}) == {
        "stdout": "d95c9b24f9884cd8162de7936d5c72c36ec887fb9c8a0b77b0d253dd81d33d29",
    }


def cli_report(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.encode("utf-8")


def knn_ratio_report(capsys, tmp_path, fmt):
    """Scores that are not probabilities: no thresholded rate, no calibration figure."""
    files = write_synth(tmp_path)
    return cli_report(capsys, [
        "evaluate", "--train", str(files["train"]), "--test", str(files["test"]),
        "--positive-class", "positive", "--measure", "knn-ratio", "--k", "3",
        "--split-fraction", "0.7", "--split-seed", "3", *EPSILONS, "--format", fmt,
    ])


def figure1_report(capsys, *extra):
    return cli_report(capsys, [
        "evaluate", "--calibration", str(figure1_path()), "--positive-class", "B", *extra,
    ])


def integer_epsilons_report(fmt):
    """Epsilons given as ints still print as floats."""
    config = RunConfig(
        positive_class="B", epsilons=(0, 1),
        calibration_path=figure1_path(), test_path=demo_test_path(),
    )
    return emit_report(run_pipeline(config).document, fmt)


# Report shapes with absent figures or unusual epsilons, built by each case
# from (capsys, tmp_path, format).
SHAPES = {
    "knn-ratio": knn_ratio_report,
    # Every region is `both` at 0.01, so the singleton block has no figure.
    "no-singletons": lambda capsys, tmp_path, fmt: figure1_report(
        capsys, "--test", str(demo_test_path()), "--epsilon", "0.01", "--format", fmt
    ),
    "pooled-epsilon-and-confidence": lambda capsys, tmp_path, fmt: figure1_report(
        capsys, "--test", str(demo_test_path()), "--no-mondrian", "--epsilon", "0.3",
        "--confidence", "80", "--epsilon", "0.1", "--format", fmt,
    ),
    "calibration-only": lambda capsys, tmp_path, fmt: figure1_report(
        capsys, "--format", fmt
    ),
    "integer-epsilons": lambda capsys, tmp_path, fmt: integer_epsilons_report(fmt),
}
PINNED_SHAPES = {
    ("knn-ratio", "csv"): "ce04c512950da3b086fc137f778642a7af513edf4df1c11eb0b5a771efa72c3d",
    ("knn-ratio", "json"): "7136b13a4c555d520ff7f3d9599eb16e43fbc84b2afa4a27f7bcb30bf4efd25c",
    ("knn-ratio", "text"): "ba9bb518e93da911724a26348ddfaf74aa7a4ac5a29ad53f1771d1f895351739",
    ("no-singletons", "csv"): "dbd03e51e3f48f1fc637e6439b96c237032831f40e0b6cc5fe9cae99e12f1e86",
    ("no-singletons", "json"): "ab60351d99359c5bd8c1f259ce3d4dbdc3e7ab476c8ff6f17635b0369119d7e0",
    ("no-singletons", "text"): "3df3f3c5c9b51ffeb8a0fec0d8640fc3a69055dfe355b05eb99b384f31156d31",
    ("pooled-epsilon-and-confidence", "csv"): "9c889017fb1aa964c20edfc3c5c9fee34de034db49d2720100273364a97b8162",
    ("pooled-epsilon-and-confidence", "json"): "989f7723aeb729030c4bfa4a519a4d80ac00a6e2ba5f5caeea6a893befe937e3",
    ("pooled-epsilon-and-confidence", "text"): "7f4bcba7631cbedbaae0b78862ad01809cb06e2031974ed595fa1368d66e9346",
    ("calibration-only", "csv"): "fae052ecbe713094b1052ba55fa8ed02ff8a77110b11ac17087dd6608d2d1928",
    ("calibration-only", "json"): "c08c83c3e38fa4433fac216d4554885442a06363e3cf2ce44d3b89dd48621734",
    ("calibration-only", "text"): "bb749f599d00ed80b16bbe4de2557d6d8f1b5971639b5de3132d0dcc88cb6744",
    ("integer-epsilons", "csv"): "f02ce2888982ec0f804c5d082f49a93c1ffcc5916b394dd3eb2c77ee8263c0e2",
    ("integer-epsilons", "json"): "8f95633b33e01846a175193615dc5c1cb9b5d2e84f1db03d1acc9e36adca311d",
    ("integer-epsilons", "text"): "cd915c39f32fe2f52a53b02cb4f2290f8b7b114fcffe07044c32e821c3d735ef",
}


@pytest.mark.parametrize("shape, fmt", sorted(PINNED_SHAPES))
def test_report_shape_bytes(capsys, tmp_path, shape, fmt):
    report = SHAPES[shape](capsys, tmp_path, fmt)
    assert hashlib.sha256(report).hexdigest() == PINNED_SHAPES[shape, fmt]
