"""Output bytes of whole CLI runs, pinned by sha256.

Each case runs the CLI on inputs generated from fixed seeds and hashes its
stdout and every file the run writes, inputs made by `bincp synth` included,
so a change to any byte of any output shows as a changed digest.
"""

import hashlib

import numpy as np
import pytest

from bincp.cli import main

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
