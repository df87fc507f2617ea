import os
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bincp.core import NEGATIVE, POSITIVE, Dataset
from bincp.data import figure1_path, load_dataset, write_dataset
from bincp.icp import build_calibration_table

# Own-class probability columns of the bundled figure1.csv fixture, in row
# order (negative rows first, then positive rows).
FIGURE1_NEG = [0.002, 0.15, 0.23, 0.40, 0.48, 0.70, 0.75, 0.80, 0.95, 0.98]
FIGURE1_POS = [0.01, 0.08, 0.21, 0.36, 0.43, 0.51, 0.64, 0.72, 0.75, 0.80, 0.95]


@pytest.fixture(scope="session")
def figure1():
    return load_dataset(figure1_path(), positive_class="B")


@pytest.fixture(scope="session")
def figure1_table(figure1):
    return build_calibration_table(figure1, mondrian=True)


@pytest.fixture()
def figure1_a_rows(tmp_path):
    """A calibration file of figure1.csv's ten rows of class A alone."""
    lines = figure1_path().read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "figure1_a.csv"
    path.write_text(
        lines[0] + "".join(line for line in lines[1:] if line.split(",")[1] == "A"),
        encoding="utf-8",
    )
    return path


# A shell's process substitution, `<(cat file)`, hands a program such a path.
needs_dev_fd = pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")


@contextmanager
def piped(content: bytes):
    """A `/dev/fd/N` path that reads `content` from a pipe, once.

    The content must fit the pipe buffer (64 KB on Linux), so the write
    end is filled and closed before the path is read.
    """
    read, write = os.pipe()
    try:
        try:
            assert os.write(write, content) == len(content)
        finally:
            os.close(write)
        yield Path(f"/dev/fd/{read}")
    finally:
        os.close(read)


def write_votes_file(path: Path, n: int, seed: int, line_end: str = "\n") -> Path:
    """A scored file like the benchmark's: ids t000000 on, random labels and
    the vote fractions of a 100-tree forest, lines ending in `line_end`."""
    rng = np.random.default_rng(seed)
    votes = rng.integers(0, 101, n) / 100
    ids = [f"t{i:06d}" for i in range(n)]
    labels = rng.integers(NEGATIVE, POSITIVE + 1, n)
    scores = np.column_stack([votes, 1.0 - votes])
    write_dataset(Dataset.from_columns(ids, labels, None, scores, probability=True), path)
    if line_end != "\n":
        path.write_bytes(path.read_bytes().replace(b"\n", line_end.encode()))
    return path


def traced_peak(call) -> int:
    """The `tracemalloc` peak, in bytes, of `call()`: what it held at most at once."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
