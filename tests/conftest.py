import os
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bincp.core import NEGATIVE, POSITIVE, Dataset
from bincp.data import (
    SyntheticSpec,
    demo_test_path,
    figure1_path,
    generate_synthetic,
    load_dataset,
    write_dataset,
)
from bincp.icp import build_calibration_table
from bincp.pipeline import RunConfig
from bincp.report import regions_csv_chunks

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


def write_stream(tmp_path, n_per_class=12, seed=5):
    """A labelled two-feature file of 2 * `n_per_class` rows to stream on-line."""
    path = tmp_path / "stream.csv"
    write_dataset(
        generate_synthetic(
            SyntheticSpec(n_per_class=n_per_class, dim=2, separation=2.0, seed=seed)
        ),
        path,
    )
    return path
