"""Every ```python block of README.md runs as a script against src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(
    r"^```python\n(.*?)^```",
    (ROOT / "README.md").read_text(encoding="utf-8"),
    flags=re.MULTILINE | re.DOTALL,
)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", BLOCKS[index]],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
