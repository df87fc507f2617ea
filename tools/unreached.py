"""List the lines of src/bincp that the tier-1 tests never run.

Usage: PYTHONPATH=src python tools/unreached.py [PYTEST_ARG]...

Runs `pytest.main` in this process under `sys.settrace` and
`threading.settrace`.  The tracer follows only frames whose file lies under
src/bincp.  Afterwards each module is compiled, and every line that one of
its code objects (nested ones included) lists in `co_lines()` but that never
ran is printed as `path:line: source`.  It exits with pytest's status
when that is not 0, and otherwise with 1 when it printed any line, so the
census is a gate: every line of src/bincp is reached by some test.
`coverage` is not a dependency, and this is the line census it would give.

Lines reached only in child processes are not traced, such as the README
blocks that tests/test_readme.py runs in a child interpreter.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bincp"


def _executable(code: types.CodeType) -> set[int]:
    """The lines of `code` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _executable(const)
    return lines


def main(args: list[str]) -> int:
    hit: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            ours[filename] = Path(filename).resolve().is_relative_to(PACKAGE)
        if not ours[filename]:
            return None
        # A call starts at the code object's first line, which gets no line event.
        hit.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran: dict[Path, set[int]] = {}
    for filename, lines in hit.items():
        ran.setdefault(Path(filename).resolve(), set()).update(lines)
    listed = False
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        missed = _executable(compile(source, str(path), "exec")) - ran.get(path.resolve(), set())
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            listed = True
    return int(status) or int(listed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
