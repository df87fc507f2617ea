"""Time two bincp trees against each other in one process, call by call.

Usage: python tools/ab.py PARENT_SRC [--workload W]... [--pairs N] [--seed S]

PARENT_SRC is the `src` directory of the tree to compare against; this
tree's `src` is the change.  Both `bincp` packages are copied into one
temporary directory under two names (their imports are relative), and each
workload's inputs are written once by `perfbench/workloads.prepare`, which
runs on this tree's `bincp`.  A side's call is what `perfbench/worker.py`
times: `cli.main(argv)` for a batch workload, whose `run_s` is the call's
wall time; for `online_stream`, `run_online` over a bag and stream built
from the side's own `Label` and `TrainingBag`, whose `round_p50_ms` is the
median interval between stream pulls.

Each side makes one untimed call first.  Then come N pairs, the order
flipped each pair and `gc.collect()` before each call.  Per workload it
prints each side's median and quartiles, the change's median as a
percentage of the parent's, and in how many pairs the change was faster.
Both sides' output bytes are compared on every pair, and it exits 1 on any
difference; a call that fails or exits non-zero raises.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _load_side(name: str, src: Path, into: Path):
    """`src/bincp` imported as the package `ab_<name>`."""
    shutil.copytree(src / "bincp", into / f"ab_{name}",
                    ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(f"ab_{name}.cli")
    return importlib.import_module(f"ab_{name}")


def _batch_call(package, spec: dict) -> tuple[float, bytes]:
    """Time `cli.main(argv)`, which must exit 0; its output is its files' bytes."""
    outputs = [Path(path) for path in spec["outputs"].values()]
    for path in outputs:
        path.unlink(missing_ok=True)
    start = time.perf_counter()
    code = package.cli.main(spec["argv"])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return elapsed, b"\0".join(path.read_bytes() for path in outputs)


def _online_state(package, spec: dict) -> dict:
    """The bag and stream of `perfbench/worker.py`, of the side's own types."""
    inputs = np.load(spec["inputs"])
    label = package.core.Label
    points = [tuple(map(float, point)) for point in inputs["points"]]
    labels = [label.POSITIVE if p else label.NEGATIVE for p in inputs["is_pos"]]
    m = spec["initial"]
    bag = package.nonconformity.TrainingBag.from_pairs(zip(points[:m], labels[:m]))
    return {"bag": bag, "stream": list(zip(points[m:], labels[m:]))}


def _online_call(package, spec: dict, state: dict) -> tuple[float, bytes]:
    """The median interval between stream pulls in ms; the output is the trajectory."""
    stamps: list[float] = []

    def stream():
        for item in state["stream"]:
            stamps.append(time.perf_counter())
            yield item

    eps = package.core.SignificanceLevel(spec["epsilon"])
    rounds = package.online.run_online(state["bag"], stream(), eps, spec["k"])
    end = time.perf_counter()
    p50 = float(np.median(np.diff(stamps + [end]))) * 1e3
    trajectory = [(str(r.region), str(r.true_label), r.cumulative_error_rate) for r in rounds]
    return p50, json.dumps(trajectory).encode()


def _compare(name: str, calls: dict, pairs: int) -> tuple[str, bool]:
    """One workload's timed pairs; the report line and whether all outputs matched."""
    times = {side: [] for side in SIDES}
    for pair in range(pairs):
        outputs = {}
        for side in SIDES[:: 1 if pair % 2 == 0 else -1]:
            gc.collect()
            elapsed, outputs[side] = calls[side]()
            times[side].append(elapsed)
        if outputs["parent"] != outputs["change"]:
            return f"{name}: outputs differ on pair {pair + 1}", False
    metric = "round_p50_ms" if name == "online_stream" else "run_s"
    parent, change = (np.percentile(times[side], [50, 25, 75]) for side in SIDES)
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    line = (
        f"{name:14} {metric:13} parent {parent[0]:.4g} [{parent[1]:.4g}, {parent[2]:.4g}]"
        f"  change {change[0]:.4g} [{change[1]:.4g}, {change[2]:.4g}]"
        f"  {100 * (change[0] / parent[0] - 1):+.1f}%  change lower in {wins}/{pairs}"
    )
    return line, True


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    parser = argparse.ArgumentParser(prog="ab.py", description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the parent tree")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        packages = {
            side: _load_side(side, src, Path(tmp))
            for side, src in zip(SIDES, (args.parent_src, ROOT / "src"))
        }
        for name in args.workload or workloads.WORKLOADS:
            spec = workloads.prepare(name, args.seed, Path(tmp, "work", name)).spec
            if name == "online_stream":
                states = {side: _online_state(packages[side], spec) for side in SIDES}
                calls = {side: (lambda side=side: _online_call(
                    packages[side], spec, states[side])) for side in SIDES}
            else:
                calls = {side: (lambda side=side: _batch_call(packages[side], spec))
                         for side in SIDES}
            for side in SIDES:
                calls[side]()  # untimed
            line, same = _compare(name, calls, args.pairs)
            print(line, flush=True)
            ok &= same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
