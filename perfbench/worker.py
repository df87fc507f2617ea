"""Run one workload's timed iterations in a process of its own.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

The spec (written by run.py) names the CLI argv or the on-line inputs, the
seconds to measure and whether to trace.  Untraced iterations are timed
bare; with tracing on, iterations alternate untraced and traced so both
run_s figures come from the same process.  After each iteration its output
files are moved aside for run.py to check.  Peak RSS is this process's
``ru_maxrss``, so the inputs and oracles built by run.py do not count.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from spans import Tracer, instrument, summarize


def _batch_iteration(spec: dict, tracer: Tracer | None) -> dict:
    from bincp import cli

    for path in spec["outputs"].values():
        Path(path).unlink(missing_ok=True)
    error = None
    start = time.perf_counter()
    try:
        with (instrument(tracer) if tracer else nullcontext()), \
                (tracer.span("cli.main") if tracer else nullcontext()):
            code = cli.main(spec["argv"])
    except Exception as err:  # a crash is a failed iteration, not a failed run
        code, error = None, repr(err)
    run_s = time.perf_counter() - start
    if code != 0 and error is None:
        error = f"exit code {code}"
    return {"run_s": run_s, "error": error}


def _online_iteration(spec: dict, state: dict, tracer: Tracer | None) -> dict:
    import bincp
    from bincp.core import SignificanceLevel

    stamps: list[float] = []

    def stream():
        for item in state["stream"]:
            stamps.append(time.perf_counter())
            yield item

    error = None
    rounds = []
    eps = SignificanceLevel(spec["epsilon"])
    start = time.perf_counter()
    try:
        with tracer.span("online.run_online") if tracer else nullcontext():
            rounds = bincp.run_online(state["bag"], stream(), eps, spec["k"])
    except Exception as err:  # a crash is a failed iteration, not a failed run
        error = repr(err)
    end = time.perf_counter()
    result = {"run_s": end - start, "error": error}
    if stamps:
        result["init_s"] = stamps[0] - start
        result["round_ms"] = (np.diff(stamps + [end]) * 1e3).tolist()
        result["bag_final"] = len(state["bag"]) + len(rounds)
    Path(spec["outputs"]["trajectory"]).write_text(json.dumps({
        "regions": [str(r.region) for r in rounds],
        "true_labels": [str(r.true_label) for r in rounds],
        "cumulative_error_rate": [r.cumulative_error_rate for r in rounds],
    }))
    return result


def _online_state(spec: dict) -> dict:
    from bincp.core import Label
    from bincp.nonconformity import TrainingBag

    inputs = np.load(spec["inputs"])
    points, is_pos = inputs["points"], inputs["is_pos"]
    m = spec["initial"]
    labels = [Label.POSITIVE if p else Label.NEGATIVE for p in is_pos]
    bag = TrainingBag.from_pairs(
        (tuple(map(float, points[i])), labels[i]) for i in range(m))
    stream = [(tuple(map(float, points[i])), labels[i]) for i in range(m, len(points))]
    return {"bag": bag, "stream": stream}


def run(spec: dict) -> dict:
    online = spec["kind"] == "online"
    state = _online_state(spec) if online else None
    keep = Path(spec["keep_dir"])
    deadline = time.perf_counter() + spec["seconds"]
    iterations = []
    while True:
        traced = spec["trace"] and len(iterations) % 2 == 1
        tracer = Tracer() if traced else None
        if online:
            record = _online_iteration(spec, state, tracer)
        else:
            record = _batch_iteration(spec, tracer)
        record["traced"] = traced
        if traced:
            record["layers"] = summarize(tracer, record["run_s"])
        outputs = {}
        for name, path in spec["outputs"].items():
            kept = keep / f"{len(iterations)}.{name}"
            if Path(path).exists():
                os.replace(path, kept)
                outputs[name] = str(kept)
        record["outputs"] = outputs
        iterations.append(record)
        enough = len(iterations) >= (2 if spec["trace"] else 1)
        if enough and time.perf_counter() >= deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"iterations": iterations, "peak_rss_mb": peak_kb / 1024.0}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    Path(argv[1]).write_text(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
