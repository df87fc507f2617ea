"""Self-test of the benchmark at a tiny size.

Usage (from the root of a source checkout):

    python3 perfbench/selftest.py

For every workload it runs one real iteration and requires the output checks
to pass, then plants faults in copies of the outputs (one region flipped,
one p-value nudged, one report figure or the on-line error rate changed) and
requires every one to be caught, so ``error_rate`` cannot be vacuously 0.
It also runs one traced iteration per workload and compares the metric
names in BENCHMARK.json with the ones run.py prints.  Exits 1 on any miss.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 20201  # any seed; the checks must pass on all of them


def _edit_csv(data: bytes, row: int, column: str, edit) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    col = rows[0].index(column)
    rows[row + 1][col] = edit(rows[row + 1][col])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode("utf-8")


def _flip_region(region: str) -> str:
    return "empty" if region == "both" else "both"


def _nudge(p: str) -> str:
    return repr(float(p) + 0.05)


def _report_fault(data: bytes) -> bytes:
    document = json.loads(data)
    document["results"][0]["validity"] += 0.01
    return json.dumps(document).encode("utf-8")


def _online_flip(data: bytes, index: int) -> bytes:
    out = json.loads(data)
    out["regions"][index] = _flip_region(out["regions"][index])
    return json.dumps(out).encode("utf-8")


def _online_errors(data: bytes, checked: set[int]) -> bytes:
    """Empty regions everywhere but the oracle rounds, with a consistent error column."""
    out = json.loads(data)
    errors = 0
    for i, truth in enumerate(out["true_labels"]):
        if i not in checked:
            out["regions"][i] = "empty"
        errors += out["regions"][i] not in ("both", truth)
        out["cumulative_error_rate"][i] = errors / (i + 1)
    return json.dumps(out).encode("utf-8")


def faults(prepared, outputs: dict[str, bytes]) -> dict[str, dict[str, bytes]]:
    if prepared.name == "online_stream":
        checked = prepared.oracle["checked"]
        first = min(checked)
        return {
            f"round {first + 1} region flipped":
                {"trajectory": _online_flip(outputs["trajectory"], first)},
            "error rate above epsilon":
                {"trajectory": _online_errors(outputs["trajectory"], set(checked))},
        }
    regions = outputs["regions"]
    planted = {
        "region flipped": dict(outputs, regions=_edit_csv(regions, 3, "region", _flip_region)),
        "p_pos nudged": dict(outputs, regions=_edit_csv(regions, 5, "p_pos", _nudge)),
        "p_neg nudged": dict(outputs, regions=_edit_csv(regions, 7, "p_neg", _nudge)),
    }
    if "report" in outputs:
        planted["report validity changed"] = dict(
            outputs, report=_report_fault(outputs["report"]))
    return planted


def _one_run(prepared, keep: Path, trace: bool) -> dict:
    spec = dict(prepared.spec, seconds=0, trace=trace, keep_dir=str(keep))
    keep.mkdir(parents=True, exist_ok=True)
    return worker.run(spec)


def check_workload(name: str, base: Path) -> list[str]:
    misses = []
    prepared = workloads.prepare(name, SEED, base / "inputs", workloads.TINY)
    record = _one_run(prepared, base / "plain", trace=False)["iterations"][0]
    if record["error"]:
        return [f"{name}: iteration failed: {record['error']}"]
    outputs = {n: Path(p).read_bytes() for n, p in record["outputs"].items()}
    problems = workloads.check(prepared, outputs)
    if problems:
        misses.append(f"{name}: correct output rejected: {problems[:3]}")
    for fault, planted in faults(prepared, outputs).items():
        if not workloads.check(prepared, planted):
            misses.append(f"{name}: planted fault not caught: {fault}")
        else:
            print(f"  {name}: caught {fault}")

    traced = _one_run(prepared, base / "traced", trace=True)["iterations"]
    layers = traced[1]["layers"]
    wanted = ("online.run_online.s" if name == "online_stream"
              else "pipeline.run_pipeline.self_s")
    if wanted not in layers:
        misses.append(f"{name}: traced iteration recorded no {wanted}")
    if name != "online_stream" and layers.get("data.load_dataset.calls", 0) < 2:
        misses.append(f"{name}: load_dataset calls not traced")
    return misses


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    misses = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        misses.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != list(printed):
            misses.append(f"BENCHMARK.json {key} differs from run.py")
    return misses


def main() -> int:
    base = Path.cwd() / ".perfbench_work" / f"selftest-{os.getpid()}"
    misses = check_benchmark_json()
    try:
        for name in workloads.WORKLOADS:
            misses += check_workload(name, base / name)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass
    for miss in misses:
        print("FAIL " + miss)
    print("selftest " + ("failed" if misses else "passed"))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
