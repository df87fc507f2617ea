"""bincp benchmark: one workload, one seed, measured for a fixed time.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload scored_batch --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed`` under ``.perfbench_work/`` and removed
at the end.  The timed iterations run in a worker process of their own
(perfbench/worker.py) with the BLAS thread count pinned.  Every iteration's
outputs are checked against independent oracles (perfbench/workloads.py).
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics from spans recorded around
calls into each module (perfbench/spans.py).  The line before it records
the environment.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, here and in every child process.
BLAS_THREADS = str(min(len(os.sched_getaffinity(0)), 2))
BLAS_ENV = {name: BLAS_THREADS for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

IMPORT_PROBES = 5
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_p50_ms", "ms"),
)

PER_LAYER = (
    ("data.load_dataset.s", "s"),
    ("data.load_dataset.calls", "count"),
    ("data.load_dataset.rows", "count"),
    ("data.load_dataset.bytes", "B"),
    ("icp.split_dataset.s", "s"),
    ("nonconformity.TrainingBag.from_dataset.s", "s"),
    ("nonconformity.score_dataset.s", "s"),
    ("nonconformity.score_dataset.rows", "count"),
    ("nonconformity.score_dataset.pairs", "count"),
    ("nonconformity.score_dataset.bytes_computed", "B"),
    ("icp.build_calibration_table.s", "s"),
    ("icp.build_calibration_table.rows", "count"),
    ("evaluate.calibration_report.s", "s"),
    ("icp.predict_set.s", "s"),
    ("icp.predict_set.calls", "count"),
    ("icp.predict_set.rows", "count"),
    ("evaluate.evaluate_predictions.s", "s"),
    ("evaluate.evaluate_predictions.calls", "count"),
    ("evaluate.evaluate_predictions.rows", "count"),
    ("pipeline.regions_csv.s", "s"),
    ("pipeline.regions_csv.rows", "count"),
    ("pipeline.regions_csv.bytes", "B"),
    ("pipeline.emit_report.s", "s"),
    ("pipeline.emit_report.bytes", "B"),
    ("pipeline.run_pipeline.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("online.init_s", "s"),
    ("online.round.p99_ms", "ms"),
    ("online.round.first_p50_ms", "ms"),
    ("online.round.last_p50_ms", "ms"),
    ("online.rounds", "count"),
    ("online.bag_final", "count"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("error_rate", "ratio"),
)


def child_env() -> dict[str, str]:
    # A fixed string-hash seed removes one source of run-to-run variation.
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds(env: dict[str, str]) -> list[float]:
    """Fresh-interpreter ``import bincp.cli`` times, after one untimed warm-up."""
    code = ("import time; t = time.perf_counter(); import bincp.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for probe in range(IMPORT_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if probe:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS),
            "seed": seed}


def _digest(paths: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(paths):
        h.update(name.encode())
        h.update(Path(paths[name]).read_bytes())
    return h.hexdigest()


def verify(prepared, iterations: list[dict]) -> int:
    """Mark each iteration ok or not; return the number that failed.

    An iteration fails if it raised or exited non-zero, if its outputs fail
    the workload's oracle, or if its bytes differ from the first iteration's
    (every workload here is deterministic for a fixed input).
    """
    from workloads import check

    verdicts: dict[str, list[str]] = {}
    first = None
    failed = 0
    for i, record in enumerate(iterations):
        problems = [record["error"]] if record["error"] else []
        if not problems:
            if set(record["outputs"]) != set(prepared.spec["outputs"]):
                problems = [f"missing outputs: {sorted(record['outputs'])}"]
            else:
                digest = _digest(record["outputs"])
                if digest not in verdicts:
                    outputs = {n: Path(p).read_bytes() for n, p in record["outputs"].items()}
                    verdicts[digest] = check(prepared, outputs)
                problems = list(verdicts[digest])
                first = first or digest
                if digest != first:
                    problems.append("output bytes differ from the first iteration")
        record["ok"] = not problems
        if problems:
            failed += 1
            print(f"iteration {i} failed: " + "; ".join(problems[:5]), file=sys.stderr)
    return failed


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(prepared, iterations, import_s, peak_rss_mb) -> dict[str, float]:
    plain = [r for r in iterations if not r["traced"]]
    run_s = _median(r["run_s"] for r in plain)
    setup_s = _median(import_s)
    if prepared.spec["kind"] == "online":
        setup_s += _median(r["init_s"] for r in plain if "init_s" in r)
        round_ms = _median(t for r in plain for t in r.get("round_ms", ()))
    else:
        round_ms = 1e3 * run_s / prepared.test_rows
    return {"run_s": run_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
            "round_p50_ms": round_ms}


def per_layer(iterations, failed: int) -> dict[str, float]:
    import numpy as np

    traced = [r for r in iterations if r["traced"]]
    plain = [r for r in iterations if not r["traced"]]
    metrics = {name: _median(r["layers"].get(name, 0.0) for r in traced)
               for name, _ in PER_LAYER}
    rounds = [r["round_ms"] for r in traced if r.get("round_ms")]
    if rounds:
        tenth = [max(1, len(ms) // 10) for ms in rounds]
        metrics.update({
            "online.init_s": _median(r["init_s"] for r in traced),
            "online.round.p99_ms": float(np.percentile(np.concatenate(rounds), 99)),
            "online.round.first_p50_ms": _median(
                t for ms, n in zip(rounds, tenth) for t in ms[:n]),
            "online.round.last_p50_ms": _median(
                t for ms, n in zip(rounds, tenth) for t in ms[-n:]),
            "online.rounds": _median(len(ms) for ms in rounds),
            "online.bag_final": _median(r["bag_final"] for r in traced),
        })
    metrics["trace.run_s"] = _median(r["run_s"] for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - _median(r["run_s"] for r in plain)
    metrics["error_rate"] = failed / len(iterations)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bincp" / "__init__.py").is_file():
        print(f"error: no bincp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    work = Path.cwd() / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        prepared = workloads.prepare(args.workload, args.seed, work / "inputs")
        env = child_env()
        import_s = import_seconds(env)
        keep = work / "kept"
        keep.mkdir(parents=True)
        spec = dict(prepared.spec, seconds=args.seconds, trace=bool(args.trace),
                    keep_dir=str(keep))
        (work / "spec.json").write_text(json.dumps(spec))
        limit = RUN_LIMIT_S - (time.perf_counter() - started)
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json"),
             str(work / "result.json")],
            env=env, cwd=Path.cwd(), timeout=limit, check=True)
        result = json.loads((work / "result.json").read_text())
        iterations = result["iterations"]
        failed = verify(prepared, iterations)
        print("iterations run_s: " + " ".join(
            f"{r['run_s']:.4f}{'t' if r['traced'] else ''}" for r in iterations),
            file=sys.stderr)
        if args.trace:
            values = per_layer(iterations, failed)
            units = dict(PER_LAYER)
        else:
            values = end_to_end(prepared, iterations, import_s, result["peak_rss_mb"])
            units = dict(END_TO_END)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(json.dumps({"environment": environment(args.seed)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
