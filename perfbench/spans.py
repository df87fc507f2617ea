"""Spans recorded from outside the program, around calls into each bincp module.

``instrument`` swaps the public functions for wrappers at the names their
callers look them up under (``bincp.cli.run_pipeline``,
``bincp.pipeline.load_dataset``, ...), and puts the originals back on exit.
Each wrapper records a span (name, start, end, parent) and, at the same call
boundary, the work counts of that call.  Spans stay in memory; ``summarize``
turns one traced iteration into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# Spans whose own time is glue between the layers below them.
GLUE = ("cli.main", "pipeline.run_pipeline")


@dataclass
class Tracer:
    """Spans of one iteration as [name, start, end, parent index] plus counts."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, key: str, value: float) -> None:
        self.counts[key] += value


def _load_counts(args, kwargs, result):
    return {"rows": len(result), "bytes": os.path.getsize(args[0])}


def _score_counts(args, kwargs, result):
    measure, bag, data = args[:3]
    pairs = len(data) * len(bag) if bag is not None else 0
    return {"rows": len(data), "pairs": pairs, "bytes_computed": 8 * pairs}


def _table_counts(args, kwargs, result):
    return {"rows": len(args[0])}


def _predict_counts(args, kwargs, result):
    return {"rows": len(args[1])}


def _evaluate_counts(args, kwargs, result):
    return {"rows": len(kwargs["regions"] if "regions" in kwargs else args[0])}


def _regions_counts(args, kwargs, result):
    return {"rows": max(result.count(b"\n") - 1, 0), "bytes": len(result)}


def _emit_counts(args, kwargs, result):
    return {"bytes": len(result)}


# (module whose global the caller reads, attribute, span name, counts)
FUNCTIONS = (
    ("bincp.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("bincp.cli", "emit_report", "pipeline.emit_report", _emit_counts),
    ("bincp.cli", "regions_csv", "pipeline.regions_csv", _regions_counts),
    ("bincp.pipeline", "load_dataset", "data.load_dataset", _load_counts),
    ("bincp.pipeline", "split_dataset", "icp.split_dataset", None),
    ("bincp.pipeline", "score_dataset", "nonconformity.score_dataset", _score_counts),
    ("bincp.pipeline", "build_calibration_table", "icp.build_calibration_table",
     _table_counts),
    ("bincp.pipeline", "calibration_report", "evaluate.calibration_report", None),
    ("bincp.pipeline", "predict_set", "icp.predict_set", _predict_counts),
    ("bincp.pipeline", "evaluate_predictions", "evaluate.evaluate_predictions",
     _evaluate_counts),
)
# Class methods are wrapped on the class itself, which every caller shares.
CLASS_METHODS = (
    ("bincp.nonconformity", "TrainingBag", "from_dataset",
     "nonconformity.TrainingBag.from_dataset"),
)


def _wrap(tracer: Tracer, func, name: str, counts):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = func(*args, **kwargs)
        tracer.count(name + ".calls", 1)
        if counts is not None:
            for key, value in counts(args, kwargs, result).items():
                tracer.count(f"{name}.{key}", value)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Route every traced bincp function through ``tracer`` while inside."""
    restore = []
    try:
        for module_name, attr, name, counts in FUNCTIONS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                print(f"trace: {module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            original = getattr(module, attr)
            setattr(module, attr, _wrap(tracer, original, name, counts))
            restore.append((module, attr, original))
        for module_name, cls_name, attr, name in CLASS_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__.get(attr)
            if not isinstance(original, classmethod):
                print(f"trace: {cls_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            cls_wrapper = _wrap(tracer, original.__func__, name, None)
            setattr(cls, attr, classmethod(cls_wrapper))
            restore.append((cls, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``<span>.s`` sums the span's calls; a glue span's ``self_s`` is its
    duration minus the time its child spans cover.  ``trace.coverage`` is the
    share of the iteration covered by the non-glue (leaf) layer spans.
    """
    metrics: dict[str, float] = defaultdict(float)
    children = defaultdict(list)
    for name, start, end, parent in tracer.spans:
        if parent is not None:
            children[parent].append((start, end))
    leaf = []
    for index, (name, start, end, parent) in enumerate(tracer.spans):
        metrics[name + ".s"] += end - start
        if name in GLUE:
            metrics[name + ".self_s"] += (end - start) - _covered(children[index])
        else:
            leaf.append((start, end))
    metrics.update(tracer.counts)
    metrics["trace.coverage"] = _covered(leaf) / run_s if run_s > 0 else 0.0
    return dict(metrics)
