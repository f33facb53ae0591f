"""Layer spans recorded from outside the package.

The tracer wraps the public functions of each cumident module, and the
``numpy.linalg`` entry points the package calls, in every module namespace
that binds them.  A wrapped call records one span: its key ``layer.function``,
start, end, parent span and the round it ran in.  Spans stay in memory and
are reduced at the end of the run; a layer's self time is its span time minus
the part of that interval its child spans cover.

Counters are taken at the same call boundary from argument and result shapes,
so for a fixed input they repeat exactly.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

LAYER_MODULES = (
    "moments", "_pipeline", "identify", "inference", "overid", "varpipe",
    "simulate", "cli",
)
LINALG_FUNCTIONS = ("eig", "solve", "cond", "eigh", "lstsq")


def layer_name(module_name: str) -> str:
    """Metric prefix of a cumident module; ``_pipeline`` reports as ``pipeline``."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


@dataclass(slots=True)
class Span:
    span_id: int
    parent_id: int | None
    round_id: int
    key: str
    start_ns: int
    end_ns: int = 0


def covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus what its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start_ns, s.end_ns))
    return {
        s.span_id: (s.end_ns - s.start_ns) - covered_ns(children[s.span_id])
        for s in spans
    }


def _stack_size(a, trailing: int) -> int:
    """Number of stacked entries ahead of the trailing core axes."""
    return math.prod(a.shape[:-trailing])


def _count_label_signs(args, kwargs, result):
    rows = args[0]
    d = rows.shape[-1]
    b = _stack_size(rows, 2)
    return {
        "pipeline.label_signs.candidates": math.factorial(d) * b,
        "pipeline.label_signs.bytes_computed": math.factorial(d) * b * d * d * 8,
    }


def _count_label_by_signs(args, kwargs, result):
    # Beyond eight rows the package scores one greedy candidate.
    d = args[0].lambda_tilde.shape[0]
    return {"identify.label_by_signs.candidates":
            math.factorial(d) if d <= 8 else 1}


def _count_jackknife(args, kwargs, result):
    return {
        "inference.jackknife_resamples": result.estimates.shape[0],
        "inference.jackknife_label_flips": result.label_flips or 0,
        "inference.jackknife_gaps": result.gap_count,
    }


def _count_mc(args, kwargs, result):
    return {"simulate.failed_reps": int(result.failures.sum())}


def _count_cli(args, kwargs, result):
    argv = args[0]
    out = argv[argv.index("--out") + 1]
    written = sum(e.stat().st_size for e in os.scandir(out) if e.is_file())
    return {"cli.bytes_written": written}


# Counters taken when a traced function returns, keyed by the function's
# span key.  Each maps (args, kwargs, result) to increments of named counts.
COUNTERS: dict[str, Callable] = {
    "pipeline.label_signs": _count_label_signs,
    "pipeline.demix_rows": lambda a, k, r: {
        "pipeline.demix_rows.stack_entries": _stack_size(a[0], 1)},
    "pipeline.batched_jacobian": lambda a, k, r: {
        "pipeline.batched_jacobian.fd_points": 2 * a[1].shape[0]},
    "identify.label_by_signs": _count_label_by_signs,
    "moments.monomial_matrix": lambda a, k, r: {
        "moments.monomial_matrix.cells": r.size},
    "inference.demixing_jackknife": _count_jackknife,
    "simulate.run_mse_experiment": _count_mc,
    "simulate.run_coverage_experiment": _count_mc,
    "simulate.run_overid_power_experiment": _count_mc,
    "varpipe.load_series_csv": lambda a, k, r: {
        "varpipe.load_series_csv.bytes": os.path.getsize(a[0])},
    "varpipe.pairwise_overid": lambda a, k, r: {
        "varpipe.pairwise_overid.failed_pairs": len(r.failures)},
    "cli.main": _count_cli,
}


@dataclass
class Tracer:
    """Records spans and counters while its wrappers are installed."""

    clock: Callable[[], int] = time.perf_counter_ns
    spans: list[Span] = field(default_factory=list)
    counts: dict[int, Counter] = field(default_factory=lambda: defaultdict(Counter))
    round_id: int = 0
    _stack: list[Span] = field(default_factory=list)
    _patches: list[tuple[object, str, Callable]] = field(default_factory=list)
    _originals: list[Callable] = field(default_factory=list)

    def wrap(self, key: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].span_id if self._stack else None
            span = Span(len(self.spans), parent, self.round_id, key, self.clock())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = self.clock()
                self._stack.pop()
            if counter is not None:
                counts = self.counts[self.round_id]
                counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    def plan(self, package: str = "cumident") -> None:
        """Find every namespace binding of each traced function.

        A function imported into several modules (``from .identify import
        estimate_demixing``) gets one wrapper, installed in all of them, so
        each call records one span under the defining module's layer.
        """
        import numpy.linalg

        targets = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"{package}.{short}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    targets[id(obj)] = (obj, f"{layer_name(short)}.{name}")
        for name in LINALG_FUNCTIONS:
            obj = getattr(numpy.linalg, name)
            targets[id(obj)] = (obj, f"linalg.{name}")
        self.plan_targets(targets, [numpy.linalg] + [
            m for n, m in sys.modules.items()
            if m is not None and (n == package or n.startswith(package + "."))
        ])

    def plan_targets(self, targets: dict, namespaces) -> None:
        """Plan wrappers for {id(fn): (fn, key)} in the given namespaces."""
        wrappers = {i: self.wrap(key, fn) for i, (fn, key) in targets.items()}
        self._patches = [
            (ns, name, wrappers[id(obj)])
            for ns in namespaces
            for name, obj in list(vars(ns).items())
            if id(obj) in wrappers
        ]
        self._originals = [getattr(ns, name) for ns, name, _ in self._patches]

    def install(self) -> None:
        for ns, name, wrapper in self._patches:
            setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for (ns, name, _), original in zip(self._patches, self._originals):
            setattr(ns, name, original)

    def round_totals(self) -> dict[int, dict[str, float]]:
        """Per round: self ms and calls per function and layer, plus counters.

        Also gives ``trace.covered_ms``, the union of the round's top-level
        spans, for the coverage ratio.
        """
        selfs = self_times(self.spans)
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        top = defaultdict(list)
        for s in self.spans:
            layer = s.key.split(".", 1)[0]
            ms = selfs[s.span_id] / 1e6
            row = out[s.round_id]
            row[f"{s.key}.self_ms"] += ms
            row[f"{s.key}.calls"] += 1
            row[f"{layer}.self_ms"] += ms
            row[f"{layer}.calls"] += 1
            if s.parent_id is None:
                top[s.round_id].append((s.start_ns, s.end_ns))
        for round_id, intervals in top.items():
            out[round_id]["trace.covered_ms"] = covered_ns(intervals) / 1e6
        for round_id, counts in self.counts.items():
            for key, value in counts.items():
                out[round_id][key] += value
        return out
