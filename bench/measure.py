"""Closed-loop measurement: one client runs operation after operation.

A round runs one operation of each kind of the workload, in a fixed order;
rounds repeat until the time is up.  Every operation is timed on its own,
its output is checked outside the timed region, and an exception it raises
is recorded with its reason instead of ending the run.
"""

from __future__ import annotations

import statistics
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

# Outcomes of one operation.  All but OK count as failed; ERROR and WRONG
# also make the run incorrect.  KNOWN_DEFECT: the call raised exactly the
# defect that its kind lists, so the failure is reported but expected.
OK, KNOWN_DEFECT, ERROR, WRONG = "ok", "known_defect", "error", "wrong"


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ten of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        # Rounded, so that 10 000 * (100 - 99.9) counts as 1000.
        if round(n * (100.0 - p), 6) >= MIN_BEYOND * 100:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values) -> dict:
    """Median, the tail percentile rule and the sample count."""
    out = {"median": statistics.median(values) if values else None,
           "samples": len(values)}
    p = tail_percentile(len(values))
    out["tail"] = None if p is None else {"p": p, "value": percentile(values, p)}
    return out


def error_reason(exc: BaseException) -> str:
    """Exception type, first message line and the innermost package frame."""
    where = ""
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        if "cumident" in Path(frame.filename).parts:
            where = f" at {Path(frame.filename).name}:{frame.lineno}"
            break
    message = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}{where}: {message}"


@dataclass
class OpKind:
    """One kind of operation in a workload.

    prepare(i) builds the inputs of the i-th operation (untimed), call(inputs)
    is the timed part, and check(i, inputs, result) returns a reason when the
    output is wrong.  known_defect is the error_reason() of the one exception
    the kind is known to raise; any other exception is an ERROR.  A kind with
    a known defect stays out of the gated metric.
    """

    name: str
    metric: str
    units: int
    call: Callable
    check: Callable
    prepare: Callable = lambda i: None
    known_defect: str | None = None

    @property
    def gated(self) -> bool:
        return self.known_defect is None


@dataclass
class KindStats:
    ms_per_unit: list[float] = field(default_factory=list)
    attempted: int = 0
    outcomes: Counter = field(default_factory=Counter)
    reasons: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes[OK]


@dataclass
class RunRecord:
    """Everything one measured loop observed."""

    kinds: dict[str, KindStats]
    rounds: int = 0
    op_ns: int = 0
    op_ns_by_round: dict[int, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(k.attempted for k in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(k.failed for k in self.kinds.values())

    @property
    def correct(self) -> bool:
        return not any(k.outcomes[ERROR] or k.outcomes[WRONG]
                       for k in self.kinds.values())


def run_op(kind: OpKind, i: int, stats: KindStats, scope=nullcontext,
           clock=time.perf_counter_ns) -> int:
    """Run, time and check the i-th operation of a kind; returns its ns.

    scope() is entered around the timed call alone, so a tracer it installs
    sees the operation and not the benchmark's own checks.
    """
    inputs = kind.prepare(i)
    stats.attempted += 1
    t0 = clock()
    try:
        with scope():
            result = kind.call(inputs)
    except Exception as exc:
        elapsed = clock() - t0
        reason = error_reason(exc)
        outcome = KNOWN_DEFECT if reason == kind.known_defect else ERROR
        stats.outcomes[outcome] += 1
        stats.reasons[f"{outcome}: {reason}"] += 1
        return elapsed
    elapsed = clock() - t0
    reason = kind.check(i, inputs, result)
    if reason is None:
        stats.outcomes[OK] += 1
        stats.ms_per_unit.append(elapsed / 1e6 / kind.units)
    else:
        stats.outcomes[WRONG] += 1
        stats.reasons[f"{WRONG}: {reason}"] += 1
    return elapsed


def run_loop(kinds: list[OpKind], seconds: float, scope_for_round=None,
             min_rounds: int = 1, clock=time.perf_counter_ns) -> RunRecord:
    """Run whole rounds until `seconds` have passed and min_rounds are done.

    scope_for_round(r) gives the scope of round r's calls, which lets the
    traced run switch tracing on for some rounds only.
    """
    record = RunRecord(kinds={k.name: KindStats() for k in kinds})
    deadline = clock() + int(seconds * 1e9)
    r = 0
    while r < min_rounds or clock() < deadline:
        scope = scope_for_round(r) if scope_for_round else nullcontext
        op_ns = sum(
            run_op(kind, r, record.kinds[kind.name], scope, clock)
            for kind in kinds
        )
        record.op_ns_by_round[r] = op_ns
        record.op_ns += op_ns
        r += 1
    record.rounds = r
    return record
