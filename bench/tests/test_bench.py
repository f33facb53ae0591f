"""Tests of the benchmark itself: span arithmetic, the tail rule, failure
accounting, and that every metric and workload is declared and printed.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import measure
import run
from spans import Span, Tracer, covered_ns, self_times

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent

KIND_METRICS = {
    "mc_tables": ["mc.table1_ms_per_rep", "mc.table2_ms_per_rep",
                  "mc.table3_ms_per_rep"],
    "inference_wide": ["inference.ms_p50"],
    "cli_io": ["cli.var_ms_p50", "cli.estimate_ms_p50", "cli.test_ms_p50",
               "cli.estimate_order4_ms_p50"],
}
COMMON_END_TO_END = ["setup_s", "peak_rss_mb", "ops_per_s", "failed_op_ratio"]
LAYERS = ["moments", "pipeline", "identify", "inference", "overid", "varpipe",
          "simulate", "cli", "linalg"]
LAYER_METRICS = [
    "pipeline.label_signs.self_ms", "pipeline.label_signs.candidates",
    "pipeline.label_signs.bytes_computed", "pipeline.demix_rows.self_ms",
    "pipeline.demix_rows.stack_entries", "linalg.eig.self_ms",
    "linalg.eig.calls", "linalg.solve.self_ms",
    "pipeline.batched_jacobian.self_ms", "pipeline.batched_jacobian.fd_points",
    "overid.self_ms", "overid.wald_test.calls", "linalg.eigh.self_ms",
    "linalg.cond.self_ms", "identify.self_ms",
    "identify.label_by_signs.self_ms", "identify.label_by_signs.candidates",
    "moments.contract_hessian.self_ms", "moments.monomial_matrix.self_ms",
    "moments.monomial_matrix.cells", "moments.cumulants_from_moments.self_ms",
    "pipeline.leave_one_out_moments.self_ms", "inference.self_ms",
    "inference.jackknife_label_flips", "inference.jackknife_gap_ratio",
    "simulate.self_ms", "simulate.failed_reps",
    "varpipe.load_series_csv.self_ms", "varpipe.load_series_csv.bytes",
    "varpipe.fit_var.self_ms", "linalg.lstsq.self_ms",
    "varpipe.pairwise_overid.failed_pairs", "cli.self_ms", "cli.bytes_written",
    "trace.overhead_ratio", "trace.coverage",
    *(f"{layer}.{what}" for layer in LAYERS for what in ("self_ms", "calls")),
]


# ------------------------------------------------------------- span times

def test_self_time_is_span_minus_children():
    spans = [
        Span(0, None, 0, "a.outer", 0, 100),
        Span(1, 0, 0, "b.first", 10, 30),
        Span(2, 0, 0, "b.second", 40, 70),
        Span(3, 2, 0, "c.inner", 45, 50),
    ]
    assert self_times(spans) == {0: 50, 1: 20, 2: 25, 3: 5}


def test_children_that_overlap_are_covered_once():
    assert covered_ns([(10, 50), (30, 60), (70, 80)]) == 60
    spans = [Span(0, None, 0, "a.f", 0, 100),
             Span(1, 0, 0, "b.g", 10, 50), Span(2, 0, 0, "b.h", 30, 60)]
    assert self_times(spans)[0] == 50


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def _namespaces(clock):
    """Two module namespaces; `inner` is bound in both."""
    def inner():
        clock.advance(7)
        return "inner"

    layer_a = types.ModuleType("layer_a")
    layer_b = types.ModuleType("layer_b")
    layer_b.inner = inner
    layer_a.inner = inner

    def middle():
        clock.advance(3)
        layer_b.inner()      # the binding in another module's namespace
        clock.advance(2)
        return layer_a.inner()

    def outer():
        clock.advance(1)
        result = layer_a.middle()
        clock.advance(4)
        return result

    layer_a.middle = middle
    layer_a.outer = outer
    targets = {id(f): (f, f"{key}") for f, key in (
        (inner, "b.inner"), (middle, "a.middle"), (outer, "a.outer"))}
    return layer_a, layer_b, targets


def test_nested_wrappers_and_a_function_bound_twice():
    clock = FakeClock()
    layer_a, layer_b, targets = _namespaces(clock)
    original_inner = layer_b.inner
    tracer = Tracer(clock=clock)
    tracer.plan_targets(targets, [layer_a, layer_b])
    tracer.install()
    assert layer_a.inner is layer_b.inner is not original_inner
    assert layer_a.outer() == "inner"
    tracer.uninstall()
    assert layer_a.inner is layer_b.inner is original_inner

    assert [s.key for s in tracer.spans] == [
        "a.outer", "a.middle", "b.inner", "b.inner"]
    totals = tracer.round_totals()[0]
    assert totals["a.outer.self_ms"] * 1e6 == pytest.approx(5)
    assert totals["a.middle.self_ms"] * 1e6 == pytest.approx(5)
    assert totals["b.inner.self_ms"] * 1e6 == pytest.approx(14)
    assert totals["b.inner.calls"] == 2
    assert totals["a.self_ms"] * 1e6 == pytest.approx(10)
    assert totals["a.calls"] == 2
    assert totals["trace.covered_ms"] * 1e6 == pytest.approx(24)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()

    def boom():
        clock.advance(9)
        raise ValueError("no")

    ns = types.ModuleType("ns")
    ns.boom = boom
    tracer = Tracer(clock=clock)
    tracer.plan_targets({id(boom): (boom, "x.boom")}, [ns])
    tracer.install()
    with pytest.raises(ValueError):
        ns.boom()
    tracer.uninstall()
    assert tracer.spans[0].end_ns == 9
    assert tracer._stack == []


# ------------------------------------------------------------ tail rule

@pytest.mark.parametrize("n, p", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert measure.tail_percentile(n) == p
    if p is not None:
        assert round(n * (100 - p), 6) >= 1000


def test_summary_reports_median_tail_and_count():
    values = list(range(1, 41))
    summary = measure.summarize(values)
    assert summary["median"] == 20.5
    assert summary["samples"] == 40
    assert summary["tail"] == {"p": 75.0, "value": pytest.approx(30.25)}


# ------------------------------------------------------ failure accounting

def _raise(exc):
    raise exc


def test_raising_and_wrong_operations_are_counted_and_the_run_goes_on():
    kinds = [
        measure.OpKind("fine", "k.fine", 2, call=lambda _: 1,
                       check=lambda i, _, r: None),
        measure.OpKind("crash", "k.crash", 1,
                       call=lambda _: _raise(ValueError("bad input\nmore")),
                       check=lambda i, _, r: None),
        measure.OpKind("defect", "k.defect", 1,
                       call=lambda _: _raise(TypeError("known")),
                       check=lambda i, _, r: None,
                       known_defect="TypeError: known"),
        measure.OpKind("wrong", "k.wrong", 1, call=lambda _: -1,
                       check=lambda i, _, r: "negative" if r < 0 else None),
    ]
    record = measure.run_loop(kinds, seconds=0.0, min_rounds=3)
    assert record.rounds == 3
    assert record.attempted == 12
    assert record.failed == 9
    assert not record.correct
    assert len(record.kinds["fine"].ms_per_unit) == 3
    assert record.kinds["crash"].reasons == {"error: ValueError: bad input": 3}
    assert record.kinds["defect"].outcomes == {measure.KNOWN_DEFECT: 3}
    assert record.kinds["wrong"].reasons == {"wrong: negative": 3}


def test_known_defects_alone_keep_the_run_correct():
    kinds = [measure.OpKind("defect", "k.defect", 1,
                            call=lambda _: _raise(TypeError("known")),
                            check=lambda i, _, r: None,
                            known_defect="TypeError: known")]
    record = measure.run_loop(kinds, seconds=0.0)
    assert record.failed == record.attempted == 1
    assert record.correct


def test_an_exception_of_the_defect_type_from_elsewhere_is_an_error():
    kinds = [measure.OpKind("defect", "k.defect", 1,
                            call=lambda _: _raise(TypeError("other")),
                            check=lambda i, _, r: None,
                            known_defect="TypeError: known")]
    record = measure.run_loop(kinds, seconds=0.0)
    assert record.kinds["defect"].reasons == {"error: TypeError: other": 1}
    assert not record.correct


def test_table2_typeerror_raised_elsewhere_makes_the_run_incorrect(
        monkeypatch, tmp_path):
    import workloads
    from cumident import _pipeline

    def broken(*args, **kwargs):
        raise TypeError("a new defect")

    monkeypatch.setattr(_pipeline, "batched_jacobian", broken)
    mc = workloads.McTables(seed=3, work=tmp_path)
    table2 = next(k for k in mc.kinds if k.name == "table2")
    record = measure.run_loop([table2], seconds=0.0)
    (reason,) = record.kinds["table2"].reasons
    assert reason.startswith("error: TypeError at simulate.py:")
    assert not record.correct


def test_only_kinds_without_a_known_defect_are_gated(tmp_path):
    import workloads

    mc = workloads.McTables(seed=3, work=tmp_path)
    assert {k.name: k.gated for k in mc.kinds} == {
        f"table{t}": t not in workloads.MC_KNOWN_DEFECTS for t in (1, 2, 3)}


# ----------------------------------------------- declared and printed names

def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_the_workloads_and_metrics():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def outputs():
    out = {}
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = proc.stdout
    return out


def test_every_end_to_end_metric_is_printed(outputs):
    for workload, names in KIND_METRICS.items():
        text = outputs[workload, 0]
        for name in names + COMMON_END_TO_END + list(run.END_TO_END):
            assert name in text, (workload, name)
        result = json.loads(text.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == set(run.END_TO_END)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == run.END_TO_END[name]
            assert metric["value"] > 0, (workload, name)


def test_every_per_layer_metric_is_printed(outputs):
    traced = "".join(outputs[w, 1] for w in run.WORKLOAD_NAMES)
    for name in LAYER_METRICS:
        assert name in traced, name
    for workload in run.WORKLOAD_NAMES:
        result = json.loads(outputs[workload, 1].strip().splitlines()[-1])
        assert set(result["metrics"]) == set(run.PER_LAYER)


def test_table2_is_reported_as_its_known_defect(outputs):
    text = outputs["mc_tables", 0]
    assert re.search(r"mc\.table2_ms_per_rep\s+median null", text)
    import workloads

    assert f"known_defect: {workloads.MC_KNOWN_DEFECTS[2]}" in text


def test_without_the_package_the_run_fails_and_prints_nothing():
    bare = BENCH_DIR / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run("cli_io", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
