"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload mc_tables --seed 1 --seconds 25 --trace 0

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
run in which every other round is traced.  The lines before it give each
operation kind's median, tail percentile, sample count and failure reasons.
The full result, with provenance and every sample, is written to
bench/out/results/.

The package is imported from src/ next to this directory and nowhere else;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import measure
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
IMPORT_REPEATS = 3
SETUP_REPEATS = 7
# The third-party modules cumident imports at this commit.  They are loaded
# before each timed import, so that the import part of setup_s is the
# package's own: loading numpy and scipy.stats takes 1 to 1.4 s and drifted
# by a third between sets of runs on a shared VM.  A dependency that a
# later change adds is not listed here, so it is timed with the package.
PRELOADED = ("numpy", "scipy.stats")
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("mc_tables", "inference_wide", "cli_io")

# End-to-end metrics, measured on every workload with tracing off.  The
# throughput `ops_per_s` is printed but not among them: with one client it
# is the inverse of the mean operation time, and this noisier twin of
# op_ms_p50 spread up to 0.22 over ten seeds on a shared 2-vCPU VM.
END_TO_END = {
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics of the traced run.  Layers that every workload calls
# report self time in ms; layers that some workload never calls report their
# self time as a share of operation time instead, so that no time metric is
# a constant 0.  Counts are per round (one operation of each kind).
PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in (
        "pipeline", "identify", "moments", "overid", "linalg")},
    **{f"{layer}.calls": "count" for layer in (
        "pipeline", "identify", "moments", "overid", "linalg", "inference",
        "simulate", "varpipe", "cli")},
    **{f"{layer}.self_share": "ratio" for layer in (
        "inference", "simulate", "varpipe", "cli")},
    "pipeline.label_signs.self_ms": "ms",
    "pipeline.label_signs.candidates": "count",
    "pipeline.label_signs.bytes_computed": "B",
    "pipeline.demix_rows.self_ms": "ms",
    "pipeline.demix_rows.stack_entries": "count",
    "pipeline.batched_jacobian.self_ms": "ms",
    "pipeline.batched_jacobian.fd_points": "count",
    "pipeline.leave_one_out_moments.self_ms": "ms",
    "linalg.eig.self_ms": "ms",
    "linalg.eig.calls": "count",
    "linalg.solve.self_ms": "ms",
    "linalg.eigh.self_ms": "ms",
    "linalg.cond.self_ms": "ms",
    "linalg.lstsq.self_share": "ratio",
    "overid.wald_test.calls": "count",
    "identify.label_by_signs.self_ms": "ms",
    "identify.label_by_signs.candidates": "count",
    "moments.contract_hessian.self_ms": "ms",
    "moments.monomial_matrix.self_ms": "ms",
    "moments.monomial_matrix.cells": "count",
    "moments.cumulants_from_moments.self_ms": "ms",
    "inference.jackknife_label_flips": "count",
    "inference.jackknife_gap_ratio": "ratio",
    "simulate.failed_reps": "count",
    "varpipe.load_series_csv.self_share": "ratio",
    "varpipe.load_series_csv.bytes": "B",
    "varpipe.fit_var.self_share": "ratio",
    "varpipe.pairwise_overid.failed_pairs": "count",
    "cli.bytes_written": "B",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Keep native thread pools within the CPUs this process may use."""
    limit = nproc()
    for var in THREAD_VARIABLES:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > limit:
            os.environ[var] = str(limit)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timed_import() -> float:
    """Seconds to import cumident.cli in a fresh interpreter, PRELOADED first."""
    code = (f"import sys, time; sys.path.insert(0, sys.argv[1]); "
            f"import {', '.join(PRELOADED)}; "
            "t = time.perf_counter(); import cumident.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


def provenance(args, cumident_threads) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "CUMIDENT_THREADS": cumident_threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def kind_report(record, kinds) -> dict:
    out = {}
    for kind in kinds:
        stats = record.kinds[kind.name]
        out[kind.name] = {
            "metric": kind.metric,
            "unit": "ms",
            **measure.summarize(stats.ms_per_unit),
            "attempted": stats.attempted,
            "failed": stats.failed,
            "failed_op_ratio": stats.failed / stats.attempted,
            "outcomes": dict(stats.outcomes),
            "reasons": dict(stats.reasons),
            "values": stats.ms_per_unit,
        }
    return out


def end_to_end(record, kinds, setup_s: float) -> dict:
    medians = [record.kinds[k.name].ms_per_unit for k in kinds if k.gated]
    return {
        "op_ms_p50": (sum(statistics.median(m) for m in medians)
                      if all(medians) else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def layer_metrics(tracer, record) -> tuple[dict, dict]:
    """Per-round layer metrics over the traced (odd) rounds.

    Returns the PER_LAYER metrics and, for the printed report, the median
    self ms and mean count per round of every key the tracer saw.
    """
    totals = tracer.round_totals()
    traced = [r for r in range(record.rounds) if r % 2 == 1]
    plain = [r for r in range(record.rounds) if r % 2 == 0]
    op_ms = {r: ns / 1e6 for r, ns in record.op_ns_by_round.items()}

    def per_round(key):
        return [totals.get(r, {}).get(key, 0.0) for r in traced]

    def share(key):
        return statistics.median(
            v / op_ms[r] for v, r in zip(per_round(key), traced))

    every = {
        key: (statistics.median if key.endswith("_ms") else statistics.mean)(
            per_round(key))
        for key in sorted({k for r in traced for k in totals.get(r, {})})
    }
    chosen = {}
    for name in PER_LAYER:
        if name.endswith(".self_share"):
            chosen[name] = share(name.removesuffix("_share") + "_ms")
        else:
            chosen[name] = every.get(name, 0.0)
    resamples = sum(per_round("inference.jackknife_resamples"))
    chosen["inference.jackknife_gap_ratio"] = (
        sum(per_round("inference.jackknife_gaps")) / resamples if resamples else 0.0)
    chosen["trace.coverage"] = share("trace.covered_ms")
    chosen["trace.overhead_ratio"] = (
        statistics.median(op_ms[r] for r in traced)
        / statistics.median(op_ms[r] for r in plain) - 1.0)
    return chosen, every


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  rounds {report['rounds']}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    setup = report["setup"]
    print(f"  setup: {', '.join(PRELOADED)} {setup['preload_s']:.4f} s, "
          f"cumident import median {statistics.median(setup['import_s']):.4f} s "
          f"of {len(setup['import_s'])}, generation and warm-up median "
          f"{statistics.median(setup['generate_and_warm_up_s']):.4f} s "
          f"of {len(setup['generate_and_warm_up_s'])}")
    for name, k in report["kinds"].items():
        tail = k["tail"]
        tail_text = "-" if tail is None else f"p{tail['p']:g} {tail['value']:.4f}"
        median = "null" if k["median"] is None else f"{k['median']:.4f}"
        print(f"  {k['metric']:<28} median {median} ms  tail {tail_text}  "
              f"samples {k['samples']}  attempted {k['attempted']}  "
              f"failed_op_ratio {k['failed_op_ratio']:.4f}")
        for reason, count in k["reasons"].items():
            print(f"      {count} x {reason}")
    print(f"  failed_op_ratio {report['failed_op_ratio']:.4f} "
          f"({report['failed']} of {report['attempted']})")
    print(f"  ops_per_s {report['ops_per_s']:.4f} 1/s "
          "(operations that succeeded / time in all operations)")
    units = {**END_TO_END, **PER_LAYER}
    for name, value in report["metrics"].items():
        print(f"  {name:<40} {value} {units[name]}")
    if "all_layers" in report:
        print("  every traced function, per traced round:")
        for name, value in report["all_layers"].items():
            print(f"    {name:<56} {value}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cumident" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'cumident'}",
              file=sys.stderr)
        return 2
    cap_threads()
    # The tables must run in this process: no replication worker pool.
    cumident_threads = os.environ.pop("CUMIDENT_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    for name in PRELOADED:
        importlib.import_module(name)
    preload_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    import cumident.cli  # noqa: F401  (the import is part of set-up)
    import_times = [time.perf_counter() - t0]
    import_times += [timed_import() for _ in range(IMPORT_REPEATS - 1)]

    import workloads

    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        repeats = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            repeats.append(time.perf_counter() - t0)
        setup_s = statistics.median(import_times) + statistics.median(repeats)

        if args.trace:
            tracer = spans.Tracer()
            tracer.plan()

            def scope_for_round(r):
                if r % 2 == 0:
                    return nullcontext

                @contextmanager
                def traced():
                    tracer.round_id = r
                    tracer.install()
                    try:
                        yield
                    finally:
                        tracer.uninstall()
                return traced

            record = measure.run_loop(workload.kinds, args.seconds,
                                      scope_for_round, min_rounds=2)
            metrics, every_layer = layer_metrics(tracer, record)
        else:
            record = measure.run_loop(workload.kinds, args.seconds)
            metrics = end_to_end(record, workload.kinds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": record.rounds,
        "provenance": provenance(args, cumident_threads),
        "setup": {"preload_s": preload_s, "import_s": import_times,
                  "generate_and_warm_up_s": repeats},
        "kinds": kind_report(record, workload.kinds),
        "attempted": record.attempted,
        "failed": record.failed,
        "failed_op_ratio": record.failed / record.attempted,
        "ops_per_s": (record.attempted - record.failed) / (record.op_ns / 1e9),
        "correct": record.correct,
        "metrics": metrics,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        report["all_layers"] = every_layer
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print_report(report)
    print(json.dumps({
        "correct": record.correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {
            name: {"value": value, "unit": {**END_TO_END, **PER_LAYER}[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
