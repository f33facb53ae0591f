"""Snapshot the package's outputs, or compare two snapshots.

    python3 tools/snapshot.py --root CHECKOUT --out SNAPSHOT.json
    python3 tools/snapshot.py --compare BEFORE.json AFTER.json

A snapshot runs the package in CHECKOUT/src (default: this repository) and
records, in SNAPSHOT.json, with the numbers of each inference,
several-samples and VAR item in SNAPSHOT.npz beside it:

- Tables 1-3 on each of the benchmark's pool blocks, as the `mc_tables`
  workload calls them (read from CHECKOUT/bench/workloads.py): values,
  failure counts and failure reasons, and their SHA-256;
- the order-3 inference group on fixed skewed samples at d = 2, 3, 5 and 8,
  raw and shifted by 1e3: the estimate and its sign labeling, the
  jackknife and delta variances (unlabeled, labeled and by entry) and both
  Wald tests, each as one SHA-256.  The samples at d = 2, n = 20 000 and
  d = 3, n = 8 000 make delete-1 stacks of three chunks each, and the
  delete-1 stack at d = 8 has resamples that the pencil kernel hands to
  LAPACK;
- the jackknife of an F-ordered copy of the composite sample (n = 200,
  k = 0.2, seed 21), with no moment record held and after a Wald test on
  the C-ordered sample;
- the several-samples group: `overid._wald_stack` of the four d = 3
  samples of `tests/_designs.stacked_wald_samples` (n = 60, 400, 64 and
  1 500; the 64-row sample's estimate has a gap flag) in one call, by each
  method, as one SHA-256 each;
- the VAR group on the `cli_io` VAR series and on the near-unit-root design
  of tests/_designs.py: `fit_var` (coefficients, intercept and residuals),
  `partial_out` of the other columns on the first, and the Wald statistic
  T and p-value of each `pairwise_overid` pair (and the message of each
  failed pair), each as one SHA-256;
- the SHA-256 of every CSV that the four `cli_io` commands write.

--compare reports what differs.  A table block passes under the benchmark's
reference rules (MSE cells to a relative 1e-6, rate cells within one
decision, failure counts exact); every other item must be bit-equal.  For
an inference, several-samples or VAR item that differs, it prints from the
two .npz files the change of each float field, relative to that field's
largest magnitude, and the other fields (counts and flags) that differ.
The exit status is 1 when anything fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

REPO = Path(__file__).resolve().parent.parent
# (d, n, sample seed, probe seed) of the inference group.
INFERENCE_CASES = ((2, 3_000, 61, 3), (3, 3_000, 62, 5), (5, 3_000, 63, 7),
                   (2, 20_000, 64, 3), (3, 8_000, 65, 5), (8, 3_000, 66, 5))
SHIFT = 1e3
CLI_SEED = 3
# (T, lag order, seed) of the near-unit-root VAR.
NEAR_UNIT_ROOT = (20_000, 2, 24)


class Pairwise(NamedTuple):
    """The Wald statistic T and p-value of each tested pair, and the message
    of each failed pair."""

    statistic: np.ndarray
    p_value: np.ndarray
    failures: list


def _load(root: Path):
    """The package and the benchmark's workloads module of a checkout."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import cumident
    import workloads
    return cumident, workloads


def _leaves(obj, path: str = ""):
    """(path, leaf) of each array, number or other value nested in a result,
    with dataclass fields and named tuple fields named by their field."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
        for name, item in zip(obj._fields, obj):
            yield from _leaves(item, f"{path}.{name}")
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _digest(*objects) -> str:
    """SHA-256 of the bits of arrays and numbers, nested in results."""
    h = hashlib.sha256()
    for _, leaf in _leaves(objects):
        if isinstance(leaf, (np.ndarray, np.generic, float)):
            a = np.asarray(leaf)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        else:
            h.update(repr(leaf).encode())
    return h.hexdigest()


def _numbers(name: str, result) -> dict:
    """The numeric leaves of one inference or VAR item, keyed `name|path` for the
    .npz file."""
    return {f"{name}|{path}": np.asarray(leaf) for path, leaf in _leaves(result)
            if isinstance(leaf, (np.ndarray, np.generic, int, float))}


def _tables(workloads) -> dict:
    out = {}
    for table in (1, 2, 3):
        blocks = []
        for block in range(workloads.MC_POOL):
            res = workloads.mc_call(table, block, workloads.MC_REPS[table])
            reasons = {k: v.tolist() for k, v in res.failure_reasons.items()}
            blocks.append({
                "values": res.values.tolist(),
                "failures": res.failures.tolist(),
                "reasons": reasons,
                "sha256": _digest(res.values, res.failures,
                                  *(res.failure_reasons[k] for k in sorted(reasons))),
            })
        out[str(table)] = blocks
    return out


def _inference_sample(d: int, n: int, seed: int):
    """Skewed independent shocks mixed by I plus +-0.3 off the diagonal;
    the sign pattern of that structural matrix labels the rows."""
    off = np.random.default_rng(seed).choice([-0.3, 0.3], (d, d))
    lam = np.eye(d) + off * (1.0 - np.eye(d))
    shocks = np.random.default_rng([seed, 1]).standard_exponential((n, d))
    return shocks @ np.linalg.inv(lam).T, np.sign(lam).astype(int)


def _inference(ci) -> tuple[dict, dict]:
    """The digest of each inference item, and its numbers."""
    out, numbers = {}, {}
    for d, n, seed, probe_seed in INFERENCE_CASES:
        x, pattern = _inference_sample(d, n, seed)
        probes = ci.ProbeVectors.draw(d, probe_seed)
        for shift in (0.0, SHIFT):
            y = x + shift
            calls = {
                "estimate_demixing": lambda: ci.estimate_demixing(y, probes),
                "label_by_signs": lambda: ci.label_by_signs(
                    ci.estimate_demixing(y, probes), pattern),
                "demixing_jackknife": lambda: ci.demixing_jackknife(y, probes),
                "demixing_jackknife labeled": lambda: ci.demixing_jackknife(
                    y, probes, pattern, entry=None),
                "demixing_jackknife entry": lambda: ci.demixing_jackknife(
                    y, probes, pattern, entry=(0, 1)),
                "delta_variance": lambda: ci.delta_variance(y, probes),
                "delta_variance_labeled": lambda: ci.delta_variance_labeled(
                    y, probes, pattern, entry=None),
                "delta_variance_labeled entry": lambda: ci.delta_variance_labeled(
                    y, probes, pattern, entry=(0, 1)),
                "wald_test delta": lambda: ci.wald_test(y, probes, method="delta"),
                "wald_test jackknife": lambda: ci.wald_test(
                    y, probes, method="jackknife"),
            }
            for name, call in calls.items():
                item = f"d={d} n={n} shift={shift:g} {name}"
                try:
                    result = call()
                except Exception as exc:  # a refusal is an output too
                    out[item] = _digest(type(exc).__name__, str(exc))
                else:
                    out[item] = _digest(result)
                    numbers.update(_numbers(item, result))
    # A record held for the C-ordered sample must not serve its F-ordered copy.
    x = ci.gen_composite(ci.CompositeDgpConfig(n=200, k=0.2, seed=21), 0).x
    c, f = np.ascontiguousarray(x), np.asfortranarray(x)
    probes = ci.ProbeVectors.draw(2, 21)
    for item, warm in (("layout F cold demixing_jackknife", False),
                       ("layout F after C demixing_jackknife", True)):
        ci._pipeline._record = None
        if warm:
            ci.wald_test(c, probes, method="jackknife")
        result = ci.demixing_jackknife(f, probes)
        out[item] = _digest(result)
        numbers.update(_numbers(item, result))
    return out, numbers


def _several(ci) -> tuple[dict, dict]:
    """The digest of the stacked Wald test of several samples, by method,
    and its numbers."""
    sys.path.insert(0, str(REPO / "tests"))
    from _designs import stacked_wald_samples
    probes = ci.ProbeVectors.draw(3, 7)
    samples = stacked_wald_samples(3, probes.w1, probes.w2)
    out, numbers = {}, {}
    for method in ("delta", "jackknife"):
        item = f"d=3 wald_stack {method}"
        records = [ci._pipeline.MomentRecord.of(x) for x in samples]
        try:
            result = ci.overid._wald_stack(records, probes, method)
        except Exception as exc:  # a refusal is an output too
            out[item] = _digest(type(exc).__name__, str(exc))
        else:
            out[item] = _digest(result)
            numbers.update(_numbers(item, result))
    return out, numbers


def _var(ci, workloads) -> tuple[dict, dict]:
    """The digest of each VAR item, and its numbers."""
    sys.path.insert(0, str(REPO / "tests"))
    from _designs import simulate_near_unit_root
    t, lags, seed = NEAR_UNIT_ROOT
    near = simulate_near_unit_root(t, np.random.default_rng(seed))
    series = {"bench": (workloads.var_series(CLI_SEED), workloads.VAR_LAGS),
              "near unit root": (near, lags)}
    probes = ci.ProbeVectors.draw(2, workloads.CLI_PROBE_SEED)
    out, numbers = {}, {}
    for name, (y, p) in series.items():
        fit = ci.fit_var(y, p)
        report = ci.pairwise_overid(fit, probes)
        tests = [res for _, _, res in report.pairs]
        items = {
            "fit_var": fit,
            "partial_out": ci.partial_out(y[:, 1:], y[:, :1]),
            "pairwise_overid": Pairwise(np.array([r.statistic for r in tests]),
                                        np.array([r.p_value for r in tests]),
                                        report.failures),
        }
        for what, result in items.items():
            item = f"{name} {what}"
            out[item] = _digest(result)
            numbers.update(_numbers(item, result))
    return out, numbers


def _cli(workloads) -> dict:
    out = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # Relative paths, since the output CSVs name their input file.
        os.chdir(tmp)
        try:
            io = workloads.CliIo(CLI_SEED, Path("."))
            io.setup()
        finally:
            os.chdir(home)
        for name, digests in io.digests.items():
            for csv, digest in (digests or {"<failed>": None}).items():
                out[f"{name}/{csv}"] = digest
    return out


def snapshot(root: Path) -> tuple[dict, dict]:
    """The snapshot of a checkout, and the numbers of its inference,
    several-samples and VAR items."""
    ci, workloads = _load(root)
    inference, numbers = _inference(ci)
    several, several_numbers = _several(ci)
    var, var_numbers = _var(ci, workloads)
    return ({"tables": _tables(workloads), "inference": inference,
             "several samples": several, "var": var, "cli": _cli(workloads)},
            numbers | several_numbers | var_numbers)


def _changes(item: str, old, new) -> str:
    """How the numbers of one inference or VAR item moved between two .npz files:
    the change of each float field that differs, relative to that field's
    largest magnitude, and the other fields that differ."""
    if old is None or new is None:
        return "no numbers kept"
    prefix = f"{item}|"
    moved, other = [], []
    for key in sorted({k for k in old.files + new.files if k.startswith(prefix)}):
        path = key[len(prefix):]
        if key not in old.files or key not in new.files:
            other.append(path)
            continue
        a, b = old[key], new[key]
        if a.shape != b.shape or a.dtype != b.dtype or a.dtype.kind != "f":
            if not np.array_equal(a, b):
                other.append(path)
        elif not np.array_equal(a, b, equal_nan=True):
            scale = np.max(np.abs(a), initial=0.0)
            change = np.max(np.abs(b - a), initial=0.0) / scale if scale else np.inf
            moved.append(f"{path or '(array)'} {change:.3g}")
    text = "relative change " + ", ".join(moved) if moved else "no float field moved"
    return text + (f"; differ: {', '.join(other)}" if other else "")


def compare(before: dict, after: dict, old_numbers=None, new_numbers=None) -> bool:
    """Print what differs between two snapshots, with the changes of each
    inference or VAR item from their numbers, if given; True when all pass."""
    _, workloads = _load(REPO)
    ok = True
    for table, blocks in sorted(before["tables"].items()):
        equal, passed, worst = 0, 0, 0.0
        for b, (old, new) in enumerate(zip(blocks, after["tables"][table])):
            equal += old["sha256"] == new["sha256"]
            result = SimpleNamespace(values=new["values"], failures=new["failures"])
            problem = workloads.mc_reference_problem(int(table), result, old)
            if old["reasons"] != new["reasons"]:
                problem = problem or "failure reasons differ"
            if problem is None:
                passed += 1
            else:
                print(f"table {table} block {b}: {problem}")
            v0, v1 = np.array(old["values"], float), np.array(new["values"], float)
            both = np.isfinite(v0) & np.isfinite(v1) & (v0 != 0.0)
            if both.any():
                worst = max(worst, float(np.max(np.abs(v1[both] / v0[both] - 1.0))))
        n = len(blocks)
        ok &= passed == n and len(after["tables"][table]) == n
        print(f"table {table}: {equal} of {n} blocks bit-equal, {passed} of {n} "
              f"within the benchmark rules, largest relative change {worst:.3g}")
    for group in ("inference", "several samples", "var", "cli"):
        old, new = before[group], after[group]
        differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        for key in differ:
            moved = (f": {_changes(key, old_numbers, new_numbers)}"
                     if group != "cli" else "")
            print(f"{group}: {key} differs{moved}")
        ok &= not differ
        print(f"{group}: {len(old) - len(differ)} of {len(old)} items bit-equal")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout whose src/ and bench/ are snapshotted")
    parser.add_argument("--out", type=Path, help="where to write the snapshot")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(p.read_text()) for p in args.compare)
        numbers = [np.load(p.with_suffix(".npz")) if p.with_suffix(".npz").exists()
                   else None for p in args.compare]
        return 0 if compare(before, after, *numbers) else 1
    if args.out is None:
        parser.error("give --out or --compare")
    digests, numbers = snapshot(args.root.resolve())
    args.out.write_text(json.dumps(digests))
    np.savez(args.out.with_suffix(".npz"), **numbers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
