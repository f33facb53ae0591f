"""Snapshot the package's outputs, or compare two snapshots.

    python3 tools/snapshot.py --root CHECKOUT --out SNAPSHOT.json
    python3 tools/snapshot.py --compare BEFORE.json AFTER.json

A snapshot runs the package in CHECKOUT/src (default: this repository) and
records:

- Tables 1-3 on each of the benchmark's pool blocks, as the `mc_tables`
  workload calls them (read from CHECKOUT/bench/workloads.py): values,
  failure counts and failure reasons, and their SHA-256;
- the order-3 inference group on fixed skewed samples at d = 2, 3 and 5,
  raw and shifted by 1e3: the estimate and its sign labeling, the
  jackknife and delta variances (unlabeled, labeled and by entry) and both
  Wald tests, each as one SHA-256.  The samples at d = 2, n = 20 000 and
  d = 3, n = 8 000 make delete-1 stacks of three chunks each;
- the jackknife of an F-ordered copy of the composite sample (n = 200,
  k = 0.2, seed 21), with no moment record held and after a Wald test on
  the C-ordered sample;
- the SHA-256 of every CSV that the four `cli_io` commands write.

--compare reports what differs.  A table block passes under the benchmark's
reference rules (MSE cells to a relative 1e-6, rate cells within one
decision, failure counts exact); every other item must be bit-equal.  The
exit status is 1 when anything fails.
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

import numpy as np

REPO = Path(__file__).resolve().parent.parent
# (d, n, sample seed, probe seed) of the inference group.
INFERENCE_CASES = ((2, 3_000, 61, 3), (3, 3_000, 62, 5), (5, 3_000, 63, 7),
                   (2, 20_000, 64, 3), (3, 8_000, 65, 5))
SHIFT = 1e3
CLI_SEED = 3


def _load(root: Path):
    """The package and the benchmark's workloads module of a checkout."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import cumident
    import workloads
    return cumident, workloads


def _digest(*objects) -> str:
    """SHA-256 of the bits of arrays and numbers, nested in results."""
    h = hashlib.sha256()

    def feed(obj):
        if dataclasses.is_dataclass(obj):
            obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        elif isinstance(obj, tuple) and hasattr(obj, "_fields"):
            obj = list(obj)
        if isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        elif isinstance(obj, (np.ndarray, np.generic, float)):
            a = np.asarray(obj)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
        else:
            h.update(repr(obj).encode())

    for obj in objects:
        feed(obj)
    return h.hexdigest()


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


def _inference(ci) -> dict:
    out = {}
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
                try:
                    digest = _digest(call())
                except Exception as exc:  # a refusal is an output too
                    digest = _digest(type(exc).__name__, str(exc))
                out[f"d={d} n={n} shift={shift:g} {name}"] = digest
    # A record held for the C-ordered sample must not serve its F-ordered copy.
    x = ci.gen_composite(ci.CompositeDgpConfig(n=200, k=0.2, seed=21), 0).x
    c, f = np.ascontiguousarray(x), np.asfortranarray(x)
    probes = ci.ProbeVectors.draw(2, 21)
    ci._pipeline._record = None
    out["layout F cold demixing_jackknife"] = _digest(ci.demixing_jackknife(f, probes))
    ci._pipeline._record = None
    ci.wald_test(c, probes, method="jackknife")
    out["layout F after C demixing_jackknife"] = _digest(ci.demixing_jackknife(f, probes))
    return out


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


def snapshot(root: Path) -> dict:
    ci, workloads = _load(root)
    return {"tables": _tables(workloads), "inference": _inference(ci),
            "cli": _cli(workloads)}


def compare(before: dict, after: dict) -> bool:
    """Print what differs between two snapshots; True when all pass."""
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
    for group in ("inference", "cli"):
        old, new = before[group], after[group]
        differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        for key in differ:
            print(f"{group}: {key} differs")
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
        return 0 if compare(before, after) else 1
    if args.out is None:
        parser.error("give --out or --compare")
    args.out.write_text(json.dumps(snapshot(args.root.resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
