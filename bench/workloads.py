"""The benchmark's three workloads: inputs, operations and output checks.

mc_tables       thousands of d = 2 problems per call, so per-call overhead,
                the scalar identify path, the Wald test's small
                finite-difference stacks and data generation dominate.
inference_wide  one n = 10 000, d = 5 analysis per operation: batched eig
                and the 120-candidate sign labeling over n resamples.
cli_io          whole CLI commands on generated CSVs: ingestion, manifests,
                output writing and VAR OLS; the only order-4 and triangular
                labeling traffic.

Every input comes from the workload seed; the package sees only the
generated data.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

import cumident
from cumident import cli, simulate
from measure import OpKind, error_reason

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# ---------------------------------------------------------------- mc_tables

MC_POOL = 48
MC_SEED_BASE = 20_240_801
# Blocks are sized so that each table call takes roughly the same time.
MC_REPS = {1: 10, 2: 8, 3: 6}
MSE_RTOL = 1e-6
# At this commit run_coverage_experiment raises TypeError on numpy >= 2.4:
# float() of the (1, 1) delta-method variance.  Its calls are counted as
# failed with that reason; the delta method is not dropped to avoid it.  The
# match is exact (type, innermost package frame, message), so any other
# exception from Table 2 is an error.  A table listed here has no reference
# values and stays out of op_ms_p50.
MC_KNOWN_DEFECTS = {
    2: "TypeError at simulate.py:309: "
       "only 0-dimensional arrays can be converted to Python scalars",
}


def mc_blocks(seed: int) -> np.ndarray:
    """Order in which a run visits the pool of replication blocks."""
    return np.random.default_rng(seed).permutation(MC_POOL)


def mc_call(table: int, block: int, reps: int):
    """One table experiment on the CLI default grid and methods."""
    grid = cli._TABLE_DEFAULTS[table]
    seed = MC_SEED_BASE + int(block)
    if table == 1:
        return simulate.run_mse_experiment(grid["ns"], grid["ks"], reps, seed)
    if table == 2:
        return simulate.run_coverage_experiment(
            grid["ns"], grid["k"], reps, seed, level=grid["level"],
            methods=("jackknife", "delta"),
        )
    return simulate.run_overid_power_experiment(
        grid["ns"], grid["ks"], reps, seed, alpha=grid["alpha"]
    )


def mc_structure_problem(table: int, result, reps: int) -> str | None:
    """Shape and range checks that hold for any correct table result."""
    grid = cli._TABLE_DEFAULTS[table]
    cols = len(grid.get("ks", (grid.get("k"),)))
    values = np.asarray(result.values)
    failures = np.asarray(result.failures)
    if values.shape[:2] != (len(grid["ns"]), cols) or values.shape != failures.shape:
        return f"table {table}: result shape {values.shape}"
    if np.any(failures < 0) or np.any(failures > reps):
        return f"table {table}: failure counts outside [0, {reps}]"
    finite = values[failures < reps]
    if not np.all(np.isfinite(finite)) or np.any(finite < 0):
        return f"table {table}: non-finite or negative cell"
    if table != 1 and np.any(finite > 1):
        return f"table {table}: rate above 1"
    return None


def mc_reference_problem(table: int, result, ref: dict) -> str | None:
    """Compare a table result with the outcome stored for its block.

    MSE cells must agree to a relative 1e-6; a rejection-rate cell may differ
    by at most one decision, since the delta-method p-values depend on the
    finite-difference step; failure counts must agree exactly.
    """
    values = np.asarray(result.values, dtype=float)
    want = np.asarray(ref["values"], dtype=float)
    if values.shape != want.shape:
        return f"table {table}: shape {values.shape} != reference {want.shape}"
    if not np.array_equal(np.asarray(result.failures), np.asarray(ref["failures"])):
        return f"table {table}: failure counts differ from the reference"
    if table == 1:
        ok = np.allclose(values, want, rtol=MSE_RTOL, atol=0.0, equal_nan=True)
    else:
        ok = np.all(np.abs(values - want) <= 1.0 / MC_REPS[table] + 1e-12)
    return None if ok else f"table {table}: cells differ from the reference"


class McTables:
    """Table 1, 2 and 3 calls on blocks of replications."""

    def __init__(self, seed: int, work: Path):
        self.blocks = mc_blocks(seed)
        self.reference = None
        self.kinds = [
            OpKind(
                name=f"table{t}", metric=f"mc.table{t}_ms_per_rep",
                units=MC_REPS[t], call=self._caller(t), check=self._checker(t),
                prepare=self._block, known_defect=MC_KNOWN_DEFECTS.get(t),
            )
            for t in (1, 2, 3)
        ]

    def setup(self) -> None:
        self.reference = json.loads((REFERENCE_DIR / "mc_tables.json").read_text())
        # Warm-up: one block of each table, as an operation runs it.  Blocks
        # differ in cost by up to 60 %, so it is the same block for every
        # workload seed.  Every pool block runs without raising, apart from
        # a known defect.
        for table in (1, 2, 3):
            try:
                mc_call(table, 0, MC_REPS[table])
            except Exception as exc:
                if error_reason(exc) != MC_KNOWN_DEFECTS.get(table):
                    raise

    def _block(self, i: int) -> int:
        return int(self.blocks[i % MC_POOL])

    def _ref(self, table: int, block: int) -> dict | None:
        entries = self.reference["tables"].get(str(table))
        return None if entries is None else entries["blocks"][block]

    def _caller(self, table):
        return lambda block: mc_call(table, block, MC_REPS[table])

    def _checker(self, table):
        def check(i, block, result):
            problem = mc_structure_problem(table, result, MC_REPS[table])
            ref = self._ref(table, block)
            if problem is None and ref is not None:
                problem = mc_reference_problem(table, result, ref)
            return problem
        return check


# ----------------------------------------------------------- inference_wide

INF_N = 10_000
# Diagonal-normalized structural matrix; the rows of its sign pattern are
# pairwise distinct and every wrong row order mismatches it in >= 4 signs.
INF_LAMBDA = np.array([
    [1.0, 0.3, -0.3, 0.5, 0.3],
    [-0.4, 1.0, 0.4, 0.5, -0.5],
    [-0.5, -0.4, 1.0, 0.5, 0.4],
    [-0.5, 0.5, -0.3, 1.0, 0.4],
    [-0.6, 0.5, 0.2, -0.3, 1.0],
])
INF_PATTERN = np.sign(INF_LAMBDA).astype(int)
INF_MIXING = np.linalg.inv(INF_LAMBDA)
# Probe seed 7 separates the population eigenvalues by >= 10 % of their scale.
INF_PROBE_SEED = 7
INF_ENTRY = (0, 1)
MAX_ROW_ANGLE = 0.35
VARIANCE_FACTOR = 2.0
PSD_RTOL = 1e-9


def inference_sample(seed: int, i: int) -> np.ndarray:
    """Independent standard-exponential (skewed) shocks through the design."""
    shocks = np.random.default_rng([seed, i]).standard_exponential((INF_N, 5))
    return shocks @ INF_MIXING.T


def analysis(x: np.ndarray, probes):
    """The full analysis of one sample, as a user would run it."""
    est = cumident.estimate_demixing(x, probes)
    lab = cumident.label_by_signs(est, INF_PATTERN)
    jk = cumident.demixing_jackknife(x, probes, pattern=INF_PATTERN, entry=None)
    dv = cumident.delta_variance_labeled(x, probes, INF_PATTERN, entry=INF_ENTRY)
    tests = [cumident.wald_test(x, probes, method=m) for m in ("delta", "jackknife")]
    return lab, jk, dv, tests


def analysis_problem(lab, jk, dv, tests) -> str | None:
    """Accuracy, PSD variances that agree, and p-values in [0, 1]."""
    angle = max(
        cumident.angular_distance(lab.lambda_final[r], INF_LAMBDA[r])
        for r in range(INF_LAMBDA.shape[0])
    )
    if not angle <= MAX_ROW_ANGLE:
        return f"a labeled row is more than {MAX_ROW_ANGLE} rad from the design"
    evals = np.linalg.eigvalsh(jk.variance)
    if not evals.min() >= -PSD_RTOL * max(evals.max(), 0.0):
        return "jackknife variance is not PSD"
    delta_var = float(dv.sigma_u[0, 0]) / INF_N
    if not delta_var >= 0.0:
        return "delta variance is negative"
    k = INF_ENTRY[0] * INF_LAMBDA.shape[0] + INF_ENTRY[1]
    jk_var = float(jk.variance[k, k])
    if not 1.0 / VARIANCE_FACTOR <= delta_var / jk_var <= VARIANCE_FACTOR:
        return (f"delta and jackknife variances differ by more than a factor "
                f"{VARIANCE_FACTOR:g}")
    if not all(0.0 <= t.p_value <= 1.0 for t in tests):
        return "p-value outside [0, 1]"
    return None


class InferenceWide:
    """One full analysis of a fresh n = 10 000, d = 5 sample per operation."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.probes = cumident.ProbeVectors.draw(5, INF_PROBE_SEED)
        self.kinds = [OpKind(
            name="analysis", metric="inference.ms_p50", units=1,
            call=lambda x: analysis(x, self.probes),
            check=lambda i, x, result: analysis_problem(*result),
            prepare=lambda i: inference_sample(self.seed, i),
        )]

    def setup(self) -> None:
        analysis(inference_sample(self.seed, 2**32 - 1), self.probes)


# ------------------------------------------------------------------ cli_io

CLI_PROBE_SEED = 7
VAR_T, VAR_D, VAR_LAGS = 20_000, 6, 4
_SHIFT = np.roll(np.eye(VAR_D), 1, axis=1)
VAR_A1 = 0.4 * np.eye(VAR_D) + 0.15 * _SHIFT
VAR_A2 = -0.2 * np.eye(VAR_D)
VAR_IMPACT = np.eye(VAR_D) + 0.5 * _SHIFT.T
COMPOSITE_N = 20_000
COMPOSITE_LAMBDA = np.array([[1.0, 1.5], [-0.5, 1.0]])
COMPOSITE_PATTERN = np.array([[1, 1], [-1, 1]])


def var_series(seed: int) -> np.ndarray:
    """A stable VAR(2) driven by skewed, mixed shocks; burn-in dropped."""
    burn = 200
    shocks = np.random.default_rng([seed, 1]).standard_exponential(
        (VAR_T + burn, VAR_D)) - 1.0
    u = shocks @ VAR_IMPACT.T
    y = np.zeros_like(u)
    for t in range(2, len(y)):
        y[t] = VAR_A1 @ y[t - 1] + VAR_A2 @ y[t - 2] + u[t]
    return y[burn:]


def composite_sample(seed: int) -> np.ndarray:
    shocks = np.random.default_rng([seed, 2]).standard_exponential((COMPOSITE_N, 2))
    return shocks @ np.linalg.inv(COMPOSITE_LAMBDA).T


def write_csv(path: Path, names, data) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, data, delimiter=",", fmt="%.12g")


def csv_digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*.csv"))
    }


class CliIo:
    """In-process cumident CLI commands on CSVs written at set-up."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.digests: dict[str, dict[str, str] | None] = {}
        var_csv, comp_csv = work / "var.csv", work / "composite.csv"
        pattern = work / "pattern.csv"
        common = ["--seed", str(CLI_PROBE_SEED)]
        self.commands = {
            "var": ["var", str(var_csv), "--lags", str(VAR_LAGS), *common,
                    "--pairs", "all"],
            "estimate": ["estimate", str(comp_csv), *common,
                         "--label", f"signs:{pattern}", "--se", "both"],
            "test": ["test", str(comp_csv), *common, "--omega", "jackknife"],
            "estimate_order4": ["estimate", str(comp_csv), *common, "--order",
                                "4", "--label", "triangular", "--se", "none"],
        }
        self.kinds = [
            OpKind(
                name=name, metric=f"cli.{name}_ms_p50", units=1,
                call=run_cli, check=self._checker(name),
                prepare=self._preparer(name),
            )
            for name in self.commands
        ]

    def _preparer(self, name):
        def prepare(i):
            out = self.work / f"out_{name}"
            shutil.rmtree(out, ignore_errors=True)
            return [*self.commands[name], "--out", str(out)]
        return prepare

    def _checker(self, name):
        def check(i, argv, result):
            code, err = result
            if code != 0:
                last = (err.strip().splitlines() or [""])[-1]
                return f"exit code {code}: {last}"
            if self.digests.get(name) is None:
                return "no output to compare with: the set-up run failed"
            if csv_digests(self.work / f"out_{name}") != self.digests[name]:
                return "numeric CSV outputs differ between identical runs"
            return None
        return check

    def setup(self) -> None:
        write_csv(self.work / "var.csv",
                  [f"y{j + 1}" for j in range(VAR_D)], var_series(self.seed))
        write_csv(self.work / "composite.csv", ["price", "quantity"],
                  composite_sample(self.seed))
        np.savetxt(self.work / "pattern.csv", COMPOSITE_PATTERN,
                   delimiter=",", fmt="%d")
        for name in self.commands:
            argv = self._preparer(name)(0)
            code, _ = run_cli(argv)
            if name not in self.digests:
                self.digests[name] = (
                    csv_digests(self.work / f"out_{name}") if code == 0 else None
                )


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cumident.cli.main in-process; returns the exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


WORKLOADS = {"mc_tables": McTables, "inference_wide": InferenceWide, "cli_io": CliIo}
