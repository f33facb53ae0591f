"""Composite-error data generator, IV benchmarks, and the Monte Carlo
experiments (MSE, confidence-interval coverage, test size/power).

Common random numbers: every replication owns seed-derived substreams, one
per underlying random source, so replication `rep` reuses the same draws
across every (n, k) grid cell and the first n1 draws at n1 < n2 are a prefix
of the n2 draws.  The noise scale k never touches a random stream; it only
rescales draws deterministically.
"""

from __future__ import annotations

import functools
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from . import __version__, _pipeline
from .errors import InvalidInputError, WeakInstrumentError
from .identify import COND_CAP, ProbeVectors
from .inference import (_FAIL_OMEGA, _METHODS, _check_jackknife_n,
                        _check_method, _demixing_statistic, _resampled)
from .moments import _centered_moments
from .overid import _wald_stack

LAMBDA_TRUE = np.array([[1.0, 1.5], [-0.5, 1.0]])
GAMMA_LOADINGS = np.array([[0.5, -1.0, 1.5], [-1.0, 1.0, -1.0]])
MEAS_COV = np.array([[1.0, -0.45], [-0.45, 0.25]])
# Transposed Cholesky factor of MEAS_COV: white noise times it has MEAS_COV.
_MEAS_FACTOR = np.linalg.cholesky(MEAS_COV).T
SUPPLY_DEMAND_PATTERN = np.array([[1, 1], [-1, 1]])
B1_TRUE = 1.5
# The fixed maps from the shifters s and the omitted shocks e to the
# structural-form observables: x* = Lambda^{-1} s + sqrt(k/3) Lambda^{-1} Gamma e.
_LAMBDA_INV = np.linalg.inv(LAMBDA_TRUE)
_LAMBDA_INV_GAMMA = _LAMBDA_INV @ GAMMA_LOADINGS

# Why a Monte Carlo cell has no value: G(w2) over COND_CAP or singular (at
# the sample, a finite-difference point or a delete-1 resample), or sixth
# moments out of range for the delta method; no valid or a tied sign
# labeling; cond(Omega) over OMEGA_COND_CAP; or a weak instrument.  Workers
# report each failed cell by its reason's code, 0 marking a cell that stands.
FAILURE_REASONS = ("ill_conditioned", "labeling", "omega_ill_conditioned",
                   "weak_instrument")
_CODE = {name: i + 1 for i, name in enumerate(FAILURE_REASONS)}


def worker_count() -> int:
    """Replication workers: CUMIDENT_THREADS (default 1), at most the CPUs
    this process may run on (its affinity set, where the platform has one).

    A value that is not a positive integer raises InvalidInputError.
    """
    env = os.environ.get("CUMIDENT_THREADS", "").strip()
    if not env:
        return 1
    if not env.isdecimal() or int(env) == 0:
        raise InvalidInputError(
            f"CUMIDENT_THREADS must be a positive integer, got {env!r}"
        )
    if hasattr(os, "sched_getaffinity"):
        return min(int(env), len(os.sched_getaffinity(0)))
    return min(int(env), os.cpu_count() or 1)


@dataclass(frozen=True, eq=False)
class CompositeDgpConfig:
    """Two-equation composite-error design: skewed shifters plus symmetric
    omitted shocks plus correlated measurement error, scaled by k."""

    n: int
    k: float
    kurtoses: tuple[float, float, float] = (3.0, 4.0, 5.0)
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.k < np.inf:
            raise InvalidInputError(f"noise scale k must be finite and >= 0, got {self.k}")
        if len(self.kurtoses) != GAMMA_LOADINGS.shape[1]:
            raise InvalidInputError(f"need {GAMMA_LOADINGS.shape[1]} kurtoses, one per "
                                    f"omitted shock, got {len(self.kurtoses)}")
        if not all(3.0 <= kappa < np.inf for kappa in self.kurtoses):
            raise InvalidInputError(f"kurtoses must be finite and >= 3, got {self.kurtoses}")


@dataclass
class CompositeDraw:
    """One replication: observables plus the latent draws the IVs need."""

    x: np.ndarray
    s: np.ndarray
    z: np.ndarray


def pearson_symmetric(kurtosis: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean, unit-variance, symmetric draws with the given kurtosis.

    kurtosis = 3 is the standard normal; above 3, a Student-t scaled to
    unit variance with df = 6/(kurtosis - 3) + 4 (so its excess kurtosis is
    exactly kurtosis - 3).
    """
    if kurtosis < 3.0:
        raise InvalidInputError(
            f"kurtosis must be >= 3 (platykurtic family not implemented), "
            f"got {kurtosis}"
        )
    if kurtosis == 3.0:
        return rng.standard_normal(n)
    df = 6.0 / (kurtosis - 3.0) + 4.0
    return rng.standard_t(df, n) * np.sqrt((df - 2.0) / df)


def _stream(cfg: CompositeDgpConfig, rep: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, rep, tag])


def _draw_primitives(cfg: CompositeDgpConfig, rep: int, n: int):
    """The k-independent random inputs of one replication."""
    s = np.column_stack([
        _stream(cfg, rep, 0).standard_exponential(n),
        _stream(cfg, rep, 1).standard_exponential(n),
    ])
    e = np.column_stack([
        pearson_symmetric(kappa, n, _stream(cfg, rep, 2 + j))
        for j, kappa in enumerate(cfg.kurtoses)
    ])
    eps = _stream(cfg, rep, 5).standard_normal((n, 2)) @ _MEAS_FACTOR
    z = _stream(cfg, rep, 6).standard_normal(n)
    return s, e, eps, z


def _columns(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v @ a.T for a small fixed matrix `a`, one output column at a time in
    elementwise arithmetic, so that a row's bits depend on that row alone,
    never on the row count as a BLAS product's or a solve's may."""
    out = np.empty((v.shape[0], a.shape[0]))
    for r, row in enumerate(a):
        np.multiply(v[:, 0], row[0], out=out[:, r])
        for j in range(1, len(row)):
            out[:, r] += row[j] * v[:, j]
    return out


def _assemble(s, e, eps, k) -> np.ndarray:
    """The observables x = Lambda^{-1} (s + sqrt(k/3) Gamma e) + sqrt(k) eps
    at noise scale k, or their (K, n, 2) stack at a (K, 1, 1) array of
    scales.  The k-free parts are formed once, in :func:`_columns`, so row i
    has the same bits at every n."""
    k = np.asarray(k, dtype=float)
    return (_columns(_LAMBDA_INV, s)
            + np.sqrt(k / 3.0) * _columns(_LAMBDA_INV_GAMMA, e)
            + np.sqrt(k) * eps)


def gen_composite(cfg: CompositeDgpConfig, rep: int) -> CompositeDraw:
    """Generate one replication of the composite-error design.

    Gamma(1,1) shifters are drawn as standard exponentials (the same law).
    At k = 0 the structural errors are exactly the independent shifters.
    """
    s, e, eps, z = _draw_primitives(cfg, rep, cfg.n)
    return CompositeDraw(x=_assemble(s, e, eps, cfg.k), s=s, z=z)


def _iv_slopes(y, x, z):
    """Just-identified 2SLS slopes (z'y)/(z'x) on demeaned inputs, for
    stacks of (..., n) rows broadcast against each other: the slopes, z'x
    and the weak-instrument flags |z'x| <= 1e-10 |z| |x|, where the slope
    is NaN.  Each mean and inner product is a pairwise sum over one row, so
    a slope's bits depend on its own rows alone."""
    y, x, z = (a - a.mean(axis=-1, keepdims=True) for a in (y, x, z))
    zx = np.sum(z * x, axis=-1)
    scale = np.sqrt(np.sum(z * z, axis=-1)) * np.sqrt(np.sum(x * x, axis=-1))
    weak = np.abs(zx) <= 1e-10 * scale
    slope = np.divide(np.sum(z * y, axis=-1), zx, out=np.full(np.shape(zx), np.nan),
                      where=~weak)
    return slope, zx, weak


def iv_2sls(y, x, z) -> float:
    """Just-identified 2SLS slope (z'y)/(z'x) on demeaned inputs; a weak
    instrument raises WeakInstrumentError.  The one-sample view of the
    Table 1 IV kernel."""
    slope, denom, weak = _iv_slopes(*(np.asarray(a, dtype=float) for a in (y, x, z)))
    if weak:
        raise WeakInstrumentError(
            f"instrument-regressor inner product {denom:.3e} is numerically zero"
        )
    return float(slope)


def _eigen_slopes(ms: np.ndarray, probes: ProbeVectors):
    """Slope b1 and failure code of :func:`estimate_demixing` then
    :func:`label_by_signs` (on_tie="error") on each sample of a (cells, D)
    stack of centered moment vectors, as one demixing and one labeling
    call."""
    demixed = _pipeline.demix_rows(ms, 2, probes.w1, probes.w2, cond_cap=COND_CAP)
    lam, _, tied, _ = _pipeline.label_signs(demixed.rows, SUPPLY_DEMAND_PATTERN)
    codes = np.where(tied, _CODE["labeling"], 0)
    codes[demixed.ill_conditioned] = _CODE["ill_conditioned"]
    return lam[:, 0, 1], codes


_ESTIMATORS = ("eigen", "iv1", "iv2")


def _instrument(name: str, s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The instrument of an IV estimator of b1: the supply shifter s2 (iv1),
    or s2 diluted by independent noise (iv2)."""
    if name == "iv1":
        return s[:, 1]
    return np.sqrt(0.3) * s[:, 1] + np.sqrt(0.7) * z


@dataclass
class McResult:
    """Per-cell Monte Carlo summaries on an (n, k) grid; `failure_reasons`
    splits `failures` by each of ``FAILURE_REASONS``."""

    kind: str
    ns: tuple[int, ...]
    ks: tuple[float, ...]
    series: tuple[str, ...]
    values: np.ndarray
    failures: np.ndarray
    replications: int
    seed: int
    failure_reasons: dict[str, np.ndarray] = field(default_factory=dict)


def _map_reps(fn, reps: int):
    workers = worker_count()
    indices = range(reps)
    if workers == 1:
        return [fn(rep) for rep in indices]
    chunk = max(1, reps // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, indices, chunksize=chunk))


def _check_failure_cap(failures: np.ndarray, reps: int, what: str) -> None:
    worst = failures.max()
    if worst / reps >= 0.01:
        raise RuntimeError(
            f"{what}: {int(worst)} of {reps} replications failed in some "
            "cell (cap is 1%); results would be silently selective"
        )


def _experiment(worker, reps: int, seed: int, what: str, kind: str, ns, ks,
                series) -> McResult:
    """Run `worker`, which returns each replication's cells and their failure
    codes, and summarize the cells as an (n, k, series) grid."""
    if reps < 1:
        raise InvalidInputError(f"reps must be >= 1, got {reps}")
    outs, codes = zip(*_map_reps(worker, reps))
    shape = (reps, len(ns), len(ks), len(series))
    per_rep, codes = np.reshape(outs, shape), np.reshape(codes, shape)
    failures = np.isnan(per_rep).sum(axis=0)
    _check_failure_cap(failures, reps, what)
    reasons = {r: (codes == c).sum(axis=0) for r, c in _CODE.items()}
    return McResult(kind, ns, ks, series, np.nanmean(per_rep, axis=0),
                    failures, reps, seed, reasons)


def _grid(ns, ks):
    """The (n, k) grid of an experiment as int and float tuples, else
    InvalidInputError: each n an integer at least d + 1 = 3, the fewest
    observations an estimate takes, and each k finite and at least 0."""
    ns, ks = tuple(ns), tuple(float(k) for k in ks)
    if not ns or not all(float(n).is_integer() and n >= 3 for n in ns):
        raise InvalidInputError(
            f"sample sizes ns must be integers >= d + 1 = 3, got {ns}")
    ns = tuple(int(n) for n in ns)
    if not ks or not all(0.0 <= k < np.inf for k in ks):
        raise InvalidInputError(f"noise scales must be finite and >= 0, got {ks}")
    return ns, ks


def _samples(cfg, rep: int, ns, ks):
    """One replication's shifters s, instruments z and (K, max(ns), 2)
    stack of one sample per k, all drawn at the largest n; smaller n are
    their row prefixes."""
    s, e, eps, z = _draw_primitives(cfg, rep, max(ns))
    return s, z, _assemble(s, e, eps, np.reshape(ks, (-1, 1, 1)))


# The per-replication workers are module-level functions that the run_*
# experiments bind with functools.partial, so that the CUMIDENT_THREADS
# process pool can pickle them: the function by its import path, the bound
# arguments by value.

def _mse_rep(cfg, ns, ks, estimators, probes, rep: int):
    """Squared errors of each estimator, and failure codes, of one
    replication of the MSE experiment."""
    s, z, x = _samples(cfg, rep, ns, ks)
    shape = (len(ns), len(ks), len(estimators))
    b1 = np.empty(shape)
    codes = np.zeros(shape, dtype=np.int8)
    eigen = [c for c, name in enumerate(estimators) if name == "eigen"]
    ivs = [c for c, name in enumerate(estimators) if name != "eigen"]
    if eigen:
        slopes, fail = _eigen_slopes(np.concatenate([
            _centered_moments(x[:, :n])[1] for n in ns
        ]), probes)
        b1[..., eigen] = slopes.reshape(shape[:2] + (1,))
        codes[..., eigen] = fail.reshape(shape[:2] + (1,))
    if ivs:
        # (instrument, 1, n): one reduction per n over every instrument and k.
        instruments = np.stack([_instrument(estimators[c], s, z) for c in ivs])[:, None]
        for a, n in enumerate(ns):
            slopes, _, weak = _iv_slopes(x[:, :n, 0], x[:, :n, 1], instruments[..., :n])
            b1[a][:, ivs] = -slopes.T
            codes[a][:, ivs] = np.where(weak.T, _CODE["weak_instrument"], 0)
    return np.where(codes == 0, (b1 - B1_TRUE) ** 2, np.nan), codes


def run_mse_experiment(ns, ks, reps: int, seed: int,
                       estimators=("eigen", "iv1", "iv2"),
                       kurtoses=(3.0, 4.0, 5.0)) -> McResult:
    """Squared-error study for the slope b1 = 1.5 on an (n, k) grid.

    Replications that fail (singular contraction, labeling tie, weak
    instrument) are excluded and counted per reason, with a hard 1% cap per
    cell.  Meaningful mean squared errors call for a few hundred
    replications at least; a single replication returns the one squared
    error.
    """
    ns, ks = _grid(ns, ks)
    if not estimators:
        raise InvalidInputError("estimator list is empty")
    unknown = [e for e in estimators if e not in _ESTIMATORS]
    if unknown:
        raise InvalidInputError(
            f"unknown estimators {unknown}; pick from {sorted(_ESTIMATORS)}")
    cfg = CompositeDgpConfig(n=max(ns), k=0.0, kurtoses=tuple(kurtoses), seed=seed)
    probes = ProbeVectors.draw(2, seed)
    worker = functools.partial(_mse_rep, cfg, ns, ks, tuple(estimators), probes)
    return _experiment(worker, reps, seed, "MSE experiment", "mse", ns, ks,
                       tuple(estimators))


def _coverage_rep(cfg, ns, level, methods, probes, rep: int):
    """Coverage flags of each method's interval, and failure codes, of one
    replication of the coverage experiment at k = cfg.k."""
    _, _, (x_max,) = _samples(cfg, rep, ns, (cfg.k,))
    records = [_pipeline.MomentRecord.of(x_max[:n]) for n in ns]
    n = np.array(ns)[:, None]
    slope = _demixing_statistic(2, SUPPLY_DEMAND_PATTERN, (0, 1))
    results = [_resampled(records, probes, slope, method) for method in methods]
    variances = np.stack([res.omega[:, 0, 0] for res in results], axis=1) / n
    # A failed resample or, for the delta method, sixth moments out of range
    # fail one method.  Both intervals are centred on the point, so a cell
    # whose point fails, as in Table 1, fails for both: every method's
    # anchors and labels are those of the one estimate.
    estimate = results[0]
    codes = np.where(np.stack([res.failure for res in results], axis=1) != 0,
                     _CODE["ill_conditioned"], 0)
    codes[estimate.labels[0]] = _CODE["labeling"]
    codes[estimate.anchors.ill_conditioned] = _CODE["ill_conditioned"]
    half = stats.norm.ppf((1.0 + level) / 2.0) * np.sqrt(variances)
    covered = (estimate.point - half <= B1_TRUE) & (B1_TRUE <= estimate.point + half)
    return np.where(codes == 0, covered * 1.0, np.nan), codes.astype(np.int8)


def run_coverage_experiment(ns, k: float, reps: int, seed: int,
                            level: float = 0.95,
                            methods=("jackknife", "delta"),
                            kurtoses=(3.0, 4.0, 5.0)) -> McResult:
    """Empirical coverage of normal CIs for b1, per method and sample size.

    Both methods track the full pipeline statistic including labeling; the
    jackknife re-labels every resample.  `level` may be 1.0, in which case
    every interval is infinite and coverage is trivially one.
    """
    ns, (k,) = _grid(ns, (k,))
    if not 0.0 < level <= 1.0:
        raise InvalidInputError(f"level must be in (0, 1], got {level}")
    if not methods:
        raise InvalidInputError("method list is empty")
    bad = [m for m in methods if m not in _METHODS]
    if bad:
        raise InvalidInputError(f"unknown methods {bad}; pick from {list(_METHODS)}")
    if "jackknife" in methods:
        _check_jackknife_n(min(ns))
    cfg = CompositeDgpConfig(n=max(ns), k=k, kurtoses=tuple(kurtoses), seed=seed)
    probes = ProbeVectors.draw(2, seed)
    worker = functools.partial(_coverage_rep, cfg, ns, level, tuple(methods), probes)
    return _experiment(worker, reps, seed, "coverage experiment", "coverage",
                       ns, (k,), tuple(methods))


def _cell_records(x: np.ndarray, ns):
    """The moment records of the (n, k) cells of a (K, N, 2) sample stack,
    n-major, made as they are read: one moment stack per n, and each
    cell's record a view into it."""
    for n in ns:
        yield from map(_pipeline.MomentRecord, x[:, :n], *_centered_moments(x[:, :n]))


def _power_rep(cfg, ns, ks, alpha, probes, method, rep: int):
    """Rejections at level `alpha`, and failure codes, of one replication
    of the test rejection grid."""
    _, _, x = _samples(cfg, rep, ns, ks)
    res = _wald_stack(_cell_records(x, ns), probes, method)
    codes = np.where(res.failure != 0, _CODE["ill_conditioned"], 0).astype(np.int8)
    codes[res.failure == _FAIL_OMEGA] = _CODE["omega_ill_conditioned"]
    return np.where(codes == 0, (res.p_value < alpha) * 1.0, np.nan), codes


def run_overid_power_experiment(ns, ks, reps: int, seed: int,
                                alpha: float = 0.05, method: str = "delta",
                                kurtoses=(3.0, 4.0, 5.0)) -> McResult:
    """Rejection rates of the joint-diagonality test on an (n, k) grid.

    A single probe direction w1 is drawn once for the whole experiment
    (w2 stays at the all-ones anchor); k = 0 cells measure size, k > 0
    cells measure power against correlated composite errors.
    """
    ns, ks = _grid(ns, ks)
    if not 0.0 < alpha <= 1.0:
        raise InvalidInputError(f"alpha must be in (0, 1], got {alpha}")
    _check_method(method)
    cfg = CompositeDgpConfig(n=max(ns), k=0.0, kurtoses=tuple(kurtoses), seed=seed)
    probes = ProbeVectors.draw(2, seed)
    worker = functools.partial(_power_rep, cfg, ns, ks, alpha, probes, method)
    return _experiment(worker, reps, seed, "size/power experiment", "rejection",
                       ns, ks, ("wald",))


def load_experiment_config(path) -> dict:
    """Parse the plain key-value experiment config file at `path`.

    One `key = value` pair per line; `#` starts a comment; list values are
    comma separated.  Recognized keys: table, ns, ks, k, reps, seed, alpha,
    level, kurtoses, estimators, methods.  All values are returned as
    strings or lists of strings; the caller owns the type conversions.
    """
    with open(path, "rb") as fh:
        return parse_experiment_config(fh.read(), path)


def parse_experiment_config(data: bytes, path) -> dict:
    """:func:`load_experiment_config` on the bytes of a config file.

    The bytes are decoded and split into lines as ``open(path)`` would;
    errors name `path` and the line.
    """
    known = {
        "table", "ns", "ks", "k", "reps", "seed", "alpha", "level",
        "kurtoses", "estimators", "methods",
    }
    out: dict = {}
    with io.TextIOWrapper(io.BytesIO(data)) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(f"{path}: line {ln}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise InvalidInputError(f"{path}: line {ln}: unknown key {key!r}")
            items = [v.strip() for v in value.split(",") if v.strip()]
            if not items:
                raise InvalidInputError(f"{path}: line {ln}: empty value for {key!r}")
            out[key] = items if len(items) > 1 else items[0]
    return out


def write_mc_csv(result: McResult, path, extra_header=()) -> None:
    """Emit an McResult as a CSV table in the matching report layout.

    MSE tables list one row per (n, k) cell with one column per estimator;
    coverage tables one row per method with one column per n; rejection
    tables one row per n with one column per k.  Header comment lines carry
    the seed, replication count and library versions; no timestamps, so
    identical runs produce identical bytes.
    """
    import scipy

    lines = [
        f"# cumident {__version__}",
        f"# numpy {np.__version__} scipy {scipy.__version__}",
        f"# kind: {result.kind}",
        f"# seed: {result.seed}",
        f"# replications: {result.replications}",
        f"# failures-total: {int(result.failures.sum())}",
        *(f"# failures-{reason}: {int(count.sum())}"
          for reason, count in result.failure_reasons.items()),
    ]
    lines.extend(f"# {extra}" for extra in extra_header)
    if result.kind == "mse":
        lines.append(",".join(["n", "k", *result.series]))
        for a, n in enumerate(result.ns):
            for b, k in enumerate(result.ks):
                cells = ["%.10g" % v for v in result.values[a, b]]
                lines.append(f"{n},{k:g}," + ",".join(cells))
    elif result.kind == "coverage":
        lines.append(",".join(["method", *[f"n={n}" for n in result.ns]]))
        for c, name in enumerate(result.series):
            cells = ["%.10g" % result.values[a, 0, c] for a in range(len(result.ns))]
            lines.append(name + "," + ",".join(cells))
    elif result.kind == "rejection":
        lines.append(",".join(["n", *[f"k={k:g}" for k in result.ks]]))
        for a, n in enumerate(result.ns):
            cells = ["%.10g" % result.values[a, b, 0] for b in range(len(result.ks))]
            lines.append(str(n) + "," + ",".join(cells))
    else:
        raise InvalidInputError(f"unknown result kind {result.kind!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
