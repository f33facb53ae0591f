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
from .inference import (_check_jackknife_n, _delete1_variance,
                        _delta_from_moments)
from .moments import _centered_moments, _moment_covariance
from .overid import OMEGA_COND_CAP, _wald_stack

LAMBDA_TRUE = np.array([[1.0, 1.5], [-0.5, 1.0]])
GAMMA_LOADINGS = np.array([[0.5, -1.0, 1.5], [-1.0, 1.0, -1.0]])
MEAS_COV = np.array([[1.0, -0.45], [-0.45, 0.25]])
# Transposed Cholesky factor of MEAS_COV: white noise times it has MEAS_COV.
_MEAS_FACTOR = np.linalg.cholesky(MEAS_COV).T
SUPPLY_DEMAND_PATTERN = np.array([[1, 1], [-1, 1]])
B1_TRUE = 1.5

# Why a Monte Carlo cell has no value: G(w2) over COND_CAP or singular (at
# the sample, a finite-difference point or a delete-1 resample), or sixth
# moments out of range for the delta method; no valid or a tied sign
# labeling; cond(Omega) over OMEGA_COND_CAP; or a weak instrument.  Workers
# report each failed cell by its reason's code, 0 marking a cell that stands.
FAILURE_REASONS = ("ill_conditioned", "labeling", "omega_ill_conditioned",
                   "weak_instrument")
_CODE = {name: i + 1 for i, name in enumerate(FAILURE_REASONS)}


def worker_count() -> int:
    """Replication workers: CUMIDENT_THREADS (default 1), at most the CPU count.

    A value that is not a positive integer raises InvalidInputError.
    """
    env = os.environ.get("CUMIDENT_THREADS", "").strip()
    if not env:
        return 1
    if not env.isdecimal() or int(env) == 0:
        raise InvalidInputError(
            f"CUMIDENT_THREADS must be a positive integer, got {env!r}"
        )
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
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.k < 0:
            raise ValueError(f"noise scale k must be >= 0, got {self.k}")
        if len(self.kurtoses) != GAMMA_LOADINGS.shape[1]:
            raise ValueError("one kurtosis per omitted-shock column required")
        if any(kappa < 3.0 for kappa in self.kurtoses):
            raise ValueError("kurtoses below 3 are outside the symmetric family")


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
        raise ValueError(
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


def _assemble(s, e, eps, k: float) -> np.ndarray:
    rhs = s + np.sqrt(k / 3.0) * e @ GAMMA_LOADINGS.T
    x_star = np.linalg.solve(LAMBDA_TRUE, rhs.T).T
    return x_star + np.sqrt(k) * eps


def gen_composite(cfg: CompositeDgpConfig, rep: int) -> CompositeDraw:
    """Generate one replication of the composite-error design.

    Gamma(1,1) shifters are drawn as standard exponentials (the same law).
    At k = 0 the structural errors are exactly the independent shifters.
    """
    s, e, eps, z = _draw_primitives(cfg, rep, cfg.n)
    return CompositeDraw(x=_assemble(s, e, eps, cfg.k), s=s, z=z)


def iv_2sls(y, x, z) -> float:
    """Just-identified 2SLS slope (z'y)/(z'x) on demeaned inputs."""
    y = np.asarray(y, dtype=float) - np.mean(y)
    x = np.asarray(x, dtype=float) - np.mean(x)
    z = np.asarray(z, dtype=float) - np.mean(z)
    denom = z @ x
    if abs(denom) <= 1e-10 * np.linalg.norm(z) * np.linalg.norm(x):
        raise WeakInstrumentError(
            f"instrument-regressor inner product {denom:.3e} is numerically zero"
        )
    return float(z @ y / denom)


def _eigen_slopes(ms: np.ndarray, probes: ProbeVectors):
    """Slope b1 and failure code of :func:`estimate_demixing` then
    :func:`label_by_signs` (on_tie="error") on each sample of a (cells, D)
    stack of centered moment vectors, as one demixing and one labeling
    call."""
    demixed = _pipeline.demix_rows(ms, 2, probes.w1, probes.w2, cond_cap=COND_CAP)
    lam, _, tied, _, _ = _pipeline.label_signs(demixed.rows, SUPPLY_DEMAND_PATTERN)
    codes = np.where(tied, _CODE["labeling"], 0)
    codes[demixed.ill_conditioned] = _CODE["ill_conditioned"]
    return lam[:, 0, 1], codes


def _iv1_b1(draw_x: np.ndarray, s: np.ndarray, z: np.ndarray) -> float:
    return -iv_2sls(draw_x[:, 0], draw_x[:, 1], s[:, 1])


def _iv2_b1(draw_x: np.ndarray, s: np.ndarray, z: np.ndarray) -> float:
    diluted = np.sqrt(0.3) * s[:, 1] + np.sqrt(0.7) * z
    return -iv_2sls(draw_x[:, 0], draw_x[:, 1], diluted)


_ESTIMATORS = {"eigen": None, "iv1": _iv1_b1, "iv2": _iv2_b1}


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
        raise ValueError(f"reps must be >= 1, got {reps}")
    outs, codes = zip(*_map_reps(worker, reps))
    shape = (reps, len(ns), len(ks), len(series))
    per_rep, codes = np.reshape(outs, shape), np.reshape(codes, shape)
    failures = np.isnan(per_rep).sum(axis=0)
    _check_failure_cap(failures, reps, what)
    reasons = {r: (codes == c).sum(axis=0) for r, c in _CODE.items()}
    return McResult(kind, ns, ks, series, np.nanmean(per_rep, axis=0),
                    failures, reps, seed, reasons)


def _samples(cfg, rep: int, ns, ks):
    """One replication's shifters s, instruments z and one sample per k,
    all drawn at the largest n; smaller n are their row prefixes."""
    s, e, eps, z = _draw_primitives(cfg, rep, max(ns))
    return s, z, [_assemble(s, e, eps, k) for k in ks]


# The per-replication workers are module-level functions that the run_*
# experiments bind with functools.partial, so that the CUMIDENT_THREADS
# process pool can pickle them: the function by its import path, the bound
# arguments by value.

def _mse_rep(cfg, ns, ks, estimators, probes, rep: int):
    """Squared errors of each estimator, and failure codes, of one
    replication of the MSE experiment."""
    s, z, xs = _samples(cfg, rep, ns, ks)
    shape = (len(ns), len(ks), len(estimators))
    b1 = np.full(shape, np.nan)
    codes = np.zeros(shape, dtype=np.int8)
    for c, name in enumerate(estimators):
        if name == "eigen":
            slopes, fail = _eigen_slopes(np.stack([
                _centered_moments(x[:n])[1] for n in ns for x in xs
            ]), probes)
            b1[..., c] = slopes.reshape(shape[:2])
            codes[..., c] = fail.reshape(shape[:2])
            continue
        for a, n in enumerate(ns):
            for b, x in enumerate(xs):
                try:
                    b1[a, b, c] = _ESTIMATORS[name](x[:n], s[:n], z[:n])
                except WeakInstrumentError:
                    codes[a, b, c] = _CODE["weak_instrument"]
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
    ns, ks = tuple(int(n) for n in ns), tuple(float(k) for k in ks)
    if not estimators:
        raise ValueError("estimator list is empty")
    unknown = [e for e in estimators if e not in _ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimators {unknown}; pick from {sorted(_ESTIMATORS)}")
    cfg = CompositeDgpConfig(n=max(ns), k=0.0, kurtoses=tuple(kurtoses), seed=seed)
    probes = ProbeVectors.draw(2, seed)
    worker = functools.partial(_mse_rep, cfg, ns, ks, tuple(estimators), probes)
    return _experiment(worker, reps, seed, "MSE experiment", "mse", ns, ks,
                       tuple(estimators))


def _jackknife_variances(zs, ms, probes: ProbeVectors) -> np.ndarray:
    """Delete-1 variance of the labeled slope of each sample, from its
    centered monomials `zs`: one demixing and one labeling call over the
    concatenated delete-1 moment stacks, as :func:`demixing_jackknife` per
    sample.  NaN for a sample with a singular resample, whose NaN rows
    label to a NaN slope."""
    loo = np.concatenate([_pipeline.leave_one_out_moments(z) for z in zs])
    rows = _pipeline.demix_rows(loo, 2, probes.w1, probes.w2).rows
    slopes = _pipeline.label_signs(rows, SUPPLY_DEMAND_PATTERN)[0][:, 0, 1]
    cuts = np.cumsum([len(z) for z in zs])[:-1]
    return np.array([_delete1_variance(s[:, None])[0, 0]
                     for s in np.split(slopes, cuts)])


def _delta_variances(zs, ms, probes: ProbeVectors) -> np.ndarray:
    """Delta-method variance of the labeled slope of each sample, as
    :func:`delta_variance_labeled`, from one finite-difference stack over
    the samples.  NaN where a finite-difference point has a singular G(w2),
    whose labeled entry is NaN."""
    sigma_u = _delta_from_moments(
        np.stack([_moment_covariance(z, m) for z, m in zip(zs, ms)]), ms,
        lambda s: _pipeline.labeled_entry(
            s, 2, probes.w1, probes.w2, SUPPLY_DEMAND_PATTERN, (0, 1)),
    ).sigma_u
    return sigma_u[:, 0, 0] / [len(z) for z in zs]


_VARIANCES = {"jackknife": _jackknife_variances, "delta": _delta_variances}


def _coverage_rep(cfg, ns, level, methods, probes, rep: int):
    """Coverage flags of each method's interval, and failure codes, of one
    replication of the coverage experiment at k = cfg.k."""
    _, _, (x_max,) = _samples(cfg, rep, ns, (cfg.k,))
    zs, ms = zip(*(_centered_moments(x_max[:n]) for n in ns))
    ms = np.stack(ms)
    point, fail = _eigen_slopes(ms, probes)
    # Both intervals are centred on the point, so only the cells whose
    # point stands get variances; a non-finite one marks a singular
    # resample.
    ok = fail == 0
    variances = np.full((len(ns), len(methods)), np.nan)
    if ok.any():
        zs = [z for z, keep in zip(zs, ok) if keep]
        for c, method in enumerate(methods):
            variances[ok, c] = _VARIANCES[method](zs, ms[ok], probes)
    codes = np.where(np.isfinite(variances), 0, _CODE["ill_conditioned"])
    codes[~ok] = fail[~ok, None]
    half = stats.norm.ppf((1.0 + level) / 2.0) * np.sqrt(variances)
    point = point[:, None]
    covered = (point - half <= B1_TRUE) & (B1_TRUE <= point + half)
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
    ns = tuple(int(n) for n in ns)
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must be in (0, 1], got {level}")
    bad = [m for m in methods if m not in _VARIANCES]
    if bad:
        raise ValueError(f"unknown methods {bad}")
    if "jackknife" in methods:
        _check_jackknife_n(min(ns))
    cfg = CompositeDgpConfig(n=max(ns), k=float(k), kurtoses=tuple(kurtoses), seed=seed)
    probes = ProbeVectors.draw(2, seed)
    worker = functools.partial(_coverage_rep, cfg, ns, level, tuple(methods), probes)
    return _experiment(worker, reps, seed, "coverage experiment", "coverage",
                       ns, (float(k),), tuple(methods))


def _power_rep(cfg, ns, ks, alpha, probes, method, rep: int):
    """Rejections at level `alpha`, and failure codes, of one replication
    of the test rejection grid."""
    _, _, xs = _samples(cfg, rep, ns, ks)
    res = _wald_stack([x[:n] for n in ns for x in xs], probes, method)
    codes = np.where(res.omega_cond <= OMEGA_COND_CAP, 0,
                     _CODE["omega_ill_conditioned"]).astype(np.int8)
    failed = res.moments_fail | res.anchors.ill_conditioned | res.resample_singular
    codes[failed] = _CODE["ill_conditioned"]
    return np.where(codes == 0, (res.p_value < alpha) * 1.0, np.nan), codes


def run_overid_power_experiment(ns, ks, reps: int, seed: int,
                                alpha: float = 0.05, method: str = "delta",
                                kurtoses=(3.0, 4.0, 5.0)) -> McResult:
    """Rejection rates of the joint-diagonality test on an (n, k) grid.

    A single probe direction w1 is drawn once for the whole experiment
    (w2 stays at the all-ones anchor); k = 0 cells measure size, k > 0
    cells measure power against correlated composite errors.
    """
    ns, ks = tuple(int(n) for n in ns), tuple(float(k) for k in ks)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if method not in ("delta", "jackknife"):
        raise ValueError(f"method must be 'delta' or 'jackknife', got {method!r}")
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
                raise ValueError(f"{path}: line {ln}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ValueError(f"{path}: line {ln}: unknown key {key!r}")
            items = [v.strip() for v in value.split(",") if v.strip()]
            if not items:
                raise ValueError(f"{path}: line {ln}: empty value for {key!r}")
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
        raise ValueError(f"unknown result kind {result.kind!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
