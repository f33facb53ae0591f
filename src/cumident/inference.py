"""Delta-method and delete-1 jackknife inference for the plug-in estimator.

Scale conventions (stated once, used everywhere):

* ``DeltaVarianceResult.sigma_u`` is the asymptotic covariance of
  sqrt(n) * (estimate - truth); :func:`confidence_interval` therefore
  divides it by n.
* ``JackknifeResult.variance`` is the classical delete-1 estimate of the
  variance of the estimate itself (no sqrt(n) scaling);
  :func:`jackknife_confidence_interval` uses it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats

from . import _pipeline
from .errors import InvalidInputError
from .identify import COND_CAP, ProbeVectors
from .moments import (
    RawMomentVector,
    column_means,
    monomial_matrix,
    monomial_tuples,
    validate_sample,
)

FD_STEP_SCALE = float(np.cbrt(np.finfo(float).eps))

MIN_JACKKNIFE_N = 30


@dataclass
class DeltaVarianceResult:
    """Plug-in delta-method covariance over the raw-moment vector.

    `sigma_u` is J Sigma_M J' on the sqrt(n) scale; `jacobian` has one
    column per monomial, in the package-wide monomial order.
    """

    sigma_u: np.ndarray
    jacobian: np.ndarray
    sigma_m: np.ndarray
    fd_step: float


@dataclass
class JackknifeResult:
    """Delete-1 jackknife estimates and their covariance (estimate scale).

    `aligned` records that the estimator (including orientation and any
    labeling) was re-applied identically on every resample; `label_flips`
    counts resamples whose labeling permutation differed from the
    full-sample one, `tie_count` the resamples whose sign labeling tied on
    mismatch count (and was settled by the margin), `gap_count` the
    resamples that hit the eigen-gap safeguard, and `eig_fallbacks` the
    resamples whose eigenpairs the anchored refinement handed back to
    LAPACK.  None is trimmed: fragile identification is reported, not
    hidden.  `full_estimate` is the statistic on the full sample, laid out
    as one row of `estimates`, and `full_tie` whether its sign labeling tied
    on mismatch count (None without a pattern).
    """

    estimates: np.ndarray
    variance: np.ndarray
    aligned: bool = True
    label_flips: int | None = None
    gap_count: int = 0
    tie_count: int | None = None
    eig_fallbacks: int = 0
    full_estimate: np.ndarray | None = None
    full_tie: bool | None = None


def _fd_steps(values: np.ndarray) -> np.ndarray:
    return FD_STEP_SCALE * np.maximum(1.0, np.abs(values))


def _moment_values(m) -> np.ndarray:
    if isinstance(m, RawMomentVector):
        return m.values
    return np.asarray(m, dtype=float)


def numerical_jacobian(statistic: Callable, m_hat) -> np.ndarray:
    """Central-difference Jacobian of a statistic of the raw moments.

    The step for coordinate j is cbrt(machine eps) * max(1, |m_j|); columns
    follow the package-wide monomial order.  A statistic failure at a
    perturbed point is re-raised naming the offending coordinate.
    """
    m = _moment_values(m_hat)
    steps = _fd_steps(m)
    cols = []
    for j in range(m.size):
        bumped = m.copy()
        try:
            bumped[j] = m[j] + steps[j]
            up = np.atleast_1d(np.asarray(statistic(bumped), dtype=float))
            bumped[j] = m[j] - steps[j]
            down = np.atleast_1d(np.asarray(statistic(bumped), dtype=float))
        except Exception as exc:
            raise RuntimeError(
                f"statistic evaluation failed while perturbing moment "
                f"coordinate {j} ({_coordinate_name(m_hat, j)}): {exc}"
            ) from exc
        cols.append((up - down) / (2.0 * steps[j]))
    return np.column_stack(cols)


def _coordinate_name(m_hat, j: int) -> str:
    if isinstance(m_hat, RawMomentVector):
        return "monomial " + str(monomial_tuples(m_hat.d)[j])
    return "index " + str(j)


def moment_covariance(data) -> np.ndarray:
    """Centered covariance of the per-observation monomials (1/n divisor)."""
    z = monomial_matrix(data)
    zc = z - z.mean(axis=0)
    return zc.T @ zc / z.shape[0]


def _check_sixth_moments(x: np.ndarray) -> None:
    sixth = np.mean((x**2).sum(axis=1) ** 3)
    if not np.isfinite(sixth):
        raise ValueError(
            "sixth-moment estimate overflowed; delta-method covariances "
            "require finite sixth moments"
        )


def delta_variance_statistic(data, statistic: Callable | None = None,
                             batch_statistic: Callable | None = None
                             ) -> DeltaVarianceResult:
    """Delta-method covariance for any statistic of the raw moments.

    `statistic` maps a moment vector (length binom(d+3,3)-1) to a p-vector.
    When `batch_statistic` is supplied it must map a (B, D) stack to
    (B, p) and is used to evaluate all central-difference points in one
    call; it is the caller's promise that the two agree.
    """
    if statistic is None and batch_statistic is None:
        raise ValueError("provide statistic or batch_statistic")
    x = validate_sample(data)
    _check_sixth_moments(x)
    z = monomial_matrix(x)
    return _delta_from_monomials(z, column_means(z), statistic, batch_statistic)


def _delta_from_monomials(z: np.ndarray, m_hat: np.ndarray,
                          statistic: Callable | None,
                          batch_statistic: Callable | None
                          ) -> DeltaVarianceResult:
    """:func:`delta_variance_statistic` from the monomial matrix `z` and its
    column means `m_hat`."""
    zc = z - m_hat
    sigma_m = zc.T @ zc / z.shape[0]
    if batch_statistic is not None:
        jac = _pipeline.batched_jacobian(batch_statistic, m_hat, _fd_steps(m_hat))
    else:
        jac = numerical_jacobian(statistic, m_hat)
    sigma_u = jac @ sigma_m @ jac.T
    sigma_u = (sigma_u + sigma_u.T) / 2.0
    return DeltaVarianceResult(
        sigma_u=sigma_u, jacobian=jac, sigma_m=sigma_m, fd_step=FD_STEP_SCALE
    )


def delta_variance(data, probes: ProbeVectors, k: int | str = "all",
                   rule: str = "A") -> DeltaVarianceResult:
    """Delta-method covariance of the oriented demixing eigenvector rows.

    With an integer `k`, covers sqrt(n) times the error of row k; with
    "all", the d*d rows stacked row-major.  The differentiated map is the
    full pipeline moments -> cumulants -> contractions -> eigendecomposition
    -> orientation, so eigenvalue ordering and sign conventions are part of
    the statistic.
    """
    x = validate_sample(data, min_cols=2)
    d = x.shape[1]

    def batch(ms):
        rows, _, _, _ = _pipeline.demix_rows(ms, d, probes.w1, probes.w2, rule)
        if k == "all":
            return rows.reshape(ms.shape[0], d * d)
        return rows[:, k, :]

    return _anchored_delta(x, probes, rule, batch)


def delta_variance_labeled(data, probes: ProbeVectors, pattern,
                           entry: tuple[int, int] | None = (0, 1),
                           rule: str = "A") -> DeltaVarianceResult:
    """Delta-method variance of one entry of the sign-labeled demixing matrix,
    or with `entry` None of the whole matrix, stacked row-major.

    The differentiated statistic is the full pipeline including the sign
    labeling and diagonal normalization, so this is the right variance for
    a structural coefficient such as a normalized slope.
    """
    x = validate_sample(data, min_cols=2)
    d = x.shape[1]
    pattern = np.asarray(pattern)

    def batch(ms):
        values, _ = _pipeline.labeled_entry(
            ms, d, probes.w1, probes.w2, pattern, entry, rule
        )
        return values

    return _anchored_delta(x, probes, rule, batch)


def _anchored_delta(x: np.ndarray, probes: ProbeVectors, rule: str,
                    batch: Callable) -> DeltaVarianceResult:
    """Delta method for a demixing statistic, after the anchor check.

    A singular anchor contraction is rejected up front; the perturbed
    evaluations would otherwise solve through it silently.  The monomial
    matrix is built once, for the anchor and the moment covariance.
    """
    z = monomial_matrix(x)
    m_hat = column_means(z)
    _pipeline.demix_rows(
        m_hat, x.shape[1], probes.w1, probes.w2, rule, cond_cap=COND_CAP
    )
    _check_sixth_moments(x)
    return _delta_from_monomials(z, m_hat, None, batch)


def jackknife_variance(data, estimator: Callable) -> JackknifeResult:
    """Generic delete-1 jackknife for an arbitrary estimator callable.

    The estimator receives the sample minus one row and must apply the same
    normalization, orientation and labeling on every call.  The returned
    variance is ((n-1)/n) * sum of squared deviations from the resample
    mean, i.e. an estimate of Var(estimate).
    """
    x = validate_sample(data)
    n = x.shape[0]
    if n < MIN_JACKKNIFE_N:
        raise InvalidInputError(
            f"jackknife requires n >= {MIN_JACKKNIFE_N}, got {n}"
        )
    estimates = []
    for i in range(n):
        loo = np.delete(x, i, axis=0)
        try:
            estimates.append(np.atleast_1d(np.asarray(estimator(loo), dtype=float)))
        except Exception as exc:
            raise RuntimeError(
                f"leave-one-out re-estimation failed at row {i}: {exc}"
            ) from exc
    est = np.vstack(estimates)
    dev = est - est.mean(axis=0)
    variance = (n - 1) / n * (dev.T @ dev)
    return JackknifeResult(estimates=est, variance=variance, aligned=True)


def demixing_jackknife(data, probes: ProbeVectors, pattern=None,
                       entry: tuple[int, int] | None = (0, 1),
                       rule: str = "A") -> JackknifeResult:
    """Fast delete-1 jackknife of the demixing pipeline via moment downdating.

    The leave-one-out statistics are exact re-estimates (the pipeline is a
    function of the raw moments, which are downdated in closed form), just
    evaluated in one batched pass.  With `pattern` given, the tracked
    statistic is the sign-labeled, diagonal-normalized matrix, restricted to
    `entry` unless entry is None; without a pattern, all oriented unit rows,
    stacked row-major.
    """
    x = validate_sample(data, min_cols=2)
    n, d = x.shape
    if n < MIN_JACKKNIFE_N:
        raise InvalidInputError(
            f"jackknife requires n >= {MIN_JACKKNIFE_N}, got {n}"
        )
    z = monomial_matrix(x)
    rows, gap_flags, _, fallbacks = _pipeline.leave_one_out_rows(
        x, z, d, probes.w1, probes.w2, rule
    )
    full_rows, _, _, _ = _pipeline.demix_rows(
        column_means(z), d, probes.w1, probes.w2, rule
    )
    label_flips = tie_count = full_tie = None
    if pattern is None:
        est = rows.reshape(n, d * d).copy()
        full = full_rows.reshape(d * d)
    else:
        lam, _, ties, perm_index, _ = _pipeline.label_signs(rows, pattern)
        full_lam, _, full_tie, full_perm, _ = _pipeline.label_signs(
            full_rows, pattern
        )
        tie_count = int(np.sum(ties))
        label_flips = int(np.sum(perm_index != full_perm))
        if entry is None:
            est = lam.reshape(n, d * d)
            full = full_lam.reshape(d * d)
        else:
            est = lam[:, entry[0], entry[1]][:, None]
            full = full_lam[entry[0], entry[1]][None]
    dev = est - est.mean(axis=0)
    variance = (n - 1) / n * (dev.T @ dev)
    return JackknifeResult(
        estimates=est,
        variance=variance,
        aligned=True,
        label_flips=label_flips,
        gap_count=int(np.sum(gap_flags)),
        tie_count=tie_count,
        eig_fallbacks=int(np.sum(fallbacks)),
        full_estimate=full,
        full_tie=full_tie,
    )


def confidence_interval(point: float, variance: float, n: int,
                        level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation interval from a sqrt(n)-scale variance.

    The interval is point +/- z_{(1+level)/2} * sqrt(variance / n); pass a
    delta-method `sigma_u` entry directly.  For a jackknife variance (which
    is already on the estimate scale) use
    :func:`jackknife_confidence_interval` instead.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if variance < 0.0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    half = stats.norm.ppf((1.0 + level) / 2.0) * np.sqrt(variance / n)
    return float(point - half), float(point + half)


def jackknife_confidence_interval(point: float, variance: float,
                                  level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation interval from a jackknife (estimate-scale) variance."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if variance < 0.0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    half = stats.norm.ppf((1.0 + level) / 2.0) * np.sqrt(variance)
    return float(point - half), float(point + half)
