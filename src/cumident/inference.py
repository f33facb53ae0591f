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
from .errors import IllConditionedError, InvalidInputError
from .identify import COND_CAP, ProbeVectors
from .moments import _moment_index, validate_sample

FD_STEP_SCALE = float(np.cbrt(np.finfo(float).eps))

MIN_JACKKNIFE_N = 30


@dataclass
class DeltaVarianceResult:
    """Plug-in delta-method covariance over the moments of the centered sample.

    `sigma_u` is J Sigma_M J' on the sqrt(n) scale; `jacobian` has one
    column per monomial, in the package-wide monomial order, and `fd_step`
    the central-difference step along each (see :func:`_fd_steps`).
    """

    sigma_u: np.ndarray
    jacobian: np.ndarray
    sigma_m: np.ndarray
    fd_step: np.ndarray


@dataclass
class JackknifeResult:
    """Delete-1 jackknife estimates and their covariance (estimate scale).

    The estimator, orientation and any labeling included, is re-applied
    identically on every resample.  `label_flips` counts resamples whose
    labeling permutation differed from the full-sample one, `tie_count` the resamples whose sign labeling tied on
    mismatch count (and was settled by the margin), `gap_count` the
    resamples that hit the eigen-gap safeguard, and `eig_fallbacks` the
    resamples whose eigenpairs the pencil kernel handed back to LAPACK.
    None is trimmed: fragile identification is reported, not hidden.
    `full_estimate` is the statistic on the full sample, laid out as one row
    of `estimates`, and `full_tie` whether its sign labeling tied on
    mismatch count (None without a pattern).
    """

    estimates: np.ndarray
    variance: np.ndarray
    label_flips: int | None = None
    gap_count: int = 0
    tie_count: int | None = None
    eig_fallbacks: int = 0
    full_estimate: np.ndarray | None = None
    full_tie: bool | None = None


def _fd_steps(sigma_m: np.ndarray) -> np.ndarray:
    """Central-difference steps for the moments: FD_STEP_SCALE times each
    moment's standard deviation, read off the diagonal of Sigma_m (or of
    each of a stack of them), so they scale with the data; FD_STEP_SCALE
    itself for a moment that does not vary."""
    sd = np.sqrt(np.diagonal(sigma_m, axis1=-2, axis2=-1))
    return FD_STEP_SCALE * np.where(sd > 0.0, sd, 1.0)


def _check_jackknife_n(n: int, what: str = "jackknife") -> None:
    if n < MIN_JACKKNIFE_N:
        raise InvalidInputError(f"{what} requires n >= {MIN_JACKKNIFE_N}, got {n}")


_SIXTH_MOMENT_ERROR = ("sixth-moment estimate overflowed or underflowed; delta-method "
                       "covariances require sixth moments in floating-point range")


def _sixth_moments_fail(sigma_m: np.ndarray, d: int) -> bool:
    """Whether Sigma_m, the centered sixth-order products the delta method
    uses, is not finite, or the variance of a centered cube z_j^3 is below
    the normal range while z_j varies (it underflowed)."""
    var = np.diagonal(sigma_m)
    cubes = var[[_moment_index(d)[(j, j, j)] for j in range(d)]]
    underflow = (var[:d] > 0.0) & (cubes < np.finfo(float).tiny)
    return not np.isfinite(sigma_m).all() or bool(underflow.any())


def delta_variance_statistic(data, batch_statistic: Callable) -> DeltaVarianceResult:
    """Delta-method covariance for any statistic of the raw moments.

    `batch_statistic` maps a (B, D) stack of moment vectors (D =
    binom(d+3,3)-1) to (B, p); all central-difference points are evaluated
    in one call.  The vectors are the moments of the centered sample (raw
    moments about the sample mean), so a location-invariant statistic, such
    as anything the demixing pipeline computes, gets a shift-invariant
    variance.
    """
    x = validate_sample(data)
    return _record_delta(_pipeline.moment_record(x), batch_statistic)


def _record_delta(record: _pipeline.MomentRecord,
                  batch_statistic: Callable) -> DeltaVarianceResult:
    """:func:`delta_variance_statistic` of the sample of `record`; ValueError
    when its sixth moments fail (:func:`_sixth_moments_fail`)."""
    if _sixth_moments_fail(record.sigma_m(), record.x.shape[1]):
        raise ValueError(_SIXTH_MOMENT_ERROR)
    return _delta_from_moments(record.sigma_m().copy(), record.m_hat, batch_statistic)


def _delta_from_moments(sigma_m: np.ndarray, m_hat: np.ndarray,
                        batch_statistic: Callable) -> DeltaVarianceResult:
    """:func:`delta_variance_statistic` from the moment covariance and the
    moments of one sample, or from (C, D, D) and (C, D) stacks of C samples,
    whose fields then carry a leading sample axis."""
    steps = _fd_steps(sigma_m)
    jac = _pipeline.batched_jacobian(batch_statistic, m_hat, steps)
    sigma_u = jac @ sigma_m @ np.swapaxes(jac, -2, -1)
    sigma_u = (sigma_u + np.swapaxes(sigma_u, -2, -1)) / 2.0
    return DeltaVarianceResult(sigma_u, jac, sigma_m, steps)


def delta_variance(data, probes: ProbeVectors) -> DeltaVarianceResult:
    """Delta-method covariance of the oriented demixing eigenvector rows.

    Covers sqrt(n) times the error of the d*d entries, the rows stacked
    row-major.  The differentiated map is the full pipeline moments ->
    cumulants -> contractions -> eigendecomposition -> orientation, so
    eigenvalue ordering and sign conventions are part of the statistic.
    """
    x = validate_sample(data, min_cols=2)
    d = x.shape[1]

    def batch(ms):
        rows = _pipeline.demix_rows(ms, d, probes.w1, probes.w2).rows
        return rows.reshape(ms.shape[0], d * d)

    return _anchored_delta(x, probes, batch)


def delta_variance_labeled(data, probes: ProbeVectors, pattern,
                           entry: tuple[int, int] | None = (0, 1)
                           ) -> DeltaVarianceResult:
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
        return _pipeline.labeled_entry(ms, d, probes.w1, probes.w2, pattern,
                                       entry)

    return _anchored_delta(x, probes, batch)


def _anchored_delta(x: np.ndarray, probes: ProbeVectors,
                    batch: Callable) -> DeltaVarianceResult:
    """Delta method for a demixing statistic, after the anchor check.

    A singular anchor contraction is rejected up front; the perturbed
    evaluations would otherwise solve through it silently.  A singular
    perturbed point (NaN in the Jacobian) raises too.  The anchor and the
    moment covariance come from the sample's moment record.
    """
    record = _pipeline.moment_record(x)
    _pipeline._raise_ill_conditioned(_pipeline.demix_rows(
        record.m_hat, x.shape[1], probes.w1, probes.w2, cond_cap=COND_CAP))
    res = _record_delta(record, batch)
    if not np.isfinite(res.jacobian).all():
        raise IllConditionedError(
            "singular contraction at w2 at a finite-difference point", float("inf"))
    return res


def _delete1_variance(est: np.ndarray) -> np.ndarray:
    """((n-1)/n) times the sum of squared deviations of the (n, p) delete-1
    estimates from their mean: the jackknife estimate of Var(estimate)."""
    n = est.shape[0]
    dev = est - est.mean(axis=0)
    return (n - 1) / n * (dev.T @ dev)


def demixing_jackknife(data, probes: ProbeVectors, pattern=None,
                       entry: tuple[int, int] | None = (0, 1)) -> JackknifeResult:
    """Fast delete-1 jackknife of the demixing pipeline via moment downdating.

    The leave-one-out statistics are exact re-estimates, evaluated in one
    batched pass: the moments about the full-sample mean are downdated in
    closed form, and the cumulant map is exact for any origin.  With
    `pattern` given, the tracked statistic is the sign-labeled,
    diagonal-normalized matrix, restricted to `entry` unless entry is None;
    without a pattern, all oriented unit rows, stacked row-major.
    """
    x = validate_sample(data, min_cols=2)
    n, d = x.shape
    _check_jackknife_n(n)
    record = _pipeline.moment_record(x)
    demixed, _ = record.leave_one_out(probes.w1, probes.w2)
    _pipeline._raise_ill_conditioned(demixed, "a delete-1 resample")
    centre = _pipeline.demix_rows(record.m_hat, d, probes.w1, probes.w2)
    _pipeline._raise_ill_conditioned(centre)
    label_flips = tie_count = full_tie = None
    if pattern is None:
        est = demixed.rows.reshape(n, d * d).copy()
        full = centre.rows.reshape(d * d)
    else:
        lam, _, ties, perm_index, _ = _pipeline.label_signs(demixed.rows, pattern)
        full_lam, _, full_tie, full_perm, _ = _pipeline.label_signs(
            centre.rows, pattern
        )
        tie_count = int(np.sum(ties))
        label_flips = int(np.sum(perm_index != full_perm))
        if entry is None:
            est = lam.reshape(n, d * d)
            full = full_lam.reshape(d * d)
        else:
            est = lam[:, entry[0], entry[1]][:, None]
            full = full_lam[entry[0], entry[1]][None]
    return JackknifeResult(
        estimates=est,
        variance=_delete1_variance(est),
        label_flips=label_flips,
        gap_count=int(np.sum(demixed.gap_flags)),
        tie_count=tie_count,
        eig_fallbacks=int(np.sum(demixed.eig_fallbacks)),
        full_estimate=full,
        full_tie=full_tie,
    )


def confidence_interval(point: float, variance: float, n: int,
                        level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation interval from a sqrt(n)-scale variance.

    The interval is point +/- z_{(1+level)/2} * sqrt(variance / n); pass a
    delta-method `sigma_u` entry directly.  For a jackknife variance (which
    is already on the estimate scale) use
    :func:`jackknife_confidence_interval` instead, of which this is the
    view at variance / n.
    """
    return jackknife_confidence_interval(point, variance / n, level)


def jackknife_confidence_interval(point: float, variance: float,
                                  level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation interval from a jackknife (estimate-scale) variance."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if not variance >= 0.0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    half = stats.norm.ppf((1.0 + level) / 2.0) * np.sqrt(variance)
    return float(point - half), float(point + half)
