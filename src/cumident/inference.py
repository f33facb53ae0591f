"""Delta-method and delete-1 jackknife inference for the plug-in estimator.

Both methods run through one resampling kernel, :func:`_resampled`, on one
sample or a stack of them: the standard errors here are its b = 1 views, and
the Wald test and the coverage experiment call it on their samples.  It
flags failures; :func:`_raise_failed` raises them for one sample.

Scale conventions (stated once, used everywhere):

* ``DeltaVarianceResult.sigma_u`` is the asymptotic covariance of
  sqrt(n) * (estimate - truth); :func:`confidence_interval` therefore
  divides it by n.
* ``JackknifeResult.variance`` is the classical delete-1 estimate of the
  variance of the estimate itself (no sqrt(n) scaling);
  :func:`jackknife_confidence_interval` uses it directly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import stats

from . import _pipeline
from .errors import IllConditionedError, InvalidInputError
from .identify import COND_CAP, ProbeVectors, _warn_unstable
from .moments import _check_direction, _moment_index, validate_sample

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
    resamples LAPACK demixed (all n when the estimate has a gap flag).
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


def _check_jackknife_n(n: int) -> None:
    if n < MIN_JACKKNIFE_N:
        raise InvalidInputError(f"jackknife requires n >= {MIN_JACKKNIFE_N}, got {n}")


_SIXTH_MOMENT_ERROR = ("sixth-moment estimate overflowed or underflowed; delta-method "
                       "covariances require sixth moments in floating-point range")


def _sixth_moments_fail(sigma_m: np.ndarray, d: int) -> np.ndarray:
    """Whether Sigma_m, the centered sixth-order products the delta method
    uses, is not finite, or the variance of a centered cube z_j^3 is below
    the normal range while z_j varies (it underflowed); one flag for each
    Sigma_m of a (..., D, D) stack."""
    var = np.diagonal(sigma_m, axis1=-2, axis2=-1)
    cubes = var[..., [_moment_index(d)[(j, j, j)] for j in range(d)]]
    underflow = (var[..., :d] > 0.0) & (cubes < np.finfo(float).tiny)
    return ~np.isfinite(sigma_m).all(axis=(-2, -1)) | underflow.any(axis=-1)


def delta_variance_statistic(data, batch_statistic: Callable) -> DeltaVarianceResult:
    """Delta-method covariance for any statistic of the raw moments.

    `batch_statistic` maps a (B, D) stack of moment vectors (D =
    binom(d+3,3)-1) to (B, p); all central-difference points are evaluated
    in one call.  The vectors are the moments of the centered sample (raw
    moments about the sample mean), so a location-invariant statistic, such
    as anything the demixing pipeline computes, gets a shift-invariant
    variance.  ValueError when the sixth moments fail
    (:func:`_sixth_moments_fail`).
    """
    x = validate_sample(data)
    record = _pipeline.moment_record(x)
    if _sixth_moments_fail(record.sigma_m(), x.shape[1]):
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


_METHODS = ("delta", "jackknife")


class _Resampled(NamedTuple):
    """:func:`_resampled` of b samples, each field with a leading sample axis.

    `ns` (b,) are the sample sizes, `point` (b, p) the statistic at the
    anchors (the estimates) and `labels` the ties and orderings of its sign
    labeling, (None, None) unlabeled.  `spread` (b, p, p) is J Sigma_m J' of
    the finite-difference Jacobian J (delta), or sum dev dev' of the
    deviations of the n delete-1 statistics from their mean (jackknife); NaN
    where a flag is set.  `resamples` holds, for the samples that stand, the
    delta method's :class:`DeltaVarianceResult` (fields stacked over them),
    or per sample the (statistic, ties, flips from the sample's ordering,
    gap flags, eigen fallbacks) of its delete-1 resamples, None for the
    others.  Flags: `moments_fail`, sixth moments out of range for the delta
    method; `anchors.ill_conditioned`, a G(w2) over ``COND_CAP`` or singular
    at the full sample; `resample_singular`, a non-finite spread, as a G(w2)
    singular at a finite-difference point or delete-1 resample gives.
    """

    ns: np.ndarray
    point: np.ndarray
    labels: tuple
    spread: np.ndarray
    anchors: _pipeline.DemixedRows
    moments_fail: np.ndarray
    resample_singular: np.ndarray
    resamples: object


def _resampled(records, probes: ProbeVectors, statistic: Callable,
               method: str) -> _Resampled:
    """The delta method or the delete-1 jackknife of a demixing statistic,
    for each :class:`~cumident._pipeline.MomentRecord` in `records`.

    `statistic(rows, ms)` maps a stack of demixing rows and the moment
    vectors they were fitted to, a (B, D) array or the record's
    :class:`~cumident._pipeline.Delete1Moments`, to (values (B, p), ties,
    orderings), the last two None for an unlabeled statistic.  The values
    may be read-only views of the rows.  The anchors are demixed with
    ``COND_CAP``; the delta method then evaluates the statistic at the
    finite-difference points of every sample that stands, in one stack, and
    the jackknife at each such sample's delete-1 stack
    (:meth:`~cumident._pipeline.MomentRecord.leave_one_out`), each sample's
    points refined from its anchor rows, or by LAPACK where they have a gap
    flag.  A failure is flagged, never raised (:func:`_raise_failed` raises
    for one sample); a bad `method` or probe, fewer than d + 1 rows and a
    jackknife below ``MIN_JACKKNIFE_N`` rows raise.

    The records are read once, in order.  The delta method keeps only each
    Sigma_m, so records made as they are read have one monomial matrix alive
    at a time; the jackknife drops each record once its stack is used.
    """
    if method not in _METHODS:
        raise InvalidInputError(
            f"method must be 'delta' or 'jackknife', got {method!r}")
    delta = method == "delta"
    ms, ns, held = [], [], []
    for record in records:
        ns.append(record.x.shape[0])
        d = record.x.shape[1]
        ms.append(record.m_hat)
        held.append(record.sigma_m() if delta else record)
    w1, w2 = _check_direction(probes.w1, d), _check_direction(probes.w2, d)
    ns = np.array(ns)
    if ns.min() < d + 1:
        raise InvalidInputError(
            f"need at least d + 1 = {d + 1} observations, got {ns.min()}")
    m = np.stack(ms)
    if delta:
        held = np.stack(held)
        moments_fail = _sixth_moments_fail(held, d)
    else:
        _check_jackknife_n(ns.min())
        moments_fail = np.zeros(len(ms), dtype=bool)
    anchors = _pipeline.demix_rows(m, d, w1, w2, cond_cap=COND_CAP)
    point, *labels = statistic(anchors.rows, m)
    ok = ~(moments_fail | anchors.ill_conditioned)
    # An estimate with a gap flag anchors none of its points.
    start = np.where(anchors.gap_flags[:, None, None], np.nan, anchors.rows)
    spread = np.full(point.shape + point.shape[-1:], np.nan)
    resamples = [None] * len(ms)
    if delta and ok.any():
        resamples = _delta_from_moments(
            held[ok], m[ok],
            lambda s: statistic(_pipeline.demix_rows(s, d, w1, w2, start[ok]).rows, s)[0])
        spread[ok] = resamples.sigma_u
    elif not delta:
        for i in np.flatnonzero(ok):
            # Released after use, so a record that no one else keeps frees
            # its delete-1 rows before the next sample's are demixed.
            record, held[i] = held[i], None
            demixed = record.leave_one_out(w1, w2, start[i])
            values, ties, order = statistic(demixed.rows, record.delete1)
            if order is not None:
                # Flags, so the (n, d) orderings are not held with the spread.
                order = (order != labels[1][i]).any(-1)
            dev = values - values.mean(axis=0)
            spread[i] = dev.T @ dev
            resamples[i] = (values, ties, order, demixed.gap_flags,
                            demixed.eig_fallbacks)
    singular = ok & ~np.isfinite(spread).reshape(len(ms), -1).all(axis=1)
    return _Resampled(ns, point, tuple(labels), spread, anchors, moments_fail,
                      singular, resamples)


def _raise_failed(res, i: int, method: str, stacklevel: int | None = None) -> None:
    """Raise for sample i of a :class:`_Resampled` (or of a result with its
    flags and anchors), checked in one order: ValueError for sixth moments
    out of range, IllConditionedError for the anchor, with cond(G(w2)),
    then for a singular resample.  With a `stacklevel` (counted as for
    ``warnings.warn`` from the caller) the anchor's EigenGapWarning or
    ComplexResidueWarning comes before the resample check."""
    if res.moments_fail[i]:
        raise ValueError(_SIXTH_MOMENT_ERROR)
    anchors = res.anchors
    if anchors.ill_conditioned[i]:
        raise IllConditionedError("contraction at w2 is numerically singular",
                                  float(anchors.cond_g2[i]))
    if stacklevel is not None:
        _warn_unstable(anchors.eigenvalues[i], anchors.gap_flags[i],
                       anchors.max_imag[i], stacklevel=stacklevel + 1)
    if res.resample_singular[i]:
        raise IllConditionedError(
            f"singular contraction at w2 in a {method} resample", float("inf"))


def _demixing_statistic(d: int, pattern=None, entry: tuple[int, int] | None = None):
    """The :func:`_resampled` statistic of the demixing rows: all oriented
    unit rows, stacked row-major; or with a sign `pattern`, the sign-labeled,
    diagonal-normalized matrix, restricted to `entry` unless it is None."""
    # np.asarray raises its own ValueError on a ragged entry such as
    # ((0, 1), 1), so a nested sequence is refused before it.
    flat = not isinstance(entry, (tuple, list)) or all(map(np.isscalar, entry))
    at = np.asarray(entry) if flat else None
    if entry is not None and not (flat and at.shape == (2,) and at.dtype.kind in "iu"
                                  and ((0 <= at) & (at < d)).all()):
        raise InvalidInputError(f"entry must be two integers in [0, {d}), got {entry!r}")

    def statistic(rows, ms):
        if pattern is None:
            # A view: the jackknife copies the record's read-only rows.
            return rows.reshape(len(rows), d * d), None, None
        lam, _, ties, order = _pipeline.label_signs(rows, pattern)
        if entry is not None:
            lam = lam[:, entry[0], entry[1], None]
        return lam.reshape(len(lam), -1), ties, order
    return statistic


def _delta_view(data, probes: ProbeVectors, pattern, entry) -> DeltaVarianceResult:
    """:func:`_resampled` delta method of :func:`_demixing_statistic` on one sample."""
    x = validate_sample(data, min_cols=2)
    statistic = _demixing_statistic(x.shape[1], pattern, entry)
    res = _resampled([_pipeline.moment_record(x)], probes, statistic, "delta")
    _raise_failed(res, 0, "delta")
    delta = res.resamples
    return DeltaVarianceResult(delta.sigma_u[0], delta.jacobian[0],
                               delta.sigma_m[0], delta.fd_step[0])


def delta_variance(data, probes: ProbeVectors) -> DeltaVarianceResult:
    """Delta-method covariance of the oriented demixing eigenvector rows.

    Covers sqrt(n) times the error of the d*d entries, the rows stacked
    row-major.  The differentiated map is the full pipeline moments ->
    cumulants -> contractions -> eigendecomposition -> orientation, so
    eigenvalue ordering and sign conventions are part of the statistic.
    """
    return _delta_view(data, probes, None, None)


def delta_variance_labeled(data, probes: ProbeVectors, pattern,
                           entry: tuple[int, int] | None = (0, 1)
                           ) -> DeltaVarianceResult:
    """Delta-method variance of one entry of the sign-labeled demixing matrix,
    or with `entry` None of the whole matrix, stacked row-major.

    The differentiated statistic is the full pipeline including the sign
    labeling and diagonal normalization, so this is the right variance for
    a structural coefficient such as a normalized slope.
    """
    return _delta_view(data, probes, np.asarray(pattern), entry)


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
    statistic = _demixing_statistic(d, pattern, entry)
    res = _resampled([_pipeline.moment_record(x)], probes, statistic, "jackknife")
    _raise_failed(res, 0, "jackknife")
    est, ties, flips, gaps, fallbacks = res.resamples[0]
    full_ties = res.labels[0]
    labeled = pattern is not None
    return JackknifeResult(
        # Copied after the spread is formed, so the copy and the deviations
        # are not alive at once.
        estimates=est if est.flags.writeable else est.copy(),
        variance=(n - 1) / n * res.spread[0],
        label_flips=int(np.sum(flips)) if labeled else None,
        gap_count=int(np.sum(gaps)),
        tie_count=int(np.sum(ties)) if labeled else None,
        eig_fallbacks=int(np.sum(fallbacks)),
        full_estimate=res.point[0],
        full_tie=bool(full_ties[0]) if labeled else None,
    )


def confidence_interval(point: float, variance: float, n: int,
                        level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation interval from a sqrt(n)-scale variance.

    The interval is point +/- z_{(1+level)/2} * sqrt(variance / n); pass a
    delta-method `sigma_u` entry directly.  For a jackknife variance (which
    is already on the estimate scale) use
    :func:`jackknife_confidence_interval` instead, of which this is the
    view at variance / n.  `n` must be an integer of at least 1.
    """
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise InvalidInputError(f"n must be an integer >= 1, got {n!r}")
    return jackknife_confidence_interval(point, variance / n, level)


def jackknife_confidence_interval(point: float, variance: float,
                                  level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation interval from a jackknife (estimate-scale) variance."""
    if not 0.0 < level < 1.0:
        raise InvalidInputError(f"level must be in (0, 1), got {level}")
    if not variance >= 0.0:
        raise InvalidInputError(f"variance must be >= 0, got {variance}")
    half = stats.norm.ppf((1.0 + level) / 2.0) * np.sqrt(variance)
    return float(point - half), float(point + half)
