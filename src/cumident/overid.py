"""Wald test that the skewness-identified demixing also diagonalizes the
covariance, i.e. that the structural errors are uncorrelated.

The demixing fed into the restrictions always comes from third-cumulant
information alone; the covariance-anchored variant would impose exactly the
hypothesis under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from . import _pipeline, inference
from .errors import IllConditionedError, InvalidInputError
from .identify import DemixingEstimate, ProbeVectors
from .moments import validate_sample

OMEGA_COND_CAP = 1e12
OMEGA_CLIP_RTOL = 1e-12


@dataclass
class TestResult:
    """Wald statistic for the uncorrelated-structural-errors restrictions;
    `omega_clipped` eigenvalues of `omega_hat` were raised to the PSD floor."""

    statistic: float
    dof: int
    p_value: float
    r_hat: np.ndarray
    omega_hat: np.ndarray
    method: str
    omega_clipped: int


def overid_restrictions(data, est: DemixingEstimate) -> np.ndarray:
    """Off-diagonals of L Sigma L' for a skewness-identified demixing L.

    Zero in population exactly when the structural errors are uncorrelated,
    regardless of the row scaling and permutation left in `est`.
    """
    x = validate_sample(data, min_rows=2, min_cols=2)
    lam = est.lambda_tilde
    d = x.shape[1]
    if lam.shape[1] != d:
        raise InvalidInputError(
            f"estimate is for d={lam.shape[1]} but sample has d={d}")
    return _pipeline.offdiag_from_rows(lam, _pipeline.moment_record(x).m_hat, d)


class _WaldStack(NamedTuple):
    """Per-sample results of :func:`_wald_stack`."""

    statistic: np.ndarray
    p_value: np.ndarray
    r_hat: np.ndarray
    omega: np.ndarray
    anchors: _pipeline.DemixedRows
    failure: np.ndarray
    omega_cond: np.ndarray
    omega_clipped: np.ndarray


def _wald_stack(records, probes: ProbeVectors, method: str = "delta") -> _WaldStack:
    """:func:`wald_test` on the moment records of samples of one width, read
    once in order: the off-diagonals r and their Omega from one
    :func:`~cumident.inference._resampled` call, then cond(Omega), the
    clipped quadratic form and the chi-square tail as batched calls.

    A sample fails alone, with NaN statistic: by the kernel's `failure`
    code, or by an `omega_cond` not at most ``OMEGA_COND_CAP``, a
    near-singular Omega, which it codes ``_FAIL_OMEGA``.
    :func:`_sample_result` turns one sample's code into an error, and
    `omega_clipped` counts the eigenvalues raised to the PSD floor.
    """
    res = inference._resampled(
        records, probes,
        lambda rows, ms: (_pipeline.offdiag_from_rows(rows, ms, rows.shape[-1]),
                          None, None),
        method)
    omega, failure = res.omega, res.failure
    ok = failure == 0
    omega_cond = np.full(len(res.ns), np.nan)
    omega_cond[ok] = np.linalg.cond(omega[ok])
    failure[ok & ~(omega_cond <= OMEGA_COND_CAP)] = inference._FAIL_OMEGA
    ok = failure == 0
    # n * r' Omega^{-1} r through an eigendecomposition with a PSD floor.
    sym = omega[ok]  # exactly symmetric (_resampled)
    evals, evecs = np.linalg.eigh(sym)
    trace = np.trace(sym, axis1=-2, axis2=-1)
    floor = OMEGA_CLIP_RTOL * np.maximum(trace, np.finfo(float).tiny)
    omega_clipped = np.zeros(len(res.ns), dtype=int)
    omega_clipped[ok] = np.count_nonzero(evals < floor[:, None], axis=-1)
    evals = np.maximum(evals, floor[:, None])
    y = (np.swapaxes(evecs, -2, -1) @ res.point[ok][..., None])[..., 0]
    statistic = np.full(len(res.ns), np.nan)
    statistic[ok] = res.ns[ok] * np.sum(y**2 / evals, axis=-1)
    # chdtrc is the chi-square survival function that stats.chi2.sf wraps,
    # without the distribution object's per-call overhead.
    p_value = special.chdtrc(res.point.shape[-1], statistic)
    return _WaldStack(statistic, p_value, res.point, omega, res.anchors, failure,
                      omega_cond, omega_clipped)


def _sample_result(res: _WaldStack, i: int, method: str,
                   stacklevel: int) -> TestResult:
    """Sample i of a :func:`_wald_stack` as a :class:`TestResult`.

    Raises as :func:`~cumident.inference._raise_failed`, with the anchor's
    EigenGapWarning or ComplexResidueWarning (`stacklevel` counted as for
    ``warnings.warn`` from the caller) before the resample check, then
    IllConditionedError for a near-singular Omega.
    """
    inference._raise_failed(res, i, method, stacklevel + 1)
    if res.failure[i] == inference._FAIL_OMEGA:
        raise IllConditionedError(
            "restriction covariance is numerically singular; the "
            "off-diagonal restrictions appear locally redundant (full row "
            "rank of their Jacobian fails)",
            float(res.omega_cond[i]),
        )
    return TestResult(
        statistic=float(res.statistic[i]),
        dof=res.r_hat.shape[-1],
        p_value=float(res.p_value[i]),
        r_hat=res.r_hat[i],
        omega_hat=res.omega[i],
        method=method,
        omega_clipped=int(res.omega_clipped[i]),
    )


def wald_test(data, probes: ProbeVectors, method: str = "delta") -> TestResult:
    """Test joint diagonality of the covariance and the third cumulant.

    Builds the demixing from third-cumulant contractions at the probe
    directions, stacks the off-diagonals r of the demixed covariance, and
    compares n * r' Omega^{-1} r to a chi-square with d(d-1)/2 degrees of
    freedom.  Omega comes from a delta-method linearization over the
    degree 1-3 moments of the centered sample (`method="delta"`) or from a
    delete-1 jackknife (`method="jackknife"`).  This is :func:`_wald_stack`
    on the shared moment record of the one sample.
    """
    x = validate_sample(data, min_rows=2, min_cols=2)
    return _sample_result(_wald_stack([_pipeline.moment_record(x)], probes, method),
                          0, method, stacklevel=2)
