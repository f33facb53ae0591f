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
from .errors import IllConditionedError
from .identify import COND_CAP, DemixingEstimate, ProbeVectors, _warn_unstable
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
        raise ValueError(f"estimate is for d={lam.shape[1]} but sample has d={d}")
    return _pipeline.offdiag_from_rows(lam, _pipeline.moment_record(x).m_hat, d)


class _WaldStack(NamedTuple):
    """Per-sample results of :func:`_wald_stack`."""

    statistic: np.ndarray
    p_value: np.ndarray
    r_hat: np.ndarray
    omega: np.ndarray
    anchors: _pipeline.DemixedRows
    moments_fail: np.ndarray
    resample_singular: np.ndarray
    omega_cond: np.ndarray
    omega_clipped: np.ndarray


def _wald_stack(samples, probes: ProbeVectors, method: str = "delta") -> _WaldStack:
    """:func:`wald_test` on a list of validated samples of one width, one
    kernel call per stage: the anchors, the finite-difference points of all
    samples ("delta"; each sample's delete-1 stack for "jackknife"), and
    cond(Omega), the clipped quadratic form and the chi-square tail.

    A sample fails alone, with NaN statistic: `moments_fail` marks sixth
    moments out of range for the delta method, `anchors.ill_conditioned` a
    G(w2) over ``COND_CAP`` or singular, `resample_singular` one
    singular at a finite-difference point or delete-1 resample, and an
    `omega_cond` not at most ``OMEGA_COND_CAP`` a near-singular Omega.
    :func:`_sample_result` turns one sample's flags into errors, and
    `omega_clipped` counts the eigenvalues raised to the PSD floor.
    """
    if method not in ("delta", "jackknife"):
        raise ValueError(f"method must be 'delta' or 'jackknife', got {method!r}")
    d = samples[0].shape[1]
    if d > 2 and len(samples) > 1:  # d >= 3 stacks share one eigen-anchor
        raise ValueError("samples of width d > 2 are tested one at a time")
    ns = np.array([x.shape[0] for x in samples])
    # A single sample reads the moment record the single-sample entry points
    # share.  Several get records made as they are read, so that the delta
    # method, which keeps only Sigma_m, has one monomial matrix alive at a
    # time; the jackknife keeps each record for its delete-1 stack.
    records = ([_pipeline.moment_record(samples[0])] if len(samples) == 1
               else map(_pipeline.MomentRecord.of, samples))
    ms, held, moments_fail = [], [], np.zeros(len(ns), dtype=bool)
    for i, record in enumerate(records):
        ms.append(record.m_hat)
        held.append(record.sigma_m() if method == "delta" else record)
        moments_fail[i] = method == "delta" and inference._sixth_moments_fail(held[i], d)
    m = np.stack(ms)
    anchors = _pipeline.demix_rows(m, d, probes.w1, probes.w2, cond_cap=COND_CAP)
    r_hat = _pipeline.offdiag_from_rows(anchors.rows, m, d)
    # Omega of the samples whose moments and anchor stand; NaN where a
    # finite-difference point or a delete-1 resample has a singular G(w2).
    ok = ~(moments_fail | anchors.ill_conditioned)
    omega = np.full(r_hat.shape + r_hat.shape[-1:], np.nan)
    if method == "delta" and ok.any():
        omega[ok] = inference._delta_from_moments(
            np.stack(held)[ok], m[ok],
            lambda s: _pipeline.overid_offdiag(s, d, probes.w1, probes.w2),
        ).sigma_u
    elif method == "jackknife":
        inference._check_jackknife_n(ns.min(), "jackknife covariance")
        for i in np.flatnonzero(ok):
            # Released after use, so a record that no one else keeps frees
            # its delete-1 stack before the next sample's is built.
            record, held[i] = held[i], None
            demixed, loo = record.leave_one_out(probes.w1, probes.w2)
            # A failed resample has NaN rows, so Omega is NaN.
            r_loo = _pipeline.offdiag_from_rows(demixed.rows, loo, d)
            dev = r_loo - r_loo.mean(axis=0)
            # (n-1) * sum(...) is the delete-1 estimate of Var(sqrt(n) * r).
            omega[i] = (ns[i] - 1) * (dev.T @ dev)

    omega = (omega + np.swapaxes(omega, -2, -1)) / 2.0
    singular = ok & ~np.isfinite(omega).reshape(len(ns), -1).all(axis=1)
    ok &= ~singular
    omega_cond = np.full(len(ns), np.nan)
    omega_cond[ok] = np.linalg.cond(omega[ok])
    ok &= omega_cond <= OMEGA_COND_CAP
    # n * r' Omega^{-1} r through an eigendecomposition with a PSD floor.
    sym = omega[ok]  # exactly symmetric: symmetrized above
    evals, evecs = np.linalg.eigh(sym)
    trace = np.trace(sym, axis1=-2, axis2=-1)
    floor = OMEGA_CLIP_RTOL * np.maximum(trace, np.finfo(float).tiny)
    omega_clipped = np.zeros(len(ns), dtype=int)
    omega_clipped[ok] = np.count_nonzero(evals < floor[:, None], axis=-1)
    evals = np.maximum(evals, floor[:, None])
    y = (np.swapaxes(evecs, -2, -1) @ r_hat[ok][..., None])[..., 0]
    statistic = np.full(len(ns), np.nan)
    statistic[ok] = ns[ok] * np.sum(y**2 / evals, axis=-1)
    # chdtrc is the chi-square survival function that stats.chi2.sf wraps,
    # without the distribution object's per-call overhead.
    p_value = special.chdtrc(d * (d - 1) // 2, statistic)
    return _WaldStack(statistic, p_value, r_hat, omega, anchors, moments_fail,
                      singular, omega_cond, omega_clipped)


def _sample_result(res: _WaldStack, i: int, method: str,
                   stacklevel: int) -> TestResult:
    """Sample i of a :func:`_wald_stack` as a :class:`TestResult`.

    Raises ValueError for sixth moments out of range, IllConditionedError
    for a G(w2) over ``COND_CAP`` or singular at the anchor, then, after the
    anchor's EigenGapWarning or ComplexResidueWarning (`stacklevel` counted
    as for ``warnings.warn`` from the caller), IllConditionedError for a
    singular resample or a near-singular Omega.
    """
    if res.moments_fail[i]:
        raise ValueError(inference._SIXTH_MOMENT_ERROR)
    if res.anchors.ill_conditioned[i]:
        raise IllConditionedError(
            "contraction at w2 is numerically singular",
            float(res.anchors.cond_g2[i]),
        )
    _warn_unstable(res.anchors.eigenvalues[i], res.anchors.gap_flags[i],
                   res.anchors.max_imag[i], stacklevel=stacklevel + 1)
    if res.resample_singular[i]:
        raise IllConditionedError(
            f"singular contraction at w2 in a {method} resample", float("inf")
        )
    if not res.omega_cond[i] <= OMEGA_COND_CAP:
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
    on a list of one sample.
    """
    x = validate_sample(data, min_rows=2, min_cols=2)
    return _sample_result(_wald_stack([x], probes, method), 0, method,
                          stacklevel=2)
