"""Wald test that the skewness-identified demixing also diagonalizes the
covariance, i.e. that the structural errors are uncorrelated.

The demixing fed into the restrictions always comes from third-cumulant
information alone; the covariance-anchored variant would impose exactly the
hypothesis under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import _pipeline
from .errors import IllConditionedError, InvalidInputError
from .identify import COND_CAP, DemixingEstimate, ProbeVectors, _warn_unstable
from .inference import MIN_JACKKNIFE_N, _delta_from_monomials
from .moments import _centered_moments, validate_sample

OMEGA_COND_CAP = 1e12
OMEGA_CLIP_RTOL = 1e-12


@dataclass
class TestResult:
    """Wald statistic for the uncorrelated-structural-errors restrictions."""

    statistic: float
    dof: int
    p_value: float
    r_hat: np.ndarray
    omega_hat: np.ndarray
    method: str


def vech_off(m) -> np.ndarray:
    """Stack the strict upper triangle of a symmetric matrix, row-major."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    asym = np.linalg.norm(a - a.T)
    if asym > 1e-8 * max(np.linalg.norm(a), 1e-300):
        raise ValueError(f"matrix is not symmetric (asymmetry {asym:.3e})")
    a = (a + a.T) / 2.0
    iu = np.triu_indices(a.shape[0], 1)
    return a[iu]


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
    return _pipeline.offdiag_from_rows(lam, _centered_moments(x)[1], d)


def _clipped_quadratic(omega: np.ndarray, r: np.ndarray, n: int) -> float:
    """n * r' Omega^{-1} r through an eigendecomposition with a PSD floor."""
    sym = (omega + omega.T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    floor = OMEGA_CLIP_RTOL * max(np.trace(sym), np.finfo(float).tiny)
    evals = np.maximum(evals, floor)
    y = evecs.T @ r
    return float(n * np.sum(y**2 / evals))


def wald_test(data, probes: ProbeVectors, method: str = "delta",
              rule: str = "A") -> TestResult:
    """Test joint diagonality of the covariance and the third cumulant.

    Builds the demixing from third-cumulant contractions at the probe
    directions, stacks the off-diagonals r of the demixed covariance, and
    compares n * r' Omega^{-1} r to a chi-square with d(d-1)/2 degrees of
    freedom.  Omega comes from a delta-method linearization over the
    degree 1-3 moments of the centered sample (`method="delta"`) or from a
    delete-1 jackknife (`method="jackknife"`).
    """
    if method not in ("delta", "jackknife"):
        raise ValueError(f"method must be 'delta' or 'jackknife', got {method!r}")
    x = validate_sample(data, min_rows=2, min_cols=2)
    n, d = x.shape
    dof = d * (d - 1) // 2

    z, m_hat = _centered_moments(x)
    demixed = _pipeline.demix_rows(
        m_hat, d, probes.w1, probes.w2, rule, cond_cap=COND_CAP
    )
    _warn_unstable(demixed, stacklevel=2)
    r_hat = _pipeline.offdiag_from_rows(demixed[0], m_hat, d)

    if method == "delta":
        omega = _delta_from_monomials(
            z, m_hat,
            lambda ms: _pipeline.overid_offdiag(ms, d, probes.w1, probes.w2, rule),
        ).sigma_u
    else:
        if n < MIN_JACKKNIFE_N:
            raise InvalidInputError(
                f"jackknife covariance requires n >= {MIN_JACKKNIFE_N}, got {n}"
            )
        loo_rows, _, loo, _ = _pipeline.leave_one_out_rows(
            x, z, d, probes.w1, probes.w2, rule
        )
        r_loo = _pipeline.offdiag_from_rows(loo_rows, loo, d)
        dev = r_loo - r_loo.mean(axis=0)
        # (n-1) * sum(...) is the delete-1 estimate of Var(sqrt(n) * r).
        omega = (n - 1) * (dev.T @ dev)

    omega = (omega + omega.T) / 2.0
    cond = float(np.linalg.cond(omega))
    if not np.isfinite(cond) or cond > OMEGA_COND_CAP:
        raise IllConditionedError(
            "restriction covariance is numerically singular; the "
            "off-diagonal restrictions appear locally redundant (full row "
            "rank of their Jacobian fails)",
            cond,
        )
    statistic = _clipped_quadratic(omega, r_hat, n)
    # chdtrc is the chi-square survival function that stats.chi2.sf wraps,
    # without the distribution object's per-call overhead.
    return TestResult(
        statistic=statistic,
        dof=dof,
        p_value=float(special.chdtrc(dof, statistic)),
        r_hat=r_hat,
        omega_hat=omega,
        method=method,
    )
