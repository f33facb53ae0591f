"""Eigenvector identification of the structural matrix from two contractions.

The demixing rows come out of an eigendecomposition only up to scale and
permutation.  Each row is scaled to unit length and oriented by one
convention, a positive row sum, or a positive largest entry where the sum is
too close to zero; the labeling routines at the bottom resolve both
indeterminacies, either from a sign pattern or from a triangular (recursive)
ordering.

Eigendecomposition, orientation and labeling have one implementation, the
stack kernels of :mod:`cumident._pipeline`, which the functions here run on
a stack of one; :func:`estimate_demixing` is the moment kernel's b = 1 view
at either cumulant order, and :func:`demixing_from_contractions` (population
contractions) enters the same kernel after the contractions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _pipeline
from ._pipeline import (  # the three tolerances stay public names here
    EIGEN_GAP_RTOL,
    EXHAUSTIVE_PERMUTATION_CAP,
    ROW_SUM_FALLBACK_TOL,
    _gap_scale,
    _oriented,
)
from .errors import (
    ComplexResidueWarning,
    EigenGapWarning,
    IllConditionedError,
    InvalidInputError,
    LabelingAmbiguityError,
    RankDetectionError,
)
from .moments import _check_direction, contract_hessian, validate_sample

COND_CAP = 1e10
COMPLEX_RESIDUE_TOL = 0.1


@dataclass(frozen=True)
class ProbeVectors:
    """The two contraction directions; w1 is the random probe, w2 the anchor.

    w2 defaults to the all-ones vector, for which invertibility of the
    contraction amounts to nonzero column sums of the mixing matrix.
    """

    w1: np.ndarray
    w2: np.ndarray
    seed: int | None = None

    @classmethod
    def draw(cls, d: int, seed: int, w2=None) -> "ProbeVectors":
        """Draw w1 uniformly on the d-dimensional unit cube from `seed`."""
        w1 = np.random.default_rng(seed).uniform(size=d)
        w2 = np.ones(d) if w2 is None else _check_direction(w2, d, "w2")
        return cls(w1=w1, w2=w2, seed=seed)


@dataclass
class DemixingEstimate:
    """Oriented, row-normalized eigenvector estimate of the demixing matrix.

    Rows of `lambda_tilde` have unit Euclidean norm and estimate the rows of
    the structural matrix up to scale and permutation; `eigenvalues` are the
    real parts of the eigenvalues, sorted descending.
    """

    lambda_tilde: np.ndarray
    eigenvalues: np.ndarray
    max_imag: float
    cond_G2: float
    gap_flag: bool = False
    fallback_rows: tuple[int, ...] = ()


@dataclass
class MixingEstimate:
    """Unit-norm mixing-matrix columns recovered through the pseudoinverse."""

    a_columns: np.ndarray
    eigenvalues: np.ndarray
    rank_used: int
    sv_threshold: float


@dataclass
class LabelingResult:
    """Permutation and row scales resolving the labeling indeterminacy."""

    permutation: tuple[int, ...]
    scales: np.ndarray
    lambda_final: np.ndarray
    residual_mismatch: float


def _as_matrix(g) -> np.ndarray:
    m = np.asarray(g, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    return m


def angular_distance(u, v) -> float:
    """Angle (radians) between the lines spanned by u and v; sign-blind.

    Uses the chord formulation 2*arcsin(||u - v||/2) on sign-aligned unit
    vectors, which stays accurate for tiny angles where the arccos of an
    inner product saturates at sqrt(machine eps).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    if u @ v < 0:
        v = -v
    return float(2.0 * np.arcsin(min(1.0, np.linalg.norm(u - v) / 2.0)))


def orient_rows(rows: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Fix each row's sign; idempotent.

    A row is flipped so its sum is positive; if the row sum is too close to
    zero to be trusted, that row falls back to its largest-magnitude entry,
    made positive, and its index is reported.
    """
    out, fallback = _oriented(np.array(rows, dtype=float)[:, :, None])
    return out[:, :, 0], tuple(np.flatnonzero(fallback).tolist())


def _warn_unstable(vals, gap_flag, max_imag, stacklevel: int) -> None:
    """EigenGapWarning for near-repeated eigenvalues (identification holds
    only almost surely) and ComplexResidueWarning for a large imaginary
    residue of one kernel entry; the real parts are still used."""
    if gap_flag:
        rel_gap = np.abs(np.diff(vals)).min() / _gap_scale(vals)
        warnings.warn(
            "near-repeated eigenvalues (relative gap "
            f"{rel_gap:.2e}); demixing rows may be unstable",
            EigenGapWarning,
            stacklevel=stacklevel + 1,
        )
    if max_imag > COMPLEX_RESIDUE_TOL:
        warnings.warn(
            f"eigenvectors had imaginary parts up to {float(max_imag):.3f}; "
            "real parts are used",
            ComplexResidueWarning,
            stacklevel=stacklevel + 1,
        )


def _demixing_estimate(demixed: _pipeline.DemixedRows) -> DemixingEstimate:
    """The estimate of a one-entry kernel result; raises and warns for the caller."""
    if demixed.ill_conditioned:
        raise IllConditionedError("contraction at w2 is numerically singular",
                                  float(demixed.cond_g2))
    _warn_unstable(demixed.eigenvalues, demixed.gap_flags, demixed.max_imag,
                   stacklevel=3)
    return DemixingEstimate(
        lambda_tilde=demixed.rows,
        eigenvalues=demixed.eigenvalues,
        max_imag=float(demixed.max_imag),
        cond_G2=float(demixed.cond_g2),
        gap_flag=bool(demixed.gap_flags),
        fallback_rows=tuple(np.flatnonzero(demixed.orient_fallbacks).tolist()),
    )


def demixing_from_contractions(g1, g2) -> DemixingEstimate:
    """Demixing estimate from two precomputed contraction matrices.

    Runs :func:`cumident._pipeline.demix_contractions` on a stack of one,
    raising :class:`IllConditionedError` for a G(w2) over ``COND_CAP``.
    """
    return _demixing_estimate(
        _pipeline.demix_contractions(_as_matrix(g1), _as_matrix(g2),
                                     cond_cap=COND_CAP)
    )


def estimate_demixing(data, probes: ProbeVectors, order: int = 3) -> DemixingEstimate:
    """Estimate the demixing matrix rows from a single cumulant order.

    Contracts the sample cumulant Hessian at the two probe directions,
    solves the generalized eigenproblem and returns oriented unit rows.
    This is :func:`cumident._pipeline.demix_rows` on the degree 1..`order`
    moments of the centered sample, as a stack of one, at order 3 or 4: at
    order 3 the jackknife centre and the delta-method anchor are the same
    numbers.
    """
    x = validate_sample(data, min_cols=2)
    n, d = x.shape
    if n < d + 1:
        raise InvalidInputError(f"need at least d + 1 = {d + 1} observations, got {n}")
    w1, w2 = _check_direction(probes.w1, d), _check_direction(probes.w2, d)
    demixed = _pipeline.demix_rows(
        _pipeline.moment_record(x, order).m_hat, d, w1, w2, cond_cap=COND_CAP
    )
    return _demixing_estimate(demixed)


def build_H_sigma(data, w1) -> np.ndarray:
    """Covariance-anchored identification matrix Var(X)^{-1} G(w1).

    Valid only under uncorrelated structural errors; the overidentification
    test deliberately never uses this variant.
    """
    x = validate_sample(data, min_rows=2, min_cols=2)
    xc = x - x.mean(axis=0)
    sigma = xc.T @ xc / x.shape[0]
    cond = float(np.linalg.cond(sigma))
    if not np.isfinite(cond) or cond > COND_CAP:
        raise IllConditionedError("sample covariance is numerically singular", cond)
    g1 = contract_hessian(x, w1, order=3)
    return np.linalg.solve(sigma, g1)


def estimate_mixing_tall(data, probes: ProbeVectors,
                         d2: int | None = None) -> MixingEstimate:
    """Recover mixing-matrix columns when the mixing matrix is tall.

    Uses G(w1) G(w2)^+ with an SVD-truncated pseudoinverse; the right
    eigenvectors attached to the largest-magnitude eigenvalues estimate the
    columns of the mixing matrix.  Also covers the square case with some
    non-skewed shocks, where only the skewed shocks' columns are
    recoverable (pass their count as `d2`).

    Parameters
    ----------
    d2 : int or None
        Number of columns (skewed shocks).  None selects the rank
        automatically from the singular-value spectrum of G(w2), which is
        reliable only when the rank deficiency is near-exact; statistical
        noise calls for an explicit `d2`.
    """
    x = validate_sample(data, min_rows=2, min_cols=2)
    d1 = x.shape[1]
    w1, w2 = _check_direction(probes.w1, d1), _check_direction(probes.w2, d1)
    g1, g2 = _pipeline._contractions(_pipeline.moment_record(x).m_hat, d1, w1, w2)
    u, s, vt = np.linalg.svd(g2)
    if d2 is None:
        rank, sv_threshold = _auto_rank(s, d1)
    else:
        if not 1 <= d2 <= d1:
            raise InvalidInputError(f"d2 must be in [1, {d1}], got {d2}")
        rank = d2
        sv_threshold = float(s[rank]) if rank < d1 else 0.0
    g2_pinv = vt[:rank].T @ (u[:, :rank] / s[:rank]).T
    h = g1 @ g2_pinv
    vals, vecs = np.linalg.eig(h)
    keep = np.argsort(-np.abs(vals))[:rank]
    cols = vecs[:, keep].real
    cols = cols / np.maximum(np.linalg.norm(cols, axis=0), np.finfo(float).tiny)
    cols, _ = orient_rows(cols.T)
    return MixingEstimate(
        a_columns=cols.T,
        eigenvalues=vals[keep].real,
        rank_used=rank,
        sv_threshold=sv_threshold,
    )


def _auto_rank(s: np.ndarray, d1: int) -> tuple[int, float]:
    """Rank of a contraction from its singular values, with a gap guard.

    Keeps singular values above 1e-8 * sqrt(d1) * s_max; if the gap between
    the smallest kept and the largest dropped value is within 10x of that
    threshold, the detection is declared unstable.
    """
    thr = 1e-8 * np.sqrt(d1) * s[0]
    rank = int(np.sum(s > thr))
    if rank == 0:
        raise RankDetectionError("contraction at w2 is numerically zero")
    if rank < d1 and (s[rank - 1] - s[rank]) < 10.0 * thr:
        raise RankDetectionError(
            "singular-value gap of G(w2) too small for automatic rank "
            f"detection (spectrum {s}); pass d2 explicitly"
        )
    return rank, float(thr)


def label_by_signs(est: DemixingEstimate, sign_pattern,
                   on_tie: str = "error") -> LabelingResult:
    """Resolve permutation and scale from a row sign pattern.

    Searches row permutations, normalizes each candidate so its diagonal is
    exactly one (which also fixes row signs), and selects the assignment
    with the fewest sign mismatches against `sign_pattern` (entries in
    {-1, 0, +1}; zeros are ignored).  The search is
    :func:`cumident._pipeline.label_signs` on a stack of one: all d!
    orderings up to d = ``EXHAUSTIVE_PERMUTATION_CAP``, an exact linear
    assignment beyond.

    Parameters
    ----------
    on_tie : {"error", "margin"}
        With "error", two assignments tying on mismatch count raise
        :class:`LabelingAmbiguityError` listing both.  With "margin", ties
        are broken by the larger signed agreement
        sum(pattern * normalized entries); only an exact margin tie raises.
        Beyond the cap, the tied assignments listed are the chosen one and
        the second-best assignments that tie with it.
    """
    pattern = np.asarray(sign_pattern)
    rows = est.lambda_tilde
    if on_tie not in ("error", "margin"):
        raise InvalidInputError(
            f"on_tie must be 'error' or 'margin', got {on_tie!r}")
    # The kernel checks the pattern's shape, entries and distinct rows.
    lam, mism, tied, perm = _pipeline.label_signs(rows, pattern)
    if mism == np.inf:
        raise LabelingAmbiguityError(
            "no row permutation yields a nonzero diagonal", []
        )
    if tied:
        # The kernel picked the largest margin; "margin" raises only on an
        # exact margin tie.
        orderings, margins = _pipeline._sign_ties(rows, pattern)
        top = margins[orderings.index(perm)]
        others = [orderings[o] for o in np.argsort(-margins, kind="stable")
                  if orderings[o] != perm
                  and (on_tie == "error" or margins[o] == top)]
        if others:
            message = "sign labeling is ambiguous"
            if on_tie == "margin":
                message += " even after margin tie-break"
            raise LabelingAmbiguityError(message, [perm] + others)
    return _labeling(rows, perm, lam, mism)


def label_by_triangular(est: DemixingEstimate) -> LabelingResult:
    """Order rows to make the normalized matrix as lower-triangular as possible.

    Minimizes the sum of squared above-diagonal entries after diagonal
    normalization and reports that mass; never raises on a poor fit, the
    caller judges the residual.  The search is
    :func:`cumident._pipeline.label_triangular` on a stack of one.
    """
    rows = est.lambda_tilde
    lam, residual, perm = _pipeline.label_triangular(rows)
    if residual == np.inf:
        raise LabelingAmbiguityError(
            "no row permutation yields a nonzero diagonal", []
        )
    return _labeling(rows, perm, lam, residual)


def _labeling(rows: np.ndarray, perm, lam: np.ndarray,
              residual: float) -> LabelingResult:
    """The result of putting `rows` in order `perm`, normalized to `lam`."""
    d = rows.shape[0]
    return LabelingResult(
        permutation=tuple(perm),
        scales=1.0 / rows[list(perm), range(d)],
        lambda_final=lam,
        residual_mismatch=residual,
    )
