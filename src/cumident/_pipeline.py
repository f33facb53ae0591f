"""Moment-parameterized estimation pipeline, vectorized over moment vectors.

Everything downstream of the moment vector (cumulant map, contractions,
eigendecomposition, orientation, labeling, demixed-covariance off-diagonals)
is re-expressed here to act on a stack of moment vectors at once: moments
of the centered sample (``moments._centered_moments``), so nothing changes
when a constant is added to the data.  The delta method perturbs the moment
vector, the jackknife downdates it once per observation, and the Wald test
differentiates through it.  Single-vector callers (``identify``'s
``estimate_demixing``, the delta anchor, the jackknife centre, the Wald
point statistic) run the kernels on a stack of one and get the same numbers,
bit for bit; so do the scalar orientation and labeling functions, and
``identify.demixing_from_contractions`` enters after the contractions
(:func:`demix_contractions`).

The single-sample entry points share the :class:`MomentRecord` of the most
recent sample (:func:`moment_record`): its centered monomials and moments,
and, once built, Sigma_m and the delete-1 stack of one probe pair.  So one
analysis builds the monomial matrix and Sigma_m once, and the jackknife
standard errors and the jackknife Wald test build and eigendecompose the
delete-1 stack once.  The record is the only state kept across calls.

For d >= 3, a stack of more than one entry (a delete-1 stack, or the +/-
points of a finite-difference Jacobian) goes through :func:`_pencil_eig`.
LAPACK finds the rows that diagonalize the symmetric pencil (G(w1), G(w2))
once, at the mean of the stack.  In that anchor basis each entry's pencil
is nearly diagonal; one matrix product forms it from the sorted cumulants,
and Newton steps finish it, with no cumulant tensor and no solve.  Entries
that fail a rounding-level check go to LAPACK, and so does the whole stack
when the anchor fails or has a near-repeated or complex pair.  The kernel
scales and orients its rows chunk by chunk, entries last, by the one
orientation (:func:`_oriented`) that LAPACK rows get in
:func:`demix_contractions`.  On eight n = 10 000, d = 5 samples the
delete-1 and finite-difference rows agree
with LAPACK to 1.1e-14, the eigenvalues to 5e-15, the jackknife variances
to 1.3e-13 of their largest entry, and the delta variances and Wald
statistics, whose difference quotients amplify last-bit changes, to
1.1e-10.  The d = 2 stacks use the closed form of :func:`_sorted_eig_2x2`
instead.

A G(w2) that cannot be solved through fails by one rule at every d and
stack size (:func:`demix_contractions`): the kernels flag it, with NaN
rows, and the entry points raise (:func:`_raise_ill_conditioned`).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from scipy.optimize import linear_sum_assignment

from .errors import IllConditionedError
from .moments import (
    _centered_moments,
    _moment_covariance,
    _sorted_cumulants,
    _triple_indices,
    contract_tensor,
    covariance_from_moments,
    cumulants_from_moments,
)

EIGEN_GAP_RTOL = 1e-6
ROW_SUM_FALLBACK_TOL = 1e-8
# Largest d whose labeling scores all d! orderings through a gather table;
# beyond it each stack entry is solved as a linear assignment problem.
EXHAUSTIVE_PERMUTATION_CAP = 8

_INVALID_MISMATCH = np.iinfo(np.int32).max

# Largest (chunk, d!) or (chunk, d, d, d) array the labelers build; longer
# stacks are labeled in chunks.
_LABEL_CHUNK_ELEMENTS = 1 << 18


def leave_one_out_moments(monomials: np.ndarray) -> np.ndarray:
    """Delete-1 moment vectors from the (n, D) per-observation monomials."""
    n = monomials.shape[0]
    total = monomials.sum(axis=0)
    return (total[None, :] - monomials) / (n - 1)


class MomentRecord:
    """The centered moments of one validated (n, d) sample `x`.

    `z` is its centered monomial matrix and `m_hat` the moments about the
    mean, z's column means (:func:`moments._centered_moments`).  Sigma_m
    (:meth:`sigma_m`) and the delete-1 stack of one (w1, w2) pair
    (:meth:`leave_one_out`) are built on first use and kept.  Everything
    it holds is read-only, and each kept result is set whole.
    """

    def __init__(self, x: np.ndarray, z: np.ndarray, m_hat: np.ndarray):
        z.flags.writeable = m_hat.flags.writeable = False
        self.x, self.z, self.m_hat = x, z, m_hat
        self._sigma_m = None
        self._loo = None

    @classmethod
    def of(cls, x: np.ndarray) -> "MomentRecord":
        """The record of `x`, not kept beyond the caller's reference."""
        return cls(x, *_centered_moments(x))

    def sigma_m(self) -> np.ndarray:
        """Sigma_m, the covariance of the monomials about their means."""
        if self._sigma_m is None:
            sigma = _moment_covariance(self.z, self.m_hat)
            sigma.flags.writeable = False
            self._sigma_m = sigma
        return self._sigma_m

    def leave_one_out(self, w1, w2):
        """(demixed, moments) of the delete-1 resamples: their (n, D) moment
        vectors and :func:`demix_rows`, without the eigenvalues, `max_imag`
        and `orient_fallbacks` that no reader uses.  The stack of the most
        recent (w1, w2) is kept; other probes drop it before they build theirs.
        """
        key = (np.asarray(w1, dtype=float).tobytes(),
               np.asarray(w2, dtype=float).tobytes())
        held = self._loo
        if held is not None and held[0] == key:
            return held[1]
        # Drop both references, so the old stack is freed before the next is built.
        self._loo = held = None
        loo = leave_one_out_moments(self.z)
        demixed = demix_rows(loo, self.x.shape[1], w1, w2)._replace(
            eigenvalues=None, max_imag=None, orient_fallbacks=None)
        for a in (*demixed, loo):
            if a is not None:
                a.flags.writeable = False
        self._loo = (key, (demixed, loo))
        return demixed, loo


# The MomentRecord of the most recent sample passed to moment_record, or
# None.  It is only ever read or replaced whole, so it holds at most one
# sample even when threads share it.
_record = None


def moment_record(x: np.ndarray) -> MomentRecord:
    """The :class:`MomentRecord` of a validated float sample, shared by the
    single-sample entry points.

    The record of the most recent sample is kept, with a read-only copy of
    it, and returned again while `x` equals that copy bit for bit, so an
    in-place change to the caller's array misses.  A miss drops the held
    record before it builds the next one.
    """
    global _record
    held = _record
    # Compared as bits, so that even 0.0 and -0.0 differ.
    if (held is not None and held.x.shape == x.shape and held.x.dtype == x.dtype
            and np.array_equal(held.x.view(np.uint64), x.view(np.uint64))):
        return held
    _record = held = None
    copy = x.copy()
    copy.flags.writeable = False
    # The moments of x as the caller laid it out, as MomentRecord.of computes them.
    _record = held = MomentRecord(copy, *_centered_moments(x))
    return held


def _sorted_eig(h: np.ndarray):
    """Eigenpairs of a matrix or a stack of matrices, sorted by descending
    real part, then descending imaginary part, then original index."""
    vals, vecs = np.linalg.eig(h)
    order = np.lexsort((-vals.imag, -vals.real), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    return vals, vecs


def _fold_last(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce over a short trailing axis as whole-array calls.

    numpy reduces a trailing axis of length k with one inner loop per
    output element; for the short axes here (d or d*d entries of a stack of
    demixing matrices) k - 1 calls on whole slices are many times faster.
    """
    out = a[..., 0]
    for i in range(1, a.shape[-1]):
        out = ufunc(out, a[..., i])
    return out


class DemixedRows(NamedTuple):
    """:func:`demix_rows` per stack entry (`...`, () for one entry): unit
    `rows` (..., d, d) oriented by :func:`_unit_oriented`, the real parts of
    the `eigenvalues` (..., d) descending, `gap_flags`, the eigenvectors'
    `max_imag`, `eig_fallbacks` handed by the pencil kernel to LAPACK
    (:func:`_pencil_eig`), `orient_fallbacks` (..., d) (:func:`_oriented`),
    `ill_conditioned` for an entry that failed (:func:`demix_contractions`),
    and `cond_g2`, cond(G(w2)), when a `cond_cap` was checked, else None."""

    rows: np.ndarray
    eigenvalues: np.ndarray
    gap_flags: np.ndarray
    max_imag: np.ndarray
    eig_fallbacks: np.ndarray
    orient_fallbacks: np.ndarray
    ill_conditioned: np.ndarray
    cond_g2: np.ndarray | None


def _raise_ill_conditioned(demixed: DemixedRows, where: str = "") -> None:
    """IllConditionedError if an entry of `demixed` failed: naming the
    resample `where` ("a delete-1 resample"), or else with the largest
    condition estimate of the failed entries (inf when no cap was checked)."""
    failed, cond = demixed.ill_conditioned, demixed.cond_g2
    if failed.any():
        raise IllConditionedError(
            f"singular contraction at w2 in {where}" if where
            else "contraction at w2 is numerically singular",
            float("inf") if where or cond is None else float(np.max(cond[failed])))


def demix_rows(ms: np.ndarray, d: int, w1, w2,
               cond_cap: float | None = None) -> DemixedRows:
    """Oriented unit demixing rows for each moment vector in the stack.

    Parameters
    ----------
    ms : ndarray, shape (..., D) with D = binom(d+3,3)-1
        Raw-moment vectors in the package-wide monomial order, about any
        origin; the callers use the sample mean.
    cond_cap : float or None
        When set, also fail a G(w2) whose condition estimate exceeds it (see
        :func:`demix_contractions`); resampling stacks leave it off for speed.

    Returns a :class:`DemixedRows`; a failed entry is flagged, not raised.
    """
    w1, w2 = np.asarray(w1, dtype=float), np.asarray(w2, dtype=float)
    if d > 2 and cond_cap is None and ms.ndim == 2 and len(ms) > 1:
        return _pencil_eig(ms, d, w1, w2)
    return demix_contractions(*_contractions(ms, d, w1, w2), cond_cap)


def _contractions(ms: np.ndarray, d: int, w1: np.ndarray, w2: np.ndarray):
    """G(w1) and G(w2) of each moment vector."""
    tensors = cumulants_from_moments(ms, d)
    return 6.0 * contract_tensor(tensors, w1), 6.0 * contract_tensor(tensors, w2)


def demix_contractions(g1: np.ndarray, g2: np.ndarray,
                       cond_cap: float | None = None) -> DemixedRows:
    """:func:`demix_rows` from the contractions G(w1), G(w2), (..., d, d).

    One rule fails an entry alone, whatever the stack shape and d
    (:func:`_solved`): G(w1) or G(w2) is not finite, G(w2) has a condition
    estimate over `cond_cap` when a cap is given or a zero pivot at unit
    scale, or G(w2)^{-1} G(w1) overflows.  A failed entry is flagged in
    `ill_conditioned`, with NaN rows and eigenvalues and no gap flag.
    """
    h, failed, cond = _solved(g1, g2, cond_cap)
    d = h.shape[-1]
    vals, vecs = _sorted_eig_2x2(h) if d == 2 else _sorted_eig(h)
    max_imag = np.abs(vecs.imag).max(axis=(-2, -1))
    # Entries last: rt[k, q, e] is vecs[e, q, k].  The rows come back laid
    # out as the columns are.
    unit, orient = _unit_oriented(vecs.real.reshape(-1, d, d).T)
    rows = np.swapaxes(unit.T.reshape(vecs.shape), -2, -1)
    if failed.any():
        rows = np.where(failed[..., None, None], np.nan, rows)
        vals = np.where(failed[..., None], np.nan, vals)
    return DemixedRows(rows, vals.real, _gap_flags(vals), max_imag,
                       np.zeros(failed.shape, dtype=bool),
                       orient.T.reshape(vecs.shape[:-1]), failed, cond)


def _solved(g1: np.ndarray, g2: np.ndarray, cond_cap: float | None = None):
    """(h, failed, cond) of the :func:`demix_contractions` rule: h =
    G(w2)^{-1} G(w1) of each entry, the identity where it failed, and
    `cond`, cond(G(w2)) or inf for a non-finite entry, None without a cap.

    Both contractions are scaled, exactly, by the power of two that brings
    the peak max|G(w2)| into [0.5, 1), so the zero-pivot test and the solve
    see the same matrices, and neither depends on the scale of the data.  In
    the normal range the scaling changes no bit of h.
    """
    failed = ~(np.isfinite(_entry_peak(g1)) & np.isfinite(_entry_peak(g2)))
    g1, g2 = _with_identity(g1, failed), _with_identity(g2, failed)
    cond = None
    if cond_cap is not None:
        cond = np.where(failed, np.inf, np.linalg.cond(g2))
        failed = ~(cond <= cond_cap)
    shift = -np.frexp(_entry_peak(g2))[1][..., None, None]
    # G(w1) may overflow where G(w2) is far smaller; then h is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        g1, g2 = np.ldexp(g1, shift), np.ldexp(g2, shift)
        failed = failed | _singular(g2)
        g2 = _with_identity(g2, failed)
        h = _solve_2x2(g2, g1) if g2.shape[-1] == 2 else np.linalg.solve(g2, g1)
    failed = failed | ~np.isfinite(_entry_peak(h))
    return _with_identity(h, failed), failed, cond


def _entry_peak(g: np.ndarray) -> np.ndarray:
    """max|g| of each (d, d) entry of a stack; NaN or inf where not finite."""
    return _fold_last(np.maximum, np.abs(g).reshape(*g.shape[:-2], -1))


def _singular(unit: np.ndarray) -> np.ndarray:
    """Entries of a (..., d, d) stack at unit scale (:func:`_solved`) with a
    zero pivot: a zero determinant at d = 2, else a zero pivot of LAPACK's
    LU."""
    if unit.shape[-1] == 2:
        return _det_2x2(unit) == 0.0
    return np.linalg.slogdet(unit)[0] == 0.0


def _with_identity(g: np.ndarray, failed: np.ndarray) -> np.ndarray:
    """`g` with the identity in place of the `failed` entries."""
    if not failed.any():
        return g
    return np.where(failed[..., None, None], np.eye(g.shape[-1]), g)


def _gap_scale(vals: np.ndarray) -> np.ndarray:
    """Largest eigenvalue modulus per entry, floored at the smallest normal."""
    return np.maximum(_fold_last(np.maximum, np.abs(vals)), np.finfo(float).tiny)


def _gap_flags(vals: np.ndarray) -> np.ndarray:
    """Entries whose sorted eigenvalues come within EIGEN_GAP_RTOL of their
    scale of each other."""
    if vals.shape[-1] < 2:
        return np.zeros(vals.shape[:-1], dtype=bool)
    # Real parts: a complex-conjugate pair yields two equal real rows.
    gaps = _fold_last(np.minimum, np.abs(np.diff(vals.real, axis=-1)))
    return gaps < EIGEN_GAP_RTOL * _gap_scale(vals)


# Newton steps of the pencil kernel; each squares the error.
_NEWTON_STEPS = 3
# Acceptance bound on the pencil residual, in units of eps * d * max|U| *
# (max|C| + max|lambda| * max|D|).
_RESIDUAL_ULPS = 64.0
# An entry whose last Newton correction max|E| is above this takes one more
# step alone, and goes to LAPACK if it stays above.  The residual bound
# alone let through rows 2e-13 off on n = 10 000, d = 5 delete-1 stacks.
_LAST_STEP_TOL = 1e-7
# Largest (d, d, chunk) array of the pencil kernel, so that it stays in cache.
_PENCIL_CHUNK_ELEMENTS = 1 << 15


def _pencil_eig(ms: np.ndarray, d: int, w1: np.ndarray, w2: np.ndarray) -> DemixedRows:
    """:func:`demix_rows` of a (b, D) moment stack that clusters around its
    mean.

    LAPACK runs at the mean of the stack (the anchor) and on the entries
    that :func:`_pencil_refine` does not accept, or on all of them when the
    anchor fails the :func:`demix_contractions` rule or has a near-repeated
    or complex pair; those entries, flagged in `eig_fallbacks`, are bitwise
    what a stack of them alone gives.
    """
    maps = _contraction_maps(d, w1, w2)
    g1, g2 = (maps @ _sorted_cumulants(ms.mean(axis=0), d)).reshape(2, d, d)
    h, failed, _ = _solved(g1, g2)
    anchor_vals, anchor_vecs = _sorted_eig(h)
    if failed or _gap_flags(anchor_vals):
        return _lapack_rows(ms, d, w1, w2)
    rows, vals, orient, accepted = _pencil_refine(ms, maps, anchor_vecs.real.T)
    # An accepted entry has real eigenvectors and no eigen-gap flag: its
    # gaps are at least EIGEN_GAP_RTOL of its scale (see _pencil_newton).
    out = DemixedRows(rows, vals, np.zeros_like(accepted), np.zeros(len(ms)),
                      ~accepted, orient, np.zeros_like(accepted), None)
    fallbacks = out.eig_fallbacks
    if fallbacks.any():
        slow = _lapack_rows(ms[fallbacks], d, w1, w2)
        # Every field but cond_g2, None in both.
        for full, part in zip(out[:-1], slow[:-1]):
            full[fallbacks] = part
    return out


def _lapack_rows(ms: np.ndarray, d: int, w1: np.ndarray, w2: np.ndarray) -> DemixedRows:
    """:func:`demix_rows` of a (b, D) moment stack through LAPACK, every
    entry flagged in `eig_fallbacks`."""
    return demix_contractions(*_contractions(ms, d, w1, w2))._replace(
        eig_fallbacks=np.ones(len(ms), dtype=bool))


def _pencil_refine(ms: np.ndarray, maps: np.ndarray, anchor: np.ndarray):
    """(rows, vals, orient_fallbacks, accepted) of :func:`_pencil_newton` for
    each entry of a (b, D) moment stack, from the rows `anchor` of a nearby
    pencil.

    In the basis y = anchor x an entry's pencil (C, D) = (anchor G(w1)
    anchor', anchor G(w2) anchor') is nearly diagonal; one (2 d^2, T)
    product forms it from the sorted cumulants, through the
    :func:`_contraction_maps` `maps`.  The eigenvector rows U anchor are
    unit-normalized and oriented (:func:`_unit_oriented`) chunk by chunk,
    entries last.  Chunks of _PENCIL_CHUNK_ELEMENTS do not change any bit.
    """
    b, d = ms.shape[0], anchor.shape[0]
    basis = (np.kron(anchor, anchor) @ maps).reshape(2 * d * d, -1)
    vals = np.empty((b, d))
    rows = np.empty((b, d, d))
    orient = np.empty((b, d), dtype=bool)
    accepted = np.empty(b, dtype=bool)
    step = max(1, _PENCIL_CHUNK_ELEMENTS // (d * d))
    for s in (slice(start, start + step) for start in range(0, b, step)):
        pencil = basis @ _sorted_cumulants(ms[s], d).T
        u, vals_s, accepted[s] = _pencil_newton(*pencil.reshape(2, d, d, -1))
        vals[s] = vals_s.T
        # Entries the kernel rejects may not be finite; LAPACK redoes them.
        with np.errstate(over="ignore", invalid="ignore"):
            unit, orient_s = _unit_oriented(np.einsum("kpe,pq->kqe", u, anchor))
        rows[s], orient[s] = unit.transpose(2, 0, 1), orient_s.T
    return rows, vals, orient, accepted


def _contraction_maps(d: int, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """(2, d*d, T) maps of the T :func:`_sorted_cumulants` to G(w1) and
    G(w2), flattened row-major: the contractions of the unit tensors."""
    ijk, _, mirror = _triple_indices(d)
    units = np.eye(ijk.shape[1])[:, mirror]
    return np.stack([6.0 * contract_tensor(units, w).reshape(len(units), -1).T
                     for w in (w1, w2)])


def _pencil_newton(c: np.ndarray, dd: np.ndarray):
    """Newton steps on nearly diagonal symmetric pencils (C, D), (d, d, w)
    arrays with the stack axis last.

    From U = I, A = C, B = D, each step takes lambda_k = A_kk / B_kk, E_kj =
    (A_kj - lambda_k B_kj) / (A_jj - lambda_k B_jj) off the diagonal, U <- U
    - E U, A = U C U' and B = U D U'.  Returns (u, vals, accepted): U, the
    Rayleigh quotients of its rows, (d, w), and the entries whose residual
    max|(U C)_k - lambda_k (U D)_k| is within the _RESIDUAL_ULPS bound,
    whose last max|E| is within _LAST_STEP_TOL, whose eigenvalues descend
    with gaps of at least EIGEN_GAP_RTOL of their scale, and that are finite.
    """
    d = c.shape[0]
    a, b, u = c, dd, np.eye(d)[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(_NEWTON_STEPS):
            if step:
                a, b = _congruence(u, c), _congruence(u, dd)
            e = _correction(a, b)
            u = u - (_product(e, u) if step else e)
        size = _peak(e)
        late = np.flatnonzero(size > _LAST_STEP_TOL)
        if late.size:
            ul, cl, dl = u[:, :, late], c[:, :, late], dd[:, :, late]
            e = _correction(_congruence(ul, cl), _congruence(ul, dl))
            u[:, :, late] = ul - _product(e, ul)
            size[late] = _peak(e)
        uc, ud = _product(u, c), _product(u, dd)
        vals = (uc * u).sum(axis=1) / (ud * u).sum(axis=1)
        scale = np.maximum(_peak(vals), np.finfo(float).tiny)
        bound = (_RESIDUAL_ULPS * np.finfo(float).eps * d * _peak(u)
                 * (_peak(c) + scale * _peak(dd)))
        accepted = ((_peak(uc - vals[:, None, :] * ud) <= bound)
                    & (size <= _LAST_STEP_TOL) & np.isfinite(bound)
                    & (np.max(np.diff(vals, axis=0), axis=0) <= -EIGEN_GAP_RTOL * scale))
    return u, vals, accepted


def _correction(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The E of :func:`_pencil_newton` for (d, d, w) pencils (A, B)."""
    d = a.shape[0]
    da, db = a.reshape(d * d, -1)[:: d + 1], b.reshape(d * d, -1)[:: d + 1]
    lam = (da / db)[:, None, :]
    # inf on the diagonal of the denominators gives E a zero diagonal.
    return (a - lam * b) / (da - lam * db + np.diag(np.full(d, np.inf))[:, :, None])


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for (d, d, w) stacks with the stack axis last."""
    return np.einsum("kpe,pqe->kqe", x, y)


def _congruence(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """u @ c @ u' for (d, d, w) stacks with the stack axis last."""
    return np.einsum("kpe,qpe->kqe", _product(u, c), u)


def _peak(a: np.ndarray) -> np.ndarray:
    """max|a| over all axes but the last."""
    return np.max(np.abs(a).reshape(-1, a.shape[-1]), axis=0)


def _solve_2x2(g2: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """g2^{-1} g1 for a stack of nonsingular 2 x 2 matrices by the adjugate."""
    adj = np.stack([g2[..., 1, 1], -g2[..., 0, 1], -g2[..., 1, 0], g2[..., 0, 0]], -1)
    return (adj.reshape(g2.shape) @ g1) / _det_2x2(g2)[..., None, None]


def _det_2x2(g: np.ndarray) -> np.ndarray:
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


def _sorted_eig_2x2(h: np.ndarray):
    """Closed-form :func:`_sorted_eig` for a stack of 2 x 2 matrices.

    LAPACK's per-matrix overhead dominates the jackknife's stacks of
    thousands of 2 x 2 problems.  Matrices with two distinct real
    eigenvalues (the identified case) get lambda = tr/2 +/- root, root =
    sqrt(disc), and unit eigenvectors; the rest (complex or repeated
    eigenvalues, non-finite entries) go through LAPACK, so their residue and
    gap diagnostics are unchanged.
    """
    a, b, c, d = h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1]
    half_tr = 0.5 * (a + d)
    half_diff = 0.5 * (a - d)
    disc = half_diff * half_diff + b * c
    lapack = ~(disc > 0.0) | ~np.isfinite(disc)
    root = np.sqrt(np.where(lapack, 1.0, disc))
    vals = np.stack([half_tr + root, half_tr - root], axis=-1)
    # For lambda = tr/2 + s*root, H - lambda I has rows (half_diff - s*root, b)
    # and (c, -half_diff - s*root).  Each eigenvector is read off the row
    # whose diagonal entry is -s*(|half_diff| + root), free of cancellation.
    pos = half_diff >= 0.0
    big = np.abs(half_diff) + root
    vecs = np.empty_like(h)
    vecs[..., 0, 0] = np.where(pos, big, b)
    vecs[..., 1, 0] = np.where(pos, c, big)
    vecs[..., 0, 1] = np.where(pos, b, -big)
    vecs[..., 1, 1] = np.where(pos, -big, c)
    vecs /= np.hypot(vecs[..., :1, :], vecs[..., 1:, :])
    if lapack.any():
        slow_vals, slow_vecs = _sorted_eig(h[lapack])
        vals = vals.astype(slow_vals.dtype)
        vecs = vecs.astype(slow_vecs.dtype)
        vals[lapack] = slow_vals
        vecs[lapack] = slow_vecs
    return vals, vecs


def _unit_oriented(rt: np.ndarray):
    """Rows of an entries-last (r, d, w) stack, rt[k, :, e] row k of entry
    e, scaled to unit norm and oriented by :func:`_oriented`."""
    sq = rt * rt
    norm = sq[:, 0]
    for q in range(1, rt.shape[1]):
        norm = norm + sq[:, q]
    return _oriented(rt / np.maximum(np.sqrt(norm), np.finfo(float).tiny)[:, None])


def _oriented(rt: np.ndarray):
    """identify.orient_rows, in place, on an entries-last (r, d, w) stack.

    Each row is flipped so its sum is positive, or, where the sum is within
    ROW_SUM_FALLBACK_TOL of zero, its first largest-magnitude entry.
    Returns (rt, fallback), `fallback` (r, w) marking the latter rows.  The
    sums run over each row in order, as a reduction over a trailing axis
    does.
    """
    total = rt[:, 0]
    for q in range(1, rt.shape[1]):
        total = total + rt[:, q]
    fallback = np.abs(total) < ROW_SUM_FALLBACK_TOL
    flip = total < 0
    if fallback.any():
        k, e = np.nonzero(fallback)
        low = rt[k, :, e]
        flip[k, e] = low[np.arange(k.size), np.argmax(np.abs(low), axis=1)] < 0
    # Times -1 is negation, bit for bit.
    rt *= np.where(flip, -1.0, 1.0)[:, None]
    return rt, fallback


def overid_offdiag(ms: np.ndarray, d: int, w1, w2) -> np.ndarray:
    """vech_off(L Sigma L') for each moment vector; shape (..., d*(d-1)/2)."""
    return offdiag_from_rows(demix_rows(ms, d, w1, w2).rows, ms, d)


def offdiag_from_rows(rows: np.ndarray, ms: np.ndarray, d: int) -> np.ndarray:
    """vech_off(L Sigma L') for demixing rows L already fitted to `ms`."""
    sigma = covariance_from_moments(ms, d)
    demixed = rows @ sigma @ np.swapaxes(rows, -2, -1)
    iu = np.triu_indices(d, 1)
    return demixed[..., iu[0], iu[1]]


@functools.lru_cache(maxsize=EXHAUSTIVE_PERMUTATION_CAP)
def _permutation_table(d: int):
    """The d! row orderings: as tuples, as a (d!, d) table whose row p is
    perm_p, and as `pivots[p, i]`, the row-major index of entry
    (perm_p[i], i) of a (d, d) block."""
    perms = tuple(itertools.permutations(range(d)))
    table = np.array(perms, dtype=np.intp).reshape(len(perms), d)
    pivots = table * d + np.arange(d)
    table.flags.writeable = False
    pivots.flags.writeable = False
    return perms, table, pivots


def _ranked(table: np.ndarray):
    """Lexicographic rank of each ordering of a (b, d) table among all d!
    orderings, which is its index in :func:`_permutation_table`, and a dict
    from each rank to its ordering."""
    d = table.shape[1]
    later = np.triu(np.ones((d, d), dtype=bool), 1)
    smaller_after = ((table[:, None, :] < table[:, :, None]) & later).sum(axis=2)
    ranks = smaller_after @ np.array([math.factorial(d - 1 - i) for i in range(d)])
    return ranks, {k: tuple(p) for k, p in zip(ranks.tolist(), table.tolist())}


def _chunks(b: int, d: int) -> list[slice]:
    """Slices of a b-entry stack whose (d!, chunk) totals (up to the cap)
    and (d, d, d, chunk) arrays hold at most _LABEL_CHUNK_ELEMENTS elements."""
    width = math.factorial(d) if d <= EXHAUSTIVE_PERMUTATION_CAP else 0
    step = max(1, _LABEL_CHUNK_ELEMENTS // max(width, d**3))
    return [slice(s, min(s + step, b)) for s in range(0, b, step)]


def _pivots(r: np.ndarray) -> np.ndarray:
    """Divisors of the diagonal normalization, with 1 in place of ~0 entries."""
    return np.where(np.abs(r) < 1e-300, 1.0, r)


def _entries_last(r: np.ndarray):
    """A (k, d, d) stack as a contiguous (d, d, k) array, its magnitudes,
    and each entry's diagonal floor: 1e-12 of its largest magnitude."""
    k, d, _ = r.shape
    rt = np.ascontiguousarray(r.transpose(1, 2, 0))
    absr = np.abs(rt)
    peak = np.maximum.reduce(absr.reshape(d * d, k), axis=0)
    return rt, absr, 1e-12 * np.maximum(peak, 1e-300)


def _normalized(r: np.ndarray, table: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Stack entry e of `r` with its rows put in ordering table[cand[e]],
    each row divided by its diagonal entry: one row gather for the stack."""
    block = r[np.arange(r.shape[0])[:, None], table[cand]]
    return block / _pivots(np.diagonal(block, axis1=1, axis2=2))[:, :, None]


def _candidate_totals(cost: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """total[p, b] = sum_i cost[perm_p[i], i, b] for every ordering p."""
    flat = cost.reshape(-1, cost.shape[-1])
    total = flat[pivots[:, 0]]
    for i in range(1, pivots.shape[1]):
        total += flat[pivots[:, i]]
    return total


def _stack_sum(terms: np.ndarray, b: int) -> np.ndarray:
    """Row sums of per-entry terms, in numpy's order for a b-entry stack.

    Picking terms out of a stack of b > 1 entries by a mask or by index
    arrays lays them out with the stack axis innermost, so numpy sums each
    entry's terms left to right; a single entry's terms are contiguous and
    summed pairwise.  The labelers sum their tie-break and residual scores
    in that same order, however many rows they rescore.
    """
    if b > 1 and terms.shape[1]:
        return _fold_last(np.add, terms)
    return np.sum(np.ascontiguousarray(terms), axis=-1)


def _sign_cost(rt, absr, floor, pattern) -> np.ndarray:
    """cost[k, i, b]: sign mismatches of row k of entry b normalized at
    position i, for an entries-last stack `rt` and a float `pattern`.

    sign(r_kj / r_ki) is sign(r_kj) sign(r_ki), so with dot = sign(r) @
    pattern' (GEMMs along the stack) twice the count is n_active_i +
    zeros_ki - sign(r_ki) dot_ki, zeros_ki counting the active exact zeros
    of row k.  Positions whose pivot is not above `floor` cost inf.
    """
    signs = np.sign(rt)
    dot = np.matmul(pattern, signs)
    active = np.abs(pattern)
    twice = active.sum(axis=1)[:, None]
    zero = rt == 0
    if zero.any():
        twice = twice + np.matmul(active, zero)
    twice = twice - np.where(absr < 1e-300, 1.0, signs) * dot
    return np.where(absr > floor, 0.5 * twice, np.inf)


def _margin_cost(rt, pattern) -> np.ndarray:
    """margin[k, i, b] = sum_j pattern_ij r_kj / r_ki for entry b of an
    entries-last stack: the margin of row k normalized at position i."""
    return np.matmul(pattern, rt) / _pivots(rt)


def _triangular_cost(rt, absr, floor) -> np.ndarray:
    """cost[k, i, b] = sum_{j > i} (r_kj / r_ki)^2 for entry b of an
    entries-last stack, inf where r_ki is not above `floor`."""
    d = rt.shape[0]
    q = rt[:, None, :, :] / _pivots(rt)[:, :, None, :]
    above = np.triu(np.ones((d, d), dtype=bool), 1)[:, :, None]
    mass = np.where(above, q * q, 0.0).sum(axis=2)
    return np.where(absr > floor, mass, np.inf)


def _assign(cost: np.ndarray):
    """Row placed at each position by an optimal assignment of the (d, d)
    cost[row, position] (inf forbids a placement), or None when there is
    no finite assignment."""
    try:
        return linear_sum_assignment(cost.T)[1]
    except ValueError:
        return None


def _sign_assignment(count: np.ndarray, margin):
    """Fewest sign mismatches, then the largest margin, for one (d, d) entry.

    count[k, i] and margin[k, i] score row k at position i.  With big above
    twice d max|margin|, the cost count * big - margin is lexicographic, so
    one linear_sum_assignment settles both (margins closer than its
    rounding are not told apart).  Ties come from Murty's second-best
    assignments: one re-solve per placement of the optimum, with it
    forbidden.  Returns (perm, ties): the optimal ordering, None when none
    is valid, and the distinct re-solved orderings with as few mismatches.
    With `margin` None it is the plain assignment on `count`, without ties.
    """
    if margin is None:
        return _assign(count), []
    d = count.shape[0]
    valid = np.isfinite(count) & np.isfinite(margin)
    big = 4.0 * d * np.max(np.abs(margin[valid]), initial=0.0) + 1.0
    cost = np.where(valid, count * big - margin, np.inf)
    perm = _assign(cost)
    if perm is None:
        return None, []
    positions = np.arange(d)
    low = count[perm, positions].sum()
    ties = {}
    for i, k in enumerate(perm):
        banned = cost.copy()
        banned[k, i] = np.inf
        alt = _assign(banned)
        if alt is not None and count[alt, positions].sum() == low:
            ties[tuple(alt.tolist())] = None
    return perm, list(ties)


def _label(r: np.ndarray, cost, margin, terms, rtol: float):
    """Per entry of a (b, d, d) stack, the row ordering of least total
    placement cost (the linear assignment problem), and the entry
    normalized in it.

    `cost(rt, absr, floor)` is cost[k, i, e], row k of entry e at position
    i (inf forbids it), for an entries-last chunk (:func:`_entries_last`).
    Up to ``EXHAUSTIVE_PERMUTATION_CAP`` rows every ordering is totalled
    through the (d!, d) table, once per chunk for all entries whose cost
    matrix equals the first entry's.  Orderings within `rtol` of the least
    total are candidates; an entry with several takes the one of least
    ``_stack_sum(terms(normalized), b)``, the first on a tie.  Beyond the
    cap each entry is one :func:`_sign_assignment` with `margin(rt)`, a
    plain assignment when `margin` is None.

    Returns (lam, best, tied, perm_index, perms): the least total (inf, and
    ordering 0, without a valid ordering), whether other orderings tie with
    it, the ordering's rank among all d!, and the map from rank to
    ordering, as :func:`label_signs` returns them.
    """
    b, d, _ = r.shape
    best = np.full(b, np.inf)
    tied = np.ones(b, dtype=bool)
    if d > EXHAUSTIVE_PERMUTATION_CAP:
        table = np.tile(np.arange(d), (b, 1))
        for s in _chunks(b, d):
            rt, absr, floor = _entries_last(r[s])
            c = cost(rt, absr, floor)
            m = [None] * c.shape[-1] if margin is None else np.moveaxis(margin(rt), -1, 0)
            for e in range(c.shape[-1]):
                perm, ties = _sign_assignment(c[..., e], m[e])
                if perm is not None:
                    i = s.start + e
                    best[i] = c[perm, np.arange(d), e].sum()
                    tied[i], table[i] = bool(ties), perm
        perm_index, perms = _ranked(table)
        return _normalized(r, table, np.arange(b)), best, tied, perm_index, perms
    perms, table, pivots = _permutation_table(d)
    perm_index = np.empty(b, dtype=np.intp)
    for s in _chunks(b, d):
        c = cost(*_entries_last(r[s]))
        # Entries whose cost matrix is entry 0's share its totals: only the
        # others are totalled, and col maps each entry to its column.
        other = np.flatnonzero((c != c[..., :1]).reshape(d * d, -1).any(axis=0))
        col = np.zeros(c.shape[-1], dtype=np.intp)
        col[other] = np.arange(1, other.size + 1)
        total = _candidate_totals(c[..., np.r_[0, other]], pivots)
        low = np.minimum.reduce(total, axis=0)
        at_best = total <= low * (1.0 + rtol)
        many = np.count_nonzero(at_best, axis=0) > 1
        # The first candidate: ordering 0 for an entry without a valid one,
        # where every total is inf; entries with more are rescored below.
        pick = at_best.argmax(axis=0)[col]
        low, many = low[col], many[col]
        refine = np.flatnonzero(many & np.isfinite(low))
        if refine.size:
            cand, ent = np.nonzero(at_best[:, col[refine]])
            score = np.full((refine.size, len(perms)), np.inf)
            score[ent, cand] = _stack_sum(
                terms(_normalized(r[s][refine[ent]], table, cand)), b)
            pick[refine] = score.argmin(axis=1)
        best[s], tied[s], perm_index[s] = low, many, pick
    return _normalized(r, table, perm_index), best, tied, perm_index, list(perms)


def label_signs(rows: np.ndarray, pattern: np.ndarray):
    """Vectorized sign labeling with margin tie-break over a stack of rows.

    Diagonal normalization divides row k by its entry at the position i it
    is put in, so the sign mismatches of that placement depend on (k, i)
    alone, and :func:`_label` finds the fewest.  An ordering is invalid
    when a diagonal entry is not above 1e-12 of the stack entry's largest
    magnitude.  Of the orderings tied on the count, the largest margin
    sum(pattern * normalized) wins, the first on an exact margin tie.

    Signs are read from the rows themselves: sign(r_kj / r_ki) equals
    sign(r_kj) sign(r_ki) unless the quotient underflows to zero, which
    rows of norm at most 1 cannot produce.

    Returns (lambda_final, mismatches, tie_flags, perm_index, permutations):
    `tie_flags` marks entries where two permutations tied on mismatch count
    (resolved by margin).  `perm_index` is the lexicographic rank of the
    chosen ordering among all d! orderings, and `permutations` maps it to
    the ordering: the list of all d! orderings up to the cap, a dict of the
    chosen ones beyond.  An entry without a valid ordering reports
    int32-max mismatches, a tie, and ordering 0 (the identity).
    """
    squeeze = rows.ndim == 2
    r = rows[None] if squeeze else rows
    d = r.shape[-1]
    pattern = np.asarray(pattern)
    if pattern.shape != (d, d) or not ((pattern == 0) | (np.abs(pattern) == 1)).all():
        raise ValueError(f"sign pattern must be {d}x{d} with entries -1, 0 or +1")
    active = pattern != 0
    weights = pattern.astype(float)
    # (-p) x is -(p x) and a sum of negated terms is the negated sum, bit
    # for bit, so the smallest score is the largest margin.
    negated = -pattern[active]
    lam, best, tie_flags, perm_index, perms = _label(
        r, functools.partial(_sign_cost, pattern=weights),
        functools.partial(_margin_cost, pattern=weights),
        lambda lam: negated * lam[:, active], 0.0)
    best_mism = np.where(np.isfinite(best), best, _INVALID_MISMATCH).astype(np.int64)
    if squeeze:
        return (lam[0], int(best_mism[0]), bool(tie_flags[0]),
                int(perm_index[0]), perms)
    return lam, best_mism, tie_flags, perm_index, perms


def _sign_ties(rows: np.ndarray, pattern: np.ndarray):
    """The orderings of one (d, d) entry that tie on the fewest sign
    mismatches and their margins, as :func:`label_signs` scores them: up to
    the cap all such orderings in table order, beyond it the chosen one and
    the second-best assignments that tie with it.  The entry must have a
    valid ordering."""
    d = rows.shape[0]
    weights = pattern.astype(float)
    rt, absr, floor = _entries_last(rows[None])
    count = _sign_cost(rt, absr, floor, weights)
    if d > EXHAUSTIVE_PERMUTATION_CAP:
        perm, ties = _sign_assignment(count[..., 0], _margin_cost(rt, weights)[..., 0])
        orderings = [tuple(perm.tolist()), *ties]
        table, cand = np.array(orderings), np.arange(len(orderings))
    else:
        perms, table, pivots = _permutation_table(d)
        total = _candidate_totals(count, pivots)[:, 0]
        cand = np.flatnonzero(total == total.min())
        orderings = [perms[c] for c in cand]
    normalized = _normalized(np.repeat(rows[None], cand.size, axis=0), table, cand)
    active = pattern != 0
    return orderings, _stack_sum(pattern[active] * normalized[:, active], 1)


def label_triangular(rows: np.ndarray):
    """Vectorized triangular labeling over a stack of demixing rows.

    Picks, per stack entry, the row permutation minimizing the sum of
    squared above-diagonal entries after diagonal normalization: :func:`_label`
    on the separable mass[k, i] = sum_{j > i} (r_kj / r_ki)^2.  Its totals
    sum in another order than that residual, so orderings within 4 d^2 ulps
    of the least are rescored by it.  Returns (lambda_final, residual,
    perm_index, permutations), indexed as in :func:`label_signs`; an entry
    without a valid ordering gets residual inf and ordering 0.
    """
    squeeze = rows.ndim == 2
    r = rows[None] if squeeze else rows
    b, d, _ = r.shape
    iu = np.triu_indices(d, 1)

    def above(lam):
        return lam[:, iu[0], iu[1]] ** 2

    lam, best, _, perm_index, perms = _label(
        r, _triangular_cost, None, above, 4.0 * d * d * np.finfo(float).eps)
    res = np.full(b, np.inf)
    valid = np.isfinite(best)
    res[valid] = _stack_sum(above(lam[valid]), b)
    if squeeze:
        return lam[0], float(res[0]), int(perm_index[0]), perms
    return lam, res, perm_index, perms


def labeled_entry(ms: np.ndarray, d: int, w1, w2, pattern, entry=(0, 1)):
    """One entry of the sign-labeled, diagonal-normalized demixing matrix
    for each moment vector, or with `entry` None the whole matrix,
    flattened row-major."""
    lam = label_signs(demix_rows(ms, d, w1, w2).rows, pattern)[0]
    if entry is None:
        return lam.reshape(*lam.shape[:-2], d * d)
    return lam[..., entry[0], entry[1]]


def batched_jacobian(func, m: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a batch-capable map of the moments.

    `func` maps a (B, D) stack to (B,) or (B, q).  `m` and `steps` are one
    moment vector and its steps, or a (C, D) stack of them; the 2D
    perturbations of every vector (one +/- pair per coordinate) are
    evaluated in a single call, and the Jacobian is (q, D) or (C, q, D).
    """
    k = m.shape[-1]
    stack = np.repeat(m[..., None, :], 2 * k, axis=-2)
    idx = np.arange(k)
    stack[..., 2 * idx, idx] += steps
    stack[..., 2 * idx + 1, idx] -= steps
    out = np.asarray(func(stack.reshape(-1, k))).reshape(*stack.shape[:-1], -1)
    diff = out[..., 2 * idx, :] - out[..., 2 * idx + 1, :]
    return np.swapaxes(diff / (2.0 * steps)[..., None], -2, -1)
