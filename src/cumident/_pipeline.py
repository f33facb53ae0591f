"""Moment-parameterized estimation pipeline, vectorized over moment vectors.

Everything downstream of the moment vector (cumulant map, contractions,
eigendecomposition, orientation, labeling, demixed-covariance off-diagonals)
is re-expressed here to act on a stack of moment vectors at once: moments
of the centered sample (``moments._centered_moments``), so nothing changes
when a constant is added to the data; their length sets the cumulant
order, 3 or 4.  The delta method perturbs the order-3 moment vector and
the jackknife downdates it once per observation, both through
one resampling kernel (``inference._resampled``), which the standard errors,
the Wald test and Table 2 share.  It returns Omega, the covariance of
sqrt(n) times the statistic, and one failure code per sample.
Single-vector callers (``identify``'s ``estimate_demixing``, the delta
anchor, the jackknife centre, the Wald point statistic) run the kernels on
a stack of one and get the same numbers, bit for bit; so do the scalar
orientation and labeling functions, and
``identify.demixing_from_contractions`` enters after the contractions
(:func:`demix_contractions`).

The single-sample entry points share the order-3 :class:`MomentRecord` of
the most recent sample (:func:`moment_record`): its centered monomials and
moments, and, once built, Sigma_m and the demixed delete-1 rows of one
probe pair.  So one analysis builds the monomial matrix and Sigma_m once,
and the jackknife standard errors and the jackknife Wald test demix the
delete-1 stack once.  That stack is never built or held whole: its moment
vectors are made from the monomials chunk by chunk as the kernels read them
(:class:`Delete1Moments`).  The record is the only state kept across calls.

A stack of more than one entry (a delete-1 stack, or the +/- points of a
finite-difference Jacobian), at every d, is demixed by one loop over its
chunks (:func:`_stack_rows`).  The points of each sample it resamples start
from that sample's anchor: the rows that diagonalize the symmetric pencil
(G(w1), G(w2)) at the sample, which are its point estimate.  In that basis
each entry's pencil is nearly diagonal; one matrix product forms it from
the sorted cumulants, and Newton steps finish it, with no cumulant tensor
and no solve (:func:`_pencil_part`).  Entries that fail a rounding-level
check go to LAPACK within their chunk.  So do all the points of a sample
whose estimate has a near-repeated or complex pair: their anchor rows are
NaN, which the kernel rejects.  The kernel scales and orients its rows
entries last, by the one orientation (:func:`_oriented`) that LAPACK rows
get in :func:`demix_contractions`.  On
eight n = 10 000, d = 5 samples the delete-1 and finite-difference rows
agree with LAPACK to 9.4e-15, the eigenvalues to 4.6e-15, the jackknife
variances to 1.8e-13 of their largest entry, and the delta variances and
Wald statistics, whose difference quotients amplify last-bit changes, to
1.9e-10.

A G(w2) that cannot be solved through fails by one rule at every d and
stack size (:func:`demix_contractions`): the kernels flag it, with NaN
rows, ``inference._resampled`` codes it for its sample, and the entry
points raise (``identify._demixing_estimate`` and
``inference._raise_failed``).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from scipy.optimize import linear_sum_assignment

from .errors import InvalidInputError
from .moments import (
    _centered_moments,
    _cumulant_map,
    _hessian,
    _moment_covariance,
    _order_of,
    _sorted_cumulants,
    covariance_from_moments,
    cumulants_from_moments,
)

EIGEN_GAP_RTOL = 1e-6
ROW_SUM_FALLBACK_TOL = 1e-8
# Largest d whose labeling scores all d! orderings through a gather table;
# beyond it each stack entry is solved as a linear assignment problem.
EXHAUSTIVE_PERMUTATION_CAP = 8

# Largest (chunk, d!) or (chunk, d, d, d) array the labelers build; longer
# stacks are labeled in chunks.
_LABEL_CHUNK_ELEMENTS = 1 << 18


class Delete1Moments:
    """The delete-1 moment vectors of an (n, D) monomial matrix `z`, read by
    rows and never built whole.

    ``stack[rows]`` and ``stack[rows, columns]`` are those entries of the
    (n, D) stack: (total - z_i) / (n - 1), `total` the column sums of z.
    :func:`demix_rows` and :func:`offdiag_from_rows` read it chunk by chunk.
    """

    ndim = 2

    def __init__(self, z: np.ndarray):
        self.z, self.shape = z, z.shape
        self.total = z.sum(axis=0)
        self.total.flags.writeable = False

    def __len__(self) -> int:
        return len(self.z)

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        return (self.total[cols] - self.z[rows, cols]) / (len(self.z) - 1)


class MomentRecord:
    """The centered moments of one validated (n, d) sample `x`.

    `z` is its centered degree 1..h monomial matrix and `m_hat` the moments
    about the mean, z's column means (:func:`moments._centered_moments`).
    Sigma_m (:meth:`sigma_m`), the delete-1 moments (:attr:`delete1`) and
    the demixed delete-1 rows of one (w1, w2) pair (:meth:`leave_one_out`)
    are built on first use and kept; the delete-1 moment vectors themselves
    are not.  Everything it holds is read-only, and each kept result is set
    whole.
    """

    def __init__(self, x: np.ndarray, z: np.ndarray, m_hat: np.ndarray, strides=None):
        z.flags.writeable = m_hat.flags.writeable = False
        self.x, self.z, self.m_hat = x, z, m_hat
        # The layout the moments were computed in: x's, unless a copy is held.
        self.strides = strides or x.strides
        self._sigma_m = None
        self._loo = None

    @classmethod
    def of(cls, x: np.ndarray) -> "MomentRecord":
        """The order-3 record of `x`, not kept beyond the caller's reference."""
        return cls(x, *_centered_moments(x))

    def sigma_m(self) -> np.ndarray:
        """Sigma_m, the covariance of the monomials about their means."""
        if self._sigma_m is None:
            sigma = _moment_covariance(self.z, self.m_hat)
            sigma.flags.writeable = False
            self._sigma_m = sigma
        return self._sigma_m

    @functools.cached_property
    def delete1(self) -> Delete1Moments:
        """The delete-1 moment vectors of the sample, read by rows."""
        return Delete1Moments(self.z)

    def leave_one_out(self, w1, w2, anchor: np.ndarray | None) -> DemixedRows:
        """:func:`demix_rows` of the delete-1 stack :attr:`delete1` from
        `anchor`, without the eigenvalues, `max_imag` and `orient_fallbacks`
        that no reader uses.  The rows of the most recent (w1, w2) are kept
        (the anchor is the estimate at them); other probes drop them first.
        """
        key = (np.asarray(w1, dtype=float).tobytes(),
               np.asarray(w2, dtype=float).tobytes())
        held = self._loo
        if held is not None and held[0] == key:
            return held[1]
        # Drop both references, so the old rows are freed before the next.
        self._loo = held = None
        demixed = demix_rows(self.delete1, self.x.shape[1], w1, w2, anchor)._replace(
            eigenvalues=None, max_imag=None, orient_fallbacks=None)
        for a in demixed:
            if a is not None:
                a.flags.writeable = False
        self._loo = (key, demixed)
        return demixed


# The order-3 MomentRecord of the most recent sample passed to
# moment_record, or None.  It is only ever read or replaced whole, so it
# holds at most one sample even when threads share it.
_record = None


def moment_record(x: np.ndarray, order: int = 3) -> MomentRecord:
    """The :class:`MomentRecord` of a validated float sample at cumulant
    order `order`, shared by the single-sample entry points.

    The order-3 record of the most recent sample is kept, with a read-only
    copy of it and the caller's strides, and returned again while `x`
    equals that copy bit for bit and has those strides.  So an in-place
    change misses, and so does another layout, whose column means have other
    last bits; a strided view hits, though its copy is contiguous.  A miss
    drops the held record before it builds the next one.  A record of
    another order is built each time and not kept: every caller that reuses
    a record (Sigma_m, the delete-1 stack) is order 3, and an order-4
    estimate must not evict the order-3 record of the same sample.
    """
    global _record
    if order != 3:
        return MomentRecord(x, *_centered_moments(x, order))
    held = _record
    # Compared as bits, so that even 0.0 and -0.0 differ.
    if (held is not None and held.x.shape == x.shape and held.x.dtype == x.dtype
            and held.strides == x.strides
            and np.array_equal(held.x.view(np.uint64), x.view(np.uint64))):
        return held
    _record = held = None
    copy = x.copy(order="K")
    copy.flags.writeable = False
    # The moments of x as the caller laid it out, as MomentRecord.of computes them.
    _record = held = MomentRecord(copy, *_centered_moments(x), x.strides)
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
    `max_imag`, `eig_fallbacks`, the entries of a stack that LAPACK demixed
    (:func:`_stack_rows`), `orient_fallbacks` (..., d) (:func:`_oriented`),
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


def demix_rows(ms: np.ndarray, d: int, w1, w2, anchor: np.ndarray | None = None,
               cond_cap: float | None = None) -> DemixedRows:
    """Oriented unit demixing rows for each moment vector in the stack.

    Parameters
    ----------
    ms : ndarray, shape (..., D) with D = binom(d+h,h)-1, or Delete1Moments
        Raw-moment vectors of degree 1..h in the package-wide monomial
        order, about any origin; the callers use the sample mean.  D sets
        the cumulant order h, 3 or 4.
    anchor : ndarray (d, d) or (C, d, d), or None
        Rows of the samples a stack resamples, one for each run of len(ms) /
        C entries, which is refined from them (:func:`_stack_rows`).
    cond_cap : float or None
        When set, also fail a G(w2) whose condition estimate exceeds it (see
        :func:`demix_contractions`); resampling stacks leave it off for speed.

    A (b, D) stack without a cap is read and demixed chunk by chunk
    (:func:`_stack_rows`), through the pencil kernel, which hands every
    entry of a run without finite anchor rows to LAPACK.
    Returns a :class:`DemixedRows`; a failed entry is flagged, not raised.
    """
    w1, w2 = np.asarray(w1, dtype=float), np.asarray(w2, dtype=float)
    if cond_cap is None and ms.ndim == 2 and len(ms) > 1:
        anchors = np.full((1, d, d), np.nan) if anchor is None else anchor
        return _stack_rows(ms, d, w1, w2, np.reshape(anchors, (-1, d, d)))
    return demix_contractions(*_contractions(ms, d, w1, w2), cond_cap)


def _contractions(ms: np.ndarray, d: int, w1: np.ndarray, w2: np.ndarray):
    """G(w1) and G(w2) of each moment vector."""
    order = _order_of(ms.shape[-1], d)
    tensors = cumulants_from_moments(ms, d)
    return _hessian(tensors, w1, order), _hessian(tensors, w2, order)


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
    vals, vecs = _sorted_eig(h)
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
        h = np.linalg.solve(g2, g1)
    failed = failed | ~np.isfinite(_entry_peak(h))
    return _with_identity(h, failed), failed, cond


def _entry_peak(g: np.ndarray) -> np.ndarray:
    """max|g| of each (d, d) entry of a stack; NaN or inf where not finite."""
    return _fold_last(np.maximum, np.abs(g).reshape(*g.shape[:-2], -1))


def _singular(unit: np.ndarray) -> np.ndarray:
    """Entries of a (..., d, d) stack at unit scale (:func:`_solved`) with a
    zero pivot of LAPACK's LU."""
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


def _pencil_chunks(b: int, d: int, runs: int = 1) -> list[slice]:
    """The chunks in which a b-entry stack of `runs` equal runs is read:
    _PENCIL_CHUNK_ELEMENTS // d^2 entries each (at least one).  A longer run
    is cut from its own first entry; shorter runs share a chunk whole.  The
    pencil kernel's bits depend on the chunk width (:func:`_pencil_part`),
    so a run's boundaries are fixed here, and are those it has alone."""
    step = max(1, _PENCIL_CHUNK_ELEMENTS // (d * d))
    size = b // runs
    if size > step:
        return [slice(s, min(s + step, r + size))
                for r in range(0, b, size) for s in range(r, r + size, step)]
    per = step // size
    return [slice(r * size, min(r + per, runs) * size) for r in range(0, runs, per)]


def _stack_rows(ms, d: int, w1: np.ndarray, w2: np.ndarray, anchors) -> DemixedRows:
    """:func:`demix_rows` of a (b, D) moment stack, an array or a
    :class:`Delete1Moments`, read one :func:`_pencil_chunks` chunk at a time.

    The stack is C equal runs, one for each of the (C, d, d) `anchors`, the
    rows (estimate) of the sample that the run resamples.  Each chunk goes
    through the pencil kernel (:func:`_pencil_part`) in the basis that maps
    sorted cumulants to (anchor G(w1) anchor', anchor G(w2) anchor'), and
    the entries it rejects go to LAPACK: all of a run with NaN rows (an
    estimate with a gap flag), which no refinement starts from.  LAPACK's
    entries are flagged in `eig_fallbacks`, and are bitwise what a stack of
    them alone gives (chunks of 1 to 16 384 entries gave the bits of one
    call on delete-1 stacks at d = 2, 3 and 5).  The fields are laid out as
    the first chunk's, whatever the chunk count.
    """
    size = len(ms) // len(anchors)
    maps = _contraction_maps(d, w1, w2, _order_of(ms.shape[-1], d))
    # kron(anchor, anchor) of each run.
    pairs = np.einsum("cij,ckl->cikjl", anchors, anchors).reshape(-1, 1, d * d, d * d)
    bases = (pairs @ maps).reshape(len(anchors), 2 * d * d, -1)
    out = None
    for s in _pencil_chunks(len(ms), d, len(anchors)):
        r = slice(s.start // size, (s.stop - 1) // size + 1)
        part = _pencil_part(ms, s, d, anchors[r], bases[r])
        slow = np.flatnonzero(part.eig_fallbacks)
        if slow.size:
            lapack = demix_contractions(*_contractions(ms[s.start + slow], d, w1, w2))
            lapack.eig_fallbacks[:] = True
            _fill(part, slow, lapack)
        if out is None:
            out = DemixedRows(*(
                None if f is None else np.empty_like(f, shape=(len(ms), *f.shape[1:]))
                for f in part))
        _fill(out, s, part)
    return out


def _fill(out: DemixedRows, at, part: DemixedRows) -> None:
    """Write `part` into the entries `at` of `out`: every field but
    cond_g2, which the stacks leave None."""
    for full, piece in zip(out[:-1], part[:-1]):
        full[at] = piece


def _pencil_part(ms, s: slice, d: int, anchors: np.ndarray,
                 bases: np.ndarray) -> DemixedRows:
    """:func:`_pencil_newton` on the entries `s` of a (b, D) stack, whole
    runs or part of one, from the (r, d, d) anchors and (r, 2 d^2, T) bases
    of their r runs (:func:`_stack_rows`), as C-ordered DemixedRows fields.

    In the basis y = anchor x an entry's pencil is nearly diagonal; one
    batched product with the bases forms every run's from its sorted
    cumulants.  The rows U anchor are unit-normalized and oriented
    (:func:`_unit_oriented`) entries last.  The bits of the product, and at
    a few small widths those of the Newton steps, depend on the chunk width,
    so a stack gives the rows of the whole only when cut at the boundaries
    of :func:`_pencil_chunks`.
    """
    cumulants = _sorted_cumulants(ms[s], d).T
    pencil = bases @ cumulants.reshape(len(cumulants), len(anchors), -1).swapaxes(0, 1)
    u, vals, accepted = _pencil_newton(*pencil.swapaxes(0, 1).reshape(2, d, d, -1))
    # Entries the kernel rejects may not be finite; LAPACK redoes them.
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.einsum("kpre,rpq->kqre", u.reshape(d, d, len(anchors), -1), anchors)
        unit, orient = _unit_oriented(rows.reshape(d, d, -1))
    # An accepted entry has real eigenvectors and no eigen-gap flag: its
    # gaps are at least EIGEN_GAP_RTOL of its scale (see _pencil_newton).
    return DemixedRows(np.ascontiguousarray(unit.transpose(2, 0, 1)),
                       np.ascontiguousarray(vals.T), np.zeros_like(accepted),
                       np.zeros(len(accepted)), ~accepted,
                       np.ascontiguousarray(orient.T), np.zeros_like(accepted), None)


def _contraction_maps(d: int, w1: np.ndarray, w2: np.ndarray,
                      order: int = 3) -> np.ndarray:
    """(2, d*d, T) maps of the T :func:`_sorted_cumulants` to G(w1) and
    G(w2), flattened row-major: the contractions of the unit tensors."""
    mirror = _cumulant_map(d, order)[1]
    units = np.eye(mirror.max() + 1)[:, mirror]
    return np.stack([_hessian(units, w, order).reshape(len(units), -1).T
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


def offdiag_from_rows(rows: np.ndarray, ms, d: int) -> np.ndarray:
    """vech_off(L Sigma L') for demixing rows L already fitted to `ms`: one
    (d, d) L and moment vector, or a (b, d, d) stack and a (b, D) stack (an
    array or a :class:`Delete1Moments`), read by :func:`_pencil_chunks`.
    Sigma reads only the degree 1 and 2 moments."""
    iu = np.triu_indices(d, 1)

    def offdiag(r, m):
        demixed = r @ covariance_from_moments(m, d) @ np.swapaxes(r, -2, -1)
        return demixed[..., iu[0], iu[1]]

    if rows.ndim == 2:
        return offdiag(rows, ms)
    low = d + d * (d + 1) // 2
    # Column-major, as the gather of one pass lays it out: the jackknife's
    # mean over the stack sums each column pairwise.
    out = np.empty((len(iu[0]), len(rows))).T
    for s in _pencil_chunks(len(rows), d):
        out[s] = offdiag(rows[s], ms[s, :low])
    return out


@functools.lru_cache(maxsize=EXHAUSTIVE_PERMUTATION_CAP)
def _permutation_table(d: int):
    """The d! row orderings in lexicographic order, as a (d!, d) table whose
    row p is perm_p, and as `pivots[p, i]`, the row-major index of entry
    (perm_p[i], i) of a (d, d) block."""
    table = np.array(list(itertools.permutations(range(d))), dtype=np.intp)
    pivots = table * d + np.arange(d)
    table.flags.writeable = False
    pivots.flags.writeable = False
    return table, pivots


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


def _normalized(r: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Stack entry e of `r` with its rows put in ordering order[e], each row
    divided by its diagonal entry: one row gather for the stack."""
    block = r[np.arange(r.shape[0])[:, None], order]
    block /= _pivots(np.diagonal(block, axis1=1, axis2=2))[:, :, None]
    return block


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

    Returns (lam, best, tied, order): the least total (inf, and the
    identity ordering, without a valid ordering), whether other orderings
    tie with it, and the (b, d) orderings, as :func:`label_signs` returns
    them.
    """
    b, d, _ = r.shape
    best = np.full(b, np.inf)
    tied = np.ones(b, dtype=bool)
    if d > EXHAUSTIVE_PERMUTATION_CAP:
        order = np.tile(np.arange(d, dtype=np.intp), (b, 1))
        for s in _chunks(b, d):
            rt, absr, floor = _entries_last(r[s])
            c = cost(rt, absr, floor)
            m = [None] * c.shape[-1] if margin is None else np.moveaxis(margin(rt), -1, 0)
            for e in range(c.shape[-1]):
                perm, ties = _sign_assignment(c[..., e], m[e])
                if perm is not None:
                    i = s.start + e
                    best[i] = c[perm, np.arange(d), e].sum()
                    tied[i], order[i] = bool(ties), perm
        return _normalized(r, order), best, tied, order
    table, pivots = _permutation_table(d)
    # Rows of the table, gathered once: (b, d) orderings are not held per chunk.
    index = np.empty(b, dtype=np.intp)
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
            score = np.full((refine.size, len(table)), np.inf)
            score[ent, cand] = _stack_sum(
                terms(_normalized(r[s][refine[ent]], table[cand])), b)
            pick[refine] = score.argmin(axis=1)
        best[s], tied[s], index[s] = low, many, pick
    order = table[index]
    return _normalized(r, order), best, tied, order


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

    Returns (lambda_final, mismatches, tie_flags, order): `tie_flags`
    marks entries where two permutations tied on mismatch count (resolved
    by margin), and `order` holds the chosen ordering of each entry, a (b,
    d) intp array whose row e puts row order[e][i] of entry e at position
    i, or a tuple for one entry.  An entry without a valid ordering reports
    inf mismatches, a tie, and the identity ordering.
    """
    squeeze = rows.ndim == 2
    r = rows[None] if squeeze else rows
    d = r.shape[-1]
    pattern = np.asarray(pattern)
    if pattern.shape != (d, d) or not ((pattern == 0) | (np.abs(pattern) == 1)).all():
        raise InvalidInputError(
            f"sign pattern must be {d}x{d} with entries -1, 0 or +1")
    if len({tuple(row) for row in pattern.tolist()}) < d:
        raise InvalidInputError("sign pattern rows must be pairwise distinct")
    active = pattern != 0
    weights = pattern.astype(float)
    # (-p) x is -(p x) and a sum of negated terms is the negated sum, bit
    # for bit, so the smallest score is the largest margin.
    negated = -pattern[active]
    lam, best, tie_flags, order = _label(
        r, functools.partial(_sign_cost, pattern=weights),
        functools.partial(_margin_cost, pattern=weights),
        lambda lam: negated * lam[:, active], 0.0)
    if squeeze:
        return lam[0], float(best[0]), bool(tie_flags[0]), tuple(order[0].tolist())
    return lam, best, tie_flags, order


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
        order = np.array([perm, *ties], dtype=np.intp)
    else:
        table, pivots = _permutation_table(d)
        total = _candidate_totals(count, pivots)[:, 0]
        order = table[total == total.min()]
    normalized = _normalized(np.repeat(rows[None], len(order), axis=0), order)
    active = pattern != 0
    return ([tuple(p) for p in order.tolist()],
            _stack_sum(pattern[active] * normalized[:, active], 1))


def label_triangular(rows: np.ndarray):
    """Vectorized triangular labeling over a stack of demixing rows.

    Picks, per stack entry, the row permutation minimizing the sum of
    squared above-diagonal entries after diagonal normalization: :func:`_label`
    on the separable mass[k, i] = sum_{j > i} (r_kj / r_ki)^2.  Its totals
    sum in another order than that residual, so orderings within 4 d^2 ulps
    of the least are rescored by it.  Returns (lambda_final, residual,
    order), `order` as in :func:`label_signs`; an entry without a valid
    ordering gets residual inf and the identity ordering.
    """
    squeeze = rows.ndim == 2
    r = rows[None] if squeeze else rows
    b, d, _ = r.shape
    iu = np.triu_indices(d, 1)

    def above(lam):
        return lam[:, iu[0], iu[1]] ** 2

    lam, best, _, order = _label(
        r, _triangular_cost, None, above, 4.0 * d * d * np.finfo(float).eps)
    res = np.full(b, np.inf)
    valid = np.isfinite(best)
    res[valid] = _stack_sum(above(lam[valid]), b)
    if squeeze:
        return lam[0], float(res[0]), tuple(order[0].tolist())
    return lam, res, order


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
