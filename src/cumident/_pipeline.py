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

The delete-1 stack of the most recent sample is kept
(:func:`leave_one_out_rows`), so the jackknife standard errors and the
jackknife Wald test on one sample build and eigendecompose it once.

For d >= 3, a stack of more than one entry (a delete-1 stack, or the +/-
points of a finite-difference Jacobian) is not eigendecomposed entry by
entry.  LAPACK runs once, on the mean of the stack, and three Newton steps
refine every entry from that anchor (:func:`_anchored_eig`).  An entry goes
to LAPACK when its residual is above a rounding-level bound, when its
eigenvalues are not strictly descending with the eigen-gap tolerance, or
when it is not finite; the whole stack does when the anchor has a
near-repeated or complex pair.  On delete-1 stacks of n = 10 000, d = 5
samples, the refined rows and eigenvalues agree with LAPACK to about 1e-14,
the jackknife variances to 2e-13 of their largest entry, and the
finite-difference delta variances and Wald statistics to about 1e-9, since
the difference quotients amplify last-bit changes.  The d = 2 stacks use
the closed form of :func:`_sorted_eig_2x2` instead.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math

import numpy as np

from scipy.optimize import linear_sum_assignment

from .errors import IllConditionedError
from .moments import (
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


# The delete-1 stack kept by leave_one_out_rows, as (key, (rows, gap_flags,
# moments, eig_fallbacks)), or None.  It is only ever read or replaced whole,
# so it holds at most one stack even when threads share it.
_loo_held = None


def leave_one_out_moments(monomials: np.ndarray) -> np.ndarray:
    """Delete-1 moment vectors from the (n, D) per-observation monomials."""
    n = monomials.shape[0]
    total = monomials.sum(axis=0)
    return (total[None, :] - monomials) / (n - 1)


def leave_one_out_rows(x: np.ndarray, z: np.ndarray, d: int, w1, w2,
                       rule: str = "A"):
    """Oriented demixing rows of every delete-1 resample of a sample.

    `x` is the validated (n, d) sample and `z` its centered monomials.  Returns
    (rows, gap_flags, moments, eig_fallbacks): the (n, d, d) rows, (n,)
    eigen-gap flags and (n,) refinement fallback flags of
    :func:`demix_rows` on the (n, D) delete-1 moment vectors, and those
    vectors, for :func:`offdiag_from_rows`.  The result for the most recent
    (sample, w1, w2, rule) is kept, read-only, and returned again while the
    sample's bytes are unchanged; a new key drops it before computing.
    """
    global _loo_held
    key = (
        x.shape, x.dtype.str, hashlib.blake2b(np.ascontiguousarray(x)).digest(),
        np.asarray(w1, dtype=float).tobytes(),
        np.asarray(w2, dtype=float).tobytes(), rule,
    )
    held = _loo_held
    if held is not None and held[0] == key:
        return held[1]
    # Drop both references, so the old stack is freed before the next is built.
    _loo_held = held = None
    loo = leave_one_out_moments(z)
    demixed = demix_rows(loo, d, w1, w2, rule)
    if demixed.ill_conditioned.any():
        raise IllConditionedError(
            "singular contraction at w2 in a delete-1 resample", float("inf"))
    entry = (demixed[0], demixed[2], loo, demixed.eig_fallbacks)
    for a in entry:
        a.flags.writeable = False
    _loo_held = (key, entry)
    return entry


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


def _solve_batched(g2: np.ndarray, g1: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(g2, g1)
    except np.linalg.LinAlgError:
        raise IllConditionedError(
            "contraction at w2 is numerically singular",
            float(np.max(np.linalg.cond(g2))),
        ) from None


class DemixedRows(tuple):
    """The (rows, eigenvalues, gap_flags, max_imag) of :func:`demix_rows`.

    `eig_fallbacks` flags, per stack entry, the eigenpairs that the anchored
    refinement handed back to LAPACK (see :func:`_anchored_eig`); it is all
    False where the refinement did not run (d = 2, or a single entry).
    `orient_fallbacks` flags the rows that fell back from rule A to rule B,
    and `cond_g2` is cond(G(w2)), per entry for a stack, when a `cond_cap`
    was checked, else None.
    `ill_conditioned` flags the stack entries whose G(w2) was not solved
    through (:func:`demix_contractions`); their rows and eigenvalues are NaN.
    """

    eig_fallbacks: np.ndarray
    orient_fallbacks: np.ndarray
    cond_g2: float | np.ndarray | None
    ill_conditioned: np.ndarray


def demix_rows(ms: np.ndarray, d: int, w1, w2, rule: str = "A",
               cond_cap: float | None = None) -> DemixedRows:
    """Oriented unit demixing rows for each moment vector in the stack.

    Parameters
    ----------
    ms : ndarray, shape (..., D) with D = binom(d+3,3)-1
        Raw-moment vectors in the package-wide monomial order, about any
        origin; the callers use the sample mean.
    cond_cap : float or None
        When set, reject a G(w2) whose condition estimate exceeds it (see
        :func:`demix_contractions`); resampling stacks leave it off for speed.

    Returns
    -------
    A :class:`DemixedRows` tuple of
    rows : ndarray, shape (..., d, d)
    eigenvalues : ndarray, shape (..., d), real parts, sorted descending
    gap_flags : ndarray of bool, shape (...,)
    max_imag : ndarray, shape (...,)
    """
    tensors = cumulants_from_moments(ms, d)
    g1 = 6.0 * contract_tensor(tensors, np.asarray(w1, dtype=float))
    g2 = 6.0 * contract_tensor(tensors, np.asarray(w2, dtype=float))
    return demix_contractions(g1, g2, rule, cond_cap)


def demix_contractions(g1: np.ndarray, g2: np.ndarray, rule: str = "A",
                       cond_cap: float | None = None) -> DemixedRows:
    """:func:`demix_rows` from the contractions G(w1), G(w2), (..., d, d).

    With `cond_cap` set, a G(w2) whose condition estimate exceeds it is not
    solved through: a single entry raises, a stack entry is flagged in
    `ill_conditioned`.  A singular G(w2) (zero or non-finite determinant)
    is flagged the same way in a d = 2 stack; a single entry, or a d >= 3
    stack, raises.  So one bad entry of a d = 2 stack fails alone.
    """
    d = g2.shape[-1]
    cond = None
    failed = np.zeros(g2.shape[:-2], dtype=bool)
    if cond_cap is not None:
        cond = np.linalg.cond(g2)
        failed = ~(cond <= cond_cap)
        if g2.ndim == 2:
            cond = float(cond)
            if failed:
                raise IllConditionedError(
                    "contraction at w2 is numerically singular", cond
                )
    if d == 2 and g2.ndim > 2:
        det = _det_2x2(g2)
        failed |= ~(np.isfinite(det) & (det != 0.0))
    if failed.any():
        g2 = np.where(failed[..., None, None], np.eye(d), g2)
    fallbacks = np.zeros(g2.shape[:-2], dtype=bool)
    if d == 2:
        vals, vecs = _sorted_eig_2x2(_solve_2x2(g2, g1))
    elif fallbacks.size > 1:
        h = _solve_batched(g2, g1)
        vals, vecs, fallbacks = _anchored_eig(h.reshape(-1, d, d))
        vals = vals.reshape(h.shape[:-1])
        vecs = vecs.reshape(h.shape)
        fallbacks = fallbacks.reshape(h.shape[:-2])
    else:
        vals, vecs = _sorted_eig(_solve_batched(g2, g1))

    max_imag = np.abs(vecs.imag).max(axis=(-2, -1))
    rows, orient_fallbacks = _oriented_rows(vecs, rule)
    gap_flags, vals = _gap_flags(vals), vals.real
    if failed.any():
        rows = np.where(failed[..., None, None], np.nan, rows)
        vals = np.where(failed[..., None], np.nan, vals)
    out = DemixedRows((rows, vals, gap_flags, max_imag))
    out.eig_fallbacks = fallbacks
    out.orient_fallbacks = orient_fallbacks
    out.cond_g2 = cond
    out.ill_conditioned = failed
    return out


def _oriented_rows(vecs: np.ndarray, rule: str):
    """Real parts of eigenvector columns as unit rows, oriented by `rule`;
    returns (rows, fallback) as :func:`_orient_rows_batched` does."""
    rows = np.swapaxes(vecs.real, -2, -1)
    norms = np.sqrt(_fold_last(np.add, rows * rows))[..., None]
    rows = rows / np.maximum(norms, np.finfo(float).tiny)
    return _orient_rows_batched(rows, rule)


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


# Newton steps of the anchored refinement.  Each squares the error; two
# leave residuals near 1e-8 on delete-1 stacks, three reach rounding level.
_REFINE_STEPS = 3
# A refined entry whose residual max|H x - lambda x| exceeds this multiple
# of eps * d * max|H| * max|X| goes to LAPACK.
_REFINE_RESIDUAL_ULPS = 64.0


def _anchored_eig(h: np.ndarray):
    """:func:`_sorted_eig` of a (b, d, d) stack that clusters around its mean.

    A delete-1 stack or a +/- finite-difference stack lies within O(1/n) or
    O(step) of the full-sample H.  LAPACK eigendecomposes the mean of the
    stack once (the anchor), and :func:`_refine_eig` takes every entry from
    there.  Entries it does not accept go to LAPACK, and so does the whole
    stack when the anchor itself has a near-repeated or complex pair.

    Returns (vals, vecs, fallbacks): eigenvalues sorted descending,
    eigenvector columns (refined ones are not unit-normalized), and the
    entries LAPACK computed, which are bitwise those of :func:`_sorted_eig`.
    """
    anchor_vals, anchor_vecs = _sorted_eig(h.mean(axis=0))
    if _gap_flags(anchor_vals):
        vals, vecs = _sorted_eig(h)
        return vals, vecs, np.ones(h.shape[0], dtype=bool)
    vals, vecs, accepted = _refine_eig(h, anchor_vecs.real)
    fallbacks = ~accepted
    if fallbacks.any():
        slow_vals, slow_vecs = _sorted_eig(h[fallbacks])
        vals = vals.astype(slow_vals.dtype)
        vecs = vecs.astype(slow_vecs.dtype)
        vals[fallbacks] = slow_vals
        vecs[fallbacks] = slow_vecs
    return vals, vecs, fallbacks


def _refine_eig(h: np.ndarray, v: np.ndarray):
    """Newton refinement of the eigenpairs of a (b, d, d) stack from the
    real eigenvector matrix `v` of a nearby matrix, columns sorted by
    descending eigenvalue.

    In the anchor basis B = V^-1 H V is nearly diagonal.  Each step refines
    every entry's eigenvector matrix X and its inverse Y at once (Dongarra,
    Moler & Wilkinson 1983): A = Y B X, E_jk = A_jk / (A_kk - A_jj) off the
    diagonal, X <- X (I + E), Y <- (I - E + E^2) Y, and one Newton-Schulz
    step Y <- Y (2I - X Y).  The eigenvalues are the diagonal of the last A.

    Returns (vals, vecs, accepted).  An entry is accepted when its residual
    max|H x - lambda x| is at most _REFINE_RESIDUAL_ULPS * eps * d * max|H|
    * max|X|, its eigenvalues descend with gaps of at least EIGEN_GAP_RTOL
    times their scale, and both bounds are finite.
    """
    b, d, _ = h.shape
    eye = np.eye(d)
    # Added to the denominators, so that E has a zero diagonal.
    inf_diag = np.where(eye == 1.0, np.inf, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bh = np.linalg.inv(v) @ h @ v
        a, x, y = bh, None, None
        for _ in range(_REFINE_STEPS):
            lam = np.diagonal(a, axis1=-2, axis2=-1)
            den = lam[:, None, :] - lam[:, :, None]
            den += inf_diag
            e = a / den
            if x is None:
                x, y = eye + e, eye - e + e @ e
            else:
                x = x + x @ e
                y = (eye - e + e @ e) @ y
            y = y @ (2.0 * eye - x @ y)
            a = y @ (bh @ x)
        vals = np.diagonal(a, axis1=-2, axis2=-1).copy()
        vecs = v @ x
        resid = np.abs(h @ vecs - vecs * vals[:, None, :]).reshape(b, d * d)
        bound = (_REFINE_RESIDUAL_ULPS * np.finfo(float).eps * d
                 * _fold_last(np.maximum, np.abs(h).reshape(b, d * d))
                 * _fold_last(np.maximum, np.abs(vecs).reshape(b, d * d)))
        descending = (_fold_last(np.maximum, np.diff(vals, axis=-1))
                      <= -EIGEN_GAP_RTOL * _gap_scale(vals))
        accepted = ((_fold_last(np.maximum, resid) <= bound)
                    & np.isfinite(bound) & descending)
    return vals, vecs, accepted


def _solve_2x2(g2: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """g2^{-1} g1 for a stack of 2 x 2 matrices by the adjugate.

    A zero or non-finite determinant anywhere goes through
    :func:`_solve_batched`, which raises as for any singular contraction.
    """
    det = _det_2x2(g2)
    if not np.all(np.isfinite(det) & (det != 0.0)):
        return _solve_batched(g2, g1)
    adj = np.empty_like(g2)
    adj[..., 0, 0] = g2[..., 1, 1]
    adj[..., 0, 1] = -g2[..., 0, 1]
    adj[..., 1, 0] = -g2[..., 1, 0]
    adj[..., 1, 1] = g2[..., 0, 0]
    return (adj @ g1) / det[..., None, None]


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


def _orient_rows_batched(rows: np.ndarray, rule: str):
    """identify.orient_rows on a stack of rows; returns (rows, fallback),
    `fallback` marking the rows that fell back from rule A to rule B."""
    peak_idx = np.argmax(np.abs(rows), axis=-1)
    peak = np.take_along_axis(rows, peak_idx[..., None], axis=-1)[..., 0]
    if rule == "A":
        s = _fold_last(np.add, rows)
        fallback = np.abs(s) < ROW_SUM_FALLBACK_TOL
        s = np.where(fallback, peak, s)
    elif rule == "B":
        s = peak
        fallback = np.zeros(s.shape, dtype=bool)
    else:
        raise ValueError(f"orientation rule must be 'A' or 'B', got {rule!r}")
    return np.where((s < 0)[..., None], -rows, rows), fallback


def overid_offdiag(ms: np.ndarray, d: int, w1, w2, rule: str = "A") -> np.ndarray:
    """vech_off(L Sigma L') for each moment vector; shape (..., d*(d-1)/2)."""
    rows, _, _, _ = demix_rows(ms, d, w1, w2, rule)
    return offdiag_from_rows(rows, ms, d)


def offdiag_from_rows(rows: np.ndarray, ms: np.ndarray, d: int) -> np.ndarray:
    """vech_off(L Sigma L') for demixing rows L already fitted to `ms`."""
    sigma = covariance_from_moments(ms, d)
    demixed = rows @ sigma @ np.swapaxes(rows, -2, -1)
    iu = np.triu_indices(d, 1)
    return demixed[..., iu[0], iu[1]]


@functools.lru_cache(maxsize=EXHAUSTIVE_PERMUTATION_CAP)
def _permutation_table(d: int):
    """The d! row orderings, as tuples and as flat indices into a (d, d) block.

    `pivots[p, i]` is the row-major index of entry (perm_p[i], i), and
    `blocks` is :func:`_blocks` of the orderings.
    """
    perms = tuple(itertools.permutations(range(d)))
    table = np.array(perms, dtype=np.intp).reshape(len(perms), d)
    pivots = table * d + np.arange(d)
    blocks = _blocks(table)
    pivots.flags.writeable = False
    blocks.flags.writeable = False
    return perms, pivots, blocks


def _blocks(table: np.ndarray) -> np.ndarray:
    """Column p lists the row-major indices of rows table[p, 0], ...,
    table[p, d-1] of a (d, d) block, for a (p, d) table of orderings."""
    p, d = table.shape
    return np.ascontiguousarray(
        (table[:, :, None] * d + np.arange(d)).reshape(p, d * d).T
    )


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


def _normalized(r: np.ndarray, blocks: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Rows of stack entry e in ordering cand[e], divided by their diagonal."""
    k, d, _ = r.shape
    idx = np.take(blocks, cand, axis=1) + np.arange(0, k * d * d, d * d)
    block = np.take(r, idx)
    lam = block.reshape(d, d, k) / _pivots(block[:: d + 1])[:, None, :]
    return np.ascontiguousarray(lam.transpose(2, 0, 1))


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


def _sign_assignment(count: np.ndarray, margin: np.ndarray):
    """Fewest sign mismatches, then the largest margin, for one (d, d) entry.

    count[k, i] and margin[k, i] score row k at position i.  With big above
    twice d max|margin|, the cost count * big - margin is lexicographic, so
    one linear_sum_assignment settles both (margins closer than its
    rounding are not told apart).  Ties come from Murty's second-best
    assignments: one re-solve per placement of the optimum, with it
    forbidden.  Returns (perm, ties): the optimal ordering, None when none
    is valid, and the distinct re-solved orderings with as few mismatches.
    """
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


def label_signs(rows: np.ndarray, pattern: np.ndarray):
    """Vectorized sign labeling with margin tie-break over a stack of rows.

    Diagonal normalization divides row k by its entry at the position i it
    is put in, so the sign mismatches of that placement depend on (k, i)
    alone.  They form a (d, d, b) cost tensor; an ordering is invalid when
    one of its diagonal entries is not above 1e-12 of the stack entry's
    largest magnitude.  Up to ``EXHAUSTIVE_PERMUTATION_CAP`` rows, an
    ordering's count is the sum of its d placements, gathered through a
    (d!, d) index table.  Only entries tied on the smallest count compute
    the margin sum(pattern * normalized), for their tied orderings; the
    largest margin wins, the first ordering on an exact margin tie.  Beyond
    the cap, each entry is one exact assignment (:func:`_sign_assignment`).

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
    b, d, _ = r.shape
    pattern = np.asarray(pattern)
    if pattern.shape != (d, d) or not ((pattern == 0) | (np.abs(pattern) == 1)).all():
        raise ValueError(f"sign pattern must be {d}x{d} with entries -1, 0 or +1")
    active = pattern != 0
    weights = pattern.astype(float)
    best = np.full(b, np.inf)
    tie_flags = np.ones(b, dtype=bool)
    if d > EXHAUSTIVE_PERMUTATION_CAP:
        table = np.tile(np.arange(d), (b, 1))
        for s in _chunks(b, d):
            rt, absr, floor = _entries_last(r[s])
            count = _sign_cost(rt, absr, floor, weights)
            margin = _margin_cost(rt, weights)
            for e in range(count.shape[-1]):
                perm, ties = _sign_assignment(count[..., e], margin[..., e])
                if perm is not None:
                    i = s.start + e
                    best[i] = count[perm, np.arange(d), e].sum()
                    tie_flags[i], table[i] = bool(ties), perm
        perm_index, perms = _ranked(table)
        lam = _normalized(r, _blocks(table), np.arange(b))
    else:
        perms, pivots, blocks = _permutation_table(d)
        perms = list(perms)
        order = np.arange(len(perms), dtype=float)
        perm_index = np.empty(b, dtype=np.intp)
        for s in _chunks(b, d):
            total = _candidate_totals(_sign_cost(*_entries_last(r[s]), weights), pivots)
            low = np.minimum.reduce(total, axis=0)
            at_best = total == low
            tied = np.count_nonzero(at_best, axis=0) > 1
            # The single best ordering; tied entries are resolved below, and
            # entries without a valid ordering keep ordering 0.
            pick = np.where(tied, 0, (order @ at_best).astype(np.intp))
            refine = np.flatnonzero(tied & np.isfinite(low))
            if refine.size:
                cand, ent = np.nonzero(at_best[:, refine])
                normalized = _normalized(r[s][refine[ent]], blocks, cand)
                margin = np.full((refine.size, len(perms)), -np.inf)
                margin[ent, cand] = _stack_sum(
                    pattern[active] * normalized[:, active], b
                )
                pick[refine] = margin.argmax(axis=1)
            best[s], tie_flags[s], perm_index[s] = low, tied, pick
        lam = _normalized(r, blocks, perm_index)
    best_mism = np.where(
        np.isfinite(best), best, _INVALID_MISMATCH
    ).astype(np.int64)
    if squeeze:
        return (lam[0], int(best_mism[0]), bool(tie_flags[0]),
                int(perm_index[0]), perms)
    return lam, best_mism, tie_flags, perm_index, perms


def _sign_ties(rows: np.ndarray, pattern: np.ndarray):
    """The orderings of one (d, d) entry that tie on the fewest sign
    mismatches, and their margins, scored as :func:`label_signs` scores
    them.

    Up to the cap these are all such orderings, in table order; beyond it,
    the chosen ordering and the second-best assignments that tie with it.
    The entry must have a valid ordering.
    """
    d = rows.shape[0]
    weights = pattern.astype(float)
    rt, absr, floor = _entries_last(rows[None])
    count = _sign_cost(rt, absr, floor, weights)
    if d > EXHAUSTIVE_PERMUTATION_CAP:
        perm, ties = _sign_assignment(count[..., 0], _margin_cost(rt, weights)[..., 0])
        orderings = [tuple(perm.tolist()), *ties]
        blocks, cand = _blocks(np.array(orderings)), np.arange(len(orderings))
    else:
        perms, pivots, blocks = _permutation_table(d)
        total = _candidate_totals(count, pivots)[:, 0]
        cand = np.flatnonzero(total == total.min())
        orderings = [perms[c] for c in cand]
    normalized = _normalized(np.repeat(rows[None], cand.size, axis=0), blocks, cand)
    active = pattern != 0
    return orderings, _stack_sum(pattern[active] * normalized[:, active], 1)


def label_triangular(rows: np.ndarray):
    """Vectorized triangular labeling over a stack of demixing rows.

    Picks, per stack entry, the row permutation minimizing the sum of
    squared above-diagonal entries after diagonal normalization.  As in
    :func:`label_signs`, the cost of row k at position i is separable,
    here mass[k, i] = sum_{j > i} (r_kj / r_ki)^2.  Up to the cap,
    orderings are scored by a gather over the (d!, d) table.  Those sums
    run in another order than the per-ordering residual, so every ordering
    within a few ulps of the smallest total is rescored with that residual;
    the smallest wins, the first ordering on a tie.  Beyond the cap, each
    entry is one exact linear assignment on the mass.  Returns
    (lambda_final, residual, perm_index, permutations), indexed as in
    :func:`label_signs`; an entry without a valid ordering gets residual
    inf and ordering 0.
    """
    squeeze = rows.ndim == 2
    r = rows[None] if squeeze else rows
    b, d, _ = r.shape
    iu = np.triu_indices(d, 1)
    res = np.full(b, np.inf)
    if d > EXHAUSTIVE_PERMUTATION_CAP:
        table = np.tile(np.arange(d), (b, 1))
        valid = np.zeros(b, dtype=bool)
        for s in _chunks(b, d):
            mass = _triangular_cost(*_entries_last(r[s]))
            for e in range(mass.shape[-1]):
                perm = _assign(mass[..., e])
                if perm is not None:
                    table[s.start + e], valid[s.start + e] = perm, True
        perm_index, perms = _ranked(table)
        lam = _normalized(r, _blocks(table), np.arange(b))
        res[valid] = _stack_sum(lam[valid][:, iu[0], iu[1]] ** 2, b)
    else:
        perms, pivots, blocks = _permutation_table(d)
        perms = list(perms)
        rtol = 4.0 * d * d * np.finfo(float).eps
        perm_index = np.zeros(b, dtype=np.intp)
        for s in _chunks(b, d):
            total = _candidate_totals(_triangular_cost(*_entries_last(r[s])), pivots)
            low = np.minimum.reduce(total, axis=0)
            refine = np.flatnonzero(np.isfinite(low))
            cand, ent = np.nonzero(total[:, refine] <= low[refine] * (1.0 + rtol))
            normalized = _normalized(r[s][refine[ent]], blocks, cand)
            residual = np.full((refine.size, len(perms)), np.inf)
            residual[ent, cand] = _stack_sum(normalized[:, iu[0], iu[1]] ** 2, b)
            pick = residual.argmin(axis=1)
            perm_index[s][refine] = pick
            res[s][refine] = residual[np.arange(refine.size), pick]
        lam = _normalized(r, blocks, perm_index)
    if squeeze:
        return lam[0], float(res[0]), int(perm_index[0]), perms
    return lam, res, perm_index, perms


def labeled_entry(ms: np.ndarray, d: int, w1, w2, pattern, entry=(0, 1),
                  rule: str = "A"):
    """One entry of the sign-labeled, diagonal-normalized demixing matrix
    for each moment vector, or with `entry` None the whole matrix,
    flattened row-major."""
    lam = label_signs(demix_rows(ms, d, w1, w2, rule)[0], pattern)[0]
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
