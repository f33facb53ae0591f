"""Raw moments, the moment-to-cumulant map, and tensor-contraction Hessians.

Monomial ordering
-----------------
Every vector of raw moments in this package uses one fixed graded
lexicographic order: monomials of total degree 1, 2, ..., h for the
cumulant order h (3 or 4); within a degree, the index tuples
(i1 <= i2 <= ...) of the participating variables in ascending lexicographic
order.  For d = 2 and h = 3 that is

    X1, X2, X1^2, X1*X2, X2^2, X1^3, X1^2*X2, X1*X2^2, X2^3

so the vector has length binom(d + h, h) - 1.  Jacobians, moment
covariances and the moment-parameterized estimation pipeline all index
through this order; it is defined here and nowhere else.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError


def validate_sample(data, min_rows: int = 1, min_cols: int = 1) -> np.ndarray:
    """Coerce to a finite float (n, d) array and check minimal shape.

    A sample that fails raises :class:`~cumident.errors.InvalidInputError`.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise InvalidInputError(f"sample must be 2-dimensional, got shape {x.shape}")
    n, d = x.shape
    if d < min_cols:
        raise InvalidInputError(f"sample needs at least {min_cols} column(s), got {d}")
    if n < min_rows:
        raise InvalidInputError(f"sample needs at least {min_rows} row(s), got {n}")
    if not np.isfinite(x).all():
        raise InvalidInputError("sample contains non-finite entries")
    return x


def column_means(a: np.ndarray) -> np.ndarray:
    """Column means of a tall (n, k) array, a.mean(axis=0) up to rounding,
    or of each array of a (..., n, k) stack.

    numpy's axis-0 mean runs one inner loop per row over the k columns,
    which for the narrow arrays of this package costs several times more
    than the einsum contraction.  Each array's means have the bits its own
    call gives.
    """
    return np.einsum("...ij->...j", a) / a.shape[-2]


@lru_cache(maxsize=None)
def _monomials(d: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Index tuples of all degree 1..order monomials in the package-wide
    order; the one check of a cumulant order."""
    if d < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {d}")
    if order not in (3, 4):
        raise InvalidInputError(f"order must be 3 or 4, got {order}")
    return tuple(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(d), k)
        for k in range(1, int(order) + 1)))


def monomial_tuples(d: int) -> tuple[tuple[int, ...], ...]:
    """Index tuples of all degree 1-3 monomials in the package-wide order."""
    return _monomials(d, 3)


def moment_vector_length(d: int) -> int:
    """binom(d+3, 3) - 1, the length of the degree 1-3 raw-moment vector."""
    return (d + 1) * (d + 2) * (d + 3) // 6 - 1


def _order_of(length: int, d: int) -> int:
    """The cumulant order h of a moment vector of length binom(d+h, h) - 1."""
    for h in (3, 4):
        if length == math.comb(d + h, h) - 1:
            return h
    raise InvalidInputError(f"no cumulant order has {length} moments in dimension {d}")


@lru_cache(maxsize=None)
def _moment_index(d: int) -> dict[tuple[int, ...], int]:
    return {t: k for k, t in enumerate(monomial_tuples(d))}


@lru_cache(maxsize=None)
def _pair_indices(d: int) -> np.ndarray:
    """(d, d) moment-vector slots of the sorted degree-2 monomials (i, j)."""
    lookup = _moment_index(d)
    return np.array(
        [[lookup[tuple(sorted((i, j)))] for j in range(d)] for i in range(d)]
    )


@lru_cache(maxsize=None)
def _cumulant_map(d: int, order: int):
    """(terms, mirror): the index tables of the order-h cumulant map.

    The sorted tuples t = (i1 <= ... <= ih) are the degree-h block of the
    moment vector.  Each set partition of the h positions into b > 1 blocks
    B, by block count, blocks by size, then position, adds (-1)^(b-1)
    (b-1)! prod_B m[t_B] to m[t] (McCullagh 1987, ch. 2): its term is
    (coefficient, slots), slots[q] the slots of block q of every t.
    `mirror`, (d,) * h, holds the slot of each index tuple's sorted order.
    """
    parts = [[]]
    for k in range(order):  # k joins one block of each partition, or is alone
        parts = [p[:i] + [p[i] + [k]] + p[i + 1:] for p in parts
                 for i in range(len(p))] + [p + [[k]] for p in parts]
    parts = sorted((sorted(p, key=lambda b: (len(b), b)) for p in parts),
                   key=lambda p: (len(p), [(len(b), b) for b in p]))
    tuples = _monomials(d, order)
    top = tuples[len(tuples) - math.comb(d + order - 1, order):]
    lookup = {t: k for k, t in enumerate(tuples)}
    terms = tuple((float((-1) ** (len(p) - 1) * math.factorial(len(p) - 1)),
                   np.array([[lookup[tuple(t[q] for q in b)] for t in top] for b in p]))
                  for p in parts[1:])
    mirror = [top.index(tuple(sorted(p)))
              for p in itertools.product(range(d), repeat=order)]
    return terms, np.reshape(mirror, (d,) * order)


def monomial_matrix(data) -> np.ndarray:
    """Evaluate every degree 1-3 monomial at each observation.

    Returns an (n, binom(d+3,3)-1) array whose column order is the
    package-wide monomial order, the transpose of a C-ordered array.
    """
    return _monomial_matrix(data, 3)


def _monomial_matrix(data, order: int) -> np.ndarray:
    """:func:`monomial_matrix` of the degree 1..order monomials, or of each
    sample of a (K, n, d) stack that the caller has validated."""
    x = data if np.ndim(data) == 3 else validate_sample(data)
    tuples = _monomials(x.shape[-1], order)
    xt = np.ascontiguousarray(np.swapaxes(x, -1, -2))
    out = np.empty(x.shape[:-2] + (len(tuples), x.shape[-2]))
    # Each monomial is its lower-degree prefix (already filled in, since the
    # order is by degree) times one more coordinate: the same left-to-right
    # products as np.prod, without its short-axis reduction, on contiguous rows.
    position = {}
    for k, t in enumerate(tuples):
        if len(t) == 1:
            out[..., k, :] = xt[..., t[0], :]
        else:
            np.multiply(out[..., position[t[:-1]], :], xt[..., t[-1], :],
                        out=out[..., k, :])
        position[t] = k
    return np.swapaxes(out, -1, -2)


def _centered_moments(x: np.ndarray, order: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """(z, m_hat): the degree 1..order monomial matrix of a validated sample
    minus its column means, and the moments about the mean, its column means.

    Every statistic starts here.  The cumulant map is exact for any origin,
    and about the mean neither the moments nor their covariance, which sets
    the finite-difference steps, grow with a shift of the data.  The
    single-sample entry points read these from the sample's
    ``_pipeline.MomentRecord``, built once per sample and order; the stacked
    Wald tests call this directly.  A (K, n, d) stack of samples gives
    (K, n, D) and (K, D) stacks, each sample's bitwise as its own call
    gives them: the Monte Carlo tables make one call per n.
    """
    # Centered straight into the (..., d, n) layout the monomials read.
    xt = np.empty(x.shape[:-2] + (x.shape[-1], x.shape[-2]))
    np.subtract(np.swapaxes(x, -1, -2), column_means(x)[..., None], out=xt)
    z = _monomial_matrix(np.swapaxes(xt, -1, -2), order)
    return z, column_means(z)


def _moment_covariance(z: np.ndarray, m_hat: np.ndarray) -> np.ndarray:
    """Sigma_m of the monomial matrix `z` about its column means `m_hat`."""
    zc = z - m_hat
    return zc.T @ zc / z.shape[0]


def third_cumulants(data) -> np.ndarray:
    """Sample third-cumulant tensor: centered third moments, (d, d, d).

    :func:`cumulants_from_moments` of the moments about the sample mean, so
    the tensor is exactly symmetric under index permutations.
    """
    x = validate_sample(data, min_rows=2)
    return cumulants_from_moments(_centered_moments(x)[1], x.shape[1])


def cumulants_from_moments(values: np.ndarray, d: int) -> np.ndarray:
    """Order-h cumulant tensor from a degree 1..h raw-moment vector, about
    any origin (vectorizes over rows).

    `values` may be a single moment vector or a stack of them with the
    vector on the trailing axis, whose length binom(d+h,h)-1 sets h = 3 or
    4; the output has matching leading axes and trailing shape (d,) * h.
    Each sorted entry is computed once and mirrored, so the tensor is
    exactly symmetric.
    """
    v = np.asarray(values, dtype=float)
    return _sorted_cumulants(v, d)[..., _cumulant_map(d, _order_of(v.shape[-1], d))[1]]


def _sorted_cumulants(v: np.ndarray, d: int) -> np.ndarray:
    """The order-h cumulants of raw-moment vectors (..., D), one per sorted
    tuple t in the order of the degree-h moments: m[t] plus each
    :func:`_cumulant_map` term, formed moment-major in one buffer,
    coefficient first.  (-1 a) b is -(a b) and x + (-p) is x - p, so for
    h = 3 that is m_ijk - m_i m_jk - m_j m_ik - m_k m_ij + 2 m_i m_j m_k,
    bit for bit."""
    terms, _ = _cumulant_map(d, _order_of(v.shape[-1], d))
    # Each gather then copies whole rows.
    rows = np.ascontiguousarray(v.reshape(-1, v.shape[-1]).T)
    out = rows[-terms[0][1].shape[1]:].copy()
    term, factor = np.empty_like(out), np.empty_like(out)
    for coefficient, slots in terms:
        np.multiply(np.take(rows, slots[0], axis=0, out=term, mode="clip"),
                    coefficient, out=term)
        for block in slots[1:]:
            term *= np.take(rows, block, axis=0, out=factor, mode="clip")
        out += term
    return out.T.reshape(v.shape[:-1] + out.shape[:1])


def covariance_from_moments(values: np.ndarray, d: int) -> np.ndarray:
    """Centered covariance from a raw-moment vector (vectorizes over rows)."""
    v = np.asarray(values, dtype=float)
    mu = v[..., :d]
    return v[..., _pair_indices(d)] - mu[..., :, None] * mu[..., None, :]


def contract_tensor(tensor: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mode-1 contraction sum_i w_i T[i, :, :] (vectorizes over leading axes)."""
    return np.einsum("...ijk,i->...jk", tensor, np.asarray(w, dtype=float))


def _hessian(tensors: np.ndarray, w: np.ndarray, order: int) -> np.ndarray:
    """G(w) = h (h - 1) kappa_h contracted h - 2 times along w, for stacks
    of exactly symmetric order-h tensors (any axis contracts alike)."""
    for _ in range(order - 2):
        tensors = contract_tensor(tensors, w)
    return float(order * (order - 1)) * tensors


def contract_hessian(data, w, order: int = 3) -> np.ndarray:
    """Hessian in w of the projected sample cumulant kappa_h(w'X), h in {3, 4}.

    Parameters
    ----------
    data : array_like, shape (n, d)
        Observations, one row each.
    w : array_like, shape (d,)
        Contraction direction.
    order : int
        Cumulant order h, 3 or 4.

    Returns
    -------
    ndarray, shape (d, d)
        h (h - 1) times the order-h tensor of the moments about the sample
        mean (:func:`cumulants_from_moments`) contracted h - 2 times along
        w, exactly symmetric as the tensor is; for h = 3, (6/n) sum_i
        (w'Xc_i) Xc_i Xc_i'.
    """
    x = validate_sample(data, min_rows=2)
    w = _check_direction(w, x.shape[1])
    kappa = cumulants_from_moments(_centered_moments(x, order)[1], x.shape[1])
    return _hessian(kappa, w, kappa.ndim)


def _check_direction(w, d: int, name: str = "w") -> np.ndarray:
    """A contraction direction as a finite float (d,) array, else
    InvalidInputError naming it `name`."""
    w = np.asarray(w, dtype=float)
    if w.shape != (d,):
        raise InvalidInputError(f"{name} must have shape ({d},), got {w.shape}")
    if not np.isfinite(w).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return w
