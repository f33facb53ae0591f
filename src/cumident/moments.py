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
from functools import lru_cache, reduce

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
def _moment_index(d: int, order: int = 3) -> dict[tuple[int, ...], int]:
    return {t: k for k, t in enumerate(_monomials(d, order))}


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
    """:func:`monomial_matrix` of the degree 1..order monomials."""
    return _monomial_columns(validate_sample(data).T, order).T


@lru_cache(maxsize=None)
def _column_plan(d: int, order: int, start: int, stop: int):
    """The steps of :func:`_monomial_columns` for monomials start..stop-1:
    (part, coords, prefix) for each run of them that shares its
    lower-degree prefix, whose monomials are prefix + (k,), prefix + (k +
    1,), ...: the run's slice of the output, the slice of coordinates k,
    k + 1, ..., and the prefix as its slot in the output when it is built
    there, else as its coordinates (() for degree 1)."""
    slots = _moment_index(d, order)
    runs = []
    for slot, t in enumerate(_monomials(d, order)):
        if runs and runs[-1][2] == t[:-1]:
            runs[-1][1] = slot + 1
        else:
            runs.append([slot, slot + 1, t[:-1], t[-1]])
    plan = []
    for first, last, prefix, k in runs:
        lo, hi = max(start, first), min(stop, last)
        if lo < hi:
            inside = prefix and start <= slots[prefix] < stop
            plan.append((slice(lo - start, hi - start), slice(k + lo - first, k + hi - first),
                         slots[prefix] - start if inside else prefix))
    return tuple(plan)


def _monomial_columns(xt: np.ndarray, order: int, cols: slice = slice(None),
                      out: np.ndarray | None = None) -> np.ndarray:
    """The monomials `cols`, a slice of the package-wide order, of the rows
    xt (..., d, r), laid out (..., c, r), in `out` when it is given.

    Each monomial is the product of its coordinates left to right,
    (x_i x_j) x_k: its lower-degree prefix times one more coordinate, so a
    column has the same bits in every block of rows or columns it is built
    in.  The monomials that share a prefix are one broadcast product, with
    the prefix read from `out` when it is built there.
    """
    d, r = xt.shape[-2:]
    start, stop, _ = cols.indices(math.comb(d + order, order) - 1)
    if out is None:
        out = np.empty(xt.shape[:-2] + (stop - start, r))
    for part, coords, prefix in _column_plan(d, order, start, stop):
        if prefix == ():
            out[..., part, :] = xt[..., coords, :]
            continue
        if isinstance(prefix, int):
            column = out[..., prefix, None, :]
        else:
            column = reduce(np.multiply, (xt[..., i, None, :] for i in prefix))
        np.multiply(column, xt[..., coords, :], out=out[..., part, :])
    return out


# Most monomial values of one sample built at once: the moments are reduced
# over blocks of whole columns, and Sigma_m summed over chunks of rows, of
# about this many.
_MOMENT_CHUNK_ELEMENTS = 1 << 16


def _column_reduce(xt: np.ndarray, order: int, fold):
    """(fold(z), z or None): `fold`, a reduction over rows, of the (..., n,
    D) monomial matrix z of the rows xt (..., d, n), made on blocks of
    whole columns, each column with the bits of the whole matrix.  A block
    holds about _MOMENT_CHUNK_ELEMENTS values and at least two columns:
    einsum reduces a lone (n, 1) column in other bits than the same column
    beside another once n exceeds numpy's buffer, so a last single column
    is reduced again with the one before it.  z, laid out (..., D, n), is
    returned when one block holds all of it."""
    n, count = xt.shape[-1], math.comb(xt.shape[-2] + order, order) - 1
    width = max(2, _MOMENT_CHUNK_ELEMENTS // n)
    out = np.empty(xt.shape[:-2] + (count,))
    for s in range(0, count, width):
        cols = slice(min(s, count - 2), min(s + width, count))
        z = _monomial_columns(xt, order, cols)
        out[..., cols] = fold(np.swapaxes(z, -1, -2))
    return out, (z if width >= count else None)


def _centered_moments(x: np.ndarray, order: int = 3, covariance: bool = False):
    """(xt, m_hat, sigma_m) of a validated sample: its centered columns xt
    (d, n), C-ordered; the moments about the mean, the column means of the
    degree 1..order monomials of the centered rows; and with `covariance`
    their Sigma_m (:func:`_moment_covariance`), else None.

    Every statistic starts here.  The cumulant map is exact for any origin,
    and about the mean neither the moments nor their covariance, which sets
    the finite-difference steps, grow with a shift of the data.  No (n, D)
    monomial matrix is built: the moments are reduced over blocks of
    columns, and a sample whose monomials fit in one block builds them once
    for both.  The single-sample entry points read these from the sample's
    ``_pipeline.MomentRecord``, built once per sample and order.  A (K, n,
    d) stack of samples gives (K, d, n), (K, D) and (K, D, D) stacks, each
    sample's bitwise as its own call gives them: the Monte Carlo tables make
    one call per n.
    """
    xt = np.empty(x.shape[:-2] + (x.shape[-1], x.shape[-2]))
    np.subtract(np.swapaxes(x, -1, -2), column_means(x)[..., None], out=xt)
    m_hat, z = _column_reduce(xt, order, column_means)
    return xt, m_hat, _moment_covariance(xt, m_hat, z) if covariance else None


def _moment_covariance(xt: np.ndarray, m_hat: np.ndarray,
                       z: np.ndarray | None = None) -> np.ndarray:
    """Sigma_m of the monomials of the centered rows xt (..., d, n) about
    their means `m_hat` (..., D): the sum of zc zc' over chunks of at most
    _MOMENT_CHUNK_ELEMENTS // D rows, zc a chunk's monomials minus m_hat,
    over n.  `z`, the (..., D, n) monomials of a sample that fits in one
    chunk, is used in place.  Each product is one symmetric BLAS update of
    a chunk with itself, so Sigma_m is exactly symmetric, and a sample of
    one chunk has the bits of the whole monomial matrix's product."""
    n, count = xt.shape[-1], m_hat.shape[-1]
    chunks = (z,)
    if z is None:
        order = _order_of(count, xt.shape[-2])
        step = max(1, _MOMENT_CHUNK_ELEMENTS // count)
        buf = np.empty(xt.shape[:-2] + (count, min(n, step)))
        chunks = (_monomial_columns(xt[..., s:s + step], order,
                                    out=buf[..., :min(step, n - s)])
                  for s in range(0, n, step))
    sigma = None
    for zc in chunks:
        zc -= m_hat[..., None]
        part = zc @ np.swapaxes(zc, -1, -2)
        sigma = part if sigma is None else sigma + part
    return sigma / n


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
