"""Raw moments, third/fourth cumulants, and tensor-contraction Hessians.

Monomial ordering
-----------------
Every vector of raw moments in this package uses one fixed graded
lexicographic order: monomials of total degree 1, then 2, then 3; within a
degree, the index tuples (i1 <= i2 <= ...) of the participating variables in
ascending lexicographic order.  For d = 2 that is

    X1, X2, X1^2, X1*X2, X2^2, X1^3, X1^2*X2, X1*X2^2, X2^3

so the vector has length binom(d + 3, 3) - 1.  Jacobians, moment covariances
and the moment-parameterized estimation pipeline all index through this
order; it is defined here and nowhere else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
    """Column means of a tall (n, k) array, a.mean(axis=0) up to rounding.

    numpy's axis-0 mean runs one inner loop per row over the k columns,
    which for the narrow arrays of this package costs several times more
    than the einsum contraction.
    """
    return np.einsum("ij->j", a) / a.shape[0]


@lru_cache(maxsize=None)
def monomial_tuples(d: int) -> tuple[tuple[int, ...], ...]:
    """Index tuples of all degree 1-3 monomials in the package-wide order."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    out = []
    for degree in (1, 2, 3):
        out.extend(itertools.combinations_with_replacement(range(d), degree))
    return tuple(out)


def moment_vector_length(d: int) -> int:
    """binom(d+3, 3) - 1, the length of the degree 1-3 raw-moment vector."""
    return (d + 1) * (d + 2) * (d + 3) // 6 - 1


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
def _triple_indices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the binom(d+2, 3) sorted triples i <= j <= k.

    Returns (ijk, pairs, mirror): ijk[:, t] is triple t, in the order of the
    degree-3 block of the moment vector; pairs[:, t] are the slots of its
    pairs (j, k), (i, k) and (i, j); mirror[p, q, r] is the sorted triple.
    """
    triples = list(itertools.combinations_with_replacement(range(d), 3))
    i, j, k = ijk = np.array(triples).T
    idx2 = _pair_indices(d)
    slot = {t: s for s, t in enumerate(triples)}
    mirror = np.array(
        [slot[tuple(sorted(p))] for p in itertools.product(range(d), repeat=3)]
    ).reshape(d, d, d)
    return ijk, np.stack([idx2[j, k], idx2[i, k], idx2[i, j]]), mirror


def monomial_matrix(data) -> np.ndarray:
    """Evaluate every degree 1-3 monomial at each observation.

    Returns an (n, binom(d+3,3)-1) array whose column order is the
    package-wide monomial order, the transpose of a C-ordered array.
    """
    x = validate_sample(data)
    tuples = monomial_tuples(x.shape[1])
    xt = np.ascontiguousarray(x.T)
    out = np.empty((len(tuples), x.shape[0]))
    # Each monomial is its lower-degree prefix (already filled in, since the
    # order is by degree) times one more coordinate: the same left-to-right
    # products as np.prod, without its short-axis reduction, on contiguous rows.
    position = {}
    for k, t in enumerate(tuples):
        if len(t) == 1:
            out[k] = xt[t[0]]
        else:
            np.multiply(out[position[t[:-1]]], xt[t[-1]], out=out[k])
        position[t] = k
    return out.T


@dataclass(frozen=True)
class RawMomentVector:
    """Sample means of all degree 1-3 monomials, in the package-wide order."""

    values: np.ndarray
    d: int

    def __post_init__(self):
        expected = moment_vector_length(self.d)
        if self.values.shape != (expected,):
            raise ValueError(
                f"moment vector for d={self.d} must have length {expected}, "
                f"got shape {self.values.shape}"
            )

    def __getitem__(self, monomial: tuple[int, ...]) -> float:
        return float(self.values[_moment_index(self.d)[tuple(sorted(monomial))]])


def raw_moments(data) -> RawMomentVector:
    """Stack the sample means of all raw monomials of total degree 1-3."""
    x = validate_sample(data)
    return RawMomentVector(values=column_means(monomial_matrix(x)), d=x.shape[1])


def _centered_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, m_hat): the monomial matrix of a validated sample minus its
    column means, and the moments about the mean, its column means.

    Every order-3 statistic starts here.  The cumulant map is exact for any
    origin, and about the mean neither the moments nor their covariance,
    which sets the finite-difference steps, grow with a shift of the data.
    """
    z = monomial_matrix(x - column_means(x))
    return z, column_means(z)


def third_cumulants(data) -> np.ndarray:
    """Sample third-cumulant tensor: centered third moments, (d, d, d).

    :func:`cumulants_from_moments` of the moments about the sample mean, so
    the tensor is exactly symmetric under index permutations.
    """
    x = validate_sample(data, min_rows=2)
    return cumulants_from_moments(_centered_moments(x)[1], x.shape[1])


def cumulants_from_moments(values: np.ndarray, d: int) -> np.ndarray:
    """Third-cumulant tensor from a raw-moment vector (vectorizes over rows).

    `values` may be a single moment vector of length binom(d+3,3)-1 or a
    stack of them with that trailing axis; the output has matching leading
    axes and trailing shape (d, d, d).  Each sorted entry i <= j <= k is
    computed once and mirrored, so the tensor is exactly symmetric.
    """
    v = np.asarray(values, dtype=float)
    ijk, pairs, mirror = _triple_indices(d)
    mu = v[..., :d]
    mi, mj, mk = mu[..., ijk[0]], mu[..., ijk[1]], mu[..., ijk[2]]
    sorted_entries = (
        v[..., -ijk.shape[1]:]
        - mi * v[..., pairs[0]]
        - mj * v[..., pairs[1]]
        - mk * v[..., pairs[2]]
        + 2.0 * mi * mj * mk
    )
    return sorted_entries[..., mirror]


def cumulant_map(m: RawMomentVector) -> np.ndarray:
    """Polynomial moment-to-cumulant transform, returning the (d,d,d) tensor.

    Agrees exactly (as an algebraic identity) with :func:`third_cumulants`
    evaluated on the sample the moments came from.
    """
    return cumulants_from_moments(m.values, m.d)


def covariance_from_moments(values: np.ndarray, d: int) -> np.ndarray:
    """Centered covariance from a raw-moment vector (vectorizes over rows)."""
    v = np.asarray(values, dtype=float)
    mu = v[..., :d]
    return v[..., _pair_indices(d)] - mu[..., :, None] * mu[..., None, :]


def contract_tensor(tensor: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mode-1 contraction sum_i w_i T[i, :, :] (vectorizes over leading axes)."""
    return np.einsum("...ijk,i->...jk", tensor, np.asarray(w, dtype=float))


@dataclass(frozen=True)
class ContractionMatrix:
    """Hessian of the projected sample cumulant kappa_h(w' X) in w.

    For h = 3 this equals 6x the mode-1 contraction of the third-cumulant
    tensor along `w`, and is linear in `w`.
    """

    matrix: np.ndarray
    w: np.ndarray
    order: int


def projected_cumulant(data, w, order: int = 3) -> float:
    """kappa_3 or kappa_4 of the scalar projection w'X (sample version)."""
    x = validate_sample(data, min_rows=2)
    w = np.asarray(w, dtype=float)
    y = x @ w
    yc = y - y.mean()
    if order == 3:
        return float(np.mean(yc**3))
    if order == 4:
        return float(np.mean(yc**4) - 3.0 * np.mean(yc**2) ** 2)
    raise ValueError(f"order must be 3 or 4, got {order}")


def contract_hessian(data, w, order: int = 3) -> ContractionMatrix:
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
    ContractionMatrix
        Symmetric (d, d) matrix.  For h = 3 this is 6 times the mode-1
        contraction of :func:`third_cumulants` along w, i.e.
        (6/n) sum_i (w'Xc_i) Xc_i Xc_i', exactly symmetric because the
        tensor is.  For h = 4 it is the closed-form Hessian of the sample
        excess kurtosis of w'X, which the test suite gates against a
        numerical second derivative.
    """
    x = validate_sample(data, min_rows=2)
    n, d = x.shape
    w = _check_direction(w, d)
    if order == 3:
        return ContractionMatrix(
            matrix=6.0 * contract_tensor(third_cumulants(x), w), w=w, order=3
        )
    if order != 4:
        raise ValueError(f"order must be 3 or 4, got {order}")
    xc = x - column_means(x)
    proj = xc @ w
    sigma = xc.T @ xc / n
    sw = sigma @ w
    g = (
        12.0 * ((xc * (proj**2)[:, None]).T @ xc) / n
        - 12.0 * (w @ sw) * sigma
        - 24.0 * np.outer(sw, sw)
    )
    return ContractionMatrix(matrix=(g + g.T) / 2.0, w=w, order=order)


def _check_direction(w, d: int) -> np.ndarray:
    """A contraction direction as a finite float (d,) array, else ValueError."""
    w = np.asarray(w, dtype=float)
    if w.shape != (d,):
        raise ValueError(f"w must have shape ({d},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("w contains non-finite entries")
    return w
