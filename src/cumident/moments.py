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
def _gather_indices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions of the degree-1, degree-2 and degree-3 blocks as index arrays.

    Returns (idx1 of shape (d,), idx2 of shape (d, d), idx3 of shape
    (d, d, d)) mapping (i), (i, j), (i, j, k) to the moment-vector slot of
    the corresponding sorted monomial.
    """
    lookup = _moment_index(d)
    idx1 = np.array([lookup[(i,)] for i in range(d)])
    idx2 = np.array(
        [[lookup[tuple(sorted((i, j)))] for j in range(d)] for i in range(d)]
    )
    idx3 = np.array(
        [
            [
                [lookup[tuple(sorted((i, j, k)))] for k in range(d)]
                for j in range(d)
            ]
            for i in range(d)
        ]
    )
    return idx1, idx2, idx3


def monomial_matrix(data) -> np.ndarray:
    """Evaluate every degree 1-3 monomial at each observation.

    Returns an (n, binom(d+3,3)-1) array whose column order is the
    package-wide monomial order.
    """
    x = validate_sample(data)
    tuples = monomial_tuples(x.shape[1])
    out = np.empty((x.shape[0], len(tuples)))
    # Each monomial is its lower-degree prefix (already filled in, since the
    # order is by degree) times one more coordinate: the same left-to-right
    # products as np.prod, without a reduction over a short axis.
    position = {}
    for k, t in enumerate(tuples):
        if len(t) == 1:
            out[:, k] = x[:, t[0]]
        else:
            np.multiply(out[:, position[t[:-1]]], x[:, t[-1]], out=out[:, k])
        position[t] = k
    return out


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


def third_cumulants(data) -> np.ndarray:
    """Sample third-cumulant tensor: centered third moments, (d, d, d).

    Centers by the sample mean and averages the triple products.  Each
    distinct entry is computed once and mirrored, so the tensor is exactly
    symmetric under index permutations, not just up to rounding.
    """
    x = validate_sample(data, min_rows=2)
    xc = x - x.mean(axis=0)
    d = x.shape[1]
    t = np.empty((d, d, d))
    for i, j, k in itertools.combinations_with_replacement(range(d), 3):
        value = np.mean(xc[:, i] * xc[:, j] * xc[:, k])
        for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            t[p] = value
    return t


def cumulants_from_moments(values: np.ndarray, d: int) -> np.ndarray:
    """Third-cumulant tensor from a raw-moment vector (vectorizes over rows).

    `values` may be a single moment vector of length binom(d+3,3)-1 or a
    stack of them with that trailing axis; the output has matching leading
    axes and trailing shape (d, d, d).
    """
    v = np.asarray(values, dtype=float)
    idx1, idx2, idx3 = _gather_indices(d)
    mu = v[..., idx1]
    m2 = v[..., idx2]
    m3 = v[..., idx3]
    mi = mu[..., :, None, None]
    mj = mu[..., None, :, None]
    mk = mu[..., None, None, :]
    return (
        m3
        - mi * m2[..., None, :, :]
        - mj * m2[..., :, None, :]
        - mk * m2[..., :, :, None]
        + 2.0 * mi * mj * mk
    )


def cumulant_map(m: RawMomentVector) -> np.ndarray:
    """Polynomial moment-to-cumulant transform, returning the (d,d,d) tensor.

    Agrees exactly (as an algebraic identity) with :func:`third_cumulants`
    evaluated on the sample the moments came from.
    """
    return cumulants_from_moments(m.values, m.d)


def covariance_from_moments(values: np.ndarray, d: int) -> np.ndarray:
    """Centered covariance from a raw-moment vector (vectorizes over rows)."""
    v = np.asarray(values, dtype=float)
    idx1, idx2, _ = _gather_indices(d)
    mu = v[..., idx1]
    return v[..., idx2] - mu[..., :, None] * mu[..., None, :]


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
        Symmetric (d, d) matrix.  For h = 3 this is
        (6/n) sum_i (w'Xc_i) Xc_i Xc_i'; for h = 4 it is the closed-form
        Hessian of the sample excess kurtosis of w'X, which the test suite
        gates against a numerical second derivative.
    """
    x = validate_sample(data, min_rows=2)
    n, d = x.shape
    w = np.asarray(w, dtype=float)
    if w.shape != (d,):
        raise ValueError(f"w must have shape ({d},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("w contains non-finite entries")
    xc = x - column_means(x)
    proj = xc @ w
    if order == 3:
        g = 6.0 * ((xc * proj[:, None]).T @ xc) / n
    elif order == 4:
        sigma = xc.T @ xc / n
        sw = sigma @ w
        g = (
            12.0 * ((xc * (proj**2)[:, None]).T @ xc) / n
            - 12.0 * (w @ sw) * sigma
            - 24.0 * np.outer(sw, sw)
        )
    else:
        raise ValueError(f"order must be 3 or 4, got {order}")
    return ContractionMatrix(matrix=(g + g.T) / 2.0, w=w, order=order)
