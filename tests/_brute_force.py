"""Brute-force oracles for the tests.

Labeling beyond the exhaustive cap: every one of the d! orderings, scored
on the labeling kernels' own (d, d) placement costs.  Sign labeling up to
the cap: every stack entry scored on its own, without sharing the scores of
equal cost matrices.  The jackknife: a generic loop that re-estimates on
each of the n delete-1 samples.  The centered monomial matrix, its
moments, Sigma_m and the delete-1 moment stack, built whole.  The
contraction Hessian: the projected sample cumulant whose second
derivative it is, and the closed form of the order-4 Hessian in the
sample covariance.  The VAR and partialling-out
fits: np.linalg.lstsq on the whole regressor matrix.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable

import numpy as np

from cumident import _pipeline
from cumident.inference import JackknifeResult, _check_jackknife_n
from cumident.moments import _monomials, column_means, validate_sample


@functools.lru_cache(maxsize=None)
def ordering_table(d: int) -> np.ndarray:
    flat = itertools.chain.from_iterable(itertools.permutations(range(d)))
    return np.fromiter(flat, dtype=np.int8).reshape(-1, d)


def ordering(d: int, index: int) -> tuple[int, ...]:
    return tuple(ordering_table(d)[index].tolist())


def brute_costs(rows, pattern):
    """Sign mismatches, margin and triangular mass of each placement."""
    rt, absr, floor = _pipeline._entries_last(rows[None])
    weights = np.asarray(pattern, dtype=float)
    return (_pipeline._sign_cost(rt, absr, floor, weights)[..., 0],
            _pipeline._margin_cost(rt, weights)[..., 0],
            _pipeline._triangular_cost(rt, absr, floor)[..., 0])


def brute_totals(cost: np.ndarray) -> np.ndarray:
    """Total cost of every ordering, in itertools.permutations order."""
    table = ordering_table(cost.shape[0])
    total = cost[table[:, 0], 0]
    for i in range(1, cost.shape[0]):
        total += cost[table[:, i], i]
    return total


def brute_sign(count, margin):
    """(fewest mismatches, tie flag, largest-margin ordering among them,
    its margin) by enumeration."""
    counts = brute_totals(count)
    at = np.flatnonzero(counts == counts.min())
    margins = brute_totals(np.where(np.isfinite(count), margin, 0.0))[at]
    best = at[margins.argmax()]
    return counts.min(), at.size > 1, ordering(count.shape[0], best), margins.max()


def label_signs_every_entry(rows: np.ndarray, pattern: np.ndarray):
    """:func:`cumident._pipeline.label_signs` up to the exhaustive cap, with
    every stack entry scored over all d! orderings, however many entries
    share a sign-cost matrix."""
    squeeze = rows.ndim == 2
    r = rows[None] if squeeze else rows
    b, d, _ = r.shape
    pattern = np.asarray(pattern)
    active = pattern != 0
    weights = pattern.astype(float)
    table, pivots = _pipeline._permutation_table(d)
    index = np.arange(len(table), dtype=float)
    best = np.full(b, np.inf)
    tie_flags = np.ones(b, dtype=bool)
    perm_index = np.empty(b, dtype=np.intp)
    for s in _pipeline._chunks(b, d):
        cost = _pipeline._sign_cost(*_pipeline._entries_last(r[s]), weights)
        total = _pipeline._candidate_totals(cost, pivots)
        low = np.minimum.reduce(total, axis=0)
        at_best = total == low
        tied = np.count_nonzero(at_best, axis=0) > 1
        pick = np.where(tied, 0, (index @ at_best).astype(np.intp))
        refine = np.flatnonzero(tied & np.isfinite(low))
        if refine.size:
            cand, ent = np.nonzero(at_best[:, refine])
            normalized = _pipeline._normalized(r[s][refine[ent]], table[cand])
            margin = np.full((refine.size, len(table)), -np.inf)
            margin[ent, cand] = _pipeline._stack_sum(
                pattern[active] * normalized[:, active], b
            )
            pick[refine] = margin.argmax(axis=1)
        best[s], tie_flags[s], perm_index[s] = low, tied, pick
    order = table[perm_index]
    lam = _pipeline._normalized(r, order)
    if squeeze:
        return (lam[0], float(best[0]), bool(tie_flags[0]),
                tuple(order[0].tolist()))
    return lam, best, tie_flags, order


def centered_monomials(data, order: int = 3) -> np.ndarray:
    """The (n, D) monomial matrix of the centered sample, built whole: each
    monomial the left-to-right product of its coordinates (np.prod), laid
    out column by column, the transpose of a C-ordered (D, n) array, as the
    package builds its monomial columns."""
    x = validate_sample(data)
    xc = x - column_means(x)
    return np.array([np.prod(xc[:, list(t)], axis=1)
                     for t in _monomials(x.shape[1], order)]).T


def whole_moments(data, order: int = 3):
    """(m_hat, column sums, Sigma_m) of :func:`centered_monomials`: its
    column means, its column sums and the covariance of its columns, each
    from the whole matrix in one call."""
    z = centered_monomials(data, order)
    m_hat = column_means(z)
    zc = z - m_hat
    return m_hat, z.sum(axis=0), zc.T @ zc / len(z)


def leave_one_out_moments(monomials: np.ndarray) -> np.ndarray:
    """Delete-1 moment vectors from the (n, D) per-observation monomials,
    built whole (:class:`cumident._pipeline.Delete1Moments` reads them by
    rows)."""
    return (monomials.sum(axis=0) - monomials) / (len(monomials) - 1)


def _delete1_variance(est: np.ndarray) -> np.ndarray:
    """((n-1)/n) times the sum of squared deviations of the (n, p) delete-1
    estimates from their mean: the jackknife estimate of Var(estimate)."""
    n = est.shape[0]
    dev = est - est.mean(axis=0)
    return (n - 1) / n * (dev.T @ dev)


def jackknife_variance(data, estimator: Callable) -> JackknifeResult:
    """Generic delete-1 jackknife for an arbitrary estimator callable.

    The estimator receives the sample minus one row and must apply the same
    normalization, orientation and labeling on every call.  The returned
    variance is ((n-1)/n) * sum of squared deviations from the resample
    mean, i.e. an estimate of Var(estimate).
    """
    x = validate_sample(data)
    n = x.shape[0]
    _check_jackknife_n(n)
    estimates = []
    for i in range(n):
        loo = np.delete(x, i, axis=0)
        try:
            estimates.append(np.atleast_1d(np.asarray(estimator(loo), dtype=float)))
        except Exception as exc:
            raise RuntimeError(
                f"leave-one-out re-estimation failed at row {i}: {exc}"
            ) from exc
    est = np.vstack(estimates)
    return JackknifeResult(estimates=est, variance=_delete1_variance(est))


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


def fourth_order_hessian(data, w) -> np.ndarray:
    """Closed-form Hessian in w of the sample fourth cumulant of w'X:
    12 E[(w'Xc)^2 Xc Xc'] - 12 (w' Sigma w) Sigma - 24 Sigma w w' Sigma."""
    x = validate_sample(data, min_rows=2)
    w = np.asarray(w, dtype=float)
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    proj = xc @ w
    sigma = xc.T @ xc / n
    sw = sigma @ w
    g = (
        12.0 * ((xc * (proj**2)[:, None]).T @ xc) / n
        - 12.0 * (w @ sw) * sigma
        - 24.0 * np.outer(sw, sw)
    )
    return (g + g.T) / 2.0


def lstsq_fit_var(series, p: int, intercept: bool = True):
    """:func:`cumident.fit_var` by np.linalg.lstsq on the whole (T - p, k)
    lag matrix: (beta, residuals, rank, k), beta with the intercept row
    first."""
    y = np.asarray(series, dtype=float)
    t = y.shape[0]
    w = np.hstack([y[p - lag - 1: t - lag - 1] for lag in range(p)])
    if intercept:
        w = np.hstack([np.ones((t - p, 1)), w])
    beta, _, rank, _ = np.linalg.lstsq(w, y[p:], rcond=None)
    return beta, y[p:] - w @ beta, rank, w.shape[1]


def lstsq_partial_out(targets, controls):
    """:func:`cumident.partial_out` by np.linalg.lstsq on [1 | controls]:
    (residuals, rank, k)."""
    y = np.asarray(targets, dtype=float)
    w = np.hstack([np.ones((len(y), 1)), np.asarray(controls, dtype=float)])
    beta, _, rank, _ = np.linalg.lstsq(w, y, rcond=None)
    return y - w @ beta, rank, w.shape[1]
