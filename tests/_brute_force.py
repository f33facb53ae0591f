"""Brute-force labeling beyond the exhaustive cap: every one of the d!
orderings, scored on the labeling kernels' own (d, d) placement costs."""

from __future__ import annotations

import functools
import itertools

import numpy as np

from cumident import _pipeline


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
