"""Synthetic designs shared between the unit tests and the acceptance suite."""

from __future__ import annotations

import itertools

import numpy as np

# Triangular-top 3-variable system: variable 1 loads only on shock 1, so the
# residual pairs (1,2) and (1,3) are two-source systems satisfying joint
# diagonality while (2,3) mixes three shocks and violates it.
TOP_MIX = np.array([
    [1.0, 0.0, 0.0],
    [-0.8, 1.0, 0.6],
    [0.7, -0.5, 1.0],
])
VAR_A1 = np.array([
    [0.4, 0.1, 0.0],
    [0.0, 0.3, 0.1],
    [0.1, 0.0, 0.3],
])
VAR_A2 = 0.1 * np.eye(3)


def simulate_top_var(t: int, rng: np.random.Generator, mix=TOP_MIX,
                     burn: int = 200) -> np.ndarray:
    """VAR(2) path driven by independent skewed shocks through `mix`."""
    d = mix.shape[0]
    u = rng.standard_exponential((t + burn, d)) - 1.0
    e = u @ mix.T
    y = np.zeros((t + burn, d))
    for s in range(2, t + burn):
        y[s] = VAR_A1 @ y[s - 1] + VAR_A2 @ y[s - 2] + e[s]
    return y[burn:]


# Near-unit-root VAR(1): each series an AR(1) with rho = 0.999 driven by
# skewed shocks, scaled by 1e4, 1 and 1e-3 and offset, so that its lag
# matrix is ill-conditioned.
NEAR_UNIT_ROOT_SCALE = np.array([1e4, 1.0, 1e-3])
NEAR_UNIT_ROOT_OFFSET = np.array([5e4, -3.0, 2e-2])


def simulate_near_unit_root(t: int, rng: np.random.Generator,
                            rho: float = 0.999) -> np.ndarray:
    e = rng.standard_exponential((t, len(NEAR_UNIT_ROOT_SCALE))) - 1.0
    y = np.zeros_like(e)
    for s in range(1, t):
        y[s] = rho * y[s - 1] + e[s]
    return y * NEAR_UNIT_ROOT_SCALE + NEAR_UNIT_ROOT_OFFSET


SCHOOLING_BETA = 0.1
_EDUC_CONTROLS = np.array([0.3, -0.2, 0.5])
_WAGE_CONTROLS = np.array([0.5, 0.1, -0.3])


def simulate_schooling(n: int, rng: np.random.Generator):
    """Triangular two-equation design with a symmetric omitted factor and
    symmetric measurement error; returns ((educ, lwage) matrix, controls)."""
    controls = rng.standard_normal((n, 3))
    ability = rng.standard_normal(n)
    meas = 0.5 * rng.standard_normal(n)
    v = 0.8 * (rng.standard_exponential(n) - 1.0)
    u = 0.5 * (rng.standard_exponential(n) - 1.0)
    educ_shock = 0.6 * ability + meas + v
    wage_shock = 0.4 * ability - SCHOOLING_BETA * meas + u
    educ = controls @ _EDUC_CONTROLS + educ_shock
    lwage = controls @ _WAGE_CONTROLS + SCHOOLING_BETA * educ + wage_shock
    return np.column_stack([educ, lwage]), controls


def population_contraction(a: np.ndarray, kappa3: np.ndarray,
                           w: np.ndarray) -> np.ndarray:
    """Exact G(w) = A diag(6 kappa3_i (A'w)_i) A' for a known mixing."""
    return a @ np.diag(6.0 * kappa3 * (a.T @ w)) @ a.T


def stacked_wald_samples(d: int, w1: np.ndarray, w2: np.ndarray):
    """Four samples of width d for one stacked Wald test at probes (w1, w2).

    Samples 0, 1 and 3 are skewed shocks through I plus +-0.3 off the
    diagonal, at n = 60, 400 and 1 500.  Sample 2 has an estimate with a
    gap flag: its 4^d rows are a full factorial of skewed levels, so its
    columns are independent in the sample and its third cumulant diagonal,
    mixed by a matrix whose columns 0 and 1 differ by a vector orthogonal
    to w1 and w2, so that their eigenvalues a'w1 / a'w2 are equal.
    """
    rng = np.random.default_rng([d, 0])
    samples = []
    for n in (60, 400, 1_500):
        lam = np.eye(d) + rng.choice([-0.3, 0.3], (d, d)) * (1.0 - np.eye(d))
        samples.append(rng.standard_exponential((n, d)) @ np.linalg.inv(lam).T)
    levels = [s * np.array([-1.0, -1.0, 0.0, 2.0]) for s in rng.uniform(0.5, 2.0, d)]
    mixing = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    probes = np.column_stack([w1, w2])
    u = rng.standard_normal(d)
    mixing[:, 1] = mixing[:, 0] + u - probes @ np.linalg.lstsq(probes, u, rcond=None)[0]
    samples.insert(2, np.array(list(itertools.product(*levels))) @ mixing.T)
    return samples
