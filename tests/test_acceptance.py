"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Replication counts are desk scale (1000 for the table experiments, 500 for
the substituted application designs); run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines and timings.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

import cumident as ci
from cumident import _pipeline
from cumident.inference import confidence_interval, delta_variance_statistic
from cumident.moments import column_means
from cumident.simulate import (
    run_coverage_experiment,
    run_mse_experiment,
    run_overid_power_experiment,
)
from _designs import (
    SCHOOLING_BETA,
    population_contraction,
    simulate_schooling,
    simulate_top_var,
)

pytestmark = pytest.mark.acceptance

SEED = 20240801
REPS = 1000


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def table1():
    start = time.time()
    result = run_mse_experiment(ns=[500, 5000], ks=[0.0, 0.5], reps=REPS, seed=SEED)
    return result, time.time() - start


def _cell(result, n, k, series):
    a = result.ns.index(n)
    b = result.ks.index(k)
    c = result.series.index(series)
    return float(result.values[a, b, c])


def test_criterion_1_table1_eigen_mse(table1):
    result, elapsed = table1
    cells = {
        (5000, 0.0): (1.23e-3, 0.9e-3, 1.6e-3),
        (5000, 0.5): (4.39e-3, 3.3e-3, 5.6e-3),
        (500, 0.5): (5.24e-2, 3.9e-2, 6.6e-2),
    }
    details = []
    ok = elapsed < 20 * 60
    for (n, k), (ref, lo, hi) in cells.items():
        got = _cell(result, n, k, "eigen")
        ok &= lo <= got <= hi
        details.append(f"(n={n},k={k}) {got:.3e} in [{lo:.1e},{hi:.1e}] ref {ref:.2e}")
    details.append(f"runtime {elapsed:.0f}s < 1200s")
    _report("criterion 1 (Table 1, eigenvector MSE)", ok, "; ".join(details))


def test_criterion_2_table1_iv_benchmarks(table1):
    result, _ = table1
    iv1 = _cell(result, 5000, 0.0, "iv1")
    iv2 = _cell(result, 5000, 0.5, "iv2")
    ok = 4.7e-4 <= iv1 <= 7.8e-4 and 2.6e-3 <= iv2 <= 4.4e-3
    _report(
        "criterion 2 (Table 1, IV benchmarks)", ok,
        f"IV-1(5000,0) {iv1:.3e} in [4.7e-4,7.8e-4] ref 6.23e-4; "
        f"IV-2(5000,0.5) {iv2:.3e} in [2.6e-3,4.4e-3] ref 3.50e-3",
    )


def test_criterion_3_table2_coverage():
    result = run_coverage_experiment(
        ns=[500, 3000, 5000], k=0.5, reps=REPS, seed=SEED
    )
    targets = {"jackknife": (94.3, 95.3, 95.5), "delta": (90.7, 94.4, 94.3)}
    ok = True
    details = []
    for method, wants in targets.items():
        c = result.series.index(method)
        for a, (n, want) in enumerate(zip(result.ns, wants)):
            got = 100.0 * result.values[a, 0, c]
            ok &= abs(got - want) <= 2.5
            details.append(f"{method} n={n}: {got:.1f} vs {want} (+-2.5)")
    _report("criterion 3 (Table 2, CI coverage)", ok, "; ".join(details))


def test_criterion_4_table3_size_power():
    result = run_overid_power_experiment(
        ns=[1000, 5000], ks=[0.0, 0.2], reps=REPS, seed=SEED, alpha=0.05
    )

    def cell(n, k):
        return float(result.values[result.ns.index(n), result.ks.index(k), 0])

    size = cell(5000, 0.0)
    power_small = cell(1000, 0.2)
    power_large = cell(5000, 0.2)
    ok = (0.035 <= size <= 0.085 and 0.76 <= power_small <= 0.87
          and power_large >= 0.99)
    _report(
        "criterion 4 (Table 3, size/power)", ok,
        f"size(5000,0) {size:.3f} in [0.035,0.085] ref 0.060; "
        f"power(1000,0.2) {power_small:.3f} in [0.76,0.87] ref 0.813; "
        f"power(5000,0.2) {power_large:.3f} >= 0.99",
    )


def test_criterion_5_population_identification_oracle():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    checked = 0
    while checked < 100:
        d = int(rng.integers(2, 6))
        a = rng.uniform(-1.0, 1.0, (d, d))
        if np.abs(a.sum(axis=0)).min() < 0.3 or np.linalg.cond(a) > 20:
            continue
        kappa3 = rng.uniform(0.5, 3.0, d)
        w1 = rng.uniform(size=d)
        est = ci.demixing_from_contractions(
            population_contraction(a, kappa3, w1),
            population_contraction(a, kappa3, np.ones(d)),
        )
        lam = np.linalg.inv(a)
        for row in lam:
            best = min(ci.angular_distance(row, got) for got in est.lambda_tilde)
            worst = max(worst, best)
        checked += 1
    ok = worst < 1e-8
    _report(
        "criterion 5 (population eigenvector oracle)", ok,
        f"100 random mixings d in 2..5, worst angular distance {worst:.2e} < 1e-8",
    )


def test_criterion_6_tall_mixing_recovery():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -0.5]])
    rng = np.random.default_rng(SEED + 1)
    s = np.column_stack([
        rng.standard_exponential(100_000) - 1.0,
        1.5 * (rng.standard_exponential(100_000) - 1.0),
    ])
    mix = ci.estimate_mixing_tall(s @ a.T, ci.ProbeVectors.draw(4, SEED), d2=2)
    worst = max(
        min(ci.angular_distance(mix.a_columns[:, c], a[:, j]) for c in range(2))
        for j in range(2)
    )
    ok = worst < 0.05
    _report(
        "criterion 6 (tall-case recovery, d1=4, d2=2, n=1e5)", ok,
        f"worst column angular distance {worst:.4f} < 0.05",
    )


def test_criterion_7_property_suite():
    rng = np.random.default_rng(SEED)
    checks = {}

    x = rng.standard_exponential((400, 3))
    t = ci.third_cumulants(x)
    checks["tensor symmetry"] = all(
        np.array_equal(t, np.transpose(t, p)) for p in itertools.permutations(range(3))
    )
    checks["translation invariance"] = np.allclose(
        ci.third_cumulants(x + np.array([3.0, -1.0, 0.5])), t, atol=1e-10
    )
    wa, wb = rng.standard_normal(3), rng.standard_normal(3)
    checks["contraction linearity"] = np.allclose(
        ci.contract_hessian(x, 2.0 * wa - 0.3 * wb),
        2.0 * ci.contract_hessian(x, wa)
        - 0.3 * ci.contract_hessian(x, wb),
        atol=1e-9,
    )
    checks["map/tensor equivalence"] = np.allclose(
        ci.cumulants_from_moments(column_means(ci.monomial_matrix(x)), 3), t,
        rtol=1e-10, atol=1e-12
    )

    probes = ci.ProbeVectors.draw(3, SEED)
    est = ci.estimate_demixing(x, probes)
    checks["scale equivariance"] = np.array_equal(
        est.lambda_tilde, ci.estimate_demixing(2.0 * x, probes).lambda_tilde
    )
    perm = [2, 0, 1]
    permuted = ci.estimate_demixing(
        x[:, perm], ci.ProbeVectors(w1=probes.w1[perm], w2=probes.w2[perm])
    )
    checks["permutation equivariance"] = np.allclose(
        permuted.lambda_tilde, est.lambda_tilde @ np.eye(3)[perm].T, atol=1e-8
    )

    from cumident.simulate import CompositeDgpConfig, gen_composite
    xs = gen_composite(CompositeDgpConfig(n=2_000, k=0.4, seed=SEED), 0).x
    p2 = ci.ProbeVectors.draw(2, SEED)
    dv = ci.delta_variance(xs, p2)
    jk = ci.demixing_jackknife(xs, p2)
    wt = ci.wald_test(xs, p2)
    checks["PSD covariances"] = (
        np.linalg.eigvalsh(dv.sigma_u).min() > -1e-10 * np.trace(dv.sigma_u)
        and np.linalg.eigvalsh(jk.variance).min() > -1e-10 * np.trace(jk.variance)
        and np.linalg.eigvalsh(wt.omega_hat).min() > -1e-10 * np.trace(wt.omega_hat)
    )
    r1 = run_mse_experiment([300], [0.2], reps=10, seed=SEED)
    r2 = run_mse_experiment([300], [0.2], reps=10, seed=SEED)
    checks["determinism"] = np.array_equal(r1.values, r2.values)

    failed = [name for name, ok in checks.items() if not ok]
    _report(
        "criterion 7 (property suite)", not failed,
        "all properties hold" if not failed else f"failed: {failed}",
    )


def test_criterion_8_var_pairwise_substitute():
    # The original application data are not bundled; substituted design:
    # triangular-top 3-variable VAR(6), T=5000, 500 replications.
    reps = 500
    probes = ci.ProbeVectors.draw(2, SEED)
    rejections = np.zeros((reps, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in range(reps):
            y = simulate_top_var(5_000, np.random.default_rng([SEED, rep]))
            fit = ci.fit_var(y, p=6)
            report = ci.pairwise_overid(fit, probes, alpha=0.05)
            for m, (_, _, res) in enumerate(report.pairs):
                rejections[rep, m] = res.p_value < 0.05
    rates = rejections.mean(axis=0)
    top_ok = rates[0] <= 0.10 and rates[1] <= 0.10
    alt_ok = rates[2] >= 0.80
    _report(
        "criterion 8 (VAR pairwise substitute)", top_ok and alt_ok,
        f"pairs with top variable rejected at {rates[0]:.3f}/{rates[1]:.3f} "
        f"(<= 0.10); complementary pair at {rates[2]:.3f} (>= 0.80)",
    )


def test_criterion_9_schooling_substitute():
    # The schooling data are not bundled; substituted design: triangular
    # two-equation model with symmetric ability and measurement error,
    # partialled-out controls, delta-method CI coverage over 500 reps.
    reps, n = 500, 3_000
    probes = ci.ProbeVectors.draw(2, SEED)

    def batch(ms):
        rows = _pipeline.demix_rows(ms, 2, probes.w1, probes.w2).rows
        lam, _, _ = _pipeline.label_triangular(rows)
        return -lam[..., 1, 0]

    covered = np.zeros(reps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in range(reps):
            y, controls = simulate_schooling(n, np.random.default_rng([SEED, rep]))
            resid = ci.partial_out(y, controls)
            est = ci.estimate_demixing(resid, probes)
            beta_hat = -ci.label_by_triangular(est).lambda_final[1, 0]
            dv = delta_variance_statistic(resid, batch_statistic=batch)
            lo, hi = confidence_interval(beta_hat, float(dv.sigma_u[0, 0]), n, 0.95)
            covered[rep] = lo <= SCHOOLING_BETA <= hi
    rate = covered.mean()
    ok = 0.92 <= rate <= 0.98
    _report(
        "criterion 9 (schooling-style round trip)", ok,
        f"delta CI covered beta={SCHOOLING_BETA} in {100 * rate:.1f}% of "
        f"{reps} replications (band [92, 98])",
    )
