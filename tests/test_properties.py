import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cumident as ci

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def samples(min_d=1, max_d=4, min_n=4, max_n=40):
    return st.integers(min_d, max_d).flatmap(
        lambda d: st.integers(min_n, max_n).flatmap(
            lambda n: arrays(np.float64, (n, d), elements=finite)
        )
    )


@given(samples())
@settings(max_examples=40, deadline=None)
def test_tensor_symmetry(x):
    t = ci.third_cumulants(x)
    for perm in itertools.permutations(range(3)):
        np.testing.assert_array_equal(t, np.transpose(t, perm))


@given(samples(max_d=3), st.floats(-20.0, 20.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_translation_invariance(x, shift):
    scale = max(1.0, np.abs(x).max()) ** 3
    np.testing.assert_allclose(
        ci.third_cumulants(x + shift), ci.third_cumulants(x),
        atol=1e-10 * scale,
    )


@given(samples(min_d=2, max_d=3, min_n=6),
       arrays(np.float64, 3, elements=st.floats(-3, 3)),
       arrays(np.float64, 3, elements=st.floats(-3, 3)))
@settings(max_examples=40, deadline=None)
def test_contraction_linearity(x, wa, wb):
    d = x.shape[1]
    wa, wb = wa[:d], wb[:d]
    lhs = ci.contract_hessian(x, 1.5 * wa - 0.25 * wb).matrix
    rhs = (1.5 * ci.contract_hessian(x, wa).matrix
           - 0.25 * ci.contract_hessian(x, wb).matrix)
    scale = max(1.0, np.abs(rhs).max())
    np.testing.assert_allclose(lhs, rhs, atol=1e-9 * scale)


@given(samples(min_d=2, max_d=4, min_n=8, max_n=60))
@settings(max_examples=40, deadline=None)
def test_map_tensor_equivalence(x):
    want = ci.third_cumulants(x)
    got = ci.cumulant_map(ci.raw_moments(x))
    scale = max(1.0, np.abs(want).max())
    np.testing.assert_allclose(got, want, atol=1e-10 * scale, rtol=1e-10)


@given(arrays(np.float64, (3, 3), elements=st.floats(-5, 5, allow_nan=False)))
@settings(max_examples=60, deadline=None)
def test_orientation_idempotent(rows):
    once, _ = ci.orient_rows(rows)
    twice, _ = ci.orient_rows(once)
    np.testing.assert_array_equal(once, twice)
    # rule-A rows with a clear sum are oriented positive
    sums = once.sum(axis=1)
    assert np.all((sums > 0) | (np.abs(sums) < 1e-8))


@given(st.integers(1, 6))
@settings(max_examples=10, deadline=None)
def test_monomial_order_blocks(d):
    tuples = ci.monomial_tuples(d)
    assert len(tuples) == ci.moment_vector_length(d)
    degrees = [len(t) for t in tuples]
    assert degrees == sorted(degrees)
    assert tuples[:d] == tuple((i,) for i in range(d))
    for t in tuples:
        assert tuple(sorted(t)) == t


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_probe_draw_deterministic(seed, d):
    a = ci.ProbeVectors.draw(d, seed)
    b = ci.ProbeVectors.draw(d, seed)
    np.testing.assert_array_equal(a.w1, b.w1)
    assert np.all((a.w1 >= 0.0) & (a.w1 <= 1.0))


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_demixing_scale_equivariance(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_exponential((300, 2))
    probes = ci.ProbeVectors.draw(2, seed)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = ci.estimate_demixing(x, probes)
        scaled = ci.estimate_demixing(0.5 * x, probes)
    np.testing.assert_array_equal(base.lambda_tilde, scaled.lambda_tilde)


def test_covariances_are_psd_on_random_designs():
    from cumident.simulate import CompositeDgpConfig, gen_composite
    for seed in range(3):
        x = gen_composite(CompositeDgpConfig(n=1_500, k=0.4, seed=seed), 0).x
        probes = ci.ProbeVectors.draw(2, seed)
        dv = ci.delta_variance(x, probes, k="all")
        assert np.linalg.eigvalsh(dv.sigma_u).min() > -1e-10 * np.trace(dv.sigma_u)
        jk = ci.demixing_jackknife(x, probes)
        assert np.linalg.eigvalsh(jk.variance).min() > -1e-10 * max(
            np.trace(jk.variance), 1e-300
        )
        res = ci.wald_test(x, probes)
        assert np.linalg.eigvalsh(res.omega_hat).min() > -1e-10 * np.trace(res.omega_hat)
