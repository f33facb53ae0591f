import numpy as np
import pytest
from scipy import stats

import cumident as ci
from cumident import _pipeline, overid
from cumident.errors import IllConditionedError
from cumident.identify import COMPLEX_RESIDUE_TOL, DemixingEstimate
from cumident.moments import column_means, monomial_matrix
from cumident.simulate import CompositeDgpConfig, gen_composite


def _identity_estimate(d):
    return DemixingEstimate(
        lambda_tilde=np.eye(d),
        eigenvalues=np.arange(d, 0, -1, dtype=float),
        max_imag=0.0,
        cond_G2=1.0,
    )


def test_restrictions_zero_for_identity_and_diagonal_cov():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2_000, 2))
    xc = x - x.mean(axis=0)
    chol = np.linalg.cholesky(xc.T @ xc / x.shape[0])
    white = xc @ np.linalg.inv(chol).T
    r = ci.overid_restrictions(white, _identity_estimate(2))
    np.testing.assert_allclose(r, 0.0, atol=1e-12)


def test_restrictions_small_under_null():
    x = gen_composite(CompositeDgpConfig(n=100_000, k=0.0, seed=1), 0).x
    probes = ci.ProbeVectors.draw(2, 1)
    res = ci.wald_test(x, probes)
    # within 3 standard errors of zero under the null
    assert res.statistic < 9.0
    est = ci.estimate_demixing(x, probes)
    np.testing.assert_allclose(
        res.r_hat, ci.overid_restrictions(x, est), atol=1e-10
    )


def test_restrictions_bounded_away_under_alternative():
    x = gen_composite(CompositeDgpConfig(n=100_000, k=0.5, seed=1), 0).x
    res = ci.wald_test(x, ci.ProbeVectors.draw(2, 1))
    assert res.p_value < 1e-6


def test_dof_is_d_choose_2():
    x2 = gen_composite(CompositeDgpConfig(n=2_000, k=0.0, seed=2), 0).x
    assert ci.wald_test(x2, ci.ProbeVectors.draw(2, 2)).dof == 1
    rng = np.random.default_rng(3)
    x3 = rng.standard_exponential((2_000, 3)) @ np.array(
        [[1.0, 0.2, 0.0], [-0.3, 1.0, 0.1], [0.2, 0.4, 1.0]]
    ).T
    assert ci.wald_test(x3, ci.ProbeVectors.draw(3, 2)).dof == 3


def _null_statistics(n, reps, seed=4):
    cfg = CompositeDgpConfig(n=n, k=0.0, seed=seed)
    probes = ci.ProbeVectors.draw(2, seed)
    from cumident.simulate import _assemble, _draw_primitives
    out = []
    for rep in range(reps):
        s, e, eps, _ = _draw_primitives(cfg, rep, n)
        x = _assemble(s, e, eps, 0.0)
        out.append(ci.wald_test(x, probes).statistic)
    return np.array(out)


@pytest.mark.slow
def test_mean_statistic_near_dof_under_null():
    # Chi-square limit: the null mean approaches the degrees of freedom.
    # At n = 5000 the genuine finite-sample mean still carries the tail
    # inflation behind the documented mild over-rejection (measured 1.33
    # with MC-SE 0.10), so the 15% band is checked where the limit has set
    # in, with a sanity cap at n = 5000.
    assert np.mean(_null_statistics(5_000, 200)) < 1.6
    assert abs(np.mean(_null_statistics(20_000, 300)) - 1.0) < 0.15


@pytest.mark.slow
def test_null_p_values_near_uniform():
    cfg = CompositeDgpConfig(n=5_000, k=0.0, seed=5)
    probes = ci.ProbeVectors.draw(2, 5)
    from cumident.simulate import _assemble, _draw_primitives
    pvals = []
    for rep in range(1_000):
        s, e, eps, _ = _draw_primitives(cfg, rep, 5_000)
        x = _assemble(s, e, eps, 0.0)
        pvals.append(ci.wald_test(x, probes).p_value)
    ks = stats.kstest(pvals, "uniform").statistic
    assert ks < 0.08


def test_scale_and_permutation_invariance_of_restrictions():
    # Rescaling and permuting rows maps the off-diagonals to signed scaled
    # permutations of each other: zero iff zero.
    x = gen_composite(CompositeDgpConfig(n=5_000, k=0.3, seed=6), 0).x
    est = ci.estimate_demixing(x, ci.ProbeVectors.draw(2, 6))
    r = ci.overid_restrictions(x, est)
    dmat = np.diag([2.0, -0.7])
    pmat = np.eye(2)[[1, 0]]
    est2 = DemixingEstimate(
        lambda_tilde=pmat @ dmat @ est.lambda_tilde,
        eigenvalues=est.eigenvalues,
        max_imag=0.0,
        cond_G2=est.cond_G2,
    )
    r2 = ci.overid_restrictions(x, est2)
    np.testing.assert_allclose(np.abs(r2), np.abs(-1.4 * r), rtol=1e-10)


def test_jackknife_omega_close_to_delta():
    x = gen_composite(CompositeDgpConfig(n=5_000, k=0.0, seed=7), 0).x
    probes = ci.ProbeVectors.draw(2, 7)
    t_delta = ci.wald_test(x, probes, method="delta")
    t_jack = ci.wald_test(x, probes, method="jackknife")
    assert t_jack.method == "jackknife"
    assert 0.6 < t_jack.statistic / t_delta.statistic < 1.67


def test_wald_rejects_unknown_method():
    x = gen_composite(CompositeDgpConfig(n=500, k=0.0, seed=8), 0).x
    with pytest.raises(ValueError):
        ci.wald_test(x, ci.ProbeVectors.draw(2, 8), method="bootstrap")


def test_singular_omega_is_reported(monkeypatch):
    x = gen_composite(CompositeDgpConfig(n=2_000, k=0.0, seed=9), 0).x
    monkeypatch.setattr(
        "cumident.overid._pipeline.batched_jacobian",
        lambda *a, **k: np.zeros((1, 9)),
    )
    with pytest.raises(IllConditionedError):
        ci.wald_test(x, ci.ProbeVectors.draw(2, 9))


@pytest.mark.parametrize("method", ["delta", "jackknife"])
def test_omega_clip_count(method, monkeypatch):
    samples = [
        (gen_composite(CompositeDgpConfig(n=2_000, k=0.0, seed=9), 0).x,
         ci.ProbeVectors.draw(2, 9)),
        (np.random.default_rng(9).standard_exponential((2_000, 5)),
         ci.ProbeVectors.draw(5, 7)),
    ]
    for x, probes in samples:
        d = x.shape[1]
        assert ci.wald_test(x, probes, method=method).omega_clipped == 0
        # Every eigenvalue of a PSD Omega is at most its trace.
        with monkeypatch.context() as patched:
            patched.setattr("cumident.overid.OMEGA_CLIP_RTOL", 2.0)
            clipped = ci.wald_test(x, probes, method=method).omega_clipped
        assert clipped == d * (d - 1) // 2


def test_restriction_vector_matches_pipeline():
    x = gen_composite(CompositeDgpConfig(n=3_000, k=0.2, seed=10), 0).x
    probes = ci.ProbeVectors.draw(2, 10)
    m = ci.monomial_matrix(x).mean(axis=0)
    r = _pipeline.overid_offdiag(m, 2, probes.w1, probes.w2)
    res = ci.wald_test(x, probes)
    np.testing.assert_allclose(res.r_hat, r, atol=1e-14)


def _same_test_result(a, b):
    assert (a.statistic, a.p_value, a.dof) == (b.statistic, b.p_value, b.dof)
    for field in ("r_hat", "omega_hat"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


@pytest.mark.parametrize("d", [2, 5])
def test_jackknife_wald_and_jackknife_ses_share_one_stack(d):
    from test_inference import assert_same_jackknife, cold, memo_case, memo_entry

    x, probes, pattern = memo_case(d)
    wald_cold = cold(ci.wald_test, x, probes, method="jackknife")
    jk_cold = cold(ci.demixing_jackknife, x, probes, pattern)

    # Standard errors first, then the test: the test reads the held stack.
    jk = cold(ci.demixing_jackknife, x, probes, pattern)
    held = memo_entry()
    wald = ci.wald_test(x, probes, method="jackknife")
    assert memo_entry() is held
    assert_same_jackknife(jk, jk_cold)
    _same_test_result(wald, wald_cold)

    # The reverse order, on a list copy of the sample (same bytes).
    wald = cold(ci.wald_test, x.tolist(), probes, method="jackknife")
    held = memo_entry()
    jk = ci.demixing_jackknife(x, probes, pattern)
    assert memo_entry() is held
    assert_same_jackknife(jk, jk_cold)
    _same_test_result(wald, wald_cold)


# A d = 5 design with independent exponential shocks whose n = 300 sample
# (seed 22) has a complex-conjugate pair among the eigenvalues of
# G(w2)^{-1} G(w1) at probe seed 7: the two real rows kept are equal.
_WIDE_LAMBDA = np.array([
    [1.0, 0.3, -0.3, 0.5, 0.3],
    [-0.4, 1.0, 0.4, 0.5, -0.5],
    [-0.5, -0.4, 1.0, 0.5, 0.4],
    [-0.5, 0.5, -0.3, 1.0, 0.4],
    [-0.6, 0.5, 0.2, -0.3, 1.0],
])


@pytest.mark.parametrize("method", ["delta", "jackknife"])
def test_complex_pair_flags_the_gap_before_the_singular_omega(method):
    x = np.random.default_rng(22).standard_exponential((300, 5))
    x = x @ np.linalg.inv(_WIDE_LAMBDA).T
    probes = ci.ProbeVectors.draw(5, 7)
    with pytest.warns(ci.EigenGapWarning), pytest.warns(ci.ComplexResidueWarning):
        with pytest.raises(IllConditionedError):
            ci.wald_test(x, probes, method=method)
    demixed = _pipeline.demix_rows(
        column_means(monomial_matrix(x)), 5, probes.w1, probes.w2)
    assert demixed.max_imag > COMPLEX_RESIDUE_TOL and demixed.gap_flags
    with pytest.warns(ci.EigenGapWarning), pytest.warns(ci.ComplexResidueWarning):
        assert ci.estimate_demixing(x, probes).gap_flag


@pytest.mark.parametrize("method", ["delta", "jackknife"])
def test_singular_anchor_is_reported_before_any_resample(method):
    # A constant column makes G(w2) singular; at d = 3 some finite-difference
    # points and every delete-1 resample stay singular, but the error is the
    # anchor's, with estimate_demixing's condition estimate.
    x = np.random.default_rng(38).standard_exponential((300, 3))
    x[:, 2] = 2.0
    probes = ci.ProbeVectors.draw(3, 38)
    with pytest.raises(IllConditionedError) as est:
        ci.estimate_demixing(x, probes)
    with pytest.raises(IllConditionedError, match="contraction at w2") as wald:
        ci.wald_test(x, probes, method=method)
    assert wald.value.cond == est.value.cond


def test_stacked_delta_wald_flags_a_sample_whose_sixth_moments_fail():
    # At scale 1e-60 the centered sixth moments underflow: that sample of a
    # stack fails alone, and only its result raises.
    x = gen_composite(CompositeDgpConfig(n=2_000, k=0.5, seed=1), 0).x
    probes = ci.ProbeVectors.draw(2, 3)
    res = overid._wald_stack([x, 1e-60 * x], probes)
    np.testing.assert_array_equal(res.moments_fail, [False, True])
    assert np.isnan(res.statistic[1])
    np.testing.assert_allclose(
        res.statistic[0], ci.wald_test(x, probes).statistic, rtol=1e-10)
    with pytest.raises(ValueError, match="sixth-moment"):
        overid._sample_result(res, 1, "delta", stacklevel=2)
