import numpy as np
import pytest
from scipy import stats

import cumident as ci
from cumident import _pipeline, inference, overid, simulate
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
    r = _pipeline.offdiag_from_rows(
        _pipeline.demix_rows(m, 2, probes.w1, probes.w2).rows, m, 2)
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


def _verdict(call):
    """The message `call` raises, or None."""
    try:
        call()
    except (ValueError, IllConditionedError) as exc:
        return str(exc)
    return None


# The start of the message of each failure code, and its Table 2 or 3 reason.
_VERDICTS = {0: (None, None),
             inference._FAIL_MOMENTS: ("sixth-moment", "ill_conditioned"),
             inference._FAIL_ANCHOR: ("contraction at w2 is", "ill_conditioned"),
             inference._FAIL_RESAMPLE: ("singular contraction at w2 in a",
                                        "ill_conditioned"),
             inference._FAIL_OMEGA: ("restriction covariance", "omega_ill_conditioned")}


def _assert_verdict(code, message, reason):
    """`message` (None when nothing was raised) and the Table 2 or 3
    `reason` code are those of failure `code`."""
    start, name = _VERDICTS[code]
    assert message is None if start is None else message.startswith(start)
    assert (simulate.FAILURE_REASONS[reason - 1] if reason else None) == name


@pytest.mark.filterwarnings("ignore::cumident.EigenGapWarning")
def test_each_failure_code_gets_one_verdict_in_every_caller(monkeypatch):
    # One sample per failure code, stacked: each fails alone, by its first
    # failed check, and _raise_failed (through _sample_result for the Wald
    # test), the Table 2 or 3 reason and the pairwise_overid message agree.
    # At scale 1e-60 the centered sixth moments underflow (delta); a
    # constant column makes G(w2) singular; one finite-difference point of
    # sample 3 is planted singular; at 1e-85 the jackknife Omega underflows
    # to 0.  Sample 5 has the sixth-moment code and a failed anchor, whose
    # NaN rows read as a labeling tie.
    cfg = CompositeDgpConfig(n=400, k=0.5, seed=1)
    x = gen_composite(cfg, 0).x
    const = np.column_stack([x[:, 0], np.full(len(x), 2.0)])
    samples = [x, 1e-60 * x, const, x[::-1].copy(), 1e-85 * x, 1e-60 * const]
    # Codes 1 to 4: sixth moments, anchor, resample, Omega (_VERDICTS).
    wald_codes = {"delta": [0, 1, 2, 3, 1, 1], "jackknife": [0, 0, 2, 0, 4, 2]}
    slope_codes = {"delta": [0, 1, 2, 0, 1, 1], "jackknife": [0, 0, 2, 0, 0, 2]}
    probes = ci.ProbeVectors.draw(2, 3)
    fd_points = 2 * 9
    offdiag = _pipeline.offdiag_from_rows

    def one_singular_point(rows, ms, d):
        out = offdiag(rows, ms, d)
        if len(ms) == 2 * fd_points:  # the delta stack of samples 0 and 3
            out[fd_points + 3] = np.nan
        return out

    monkeypatch.setattr(_pipeline, "offdiag_from_rows", one_singular_point)
    slope = inference._demixing_statistic(2, ci.SUPPLY_DEMAND_PATTERN, (0, 1))
    fit = ci.VarFit([], np.hstack(samples), 1, None)
    pairs = [(2 * i, 2 * i + 1) for i in range(len(samples))]
    # Laid out as pairwise_overid reads them, so that cond(G(w2)) agrees.
    samples = [fit.residuals[:, list(pair)] for pair in pairs]
    for method in ("delta", "jackknife"):
        records = [_pipeline.MomentRecord.of(s) for s in samples]
        stack = overid._wald_stack(records, probes, method)
        res = inference._resampled(records, probes, slope, method)
        np.testing.assert_array_equal(stack.failure, wald_codes[method])
        np.testing.assert_array_equal(res.failure, slope_codes[method])
        stands = stack.failure == 0
        assert np.isfinite(stack.statistic[stands]).all()
        assert np.isnan(stack.statistic[~stands]).all()
        assert stack.statistic[0] == ci.wald_test(samples[0], probes, method).statistic
        monkeypatch.setattr(simulate, "_samples",
                            lambda *args: (None, None, np.stack(samples)))
        _, table3 = simulate._power_rep(cfg, (400,), [0.0] * len(samples), 0.05,
                                        probes, method, 0)
        report = ci.pairwise_overid(fit, probes, pairs, method=method)
        messages = {(i, j): message for i, j, message in report.failures}
        for i, pair in enumerate(pairs):
            wald = _verdict(lambda: overid._sample_result(stack, i, method, 2))
            assert messages.get(pair) == wald
            _assert_verdict(stack.failure[i], wald, table3[i])
            monkeypatch.setattr(simulate, "_samples",
                                lambda *args: (None, None, [samples[i]]))
            _, (table2,) = simulate._coverage_rep(cfg, (400,), 0.95, (method,), probes, 0)
            _assert_verdict(res.failure[i],
                            _verdict(lambda: inference._raise_failed(res, i, method)),
                            table2[0])
    # Omega is exactly symmetric for both methods, as eigh in _wald_stack needs.
    y = np.random.default_rng(40).standard_exponential((300, 3))
    probes = ci.ProbeVectors.draw(3, 40)
    for method in ("delta", "jackknife"):
        omega = overid._wald_stack([_pipeline.MomentRecord.of(y)], probes, method).omega
        assert omega.shape == (1, 3, 3)
        assert omega.tobytes() == np.swapaxes(omega, -2, -1).tobytes()
