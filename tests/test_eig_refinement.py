"""The anchored eigen-refinement behind delete-1 and finite-difference stacks."""

import numpy as np
import pytest

import cumident as ci
from cumident import _pipeline
from cumident._pipeline import _sorted_eig


@pytest.fixture(autouse=True)
def cold_memo():
    """Each test starts and ends without a held delete-1 stack."""
    _pipeline._loo_held = None
    yield
    _pipeline._loo_held = None


def clustered_stack(d: int, spread: float, seed: int, b: int = 400):
    """A (b, d, d) stack of entries H + spread * |H| * N_i / |N_i| (spectral
    norms) around a random H with well-conditioned eigenvectors and
    eigenvalues spaced by at least a tenth of their scale."""
    rng = np.random.default_rng([d, seed])
    vals = np.linspace(1.0, 2.0, d) * rng.choice([-1.0, 1.0])
    vecs = np.eye(d) + 0.3 / np.sqrt(d) * rng.standard_normal((d, d))
    h = vecs @ np.diag(vals) @ np.linalg.inv(vecs)
    noise = rng.standard_normal((b, d, d))
    noise /= np.linalg.norm(noise, ord=2, axis=(1, 2))[:, None, None]
    return h + spread * np.linalg.norm(h, ord=2) * noise


def lapack_anchored_eig(h):
    vals, vecs = _sorted_eig(h)
    return vals, vecs, np.zeros(h.shape[0], dtype=bool)


@pytest.mark.parametrize("spread", [1e-3, 1e-4])
@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_refined_eigenpairs_match_lapack(d, spread):
    for seed in range(3):
        h = clustered_stack(d, spread, seed)
        vals, vecs, fallbacks = _pipeline._anchored_eig(h)
        ref_vals, ref_vecs = _sorted_eig(h)
        assert not fallbacks.any()
        scale = np.abs(ref_vals).max(axis=-1, keepdims=True)
        assert np.max(np.abs(vals - ref_vals.real) / scale) <= 1e-12
        for rule in ("A", "B"):
            np.testing.assert_allclose(
                _pipeline._oriented_rows(vecs, rule)[0],
                _pipeline._oriented_rows(ref_vecs, rule)[0], rtol=0, atol=1e-12,
            )
        np.testing.assert_array_equal(
            _pipeline._gap_flags(vals), _pipeline._gap_flags(ref_vals)
        )
        np.testing.assert_array_equal(
            np.abs(vecs.imag).max(axis=(-2, -1)),
            np.abs(ref_vecs.imag).max(axis=(-2, -1)),
        )


def planted_stack():
    """A clustered d = 4 stack with a complex pair at entry 3, a near-repeated
    pair at entry 7 and a non-finite entry at entry 11."""
    h = clustered_stack(4, 1e-4, 0, b=40)
    vals, vecs = _sorted_eig(h[0])
    v, y = vecs.real, np.linalg.inv(vecs.real)
    rotation = np.diag(vals.real)
    rotation[1:3, 1:3] = [[1.5, 0.2], [-0.2, 1.5]]
    h[3] = v @ rotation @ y
    repeated = vals.real.copy()
    repeated[2] = repeated[1] * (1.0 - 1e-9)
    h[7] = v @ np.diag(repeated) @ y
    h[11, 0, 0] = np.nan
    return h, v


def test_refinement_rejects_planted_entries():
    h, v = planted_stack()
    _, _, accepted = _pipeline._refine_eig(h, v)
    np.testing.assert_array_equal(np.flatnonzero(~accepted), [3, 7, 11])


def test_fallback_entries_are_lapack_bitwise():
    h, _ = planted_stack()
    finite = np.delete(h, 11, axis=0)
    vals, vecs, fallbacks = _pipeline._anchored_eig(finite)
    np.testing.assert_array_equal(np.flatnonzero(fallbacks), [3, 7])
    ref_vals, ref_vecs = _sorted_eig(finite[fallbacks])
    assert vals.dtype == ref_vals.dtype and vecs.dtype == ref_vecs.dtype
    assert vals[fallbacks].tobytes() == ref_vals.tobytes()
    assert vecs[fallbacks].tobytes() == ref_vecs.tobytes()
    # The complex pair and the near-repeated pair keep LAPACK's diagnostics.
    flags = _pipeline._gap_flags(vals)
    np.testing.assert_array_equal(np.flatnonzero(flags), [3, 7])
    assert np.abs(vecs[3].imag).max() > 0.0
    assert np.abs(np.delete(vecs, 3, axis=0).imag).max() == 0.0
    # A non-finite entry fails as it does in LAPACK.
    with pytest.raises(np.linalg.LinAlgError):
        _sorted_eig(h)
    with pytest.raises(np.linalg.LinAlgError):
        _pipeline._anchored_eig(h)


def test_complex_anchor_sends_the_stack_to_lapack(monkeypatch):
    h, _ = planted_stack()
    stack = np.repeat(h[3][None], 5, axis=0)
    stack[1:] += 1e-6

    def refine(*args):
        raise AssertionError("refined from a complex anchor")

    monkeypatch.setattr(_pipeline, "_refine_eig", refine)
    vals, vecs, fallbacks = _pipeline._anchored_eig(stack)
    assert fallbacks.all()
    ref_vals, ref_vecs = _sorted_eig(stack)
    assert vals.tobytes() == ref_vals.tobytes()
    assert vecs.tobytes() == ref_vecs.tobytes()


DESIGNS = {
    3: np.array([[1.0, 0.4, -0.3], [-0.5, 1.0, 0.4], [0.3, -0.5, 1.0]]),
    5: np.array([
        [1.0, 0.3, -0.3, 0.5, 0.3],
        [-0.4, 1.0, 0.4, 0.5, -0.5],
        [-0.5, -0.4, 1.0, 0.5, 0.4],
        [-0.5, 0.5, -0.3, 1.0, 0.4],
        [-0.6, 0.5, 0.2, -0.3, 1.0],
    ]),
}


def skewed_sample(n: int, d: int, seed: int):
    """Exponential shocks through a design with distinct sign rows."""
    lam = DESIGNS[d]
    shocks = np.random.default_rng(seed).standard_exponential((n, d))
    return shocks @ np.linalg.inv(lam).T, np.sign(lam).astype(int)


@pytest.mark.parametrize("d", [3, 5])
def test_delete_one_stack_matches_lapack(d, monkeypatch):
    x, _ = skewed_sample(5_000, d, 31)
    probes = ci.ProbeVectors.draw(d, 7)
    loo = _pipeline.leave_one_out_moments(ci.monomial_matrix(x))
    got = _pipeline.demix_rows(loo, d, probes.w1, probes.w2)
    monkeypatch.setattr(_pipeline, "_anchored_eig", lapack_anchored_eig)
    want = _pipeline.demix_rows(loo, d, probes.w1, probes.w2)
    assert not got.eig_fallbacks.any()
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12)
    np.testing.assert_array_equal(got[2], want[2])
    np.testing.assert_array_equal(got[3], want[3])


def test_jackknife_counts_fallbacks(monkeypatch):
    x, pattern = skewed_sample(5_000, 3, 41)
    probes = ci.ProbeVectors.draw(3, 7)
    assert ci.demixing_jackknife(x, probes, pattern).eig_fallbacks == 0
    # One Newton step leaves residuals far above the bound, so every
    # resample goes to LAPACK and the result is LAPACK's, bit for bit.
    monkeypatch.setattr(_pipeline, "_REFINE_STEPS", 1)
    _pipeline._loo_held = None
    one_step = ci.demixing_jackknife(x, probes, pattern, entry=None)
    monkeypatch.setattr(_pipeline, "_anchored_eig", lapack_anchored_eig)
    _pipeline._loo_held = None
    lapack = ci.demixing_jackknife(x, probes, pattern, entry=None)
    assert one_step.eig_fallbacks == x.shape[0]
    assert lapack.eig_fallbacks == 0
    assert one_step.estimates.tobytes() == lapack.estimates.tobytes()
    assert one_step.variance.tobytes() == lapack.variance.tobytes()


def test_degenerate_anchor_falls_back_everywhere():
    x, _ = skewed_sample(400, 3, 43)
    probes = ci.ProbeVectors(w1=np.ones(3), w2=np.ones(3))
    with pytest.warns(ci.EigenGapWarning):
        ci.estimate_demixing(x, probes)
    jk = ci.demixing_jackknife(x, probes)
    assert jk.eig_fallbacks == jk.gap_count == x.shape[0]


def test_jackknife_runs_lapack_on_a_bounded_number_of_matrices(monkeypatch):
    # Work-count guard: the delete-1 stack is refined from one anchor, so
    # LAPACK sees O(1) matrices per jackknife, not one per resample.
    x, pattern = skewed_sample(2_000, 3, 47)
    probes = ci.ProbeVectors.draw(3, 7)
    seen = []
    real = np.linalg.eig

    def eig(a):
        seen.append(int(np.prod(np.shape(a)[:-2])))
        return real(a)

    monkeypatch.setattr(np.linalg, "eig", eig)
    jk = ci.demixing_jackknife(x, probes, pattern)
    # The anchor, the full sample, and the few high-leverage resamples the
    # refinement hands back.
    assert sum(seen) == 2 + jk.eig_fallbacks <= 10



def analysis(x, probes, pattern):
    _pipeline._loo_held = None
    jk = ci.demixing_jackknife(x, probes, pattern, entry=None)
    dv = ci.delta_variance_labeled(x, probes, pattern, entry=(0, 1))
    tests = {m: ci.wald_test(x, probes, method=m) for m in ("delta", "jackknife")}
    return jk, dv, tests


def test_inference_matches_lapack(monkeypatch):
    x, pattern = skewed_sample(10_000, 5, 53)
    probes = ci.ProbeVectors.draw(5, 7)
    jk, dv, tests = analysis(x, probes, pattern)
    monkeypatch.setattr(_pipeline, "_anchored_eig", lapack_anchored_eig)
    ref_jk, ref_dv, ref_tests = analysis(x, probes, pattern)
    assert jk.eig_fallbacks == 0
    assert (jk.label_flips, jk.tie_count, jk.gap_count) == (
        ref_jk.label_flips, ref_jk.tie_count, ref_jk.gap_count)
    scale = np.abs(ref_jk.variance).max()
    assert np.abs(jk.variance - ref_jk.variance).max() <= 1e-10 * scale
    t, ref_t = tests["jackknife"], ref_tests["jackknife"]
    np.testing.assert_allclose([t.statistic, t.p_value],
                               [ref_t.statistic, ref_t.p_value], rtol=1e-10)
    # Finite differences amplify last-bit changes of the refined stack.
    np.testing.assert_allclose(dv.sigma_u, ref_dv.sigma_u, rtol=1e-8)
    t, ref_t = tests["delta"], ref_tests["delta"]
    np.testing.assert_allclose([t.statistic, t.p_value],
                               [ref_t.statistic, ref_t.p_value], rtol=1e-8)
