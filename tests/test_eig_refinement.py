"""The anchor-basis pencil kernel behind delete-1 and finite-difference stacks."""

import itertools
import math

import numpy as np
import pytest

import cumident as ci
from cumident import _pipeline
from cumident._pipeline import _sorted_eig
from cumident.inference import _fd_steps
from cumident.moments import _centered_moments, _moment_covariance


@pytest.fixture(autouse=True)
def cold_record():
    """Each test starts and ends without a held moment record."""
    _pipeline._record = None
    yield
    _pipeline._record = None


def lapack_eig(ms, d, w1, w2):
    """_sorted_eig(solve(G(w2), G(w1))) of each moment vector, through the
    cumulant tensor and its contractions."""
    tensors = ci.cumulants_from_moments(ms, d)
    g1 = 6.0 * ci.contract_tensor(tensors, w1)
    g2 = 6.0 * ci.contract_tensor(tensors, w2)
    return _sorted_eig(np.linalg.solve(g2, g1))


def lapack_pencil_eig(ms, d, w1, w2):
    """:func:`_pipeline._pencil_eig` with LAPACK in place of the kernel, no
    entry counted as a fallback."""
    return lapack_rows(ms, d, w1, w2)._replace(
        eig_fallbacks=np.zeros(ms.shape[0], dtype=bool))


def lapack_rows(ms, d, w1, w2):
    """:func:`_pipeline.demix_rows` with every entry eigendecomposed by LAPACK."""
    tensors = ci.cumulants_from_moments(ms, d)
    return _pipeline.demix_contractions(6.0 * ci.contract_tensor(tensors, w1),
                                        6.0 * ci.contract_tensor(tensors, w2))


def diagonal_tensor(skew):
    d = len(skew)
    t = np.zeros((d, d, d))
    t[np.arange(d), np.arange(d), np.arange(d)] = skew
    return t


def symmetrized(t):
    """The mean of t over the orderings of its last three axes."""
    lead = tuple(range(t.ndim - 3))
    return sum(t.transpose(*lead, *(len(lead) + np.array(p)))
               for p in itertools.permutations(range(3))) / 6.0


def pencil_design(d: int, seed: int):
    """A mixing matrix A with well-conditioned columns a_r, shock skewnesses
    of both signs, and probes with a_r'w1 = lambda_r, a_r'w2 = 1, so that the
    pencil (G(w1), G(w2)) has the eigenvalues lambda, spaced by at least a
    tenth of their scale."""
    rng = np.random.default_rng([d, seed])
    mixing = np.eye(d) + 0.3 / np.sqrt(d) * rng.standard_normal((d, d))
    lam = np.linspace(2.0, 1.0, d) * rng.choice([-1.0, 1.0])
    skew = rng.choice([-1.0, 1.0], d) * rng.uniform(1.0, 2.0, d)
    w1 = np.linalg.solve(mixing.T, lam)
    w2 = np.linalg.solve(mixing.T, np.ones(d))
    return mixing, skew, w1, w2, rng


def moment_vectors(mixing, shock_cumulants):
    """Moment vectors with zero means whose third cumulants are those of
    A y, for y with the given (..., d, d, d) third cumulants."""
    d = mixing.shape[0]
    kappa = np.einsum("...pqr,ip,jq,kr->...ijk", shock_cumulants,
                      mixing, mixing, mixing)
    i, j, k = np.array(list(itertools.combinations_with_replacement(range(d), 3))).T
    cubes = kappa[..., i, j, k]
    ms = np.zeros(cubes.shape[:-1] + (ci.moment_vector_length(d),))
    ms[..., -cubes.shape[-1]:] = cubes
    return ms


def pencil_stack(d: int, spread: float, seed: int, b: int = 400):
    """A (b, D) stack of symmetric pencils around the design: the shocks'
    cumulant tensor is diagonal plus spread * max|skew| times a symmetric
    tensor of largest entry 1."""
    mixing, skew, w1, w2, rng = pencil_design(d, seed)
    noise = symmetrized(rng.standard_normal((b, d, d, d)))
    noise /= np.abs(noise).max(axis=(1, 2, 3), keepdims=True)
    shocks = diagonal_tensor(skew) + spread * np.abs(skew).max() * noise
    return moment_vectors(mixing, shocks), w1, w2


@pytest.mark.parametrize("spread", [1e-3, 1e-4])
@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_refined_eigenpairs_match_lapack(d, spread):
    for seed in range(3):
        ms, w1, w2 = pencil_stack(d, spread, seed)
        got = _pipeline.demix_rows(ms, d, w1, w2)
        want = lapack_rows(ms, d, w1, w2)
        assert not got.eig_fallbacks.any()
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        scale = np.abs(want[1]).max(axis=-1, keepdims=True)
        assert np.max(np.abs(got[1] - want[1]) / scale) <= 1e-12
        np.testing.assert_array_equal(got[2], want[2])
        np.testing.assert_array_equal(got[3], want[3])


def planted_stack():
    """A clustered d = 4 pencil stack with a complex pair at entry 3, a
    near-repeated pair at entry 7 and a non-finite entry at entry 11."""
    d = 4
    ms, w1, w2 = pencil_stack(d, 1e-4, 0, b=40)
    mixing, skew, _, _, _ = pencil_design(d, 0)
    # Shocks 0 and 1 with skewnesses of opposite sign, coupled.
    coupling = np.zeros((d, d, d))
    coupling[0, 0, 1], coupling[0, 1, 1] = 1.5, -1.5
    ms[3] = moment_vectors(
        mixing, diagonal_tensor(np.r_[1.0, -1.0, skew[2:]]) + symmetrized(coupling)
    )
    # Column 1 moved along a direction z orthogonal to w2, so a_1'w2 stays 1
    # and a_1'w1 comes within 1e-9 of the largest eigenvalue.
    lam = mixing.T @ w1
    z = w1 - (w1 @ w2) / (w2 @ w2) * w2
    near = mixing.copy()
    near[:, 1] += (lam[0] * (1.0 - 1e-9) - lam[1]) / (z @ w1) * z
    ms[7] = moment_vectors(near, diagonal_tensor(skew))
    ms[11, -1] = np.nan
    return ms, w1, w2


def test_refinement_rejects_planted_entries():
    ms, w1, w2 = planted_stack()
    anchor = lapack_eig(ms[0], 4, w1, w2)[1].real.T
    maps = _pipeline._contraction_maps(4, w1, w2)
    *_, accepted = _pipeline._pencil_refine(ms, maps, anchor)
    np.testing.assert_array_equal(np.flatnonzero(~accepted), [3, 7, 11])


def assert_entries_are_lapack(got, lapack, entries):
    """Rows, eigenvalues, flags and residues of `entries` of `got` are
    bitwise those of the LAPACK result `lapack` of those entries."""
    for a, b in zip((*got[:4], got.orient_fallbacks),
                    (*lapack[:4], lapack.orient_fallbacks)):
        assert a[entries].tobytes() == b.tobytes()


def test_fallback_entries_are_lapack_bitwise():
    ms, w1, w2 = planted_stack()
    finite = np.delete(ms, 11, axis=0)
    demixed = _pipeline._pencil_eig(finite, 4, w1, w2)
    fallbacks = demixed.eig_fallbacks
    np.testing.assert_array_equal(np.flatnonzero(fallbacks), [3, 7])
    assert_entries_are_lapack(demixed, lapack_rows(finite[fallbacks], 4, w1, w2),
                              fallbacks)
    # The complex pair and the near-repeated pair keep LAPACK's diagnostics.
    np.testing.assert_array_equal(np.flatnonzero(demixed[2]), [3, 7])
    assert demixed[3][3] > 0.0
    assert np.delete(demixed[3], 3).max() == 0.0
    # A non-finite entry, on which LAPACK raises, fails alone.
    with pytest.raises(np.linalg.LinAlgError):
        lapack_eig(ms, 4, w1, w2)
    demixed = _pipeline.demix_rows(ms, 4, w1, w2)
    np.testing.assert_array_equal(np.flatnonzero(demixed.ill_conditioned), [11])
    assert np.isnan(demixed.rows[11]).all() and np.isfinite(np.delete(demixed.rows, 11, 0)).all()


def test_bad_entries_of_a_stack_fail_alone():
    # One singular G(w2) and one non-finite G(w1) in a d = 3 stack.
    rng = np.random.default_rng(39)
    g1 = rng.standard_normal((5, 3, 3))
    g2 = rng.standard_normal((5, 3, 3))
    g2[1, 2] = 2.0 * g2[1, 0]
    g1[3, 0, 2] = np.inf
    demixed = _pipeline.demix_contractions(g1, g2)
    np.testing.assert_array_equal(np.flatnonzero(demixed.ill_conditioned), [1, 3])
    assert np.isnan(demixed.rows[[1, 3]]).all()
    assert np.isnan(demixed.eigenvalues[[1, 3]]).all()
    for i in (0, 2, 4):
        one = _pipeline.demix_contractions(g1[i], g2[i])
        assert not one.ill_conditioned
        assert demixed.rows[i].tobytes() == one.rows.tobytes()
        assert demixed.eigenvalues[i].tobytes() == one.eigenvalues.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_subnormal_and_overflowing_entries_do_not_raise(d):
    # Subnormal contractions are solved at unit scale, as the zero-pivot
    # test judges them; an entry whose G(w2)^{-1} G(w1) overflows fails alone.
    rng = np.random.default_rng(41)
    g1, g2 = (a + np.swapaxes(a, -2, -1) for a in rng.standard_normal((2, 4, d, d)))
    base = _pipeline.demix_contractions(g1, g2)
    tiny = _pipeline.demix_contractions(1e-310 * g1, 1e-310 * g2)
    assert not tiny.ill_conditioned.any()
    np.testing.assert_allclose(tiny.rows, base.rows, rtol=0.0, atol=1e-12)
    g2[1] = np.diag([1.0] * (d - 1) + [1e-300])
    g1[1] = np.diag([1.0] * (d - 1) + [1e10])
    demixed = _pipeline.demix_contractions(g1, g2)
    np.testing.assert_array_equal(np.flatnonzero(demixed.ill_conditioned), [1])
    assert np.isnan(demixed.rows[1]).all()
    for i in (0, 2, 3):
        assert demixed.rows[i].tobytes() == base.rows[i].tobytes()


def test_singular_anchor_flags_every_delete_one_entry():
    # A constant column makes the anchor's G(w2), and every resample's,
    # singular: the stack goes to LAPACK, which flags each entry.
    x = np.random.default_rng(40).standard_exponential((60, 4))
    x[:, 3] = 2.0
    probes = ci.ProbeVectors.draw(4, 40)
    z, m = _centered_moments(x)
    maps = _pipeline._contraction_maps(4, probes.w1, probes.w2)
    anchor_g2 = (maps @ _pipeline._sorted_cumulants(m, 4)).reshape(2, 4, 4)[1]
    assert _pipeline._singular(anchor_g2)
    demixed = _pipeline.demix_rows(
        _pipeline.leave_one_out_moments(z), 4, probes.w1, probes.w2)
    assert demixed.ill_conditioned.all() and demixed.eig_fallbacks.all()
    assert np.isnan(demixed.rows).all()


def test_complex_anchor_sends_the_stack_to_lapack(monkeypatch):
    ms, w1, w2 = planted_stack()
    stack = np.repeat(ms[3][None], 5, axis=0)
    stack[1:, -1] += 1e-6

    def refine(*args):
        raise AssertionError("refined from a complex anchor")

    monkeypatch.setattr(_pipeline, "_pencil_refine", refine)
    demixed = _pipeline._pencil_eig(stack, 4, w1, w2)
    assert demixed.eig_fallbacks.all()
    assert_entries_are_lapack(demixed, lapack_rows(stack, 4, w1, w2), slice(None))


def test_kernel_rows_are_oriented_as_lapack_rows():
    # The kernel orients its rows chunk by chunk, entries last; on entries
    # whose row sums are near zero it falls back to the first largest
    # entry, as the one orientation does for LAPACK rows.
    ms, w1, w2 = pencil_stack(3, 1e-4, 0, b=50)
    got = _pipeline.demix_rows(ms, 3, w1, w2)
    want = lapack_rows(ms, 3, w1, w2)
    np.testing.assert_array_equal(got.orient_fallbacks, want.orient_fallbacks)
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    rows = np.random.default_rng(3).standard_normal((4, 3, 7))
    rows[1, :, 2] = [0.5, -0.5, 0.0]
    rows[2, :, 4] = [-0.75, 0.0, 0.75]
    oriented, fallback = _pipeline._oriented(rows.copy())
    np.testing.assert_array_equal(np.argwhere(fallback), [[1, 2], [2, 4]])
    np.testing.assert_array_equal(oriented[1, :, 2], [0.5, -0.5, 0.0])
    np.testing.assert_array_equal(oriented[2, :, 4], [0.75, 0.0, -0.75])
    for k, e in itertools.product(range(4), range(7)):
        want_row, _ = ci.orient_rows(rows[k, :, e][None])
        assert oriented[k, :, e].tobytes() == want_row[0].tobytes()


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
def test_delete_one_stack_matches_lapack(d):
    probes = ci.ProbeVectors.draw(d, 7)
    for n in (500, 5_000):
        x, _ = skewed_sample(n, d, 31)
        z, m = _centered_moments(x)
        steps = _fd_steps(_moment_covariance(z, m))
        fd = np.repeat(m[None], 2 * m.size, axis=0)
        fd[0::2] += np.diag(steps)
        fd[1::2] -= np.diag(steps)
        for ms in (_pipeline.leave_one_out_moments(z), fd):
            got = _pipeline.demix_rows(ms, d, probes.w1, probes.w2)
            want = lapack_rows(ms, d, probes.w1, probes.w2)
            fallbacks = got.eig_fallbacks
            assert n < 5_000 or not fallbacks.any()
            assert got[0][fallbacks].tobytes() == want[0][fallbacks].tobytes()
            np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got[1], want[1], rtol=1e-12)
            np.testing.assert_array_equal(got[2], want[2])
            np.testing.assert_array_equal(got[3], want[3])
            np.testing.assert_array_equal(got.orient_fallbacks, want.orient_fallbacks)


def test_jackknife_counts_fallbacks(monkeypatch):
    x, pattern = skewed_sample(5_000, 3, 41)
    probes = ci.ProbeVectors.draw(3, 7)
    assert ci.demixing_jackknife(x, probes, pattern).eig_fallbacks == 0
    with monkeypatch.context() as patched:
        patched.setattr(_pipeline, "_pencil_eig", lapack_pencil_eig)
        _pipeline._record = None
        lapack = ci.demixing_jackknife(x, probes, pattern, entry=None)
    assert lapack.eig_fallbacks == 0
    # With no tolerance on the residual, or on the last Newton correction,
    # every resample goes to LAPACK, and the result is LAPACK's, bit for bit.
    for tolerance in ("_RESIDUAL_ULPS", "_LAST_STEP_TOL"):
        with monkeypatch.context() as patched:
            patched.setattr(_pipeline, tolerance, 0.0)
            _pipeline._record = None
            rejected = ci.demixing_jackknife(x, probes, pattern, entry=None)
        assert rejected.eig_fallbacks == x.shape[0]
        assert rejected.estimates.tobytes() == lapack.estimates.tobytes()
        assert rejected.variance.tobytes() == lapack.variance.tobytes()


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
    # kernel hands back.
    assert sum(seen) == 2 + jk.eig_fallbacks <= 10


def test_jackknife_solves_one_matrix_at_a_time(monkeypatch):
    # Work-count guard: the kernel forms each resample's pencil from its
    # sorted cumulants, so no solve, inverse or cumulant tensor is built for
    # the delete-1 stack.
    x, pattern = skewed_sample(2_000, 5, 47)
    probes = ci.ProbeVectors.draw(5, 7)
    matrices, stacks = [], []

    def counted(real):
        def call(a, *args, **kwargs):
            matrices.append(math.prod(np.shape(a)[:-2]))
            return real(a, *args, **kwargs)
        return call

    def cumulants(values, d):
        stacks.append(math.prod(np.shape(values)[:-1]))
        return ci.cumulants_from_moments(values, d)

    monkeypatch.setattr(np.linalg, "solve", counted(np.linalg.solve))
    monkeypatch.setattr(np.linalg, "inv", counted(np.linalg.inv))
    monkeypatch.setattr(_pipeline, "cumulants_from_moments", cumulants)
    jk = ci.demixing_jackknife(x, probes, pattern)
    assert jk.eig_fallbacks == 0
    assert matrices and max(matrices) == 1
    assert stacks and max(stacks) == 1


def analysis(x, probes, pattern):
    _pipeline._record = None
    jk = ci.demixing_jackknife(x, probes, pattern, entry=None)
    dv = ci.delta_variance_labeled(x, probes, pattern, entry=(0, 1))
    tests = {m: ci.wald_test(x, probes, method=m) for m in ("delta", "jackknife")}
    return jk, dv, tests


def test_inference_matches_lapack(monkeypatch):
    x, pattern = skewed_sample(10_000, 5, 53)
    probes = ci.ProbeVectors.draw(5, 7)
    jk, dv, tests = analysis(x, probes, pattern)
    monkeypatch.setattr(_pipeline, "_pencil_eig", lapack_pencil_eig)
    ref_jk, ref_dv, ref_tests = analysis(x, probes, pattern)
    assert jk.eig_fallbacks == 0
    assert (jk.label_flips, jk.tie_count, jk.gap_count) == (
        ref_jk.label_flips, ref_jk.tie_count, ref_jk.gap_count)
    scale = np.abs(ref_jk.variance).max()
    assert np.abs(jk.variance - ref_jk.variance).max() <= 1e-12 * scale
    t, ref_t = tests["jackknife"], ref_tests["jackknife"]
    np.testing.assert_allclose([t.statistic, t.p_value],
                               [ref_t.statistic, ref_t.p_value], rtol=1e-10)
    # Finite differences amplify last-bit changes of the refined stack.
    np.testing.assert_allclose(dv.sigma_u, ref_dv.sigma_u, rtol=1e-8)
    t, ref_t = tests["delta"], ref_tests["delta"]
    np.testing.assert_allclose([t.statistic, t.p_value],
                               [ref_t.statistic, ref_t.p_value], rtol=1e-8)
