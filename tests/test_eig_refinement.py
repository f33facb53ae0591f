"""The anchor-basis pencil kernel behind delete-1 and finite-difference stacks."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import cumident as ci
from cumident import _pipeline, overid
from cumident._pipeline import _sorted_eig
from cumident.inference import _fd_steps
from cumident.moments import _centered_moments, _moment_covariance

from _brute_force import leave_one_out_moments
from _designs import stacked_wald_samples


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


def lapack_stack_rows(ms, d, w1, w2, anchor):
    """:func:`_pipeline._stack_rows` with LAPACK in place of the kernel, no
    entry counted as a fallback.  A delete-1 stack is built whole."""
    ms = ms[:]
    return lapack_rows(ms, d, w1, w2)._replace(
        eig_fallbacks=np.zeros(ms.shape[0], dtype=bool))


def lapack_rows(ms, d, w1, w2):
    """:func:`_pipeline.demix_rows` with every entry eigendecomposed by LAPACK."""
    tensors = ci.cumulants_from_moments(ms, d)
    return _pipeline.demix_contractions(6.0 * ci.contract_tensor(tensors, w1),
                                        6.0 * ci.contract_tensor(tensors, w2))


def estimate_rows(m, d, w1, w2):
    """The rows of the sample whose moment vector is `m`, as
    estimate_demixing gives them: the anchor of its resample stacks."""
    return _pipeline.demix_rows(m, d, w1, w2).rows


def resample_anchor(m, d, w1, w2):
    """The anchor inference._resampled passes for the sample `m`: its rows,
    or None for rows with an eigen-gap flag.  (A sample whose estimate
    fails is not resampled.)"""
    est = _pipeline.demix_rows(m, d, w1, w2)
    assert not est.ill_conditioned
    return None if est.gap_flags else est.rows


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
    """A (b, D) stack of symmetric pencils around the design, the probes, and
    the design's rows, from which the kernel refines the stack: the shocks'
    cumulant tensor is diagonal plus spread * max|skew| times a symmetric
    tensor of largest entry 1."""
    mixing, skew, w1, w2, rng = pencil_design(d, seed)
    noise = symmetrized(rng.standard_normal((b, d, d, d)))
    noise /= np.abs(noise).max(axis=(1, 2, 3), keepdims=True)
    shocks = diagonal_tensor(skew) + spread * np.abs(skew).max() * noise
    centre = moment_vectors(mixing, diagonal_tensor(skew))
    return moment_vectors(mixing, shocks), w1, w2, estimate_rows(centre, d, w1, w2)


@pytest.mark.parametrize("spread", [1e-3, 1e-4])
@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_refined_eigenpairs_match_lapack(d, spread):
    for seed in range(3):
        ms, w1, w2, anchor = pencil_stack(d, spread, seed)
        got = _pipeline.demix_rows(ms, d, w1, w2, anchor=anchor)
        want = lapack_rows(ms, d, w1, w2)
        assert not got.eig_fallbacks.any()
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        scale = np.abs(want[1]).max(axis=-1, keepdims=True)
        assert np.max(np.abs(got[1] - want[1]) / scale) <= 1e-12
        np.testing.assert_array_equal(got[2], want[2])
        np.testing.assert_array_equal(got[3], want[3])


def planted_stack():
    """A clustered d = 4 pencil stack with a complex pair at entry 3, a
    near-repeated pair at entry 7 and a non-finite entry at entry 11, with
    its probes and the design's rows."""
    d = 4
    ms, w1, w2, anchor = pencil_stack(d, 1e-4, 0, b=40)
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
    return ms, w1, w2, anchor


def pencil_parts(monkeypatch):
    """The (anchors, bases) arguments of each _pencil_part call, as a list
    that fills while `monkeypatch` is active."""
    seen, real = [], _pipeline._pencil_part

    def part(ms, s, d, anchors, bases):
        seen.append((anchors, bases))
        return real(ms, s, d, anchors, bases)

    monkeypatch.setattr(_pipeline, "_pencil_part", part)
    return seen


def stack_calls(monkeypatch):
    """The (moment stack, d, w1, w2, result) of each _stack_rows call, the
    stack built whole, as a list that fills while `monkeypatch` is active."""
    seen, real = [], _pipeline._stack_rows

    def stack_rows(ms, d, w1, w2, anchors):
        out = real(ms, d, w1, w2, anchors)
        seen.append((ms[:], d, w1, w2, out))
        return out

    monkeypatch.setattr(_pipeline, "_stack_rows", stack_rows)
    return seen


def assert_run_is_lapack(call, run=slice(None)):
    """Every entry `run` of a :func:`stack_calls` call is a fallback, and
    bitwise LAPACK's on those entries."""
    ms, d, w1, w2, out = call
    assert out.eig_fallbacks[run].all()
    assert_entries_are_lapack(out, lapack_rows(ms[run], d, w1, w2), run)


def test_refinement_rejects_planted_entries(monkeypatch):
    ms, w1, w2, anchor = planted_stack()
    seen = pencil_parts(monkeypatch)
    _pipeline.demix_rows(ms, 4, w1, w2, anchor=anchor)
    (got, bases), = seen
    assert got.shape == (1, 4, 4) and got[0].tobytes() == anchor.tobytes()
    part = _pipeline._pencil_part(ms, slice(None), 4, got, bases)
    np.testing.assert_array_equal(np.flatnonzero(part.eig_fallbacks), [3, 7, 11])


def assert_entries_are_lapack(got, lapack, entries):
    """Rows, eigenvalues, flags and residues of `entries` of `got` are
    bitwise those of the LAPACK result `lapack` of those entries."""
    for a, b in zip((*got[:4], got.orient_fallbacks),
                    (*lapack[:4], lapack.orient_fallbacks)):
        assert a[entries].tobytes() == b.tobytes()


def test_fallback_entries_are_lapack_bitwise():
    ms, w1, w2, anchor = planted_stack()
    finite = np.delete(ms, 11, axis=0)
    demixed = _pipeline.demix_rows(finite, 4, w1, w2, anchor=anchor)
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
    demixed = _pipeline.demix_rows(ms, 4, w1, w2, anchor=anchor)
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
    # A constant column makes the estimate's G(w2), and every resample's,
    # singular: the sample is never resampled, and its stack, demixed
    # without an anchor, goes to LAPACK, which flags each entry.
    x = np.random.default_rng(40).standard_exponential((60, 4))
    x[:, 3] = 2.0
    probes = ci.ProbeVectors.draw(4, 40)
    z, m = _centered_moments(x)
    maps = _pipeline._contraction_maps(4, probes.w1, probes.w2)
    anchor_g2 = (maps @ _pipeline._sorted_cumulants(m, 4)).reshape(2, 4, 4)[1]
    assert _pipeline._singular(anchor_g2)
    demixed = _pipeline.demix_rows(
        leave_one_out_moments(z), 4, probes.w1, probes.w2)
    assert demixed.ill_conditioned.all() and demixed.eig_fallbacks.all()
    assert np.isnan(demixed.rows).all()


def test_complex_anchor_sends_the_stack_to_lapack():
    # The rows of a sample with a complex pair carry a gap flag, so the
    # stacks that resample it get NaN anchor rows: the kernel rejects every
    # entry, and each is LAPACK's.
    ms, w1, w2, _ = planted_stack()
    assert resample_anchor(ms[3], 4, w1, w2) is None
    stack = np.repeat(ms[3][None], 5, axis=0)
    stack[1:, -1] += 1e-6
    demixed = _pipeline.demix_rows(stack, 4, w1, w2, anchor=None)
    assert demixed.eig_fallbacks.all()
    assert_entries_are_lapack(demixed, lapack_rows(stack, 4, w1, w2), slice(None))


def test_kernel_rows_are_oriented_as_lapack_rows():
    # The kernel orients its rows chunk by chunk, entries last; on entries
    # whose row sums are near zero it falls back to the first largest
    # entry, as the one orientation does for LAPACK rows.
    ms, w1, w2, anchor = pencil_stack(3, 1e-4, 0, b=50)
    got = _pipeline.demix_rows(ms, 3, w1, w2, anchor=anchor)
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
    2: np.array([[1.0, 0.4], [-0.5, 1.0]]),
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


@pytest.mark.parametrize("d", [2, 3, 5])
def test_delete_one_stack_matches_lapack(d):
    probes = ci.ProbeVectors.draw(d, 7)
    for n in (500, 5_000):
        x, _ = skewed_sample(n, d, 31)
        z, m = _centered_moments(x)
        steps = _fd_steps(_moment_covariance(z, m))
        fd = np.repeat(m[None], 2 * m.size, axis=0)
        fd[0::2] += np.diag(steps)
        fd[1::2] -= np.diag(steps)
        anchor = resample_anchor(m, d, probes.w1, probes.w2)
        for ms in (leave_one_out_moments(z), fd):
            got = _pipeline.demix_rows(ms, d, probes.w1, probes.w2, anchor=anchor)
            want = lapack_rows(ms, d, probes.w1, probes.w2)
            fallbacks = got.eig_fallbacks
            assert n < 5_000 or not fallbacks.any()
            assert got[0][fallbacks].tobytes() == want[0][fallbacks].tobytes()
            np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got[1], want[1], rtol=1e-12)
            np.testing.assert_array_equal(got[2], want[2])
            np.testing.assert_array_equal(got[3], want[3])
            np.testing.assert_array_equal(got.orient_fallbacks, want.orient_fallbacks)


def delete1_record(d: int, n: int):
    """The order-3 moment record of a skewed sample (the composite design at
    d = 2) and its probes."""
    if d == 2:
        x = ci.gen_composite(ci.CompositeDgpConfig(n=n, k=0.5, seed=3), 0).x
    else:
        x, _ = skewed_sample(n, d, 61)
    return _pipeline.MomentRecord.of(x), ci.ProbeVectors.draw(d, 7)


def test_pencil_chunks_keep_the_bits_of_the_whole_stack(monkeypatch):
    # The pencil product's bits depend on the chunk width: each chunk of a
    # stack cut at the kernel's own boundaries gives the rows of the whole.
    record, probes = delete1_record(5, 3_000)
    ms = leave_one_out_moments(record.z)
    anchor = resample_anchor(record.m_hat, 5, probes.w1, probes.w2)
    seen = pencil_parts(monkeypatch)
    whole = _pipeline.demix_rows(ms, 5, probes.w1, probes.w2, anchor=anchor)
    assert not whole.eig_fallbacks.any()
    chunks = _pipeline._pencil_chunks(len(ms), 5)
    assert len(chunks) == len(seen) == 3
    parts = [_pipeline._pencil_part(ms, s, 5, *seen[0]) for s in chunks]
    for got, want in zip(zip(*parts), whole[:-1]):
        assert np.concatenate(got).tobytes() == want.tobytes()


def tiled_planted_stack(copies: int = 60):
    """The finite entries of :func:`planted_stack`, tiled `copies` times:
    39 * copies entries, of which 3 and 7 (mod 39) are rejected."""
    ms, w1, w2, anchor = planted_stack()
    return np.tile(np.delete(ms, 11, axis=0), (copies, 1)), w1, w2, anchor


def test_chunked_fallbacks_are_lapack_on_those_entries_alone(monkeypatch):
    # Each chunk hands the entries its kernel rejects to LAPACK by index;
    # the rest keep the bits of their own chunk's pencil part.
    ms, w1, w2, anchor = tiled_planted_stack()
    chunks = _pipeline._pencil_chunks(len(ms), 4)
    # The second chunk starts mid-tile, so its fallbacks sit at other
    # offsets within the chunk than within the stack.
    assert len(chunks) == 2 and chunks[1].start % 39
    seen = pencil_parts(monkeypatch)
    got = _pipeline.demix_rows(ms, 4, w1, w2, anchor=anchor)
    fallbacks = got.eig_fallbacks
    np.testing.assert_array_equal(np.flatnonzero(fallbacks) % 39,
                                  np.tile([3, 7], len(ms) // 39))
    assert_entries_are_lapack(got, lapack_rows(ms[fallbacks], 4, w1, w2), fallbacks)
    for s in chunks:
        part = _pipeline._pencil_part(ms, s, 4, *seen[0])
        accepted = ~part.eig_fallbacks
        np.testing.assert_array_equal(accepted, ~fallbacks[s])
        for field, want in zip(got[:-1], part[:-1]):
            assert field[s][accepted].tobytes() == want[accepted].tobytes()


def stack_in_chunks(case: str):
    """(stack, d, w1, w2, anchor) of a stack that spans two or more chunks:
    the tiled d = 4 planted stack, through the kernel with LAPACK fallbacks
    or, from a degenerate probe pair whose estimate has a gap flag, through
    LAPACK alone; or a d = 2 delete-1 stack of more than 8 192 entries,
    through the kernel."""
    if case == "d2":
        record, probes = delete1_record(2, 9_000)
        return (leave_one_out_moments(record.z), 2, probes.w1, probes.w2,
                resample_anchor(record.m_hat, 2, probes.w1, probes.w2))
    ms, w1, w2, anchor = tiled_planted_stack()
    if case == "degenerate anchor":
        w1 = w2 = np.ones(4)
        anchor = resample_anchor(ms[0], 4, w1, w2)
        assert anchor is None
    return ms, 4, w1, w2, anchor


@pytest.mark.parametrize("case", ["kernel", "degenerate anchor", "d2"])
def test_chunked_stacks_keep_the_layout_of_one_chunk(case, monkeypatch):
    # The jackknife's mean over a stack sums in the order of its layout, so
    # every field is laid out as it is when the stack is one chunk.
    ms, d, w1, w2, anchor = stack_in_chunks(case)
    assert len(_pipeline._pencil_chunks(len(ms), d)) >= 2
    several = _pipeline.demix_rows(ms, d, w1, w2, anchor=anchor)
    monkeypatch.setattr(_pipeline, "_PENCIL_CHUNK_ELEMENTS", len(ms) * d * d)
    assert len(_pipeline._pencil_chunks(len(ms), d)) == 1
    one = _pipeline.demix_rows(ms, d, w1, w2, anchor=anchor)
    for field in several._fields[:-1]:
        got, want = getattr(several, field), getattr(one, field)
        assert got.strides == want.strides and got.dtype == want.dtype, field
    assert several.cond_g2 is one.cond_g2 is None
    assert several.eig_fallbacks.all() == (anchor is None)
    if anchor is not None:
        # The kernel's fields are C-ordered, LAPACK fallbacks and all.
        assert all(f.flags.c_contiguous for f in several[:-1])
    else:
        # LAPACK alone: the bits of the whole stack in one call.
        want = lapack_rows(ms, d, w1, w2)
        for field in ("rows", "eigenvalues", "gap_flags", "ill_conditioned"):
            assert getattr(several, field).tobytes() == getattr(want, field).tobytes()


def offdiag_of_the_whole_stack(rows, ms, d):
    """offdiag_from_rows in one pass over a built (b, D) stack."""
    demixed = rows @ ci.moments.covariance_from_moments(ms, d) @ np.swapaxes(rows, -2, -1)
    iu = np.triu_indices(d, 1)
    return demixed[..., iu[0], iu[1]]


@pytest.mark.parametrize("d, n", [(2, 9_000), (3, 5_000), (5, 3_000)])
@pytest.mark.parametrize("case", ["kernel", "fallbacks", "degenerate anchor"])
def test_streamed_delete1_rows_match_the_built_stack(d, n, case, monkeypatch):
    # The record demixes its delete-1 stack chunk by chunk without building
    # it; the rows, flags and Wald off-diagonals are bitwise those of the
    # built (n, D) stack.  Each stack spans two or more chunks, and so do
    # the LAPACK fallbacks of a tolerance far below the rounding level.
    record, probes = delete1_record(d, n)
    if case == "fallbacks":
        monkeypatch.setattr(_pipeline, "_RESIDUAL_ULPS", 0.05)
    elif case == "degenerate anchor":
        probes = ci.ProbeVectors(w1=np.ones(d), w2=np.ones(d))
    assert len(_pipeline._pencil_chunks(n, d)) >= 2
    anchor = resample_anchor(record.m_hat, d, probes.w1, probes.w2)
    assert (anchor is None) == (case == "degenerate anchor")
    got = record.leave_one_out(probes.w1, probes.w2, anchor)
    ms = leave_one_out_moments(record.z)
    want = _pipeline.demix_rows(ms, d, probes.w1, probes.w2, anchor=anchor)
    for field in ("rows", "gap_flags", "eig_fallbacks", "ill_conditioned"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    if case != "kernel":
        assert got.eig_fallbacks.any()
    offdiag = _pipeline.offdiag_from_rows(got.rows, record.delete1, d)
    assert offdiag.tobytes() == offdiag_of_the_whole_stack(got.rows, ms, d).tobytes()


def test_delete1_rows_peak_below_one_moment_stack():
    # Memory bound: no (n, D) delete-1 moment stack is built.  At d = 8, n =
    # 20 000 that stack is 26 MB; building it peaked at 41.5 MB.
    d, n = 8, 20_000
    rng = np.random.default_rng(67)
    lam = np.eye(d) + 0.3 * rng.choice([-1.0, 1.0], (d, d)) * (1 - np.eye(d))
    x = rng.standard_exponential((n, d)) @ np.linalg.inv(lam).T
    record, probes = _pipeline.MomentRecord.of(x), ci.ProbeVectors.draw(d, 7)
    anchor = resample_anchor(record.m_hat, d, probes.w1, probes.w2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        record.leave_one_out(probes.w1, probes.w2, anchor)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < record.z.nbytes


def test_jackknife_counts_fallbacks(monkeypatch):
    x, pattern = skewed_sample(5_000, 3, 41)
    probes = ci.ProbeVectors.draw(3, 7)
    assert ci.demixing_jackknife(x, probes, pattern).eig_fallbacks == 0
    with monkeypatch.context() as patched:
        patched.setattr(_pipeline, "_stack_rows", lapack_stack_rows)
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


def test_degenerate_anchor_falls_back_everywhere(monkeypatch):
    # With w1 = w2 every eigenvalue of the estimate is 1: it has a gap flag,
    # so its resample stacks get NaN anchor rows, and every entry of the
    # delete-1 and finite-difference stacks is LAPACK's.
    seen = stack_calls(monkeypatch)
    for d in (2, 3, 5):
        x, _ = skewed_sample(400, d, 43)
        probes = ci.ProbeVectors(w1=np.ones(d), w2=np.ones(d))
        _pipeline._record = None
        with pytest.warns(ci.EigenGapWarning):
            assert ci.estimate_demixing(x, probes).gap_flag
        jk = ci.demixing_jackknife(x, probes)
        assert jk.eig_fallbacks == jk.gap_count == x.shape[0]
        ci.delta_variance(x, probes)
    assert [len(call[0]) for call in seen] == [
        n for d in (2, 3, 5) for n in (400, 2 * ci.moment_vector_length(d))]
    for call in seen:
        assert_run_is_lapack(call)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_resample_stacks_are_refined_from_the_estimate(d, monkeypatch):
    # The delete-1 stack and both finite-difference stacks start from the
    # sample's own estimate, bit for bit, and no other anchor is solved.
    x, pattern = skewed_sample(2_000, d, 59)
    probes = ci.ProbeVectors.draw(d, 7)
    rows = ci.estimate_demixing(x, probes).lambda_tilde
    seen = []
    real = _pipeline._stack_rows

    def stack_rows(ms, d, w1, w2, anchor):
        seen.append((len(ms), anchor))
        return real(ms, d, w1, w2, anchor)

    monkeypatch.setattr(_pipeline, "_stack_rows", stack_rows)
    jk = ci.demixing_jackknife(x, probes, pattern)
    ci.delta_variance_labeled(x, probes, pattern)
    ci.wald_test(x, probes, method="delta")
    ci.wald_test(x, probes, method="jackknife")
    fd = 2 * ci.moment_vector_length(d)
    assert [b for b, _ in seen] == [len(x), fd, fd]
    for _, anchor in seen:
        assert anchor.shape == (1, d, d) and anchor.tobytes() == rows.tobytes()
    assert jk.eig_fallbacks < len(x) // 10


@pytest.mark.parametrize("method", ["delta", "jackknife"])
@pytest.mark.parametrize("d", [3, 5])
def test_several_samples_in_one_wald_stack_match_their_own_tests(d, method, monkeypatch):
    # One stacked Wald test refines each sample's points from its own
    # estimate, so each sample's T, p, r and Omega are bitwise those of its
    # own wald_test.  Sample 2's estimate has a gap flag: each of its points
    # is LAPACK's.
    probes = ci.ProbeVectors.draw(d, 7)
    samples = stacked_wald_samples(d, probes.w1, probes.w2)
    records = [_pipeline.MomentRecord.of(x) for x in samples]
    seen = stack_calls(monkeypatch)
    stack = overid._wald_stack(records, probes, method)
    np.testing.assert_array_equal(stack.anchors.gap_flags, [0, 0, 1, 0])
    if method == "jackknife":
        assert [len(call[0]) for call in seen] == [len(x) for x in samples]
        assert_run_is_lapack(seen[2])
    else:
        fd = 2 * ci.moment_vector_length(d)
        (call,) = seen
        assert len(call[0]) == 4 * fd
        assert_run_is_lapack(call, slice(2 * fd, 3 * fd))
    for i, x in enumerate(samples):
        _pipeline._record = None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ci.EigenGapWarning)
            own = ci.wald_test(x, probes, method)
        for got, want in ((stack.statistic[i], own.statistic),
                          (stack.p_value[i], own.p_value),
                          (stack.r_hat[i], own.r_hat), (stack.omega[i], own.omega_hat)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_jackknife_runs_lapack_on_a_bounded_number_of_matrices(monkeypatch):
    # Work-count guard: the delete-1 stack is refined from the full-sample
    # estimate, so LAPACK sees O(1) matrices per jackknife, not one per
    # resample.
    x, pattern = skewed_sample(2_000, 3, 47)
    probes = ci.ProbeVectors.draw(3, 7)
    seen = []
    real = np.linalg.eig

    def eig(a):
        seen.append(int(np.prod(np.shape(a)[:-2])))
        return real(a)

    monkeypatch.setattr(np.linalg, "eig", eig)
    jk = ci.demixing_jackknife(x, probes, pattern)
    # The full sample, which anchors the stack, and the few high-leverage
    # resamples the kernel hands back.
    assert sum(seen) == 1 + jk.eig_fallbacks <= 10


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
    monkeypatch.setattr(_pipeline, "_stack_rows", lapack_stack_rows)
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
