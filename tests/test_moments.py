import itertools

import numpy as np
import pytest

from cumident import (
    contract_hessian,
    cumulants_from_moments,
    monomial_matrix,
    monomial_tuples,
    moment_vector_length,
    third_cumulants,
    validate_sample,
)
from cumident import _pipeline
from cumident.moments import (_MOMENT_CHUNK_ELEMENTS, _centered_moments, _monomial_matrix,
                              column_means)
from _brute_force import (centered_monomials, fourth_order_hessian, leave_one_out_moments,
                          projected_cumulant, whole_moments)
from _designs import population_contraction


def raw_moments(x):
    """Sample means of the degree 1-3 monomials, in the package-wide order."""
    return column_means(monomial_matrix(x))


def test_raw_moments_single_row_matches_documented_order():
    m = raw_moments([[1.0, 2.0]])
    np.testing.assert_allclose(m, [1, 2, 1, 2, 4, 1, 2, 4, 8])


def test_raw_moments_zero_sample_is_zero():
    m = raw_moments(np.zeros((4, 3)))
    assert np.all(m == 0.0)


def test_raw_moments_scalar_sample():
    m = raw_moments([[0.0], [0.0], [3.0]])
    np.testing.assert_allclose(m, [1.0, 3.0, 9.0])


def test_moment_vector_length():
    for d in range(1, 6):
        assert moment_vector_length(d) == len(monomial_tuples(d))


def test_validate_sample_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_sample([[1.0, np.nan]])
    with pytest.raises(ValueError):
        validate_sample(np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        validate_sample(np.ones((1, 2)), min_rows=2)


def test_third_cumulant_scalar_value():
    t = third_cumulants([[0.0], [0.0], [3.0]])
    np.testing.assert_allclose(t, [[[2.0]]])


def test_third_cumulant_symmetric_sample_vanishes():
    a = np.array([[1.0, -2.0], [-1.0, 2.0]])
    np.testing.assert_allclose(third_cumulants(a), 0.0, atol=1e-14)


def test_third_cumulant_needs_two_rows():
    with pytest.raises(ValueError):
        third_cumulants([[1.0, 2.0]])


def test_gamma_diagonal_skewness():
    x = np.random.default_rng(0).standard_exponential((200_000, 2))
    t = third_cumulants(x)
    np.testing.assert_allclose(np.diagonal(t, axis1=1, axis2=2).diagonal(),
                               [2.0, 2.0], atol=0.15)


def test_tensor_symmetry_exact():
    x = np.random.default_rng(1).standard_normal((60, 3)) ** 3
    t = third_cumulants(x)
    for perm in itertools.permutations(range(3)):
        np.testing.assert_array_equal(t, np.transpose(t, perm))


def test_translation_invariance():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((300, 3))
    shift = np.array([5.0, -3.0, 0.25])
    np.testing.assert_allclose(
        third_cumulants(x + shift), third_cumulants(x), atol=1e-11
    )


def test_cumulant_map_matches_tensor():
    rng = np.random.default_rng(3)
    for d in (1, 2, 4, 5):
        x = rng.standard_exponential((180, d))
        got = cumulants_from_moments(raw_moments(x), d)
        want = third_cumulants(x)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_sorted_cumulants_keep_the_bits_of_the_plain_expression():
    # The buffered evaluation runs the operations of this expression in its
    # order, so every entry is byte-equal, for any stack layout.
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 5):
        ijk = np.array(list(itertools.combinations_with_replacement(range(d), 3))).T
        pair = {t: k for k, t in enumerate(monomial_tuples(d))}
        pairs = [[pair[(q, r)] for q, r in zip(*ijk[[a, b]])] for a, b in ((1, 2), (0, 2), (0, 1))]
        for shape in [(), (7,), (3, 4)]:
            v = rng.standard_normal(shape + (moment_vector_length(d),))
            v *= 10.0 ** rng.uniform(-6, 6, v.shape)
            mi, mj, mk = v[..., ijk[0]], v[..., ijk[1]], v[..., ijk[2]]
            plain = (v[..., -ijk.shape[1]:] - mi * v[..., pairs[0]]
                     - mj * v[..., pairs[1]] - mk * v[..., pairs[2]]
                     + 2.0 * mi * mj * mk)
            mirror = np.empty((d, d, d), dtype=int)
            for t, (i, j, k) in enumerate(ijk.T):
                for p in itertools.permutations((i, j, k)):
                    mirror[p] = t
            for layout in (v, np.asfortranarray(v)):
                assert cumulants_from_moments(layout, d).tobytes() == plain[..., mirror].tobytes()


def test_cumulant_map_centered_passthrough():
    # degree-1 block zero: the degree-3 block must pass through unchanged
    m = raw_moments([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(m[:2], 0.0)
    tensor = cumulants_from_moments(m, 2)
    slot = monomial_tuples(2).index
    assert tensor[0, 0, 0] == m[slot((0, 0, 0))]
    assert tensor[0, 0, 1] == m[slot((0, 0, 1))]


def test_cumulant_map_point_mass_is_zero():
    m = raw_moments(np.tile([[2.0, -1.0, 0.5]], (7, 1)))
    np.testing.assert_allclose(cumulants_from_moments(m, 3), 0.0, atol=1e-14)


def test_contract_hessian_zero_w():
    x = np.random.default_rng(4).standard_normal((40, 3))
    g = contract_hessian(x, np.zeros(3), order=3)
    np.testing.assert_array_equal(g, np.zeros((3, 3)))


def test_contract_hessian_scalar_case():
    g = contract_hessian([[0.0], [0.0], [3.0]], [1.0], order=3)
    np.testing.assert_allclose(g, [[12.0]])


def test_contract_hessian_linearity_in_w():
    x = np.random.default_rng(5).standard_exponential((100, 3))
    w1 = np.array([0.3, -1.0, 0.7])
    w2 = np.array([1.0, 0.5, -0.2])
    lhs = contract_hessian(x, 2.0 * w1 - 0.5 * w2)
    rhs = 2.0 * contract_hessian(x, w1) - 0.5 * contract_hessian(x, w2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10 * np.abs(rhs).max())


def test_contract_hessian_validates_input():
    x = np.random.default_rng(6).standard_normal((30, 2))
    with pytest.raises(ValueError):
        contract_hessian(x, [1.0], order=3)
    with pytest.raises(ValueError):
        contract_hessian(x, [1.0, np.inf], order=3)
    with pytest.raises(ValueError):
        contract_hessian(x, [1.0, 1.0], order=5)


def test_contract_hessian_population_congruence():
    # On X = A S with independent skewed S, G(w) converges to A D_w A'.
    rng = np.random.default_rng(7)
    a = np.array([[1.0, 0.5, 0.0], [-0.3, 1.0, 0.4], [0.2, -0.1, 1.0]])
    kappa3 = np.array([2.0, 2.0, 2.0])
    s = rng.standard_exponential((100_000, 3)) - 1.0
    x = s @ a.T
    w = np.array([0.9, 0.2, -0.4])
    got = contract_hessian(x, w)
    want = population_contraction(a, kappa3, w)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel < 0.05


def _numeric_hessian(x, w, order, step=1e-4):
    d = w.size
    h = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            wpp = w.copy(); wpp[i] += step; wpp[j] += step
            wpm = w.copy(); wpm[i] += step; wpm[j] -= step
            wmp = w.copy(); wmp[i] -= step; wmp[j] += step
            wmm = w.copy(); wmm[i] -= step; wmm[j] -= step
            h[i, j] = (
                projected_cumulant(x, wpp, order)
                - projected_cumulant(x, wpm, order)
                - projected_cumulant(x, wmp, order)
                + projected_cumulant(x, wmm, order)
            ) / (4.0 * step**2)
    return h


@pytest.mark.parametrize("order", [3, 4])
def test_hessian_closed_form_matches_finite_differences(order):
    # Gate for the assembled Hessians: they must be the second derivative of
    # the projected sample cumulant, verified numerically.
    rng = np.random.default_rng(8)
    x = rng.standard_exponential((400, 3))
    w = np.array([0.7, -0.3, 1.1])
    closed = contract_hessian(x, w, order=order)
    numeric = _numeric_hessian(x, w, order)
    np.testing.assert_allclose(closed, numeric, rtol=2e-5, atol=1e-7)


def test_fourth_order_population_congruence():
    # X = A S with known excess kurtosis: G4(w) ~ A diag(12 k4 (A'w)^2) A'.
    rng = np.random.default_rng(9)
    a = np.array([[1.0, 0.6], [-0.4, 1.0]])
    s = rng.standard_exponential((400_000, 2)) - 1.0  # excess kurtosis 6
    x = s @ a.T
    w = np.array([0.8, 0.3])
    got = contract_hessian(x, w, order=4)
    want = a @ np.diag(12.0 * 6.0 * (a.T @ w) ** 2) @ a.T
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel < 0.1



def _kurtotic_sample(d, seed, n=3_000):
    rng = np.random.default_rng(seed)
    mix = np.eye(d) + 0.4 * rng.standard_normal((d, d))
    return (rng.standard_exponential((n, d)) - 1.0) @ mix.T


@pytest.mark.parametrize("d", [2, 3, 5])
def test_fourth_order_hessian_matches_the_closed_form(d):
    x = _kurtotic_sample(d, 30 + d)
    for w in (np.ones(d), np.random.default_rng(d).uniform(size=d)):
        got = contract_hessian(x, w, order=4)
        want = fourth_order_hessian(x, w)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        assert np.array_equal(got, got.T)


def test_fourth_cumulant_map_is_exact_for_any_origin():
    # Raw moments about an origin some ten standard deviations off the mean
    # give the tensor of the centered moments.  Cancellation costs about
    # 4 log10(10) digits whatever the map, which leaves room for 1e-9; a map
    # that assumed centered moments would be off by O(1).
    for d in (2, 3):
        x = 100.0 * _kurtotic_sample(d, 40 + d, n=500)
        centered = cumulants_from_moments(_centered_moments(x, 4)[1], d)
        raw = cumulants_from_moments(column_means(_monomial_matrix(x + 1e3, 4)), d)
        assert raw.shape == (d,) * 4
        np.testing.assert_allclose(raw, centered, rtol=1e-9,
                                   atol=1e-9 * np.abs(centered).max())


def test_cumulant_map_reads_the_order_from_the_vector_length():
    with pytest.raises(ValueError, match="no cumulant order has 10 moments"):
        cumulants_from_moments(np.zeros(10), 2)


def _skewed(n: int, d: int, seed: int, k: int = 1) -> np.ndarray:
    """k stacked skewed samples (one unless k > 1), off the origin."""
    rng = np.random.default_rng(seed)
    mix = np.eye(d) + 0.4 * rng.standard_normal((d, d))
    x = rng.standard_exponential((k, n, d)) @ mix.T + 3.0
    return x[0] if k == 1 else x


def _chunk_rows(d: int) -> int:
    """Rows of one Sigma_m chunk: 7 281 at d = 2."""
    return _MOMENT_CHUNK_ELEMENTS // moment_vector_length(d)


def _assert_sigma_agrees(got, want, n, d):
    """Sigma_m of one chunk has the bits of the whole matrix's product; of
    several, it agrees to rtol 1e-13 (atol 1e-13 of its largest entry)."""
    assert np.array_equal(got, np.swapaxes(got, -2, -1))
    if n <= _chunk_rows(d):
        assert got.tobytes() == want.tobytes()
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("d", [2, 3, 5])
def test_record_moments_have_the_bits_of_the_whole_monomial_matrix(d):
    # m_hat and the delete-1 column sums and rows are reduced from blocks of
    # columns and rebuilt by rows, never from an (n, D) matrix, with the
    # bits of that matrix; Sigma_m is summed over chunks of rows.  The sizes
    # sit on both sides of a chunk boundary, and beyond numpy's buffer.
    step = _chunk_rows(d)
    for n in (step, step + 1, 20_000):
        x = _skewed(n, d, 10 * d)
        record = _pipeline.MomentRecord.of(x)
        z = centered_monomials(x)
        m_hat, total, sigma = whole_moments(x)
        assert record.xt.tobytes() == np.ascontiguousarray((x - column_means(x)).T).tobytes()
        assert record.m_hat.tobytes() == m_hat.tobytes()
        assert record.delete1.total.tobytes() == total.tobytes()
        loo = leave_one_out_moments(z)
        got = record.delete1[:]
        assert got.strides == loo.strides and got.tobytes() == loo.tobytes()
        low = d + d * (d + 1) // 2
        rows = np.array([n - 1, 0, n // 2])
        assert record.delete1[5:900, :low].tobytes() == loo[5:900, :low].tobytes()
        assert record.delete1[5:900, d:].tobytes() == loo[5:900, d:].tobytes()
        assert np.array_equal(record.delete1[rows], loo[rows])
        _assert_sigma_agrees(record.sigma_m(), sigma, n, d)


def test_stacked_moments_are_each_samples_own():
    # A (K, n, 2) stack gets, in one call, each sample's moments and
    # Sigma_m as the whole monomial matrix gives them, on both sides of
    # the one-chunk bound.
    for n in (_chunk_rows(2), _chunk_rows(2) + 1):
        xs = _skewed(n, 2, 5, k=3)
        xt, m_hat, sigma = _centered_moments(xs, covariance=True)
        assert xt.shape == (3, 2, n) and _centered_moments(xs)[2] is None
        for k, x in enumerate(xs):
            want_m, _, want_sigma = whole_moments(x)
            assert m_hat[k].tobytes() == want_m.tobytes()
            _assert_sigma_agrees(sigma[k], want_sigma, n, 2)


def test_order4_moments_have_the_bits_of_the_whole_monomial_matrix():
    # Blocks of columns that start inside a run of monomials build their
    # prefixes afresh, with the bits of the whole matrix's.
    x = _skewed(20_000, 3, 4)
    assert _centered_moments(x, 4)[1].tobytes() == whole_moments(x, 4)[0].tobytes()
