import warnings

import numpy as np
import pytest

import cumident as ci
from cumident.errors import (
    EigenGapWarning,
    IllConditionedError,
    RankDetectionError,
)
from cumident.identify import _auto_rank
from cumident.simulate import CompositeDgpConfig, gen_composite
from _designs import population_contraction


def test_contraction_ratio_diagonal_case():
    est = ci.demixing_from_contractions(np.diag([2.0, 6.0]), np.eye(2))
    np.testing.assert_allclose(est.eigenvalues, [6.0, 2.0])
    np.testing.assert_allclose(est.lambda_tilde, [[0.0, 1.0], [1.0, 0.0]])
    assert est.cond_G2 == 1.0


def test_build_H_identity_mixing_eigenvalues():
    # A = I with w2 = 1: eigenvalues are the coordinates of w1.
    a = np.eye(2)
    kappa3 = np.array([2.0, 2.0])
    w1 = np.array([0.2, 0.7])
    g1 = population_contraction(a, kappa3, w1)
    g2 = population_contraction(a, kappa3, np.ones(2))
    est = ci.demixing_from_contractions(g1, g2)
    np.testing.assert_allclose(sorted(est.eigenvalues), [0.2, 0.7], atol=1e-12)


@pytest.mark.parametrize(
    "g2", [np.diag([1.0, 0.0]), np.diag([1.0, 1.0, 1e-12])], ids=["d2", "d3"]
)
def test_demixing_from_contractions_rejects_singular_anchor(g2):
    with pytest.raises(IllConditionedError) as err:
        ci.demixing_from_contractions(np.eye(len(g2)), g2)
    assert err.value.cond > 1e10


def test_population_eigenvectors_recover_structural_rows():
    lam = np.array([[1.0, 1.5], [-0.5, 1.0]])
    a = np.linalg.inv(lam)
    kappa3 = np.array([2.0, 2.0])
    w1 = np.random.default_rng(12).uniform(size=2)
    est = ci.demixing_from_contractions(
        population_contraction(a, kappa3, w1),
        population_contraction(a, kappa3, np.ones(2)),
    )
    want = lam / np.linalg.norm(lam, axis=1, keepdims=True)
    for row in want:
        best = min(ci.angular_distance(row, got) for got in est.lambda_tilde)
        assert best < 1e-10


def test_estimate_demixing_identity_mixing():
    # X = S with iid Gamma(1,1) components: rows approach basis vectors.
    x = np.random.default_rng(13).standard_exponential((100_000, 2))
    est = ci.estimate_demixing(x, ci.ProbeVectors.draw(2, 3))
    for row in est.lambda_tilde:
        best = min(ci.angular_distance(row, e) for e in np.eye(2))
        assert best < 0.05


def test_estimate_demixing_composite_design():
    x = gen_composite(CompositeDgpConfig(n=100_000, k=0.0, seed=21), 0).x
    est = ci.estimate_demixing(x, ci.ProbeVectors.draw(2, 5))
    lab = ci.label_by_signs(est, ci.SUPPLY_DEMAND_PATTERN)
    np.testing.assert_allclose(lab.lambda_final, ci.LAMBDA_TRUE, rtol=0.05)


def test_degenerate_probes_flag_gap():
    x = np.random.default_rng(14).standard_exponential((5_000, 2))
    probes = ci.ProbeVectors(w1=np.ones(2), w2=np.ones(2))
    with pytest.warns(EigenGapWarning):
        est = ci.estimate_demixing(x, probes)
    np.testing.assert_allclose(est.eigenvalues, 1.0, atol=1e-8)
    assert est.gap_flag


def test_constant_column_raises_ill_conditioned():
    rng = np.random.default_rng(15)
    x = np.column_stack([rng.standard_exponential(500), np.full(500, 2.0)])
    with pytest.raises(IllConditionedError):
        ci.estimate_demixing(x, ci.ProbeVectors.draw(2, 1))


def test_scale_equivariance_exact_for_binary_scale():
    x = np.random.default_rng(16).standard_exponential((2_000, 3))
    probes = ci.ProbeVectors.draw(3, 8)
    base = ci.estimate_demixing(x, probes)
    scaled = ci.estimate_demixing(4.0 * x, probes)
    np.testing.assert_array_equal(base.lambda_tilde, scaled.lambda_tilde)


def test_permutation_equivariance():
    x = np.random.default_rng(17).standard_exponential((20_000, 3))
    probes = ci.ProbeVectors.draw(3, 8)
    perm = [2, 0, 1]
    pmat = np.eye(3)[perm]
    base = ci.estimate_demixing(x, probes)
    permuted = ci.estimate_demixing(
        x[:, perm],
        ci.ProbeVectors(w1=probes.w1[perm], w2=probes.w2[perm], seed=probes.seed),
    )
    np.testing.assert_allclose(permuted.eigenvalues, base.eigenvalues, rtol=1e-9)
    np.testing.assert_allclose(
        permuted.lambda_tilde, base.lambda_tilde @ pmat.T, atol=1e-9
    )


def test_orientation_idempotent():
    rows = np.array([[0.6, -0.8], [-0.9, 0.1]])
    once, _ = ci.orient_rows(rows)
    twice, _ = ci.orient_rows(once)
    np.testing.assert_array_equal(once, twice)


def test_orientation_reports_rows_that_fall_back_to_the_peak_rule():
    # Row 1 sums to zero, so it is oriented by its largest entry instead.
    rows = np.array([[0.6, -0.8, 0.1], [0.3, -0.9, 0.6], [-1.0, 0.2, 0.1]])
    out, fallback = ci.orient_rows(rows)
    assert fallback == (1,)
    np.testing.assert_array_equal(out, [-rows[0], -rows[1], -rows[2]])
    # The same fallback reaches the eigenvector rows: H with those rows as
    # left eigenvectors.
    left = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    h = np.linalg.solve(left, np.diag([3.0, 2.0, 1.0]) @ left)
    est = ci.demixing_from_contractions(h.T, np.eye(3))
    assert est.fallback_rows == (1,) and not est.gap_flag


def test_mixing_tall_square_case_inverts_demixing():
    x = np.random.default_rng(18).standard_exponential((50_000, 2)) @ np.array(
        [[1.0, 0.4], [-0.3, 1.0]]
    )
    probes = ci.ProbeVectors.draw(2, 4)
    est = ci.estimate_demixing(x, probes)
    mix = ci.estimate_mixing_tall(x, probes)
    assert mix.rank_used == 2
    inv = np.linalg.inv(est.lambda_tilde)
    for c in range(2):
        best = min(ci.angular_distance(mix.a_columns[:, c], inv[:, j]) for j in range(2))
        assert best < 1e-8


def test_mixing_tall_recovers_columns():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rng = np.random.default_rng(19)
    s = np.column_stack([
        rng.standard_exponential(100_000) - 1.0,
        1.5 * (rng.standard_exponential(100_000) - 1.0),
    ])
    x = s @ a.T
    mix = ci.estimate_mixing_tall(x, ci.ProbeVectors.draw(3, 4), d2=2)
    for j in range(2):
        best = min(ci.angular_distance(mix.a_columns[:, c], a[:, j]) for c in range(2))
        assert best < 0.05


def test_mixing_tall_partially_skewed_recovers_skewed_column():
    # One Gaussian shock: only the skewed shock's column is recoverable.
    a = np.array([[1.0, 0.4], [0.6, 1.0]])
    rng = np.random.default_rng(20)
    s = np.column_stack([
        rng.standard_exponential(100_000) - 1.0,
        rng.standard_normal(100_000),
    ])
    x = s @ a.T
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mix = ci.estimate_mixing_tall(x, ci.ProbeVectors.draw(2, 4), d2=1)
    assert mix.rank_used == 1
    assert ci.angular_distance(mix.a_columns[:, 0], a[:, 0]) < 0.05


def test_auto_rank_on_exact_deficiency():
    rank, thr = _auto_rank(np.array([2.0, 1.0, 1e-17]), 3)
    assert rank == 2
    assert thr == pytest.approx(1e-8 * np.sqrt(3) * 2.0)


def test_auto_rank_unstable_gap_errors():
    s0 = 1.0
    thr = 1e-8 * np.sqrt(3) * s0
    with pytest.raises(RankDetectionError):
        _auto_rank(np.array([s0, 2.0 * thr, 0.5 * thr]), 3)


def test_mixing_tall_auto_on_population_contractions():
    # Feed exactly rank-deficient contractions through a synthetic sample of
    # two points is impossible; check the AUTO path on the full-rank case.
    x = np.random.default_rng(22).standard_exponential((20_000, 2))
    mix = ci.estimate_mixing_tall(x, ci.ProbeVectors.draw(2, 4))
    assert mix.rank_used == 2


def test_h_sigma_whitened_sample_equals_contraction():
    rng = np.random.default_rng(23)
    x = rng.standard_exponential((5_000, 2))
    xc = x - x.mean(axis=0)
    chol = np.linalg.cholesky(xc.T @ xc / x.shape[0])
    white = xc @ np.linalg.inv(chol).T  # sample covariance exactly I
    w1 = np.array([0.7, 0.2])
    h_sigma = ci.build_H_sigma(white, w1)
    g1 = ci.contract_hessian(white, w1)
    np.testing.assert_allclose(h_sigma, g1, atol=1e-10 * np.abs(g1).max())


def test_h_sigma_agrees_with_demixing_under_uncorrelated_errors():
    x = gen_composite(CompositeDgpConfig(n=100_000, k=0.0, seed=31), 0).x
    probes = ci.ProbeVectors.draw(2, 9)
    est = ci.estimate_demixing(x, probes)
    rows = ci.demixing_from_contractions(
        ci.build_H_sigma(x, probes.w1), np.eye(2)
    ).lambda_tilde
    for row in rows:
        best = min(ci.angular_distance(row, r) for r in est.lambda_tilde)
        assert best < 0.05


def test_h_sigma_disagrees_under_correlated_errors():
    x = gen_composite(CompositeDgpConfig(n=100_000, k=0.5, seed=31), 0).x
    probes = ci.ProbeVectors.draw(2, 9)
    est = ci.estimate_demixing(x, probes)
    rows = ci.demixing_from_contractions(
        ci.build_H_sigma(x, probes.w1), np.eye(2)
    ).lambda_tilde
    worst = max(
        min(ci.angular_distance(row, r) for r in est.lambda_tilde) for row in rows
    )
    assert worst > 0.05


def test_probe_draw_is_deterministic_and_in_cube():
    p1 = ci.ProbeVectors.draw(4, 123)
    p2 = ci.ProbeVectors.draw(4, 123)
    np.testing.assert_array_equal(p1.w1, p2.w1)
    assert np.all((p1.w1 >= 0) & (p1.w1 <= 1))
    np.testing.assert_array_equal(p1.w2, np.ones(4))


def test_fourth_order_estimation_recovers_rows():
    # Same eigenvector structure with the kurtosis contraction.
    rng = np.random.default_rng(24)
    lam = np.array([[1.0, 0.8], [-0.6, 1.0]])
    s = rng.standard_exponential((200_000, 2)) - 1.0
    x = s @ np.linalg.inv(lam).T
    est = ci.estimate_demixing(x, ci.ProbeVectors.draw(2, 11), order=4)
    want = lam / np.linalg.norm(lam, axis=1, keepdims=True)
    for row in want:
        best = min(ci.angular_distance(row, got) for got in est.lambda_tilde)
        assert best < 0.05


def test_probe_draw_validates_w2_shape():
    with pytest.raises(ValueError):
        ci.ProbeVectors.draw(3, 1, w2=np.ones(2))


def test_closed_form_2x2_eigenpairs_match_lapack():
    from cumident import _pipeline

    rng = np.random.default_rng(21)
    special = np.array([
        np.eye(2),                    # repeated, two eigenvectors
        [[1.0, 1.0], [0.0, 1.0]],     # repeated, defective
        [[2.0, 0.0], [0.0, -3.0]],    # diagonal
        [[0.5, 4.0], [0.0, 0.2]],     # triangular
        [[0.0, -1.0], [1.0, 0.0]],    # complex pair
    ])
    h = np.concatenate([rng.standard_normal((4_000, 2, 2)), special])
    h[::7] *= 1e6
    ref_vals, ref_vecs = _pipeline._sorted_eig(h)
    vals, vecs = _pipeline._sorted_eig_2x2(h)

    real = np.all(ref_vals.imag == 0, axis=-1) & (ref_vals[:, 0] != ref_vals[:, 1])
    # Complex and repeated eigenvalues keep the LAPACK result exactly.
    np.testing.assert_array_equal(vals[~real], ref_vals[~real])
    np.testing.assert_array_equal(vecs[~real], ref_vecs[~real])
    assert (~real).sum() >= 3

    eps = np.finfo(float).eps
    scale = np.abs(h[real]).max(axis=(-2, -1))
    gap = np.abs(ref_vals[real, 0] - ref_vals[real, 1])
    np.testing.assert_array_less(
        np.abs(vals[real] - ref_vals[real]).max(axis=-1), 16 * eps * scale
    )
    # Unit eigenvectors agree up to sign, within rounding over the gap.
    dots = np.abs(np.einsum("bik,bik->bk", vecs[real].real, ref_vecs[real].real))
    np.testing.assert_array_less(
        (1.0 - dots).max(axis=-1), 64 * eps * (scale / gap) ** 2 + 8 * eps
    )


def test_closed_form_2x2_solve_matches_lapack():
    from cumident import _pipeline

    rng = np.random.default_rng(22)
    g2 = rng.standard_normal((2_000, 2, 2))
    g1 = rng.standard_normal((2_000, 2, 2))
    want = np.linalg.solve(g2, g1)
    cond = np.linalg.cond(g2)
    err = np.abs(_pipeline._solve_2x2(g2, g1) - want).max(axis=(-2, -1))
    np.testing.assert_array_less(
        err, 16 * np.finfo(float).eps * cond * np.abs(want).max(axis=(-2, -1))
    )
    assert _pipeline._singular(np.diag([1.0, 0.0]))
