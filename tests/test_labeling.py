import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cumident as ci
from cumident import _pipeline
from cumident._pipeline import _INVALID_MISMATCH, _fold_last
from cumident.errors import LabelingAmbiguityError
from cumident.identify import EXHAUSTIVE_PERMUTATION_CAP, DemixingEstimate


def _estimate_from_rows(rows) -> DemixingEstimate:
    rows = np.asarray(rows, dtype=float)
    return DemixingEstimate(
        lambda_tilde=rows,
        eigenvalues=np.arange(rows.shape[0], 0, -1, dtype=float),
        max_imag=0.0,
        orientation_rule="A",
        cond_G2=1.0,
    )


def test_signs_identity_when_rows_match():
    est = _estimate_from_rows([[0.5547, 0.83205], [-0.44721, 0.89443]])
    lab = ci.label_by_signs(est, [[1, 1], [-1, 1]])
    assert lab.permutation == (0, 1)
    assert lab.residual_mismatch == 0
    np.testing.assert_allclose(np.diag(lab.lambda_final), 1.0)


def test_signs_recovers_swapped_and_negated_rows():
    lam = ci.LAMBDA_TRUE
    rows = lam / np.linalg.norm(lam, axis=1, keepdims=True)
    shuffled = np.array([-rows[1], rows[0]])
    lab = ci.label_by_signs(_estimate_from_rows(shuffled), ci.SUPPLY_DEMAND_PATTERN)
    assert lab.permutation == (1, 0)
    np.testing.assert_allclose(lab.lambda_final, lam, atol=1e-10)


def test_signs_duplicate_pattern_rows_rejected():
    est = _estimate_from_rows(np.eye(2))
    with pytest.raises(ValueError):
        ci.label_by_signs(est, [[1, 1], [1, 1]])


def test_signs_pattern_entries_validated():
    est = _estimate_from_rows(np.eye(2))
    with pytest.raises(ValueError):
        ci.label_by_signs(est, [[2, 0], [0, 1]])


def test_signs_exact_tie_errors_listing_both():
    est = _estimate_from_rows([[1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(LabelingAmbiguityError) as err:
        ci.label_by_signs(est, [[1, 0], [0, 1]])
    assert len(err.value.candidates) == 2


def test_signs_margin_tiebreak_resolves_count_ties():
    # Both permutations miss exactly one sign; the margin picks the closer
    # fit instead of erroring.
    rows = np.array([[1.0, 0.6], [0.7, 1.0]])
    est = _estimate_from_rows(rows)
    pattern = [[1, 1], [-1, 1]]
    with pytest.raises(LabelingAmbiguityError):
        ci.label_by_signs(est, pattern, on_tie="error")
    lab = ci.label_by_signs(est, pattern, on_tie="margin")
    assert lab.residual_mismatch == 1.0
    assert lab.permutation == (0, 1)


def test_triangular_exact_input():
    tri = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.5, -0.3, 4.0]])
    est = _estimate_from_rows(tri[[2, 0, 1]])
    lab = ci.label_by_triangular(est)
    assert lab.permutation == (1, 2, 0)
    assert lab.residual_mismatch == 0.0
    np.testing.assert_allclose(np.diag(lab.lambda_final), 1.0)


def test_triangular_noisy_input_recovers_order():
    rng = np.random.default_rng(42)
    tri = np.array([[1.0, 0.0, 0.0], [0.7, 1.0, 0.0], [-0.4, 0.5, 1.0]])
    noisy = tri + 1e-3 * rng.standard_normal((3, 3))
    est = _estimate_from_rows(noisy[[1, 2, 0]])
    lab = ci.label_by_triangular(est)
    assert lab.permutation == (2, 0, 1)
    assert lab.residual_mismatch < 20 * 9 * 1e-6


def test_triangular_dense_input_returns_minimizer():
    est = _estimate_from_rows([[1.0, 0.9], [0.8, -1.0]])
    lab = ci.label_by_triangular(est)
    assert lab.residual_mismatch > 0.1  # poor fit reported, no error


def test_scales_record_row_multipliers():
    rows = np.array([[2.0, 1.0], [-1.0, 4.0]])
    lab = ci.label_by_signs(_estimate_from_rows(rows), [[1, 1], [-1, 1]])
    np.testing.assert_allclose(lab.scales, [0.5, 0.25])
    np.testing.assert_allclose(
        lab.lambda_final, rows * lab.scales[:, None], atol=1e-15
    )


def test_greedy_labeling_beyond_exhaustive_cap():
    d = 9
    rng = np.random.default_rng(7)
    tri = np.tril(rng.uniform(0.5, 1.5, (d, d)))
    perm = rng.permutation(d)
    est = _estimate_from_rows(tri[perm])
    with pytest.warns(UserWarning, match="greedy"):
        lab = ci.label_by_triangular(est)
    assert lab.residual_mismatch < 1e-12


def test_labeling_selects_true_permutation_with_high_frequency():
    # Consistency of the sign rule: at n = 10^4 the labeled matrix lands in
    # the truth's basin in at least 99% of 200 replications.
    from cumident.simulate import CompositeDgpConfig, _assemble, _draw_primitives
    probes = ci.ProbeVectors.draw(2, 100)
    cfg = CompositeDgpConfig(n=10_000, k=0.0, seed=100)
    hits = 0
    for rep in range(200):
        s, e, eps, _ = _draw_primitives(cfg, rep, 10_000)
        x = _assemble(cfg, s, e, eps, 0.0)
        est = ci.estimate_demixing(x, probes)
        try:
            lab = ci.label_by_signs(est, ci.SUPPLY_DEMAND_PATTERN)
        except LabelingAmbiguityError:
            continue
        if lab.residual_mismatch == 0 and np.allclose(
            lab.lambda_final, ci.LAMBDA_TRUE, atol=0.3
        ):
            hits += 1
    assert hits >= 198


# Brute-force reference: the d!-enumeration batched labelers that the
# cost-tensor labelers in _pipeline replaced, kept verbatim as an oracle.

def _diagonal_floor(r: np.ndarray) -> np.ndarray:
    """Smallest usable |diagonal| per stack entry: 1e-12 of its largest entry."""
    entries = np.abs(r).reshape(*r.shape[:-2], -1)
    return 1e-12 * np.maximum(_fold_last(np.maximum, entries), 1e-300)


def _diag_normalized(r: np.ndarray, perm, floor: np.ndarray):
    """Rows of each stack entry in `perm` order, divided by their diagonal.

    Returns (normalized, valid); `valid` marks entries whose every diagonal
    entry exceeds `floor`, so that the normalization is meaningful.
    """
    block = r[:, perm, :]
    ridx = np.arange(r.shape[-1])
    diag = block[:, ridx, ridx]
    valid = _fold_last(np.minimum, np.abs(diag)) > floor
    safe = np.where(np.abs(diag) < 1e-300, 1.0, diag)
    return block / safe[:, :, None], valid


def oracle_label_signs(rows: np.ndarray, pattern: np.ndarray):
    squeeze = rows.ndim == 2
    r = rows[None] if squeeze else rows
    b, d, _ = r.shape
    pattern = np.asarray(pattern)
    perms = list(itertools.permutations(range(d)))
    active = pattern != 0

    mism = np.full((len(perms), b), _INVALID_MISMATCH, dtype=np.int64)
    margin = np.full((len(perms), b), -np.inf)
    normalized_all = np.empty((len(perms), b, d, d))
    floor = _diagonal_floor(r)
    for p, perm in enumerate(perms):
        normalized, valid = _diag_normalized(r, perm, floor)
        normalized_all[p] = normalized
        m = np.sum(np.sign(normalized)[:, active] != pattern[active], axis=-1)
        g = np.sum(pattern[active] * normalized[:, active], axis=-1)
        mism[p] = np.where(valid, m, _INVALID_MISMATCH)
        margin[p] = np.where(valid, g, -np.inf)

    best_mism = mism.min(axis=0)
    at_best = mism == best_mism[None, :]
    tie_flags = at_best.sum(axis=0) > 1
    margin_masked = np.where(at_best, margin, -np.inf)
    perm_index = margin_masked.argmax(axis=0)
    lam = normalized_all[perm_index, np.arange(b)]
    if squeeze:
        return lam[0], int(best_mism[0]), bool(tie_flags[0]), int(perm_index[0]), perms
    return lam, best_mism, tie_flags, perm_index, perms


def oracle_label_triangular(rows: np.ndarray):
    squeeze = rows.ndim == 2
    r = rows[None] if squeeze else rows
    b, d, _ = r.shape
    perms = list(itertools.permutations(range(d)))
    residual = np.full((len(perms), b), np.inf)
    normalized_all = np.empty((len(perms), b, d, d))
    floor = _diagonal_floor(r)
    iu = np.triu_indices(d, 1)
    for p, perm in enumerate(perms):
        normalized, valid = _diag_normalized(r, perm, floor)
        normalized_all[p] = normalized
        mass = np.sum(normalized[:, iu[0], iu[1]] ** 2, axis=-1)
        residual[p] = np.where(valid, mass, np.inf)

    perm_index = residual.argmin(axis=0)
    lam = normalized_all[perm_index, np.arange(b)]
    res = residual[perm_index, np.arange(b)]
    if squeeze:
        return lam[0], float(res[0]), int(perm_index[0]), perms
    return lam, res, perm_index, perms


def _assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)
        else:
            assert type(g) is type(w) and g == w


# Few distinct magnitudes and many exact zeros: mismatch ties, margin ties,
# zero signs and orderings with a zero diagonal are all common.
_ENTRY = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(
    -3.0, 3.0, allow_nan=False, allow_infinity=False, allow_subnormal=False
)


@st.composite
def _stacks(draw):
    d = draw(st.integers(2, 6))
    b = draw(st.integers(1, 12 if d < 6 else 4))
    rows = draw(hnp.arrays(np.float64, (b, d, d), elements=_ENTRY))
    for e in draw(st.lists(st.integers(0, b - 1), max_size=3)):
        rows[e] = 0.0                      # no valid ordering at all
    if draw(st.booleans()):
        rows[draw(st.integers(0, b - 1)), :, draw(st.integers(0, d - 1))] = 0.0
    scale = draw(st.sampled_from([1.0, 1e-5, 1e8]))
    pattern = draw(hnp.arrays(np.int64, (d, d), elements=st.sampled_from([-1, 0, 1])))
    return rows * scale, pattern


_ORACLE_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_ORACLE_SETTINGS
@given(_stacks())
def test_label_signs_matches_enumeration_oracle(case):
    rows, pattern = case
    with np.errstate(all="ignore"):
        want = oracle_label_signs(rows, pattern)
    _assert_bitwise_equal(_pipeline.label_signs(rows, pattern), want)
    with np.errstate(all="ignore"):
        want = oracle_label_signs(rows[0], pattern)
    _assert_bitwise_equal(_pipeline.label_signs(rows[0], pattern), want)


@_ORACLE_SETTINGS
@given(_stacks())
def test_label_triangular_matches_enumeration_oracle(case):
    rows, _ = case
    # Extreme entries overflow the squared normalized entries in both.
    with np.errstate(all="ignore"):
        _assert_bitwise_equal(_pipeline.label_triangular(rows),
                              oracle_label_triangular(rows))
        _assert_bitwise_equal(_pipeline.label_triangular(rows[0]),
                              oracle_label_triangular(rows[0]))


def test_label_signs_oracle_on_jackknife_stack():
    x = ci.gen_composite(ci.CompositeDgpConfig(n=400, k=0.5, seed=3), rep=0).x
    probes = ci.ProbeVectors.draw(2, 3)
    loo = _pipeline.leave_one_out_moments(ci.monomial_matrix(x))
    rows = _pipeline.demix_rows(loo, 2, probes.w1, probes.w2)[0]
    for pattern in (ci.SUPPLY_DEMAND_PATTERN, np.eye(2, dtype=int)):
        _assert_bitwise_equal(_pipeline.label_signs(rows, pattern),
                              oracle_label_signs(rows, pattern))
    _assert_bitwise_equal(_pipeline.label_triangular(rows),
                          oracle_label_triangular(rows))


@pytest.mark.parametrize("labeler", [
    lambda rows: _pipeline.label_signs(rows, np.eye(rows.shape[-1], dtype=int)),
    _pipeline.label_triangular,
])
def test_batched_labelers_refuse_d_above_cap(monkeypatch, labeler):
    built = []
    monkeypatch.setattr(_pipeline, "_permutation_table", built.append)
    d = EXHAUSTIVE_PERMUTATION_CAP + 1
    rows = np.random.default_rng(0).standard_normal((2, d, d))
    with pytest.raises(ValueError, match=f"d = {d}"):
        labeler(rows)
    assert built == []


@pytest.mark.parametrize("pattern", [[[2, 0], [0, 1]], [[1, 1, 0], [0, 1, 1]]])
def test_label_signs_rejects_malformed_pattern(pattern):
    with pytest.raises(ValueError, match="sign pattern"):
        _pipeline.label_signs(np.eye(2)[None], pattern)
