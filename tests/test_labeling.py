import itertools
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cumident as ci
from cumident import _pipeline
from cumident._pipeline import _fold_last
from cumident.errors import LabelingAmbiguityError
from cumident.identify import (
    EXHAUSTIVE_PERMUTATION_CAP,
    DemixingEstimate,
    LabelingResult,
)

from _brute_force import (brute_costs, brute_sign, brute_totals,
                          label_signs_every_entry, leave_one_out_moments, ordering)


def _estimate_from_rows(rows) -> DemixingEstimate:
    rows = np.asarray(rows, dtype=float)
    return DemixingEstimate(
        lambda_tilde=rows,
        eigenvalues=np.arange(rows.shape[0], 0, -1, dtype=float),
        max_imag=0.0,
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


def test_labeling_beyond_the_cap_recovers_planted_orders():
    d = EXHAUSTIVE_PERMUTATION_CAP + 1
    rng = np.random.default_rng(7)
    tri = np.tril(rng.uniform(0.5, 1.5, (d, d)))
    perm = rng.permutation(d)
    est = _estimate_from_rows(tri[perm] * rng.uniform(0.5, 2.0, (d, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lab = ci.label_by_triangular(est)
    assert lab.permutation == tuple(np.argsort(perm))
    assert lab.residual_mismatch < 1e-12
    np.testing.assert_allclose(lab.lambda_final, tri / np.diag(tri)[:, None],
                               rtol=1e-13)

    lam = np.eye(d) + np.diag(rng.uniform(0.2, 0.8, d - 1), -1)
    lam[0, d - 1] = -0.5
    signs = rng.choice([-1.0, 1.0], size=(d, 1))
    est = _estimate_from_rows(lam[perm] * signs)
    lab = ci.label_by_signs(est, np.sign(lam).astype(int))
    assert lab.permutation == tuple(np.argsort(perm))
    assert lab.residual_mismatch == 0
    np.testing.assert_allclose(lab.lambda_final, lam, atol=1e-15)


def test_assignment_beyond_the_cap_beats_greedy():
    # Random rows on which both greedy heuristics the assignment replaced
    # stop short of the optimum; the wrappers reach the brute-force one.
    d = EXHAUSTIVE_PERMUTATION_CAP + 1
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((d, d))
    pattern = np.sign(rng.standard_normal((d, d))).astype(int)
    est = _estimate_from_rows(rows)
    count, margin, mass = brute_costs(rows, pattern)
    positions = np.arange(d)

    greedy = _greedy_triangular_permutation(rows)
    lab = ci.label_by_triangular(est)
    totals = brute_totals(mass)
    assert mass[list(greedy), positions].sum() > totals.min() * (1 + 1e-9)
    assert lab.permutation == ordering(d, totals.argmin())

    greedy = _greedy_sign_permutation(rows, pattern)
    lab = ci.label_by_signs(est, pattern, on_tie="margin")
    want = brute_sign(count, margin)
    assert count[list(greedy), positions].sum() > want[0]
    assert lab.residual_mismatch == want[0]
    assert lab.permutation == want[2]


def test_labeling_selects_true_permutation_with_high_frequency():
    # Consistency of the sign rule: at n = 10^4 the labeled matrix lands in
    # the truth's basin in at least 99% of 200 replications.
    from cumident.simulate import CompositeDgpConfig, _assemble, _draw_primitives
    probes = ci.ProbeVectors.draw(2, 100)
    cfg = CompositeDgpConfig(n=10_000, k=0.0, seed=100)
    hits = 0
    for rep in range(200):
        s, e, eps, _ = _draw_primitives(cfg, rep, 10_000)
        x = _assemble(s, e, eps, 0.0)
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

    mism = np.full((len(perms), b), np.inf)
    margin = np.full((len(perms), b), -np.inf)
    normalized_all = np.empty((len(perms), b, d, d))
    floor = _diagonal_floor(r)
    for p, perm in enumerate(perms):
        normalized, valid = _diag_normalized(r, perm, floor)
        normalized_all[p] = normalized
        m = np.sum(np.sign(normalized)[:, active] != pattern[active], axis=-1)
        g = np.sum(pattern[active] * normalized[:, active], axis=-1)
        mism[p] = np.where(valid, m, np.inf)
        margin[p] = np.where(valid, g, -np.inf)

    best_mism = mism.min(axis=0)
    at_best = mism == best_mism[None, :]
    tie_flags = at_best.sum(axis=0) > 1
    margin_masked = np.where(at_best, margin, -np.inf)
    perm_index = margin_masked.argmax(axis=0)
    lam = normalized_all[perm_index, np.arange(b)]
    if squeeze:
        return lam[0], float(best_mism[0]), bool(tie_flags[0]), perms[perm_index[0]]
    return lam, best_mism, tie_flags, np.array(perms, dtype=np.intp)[perm_index]


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
        return lam[0], float(res[0]), perms[perm_index[0]]
    return lam, res, np.array(perms, dtype=np.intp)[perm_index]


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
    # Sign patterns with pairwise distinct rows; label_signs refuses others.
    pattern = draw(hnp.arrays(np.int64, (d, d), elements=st.sampled_from([-1, 0, 1]))
                   .filter(lambda p: len({tuple(r) for r in p.tolist()}) == d))
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
    loo = leave_one_out_moments(ci.monomial_matrix(x))
    rows = _pipeline.demix_rows(loo, 2, probes.w1, probes.w2)[0]
    for pattern in (ci.SUPPLY_DEMAND_PATTERN, np.eye(2, dtype=int)):
        _assert_bitwise_equal(_pipeline.label_signs(rows, pattern),
                              oracle_label_signs(rows, pattern))
    _assert_bitwise_equal(_pipeline.label_triangular(rows),
                          oracle_label_triangular(rows))


def _sign_costs(rows, pattern):
    return _pipeline._sign_cost(*_pipeline._entries_last(rows),
                                np.asarray(pattern, dtype=float))


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("kind", ["invalid", "tied", "all_differ", "all_share"])
def test_label_signs_shares_scores_as_scoring_every_entry(d, kind):
    # label_signs scores each distinct sign-cost matrix of a chunk once;
    # scoring every entry gives the same bits.  At d = 5 the stack spans
    # two chunks.
    rng = np.random.default_rng([d, len(kind)])
    b = 2_500 if d == 5 else 300
    pattern = rng.integers(-1, 2, (d, d))
    while len({tuple(r) for r in pattern.tolist()}) < d:  # refused by label_signs
        pattern = rng.integers(-1, 2, (d, d))
    base = rng.standard_normal((d, d))
    # Small moves keep the signs, so most entries share entry 0's costs.
    rows = base + 1e-3 * rng.standard_normal((b, d, d))
    rows[rng.random(b) < 0.1] = rng.standard_normal((d, d))
    if kind == "invalid":
        rows[::7] = 0.0
    elif kind == "tied":
        pattern = np.eye(d, dtype=int)
    elif kind == "all_differ":
        rows = rng.standard_normal((b, d, d))
        rows[0] = np.where(np.eye(d, dtype=bool), 0.0, rows[0])
        rows[:, 0, 0] = np.where(np.arange(b) == 0, 0.0, rows[:, 0, 0] + 1.0)
    else:
        rows = base + 1e-3 * rng.standard_normal((b, d, d))
    cost = _sign_costs(rows, pattern)
    first = _pipeline._chunks(b, d)[0].stop
    same = (cost == cost[..., :1]).all(axis=(0, 1))[:first]
    assert {"invalid": not np.isfinite(cost[..., 0]).any(),
            "tied": True, "all_differ": not same[1:].any(),
            "all_share": same.all()}[kind]
    got = _pipeline.label_signs(rows, pattern)
    want = label_signs_every_entry(rows, pattern)
    if kind == "tied":
        assert want[2].all()
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_label_triangular_totals_a_shared_mass_matrix_once(monkeypatch):
    # Work-count guard: entries whose mass matrix equals the first entry's
    # of their chunk take its totals, so a stack that shares one mass
    # matrix is totalled on one column per chunk.
    columns = []
    real_totals = _pipeline._candidate_totals

    def candidate_totals(cost, pivots):
        columns.append(cost.shape[-1])
        return real_totals(cost, pivots)

    monkeypatch.setattr(_pipeline, "_candidate_totals", candidate_totals)
    d, b = 5, 5_000
    rng = np.random.default_rng(1)
    rows = np.repeat(rng.standard_normal((d, d))[None], b, axis=0)
    lam, residual, order = _pipeline.label_triangular(rows)
    assert columns == [1] * len(_pipeline._chunks(b, d)) and len(columns) > 1
    assert (order == order[0]).all() and (residual == residual[0]).all()
    one = _pipeline.label_triangular(rows[0])
    assert tuple(order[0].tolist()) == one[2]
    assert residual[0] == pytest.approx(one[1], rel=1e-14)
    assert lam.tobytes() == np.repeat(one[0][None], b, axis=0).tobytes()


@pytest.mark.parametrize("labeler", [
    lambda rows: _pipeline.label_signs(rows, np.eye(rows.shape[-1], dtype=int)),
    _pipeline.label_triangular,
])
def test_batched_labelers_refuse_d_above_cap(monkeypatch, labeler):
    # Above the cap neither labeler builds the d! table; each entry is
    # solved by assignment instead. Rows of a permuted unit lower-triangular
    # matrix have a nonzero diagonal in exactly one ordering.
    built = []
    monkeypatch.setattr(_pipeline, "_permutation_table", built.append)
    d = EXHAUSTIVE_PERMUTATION_CAP + 1
    rng = np.random.default_rng(0)
    perms = [rng.permutation(d) for _ in range(2)]
    rows = np.stack([
        (np.eye(d) + np.tril(rng.uniform(0.1, 0.5, (d, d)), -1))[p]
        for p in perms
    ])
    *_, order = labeler(rows)
    assert built == [] and order.dtype == np.intp
    for e, p in enumerate(perms):
        np.testing.assert_array_equal(order[e], np.argsort(p))


def test_batched_labelers_beyond_the_cap_match_brute_force(monkeypatch):
    built = []
    monkeypatch.setattr(_pipeline, "_permutation_table", built.append)
    d = EXHAUSTIVE_PERMUTATION_CAP + 1
    rng = np.random.default_rng(0)
    rows = np.stack([
        rng.standard_normal((d, d)),
        rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(d, d)),  # ties
        np.zeros((d, d)),                                    # no valid order
    ])
    pattern = rng.choice([-1, 0, 1], size=(d, d))
    lam, mism, ties, order = _pipeline.label_signs(rows, pattern)
    tri_lam, residual, tri_order = _pipeline.label_triangular(rows)
    assert built == []
    for e in range(rows.shape[0]):
        count, margin, mass = brute_costs(rows[e], pattern)
        low, tied, _, top = brute_sign(count, margin)
        assert ties[e] == tied
        if not np.isfinite(low):
            assert mism[e] == np.inf and (order[e] == range(d)).all()
            assert residual[e] == np.inf and (tri_order[e] == range(d)).all()
            continue
        perm = tuple(order[e].tolist())
        assert mism[e] == low == count[list(perm), range(d)].sum()
        # Exact margin ties may settle on any of the tied orderings.
        assert margin[list(perm), range(d)].sum() == pytest.approx(top, rel=1e-12, abs=1e-12)
        want = np.array(perm)
        np.testing.assert_array_equal(lam[e], rows[e][want] / rows[e][want, range(d)][:, None])

        totals = brute_totals(mass)
        perm = tuple(tri_order[e].tolist())
        assert mass[list(perm), range(d)].sum() == pytest.approx(totals.min(), rel=1e-12)
        np.testing.assert_allclose(residual[e], totals.min(), rtol=1e-12)

    # The wrapper lists the chosen ordering and the tied second-best ones.
    assert ties[1]
    with pytest.raises(LabelingAmbiguityError) as err:
        ci.label_by_signs(_estimate_from_rows(rows[1]), pattern)
    listed = err.value.candidates
    count = brute_costs(rows[1], pattern)[0]
    assert listed[0] == tuple(order[1].tolist()) and len(set(listed)) == len(listed) > 1
    assert all(count[list(c), range(d)].sum() == mism[1] for c in listed)


@pytest.mark.parametrize("pattern", [[[2, 0], [0, 1]], [[1, 1, 0], [0, 1, 1]]])
def test_label_signs_rejects_malformed_pattern(pattern):
    with pytest.raises(ValueError, match="sign pattern"):
        _pipeline.label_signs(np.eye(2)[None], pattern)


# Scalar reference: the per-permutation labelers that label_by_signs and
# label_by_triangular ran before they became one-entry calls of the
# _pipeline kernels, kept verbatim (apart from their names) as an oracle.
# Their greedy fallbacks beyond the cap show what the exact assignment
# improves on.

def _candidate_permutations(d: int, kind: str):
    if d <= EXHAUSTIVE_PERMUTATION_CAP:
        return itertools.permutations(range(d))
    warnings.warn(
        f"d = {d} exceeds the exhaustive search cap; {kind} labeling falls "
        "back to greedy assignment",
        UserWarning,
        stacklevel=3,
    )
    return None


def _diag_normalize(block: np.ndarray):
    """Divide each row by its diagonal entry; None if a diagonal is ~ zero."""
    diag = np.diagonal(block).copy()
    if np.any(np.abs(diag) < 1e-12 * max(np.max(np.abs(block)), 1e-300)):
        return None, None
    return block / diag[:, None], 1.0 / diag


def _sign_mismatches(normalized: np.ndarray, pattern: np.ndarray) -> int:
    active = pattern != 0
    return int(np.sum(np.sign(normalized)[active] != pattern[active]))


def _sign_margin(normalized: np.ndarray, pattern: np.ndarray) -> float:
    active = pattern != 0
    return float(np.sum(pattern[active] * normalized[active]))


def _greedy_sign_permutation(rows: np.ndarray, pattern: np.ndarray) -> tuple[int, ...]:
    d = rows.shape[0]
    remaining = list(range(d))
    perm = []
    for i in range(d):
        best, best_key = None, None
        for r in remaining:
            if abs(rows[r, i]) < 1e-300:
                continue
            row = rows[r] / rows[r, i]
            active = pattern[i] != 0
            mism = int(np.sum(np.sign(row)[active] != pattern[i][active]))
            margin = float(np.sum(pattern[i][active] * row[active]))
            key = (mism, -margin)
            if best_key is None or key < best_key:
                best, best_key = r, key
        if best is None:
            best = remaining[0]
        perm.append(best)
        remaining.remove(best)
    return tuple(perm)


def scalar_label_by_signs(est: DemixingEstimate, sign_pattern,
                   on_tie: str = "error") -> LabelingResult:
    """Resolve permutation and scale from a row sign pattern.

    Searches row permutations, normalizes each candidate so its diagonal is
    exactly one (which also fixes row signs), and selects the assignment
    with the fewest sign mismatches against `sign_pattern` (entries in
    {-1, 0, +1}; zeros are ignored).

    Parameters
    ----------
    on_tie : {"error", "margin"}
        With "error", two assignments tying on mismatch count raise
        :class:`LabelingAmbiguityError` listing both.  With "margin", ties
        are broken by the larger signed agreement
        sum(pattern * normalized entries); only an exact margin tie raises.
    """
    pattern = np.asarray(sign_pattern)
    rows = est.lambda_tilde
    d = rows.shape[0]
    if pattern.shape != (d, d):
        raise ValueError(f"sign pattern must be {d}x{d}, got {pattern.shape}")
    if not np.isin(pattern, (-1, 0, 1)).all():
        raise ValueError("sign pattern entries must be -1, 0 or +1")
    if len({tuple(r) for r in pattern.tolist()}) < d:
        raise ValueError("sign pattern rows must be pairwise distinct")
    if on_tie not in ("error", "margin"):
        raise ValueError(f"on_tie must be 'error' or 'margin', got {on_tie!r}")

    perms = _candidate_permutations(d, "sign")
    if perms is None:
        perms = [_greedy_sign_permutation(rows, pattern)]

    candidates = []  # (mismatches, -margin, perm, normalized, scales)
    for perm in perms:
        block = rows[list(perm), :]
        normalized, scales = _diag_normalize(block)
        if normalized is None:
            continue
        candidates.append((
            _sign_mismatches(normalized, pattern),
            -_sign_margin(normalized, pattern),
            perm,
            normalized,
            scales,
        ))
    if not candidates:
        raise LabelingAmbiguityError(
            "no row permutation yields a nonzero diagonal", []
        )
    candidates.sort(key=lambda c: (c[0], c[1]))
    best = candidates[0]
    tied = [c for c in candidates[1:] if c[0] == best[0]]
    if tied:
        if on_tie == "error":
            raise LabelingAmbiguityError(
                "sign labeling is ambiguous", [best[2]] + [c[2] for c in tied]
            )
        # Sorted by (mismatches, -margin), so `best` already carries the
        # largest margin; only an exact margin tie is irresolvable.
        margin_tied = [c[2] for c in tied if c[1] == best[1]]
        if margin_tied:
            raise LabelingAmbiguityError(
                "sign labeling is ambiguous even after margin tie-break",
                [best[2]] + margin_tied,
            )
    mism, _, perm, normalized, scales = best
    return LabelingResult(
        permutation=tuple(perm),
        scales=scales,
        lambda_final=normalized,
        residual_mismatch=float(mism),
    )


def scalar_label_by_triangular(est: DemixingEstimate) -> LabelingResult:
    """Order rows to make the normalized matrix as lower-triangular as possible.

    Minimizes the sum of squared above-diagonal entries after diagonal
    normalization and reports that mass; never raises on a poor fit, the
    caller judges the residual.
    """
    rows = est.lambda_tilde
    d = rows.shape[0]
    perms = _candidate_permutations(d, "triangular")
    if perms is None:
        perms = [_greedy_triangular_permutation(rows)]
    best = None
    upper = np.triu_indices(d, 1)
    for perm in perms:
        block = rows[list(perm), :]
        normalized, scales = _diag_normalize(block)
        if normalized is None:
            continue
        residual = float(np.sum(normalized[upper] ** 2))
        if best is None or residual < best[0]:
            best = (residual, perm, normalized, scales)
    if best is None:
        raise LabelingAmbiguityError(
            "no row permutation yields a nonzero diagonal", []
        )
    residual, perm, normalized, scales = best
    return LabelingResult(
        permutation=tuple(perm),
        scales=scales,
        lambda_final=normalized,
        residual_mismatch=residual,
    )


def _greedy_triangular_permutation(rows: np.ndarray) -> tuple[int, ...]:
    d = rows.shape[0]
    remaining = list(range(d))
    perm = []
    for i in range(d):
        best, best_mass = None, None
        for r in remaining:
            if abs(rows[r, i]) < 1e-300:
                continue
            row = rows[r] / rows[r, i]
            mass = float(np.sum(row[i + 1:] ** 2))
            if best_mass is None or mass < best_mass:
                best, best_mass = r, mass
        if best is None:
            best = remaining[0]
        perm.append(best)
        remaining.remove(best)
    return tuple(perm)


_DISCRETE = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _single(draw):
    d = draw(st.integers(2, 6))
    rows = draw(hnp.arrays(np.float64, (d, d), elements=_DISCRETE))
    # Pairwise distinct pattern rows; duplicates are rejected before labeling.
    row = st.tuples(*[st.sampled_from([-1, 0, 1])] * d)
    pattern = np.array(draw(st.lists(row, min_size=d, max_size=d, unique=True)))
    return rows, pattern


def _outcome(labeler, *args):
    """A labeling as comparable values, or the error type and candidate set."""
    try:
        lab = labeler(*args)
    except (LabelingAmbiguityError, ValueError) as exc:
        return type(exc), sorted(getattr(exc, "candidates", []))
    return (lab.permutation, lab.scales.dtype, lab.scales.tobytes(),
            lab.lambda_final.shape, lab.lambda_final.tobytes(),
            lab.residual_mismatch)


@_ORACLE_SETTINGS
@given(_single())
def test_label_by_signs_matches_scalar_oracle(case):
    rows, pattern = case
    est = _estimate_from_rows(rows)
    for on_tie in ("error", "margin"):
        assert (_outcome(ci.label_by_signs, est, pattern, on_tie)
                == _outcome(scalar_label_by_signs, est, pattern, on_tie))


@_ORACLE_SETTINGS
@given(_single())
def test_label_by_triangular_matches_scalar_oracle(case):
    est = _estimate_from_rows(case[0])
    assert (_outcome(ci.label_by_triangular, est)
            == _outcome(scalar_label_by_triangular, est))


@pytest.mark.parametrize("on_tie", ["error", "margin"])
def test_label_by_signs_makes_one_kernel_call(monkeypatch, on_tie):
    calls = []
    kernel = _pipeline.label_signs

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_pipeline, "label_signs", counted)
    # Both orderings miss one sign: the tie path runs, and "margin" settles it.
    est = _estimate_from_rows([[1.0, 0.6], [0.7, 1.0]])
    try:
        ci.label_by_signs(est, [[1, 1], [-1, 1]], on_tie=on_tie)
    except LabelingAmbiguityError:
        assert on_tie == "error"
    assert len(calls) == 1
