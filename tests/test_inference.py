import dataclasses
import weakref

import numpy as np
import pytest

import cumident as ci
from cumident import _pipeline, inference, moments, overid
from cumident.errors import IllConditionedError
from cumident.inference import FD_STEP_SCALE, _fd_steps
from cumident.moments import _centered_moments, _moment_covariance
from cumident.simulate import CompositeDgpConfig, _assemble, _draw_primitives, gen_composite
from _brute_force import jackknife_variance, leave_one_out_moments


def labeled_slope(x, probes):
    """The labeled slope as a statistic of the moments, for
    delta_variance_statistic: the pipeline written out from the kernels,
    with the stacks refined from the estimate of the sample `x`."""
    anchor = ci.estimate_demixing(x, probes).lambda_tilde

    def batch(ms):
        rows = _pipeline.demix_rows(ms, 2, probes.w1, probes.w2, anchor).rows
        return _pipeline.label_signs(rows, ci.SUPPLY_DEMAND_PATTERN)[0][..., 0, 1]
    return batch


def test_jacobian_identity_coordinate():
    z, m = _centered_moments(np.random.default_rng(0).standard_normal((50, 2)))
    steps = _fd_steps(_moment_covariance(z, m))
    jac = _pipeline.batched_jacobian(lambda ms: ms[:, 3], m, steps)
    want = np.zeros((1, 9))
    want[0, 3] = 1.0
    np.testing.assert_allclose(jac, want, atol=1e-8)


def test_jacobian_product_rule():
    m = np.array([2.0, 3.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    steps = _fd_steps(np.diag(np.maximum(1.0, np.abs(m)) ** 2))
    jac = _pipeline.batched_jacobian(lambda ms: ms[:, 0] * ms[:, 1], m, steps)
    want = np.zeros(9)
    want[:2] = [3.0, 2.0]
    np.testing.assert_allclose(jac[0], want, atol=1e-6)


def test_jacobian_of_eigenvector_map_self_consistency():
    # Halving the step must not move the Jacobian beyond the O(step^2) bias.
    x = gen_composite(CompositeDgpConfig(n=4_000, k=0.2, seed=2), 0).x
    probes = ci.ProbeVectors.draw(2, 2)
    z, m = _centered_moments(x)
    steps = _fd_steps(_moment_covariance(z, m))

    def stat(ms):
        return _pipeline.demix_rows(ms, 2, probes.w1, probes.w2).rows[:, 0]

    jac = _pipeline.batched_jacobian(stat, m, steps)
    fine = _pipeline.batched_jacobian(stat, m, 0.5 * steps)
    scale = np.abs(jac).max()
    np.testing.assert_allclose(jac, fine, atol=1e-4 * scale)


def test_delta_variance_psd_and_shapes():
    x = gen_composite(CompositeDgpConfig(n=3_000, k=0.5, seed=3), 0).x
    res = ci.delta_variance(x, ci.ProbeVectors.draw(2, 3))
    assert res.sigma_u.shape == (4, 4)
    assert res.jacobian.shape == (4, 9)
    evals = np.linalg.eigvalsh(res.sigma_u)
    assert evals.min() > -1e-10 * np.trace(res.sigma_u)


def test_delta_variance_reports_the_steps_taken():
    x = gen_composite(CompositeDgpConfig(n=3_000, k=0.5, seed=3), 0).x
    res = ci.delta_variance(x, ci.ProbeVectors.draw(2, 3))
    want = FD_STEP_SCALE * np.sqrt(np.diag(res.sigma_m))
    assert res.fd_step.shape == (9,)
    np.testing.assert_array_equal(res.fd_step, want)


def test_delta_variance_single_row():
    # Row 0's covariance is the leading (d, d) block, the sandwich of the
    # Jacobian's first d rows.
    x = gen_composite(CompositeDgpConfig(n=3_000, k=0.0, seed=4), 0).x
    res = ci.delta_variance(x, ci.ProbeVectors.draw(2, 3))
    jac = res.jacobian[:2]
    np.testing.assert_allclose(jac @ res.sigma_m @ jac.T, res.sigma_u[:2, :2],
                               rtol=1e-12)


def test_delta_variance_monomial_alignment():
    # Permuting monomial coordinates consistently in both Sigma_M and the
    # Jacobian leaves the sandwich unchanged.
    x = gen_composite(CompositeDgpConfig(n=2_000, k=0.3, seed=5), 0).x
    res = ci.delta_variance(x, ci.ProbeVectors.draw(2, 3))
    jac = res.jacobian[:2]
    perm = np.random.default_rng(5).permutation(9)
    sandwich = jac[:, perm] @ res.sigma_m[np.ix_(perm, perm)] @ jac[:, perm].T
    np.testing.assert_allclose(sandwich, res.sigma_u[:2, :2], rtol=1e-12)


def test_delta_variance_degenerate_sample_errors():
    x = np.column_stack([np.random.default_rng(6).standard_normal(500),
                         np.full(500, 1.0)])
    with pytest.raises(IllConditionedError):
        ci.delta_variance(x, ci.ProbeVectors.draw(2, 3))


def test_ci_half_widths_shrink_at_root_n():
    probes = ci.ProbeVectors.draw(2, 7)
    cfg = CompositeDgpConfig(n=2_000, k=0.5, seed=11)
    ratios = []
    for rep in range(100):
        s, e, eps, _ = _draw_primitives(cfg, rep, 2_000)
        widths = []
        for n in (1_000, 2_000):
            x = _assemble(s[:n], e[:n], eps[:n], 0.5)
            res = ci.delta_variance_statistic(x, batch_statistic=labeled_slope(x, probes))
            widths.append(np.sqrt(res.sigma_u[0, 0] / n))
        ratios.append(widths[1] / widths[0])
    assert 0.6 < np.mean(ratios) < 0.8


def test_jackknife_mean_recovers_classical_variance():
    x = np.random.default_rng(8).standard_normal((200, 1))
    res = jackknife_variance(x, lambda sub: sub.mean())
    s2 = x.var(ddof=1)
    np.testing.assert_allclose(res.variance[0, 0], s2 / 200, rtol=1e-10)


def test_fast_jackknife_matches_generic_closure():
    x = gen_composite(CompositeDgpConfig(n=80, k=0.2, seed=12), 0).x
    probes = ci.ProbeVectors.draw(2, 12)

    fast = ci.demixing_jackknife(x, probes, pattern=ci.SUPPLY_DEMAND_PATTERN,
                                 entry=(0, 1))

    def estimator(sub):
        est = ci.estimate_demixing(sub, probes)
        lab = ci.label_by_signs(est, ci.SUPPLY_DEMAND_PATTERN, on_tie="margin")
        return lab.lambda_final[0, 1]

    slow = jackknife_variance(x, estimator)
    np.testing.assert_allclose(fast.estimates[:, 0], slow.estimates[:, 0],
                               rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(fast.variance, slow.variance, rtol=1e-6)
    assert fast.label_flips is not None


def test_jackknife_counts_labeling_ties():
    # Diagonal normalization makes every diagonal entry +1, so a pattern
    # that restricts only the diagonal is met by both row orders: every
    # resample ties on mismatches and is settled by the margin.
    x = gen_composite(CompositeDgpConfig(n=80, k=0.2, seed=12), 0).x
    probes = ci.ProbeVectors.draw(2, 12)
    tied = ci.demixing_jackknife(x, probes, pattern=np.eye(2, dtype=int))
    assert tied.tie_count == 80

    jk = ci.demixing_jackknife(x, probes, pattern=ci.SUPPLY_DEMAND_PATTERN)
    loo = leave_one_out_moments(_centered_moments(x)[0])
    rows = _pipeline.demix_rows(loo, 2, probes.w1, probes.w2)[0]
    ties = _pipeline.label_signs(rows, ci.SUPPLY_DEMAND_PATTERN)[2]
    assert jk.tie_count == int(ties.sum()) < 80
    assert ci.demixing_jackknife(x, probes).tie_count is None


def test_jackknife_returns_the_full_sample_statistic():
    x = gen_composite(CompositeDgpConfig(n=300, k=0.2, seed=12), 0).x
    probes = ci.ProbeVectors.draw(2, 12)
    m = _centered_moments(x)[1]
    point = labeled_slope(x, probes)(m)
    rows = _pipeline.demix_rows(m, 2, probes.w1, probes.w2)[0]
    jk = ci.demixing_jackknife(x, probes, ci.SUPPLY_DEMAND_PATTERN, (0, 1))
    assert jk.full_estimate.shape == (1,)
    assert jk.full_estimate[0].tobytes() == point.tobytes()
    tie = _pipeline.label_signs(rows, ci.SUPPLY_DEMAND_PATTERN)[2]
    assert jk.full_tie is tie is False
    tied = ci.demixing_jackknife(x, probes, np.eye(2, dtype=int), entry=None)
    assert tied.full_tie is True
    lam = _pipeline.label_signs(rows, np.eye(2, dtype=int))[0]
    assert tied.full_estimate.tobytes() == lam.reshape(4).tobytes()
    unlabeled = ci.demixing_jackknife(x, probes)
    assert unlabeled.full_tie is None
    assert unlabeled.full_estimate.tobytes() == rows.reshape(4).tobytes()


def test_jackknife_and_delta_agree_at_scale():
    x = gen_composite(CompositeDgpConfig(n=5_000, k=0.5, seed=13), 0).x
    probes = ci.ProbeVectors.draw(2, 13)
    jk = ci.demixing_jackknife(x, probes, pattern=ci.SUPPLY_DEMAND_PATTERN,
                               entry=(0, 1))
    se_jk = np.sqrt(jk.variance[0, 0])
    dv = ci.delta_variance_statistic(x, batch_statistic=labeled_slope(x, probes))
    se_delta = np.sqrt(dv.sigma_u[0, 0] / 5_000)
    assert abs(se_jk - se_delta) / se_delta < 0.25


def test_confidence_interval_examples():
    assert ci.confidence_interval(1.0, 0.0, 50) == (1.0, 1.0)
    lo, hi = ci.confidence_interval(0.0, 1.0, 100, level=0.95)
    assert (hi - lo) / 2 == pytest.approx(0.19600, abs=1e-4)
    with pytest.raises(ValueError):
        ci.confidence_interval(0.0, 1.0, 100, level=1.2)
    with pytest.raises(ValueError):
        ci.confidence_interval(0.0, -1.0, 100)
    # A negative n is refused as n, not as the negative variance it makes.
    with pytest.raises(ValueError, match="n must be"):
        ci.confidence_interval(0.0, 0.5, -5)



@pytest.mark.parametrize("interval", [
    lambda v: ci.jackknife_confidence_interval(1.0, v),
    lambda v: ci.confidence_interval(1.0, v, 100),
], ids=["jackknife", "sqrt_n"])
def test_confidence_interval_rejects_a_nan_variance(interval):
    with pytest.raises(ValueError, match="variance"):
        interval(np.nan)

def test_confidence_interval_matches_textbook_mean_interval():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(400) * 2.0 + 1.0
    var_sqrtn = x.var() # variance of sqrt(n)*(mean - mu) is sigma^2
    lo, hi = ci.confidence_interval(x.mean(), var_sqrtn, 400, 0.95)
    half = 1.959964 * np.sqrt(x.var() / 400)
    assert (hi - lo) / 2 == pytest.approx(half, rel=1e-5)


def test_jackknife_confidence_interval_consistent_with_sqrtn_convention():
    point, var_hat = 2.0, 0.09
    lo1, hi1 = ci.jackknife_confidence_interval(point, var_hat, 0.95)
    lo2, hi2 = ci.confidence_interval(point, var_hat * 123, 123, 0.95)
    assert lo1 == pytest.approx(lo2)
    assert hi1 == pytest.approx(hi2)


def test_delta_variance_labeled_public_helper():
    x = gen_composite(CompositeDgpConfig(n=2_000, k=0.5, seed=14), 0).x
    probes = ci.ProbeVectors.draw(2, 14)
    res = ci.delta_variance_labeled(x, probes, ci.SUPPLY_DEMAND_PATTERN)
    manual = ci.delta_variance_statistic(x, batch_statistic=labeled_slope(x, probes))
    np.testing.assert_array_equal(res.sigma_u, manual.sigma_u)
    with pytest.raises(IllConditionedError):
        bad = np.column_stack([x[:, 0], np.full(len(x), 3.0)])
        ci.delta_variance_labeled(bad, probes, ci.SUPPLY_DEMAND_PATTERN)


# ------------------------------------------------ the leave-one-out memo

_LAMBDA_5 = np.array([
    [1.0, 0.3, -0.3, 0.5, 0.3],
    [-0.4, 1.0, 0.4, 0.5, -0.5],
    [-0.5, -0.4, 1.0, 0.5, 0.4],
    [-0.5, 0.5, -0.3, 1.0, 0.4],
    [-0.6, 0.5, 0.2, -0.3, 1.0],
])


def memo_case(d):
    """A skewed sample, probes and sign pattern at d = 2 or d = 5."""
    if d == 2:
        x = gen_composite(CompositeDgpConfig(n=200, k=0.2, seed=21), 0).x
        return x, ci.ProbeVectors.draw(2, 21), ci.SUPPLY_DEMAND_PATTERN
    shocks = np.random.default_rng(23).standard_exponential((1_000, 5))
    x = shocks @ np.linalg.inv(_LAMBDA_5).T
    return x, ci.ProbeVectors.draw(5, 7), np.sign(_LAMBDA_5).astype(int)


def cold(call, *args, **kwargs):
    """`call` with the moment record emptied first."""
    _pipeline._record = None
    return call(*args, **kwargs)


def assert_same_jackknife(a, b):
    for field in ("estimates", "variance"):
        got, want = getattr(a, field), getattr(b, field)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert (a.label_flips, a.gap_count, a.tie_count) == (
        b.label_flips, b.gap_count, b.tie_count)


def memo_entry():
    """The demixed delete-1 rows and flags that the held moment record keeps."""
    return _pipeline._record._loo[1]


def count_monomial_matrices(monkeypatch):
    """A list that gets one entry per monomial matrix built from now on."""
    built = []
    real = moments._monomial_matrix

    def counted(data, order):
        built.append(np.shape(data))
        return real(data, order)

    monkeypatch.setattr(moments, "_monomial_matrix", counted)
    return built


@pytest.mark.parametrize("d", [2, 5])
def test_memo_follows_in_place_changes(d):
    x, probes, pattern = memo_case(d)
    x = x.copy()
    first = cold(ci.demixing_jackknife, x, probes, pattern)
    held = _pipeline._record
    x[0, 0] += 0.5
    changed = ci.demixing_jackknife(x, probes, pattern)
    assert _pipeline._record is not held
    assert_same_jackknife(changed, cold(ci.demixing_jackknife, x, probes, pattern))
    assert changed.variance.tobytes() != first.variance.tobytes()
    # A change that keeps the value but not the bits misses too.
    x[0, 0] = 0.0
    ci.demixing_jackknife(x, probes, pattern)
    held = _pipeline._record
    x[0, 0] = -0.0
    ci.demixing_jackknife(x, probes, pattern)
    assert _pipeline._record is not held


def test_memo_misses_on_another_memory_layout():
    # A bit-equal copy of the sample in another memory layout has column
    # means with other last bits, so it gets a record of its own: the
    # F-ordered copy's jackknife is the same cold as after a Wald test on
    # the C-ordered sample (the composite sample, n = 200, k = 0.2, seed 21).
    x, probes, pattern = memo_case(2)
    c, f = np.ascontiguousarray(x), np.asfortranarray(x)
    assert f.flags.f_contiguous and not f.flags.c_contiguous
    want = cold(ci.demixing_jackknife, f, probes, pattern)
    cold(ci.wald_test, c, probes, method="jackknife")
    assert_same_jackknife(ci.demixing_jackknife(f, probes, pattern), want)
    assert _pipeline._record.x.flags.f_contiguous


def test_an_order4_estimate_keeps_the_order3_record(monkeypatch):
    # Only order-3 callers reuse a record, so an order-4 estimate of the same
    # sample builds its own and leaves the held one, delete-1 stack and all.
    x, probes, pattern = memo_case(2)
    cold(ci.demixing_jackknife, x, probes, pattern)
    record, held = _pipeline._record, memo_entry()
    ci.estimate_demixing(x, probes, order=4)
    built = count_monomial_matrices(monkeypatch)
    ci.demixing_jackknife(x, probes, pattern)
    assert _pipeline._record is record and memo_entry() is held and built == []


@pytest.mark.parametrize("d", [2, 5])
def test_memo_misses_on_other_probes(d, monkeypatch):
    x, probes, pattern = memo_case(d)
    other = ci.ProbeVectors.draw(d, 99)
    other_w2 = ci.ProbeVectors.draw(d, probes.seed, w2=np.arange(1.0, d + 1))
    for p in (other, other_w2):
        cold(ci.demixing_jackknife, x, probes, pattern)
        record, held = _pipeline._record, memo_entry()
        with monkeypatch.context() as patched:
            built = count_monomial_matrices(patched)
            got = ci.demixing_jackknife(x, p, pattern=pattern)
        # The same sample's record and monomials, a new delete-1 stack.
        assert _pipeline._record is record and built == []
        assert memo_entry() is not held
        assert_same_jackknife(got, cold(ci.demixing_jackknife, x, p, pattern=pattern))


@pytest.mark.parametrize("d", [2, 5])
def test_memo_holds_one_read_only_entry(d, monkeypatch):
    x, probes, pattern = memo_case(d)
    y = x[::-1].copy()
    cold(ci.demixing_jackknife, x, probes)
    # A miss frees the held record, and its delete-1 rows, before it builds
    # the next one.
    old_record = weakref.ref(_pipeline._record)
    old_rows = weakref.ref(memo_entry().rows)
    held_while_building = []

    def monomial_matrix(data, order):
        held_while_building.append(
            (_pipeline._record is None, old_record() is None, old_rows() is None)
        )
        return real(data, order)

    real = moments._monomial_matrix
    monkeypatch.setattr(moments, "_monomial_matrix", monomial_matrix)
    jk = ci.demixing_jackknife(y, probes)
    dv = ci.delta_variance(y, probes)
    assert held_while_building == [(True, True, True)]
    record = _pipeline._record
    demixed = memo_entry()
    # The record reads the delete-1 moments from its monomials and keeps
    # only their column sums.
    assert record.delete1.z is record.z
    z = _centered_moments(y)[0]
    np.testing.assert_array_equal(record.delete1[:], (z.sum(axis=0) - z) / (len(z) - 1))
    # The record holds a copy of the sample, not the caller's array.
    assert record.x.tobytes() == y.tobytes() and not np.shares_memory(record.x, y)
    assert y.flags.writeable
    arrays = [a for a in demixed if isinstance(a, np.ndarray)]
    assert len(arrays) == 4
    for a in (record.x, record.z, record.m_hat, record.sigma_m(), *arrays,
              record.delete1.total):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        demixed.rows[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        record.z[0, 0] = 1.0
    # Results are the caller's own arrays, not views of what is held.
    assert jk.estimates.flags.writeable and dv.sigma_m.flags.writeable
    assert not np.shares_memory(jk.estimates, demixed.rows)
    assert not np.shares_memory(dv.sigma_m, record.sigma_m())


@pytest.mark.parametrize("d", [2, 5])
def test_min_jackknife_n_checked_after_a_memo_hit(d):
    x, probes, pattern = memo_case(d)
    cold(ci.demixing_jackknife, x, probes, pattern)
    ci.wald_test(x, probes, method="jackknife")
    short = x[: ci.inference.MIN_JACKKNIFE_N - 1]
    with pytest.raises(ci.InvalidInputError, match="jackknife"):
        ci.demixing_jackknife(short, probes, pattern)
    with pytest.raises(ci.InvalidInputError, match="jackknife"):
        ci.wald_test(short, probes, method="jackknife")


def test_full_analysis_builds_one_leave_one_out_stack(monkeypatch):
    # Work-count guard: the jackknife SEs and the jackknife Wald test share
    # one delete-1 stack, so a full analysis passes n stack entries (plus
    # anchors and finite-difference points) through demix_rows, not 2n.
    lam = np.array([[1.0, 0.4, -0.3], [-0.5, 1.0, 0.4], [0.3, -0.5, 1.0]])
    n = 300
    x = np.random.default_rng(23).standard_exponential((n, 3)) @ np.linalg.inv(lam).T
    probes = ci.ProbeVectors.draw(3, 5)
    pattern = np.sign(lam).astype(int)
    stacks = []
    real = _pipeline.demix_rows

    def demix_rows(ms, *args, **kwargs):
        stacks.append(int(np.prod(ms.shape[:-1])))
        return real(ms, *args, **kwargs)

    monkeypatch.setattr(_pipeline, "demix_rows", demix_rows)
    _pipeline._record = None
    est = ci.estimate_demixing(x, probes)
    ci.label_by_signs(est, pattern)
    ci.demixing_jackknife(x, probes, pattern=pattern, entry=None)
    ci.delta_variance_labeled(x, probes, pattern, entry=(0, 1))
    for method in ("delta", "jackknife"):
        ci.wald_test(x, probes, method=method)
    assert stacks.count(n) == 1
    assert sum(stacks) - n < n


def test_full_analysis_builds_the_moments_once(monkeypatch):
    # Work-count guard: the five calls of one d = 5 analysis share one
    # moment record, so the monomial matrix and Sigma_m are built once, and
    # the labeler scores each distinct sign-cost matrix of the delete-1
    # stack once, not each of its n entries.
    x, probes, pattern = memo_case(5)
    n = x.shape[0]
    built = count_monomial_matrices(monkeypatch)
    sigmas, columns = [], []
    real_sigma, real_totals = _moment_covariance, _pipeline._candidate_totals

    def moment_covariance(z, m):
        sigmas.append(z.shape)
        return real_sigma(z, m)

    def candidate_totals(cost, pivots):
        columns.append(cost.shape[-1])
        return real_totals(cost, pivots)

    for module in (moments, _pipeline, inference, overid):
        if hasattr(module, "_moment_covariance"):
            monkeypatch.setattr(module, "_moment_covariance", moment_covariance)
    monkeypatch.setattr(_pipeline, "_candidate_totals", candidate_totals)
    _pipeline._record = None
    est = ci.estimate_demixing(x, probes)
    ci.label_by_signs(est, pattern)
    jk = ci.demixing_jackknife(x, probes, pattern=pattern, entry=None)
    ci.delta_variance_labeled(x, probes, pattern, entry=(0, 1))
    for method in ("delta", "jackknife"):
        ci.wald_test(x, probes, method=method)
    assert built == [x.shape] and sigmas == [(n, 55)]
    assert jk.label_flips == 0
    assert sum(columns) <= n // 50


def test_every_entry_point_refuses_an_anchor_over_the_condition_cap():
    # w2 sits just off the real root t = -3.857 of det(K0 + t K1), K_i the
    # sample third-cumulant slices, so cond(G(w2)) is 5.3e10, above
    # COND_CAP = 1e10.  Every entry point checks the anchor by that one
    # rule and reports the same condition estimate.
    shocks = np.random.default_rng(0).standard_exponential((2_000, 2))
    x = shocks @ np.array([[1.0, 0.5], [0.3, 1.0]]).T
    k0, k1 = ci.third_cumulants(x)
    a, c = np.linalg.det(k1), np.linalg.det(k0)
    roots = np.roots([a, np.linalg.det(k0 + k1) - a - c, c])
    t = roots[np.argmin(np.abs(roots + 3.857))]
    assert t == pytest.approx(-3.857, abs=1e-3)
    probes = ci.ProbeVectors.draw(2, 0, w2=[1.0, t * (1.0 + 1e-10)])
    pattern = ci.SUPPLY_DEMAND_PATTERN
    calls = {
        "estimate_demixing": lambda: ci.estimate_demixing(x, probes),
        "delta_variance": lambda: ci.delta_variance(x, probes),
        "delta_variance_labeled": lambda: ci.delta_variance_labeled(x, probes, pattern),
        "demixing_jackknife": lambda: ci.demixing_jackknife(x, probes),
        "demixing_jackknife labeled": lambda: ci.demixing_jackknife(x, probes, pattern),
        "wald_test delta": lambda: ci.wald_test(x, probes, method="delta"),
        "wald_test jackknife": lambda: ci.wald_test(x, probes, method="jackknife"),
    }
    conds = {}
    for name, call in calls.items():
        with pytest.raises(IllConditionedError, match="numerically singular") as err:
            call()
        conds[name] = err.value.cond
    assert len(set(conds.values())) == 1, conds
    assert conds["estimate_demixing"] == pytest.approx(5.3e10, rel=0.01)


def same_bits(a, b):
    """Every field of two result dataclasses holds the same bits."""
    for field in dataclasses.fields(a):
        got, want = getattr(a, field.name), getattr(b, field.name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name


@pytest.mark.parametrize("view", ["every other row", "column slice"])
def test_memo_hits_a_strided_view(view, monkeypatch):
    # The held record keeps the caller's strides, so a view that is neither
    # C- nor F-contiguous hits it like any other layout: one monomial
    # matrix for the analysis, and each output that of a cold call.
    x = gen_composite(CompositeDgpConfig(n=400, k=0.2, seed=21), 0).x
    if view == "every other row":
        y = x[::2]
    else:
        y = np.column_stack([x, x[:, 0]])[:, :2]
    assert not (y.flags.c_contiguous or y.flags.f_contiguous)
    probes = ci.ProbeVectors.draw(2, 21)
    calls = [lambda: ci.demixing_jackknife(y, probes),
             lambda: ci.wald_test(y, probes, method="jackknife"),
             lambda: ci.delta_variance(y, probes)]
    want = [cold(call) for call in calls]
    _pipeline._record = None
    built = count_monomial_matrices(monkeypatch)
    got = [call() for call in calls]
    assert built == [y.shape]
    for a, b in zip(got, want):
        same_bits(a, b)


def _resampling_calls(d: int):
    """The resampling entry points on one sample, with a sign pattern of
    distinct rows for the labeled ones."""
    pattern = np.ones((d, d), dtype=int) - 2 * np.tri(d, k=-1, dtype=int)
    return {
        "delta_variance": lambda x, p: ci.delta_variance(x, p),
        "delta_variance_labeled": lambda x, p: ci.delta_variance_labeled(x, p, pattern),
        "demixing_jackknife": lambda x, p: ci.demixing_jackknife(x, p),
        "demixing_jackknife labeled": lambda x, p: ci.demixing_jackknife(x, p, pattern),
        "wald_test delta": lambda x, p: ci.wald_test(x, p, method="delta"),
        "wald_test jackknife": lambda x, p: ci.wald_test(x, p, method="jackknife"),
    }


_BAD_PROBES = {
    "short w1": (np.ones(1), np.ones(2), "must have shape \\(2,\\), got \\(1,\\)"),
    "long w2": (np.ones(2), np.ones(3), "must have shape \\(2,\\), got \\(3,\\)"),
    "nan w1": (np.array([0.5, np.nan]), np.ones(2), "non-finite"),
    "inf w2": (np.ones(2), np.array([1.0, np.inf]), "non-finite"),
}


@pytest.mark.parametrize("call", list(_resampling_calls(2)))
@pytest.mark.parametrize("bad", list(_BAD_PROBES))
def test_resampling_entry_points_check_the_probes(call, bad):
    # As estimate_demixing does: a probe of the wrong length or with a
    # non-finite entry is the caller's error, not a broadcast failure or a
    # singular contraction.
    x, _, _ = memo_case(2)
    w1, w2, message = _BAD_PROBES[bad]
    with pytest.raises(ci.InvalidInputError, match=message):
        _resampling_calls(2)[call](x, ci.ProbeVectors(w1=w1, w2=w2))


@pytest.mark.parametrize("entry", [(2, 0), (0, 2), (0, 1.5), (0,), (0, 1, 0), (-1, 0),
                                   ((0, 1), 1), [[0, 1], 1], ((0, 1), (1, 0))],
                         ids=repr)
def test_labeled_entry_points_refuse_an_entry_outside_the_matrix(entry):
    x, probes, pattern = memo_case(2)
    for call in (ci.delta_variance_labeled, ci.demixing_jackknife):
        with pytest.raises(ci.InvalidInputError,
                           match=r"entry must be two integers in \[0, 2\)"):
            call(x, probes, pattern, entry=entry)
    # Integers of any integer type, in any sequence, are entries.
    want = ci.demixing_jackknife(x, probes, pattern, entry=(1, 0))
    same_bits(ci.demixing_jackknife(x, probes, pattern, entry=[np.int64(1), 0]), want)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("call", list(_resampling_calls(3)))
def test_resampling_entry_points_refuse_fewer_than_d_plus_1_rows(call, n):
    # The bound and message of estimate_demixing, ahead of the jackknife's
    # own minimum and of any numerical failure.
    x = np.random.default_rng(24).standard_exponential((n, 3))
    probes = ci.ProbeVectors.draw(3, 5)
    with pytest.raises(ci.InvalidInputError) as err:
        _resampling_calls(3)[call](x, probes)
    assert str(err.value) == f"need at least d + 1 = 4 observations, got {n}"
    with pytest.raises(ci.InvalidInputError) as est:
        ci.estimate_demixing(x, probes)
    assert str(est.value) == str(err.value)


@pytest.mark.parametrize("method", ["delta", "jackknife"])
def test_a_singular_resample_raises_for_one_sample(method, monkeypatch):
    # A G(w2) that is singular at one resample alone gets NaN rows and a
    # flag (demix_contractions); the spread is then not finite, and the one
    # sample's entry point raises for it after the anchor checks.
    x, probes, _ = memo_case(2)
    real = _pipeline._stack_rows

    def one_singular(ms, d, w1, w2, anchor):
        out = real(ms, d, w1, w2, anchor)
        rows, failed = out.rows.copy(), out.ill_conditioned.copy()
        rows[3], failed[3] = np.nan, True
        return out._replace(rows=rows, ill_conditioned=failed)

    monkeypatch.setattr(_pipeline, "_stack_rows", one_singular)
    call = ci.delta_variance if method == "delta" else ci.demixing_jackknife
    message = f"singular contraction at w2 in a {method} resample"
    for run in (lambda: call(x, probes), lambda: ci.wald_test(x, probes, method=method)):
        with pytest.raises(IllConditionedError, match=message) as err:
            cold(run)
        assert err.value.cond == np.inf
