import weakref

import numpy as np
import pytest

import cumident as ci
from cumident import _pipeline, inference, moments, overid
from cumident.errors import IllConditionedError
from cumident.inference import FD_STEP_SCALE, _fd_steps
from cumident.moments import _centered_moments, _moment_covariance
from cumident.simulate import CompositeDgpConfig, _assemble, _draw_primitives, gen_composite
from _brute_force import jackknife_variance


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

    def batch(ms):
        return _pipeline.labeled_entry(
            ms, 2, probes.w1, probes.w2, ci.SUPPLY_DEMAND_PATTERN, (0, 1)
        )

    cfg = CompositeDgpConfig(n=2_000, k=0.5, seed=11)
    ratios = []
    for rep in range(100):
        s, e, eps, _ = _draw_primitives(cfg, rep, 2_000)
        widths = []
        for n in (1_000, 2_000):
            x = _assemble(s[:n], e[:n], eps[:n], 0.5)
            res = ci.delta_variance_statistic(x, batch_statistic=batch)
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
    loo = _pipeline.leave_one_out_moments(_centered_moments(x)[0])
    rows = _pipeline.demix_rows(loo, 2, probes.w1, probes.w2)[0]
    ties = _pipeline.label_signs(rows, ci.SUPPLY_DEMAND_PATTERN)[2]
    assert jk.tie_count == int(ties.sum()) < 80
    assert ci.demixing_jackknife(x, probes).tie_count is None


def test_jackknife_returns_the_full_sample_statistic():
    x = gen_composite(CompositeDgpConfig(n=300, k=0.2, seed=12), 0).x
    probes = ci.ProbeVectors.draw(2, 12)
    m = _centered_moments(x)[1]
    point = _pipeline.labeled_entry(
        m, 2, probes.w1, probes.w2, ci.SUPPLY_DEMAND_PATTERN, (0, 1)
    )
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

    def batch(ms):
        return _pipeline.labeled_entry(
            ms, 2, probes.w1, probes.w2, ci.SUPPLY_DEMAND_PATTERN, (0, 1)
        )

    dv = ci.delta_variance_statistic(x, batch_statistic=batch)
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

    def batch(ms):
        return _pipeline.labeled_entry(
            ms, 2, probes.w1, probes.w2, ci.SUPPLY_DEMAND_PATTERN, (0, 1)
        )

    manual = ci.delta_variance_statistic(x, batch_statistic=batch)
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
    """The delete-1 stack of the held moment record: (demixed, moments)."""
    return _pipeline._record._loo[1]


def count_monomial_matrices(monkeypatch):
    """A list that gets one entry per monomial matrix built from now on."""
    built = []
    real = moments.monomial_matrix

    def counted(data):
        built.append(np.shape(data))
        return real(data)

    monkeypatch.setattr(moments, "monomial_matrix", counted)
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
    # A miss frees the held record, and its delete-1 stack, before it builds
    # the next one.
    old_record = weakref.ref(_pipeline._record)
    old_rows = weakref.ref(memo_entry()[0].rows)
    held_while_building = []

    def monomial_matrix(data):
        held_while_building.append(
            (_pipeline._record is None, old_record() is None, old_rows() is None)
        )
        return real(data)

    real = moments.monomial_matrix
    monkeypatch.setattr(moments, "monomial_matrix", monomial_matrix)
    jk = ci.demixing_jackknife(y, probes)
    dv = ci.delta_variance(y, probes)
    assert held_while_building == [(True, True, True)]
    record = _pipeline._record
    demixed, loo = memo_entry()
    np.testing.assert_array_equal(
        loo, _pipeline.leave_one_out_moments(_centered_moments(y)[0])
    )
    # The record holds a copy of the sample, not the caller's array.
    assert record.x.tobytes() == y.tobytes() and not np.shares_memory(record.x, y)
    assert y.flags.writeable
    arrays = [a for a in demixed if isinstance(a, np.ndarray)]
    assert len(arrays) == 4
    for a in (record.x, record.z, record.m_hat, record.sigma_m(), *arrays, loo):
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
