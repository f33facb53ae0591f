import os

import numpy as np
import pytest

import cumident as ci
from cumident import _pipeline
from cumident.errors import WeakInstrumentError
from cumident.simulate import (
    CompositeDgpConfig,
    _check_failure_cap,
    _CoverageRep,
    _draw_primitives,
    gen_composite,
    iv_2sls,
    load_experiment_config,
    parse_experiment_config,
    pearson_symmetric,
    run_coverage_experiment,
    run_mse_experiment,
    run_overid_power_experiment,
    write_mc_csv,
)


def _kurt(x):
    xc = x - x.mean()
    return np.mean(xc**4) / np.mean(xc**2) ** 2


def test_pearson_normal_case():
    x = pearson_symmetric(3.0, 1_000_000, np.random.default_rng(0))
    assert _kurt(x) == pytest.approx(3.0, abs=0.05)
    assert x.var() == pytest.approx(1.0, abs=0.01)


def test_pearson_heavy_tail_case():
    x = pearson_symmetric(5.0, 1_000_000, np.random.default_rng(1))
    assert _kurt(x) == pytest.approx(5.0, abs=0.2)
    assert x.var() == pytest.approx(1.0, abs=0.01)
    assert abs(np.mean((x - x.mean()) ** 3)) < 0.05


def test_pearson_unit_variance_across_family():
    for kappa in (3.0, 4.0, 5.0):
        x = pearson_symmetric(kappa, 1_000_000, np.random.default_rng(2))
        assert x.var() == pytest.approx(1.0, abs=0.01)


def test_pearson_rejects_platykurtic():
    with pytest.raises(ValueError):
        pearson_symmetric(2.5, 10, np.random.default_rng(3))


def test_config_validation():
    with pytest.raises(ValueError):
        CompositeDgpConfig(n=0, k=0.1)
    with pytest.raises(ValueError):
        CompositeDgpConfig(n=10, k=-0.1)
    with pytest.raises(ValueError):
        CompositeDgpConfig(n=10, k=0.1, kurtoses=(2.0, 4.0, 5.0))


def test_gen_composite_k_zero_structural_errors_are_shifters():
    cfg = CompositeDgpConfig(n=1_000, k=0.0, seed=4)
    draw = gen_composite(cfg, 0)
    structural = draw.x @ ci.LAMBDA_TRUE.T
    np.testing.assert_allclose(structural, draw.s, atol=1e-12)


def test_gen_composite_shifter_skewness():
    cfg = CompositeDgpConfig(n=1_000_000, k=0.3, seed=5)
    draw = gen_composite(cfg, 0)
    for col in draw.s.T:
        cc = col - col.mean()
        skew = np.mean(cc**3) / np.mean(cc**2) ** 1.5
        assert skew == pytest.approx(2.0, abs=0.1)


def test_gen_composite_measurement_error_correlation():
    cfg = CompositeDgpConfig(n=1_000_000, k=1.0, seed=6)
    s, e, eps, _ = _draw_primitives(cfg, 0, cfg.n)
    corr = np.corrcoef(eps.T)[0, 1]
    assert corr == pytest.approx(-0.9, abs=0.01)


def test_common_random_numbers_prefix():
    cfg = CompositeDgpConfig(n=500, k=0.2, seed=7)
    small = _draw_primitives(cfg, 3, 100)
    big = _draw_primitives(cfg, 3, 400)
    for a, b in zip(small, big):
        np.testing.assert_array_equal(a, b[:100])


def test_noise_correlation_invariant_in_k():
    cfg = CompositeDgpConfig(n=1_000_000, k=0.0, seed=8)
    corrs = []
    for k in (0.2, 0.5):
        draw_cfg = CompositeDgpConfig(n=1_000_000, k=k, seed=8)
        draw = gen_composite(draw_cfg, 0)
        noise = draw.x @ ci.LAMBDA_TRUE.T - draw.s
        corrs.append(np.corrcoef(noise.T)[0, 1])
    assert corrs[0] == pytest.approx(corrs[1], abs=0.01)


def test_iv_ols_case():
    x = np.linspace(-3, 4, 100)
    assert iv_2sls(2.0 * x, x, x) == pytest.approx(2.0)


def test_iv_weak_instrument():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(100)
    z = rng.standard_normal(100)
    xd = x - x.mean()
    z = z - z.mean()
    z -= xd * (z @ xd) / (xd @ xd)  # exactly orthogonal to x
    with pytest.raises(WeakInstrumentError):
        iv_2sls(rng.standard_normal(100), x, z)


def test_mse_single_rep_trivial():
    res = run_mse_experiment([200], [0.0], reps=1, seed=10, estimators=("iv1",))
    assert res.values.shape == (1, 1, 1)
    assert res.values[0, 0, 0] >= 0.0


def test_mse_rejects_bad_config():
    with pytest.raises(ValueError):
        run_mse_experiment([200], [0.0], reps=1, seed=10, estimators=())
    with pytest.raises(ValueError):
        run_mse_experiment([200], [0.0], reps=1, seed=10, estimators=("nope",))
    with pytest.raises(ValueError):
        run_mse_experiment([200], [0.0], reps=0, seed=10)


def test_experiment_reproducibility_bitwise():
    kw = dict(ns=[300], ks=[0.0, 0.3], reps=25, seed=11)
    a = run_mse_experiment(**kw)
    b = run_mse_experiment(**kw)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.failures, b.failures)

    pa = run_overid_power_experiment([300], [0.2], reps=10, seed=12)
    pb = run_overid_power_experiment([300], [0.2], reps=10, seed=12)
    np.testing.assert_array_equal(pa.values, pb.values)


def test_coverage_level_one_is_trivial():
    res = run_coverage_experiment([400], k=0.2, reps=5, seed=13, level=1.0)
    np.testing.assert_array_equal(res.values, 1.0)


def test_coverage_flags_match_inference_intervals():
    # At level 0.5 some intervals miss and some cover, so the flags can tell
    # a wrong variance from a right one; level 1 intervals are all infinite.
    n, k, reps, seed, level = 400, 0.2, 6, 19, 0.5
    methods = ("jackknife", "delta")
    cfg = CompositeDgpConfig(n=n, k=k, seed=seed)
    probes = ci.ProbeVectors.draw(2, seed)
    worker = _CoverageRep(cfg, (n,), k, level, methods, probes)
    flags = np.array([worker(rep)[0] for rep in range(reps)])
    expected = np.empty_like(flags)
    for rep in range(reps):
        x = gen_composite(cfg, rep).x
        point, _ = _pipeline.labeled_entry(
            ci.raw_moments(x).values, 2, probes.w1, probes.w2,
            ci.SUPPLY_DEMAND_PATTERN, (0, 1),
        )
        jk = ci.demixing_jackknife(x, probes, ci.SUPPLY_DEMAND_PATTERN, (0, 1))
        dv = ci.delta_variance_labeled(x, probes, ci.SUPPLY_DEMAND_PATTERN, (0, 1))
        intervals = {
            "jackknife": ci.jackknife_confidence_interval(
                point, jk.variance[0, 0], level),
            "delta": ci.confidence_interval(point, dv.sigma_u[0, 0], n, level),
        }
        for c, method in enumerate(methods):
            lo, hi = intervals[method]
            expected[rep, c] = float(lo <= ci.B1_TRUE <= hi)
    np.testing.assert_array_equal(flags, expected)
    assert 0.0 < flags.mean() < 1.0

    res = run_coverage_experiment([n], k=k, reps=reps, seed=seed, level=level)
    np.testing.assert_array_equal(res.values[0, 0], flags.mean(axis=0))


def test_coverage_cell_builds_two_monomial_matrices(monkeypatch):
    # The jackknife returns the labeled full-sample slope and its tie flag,
    # so a cell builds the monomials once for it and once for the delta
    # method, and labels the full sample once.  Every caller builds them
    # through moments._centered_moments.
    import cumident.moments as moments

    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return ci.monomial_matrix(x)

    monkeypatch.setattr(moments, "monomial_matrix", counted)
    cfg = CompositeDgpConfig(n=400, k=0.2, seed=19)
    probes = ci.ProbeVectors.draw(2, 19)
    ns = (200, 400)
    worker = _CoverageRep(cfg, ns, 0.2, 0.5, ("jackknife", "delta"), probes)
    worker(0)
    assert len(calls) == 2 * len(ns)
    calls.clear()
    _CoverageRep(cfg, ns, 0.2, 0.5, ("delta",), probes)(0)
    assert len(calls) == 2 * len(ns)


def test_power_alpha_one_is_trivial():
    res = run_overid_power_experiment([300], [0.3], reps=5, seed=14, alpha=1.0)
    np.testing.assert_array_equal(res.values, 1.0)


def test_failure_cap_enforced():
    failures = np.array([[5, 0], [0, 0]])
    with pytest.raises(RuntimeError, match="cap"):
        _check_failure_cap(failures, reps=100, what="unit test")
    _check_failure_cap(np.zeros((2, 2), dtype=int), reps=100, what="unit test")


def test_load_experiment_config(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        "# comment line\n"
        "table = 3\n"
        "ns = 500, 1000\n"
        "ks = 0, 0.2   # trailing comment\n"
        "reps = 50\n"
        "seed = 99\n"
        "alpha = 0.05\n"
    )
    cfg = load_experiment_config(p)
    assert cfg["table"] == "3"
    assert cfg["ns"] == ["500", "1000"]
    assert cfg["ks"] == ["0", "0.2"]
    assert cfg["alpha"] == "0.05"


def test_parse_experiment_config_reads_lines_as_open_does():
    data = b"# comment\r\ntable = 2\rns = 500, 1000\n\nk = 0.5"
    assert parse_experiment_config(data, "exp.cfg") == {
        "table": "2", "ns": ["500", "1000"], "k": "0.5"}
    with pytest.raises(ValueError, match="exp.cfg: line 3: unknown key"):
        parse_experiment_config(b"table = 2\r\n\r\nbad = 1\r\n", "exp.cfg")


def test_load_experiment_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("tables = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_experiment_config(p)
    p.write_text("reps\n")
    with pytest.raises(ValueError, match="key = value"):
        load_experiment_config(p)


def test_write_mc_csv_layouts(tmp_path):
    mse = run_mse_experiment([200], [0.0], reps=2, seed=15, estimators=("iv1", "iv2"))
    path = tmp_path / "t1.csv"
    write_mc_csv(mse, path)
    lines = path.read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "n,k,iv1,iv2"
    assert any("seed: 15" in ln for ln in lines)

    cov = run_coverage_experiment([200], k=0.2, reps=2, seed=16, level=1.0)
    path2 = tmp_path / "t2.csv"
    write_mc_csv(cov, path2)
    rows = [ln for ln in path2.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "method,n=200"
    assert rows[1].startswith("jackknife,")

    power = run_overid_power_experiment([200], [0.0, 0.3], reps=2, seed=17, alpha=1.0)
    path3 = tmp_path / "t3.csv"
    write_mc_csv(power, path3)
    rows = [ln for ln in path3.read_text().splitlines() if not ln.startswith("#")]
    assert rows[0] == "n,k=0,k=0.3"


def test_worker_count_env(monkeypatch):
    from cumident.simulate import worker_count
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delenv("CUMIDENT_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("CUMIDENT_THREADS", "3")
    assert worker_count() == 3


def test_worker_count_capped_at_cpu_count(monkeypatch):
    from cumident.simulate import worker_count
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("CUMIDENT_THREADS", "1000000")
    assert worker_count() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", "3e2"])
def test_worker_count_rejects_non_positive_or_non_integer(monkeypatch, value):
    from cumident.simulate import worker_count
    monkeypatch.setenv("CUMIDENT_THREADS", value)
    with pytest.raises(ValueError, match="CUMIDENT_THREADS"):
        worker_count()


def test_parallel_replications_match_serial(monkeypatch):
    kw = dict(ns=[300], ks=[0.0, 0.3], reps=12, seed=18)
    monkeypatch.delenv("CUMIDENT_THREADS", raising=False)
    serial = run_mse_experiment(**kw)
    monkeypatch.setenv("CUMIDENT_THREADS", "2")
    parallel = run_mse_experiment(**kw)
    np.testing.assert_array_equal(serial.values, parallel.values)
    np.testing.assert_array_equal(serial.failures, parallel.failures)
