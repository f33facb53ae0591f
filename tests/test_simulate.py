import functools
import os
import subprocess
import sys

import numpy as np
import pytest

import cumident as ci
import warnings

from cumident import _pipeline, simulate
from cumident.errors import (IllConditionedError, LabelingAmbiguityError,
                             WeakInstrumentError)
from cumident.inference import (_FAIL_MOMENTS, _FAIL_RESAMPLE, _demixing_statistic,
                                _resampled)
from cumident.moments import _centered_moments
from cumident.overid import _wald_stack
from cumident.simulate import (
    FAILURE_REASONS,
    CompositeDgpConfig,
    McResult,
    _assemble,
    _check_failure_cap,
    _coverage_rep,
    _draw_primitives,
    _eigen_slopes,
    _mse_rep,
    _power_rep,
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


def _slope_omegas(samples, probes, method):
    """Omega, the sqrt(n)-scale variance, of the labeled slope of each sample
    from one resampling kernel call, as Table 2 takes it, and the kernel's
    result."""
    res = _resampled([_pipeline.MomentRecord.of(x) for x in samples], probes,
                     _demixing_statistic(2, ci.SUPPLY_DEMAND_PATTERN, (0, 1)),
                     method)
    return res.omega[:, 0, 0], res


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


def test_samples_at_a_smaller_n_are_row_prefixes_bit_for_bit():
    # The generator applies its fixed matrices in elementwise arithmetic, so
    # no row's bits depend on how many rows are drawn.
    cfg = CompositeDgpConfig(n=5_000, k=0.0, seed=7)
    ks = (0.0, 0.1, 0.5, 2.0)
    for rep in range(2):
        s, z, big = simulate._samples(cfg, rep, (5_000,), ks)
        for n in (1, 7, 15, 333, 1_000, 4_999):
            s_n, z_n, small = simulate._samples(cfg, rep, (n,), ks)
            assert small.shape == (len(ks), n, 2)
            assert small.tobytes() == np.ascontiguousarray(big[:, :n]).tobytes()
            assert s_n.tobytes() == s[:n].tobytes() and z_n.tobytes() == z[:n].tobytes()
            for b, k in enumerate(ks):
                assert _oracle_sample(cfg, rep, n, k).tobytes() == small[b].tobytes()


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
    worker = functools.partial(_coverage_rep, cfg, (n,), level, methods, probes)
    flags = np.array([worker(rep)[0][0] for rep in range(reps)])
    expected = np.empty_like(flags)
    for rep in range(reps):
        x = gen_composite(cfg, rep).x
        jk = ci.demixing_jackknife(x, probes, ci.SUPPLY_DEMAND_PATTERN, (0, 1))
        point = jk.full_estimate[0]
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


def test_coverage_cell_centers_each_sample_once(monkeypatch):
    # The point, the delete-1 stack and the delta method's moment covariance
    # all come from one moment record per cell, and so from one centering
    # of its sample; with the delta method, Sigma_m comes with the moments.
    calls = []
    real = _pipeline._centered_moments

    def counted(x, *args, **kwargs):
        calls.append((np.shape(x), kwargs.get("covariance", False)))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(_pipeline, "_centered_moments", counted)
    cfg = CompositeDgpConfig(n=400, k=0.2, seed=19)
    probes = ci.ProbeVectors.draw(2, 19)
    ns = (200, 400)
    _coverage_rep(cfg, ns, 0.5, ("jackknife", "delta"), probes, 0)
    assert calls == [((n, 2), True) for n in ns]
    calls.clear()
    _coverage_rep(cfg, ns, 0.5, ("jackknife",), probes, 0)
    assert calls == [((n, 2), False) for n in ns]


def test_coverage_rejects_jackknife_below_its_minimum_up_front():
    with pytest.raises(ci.InvalidInputError, match="jackknife requires n >= 30"):
        run_coverage_experiment([20, 200], k=0.5, reps=3, seed=13)
    res = run_coverage_experiment([20, 200], k=0.5, reps=1, seed=13,
                                  methods=("delta",), level=1.0)
    np.testing.assert_array_equal(res.values, 1.0)


_RUNS = {
    "mse": lambda ns, ks, kurt: run_mse_experiment(ns, ks, 2, 1, kurtoses=kurt),
    "coverage": lambda ns, ks, kurt: run_coverage_experiment(ns, ks[0], 2, 1,
                                                             kurtoses=kurt),
    "power": lambda ns, ks, kurt: run_overid_power_experiment(ns, ks, 2, 1,
                                                              kurtoses=kurt),
}


@pytest.mark.parametrize("run", sorted(_RUNS))
@pytest.mark.parametrize("ns, ks, kurtoses", [
    ((0, 300), (0.0,), (3.0, 4.0, 5.0)),
    ((-5, 300), (0.0,), (3.0, 4.0, 5.0)),
    ((300,), (-0.5,), (3.0, 4.0, 5.0)),
    ((300,), (np.nan,), (3.0, 4.0, 5.0)),
    ((300,), (0.0,), (3.0, 4.0, np.inf)),
    ((300,), (0.0,), (3.0, np.nan, 5.0)),
    ((300.7,), (0.0,), (3.0, 4.0, 5.0)),
], ids=["n=0", "n=-5", "k<0", "k=nan", "kurtosis=inf", "kurtosis=nan", "n=300.7"])
def test_experiments_reject_bad_arguments_before_any_replication(
        monkeypatch, run, ns, ks, kurtoses):
    def reached(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulate, "_map_reps", reached)
    with pytest.raises(ci.InvalidInputError):
        _RUNS[run](ns, ks, kurtoses)


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_experiments_refuse_fewer_than_d_plus_1_observations_up_front(monkeypatch, run):
    # Every table refuses n = 2 < d + 1 before any replication, where Table 1
    # used to fail each cell through its 1 % cap as a RuntimeError and
    # Tables 2 and 3 raised from inside a replication.
    def reached(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulate, "_map_reps", reached)
    with pytest.raises(ci.InvalidInputError,
                       match=r"sample sizes ns must be integers >= d \+ 1 = 3, got \(2, 300\)"):
        _RUNS[run]((2, 300), (0.0,), (3.0, 4.0, 5.0))


def test_table2_delta_flags_sixth_moments_out_of_range(monkeypatch):
    # At 1e-55 the sample's sixth moments underflow: delta_variance_labeled
    # raises on it, so Table 2 counts its delta cell as ill-conditioned.
    cfg = CompositeDgpConfig(n=500, k=0.5, seed=1)
    x = gen_composite(cfg, 0).x
    probes = ci.ProbeVectors.draw(2, 1)
    omega, _ = _slope_omegas([x], probes, "delta")
    assert omega[0] / 500 == pytest.approx(0.04625, rel=1e-3)
    small = x * 1e-55
    with pytest.raises(ValueError, match="sixth-moment"):
        ci.delta_variance_labeled(small, probes, ci.SUPPLY_DEMAND_PATTERN)
    omega, res = _slope_omegas([small], probes, "delta")
    assert np.isnan(omega[0]) and res.failure[0] == _FAIL_MOMENTS
    monkeypatch.setattr(simulate, "_samples", lambda *args: (None, None, [small]))
    values, codes = _coverage_rep(cfg, (500,), 0.95, ("delta",), probes, 0)
    assert np.isnan(values).all()
    assert codes.tolist() == [[FAILURE_REASONS.index("ill_conditioned") + 1]]


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


def test_write_mc_csv_header_names_the_package_version(tmp_path, monkeypatch):
    # The table header reports the version that the run manifest records.
    import cumident.simulate as simulate

    res = McResult("rejection", (100,), (0.0,), ("wald",), np.zeros((1, 1, 1)),
                   np.zeros((1, 1, 1), dtype=int), 1, 0)
    path = tmp_path / "t3.csv"
    write_mc_csv(res, path)
    assert path.read_text().splitlines()[0] == f"# cumident {ci.__version__}"
    monkeypatch.setattr(simulate, "__version__", "9.8.7")
    write_mc_csv(res, path)
    assert path.read_text().splitlines()[0] == "# cumident 9.8.7"


def test_worker_count_env(monkeypatch):
    from cumident.simulate import worker_count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    monkeypatch.delenv("CUMIDENT_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("CUMIDENT_THREADS", "3")
    assert worker_count() == 3


def test_worker_count_capped_at_cpu_count(monkeypatch):
    # The cap is the CPUs this process may use, which can be fewer than the
    # host has; the host's count serves where there is no affinity set.
    from cumident.simulate import worker_count
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5, 7},
                        raising=False)
    monkeypatch.setenv("CUMIDENT_THREADS", "1000000")
    assert worker_count() == 4
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", "3e2"])
def test_worker_count_rejects_non_positive_or_non_integer(monkeypatch, value):
    from cumident.simulate import worker_count
    monkeypatch.setenv("CUMIDENT_THREADS", value)
    with pytest.raises(ValueError, match="CUMIDENT_THREADS"):
        worker_count()


def test_parallel_replications_match_serial(monkeypatch):
    runs = [
        (run_mse_experiment, dict(ns=[300], ks=[0.0, 0.3], reps=12, seed=18)),
        (run_coverage_experiment, dict(ns=[200, 300], k=0.3, reps=6, seed=18)),
        (run_overid_power_experiment,
         dict(ns=[200, 300], ks=[0.0, 0.3], reps=12, seed=18)),
    ]
    for run, kw in runs:
        monkeypatch.delenv("CUMIDENT_THREADS", raising=False)
        serial = run(**kw)
        monkeypatch.setenv("CUMIDENT_THREADS", "2")
        parallel = run(**kw)
        np.testing.assert_array_equal(serial.values, parallel.values)
        np.testing.assert_array_equal(serial.failures, parallel.failures)
        for reason in FAILURE_REASONS:
            np.testing.assert_array_equal(serial.failure_reasons[reason],
                                          parallel.failure_reasons[reason])


def test_table3_makes_one_sigma_m_call_per_n(monkeypatch):
    # Work-count guard: the delta-method Wald tests of a replication get the
    # Sigma_m of every k at one n from one batched call.
    from cumident import moments

    calls = []
    real = moments._moment_covariance

    def counted(xt, m_hat, *args):
        calls.append(xt.shape)
        return real(xt, m_hat, *args)

    monkeypatch.setattr(moments, "_moment_covariance", counted)
    monkeypatch.setattr(_pipeline, "_moment_covariance", counted)
    cfg = CompositeDgpConfig(n=1_000, k=0.0, seed=5)
    ns, ks = (500, 1_000), (0.0, 0.2, 0.4)
    _power_rep(cfg, ns, ks, 0.05, ci.ProbeVectors.draw(2, 5), "delta", 0)
    assert calls == [(len(ks), 2, n) for n in ns]
    calls.clear()
    _power_rep(cfg, ns, ks, 0.05, ci.ProbeVectors.draw(2, 5), "jackknife", 0)
    assert calls == []


def test_import_leaves_the_process_pool_unloaded():
    # The pool's modules load only when a run uses more than one worker.
    code = ("import sys, cumident.cli; print(sorted("
            "{'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(ci.__file__))]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_table1_in_a_process_pool_equals_one_worker(monkeypatch):
    # Two workers, on any machine: the pool path runs and gives the bits of
    # the serial run.
    import concurrent.futures

    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    kw = dict(ns=[200, 400], ks=[0.0, 0.3], reps=4, seed=31)
    monkeypatch.delenv("CUMIDENT_THREADS", raising=False)
    one = run_mse_experiment(**kw)
    monkeypatch.setenv("CUMIDENT_THREADS", "2")
    two = run_mse_experiment(**kw)
    assert pools == [2]
    assert two.values.tobytes() == one.values.tobytes()
    np.testing.assert_array_equal(two.failures, one.failures)
    for reason in FAILURE_REASONS:
        np.testing.assert_array_equal(two.failure_reasons[reason],
                                      one.failure_reasons[reason])


# A grid small enough that sign labeling fails in some cells.
_SMALL_NS, _SMALL_KS = (15, 30, 60), (0.0, 0.5, 2.0)


def _oracle_sample(cfg, rep, n, k):
    """A replication's sample drawn and assembled at n itself, not as a row
    prefix of the largest n."""
    s, e, eps, _ = _draw_primitives(cfg, rep, n)
    return _assemble(s, e, eps, k)


@pytest.mark.filterwarnings("ignore::cumident.EigenGapWarning")
@pytest.mark.filterwarnings("ignore::cumident.ComplexResidueWarning")
def test_table1_eigen_cells_match_the_per_cell_oracle():
    cfg = CompositeDgpConfig(n=max(_SMALL_NS), k=0.0, seed=31)
    probes = ci.ProbeVectors.draw(2, 31)
    worker = functools.partial(_mse_rep, cfg, _SMALL_NS, _SMALL_KS, ("eigen",),
                               probes)
    codes_seen = set()
    for rep in range(12):
        out, codes = worker(rep)
        for a, n in enumerate(_SMALL_NS):
            for b, k in enumerate(_SMALL_KS):
                x = _oracle_sample(cfg, rep, n, k)
                try:
                    lab = ci.label_by_signs(
                        ci.estimate_demixing(x, probes), ci.SUPPLY_DEMAND_PATTERN,
                        on_tie="error")
                except LabelingAmbiguityError:
                    want, reason = np.nan, "labeling"
                except IllConditionedError:
                    want, reason = np.nan, "ill_conditioned"
                else:
                    want, reason = (lab.lambda_final[0, 1] - ci.B1_TRUE) ** 2, None
                got = out[a, b, 0]
                assert got.tobytes() == np.float64(want).tobytes()
                code = codes[a, b, 0]
                assert (FAILURE_REASONS[code - 1] if code else None) == reason
                codes_seen.add(reason)
    assert codes_seen == {None, "labeling"}


def test_table1_iv_cells_are_iv_2sls_bit_for_bit():
    # One IV reduction per n serves every k and both instruments; each
    # entry is the one-sample iv_2sls of its cell.
    cfg = CompositeDgpConfig(n=max(_SMALL_NS), k=0.0, seed=31)
    estimators = ("iv2", "eigen", "iv1")
    worker = functools.partial(_mse_rep, cfg, _SMALL_NS, _SMALL_KS, estimators,
                               ci.ProbeVectors.draw(2, 31))
    for rep in range(4):
        out, codes = worker(rep)
        s, _, _, z = _draw_primitives(cfg, rep, max(_SMALL_NS))
        instruments = {"iv1": s[:, 1], "iv2": np.sqrt(0.3) * s[:, 1] + np.sqrt(0.7) * z}
        for a, n in enumerate(_SMALL_NS):
            for b, k in enumerate(_SMALL_KS):
                x = _oracle_sample(cfg, rep, n, k)
                for c, name in enumerate(estimators):
                    if name == "eigen":
                        continue
                    b1 = -iv_2sls(x[:, 0], x[:, 1], instruments[name][:n])
                    assert out[a, b, c].tobytes() == np.float64((b1 - ci.B1_TRUE) ** 2).tobytes()
                    assert codes[a, b, c] == 0


def test_iv_kernel_flags_a_weak_instrument_in_its_own_cell():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 100))
    z = rng.standard_normal(100)
    xd = x[1] - x[1].mean()
    z = z - z.mean()
    z -= xd * (z @ xd) / (xd @ xd)  # exactly orthogonal to x[1] only
    y = rng.standard_normal((3, 100))
    slopes, _, weak = simulate._iv_slopes(y, x, z)
    np.testing.assert_array_equal(weak, [False, True, False])
    assert np.isnan(slopes[1])
    for i in (0, 2):
        assert slopes[i].tobytes() == np.float64(iv_2sls(y[i], x[i], z)).tobytes()


@pytest.mark.filterwarnings("ignore::cumident.EigenGapWarning")
@pytest.mark.filterwarnings("ignore::cumident.ComplexResidueWarning")
def test_table2_cells_and_variances_match_the_per_cell_oracle():
    ns, k, level = (30, 60, 120), 2.0, 0.5
    cfg = CompositeDgpConfig(n=max(ns), k=k, seed=39)
    probes = ci.ProbeVectors.draw(2, 39)
    methods = ("jackknife", "delta")
    worker = functools.partial(_coverage_rep, cfg, ns, level, methods, probes)
    codes_seen, flags = set(), []
    for rep in range(10):
        out, codes = worker(rep)
        samples = [_oracle_sample(cfg, rep, n, k) for n in ns]
        jk_stack = _slope_omegas(samples, probes, "jackknife")[0]
        dv_stack = _slope_omegas(samples, probes, "delta")[0]
        for a, (n, x) in enumerate(zip(ns, samples)):
            try:
                lab = ci.label_by_signs(
                    ci.estimate_demixing(x, probes), ci.SUPPLY_DEMAND_PATTERN,
                    on_tie="error")
            except LabelingAmbiguityError:
                reason = "labeling"
            except IllConditionedError:
                reason = "ill_conditioned"
            else:
                reason = None
            got = [FAILURE_REASONS[c - 1] if c else None for c in codes[a]]
            assert got == [reason] * len(methods)
            codes_seen.add(reason)
            if reason is not None:
                assert np.isnan(out[a]).all()
                continue
            point = lab.lambda_final[0, 1]
            jk = ci.demixing_jackknife(x, probes, ci.SUPPLY_DEMAND_PATTERN, (0, 1))
            dv = ci.delta_variance_labeled(x, probes, ci.SUPPLY_DEMAND_PATTERN, (0, 1))
            assert jk.full_estimate[0] == point and not jk.full_tie
            assert (jk_stack[a] / n).tobytes() == jk.variance[0, 0].tobytes()
            assert dv_stack[a].tobytes() == dv.sigma_u[0, 0].tobytes()
            intervals = (
                ci.jackknife_confidence_interval(point, jk.variance[0, 0], level),
                ci.confidence_interval(point, dv.sigma_u[0, 0], n, level),
            )
            want = [float(lo <= ci.B1_TRUE <= hi) for lo, hi in intervals]
            np.testing.assert_array_equal(out[a], want)
            flags.extend(want)
    assert codes_seen == {None, "labeling"}
    assert 0.0 < np.mean(flags) < 1.0


@pytest.mark.filterwarnings("ignore::cumident.EigenGapWarning")
@pytest.mark.filterwarnings("ignore::cumident.ComplexResidueWarning")
def test_table3_cells_and_statistics_match_the_per_cell_oracle():
    cfg = CompositeDgpConfig(n=max(_SMALL_NS), k=0.0, seed=32)
    probes = ci.ProbeVectors.draw(2, 32)
    worker = functools.partial(_power_rep, cfg, _SMALL_NS, _SMALL_KS, 0.3,
                               probes, "delta")
    decisions = []
    for rep in range(8):
        out, codes = worker(rep)
        samples = [_oracle_sample(cfg, rep, n, k)
                   for n in _SMALL_NS for k in _SMALL_KS]
        stack = _wald_stack(map(_pipeline.MomentRecord.of, samples), probes)
        for i, x in enumerate(samples):
            test = ci.wald_test(x, probes, method="delta")
            assert stack.statistic[i] == test.statistic
            assert stack.p_value[i] == test.p_value
            assert stack.r_hat[i].tobytes() == test.r_hat.tobytes()
            assert stack.omega[i].tobytes() == test.omega_hat.tobytes()
        want = np.reshape([float(p < 0.3) for p in stack.p_value], out.shape)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(codes, 0)
        decisions.append(out)
    assert 0.0 < np.mean(decisions) < 1.0


def _with_constant_column(x):
    """`x` with its second column made constant: G(w2) is singular."""
    return np.column_stack([x[:, 0], np.full(len(x), 2.0)])


@pytest.mark.filterwarnings("ignore::cumident.EigenGapWarning")
def test_planted_singular_contraction_fails_only_its_cell():
    cfg = CompositeDgpConfig(n=400, k=0.2, seed=33)
    probes = ci.ProbeVectors.draw(2, 33)
    samples = [gen_composite(cfg, rep).x for rep in range(5)]
    samples[2] = _with_constant_column(samples[2])
    with pytest.raises(IllConditionedError) as scalar:
        ci.estimate_demixing(samples[2], probes)
    with pytest.raises(IllConditionedError) as scalar_wald:
        ci.wald_test(samples[2], probes)
    assert scalar.value.cond == scalar_wald.value.cond

    ms = np.stack([_centered_moments(x)[1] for x in samples])
    demixed = _pipeline.demix_rows(ms, 2, probes.w1, probes.w2,
                                   cond_cap=ci.identify.COND_CAP)
    np.testing.assert_array_equal(demixed.ill_conditioned, [0, 0, 1, 0, 0])
    assert demixed.cond_g2[2] == scalar.value.cond
    assert np.isnan(demixed[0][2]).all()

    slopes, codes = _eigen_slopes(ms, probes)
    stack = _wald_stack(map(_pipeline.MomentRecord.of, samples), probes)
    jk = _slope_omegas(samples, probes, "jackknife")[0] / 400
    dv = _slope_omegas(samples, probes, "delta")[0]
    ill = FAILURE_REASONS.index("ill_conditioned") + 1
    np.testing.assert_array_equal(codes, [0, 0, ill, 0, 0])
    np.testing.assert_array_equal(stack.anchors.ill_conditioned, [0, 0, 1, 0, 0])
    assert np.isnan(stack.statistic[2])
    np.testing.assert_array_equal(np.isnan(jk), [0, 0, 1, 0, 0])
    np.testing.assert_array_equal(np.isnan(dv), [0, 0, 1, 0, 0])
    pattern = ci.SUPPLY_DEMAND_PATTERN
    for i in (0, 1, 3, 4):
        lab = ci.label_by_signs(ci.estimate_demixing(samples[i], probes), pattern)
        assert slopes[i] == lab.lambda_final[0, 1]
        assert stack.statistic[i] == ci.wald_test(samples[i], probes).statistic
        assert jk[i] == ci.demixing_jackknife(samples[i], probes, pattern).variance[0, 0]
        assert dv[i] == ci.delta_variance_labeled(samples[i], probes, pattern).sigma_u[0, 0]


def test_singular_finite_difference_point_fails_only_its_sample(monkeypatch):
    cfg = CompositeDgpConfig(n=400, k=0.2, seed=34)
    probes = ci.ProbeVectors.draw(2, 34)
    samples = [gen_composite(cfg, rep).x for rep in range(3)]
    fd_points = 2 * 9
    offdiag = _pipeline.offdiag_from_rows

    def one_singular_point(rows, ms, d):
        out = offdiag(rows, ms, d)
        if len(ms) == len(samples) * fd_points:
            out[fd_points + 3] = np.nan  # a point of the second sample
        return out

    monkeypatch.setattr(_pipeline, "offdiag_from_rows", one_singular_point)
    stack = _wald_stack(map(_pipeline.MomentRecord.of, samples), probes)
    np.testing.assert_array_equal(stack.failure, [0, _FAIL_RESAMPLE, 0])
    assert np.isnan(stack.statistic[1]) and np.isfinite(stack.statistic[[0, 2]]).all()
    monkeypatch.setattr(_pipeline, "offdiag_from_rows", offdiag)
    assert stack.statistic[0] == ci.wald_test(samples[0], probes).statistic


def test_singular_entry_of_a_2x2_stack_is_flagged_alone():
    rng = np.random.default_rng(35)
    g1 = rng.standard_normal((4, 2, 2))
    g2 = rng.standard_normal((4, 2, 2))
    g2[1] = [[1.0, 2.0], [2.0, 4.0]]
    demixed = _pipeline.demix_contractions(g1, g2)
    np.testing.assert_array_equal(demixed.ill_conditioned, [0, 1, 0, 0])
    assert np.isnan(demixed.rows[1]).all() and np.isnan(demixed.eigenvalues[1]).all()
    for i in (0, 2, 3):
        one = _pipeline.demix_contractions(g1[i], g2[i])
        assert demixed.rows[i].tobytes() == one.rows.tobytes()
    assert _pipeline.demix_contractions(g1[1], g2[1]).ill_conditioned
    x = _with_constant_column(np.random.default_rng(36).standard_exponential((50, 2)))
    # The anchor is checked before any delete-1 resample.
    with pytest.raises(IllConditionedError, match="contraction at w2 is numerically"):
        ci.demixing_jackknife(x, ci.ProbeVectors(w1=np.array([0.3, 0.6]), w2=np.ones(2)))


def test_tables_emit_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_mse_experiment([200, 400], [0.0, 0.4], reps=3, seed=36)
        run_coverage_experiment([200, 400], k=0.4, reps=3, seed=36)
        run_overid_power_experiment([200, 400], [0.0, 0.4], reps=3, seed=36)


def test_failure_reasons_sum_to_failures_and_reach_the_csv(tmp_path):
    res = run_mse_experiment([300], [0.0, 0.3], reps=4, seed=37)
    assert set(res.failure_reasons) == set(FAILURE_REASONS)
    np.testing.assert_array_equal(sum(res.failure_reasons.values()), res.failures)

    counts = {r: np.zeros((1, 2, 1), dtype=int) for r in FAILURE_REASONS}
    counts["labeling"][0, 1, 0] = 2
    counts["weak_instrument"][0, 0, 0] = 1
    planted = McResult("mse", (300,), (0.0, 0.3), ("eigen",),
                       np.zeros((1, 2, 1)), np.array([[[1], [2]]]), 100, 37,
                       counts)
    write_mc_csv(planted, tmp_path / "t1.csv")
    header = [ln for ln in (tmp_path / "t1.csv").read_text().splitlines()
              if ln.startswith("# failures")]
    assert header == ["# failures-total: 3"] + [
        f"# failures-{r}: {int(counts[r].sum())}" for r in FAILURE_REASONS]
