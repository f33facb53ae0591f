import json

import numpy as np
import pytest

import cumident as ci
from cumident.cli import main


@pytest.fixture()
def sample_csv(tmp_path):
    out = tmp_path / "sim"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("table = 3\nns = 5000\nks = 0\nreps = 2\nseed = 21\n")
    code = main(["simulate", str(cfg), "--emit-sample", "--out", str(out)])
    assert code == 0
    return out / "sample.csv"


@pytest.fixture()
def pattern_file(tmp_path):
    p = tmp_path / "pattern.csv"
    p.write_text("1,1\n-1,1\n")
    return p


def test_simulate_writes_table_and_manifest(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("table = 3\nns = 400\nks = 0, 0.3\nreps = 3\nseed = 5\n")
    assert main(["simulate", str(cfg), "--out", str(out)]) == 0
    table = (out / "table3.csv").read_text()
    assert table.startswith("#")
    assert "manifest: run_manifest.json" in table
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["seed"] == 5
    assert str(cfg) in manifest["inputs"]


def test_simulate_hashes_the_config_bytes_it_parsed(tmp_path, monkeypatch):
    import builtins
    import hashlib
    from pathlib import Path

    out = tmp_path / "run"
    cfg = tmp_path / "exp.cfg"
    data = b"# crlf config\r\ntable = 3\r\nns = 300\r\nks = 0\r\nreps = 2\r\nseed = 5\r\n"
    cfg.write_bytes(data)
    reads = []
    real_read, real_open = Path.read_bytes, builtins.open

    def read_bytes(self):
        reads.append(self)
        return real_read(self)

    def opened(file, *args, **kwargs):
        if str(file) == str(cfg):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    monkeypatch.setattr(builtins, "open", opened)
    assert main(["simulate", str(cfg), "--out", str(out)]) == 0
    assert reads == [cfg]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["inputs"][str(cfg)] == hashlib.sha256(data).hexdigest()


def test_simulate_config_errors_name_the_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("table = 3\n\nreps\n")
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"{cfg}: line 3: expected 'key = value'" in capsys.readouterr().err


def test_simulate_deterministic_outputs(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("table = 1\nns = 300\nks = 0\nreps = 4\nseed = 9\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", str(cfg), "--emit-sample", "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "table1.csv").read_bytes() == (outs[1] / "table1.csv").read_bytes()
    assert (outs[0] / "sample.csv").read_bytes() == (outs[1] / "sample.csv").read_bytes()


def test_estimate_round_trip(sample_csv, pattern_file, tmp_path):
    out = tmp_path / "est"
    code = main([
        "estimate", str(sample_csv), "--seed", "3",
        "--label", f"signs:{pattern_file}", "--se", "both",
        "--out", str(out),
    ])
    assert code == 0
    rows = [
        ln for ln in (out / "estimate_matrix.csv").read_text().splitlines()
        if not ln.startswith("#")
    ][1:]
    got = np.array([[float(v) for v in ln.split(",")[1:]] for ln in rows])
    np.testing.assert_allclose(got, ci.LAMBDA_TRUE, rtol=0.1)
    se_text = (out / "estimate_se.csv").read_text()
    assert "delta" in se_text and "jackknife" in se_text
    assert (out / "estimate_summary.txt").exists()


def test_estimate_unlabeled_and_triangular(sample_csv, tmp_path):
    assert main([
        "estimate", str(sample_csv), "--seed", "3", "--se", "none",
        "--out", str(tmp_path / "u"),
    ]) == 0
    assert main([
        "estimate", str(sample_csv), "--seed", "3", "--label", "triangular",
        "--se", "none", "--out", str(tmp_path / "t"),
    ]) == 0


def test_estimate_rejects_bad_order(sample_csv, tmp_path):
    code = main([
        "estimate", str(sample_csv), "--seed", "3", "--order", "5",
        "--out", str(tmp_path),
    ])
    assert code == 2


def test_estimate_duplicate_pattern_exits_2(sample_csv, tmp_path, capsys):
    # The library rejects the pattern as an argument; it is not a tie.
    bad = tmp_path / "dup.csv"
    bad.write_text("1,1\n1,1\n")
    code = main([
        "estimate", str(sample_csv), "--seed", "3",
        "--label", f"signs:{bad}", "--out", str(tmp_path / "d"),
    ])
    assert code == 2
    assert "sign pattern rows must be pairwise distinct" in capsys.readouterr().err


@pytest.mark.parametrize("entries", ["1,0.5\n-1,1\n", "1,nan\n-1,1\n", "2,1\n-1,1\n"])
def test_estimate_pattern_entries_outside_signs_exit_2(sample_csv, tmp_path, capsys,
                                                       entries):
    bad = tmp_path / "bad.csv"
    bad.write_text(entries)
    out = tmp_path / "est"
    code = main([
        "estimate", str(sample_csv), "--seed", "3",
        "--label", f"signs:{bad}", "--out", str(out),
    ])
    assert code == 2
    assert "sign pattern must be 2x2 with entries -1, 0 or +1" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_missing_file_exits_2(tmp_path):
    assert main([
        "estimate", str(tmp_path / "absent.csv"), "--seed", "3",
        "--out", str(tmp_path),
    ]) == 2


def test_estimate_seed_required(sample_csv, tmp_path):
    assert main(["estimate", str(sample_csv), "--out", str(tmp_path)]) == 2


def test_test_command_reports_single_dof(sample_csv, tmp_path):
    out = tmp_path / "test"
    assert main(["test", str(sample_csv), "--seed", "4", "--out", str(out)]) == 0
    rows = [
        ln for ln in (out / "test_result.csv").read_text().splitlines()
        if not ln.startswith("#")
    ]
    header, values = rows[0].split(","), rows[1].split(",")
    assert values[header.index("dof")] == "1"
    p = float(values[header.index("p_value")])
    assert 0.0 <= p <= 1.0


def test_test_command_constant_column_exits_3(tmp_path):
    bad = tmp_path / "const.csv"
    rng = np.random.default_rng(0)
    lines = ["a,b"] + [f"{v:.6f},2.0" for v in rng.standard_normal(200)]
    bad.write_text("\n".join(lines) + "\n")
    assert main(["test", str(bad), "--seed", "4", "--out", str(tmp_path)]) == 3


def test_test_command_jackknife_omega(sample_csv, tmp_path):
    out = tmp_path / "jk"
    assert main([
        "test", str(sample_csv), "--seed", "4", "--omega", "jackknife",
        "--out", str(out),
    ]) == 0
    assert "jackknife" in (out / "test_result.csv").read_text()


def _write_var_csv(path, t=4_000, seed=30):
    from _designs import simulate_top_var
    y = simulate_top_var(t, np.random.default_rng(seed))
    lines = ["v1,v2,v3"] + [",".join(f"{v:.8f}" for v in row) for row in y]
    path.write_text("\n".join(lines) + "\n")


def test_var_command_detects_top_structure(tmp_path):
    csv = tmp_path / "var.csv"
    _write_var_csv(csv)
    out = tmp_path / "var_out"
    assert main([
        "var", str(csv), "--lags", "6", "--seed", "8", "--out", str(out),
    ]) == 0
    rows = [
        ln.split(",") for ln in (out / "var_pairwise.csv").read_text().splitlines()
        if not ln.startswith("#")
    ]
    header, data = rows[0], rows[1:]
    reject = {(r[0], r[1]): int(r[header.index("reject_at_0.05")]) for r in data}
    assert reject[("2", "3")] == 1
    assert len(data) == 3


def test_var_command_pair_selection_and_lag_validation(tmp_path):
    csv = tmp_path / "var.csv"
    _write_var_csv(csv, t=1_000)
    assert main([
        "var", str(csv), "--lags", "0", "--seed", "8", "--out", str(tmp_path),
    ]) == 2
    out = tmp_path / "sel"
    assert main([
        "var", str(csv), "--lags", "2", "--seed", "8",
        "--pairs", "1,2", "--out", str(out),
    ]) == 0
    rows = [
        ln for ln in (out / "var_pairwise.csv").read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert len(rows) == 2  # header plus the one requested pair
    assert main([
        "var", str(csv), "--lags", "2", "--seed", "8",
        "--pairs", "nonsense", "--out", str(out),
    ]) == 2


def test_var_pair_out_of_range_is_named_as_typed(tmp_path, capsys):
    csv = tmp_path / "var.csv"
    _write_var_csv(csv, t=400)
    out = tmp_path / "out"
    assert main(["var", str(csv), "--lags", "2", "--seed", "8",
                 "--pairs", "1,2;1,9", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid pair 1,9 in --pairs" in err and "(0, 8)" not in err
    assert not out.exists()


def test_var_command_controls(tmp_path):
    rng = np.random.default_rng(31)
    from _designs import simulate_top_var
    y = simulate_top_var(1_500, rng)
    trend = rng.standard_normal(1_500)
    data = np.column_stack([y, trend])
    lines = ["v1,v2,v3,ctl"] + [",".join(f"{v:.8f}" for v in row) for row in data]
    csv = tmp_path / "withctl.csv"
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ctl_out"
    assert main([
        "var", str(csv), "--lags", "2", "--seed", "8",
        "--controls", "ctl", "--out", str(out),
    ]) == 0
    assert "partialled-out controls: ctl" in (out / "var_summary.txt").read_text()


def _csv(path, x):
    lines = ["a,b"] + [",".join(f"{v:.8f}" for v in row) for row in x]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _pattern(path, text):
    path.write_text(text)
    return str(path)


def _var(path, t):
    _write_var_csv(path, t=t)
    return str(path)


_SKEWED = np.random.default_rng(5).standard_exponential((2_000, 2)) @ np.linalg.inv(
    ci.LAMBDA_TRUE).T
_CONSTANT = np.column_stack([np.random.default_rng(0).standard_normal(200),
                             np.full(200, 2.0)])

# Each case: the exit code, and argv (without --out) from a scratch directory.
_FAILING = {
    "var pair out of range": (2, lambda t: [
        "var", _var(t / "v.csv", 1_000), "--lags", "2", "--seed", "8",
        "--pairs", "1,9"]),
    "var series too short for its lags": (2, lambda t: [
        "var", _var(t / "v.csv", 25), "--lags", "6", "--seed", "8"]),
    "estimate on n <= d rows": (2, lambda t: [
        "estimate", _csv(t / "x.csv", _SKEWED[:2]), "--seed", "3"]),
    "estimate --order 4 with the default --se": (2, lambda t: [
        "estimate", _csv(t / "x.csv", _SKEWED), "--seed", "3", "--order", "4"]),
    "estimate --label triangular with the default --se": (2, lambda t: [
        "estimate", _csv(t / "x.csv", _SKEWED), "--seed", "3",
        "--label", "triangular"]),
    "duplicate sign pattern rows": (2, lambda t: [
        "estimate", _csv(t / "x.csv", _SKEWED), "--seed", "3", "--se", "none",
        "--label", "signs:" + _pattern(t / "p.csv", "1,1\n1,1\n")]),
    # Only the diagonal is signed, and it is +1 under every ordering.
    "tied sign labeling": (4, lambda t: [
        "estimate", _csv(t / "x.csv", _SKEWED), "--seed", "3", "--se", "none",
        "--label", "signs:" + _pattern(t / "p.csv", "1,0\n0,1\n")]),
    "constant column": (3, lambda t: [
        "test", _csv(t / "x.csv", _CONSTANT), "--seed", "4"]),
}


@pytest.mark.parametrize("case", list(_FAILING))
def test_failed_command_exits_with_its_code_and_writes_nothing(tmp_path, case):
    code, argv = _FAILING[case]
    out = tmp_path / "out"
    assert main(argv(tmp_path) + ["--out", str(out)]) == code
    assert not out.exists()


def test_simulate_requires_seed_and_table(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("ns = 200\nks = 0\nreps = 2\n")
    assert main(["simulate", str(cfg), "--table", "3", "--out", str(tmp_path)]) == 2
    cfg2 = tmp_path / "exp2.cfg"
    cfg2.write_text("ns = 200\nks = 0\nreps = 2\nseed = 3\n")
    assert main(["simulate", str(cfg2), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("lines", [
    "table = 3\nalpha = 5\n",
    "table = 2\nlevel = 1.5\n",
    "table = 3\nreps = abc\n",
    "table = 3\nreps = 0\n",
    "table = abc\n",
    "table = 3\nseed = 1.5\n",
    "table = 3\nns = 300, 0\n",
    "table = 1\nks = 0, -0.5\n",
    "table = 2\nk = nan\n",
    "table = 1\nkurtoses = 3, 4\n",
    "table = 1\nkurtoses = 2, 4, 5\n",
    "table = 1\nestimators = eigen, ols\n",
    "table = 2\nmethods = bootstrap\n",
    "table = 2\nk = 0.1, 0.5\n",
    "table = 1, 3\n",
    "table = 3\nreps = 2, 9\n",
])
def test_simulate_bad_config_values_exit_2_before_any_output(tmp_path, lines):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(lines + "seed = 5\n" * ("seed" not in lines))
    out = tmp_path / "run"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_version_flag():
    assert main(["--version"]) == 0


def test_estimate_w2_from_file(sample_csv, tmp_path):
    w2 = tmp_path / "w2.csv"
    w2.write_text("1.0,0.5\n")
    out = tmp_path / "w2out"
    assert main([
        "estimate", str(sample_csv), "--seed", "3", "--w2", str(w2),
        "--se", "none", "--out", str(out),
    ]) == 0
    w2bad = tmp_path / "w2bad.csv"
    w2bad.write_text("1.0,0.5,0.25\n")
    assert main([
        "estimate", str(sample_csv), "--seed", "3", "--w2", str(w2bad),
        "--se", "none", "--out", str(out),
    ]) == 2


@pytest.mark.parametrize("level", ["1.5", "nan", "0"])
def test_estimate_level_outside_the_unit_interval_exits_2(sample_csv, tmp_path, level):
    out = tmp_path / "lvl"
    assert main([
        "estimate", str(sample_csv), "--seed", "3", "--level", level,
        "--out", str(out),
    ]) == 2
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["5", "-1"])
def test_var_alpha_outside_the_unit_interval_exits_2(tmp_path, alpha):
    csv = tmp_path / "var.csv"
    _write_var_csv(csv, t=1_000)
    out = tmp_path / "alpha"
    assert main([
        "var", str(csv), "--lags", "2", "--seed", "8", "--alpha", alpha,
        "--out", str(out),
    ]) == 2
    assert not out.exists()


def test_estimate_non_finite_w2_exits_2(sample_csv, tmp_path, capsys):
    w2 = tmp_path / "w2nan.csv"
    w2.write_text("1,nan\n")
    out = tmp_path / "w2out"
    assert main([
        "estimate", str(sample_csv), "--seed", "3", "--w2", str(w2),
        "--out", str(out),
    ]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_test_command_jackknife_on_too_few_rows_exits_2(tmp_path, capsys):
    short = tmp_path / "short.csv"
    x = np.random.default_rng(11).standard_exponential((20, 2)) @ np.array(
        [[1.0, 0.5], [-0.4, 1.0]]
    ).T
    lines = ["a,b"] + [f"{u:.8f},{v:.8f}" for u, v in x]
    short.write_text("\n".join(lines) + "\n")
    code = main(["test", str(short), "--seed", "4", "--omega", "jackknife",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "jackknife" in capsys.readouterr().err


def test_simulate_table2_jackknife_below_its_minimum_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("table = 2\nns = 20, 200\nreps = 3\nseed = 5\n")
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "jackknife requires n >= 30, got 20" in capsys.readouterr().err


def test_simulate_bad_thread_count_exits_2(tmp_path, monkeypatch, capsys):
    # The value is rejected before any worker pool starts.
    monkeypatch.setenv("CUMIDENT_THREADS", "0")
    code = main(["simulate", "--table", "3", "--reps", "2", "--seed", "3",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "CUMIDENT_THREADS" in capsys.readouterr().err


def _nine_series_csv(path):
    """A dense 9-equation system driven by skewed shocks; returns the sign
    pattern of its structural matrix."""
    d, n = 9, 20_000
    rng = np.random.default_rng(11)
    off = rng.choice([-1.0, 1.0], size=(d, d)) * rng.uniform(0.15, 0.35, (d, d))
    lam = np.eye(d) + (1.0 - np.eye(d)) * off
    x = (rng.standard_exponential((n, d)) - 1.0) @ np.linalg.inv(lam).T
    with open(path, "w") as fh:
        fh.write(",".join(f"x{j}" for j in range(d)) + "\n")
        np.savetxt(fh, x, delimiter=",", fmt="%.10f")
    return np.sign(lam).astype(int)


@pytest.mark.parametrize("label", ["triangular", "signs"])
def test_estimate_labels_nine_series_by_exact_assignment(tmp_path, label):
    import warnings

    from _brute_force import brute_costs, brute_sign, brute_totals, ordering

    csv = tmp_path / "nine.csv"
    pattern = _nine_series_csv(csv)
    spec = label
    if label == "signs":
        np.savetxt(tmp_path / "pattern.csv", pattern, delimiter=",", fmt="%d")
        spec = f"signs:{tmp_path / 'pattern.csv'}"
    out = tmp_path / "est"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", str(csv), "--seed", "6", "--label", spec,
                     "--se", "none", "--out", str(out)])
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, UserWarning)]
    diag = dict(
        ln.split(",", 1) for ln in (out / "estimate_diagnostics.csv").read_text().splitlines()
        if not ln.startswith("#")
    )
    got = tuple(int(v) for v in diag["permutation"].split(";"))

    est = ci.estimate_demixing(ci.load_series_csv(csv).data, ci.ProbeVectors.draw(9, 6))
    count, margin, mass = brute_costs(est.lambda_tilde, pattern)
    if label == "triangular":
        want = ordering(9, brute_totals(mass).argmin())
    else:
        low, tied, want, _ = brute_sign(count, margin)
        assert low == 0 and not tied
    assert got == want


def test_estimate_se_table_reports_the_estimate_matrix(sample_csv, tmp_path):
    # The SE rows come from the library, centred on the reported matrix.
    out = tmp_path / "u"
    assert main(["estimate", str(sample_csv), "--seed", "3", "--se", "both",
                 "--out", str(out)]) == 0

    def body(name):
        lines = (out / name).read_text().splitlines()
        return [ln.split(",") for ln in lines if not ln.startswith("#")][1:]

    matrix = {(r[0], str(j)): v for r in body("estimate_matrix.csv")
              for j, v in enumerate(r[1:])}
    x = ci.load_series_csv(sample_csv).data
    probes = ci.ProbeVectors.draw(2, 3)
    se = {
        "delta": np.sqrt(np.diag(ci.delta_variance(x, probes).sigma_u) / len(x)),
        "jackknife": np.sqrt(np.diag(ci.demixing_jackknife(x, probes).variance)),
    }
    rows = body("estimate_se.csv")
    assert [r[0] for r in rows] == ["delta"] * 4 + ["jackknife"] * 4
    for method, i, j, point, sd, *_ in rows:
        assert point == matrix[(i, j)]
        assert sd == "%.12g" % se[method][2 * int(i) + int(j)]
