import csv
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import cumident as ci
from cumident import varpipe
from cumident.simulate import CompositeDgpConfig, gen_composite
from _brute_force import lstsq_fit_var, lstsq_partial_out
from _designs import TOP_MIX, simulate_near_unit_root, simulate_top_var


def test_fit_var_white_noise_coefficients_near_zero():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((2_000, 3))
    fit = ci.fit_var(y, p=1)
    # each coefficient has standard error about 1/sqrt(T)
    assert np.abs(fit.coefficients[0]).max() < 3.5 / np.sqrt(2_000)
    assert np.abs(fit.residuals.mean(axis=0)).max() < 1e-12


def test_fit_var_recovers_known_matrix():
    rng = np.random.default_rng(1)
    a1 = 0.5 * np.eye(2)
    y = np.zeros((10_000, 2))
    shocks = rng.standard_normal((10_000, 2))
    for t in range(1, 10_000):
        y[t] = a1 @ y[t - 1] + shocks[t]
    fit = ci.fit_var(y, p=1)
    np.testing.assert_allclose(fit.coefficients[0], a1, atol=0.05)


def test_fit_var_long_lag_shapes():
    rng = np.random.default_rng(2)
    fit = ci.fit_var(rng.standard_normal((400, 3)), p=6)
    assert len(fit.coefficients) == 6
    assert all(c.shape == (3, 3) for c in fit.coefficients)
    assert fit.residuals.shape == (394, 3)


def test_fit_var_length_and_rank_checks():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        ci.fit_var(rng.standard_normal((10, 3)), p=3)
    base = rng.standard_normal((200, 1))
    dup = np.hstack([base, base])  # collinear lags
    with pytest.raises(ValueError):
        ci.fit_var(dup, p=1)
    with pytest.raises(ValueError):
        ci.fit_var(rng.standard_normal((200, 2)), p=0)


@pytest.mark.parametrize("t", [16, 19])
def test_fit_var_rejects_too_few_periods_for_the_regressors(t):
    # At d = 2 and p = 6 a fit has 13 regressor columns, so it needs more
    # than 13 usable periods: T > 19.  T = 16 used to fail as rank
    # deficient and T = 19 to give an exactly determined fit.
    y = np.random.default_rng(t).standard_normal((t, 2))
    with pytest.raises(ValueError, match="series too short.*need T > 19"):
        ci.fit_var(y, p=6)
    fit = ci.fit_var(np.random.default_rng(t).standard_normal((20, 2)), p=6)
    assert fit.residuals.shape == (14, 2)
    with pytest.raises(ValueError, match="series too short.*need T > 18"):
        ci.fit_var(np.random.default_rng(t).standard_normal((18, 2)), p=6,
                   intercept=False)


def test_residuals_orthogonal_to_regressors():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((500, 2))
    fit = ci.fit_var(y, p=2)
    lagged = np.hstack([y[1:-1], y[:-2]])
    cross = fit.residuals.T @ lagged / len(lagged)
    assert np.abs(cross).max() < 1e-10


def test_partial_out_orthogonal_controls_demeans():
    rng = np.random.default_rng(5)
    controls = rng.standard_normal((100, 2))
    cc = controls - controls.mean(axis=0)
    raw = rng.standard_normal((100, 2))
    tc = raw - raw.mean(axis=0)
    tc -= cc @ np.linalg.lstsq(cc, tc, rcond=None)[0]  # kill control overlap
    targets = tc + 5.0
    resid = ci.partial_out(targets, controls)
    np.testing.assert_allclose(resid, targets - targets.mean(axis=0), atol=1e-9)


def test_partial_out_of_self_is_zero():
    rng = np.random.default_rng(6)
    c = rng.standard_normal((50, 3))
    np.testing.assert_allclose(ci.partial_out(c, c), 0.0, atol=1e-10)


def test_partial_out_recovers_constructed_noise():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((400, 3))
    beta = np.array([[0.5, -1.0], [2.0, 0.3], [0.0, 1.2]])
    noise = rng.standard_normal((400, 2))
    noise -= noise.mean(axis=0)
    # make the noise exactly orthogonal to the centered controls
    cc = c - c.mean(axis=0)
    noise -= cc @ np.linalg.lstsq(cc, noise, rcond=None)[0]
    targets = 3.0 + c @ beta + noise
    np.testing.assert_allclose(ci.partial_out(targets, c), noise, atol=1e-8)


def test_partial_out_rank_deficient_controls():
    # A duplicate control, and a constant one beside the intercept: the
    # rank and message np.linalg.lstsq gives.
    rng = np.random.default_rng(8)
    targets = rng.standard_normal((60, 1))
    c = rng.standard_normal((60, 2))
    for controls in (np.hstack([c, c[:, :1]]), np.hstack([c, np.full((60, 1), 3.0)])):
        _, rank, k = lstsq_partial_out(targets, controls)
        assert rank < k
        with pytest.raises(ValueError) as err:
            ci.partial_out(targets, controls)
        assert str(err.value) == f"controls are rank deficient (rank {rank} < {k})"


def _relative(a, b) -> float:
    """The largest change from a to b, relative to a's largest magnitude."""
    return float(np.max(np.abs(b - a)) / np.max(np.abs(a)))


BLOCK = varpipe._QR_BLOCK_ROWS


# T - p below one block, exactly one block and one row past it; and, at
# d = 3 and p = 2, 9 rows: below the k + d = 10 columns the kernel folds.
@pytest.mark.parametrize("rows, d, p", [(BLOCK - 1, 3, 2), (BLOCK, 3, 2),
                                        (BLOCK + 1, 3, 2), (9, 3, 2),
                                        (3 * BLOCK + 7, 2, 5)],
                         ids=["below one block", "one block", "one block plus one row",
                              "below k + d", "three blocks and a part"])
@pytest.mark.parametrize("intercept", [True, False])
def test_fit_var_matches_lstsq(rows, d, p, intercept):
    y = simulate_top_var(rows + p, np.random.default_rng(rows))[:, :d]
    fit = ci.fit_var(y, p, intercept=intercept)
    beta, residuals, rank, k = lstsq_fit_var(y, p, intercept)
    assert rank == k
    lead = int(intercept)
    assert _relative(beta[lead:], np.vstack([c.T for c in fit.coefficients])) < 1e-12
    assert _relative(residuals, fit.residuals) < 1e-12
    if intercept:
        assert _relative(beta[0], fit.intercept) < 1e-12
    else:
        assert fit.intercept is None


@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1, 3])
def test_partial_out_matches_lstsq(rows):
    # 3 rows: below the 1 + 2 + 3 columns the kernel folds.
    rng = np.random.default_rng(rows)
    controls = rng.standard_normal((rows, 2)) + [4.0, -1.0]
    targets = (controls @ [[1.0, 0.5, 0.0], [2.0, 0.0, 1.0]]
               + rng.standard_exponential((rows, 3)))
    want, rank, k = lstsq_partial_out(targets, controls)
    assert rank == k
    got = ci.partial_out(targets, controls)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(targets).max())


def test_near_unit_root_fit_matches_lstsq():
    # rho = 0.999, columns scaled by 1e4, 1 and 1e-3 and offset.  The residual
    # sums of squares match to 1e-12; the coefficients, ill-conditioned as
    # they are, to 1e-9 of their largest magnitude.
    y = simulate_near_unit_root(20_000, np.random.default_rng(24))
    fit = ci.fit_var(y, 2)
    beta, residuals, rank, k = lstsq_fit_var(y, 2)
    assert rank == k
    rss, want = (fit.residuals ** 2).sum(axis=0), (residuals ** 2).sum(axis=0)
    assert np.abs(rss / want - 1.0).max() < 1e-12
    assert _relative(beta[1:], np.vstack([c.T for c in fit.coefficients])) < 1e-9
    assert _relative(beta[0], fit.intercept) < 1e-9


def _constant_series(rng):
    y = rng.standard_normal((300, 3))
    y[:, 1] = 2.5  # its lags are multiples of the intercept
    return y


@pytest.mark.parametrize("make", [
    lambda rng: np.hstack([rng.standard_normal((300, 2))] * 2),
    _constant_series,
], ids=["duplicate series", "constant series"])
def test_fit_var_rank_deficiency_keeps_the_lstsq_rank_and_message(make):
    y = make(np.random.default_rng(25))
    _, _, rank, k = lstsq_fit_var(y, 2)
    assert rank < k
    with pytest.raises(ValueError) as err:
        ci.fit_var(y, 2)
    assert str(err.value) == f"rank-deficient lag regressor matrix (rank {rank} < {k})"


def test_fit_var_builds_no_regressor_matrix():
    # A (T - p, k) lag matrix at T = 50 000, d = 6, p = 8 is 18.7 MB; the
    # fit keeps its traced peak below one.
    t, d, p = 50_000, 6, 8
    y = np.random.default_rng(28).standard_normal((t, d))
    tracemalloc.start()
    try:
        ci.fit_var(y, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (t - p) * (d * p + 1) * 8


def test_pairwise_top_structure_detected():
    y = simulate_top_var(5_000, np.random.default_rng(9))
    fit = ci.fit_var(y, p=6)
    probes = ci.ProbeVectors.draw(2, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = ci.pairwise_overid(fit, probes, alpha=0.05)
    results = {(i, j): res for i, j, res in report.pairs}
    assert report.n_effective == 5_000 - 6
    assert results[(0, 1)].p_value > 1e-3
    assert results[(0, 2)].p_value > 1e-3
    assert results[(1, 2)].p_value < 1e-3


def test_pairwise_independent_shocks_near_nominal():
    rejections, total = 0, 0
    probes = ci.ProbeVectors.draw(2, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in range(25):
            y = simulate_top_var(2_000, np.random.default_rng([10, rep]),
                                 mix=np.eye(3))
            report = ci.pairwise_overid(ci.fit_var(y, p=2), probes, alpha=0.05)
            rejections += len(report.rejected())
            total += len(report.pairs)
    assert rejections / total < 0.15


def test_pairwise_correlated_composite_rejected():
    # feed correlated composite innovations through a VAR(1) and test d=2
    innov = gen_composite(CompositeDgpConfig(n=5_000, k=0.5, seed=11), 0).x
    y = np.zeros_like(innov)
    for t in range(1, len(innov)):
        y[t] = 0.3 * y[t - 1] + innov[t]
    fit = ci.fit_var(y, p=1)
    report = ci.pairwise_overid(fit, ci.ProbeVectors.draw(2, 11), alpha=0.05)
    assert report.pairs[0][2].p_value < 0.01


def test_pairwise_validates_pairs():
    y = np.random.default_rng(12).standard_normal((300, 3))
    fit = ci.fit_var(y, p=1)
    probes = ci.ProbeVectors.draw(2, 12)
    with pytest.raises(ValueError):
        ci.pairwise_overid(fit, probes, pairs=[(0, 5)])


def _same_test(a, b):
    assert (a.statistic, a.p_value, a.dof) == (b.statistic, b.p_value, b.dof)
    assert a.r_hat.tobytes() == b.r_hat.tobytes()
    assert a.omega_hat.tobytes() == b.omega_hat.tobytes()


@pytest.mark.parametrize("method", ["delta", "jackknife"])
def test_pairwise_is_one_stacked_wald_test(monkeypatch, method):
    fit = ci.fit_var(simulate_top_var(600, np.random.default_rng(14)), p=2)
    probes = ci.ProbeVectors.draw(2, 14)
    calls = []
    stacked = varpipe._wald_stack

    def counted(records, *args, **kwargs):
        records = list(records)
        calls.append(len(records))
        return stacked(records, *args, **kwargs)

    monkeypatch.setattr(varpipe, "_wald_stack", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = ci.pairwise_overid(fit, probes, method=method)
        assert calls == [3] and not report.failures
        for i, j, res in report.pairs:
            _same_test(res, ci.wald_test(fit.residuals[:, [i, j]], probes,
                                         method=method))


def test_planted_singular_pair_fails_alone_with_the_wald_test_message():
    fit = ci.fit_var(simulate_top_var(600, np.random.default_rng(15)), p=2)
    residuals = fit.residuals.copy()
    residuals[:, 2] = residuals[:, 0]
    fit = ci.VarFit(fit.coefficients, residuals, fit.lag, fit.intercept)
    probes = ci.ProbeVectors.draw(2, 15)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = ci.pairwise_overid(fit, probes)
        with pytest.raises(ci.IllConditionedError) as alone:
            ci.wald_test(residuals[:, [0, 2]], probes)
        assert report.failures == [(0, 2, str(alone.value))]
        assert [(i, j) for i, j, _ in report.pairs] == [(0, 1), (1, 2)]
        for i, j, res in report.pairs:
            _same_test(res, ci.wald_test(residuals[:, [i, j]], probes))


def test_pairwise_jackknife_below_its_minimum_raises_once():
    fit = ci.fit_var(np.random.default_rng(16).standard_exponential((20, 3)), p=1)
    with pytest.raises(ci.InvalidInputError, match="requires n >= 30, got 19"):
        ci.pairwise_overid(fit, ci.ProbeVectors.draw(2, 16), method="jackknife")


def test_estimated_vs_true_residual_statistics_converge():
    # The statistic on fitted residuals approaches the statistic on the true
    # errors as T grows; the median gap should at least halve from T=2500
    # to T=10000.
    probes = ci.ProbeVectors.draw(2, 13)
    mix = np.array([[1.0, 0.0], [0.5, 1.0]])
    a1 = np.array([[0.4, 0.1], [0.0, 0.3]])
    gaps = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t_len in (2_500, 10_000):
            deltas = []
            for rep in range(60):
                rng = np.random.default_rng([13, t_len, rep])
                u = rng.standard_exponential((t_len + 100, 2)) - 1.0
                e = u @ mix.T
                y = np.zeros((t_len + 100, 2))
                for t in range(1, t_len + 100):
                    y[t] = a1 @ y[t - 1] + e[t]
                y, e = y[100:], e[100:]
                fit = ci.fit_var(y, p=1)
                t_est = ci.wald_test(fit.residuals, probes).statistic
                t_true = ci.wald_test(e[1:], probes).statistic
                deltas.append(abs(t_est - t_true))
            gaps[t_len] = np.median(deltas)
    assert gaps[10_000] < 0.5 * gaps[2_500]


def test_load_series_csv(tmp_path):
    p = tmp_path / "series.csv"
    p.write_text("date,a,b\n2001-01,1.0,2.0\n2001-02,2.0,3.0\n2001-03,3.0,5.0\n")
    out = ci.load_series_csv(p)
    assert out.names == ["a", "b"]
    assert out.date_column == "date"
    assert out.dates == ["2001-01", "2001-02", "2001-03"]
    np.testing.assert_array_equal(out.data, [[1, 2], [2, 3], [3, 5]])


def test_load_series_csv_rejects_missing_values(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1.0,2.0\n,3.0\n")
    with pytest.raises(ValueError, match="missing"):
        ci.load_series_csv(p)


def test_load_series_csv_rejects_ragged_rows(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("a,b\n1.0,2.0\n1.0\n")
    with pytest.raises(ValueError, match="fields"):
        ci.load_series_csv(p)


def test_load_series_csv_rejects_rows_that_agree_on_a_wrong_width(tmp_path):
    # Every data row has four fields under a three-column header, so the
    # float parse succeeds and only the width check catches it.
    p = tmp_path / "wide.csv"
    p.write_text("a,b,c\n1.0,2.0,3.0,4.0\n5.0,6.0,7.0,8.0\n")
    with pytest.raises(ci.InvalidInputError) as err:
        ci.load_series_csv(p)
    assert str(err.value) == f"{p}: line 2 has 4 fields, expected 3"


def test_load_series_csv_named_date_column(tmp_path):
    p = tmp_path / "named.csv"
    p.write_text("t,x,y\n1,1.0,2.0\n2,2.0,3.0\n")
    out = ci.load_series_csv(p, date_column="t")
    assert out.names == ["x", "y"]
    assert out.dates == ["1", "2"]


def test_load_series_csv_names_the_physical_line(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("# a\n# b\na,b\n1.0,2.0\n\n3.0,4.0\n5.0\n")
    with pytest.raises(ValueError, match="line 7 has 1 fields, expected 2"):
        ci.load_series_csv(p)
    p.write_text("# a\na,b\n\n1.0,2.0\n# c\n3.0,na\n")
    with pytest.raises(ValueError, match=r"column 'b' has missing values \(line 6\)"):
        ci.load_series_csv(p)
    p.write_text("\n# a\n\na,b\n1.0,2.0\n3.0,x\n")
    with pytest.raises(ValueError, match=r"line 6: column 'b' is not numeric"):
        ci.load_series_csv(p)


def test_load_series_csv_rejects_a_corrupted_numeric_column(tmp_path):
    # The first data row decides which column holds dates; a later cell
    # that is not a number is an error, not a reason to demote the column.
    p = tmp_path / "corrupt.csv"
    p.write_text("a,b\n1,2\n3,x\n")
    with pytest.raises(ValueError, match=r"line 3: column 'b' is not numeric: 'x'"):
        ci.load_series_csv(p)
    p.write_text("date,a,b\nd1,1,2\nd2,3,x\n")
    with pytest.raises(ValueError, match=r"line 3: column 'b' is not numeric"):
        ci.load_series_csv(p)
    # A text cell in the first row still marks the date column.
    p.write_text("a,b\n1,x\n3,4\n")
    out = ci.load_series_csv(p)
    assert out.names == ["a"] and out.date_column == "b" and out.dates == ["x", "4"]


@pytest.mark.parametrize("cell", ["1_000", "١"])
def test_load_series_csv_rejects_python_only_float_spellings(tmp_path, cell):
    p = tmp_path / "spelling.csv"
    for text in (f"a,b\n1,{cell}\n3,4\n", f"a,b\n1,2\n3,{cell}\n"):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="column 'b' is not numeric"):
            ci.load_series_csv(p)


def test_load_series_csv_hashes_the_bytes_it_parsed(tmp_path):
    p = tmp_path / "s.csv"
    p.write_bytes(b"# note\r\na,b\r\n1,2\r\n3,4\r\n")
    assert ci.load_series_csv(p).sha256 == hashlib.sha256(p.read_bytes()).hexdigest()


def test_load_series_csv_converts_no_cell_in_python(tmp_path, monkeypatch):
    # Work-count guard: Python-level float() runs on the first data row only
    # (to find the date column), never once per cell.
    calls = []

    def counting_float(v):
        calls.append(v)
        return float(v)

    monkeypatch.setattr(varpipe, "float", counting_float, raising=False)
    counts = []
    for rows in (10, 2_000):
        p = tmp_path / f"n{rows}.csv"
        data = np.random.default_rng(rows).standard_normal((rows, 3))
        with open(p, "w") as fh:
            fh.write("a,b,c\n")
            np.savetxt(fh, data, delimiter=",", fmt="%.17g")
        calls.clear()
        np.testing.assert_array_equal(ci.load_series_csv(p).data, data)
        counts.append(len(calls))
    assert counts[0] == counts[1]


# Reference: the per-cell loader that load_series_csv replaced, kept
# verbatim (csv module, strip/lower/float on every cell) as an oracle.

def oracle_load_series_csv(path, date_column: str | None = None) -> ci.CsvSeries:
    with open(path, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        rows = [row for row in reader if row]
    header = [h.strip() for h in header]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(header)
    for ln, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ValueError(f"{path}: line {ln} has {len(row)} fields, expected {width}")

    columns = list(zip(*rows))

    def parse(col):
        out = []
        for v in col:
            v = v.strip()
            if v == "" or v.lower() in ("na", "nan"):
                raise ValueError("missing value")
            out.append(float(v))
        return out

    if date_column is not None:
        if date_column not in header:
            raise ValueError(f"{path}: no column named {date_column!r}")
        date_idx = header.index(date_column)
    else:
        date_idx = None
        for idx, col in enumerate(columns):
            try:
                parse(col)
            except ValueError as exc:
                if "missing value" in str(exc):
                    raise ValueError(
                        f"{path}: column {header[idx]!r} has missing values"
                    ) from None
                if date_idx is not None:
                    raise ValueError(
                        f"{path}: multiple non-numeric columns "
                        f"({header[date_idx]!r}, {header[idx]!r})"
                    ) from None
                date_idx = idx

    names, numeric = [], []
    for idx, col in enumerate(columns):
        if idx == date_idx:
            continue
        try:
            numeric.append(parse(col))
        except ValueError:
            raise ValueError(
                f"{path}: column {header[idx]!r} is not numeric or has "
                "missing values"
            ) from None
        names.append(header[idx])
    data = np.array(numeric, dtype=float).T
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite values present")
    dates = list(columns[date_idx]) if date_idx is not None else None
    return ci.CsvSeries(
        names=names,
        data=data,
        dates=dates,
        date_column=header[date_idx] if date_idx is not None else None,
    )


# Numbers to Python's float() but not to np.loadtxt.
_PYTHON_ONLY_NUMBERS = ["1_000", "١"]
_ERROR_KINDS = ("fields", "missing", "multiple non-numeric", "no column named",
                "non-finite", "not numeric", "no data rows", "empty CSV")
_FAULT_TOKENS = {
    "missing": ["", "na", "NA", " nan ", "NaN", "\tNa"],
    "nonfinite": ["inf", "-inf", " Infinity", "-nan", "+NAN"],
    "corrupt": ["x", "1.5.2", "--1"] + _PYTHON_ONLY_NUMBERS,
}


def _error_kinds(message: str) -> set[str]:
    return {k for k in _ERROR_KINDS if k in message}


def _cell(draw, text: str) -> str:
    pad = draw(st.sampled_from(["", " ", "\t", "  "]))
    if draw(st.booleans()) or "," in text:
        return '"' + pad + text + pad + '"'
    return pad + text + pad


@st.composite
def _csv_cases(draw):
    """A headed numeric table, maybe with a date column and at most one
    fault, so that which of several faults is reported does not matter.

    Returns (text, date_column, changed): `changed` marks the inputs where
    the loader deliberately departs from the oracle, a cell np.loadtxt
    cannot read in a column whose first data cell is a number.
    """
    rows = draw(st.integers(1, 6))
    values = draw(hnp.arrays(np.float64, (rows, draw(st.integers(1, 4))),
                             elements=st.floats(allow_nan=False, allow_infinity=False)))
    fmt = draw(st.sampled_from(["%.12g", "%.17g", "%e"]))
    cells = [[fmt % v for v in row] for row in values]
    names = [f"c{j}" for j in range(values.shape[1])]
    date_at = draw(st.none() | st.integers(0, values.shape[1]))
    if date_at is not None:
        years = draw(st.booleans())
        for i, row in enumerate(cells):
            row.insert(date_at, str(1990 + i) if years else draw(
                st.from_regex(r"d[0-9A-Za-z /:,-]{0,6}", fullmatch=True)))
        names.insert(date_at, "date")
    named = date_at is not None and draw(st.booleans())
    numeric = [j for j in range(len(names)) if j != date_at]
    fault = draw(st.sampled_from([None, "ragged", "missing", "nonfinite",
                                  "corrupt", "text_column", "wrong_name"]))
    row, col = draw(st.integers(0, rows - 1)), draw(st.sampled_from(numeric))
    changed = False
    if fault == "ragged":
        cells[row].append("1") if draw(st.booleans()) else cells[row].pop()
    elif fault in _FAULT_TOKENS:
        cells[row][col] = token = draw(st.sampled_from(_FAULT_TOKENS[fault]))
        changed = fault == "corrupt" and (row > 0 or token in _PYTHON_ONLY_NUMBERS)
    elif fault == "text_column":
        for i, cells_i in enumerate(cells):
            cells_i[col] = f"t{i}"

    newline = draw(st.sampled_from(["\n", "\r\n"]))
    head = [",".join(_cell(draw, name) for name in names)]
    body = [",".join(_cell(draw, c) if c.strip() else c for c in row) for row in cells]
    for _ in range(draw(st.integers(0, 3))):
        # Comment lines anywhere; blank lines anywhere after the header.
        if draw(st.booleans()):
            comment = "# " + draw(st.text(alphabet="ab,#\" 1.", max_size=8))
            head.insert(draw(st.integers(0, len(head) - 1)), comment)
        else:
            body.insert(draw(st.integers(0, len(body))), "")
    text = newline.join(head + body) + newline
    date_column = ("nosuch" if fault == "wrong_name" else "date") if named else None
    return text, date_column, changed


@settings(max_examples=300, deadline=None, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(_csv_cases())
def test_load_series_csv_matches_per_cell_oracle(tmp_path, case):
    text, date_column, changed = case
    p = tmp_path / "case.csv"
    p.write_bytes(text.encode("utf-8"))
    try:
        want = oracle_load_series_csv(p, date_column)
    except ValueError as exc:
        want = exc
    try:
        got = ci.load_series_csv(p, date_column)
    except ValueError as exc:
        got = exc
    if changed:
        assert isinstance(got, ValueError), "a corrupted numeric cell was accepted"
        assert _error_kinds(str(got)) == {"not numeric"}, str(got)
        return
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError), f"accepted what the oracle rejects: {want}"
        kinds = _error_kinds(str(got))
        assert kinds and kinds <= _error_kinds(str(want)), (str(want), str(got))
        return
    assert not isinstance(got, ValueError), f"rejected what the oracle accepts: {got}"
    assert got.names == want.names
    assert got.dates == want.dates and got.date_column == want.date_column
    assert got.data.shape == want.data.shape and got.data.strides == want.data.strides
    assert got.data.tobytes() == want.data.tobytes()
