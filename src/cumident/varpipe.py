"""VAR(p) estimation, partialling-out of covariates, and pairwise
joint-diagonality tests on residual subsystems."""

from __future__ import annotations

import hashlib
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CumidentError
from .identify import ProbeVectors
from .moments import validate_sample
from .overid import TestResult, _sample_result, _wald_stack


@dataclass
class VarFit:
    """Equation-by-equation OLS fit of a VAR(p)."""

    coefficients: list[np.ndarray]
    residuals: np.ndarray
    lag: int
    intercept: np.ndarray | None


@dataclass
class PairwiseReport:
    """Joint-diagonality test results for 2-column residual subsystems."""

    pairs: list[tuple[int, int, TestResult]]
    failures: list[tuple[int, int, str]]
    lag: int
    n_effective: int
    alpha: float

    def rejected(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j, res in self.pairs if res.p_value < self.alpha]


def fit_var(series, p: int, intercept: bool = True) -> VarFit:
    """Least-squares VAR(p) fit, one equation at a time.

    Regressors are the p lagged vectors (plus an intercept by default);
    residuals are returned for the T - p usable periods.
    """
    y = validate_sample(series, min_cols=1)
    t, d = y.shape
    if p < 1:
        raise ValueError(f"lag order must be >= 1, got {p}")
    # The T - p usable periods must outnumber the regressor columns, so
    # that the residuals keep a degree of freedom.
    need = max(d * p + d + 1, p + d * p + int(intercept))
    if t <= need:
        raise ValueError(f"series too short for VAR({p}) in d={d}: need T > {need}")
    blocks = [y[p - lag - 1: t - lag - 1] for lag in range(p)]
    w = np.hstack(blocks)
    if intercept:
        w = np.hstack([np.ones((t - p, 1)), w])
    target = y[p:]
    beta, _, rank, _ = np.linalg.lstsq(w, target, rcond=None)
    if rank < w.shape[1]:
        raise ValueError(
            f"rank-deficient lag regressor matrix (rank {rank} < {w.shape[1]})"
        )
    residuals = target - w @ beta
    offset = 1 if intercept else 0
    coefficients = [
        beta[offset + lag * d: offset + (lag + 1) * d, :].T for lag in range(p)
    ]
    return VarFit(
        coefficients=coefficients,
        residuals=residuals,
        lag=p,
        intercept=beta[0] if intercept else None,
    )


def partial_out(targets, controls) -> np.ndarray:
    """Residuals of each target column on the controls plus an intercept."""
    y = validate_sample(targets, min_cols=1)
    c = validate_sample(controls, min_cols=1)
    if y.shape[0] != c.shape[0]:
        raise ValueError(
            f"targets and controls disagree on rows: {y.shape[0]} vs {c.shape[0]}"
        )
    w = np.hstack([np.ones((c.shape[0], 1)), c])
    beta, _, rank, _ = np.linalg.lstsq(w, y, rcond=None)
    if rank < w.shape[1]:
        raise ValueError(
            f"controls are rank deficient (rank {rank} < {w.shape[1]})"
        )
    return y - w @ beta


def pairwise_overid(fit: VarFit, probes: ProbeVectors, pairs="all",
                    alpha: float = 0.05, method: str = "delta") -> PairwiseReport:
    """Run the joint-diagonality Wald test on residual pairs.

    Estimated residuals stand in for the true errors without correction;
    the replacement error is below the sampling noise of the statistic for
    a stable, correctly specified lag order.  All pairs run as one
    stacked Wald test; a failing pair is reported and does not stop the
    others.
    """
    d = fit.residuals.shape[1]
    if pairs == "all":
        wanted = list(itertools.combinations(range(d), 2))
    else:
        wanted = [(int(i), int(j)) for i, j in pairs]
        for i, j in wanted:
            if not (0 <= i < d and 0 <= j < d and i != j):
                raise ValueError(f"invalid pair ({i}, {j}) for d={d}")
    x = validate_sample(fit.residuals, min_rows=2, min_cols=2)
    samples = [x[:, [i, j]] for i, j in wanted]
    stack = _wald_stack(samples, probes, method) if samples else None
    results, failures = [], []
    for k, (i, j) in enumerate(wanted):
        try:
            results.append((i, j, _sample_result(stack, k, method, stacklevel=2)))
        except (CumidentError, ValueError) as exc:  # ValueError: sixth moments out of range
            failures.append((i, j, str(exc)))
    return PairwiseReport(
        pairs=results,
        failures=failures,
        lag=fit.lag,
        n_effective=fit.residuals.shape[0],
        alpha=alpha,
    )


@dataclass
class CsvSeries:
    """Numeric columns from a headed CSV, with an optional date column.

    `sha256` is the hex digest of the file bytes that were parsed.
    """

    names: list[str]
    data: np.ndarray
    dates: list[str] | None = None
    date_column: str | None = None
    sha256: str | None = None


# np.loadtxt settings shared by every read: `#` marks a comment only at the
# start of a line, and those lines are dropped before parsing.
_DIALECT = {"delimiter": ",", "quotechar": '"', "comments": None}
_MISSING = ("", "na", "nan")
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))


def load_series_csv(path, date_column: str | None = None) -> CsvSeries:
    """Read a headed CSV of series columns; missing values are rejected.

    If `date_column` is None, the one column whose first data cell is not a
    number (if any) is kept as dates; it never enters the numeric data.  The
    file is read once; its data lines are parsed in one np.loadtxt pass.
    Errors name the physical line of the file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    all_lines = io.TextIOWrapper(io.BytesIO(raw), newline="").readlines()
    kept = [i for i, line in enumerate(all_lines)
            if line not in _BLANK_LINES and line[0] != "#"]
    if not kept:
        raise ValueError(f"{path}: empty CSV")
    header = [h.strip() for h in _fields(all_lines[kept[0]])]
    if len(kept) == 1:
        raise ValueError(f"{path}: no data rows")
    # numbers[k] is the physical line number of lines[k].
    numbers = [i + 1 for i in kept[1:]]
    lines = [all_lines[i] for i in kept[1:]]

    if date_column is not None:
        if date_column not in header:
            raise ValueError(f"{path}: no column named {date_column!r}")
        text_cols = [header.index(date_column)]
    else:
        text_cols = [j for j, cell in enumerate(_fields(lines[0]))
                     if not _number_or_missing(cell)]
    dtype = np.dtype([(f"f{j}", object if j in text_cols else np.float64)
                      for j in range(len(header))])
    table = None
    if len(text_cols) < 2:
        try:
            table = np.loadtxt(lines, dtype=dtype, ndmin=1, **_DIALECT)
        except ValueError:
            pass
    if table is None:
        raise ValueError(_fault(path, header, numbers, lines, dtype, text_cols))

    date_idx = text_cols[0] if text_cols else None
    numeric = [j for j in range(len(header)) if j != date_idx]
    data = np.array([table[f"f{j}"] for j in numeric], dtype=np.float64).T
    if not np.isfinite(data).all():
        fault = _nonfinite_fault(path, header, numbers, lines, numeric, data)
        raise ValueError(fault)
    return CsvSeries(
        names=[header[j] for j in numeric],
        data=data,
        dates=table[f"f{date_idx}"].tolist() if date_idx is not None else None,
        date_column=header[date_idx] if date_idx is not None else None,
        sha256=hashlib.sha256(raw).hexdigest(),
    )


def _fields(line: str) -> list[str]:
    """The raw fields of one CSV line, as np.loadtxt splits them."""
    return np.loadtxt([line], dtype=object, ndmin=2, **_DIALECT)[0].tolist()


def _number_or_missing(cell: str) -> bool:
    cell = cell.strip()
    if cell.lower() in _MISSING:
        return True
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _first_rejected(lines, dtype) -> int | None:
    """Index of the first line np.loadtxt rejects under `dtype`, if any.

    Bisection over slices: about 2 * len(lines) lines are parsed in all.
    """
    try:
        np.loadtxt(lines, dtype=dtype, ndmin=1, **_DIALECT)
        return None
    except ValueError:
        pass
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.loadtxt(lines[lo:mid], dtype=dtype, ndmin=1, **_DIALECT)
            lo = mid
        except ValueError:
            hi = mid
    return lo


def _fault(path, header, numbers, lines, dtype, text_cols) -> str:
    """Locate and word the fault behind a failed parse; returns no data."""
    width = len(header)
    bad = _first_rejected(lines, np.dtype([(f"f{j}", object) for j in range(width)]))
    if bad is not None:
        return (f"{path}: line {numbers[bad]} has {len(_fields(lines[bad]))} "
                f"fields, expected {width}")
    if len(text_cols) > 1:
        return (f"{path}: multiple non-numeric columns "
                f"({header[text_cols[0]]!r}, {header[text_cols[1]]!r})")
    bad = _first_rejected(lines, dtype)
    cells = _fields(lines[bad])
    for j in range(width):
        if j in text_cols:
            continue
        try:
            np.loadtxt([lines[bad]], usecols=[j], ndmin=1, **_DIALECT)
        except ValueError:
            if cells[j].strip().lower() in _MISSING:
                return (f"{path}: column {header[j]!r} has missing values "
                        f"(line {numbers[bad]})")
            return (f"{path}: line {numbers[bad]}: column {header[j]!r} is not "
                    f"numeric: {cells[j].strip()!r}")
    return f"{path}: line {numbers[bad]} cannot be parsed"


def _nonfinite_fault(path, header, numbers, lines, numeric, data) -> str:
    """Word non-finite parsed values: a `nan` token is a missing value."""
    for i in np.flatnonzero(np.isnan(data).any(axis=1)):
        cells = _fields(lines[i])
        for k in np.flatnonzero(np.isnan(data[i])):
            j = numeric[k]
            if cells[j].strip().lower() in _MISSING:
                return (f"{path}: column {header[j]!r} has missing values "
                        f"(line {numbers[i]})")
    i = np.flatnonzero(~np.isfinite(data).all(axis=1))[0]
    return f"{path}: non-finite values present (line {numbers[i]})"
