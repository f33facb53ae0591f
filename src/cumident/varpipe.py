"""VAR(p) estimation, partialling-out of covariates, and pairwise
joint-diagonality tests on residual subsystems."""

from __future__ import annotations

import hashlib
import itertools
import locale
from dataclasses import dataclass

import numpy as np

from . import _pipeline
from .errors import CumidentError, InvalidInputError
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
        raise InvalidInputError(f"lag order must be >= 1, got {p}")
    # The T - p usable periods must outnumber the regressor columns, so
    # that the residuals keep a degree of freedom.
    need = max(d * p + d + 1, p + d * p + int(intercept))
    if t <= need:
        raise InvalidInputError(
            f"series too short for VAR({p}) in d={d}: need T > {need}, got {t}")
    blocks = [y[p - lag - 1: t - lag - 1] for lag in range(p)]
    if intercept:
        blocks.insert(0, _ones(t - p))
    rank, beta, residuals = _least_squares(blocks, y[p:])
    k = d * p + int(intercept)
    if rank < k:
        raise ValueError(f"rank-deficient lag regressor matrix (rank {rank} < {k})")
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
        raise InvalidInputError(
            f"targets and controls disagree on rows: {y.shape[0]} vs {c.shape[0]}"
        )
    rank, _, residuals = _least_squares([_ones(len(c)), c], y)
    k = c.shape[1] + 1
    if rank < k:
        raise ValueError(f"controls are rank deficient (rank {rank} < {k})")
    return residuals


# Rows of [regressors | targets] that _least_squares folds into its R factor
# at a time: 1 MB at the 31 columns of a d = 6, p = 4 fit, so a block stays
# in cache.  Each fold is one LAPACK call made of BLAS-2 steps over the
# block, so taller blocks sync a threaded BLAS fewer times.
_QR_BLOCK_ROWS = 1 << 12


def _ones(n: int) -> np.ndarray:
    """An (n, 1) intercept column that holds one float."""
    return np.broadcast_to(1.0, (n, 1))


def _least_squares(blocks, targets: np.ndarray):
    """OLS of the (n, m) `targets` on the column `blocks`, each an (n, k_i)
    array or view read in place.

    A tall-skinny QR (TSQR; Demmel et al. 2012): row blocks of [blocks |
    targets] are filled into one reused buffer and folded into a running R
    factor, so no (n, k) regressor matrix is built.  np.linalg.lstsq on the
    at most (k, k + m) [R11 R12] then counts the rank by its own rule, the
    singular values above eps * max(n, k) times the largest, with the n
    rows that R stands for, and solves R11 beta = R12.  Returns (rank, beta,
    residuals); at full rank the residuals are formed from the same blocks,
    below it beta and the residuals are None.
    """
    n, m = targets.shape
    k = sum(a.shape[1] for a in blocks)
    width = k + m
    buf = np.empty((width + min(n, _QR_BLOCK_ROWS), width))
    top = 0  # rows of buf that hold the R factor so far
    for start in range(0, n, _QR_BLOCK_ROWS):
        stop = min(start + _QR_BLOCK_ROWS, n)
        col = 0
        for a in (*blocks, targets):
            buf[top: top + stop - start, col: col + a.shape[1]] = a[start:stop]
            col += a.shape[1]
        r = np.linalg.qr(buf[: top + stop - start], mode="r")
        top = r.shape[0]
        buf[:top] = r
    r = buf[: min(top, k)]
    beta, _, rank, _ = np.linalg.lstsq(r[:, :k], r[:, k:],
                                       rcond=np.finfo(float).eps * max(n, k))
    if rank < k:
        return rank, None, None
    residuals = targets.copy()
    col = 0
    for a in blocks:
        residuals -= a @ beta[col: col + a.shape[1]]
        col += a.shape[1]
    return rank, beta, residuals


def pairwise_overid(fit: VarFit, probes: ProbeVectors, pairs="all",
                    alpha: float = 0.05, method: str = "delta") -> PairwiseReport:
    """Run the joint-diagonality Wald test on residual pairs.

    Estimated residuals stand in for the true errors without correction;
    the replacement error is below the sampling noise of the statistic for
    a stable, correctly specified lag order.  All pairs run as one
    stacked Wald test; a failing pair is reported and does not stop the
    others.  A pair out of range raises InvalidInputError, with the pair
    as given in its `pair` attribute.
    """
    d = fit.residuals.shape[1]
    if pairs == "all":
        wanted = list(itertools.combinations(range(d), 2))
    else:
        wanted = [(int(i), int(j)) for i, j in pairs]
        for i, j in wanted:
            if not (0 <= i < d and 0 <= j < d and i != j):
                error = InvalidInputError(f"invalid pair ({i}, {j}): indices are "
                                          f"0-based, distinct and below d={d}")
                error.pair = (i, j)
                raise error
    x = validate_sample(fit.residuals, min_rows=2, min_cols=2)
    records = (_pipeline.MomentRecord.of(x[:, [i, j]]) for i, j in wanted)
    stack = _wald_stack(records, probes, method) if wanted else None
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


def load_series_csv(path, date_column: str | None = None) -> CsvSeries:
    """Read a headed CSV of series columns; missing values are rejected.

    If `date_column` is None, the one column whose first data cell is not a
    number (if any) is kept as dates; it never enters the numeric data.  The
    file is read and decoded once, as ``open(path)`` would, and split at
    every line break; its data lines are parsed in one np.loadtxt pass.  A
    malformed file raises InvalidInputError naming its physical line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode(locale.getpreferredencoding(False))
    # The bytes and the text are dropped before parsing, which holds the lines.
    del raw
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    physical, comments = text.split("\n"), "#" in text
    del text
    kept = ([line for line in physical if line and line[0] != "#"] if comments
            else list(filter(None, physical)))
    if not kept:
        raise InvalidInputError(f"{path}: empty CSV")
    header = [h.strip() for h in _fields(kept[0])]
    if len(kept) == 1:
        raise InvalidInputError(f"{path}: no data rows")
    lines = kept[1:]

    if date_column is not None:
        if date_column not in header:
            raise InvalidInputError(f"{path}: no column named {date_column!r}")
        text_cols = [header.index(date_column)]
    else:
        text_cols = [j for j, cell in enumerate(_fields(lines[0]))
                     if not _number_or_missing(cell)]
    dtype = np.dtype([(f"f{j}", object if j in text_cols else np.float64)
                      for j in range(len(header))])
    table = None
    try:
        if not text_cols:
            table = np.loadtxt(lines, dtype=np.float64, ndmin=2, **_DIALECT)
            # Rows that all agree on a wrong width parse, so check it.
            if table.shape[1] != len(header):
                table = None
        elif len(text_cols) == 1:
            table = np.loadtxt(lines, dtype=dtype, ndmin=1, **_DIALECT)
    except ValueError:
        pass
    if table is None:
        raise InvalidInputError(_fault(path, header, physical, lines, dtype, text_cols))

    date_idx = text_cols[0] if text_cols else None
    numeric = [j for j in range(len(header)) if j != date_idx]
    if date_idx is None:
        data = table.T.copy().T  # column-major, as the structured path gives
    else:
        data = np.array([table[f"f{j}"] for j in numeric], dtype=np.float64).T
    if not np.isfinite(data).all():
        raise InvalidInputError(
            _nonfinite_fault(path, header, physical, lines, numeric, data))
    return CsvSeries(
        names=[header[j] for j in numeric],
        data=data,
        dates=table[f"f{date_idx}"].tolist() if date_idx is not None else None,
        date_column=header[date_idx] if date_idx is not None else None,
        sha256=digest,
    )


def _line_numbers(physical: list[str]) -> list[int]:
    """The physical line number of each data line (not blank, not a comment,
    not the header); read only to word a fault."""
    return [i + 1 for i, line in enumerate(physical) if line and line[0] != "#"][1:]


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


def _fault(path, header, physical, lines, dtype, text_cols) -> str:
    """Locate and word the fault behind a failed parse; returns no data."""
    numbers = _line_numbers(physical)
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


def _nonfinite_fault(path, header, physical, lines, numeric, data) -> str:
    """Word non-finite parsed values: a `nan` token is a missing value."""
    numbers = _line_numbers(physical)
    for i in np.flatnonzero(np.isnan(data).any(axis=1)):
        cells = _fields(lines[i])
        for k in np.flatnonzero(np.isnan(data[i])):
            j = numeric[k]
            if cells[j].strip().lower() in _MISSING:
                return (f"{path}: column {header[j]!r} has missing values "
                        f"(line {numbers[i]})")
    i = np.flatnonzero(~np.isfinite(data).all(axis=1))[0]
    return f"{path}: non-finite values present (line {numbers[i]})"
