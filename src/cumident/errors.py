"""Exception and warning types shared across the package."""

from __future__ import annotations


class CumidentError(Exception):
    """Base class for package-specific errors."""


class InvalidInputError(CumidentError, ValueError):
    """A caller's argument cannot be used as given: a sample of the wrong
    shape, with too few rows or columns or non-finite entries, a probe
    direction, lag order, pair, grid value, rate or option name out of its
    range, a malformed CSV or config file, or a jackknife on too few
    observations.  The library function that owns the value raises it,
    before any computation; the CLI exits 2 on it.  A numerical failure
    (sixth moments out of range, rank-deficient regressors) stays a plain
    ValueError and exits 3."""


class IllConditionedError(CumidentError):
    """A matrix that must be inverted (or solved against) is numerically singular.

    Carries the condition-number estimate so callers can decide whether to
    switch to the pseudoinverse path or abort.
    """

    def __init__(self, message: str, cond: float):
        super().__init__(f"{message} (condition estimate {cond:.3e})")
        self.cond = cond


class LabelingAmbiguityError(CumidentError):
    """Two labeling assignments achieve the same optimum; carries both."""

    def __init__(self, message: str, candidates: list):
        super().__init__(f"{message}: tied assignments {candidates}")
        self.candidates = candidates


class RankDetectionError(CumidentError):
    """Automatic rank selection found no clear singular-value gap."""


class WeakInstrumentError(CumidentError):
    """The instrument-regressor inner product is numerically zero."""


class EigenGapWarning(UserWarning):
    """Two eigenvalues of the identification matrix nearly coincide."""


class ComplexResidueWarning(UserWarning):
    """Eigenvectors carried a non-negligible imaginary part before truncation."""
