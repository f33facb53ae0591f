"""Who raises what: a caller's bad argument is InvalidInputError, raised by
the library function that owns the value; a numerical failure stays a plain
ValueError.  The CLI maps the first to exit 2 and the second to exit 3."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cumident as ci
from cumident.errors import InvalidInputError

SRC = Path(ci.__file__).parent

# The plain `raise ValueError(...)` sites that remain, each a numerical
# failure rather than a bad argument, by module and enclosing function.
NUMERICAL_VALUE_ERRORS = Counter({
    ("inference.py", "delta_variance_statistic"): 1,  # sixth moments out of range
    ("inference.py", "_raise_failed"): 1,  # sixth moments out of range
    ("varpipe.py", "fit_var"): 1,  # rank-deficient lag regressors
    ("varpipe.py", "partial_out"): 1,  # rank-deficient controls
})


def package_sites(match) -> Counter:
    """(file name, enclosing function) of each node of the package source
    that `match` accepts."""
    found = Counter()

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if match(node):
            found[(path.name, where)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "<module>")
    return found


def _raises_value_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def test_only_numerical_failures_raise_plain_value_error():
    # An argument check that raised ValueError would exit 3 ("numerical
    # failure") from the CLI instead of 2.
    assert package_sites(_raises_value_error) == NUMERICAL_VALUE_ERRORS


def _composite():
    return ci.gen_composite(ci.CompositeDgpConfig(n=500, k=0.5, seed=1), 0).x


def _var_fit():
    return ci.fit_var(np.random.default_rng(4).standard_normal((300, 3)), p=1)


_BAD_CALLS = {
    "fit_var lag 0": lambda: ci.fit_var(
        np.random.default_rng(1).standard_normal((200, 2)), p=0),
    "fit_var series too short": lambda: ci.fit_var(
        np.random.default_rng(1).standard_normal((19, 2)), p=6),
    "pair out of range": lambda: ci.pairwise_overid(
        _var_fit(), ci.ProbeVectors.draw(2, 1), pairs=[(0, 8)]),
    "pair of one series": lambda: ci.pairwise_overid(
        _var_fit(), ci.ProbeVectors.draw(2, 1), pairs=[(1, 1)]),
    "n <= d rows": lambda: ci.estimate_demixing(
        np.ones((2, 2)), ci.ProbeVectors.draw(2, 1)),
    "order 2": lambda: ci.estimate_demixing(
        np.random.default_rng(1).standard_normal((50, 2)), ci.ProbeVectors.draw(2, 1),
        order=2),
    "order 5": lambda: ci.estimate_demixing(
        np.random.default_rng(1).standard_normal((50, 2)), ci.ProbeVectors.draw(2, 1),
        order=5),
    "w2 of the wrong size": lambda: ci.ProbeVectors.draw(2, 1, w2=[1.0, 0.5, 0.25]),
    "non-finite w2": lambda: ci.ProbeVectors.draw(2, 1, w2=[1.0, np.nan]),
    "k nan": lambda: ci.CompositeDgpConfig(n=10, k=np.nan),
    "k inf": lambda: ci.CompositeDgpConfig(n=10, k=np.inf),
    "kurtosis inf": lambda: ci.CompositeDgpConfig(n=10, k=0.1, kurtoses=(3.0, 4.0, np.inf)),
    "kurtosis nan": lambda: ci.CompositeDgpConfig(n=10, k=0.1, kurtoses=(3.0, np.nan, 5.0)),
    "two kurtoses": lambda: ci.CompositeDgpConfig(n=10, k=0.1, kurtoses=(3.0, 4.0)),
    "level above 1": lambda: ci.jackknife_confidence_interval(0.0, 1.0, level=1.5),
    "interval n 0": lambda: ci.confidence_interval(0.0, 1.0, 0),
    "interval n -5": lambda: ci.confidence_interval(0.0, 0.5, -5),
    "interval n 2.5": lambda: ci.confidence_interval(0.0, 1.0, 2.5),
    "no coverage methods": lambda: ci.run_coverage_experiment([300], 0.5, 1, 1, methods=()),
    "duplicate pattern rows, jackknife": lambda: ci.demixing_jackknife(
        _composite(), ci.ProbeVectors.draw(2, 1), pattern=[[1, 1], [1, 1]]),
    "duplicate pattern rows, delta": lambda: ci.delta_variance_labeled(
        _composite(), ci.ProbeVectors.draw(2, 1), [[1, 1], [1, 1]]),
}


@pytest.mark.parametrize("case", list(_BAD_CALLS))
def test_bad_arguments_raise_invalid_input_error(case):
    with pytest.raises(InvalidInputError):
        _BAD_CALLS[case]()


def test_numerical_failures_stay_plain_value_errors():
    base = np.random.default_rng(3).standard_normal((200, 1))
    with pytest.raises(ValueError, match="rank-deficient") as err:
        ci.fit_var(np.hstack([base, base]), p=1)
    assert not isinstance(err.value, InvalidInputError)
