"""Drift guards.  The delta method and the delete-1 jackknife of every
demixing statistic run through one kernel, ``inference._resampled``.  Another
caller of the delete-1 stack or of the finite-difference covariance would be
a second copy of a resampling step, free to check its failures differently.
The point estimate runs through the moment kernel at every cumulant order,
not through the contraction Hessians."""

import ast
from collections import Counter

from test_errors import package_sites


def _calls(name: str):
    """Whether a node calls the function or method `name`: a method call
    names its attribute, a function call its name."""
    def match(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        return getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    return match


def test_only_the_kernel_reads_a_delete1_stack():
    assert package_sites(_calls("leave_one_out")) == Counter(
        {("inference.py", "_resampled"): 1})


def test_only_the_kernel_and_the_generic_statistic_run_the_delta_method():
    assert package_sites(_calls("_delta_from_moments")) == Counter({
        ("inference.py", "_resampled"): 1,
        ("inference.py", "delta_variance_statistic"): 1,
    })


def test_the_point_estimate_takes_no_contraction_path():
    for name in ("contract_hessian", "demixing_from_contractions"):
        assert ("identify.py", "estimate_demixing") not in package_sites(_calls(name))
