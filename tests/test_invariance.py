"""Location and scale invariance of the order-3 pipeline, and its one anchor.

Third cumulants do not change when a constant is added to the data, so
neither may anything computed from them: the point estimate, the delta and
jackknife variances and the Wald statistics.  Nor may any of these change
when the data are rescaled, which leaves the unit rows, the labeled
(diagonal-normalized) matrix and the Wald statistics as they are.  The scalar estimate, the
jackknife centre and the moment kernel on a stack of one are the same
numbers, bit for bit.
"""

import numpy as np
import pytest

import cumident as ci
from cumident import _pipeline
from cumident.moments import _centered_moments
from cumident.simulate import CompositeDgpConfig, gen_composite

RTOL = 1e-6
_PROBES = ci.ProbeVectors.draw(2, 3)
_PATTERN = ci.SUPPLY_DEMAND_PATTERN


def _statistics(x):
    """Every shift-invariant statistic of the order-3 pipeline on `x`."""
    return {
        "wald delta": ci.wald_test(x, _PROBES, method="delta").statistic,
        "wald jackknife": ci.wald_test(x, _PROBES, method="jackknife").statistic,
        "delta sigma_u": ci.delta_variance_labeled(
            x, _PROBES, _PATTERN, entry=None).sigma_u,
        "jackknife variance": ci.demixing_jackknife(
            x, _PROBES, _PATTERN, entry=None).variance,
        "rows": ci.estimate_demixing(x, _PROBES).lambda_tilde,
    }


@pytest.fixture(scope="module")
def composite():
    x = gen_composite(CompositeDgpConfig(n=5_000, k=0.5, seed=1), 0).x
    return x, _statistics(x)


@pytest.mark.parametrize("c", [10.0, 30.0, 1e3, 1e4])
def test_statistics_are_shift_invariant(composite, c):
    x, base = composite
    shifted = _statistics(x + c)
    for name, want in base.items():
        np.testing.assert_allclose(shifted[name], want, rtol=RTOL, err_msg=name)


@pytest.mark.parametrize("s", [1e-3, 1e6, 1e12])
def test_statistics_are_scale_invariant(composite, s):
    x, base = composite
    scaled = _statistics(s * x)
    for name, want in base.items():
        np.testing.assert_allclose(scaled[name], want, rtol=RTOL, err_msg=name)


def test_labeled_estimate_is_scale_invariant(composite):
    x, _ = composite

    def labeled(data):
        est = ci.estimate_demixing(data, _PROBES)
        return ci.label_by_signs(est, _PATTERN).lambda_final

    base = labeled(x)
    # A power of two scales every moment exactly.
    np.testing.assert_array_equal(labeled(2.0 * x), base)
    np.testing.assert_allclose(labeled(3.0 * x), base, rtol=1e-9)


@pytest.mark.parametrize("d", [2, 5])
def test_point_estimate_is_the_jackknife_centre_and_the_kernel(d):
    from test_inference import memo_case

    x, probes, _ = memo_case(d)
    x = x + 7.0
    rows = ci.estimate_demixing(x, probes).lambda_tilde
    centre = ci.demixing_jackknife(x, probes).full_estimate.reshape(d, d)
    kernel = _pipeline.demix_rows(
        _centered_moments(x)[1], d, probes.w1, probes.w2)[0]
    assert rows.tobytes() == centre.tobytes() == kernel.tobytes()
