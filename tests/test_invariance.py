"""Location and scale invariance of the order-3 pipeline, and its one anchor.

Third cumulants do not change when a constant is added to the data, so
neither may anything computed from them: the point estimate, the delta and
jackknife variances and the Wald statistics.  Nor may any of these change
when the data are rescaled, which leaves the unit rows, the labeled
(diagonal-normalized) matrix and the Wald statistics as they are.  The scalar estimate, the
jackknife centre and the moment kernel on a stack of one are the same
numbers, bit for bit.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@functools.lru_cache(maxsize=None)
def _permutation_case(d):
    """A skewed d-variable sample, its probes, and the rows and Wald
    statistics (delta, jackknife) that the unpermuted sample gives."""
    off = np.random.default_rng(d).choice([-0.3, 0.3], (d, d))
    lam = np.eye(d) + off * (1.0 - np.eye(d))
    x = np.random.default_rng(40 + d).standard_exponential((2_000, d)) @ np.linalg.inv(lam).T
    probes = ci.ProbeVectors.draw(d, 11)
    wald = [ci.wald_test(x, probes, method=m).statistic for m in ("delta", "jackknife")]
    return x, probes, ci.estimate_demixing(x, probes).lambda_tilde, wald


@given(st.sampled_from([2, 3, 5]).flatmap(lambda d: st.permutations(range(d))))
@settings(max_examples=25, deadline=None)
def test_permuting_columns_and_probes_permutes_the_rows(perm):
    # Relabeling the variables relabels every row's entries and leaves the
    # Wald statistics as they are.
    x, probes, rows, wald = _permutation_case(len(perm))
    perm = list(perm)
    moved = ci.ProbeVectors(w1=probes.w1[perm], w2=probes.w2[perm])
    y = x[:, perm]
    np.testing.assert_allclose(ci.estimate_demixing(y, moved).lambda_tilde,
                               rows[:, perm], rtol=0.0, atol=1e-12)
    got = [ci.wald_test(y, moved, method=m).statistic for m in ("delta", "jackknife")]
    np.testing.assert_allclose(got, wald, rtol=1e-9)


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


def test_jackknife_and_wald_follow_extreme_scales():
    # Both contractions scale by c^3, so whether G(w2) is singular may not
    # depend on c: at 1e52 and 1e-60 their raw 2 x 2 determinants overflow
    # and underflow, and nothing changes.
    x = gen_composite(CompositeDgpConfig(n=2_000, k=0.5, seed=1), 0).x

    def statistics(data):
        est = ci.estimate_demixing(data, _PROBES)
        return [
            ci.label_by_signs(est, _PATTERN).lambda_final[0, 1],
            ci.demixing_jackknife(data, _PROBES, _PATTERN).variance,
            ci.wald_test(data, _PROBES, method="jackknife").statistic,
        ]

    base = statistics(x)
    for c in (1e-60, 1e52):
        for got, want in zip(statistics(c * x), base):
            np.testing.assert_allclose(got, want, rtol=1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_estimate_and_jackknife_follow_subnormal_contractions(d):
    # At scale 1e-105 the contractions, of order c^3, are subnormal.  Solved
    # at the unit scale that judges them, they give the unscaled estimate
    # and jackknife variance to the precision they keep.
    if d == 2:
        x = gen_composite(CompositeDgpConfig(n=2_000, k=0.5, seed=1), 0).x
    else:
        lam = np.array([[1.0, 0.4, -0.3], [-0.5, 1.0, 0.4], [0.3, -0.5, 1.0]])
        x = np.random.default_rng(5).standard_exponential((1_500, 3)) @ np.linalg.inv(lam).T
    probes = ci.ProbeVectors.draw(d, 3)
    for statistic in (lambda y: ci.estimate_demixing(y, probes).lambda_tilde,
                      lambda y: ci.demixing_jackknife(y, probes).variance):
        want = statistic(x)
        got = statistic(1e-105 * x)
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # Sigma_m overflows at 1e52
def test_sixth_moment_check_is_location_invariant():
    # At scale 1e46 the raw sixth moments of data shifted by 1e52 overflow,
    # but the centered ones the delta method uses do not.
    x = 1e46 * gen_composite(CompositeDgpConfig(n=2_000, k=0.5, seed=1), 0).x
    base = ci.delta_variance_labeled(x, _PROBES, _PATTERN).sigma_u
    shifted = ci.delta_variance_labeled(x + 1e52, _PROBES, _PATTERN).sigma_u
    np.testing.assert_allclose(shifted, base, rtol=1e-8)
    # At 1e52 and 1e-60 the centered sixth moments overflow and underflow.
    for c in (1e52 / 1e46, 1e-60 / 1e46):
        with pytest.raises(ValueError, match="sixth-moment"):
            ci.wald_test(c * x, _PROBES)
        with pytest.raises(ValueError, match="sixth-moment"):
            ci.delta_variance_labeled(c * x, _PROBES, _PATTERN)
