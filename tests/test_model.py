import math

import pytest
from hypothesis import given, strategies as st

from alexlab.exceptions import (
    DomainError,
    PerimeterTooLargeError,
    TriangleInequalityError,
)
from alexlab.model import (
    comparison_angle,
    generalized_sine,
    green_kernel,
    green_kernel_deriv,
)


def test_generalized_sine_branches():
    assert generalized_sine(0.0, 2.5) == 2.5
    assert generalized_sine(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    # frozen from mpmath.sinh(1) at 50 digits
    assert generalized_sine(-1.0, 1.0) == pytest.approx(1.1752011936438014, abs=1e-14)


def test_generalized_sine_rejects_negative_t():
    with pytest.raises(DomainError):
        generalized_sine(1.0, -0.1)


@given(st.floats(min_value=0.01, max_value=5.0))
def test_generalized_sine_continuous_at_flat_branch(t):
    # spec invariant: |s_k(t) - t| -> 0 as k -> 0, checked at |k| = 1e-8
    assert abs(generalized_sine(1e-8, t) - t) < 1e-6
    assert abs(generalized_sine(-1e-8, t) - t) < 1e-6


def test_green_kernel_flat_2d_log_branch():
    assert green_kernel(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert green_kernel(0.0, 0.5) == pytest.approx(-math.log(0.5) / (2 * math.pi), rel=1e-12)


def test_green_kernel_curved_closed_form():
    # oracle: tan(t/2) = (1 - cos t)/sin t and tanh(t/2) = (cosh t - 1)/sinh t,
    # so int_r^c dt/sin t and int_r^c dt/sinh t have these logs as values;
    # the kernel vanishes at its cutoff (pi/2 for k = 1, 1 for k = -1)
    for r in (0.2, 0.9, 1.4):
        sph = -math.log((1.0 - math.cos(r)) / math.sin(r)) / math.tau
        assert green_kernel(1.0, r) == pytest.approx(sph, rel=1e-12)

        def hyp(t):
            return math.log((math.cosh(t) - 1.0) / math.sinh(t))

        assert green_kernel(-1.0, r) == pytest.approx((hyp(1.0) - hyp(r)) / math.tau, rel=1e-12)
    assert green_kernel(1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert green_kernel(-1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_green_kernel_has_unit_flux():
    # the Green function of the model plane has flux -1 through every
    # metric circle: circle length times phi_k'(r) is -1 for every k and r
    for k in (0.0, 1.0, -1.0, 4.0, -0.25):
        for r in (0.1, 0.7, 1.5):
            circle = math.tau * generalized_sine(k, r)
            assert circle * green_kernel_deriv(k, r) == pytest.approx(-1.0, rel=1e-14)

def test_green_kernel_monotone_for_nonpositive_k():
    for k in (0.0, -1.0):
        vals = [green_kernel(k, r) for r in (0.2, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_green_kernel_domain_errors():
    with pytest.raises(DomainError):
        green_kernel(0.0, 0.0)
    with pytest.raises(DomainError):
        green_kernel(1.0, math.pi + 0.1)


def test_green_kernel_deriv_matches_finite_difference():
    for k in (0.0, 1.0, -1.0):
        r, dr = 0.9, 1e-6
        fd = (green_kernel(k, r + dr) - green_kernel(k, r - dr)) / (2 * dr)
        assert green_kernel_deriv(k, r) == pytest.approx(fd, rel=1e-5)


def test_comparison_angle_flat():
    assert comparison_angle(0.0, 1.0, 1.0, 1.0) == pytest.approx(math.pi / 3, abs=1e-12)
    assert comparison_angle(0.0, 2.0, 1.0, 1.0) == pytest.approx(math.pi, abs=1e-12)
    # oracle: planar law of cosines
    opp, s1, s2 = 0.7, 0.9, 1.2
    expect = math.acos((s1**2 + s2**2 - opp**2) / (2 * s1 * s2))
    assert comparison_angle(0.0, opp, s1, s2) == pytest.approx(expect, abs=1e-12)


def test_comparison_angle_spherical_right_triangle():
    a = math.pi / 2
    assert comparison_angle(1.0, a, a, a) == pytest.approx(math.pi / 2, abs=1e-12)


def test_comparison_angle_hyperbolic_thin_triangle():
    # hyperbolic triangles are thinner than flat ones
    flat = comparison_angle(0.0, 1.0, 1.0, 1.0)
    hyp = comparison_angle(-1.0, 1.0, 1.0, 1.0)
    assert hyp < flat


def test_comparison_angle_errors():
    with pytest.raises(TriangleInequalityError):
        comparison_angle(0.0, 3.0, 1.0, 1.0)
    with pytest.raises(PerimeterTooLargeError):
        comparison_angle(1.0, 2.5, 2.5, 2.5)
    with pytest.raises(DomainError):
        comparison_angle(0.0, 1.0, 0.0, 1.0)


def test_comparison_angle_allows_rounding_excess_only():
    # graph distances from three Dijkstra sweeps: s2 - s1 exceeds opp by
    # 1.1e-15, five ulps of the largest side
    opp, s1, s2 = 0.8939614247919471, 0.9069807123959728, 1.800942137187921
    assert s2 - s1 > opp
    assert comparison_angle(0.0, opp, s1, s2) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(TriangleInequalityError):
        comparison_angle(0.0, s2 - s1 - 1e-9, s1, s2)
    with pytest.raises(TriangleInequalityError):
        comparison_angle(0.0, s1 + s2 + 1e-9, s1, s2)


@given(
    st.floats(min_value=0.2, max_value=1.2),
    st.floats(min_value=0.2, max_value=1.2),
    st.floats(min_value=0.2, max_value=1.2),
)
def test_spherical_angle_sum_at_least_pi(a, b, c):
    # spec invariant: angles of a k=1 triangle sum to >= pi
    if a + b <= c or b + c <= a or c + a <= b:
        return
    total = (
        comparison_angle(1.0, a, b, c)
        + comparison_angle(1.0, b, c, a)
        + comparison_angle(1.0, c, a, b)
    )
    assert total >= math.pi - 1e-9


def test_model_params_validation():
    # a non-finite curvature bound is rejected by every kernel that takes k
    for kernel in (green_kernel, green_kernel_deriv):
        with pytest.raises(DomainError):
            kernel(math.inf, 1.0)
