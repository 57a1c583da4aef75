import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alexlab.exceptions import (
    DomainError,
    PerimeterTooLargeError,
    TriangleInequalityError,
)
from alexlab.model import (
    ModelParams,
    bishop_gromov_profile,
    comparison_angle,
    cone_ball_volume,
    generalized_sine,
    green_kernel,
    green_kernel_deriv,
    model_ball_volume,
    model_sphere_area,
    sphere_measure,
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


def test_green_kernel_flat_3d():
    # integral of t^{-2} from 1 to inf is 1; omega_2 = 4 pi
    p = ModelParams(3, 0.0)
    assert green_kernel(p, 1.0) == pytest.approx(1.0 / (4 * math.pi), rel=1e-12)


def test_green_kernel_flat_closed_form_higher_n():
    # spec invariant: n >= 3, k = 0 kernel equals r^{2-n}/((n-2) omega_{n-1})
    for n in (3, 4, 5):
        p = ModelParams(n, 0.0)
        for r in (0.3, 1.0, 2.7):
            expect = r ** (2 - n) / ((n - 2) * sphere_measure(n))
            assert green_kernel(p, r) == pytest.approx(expect, rel=1e-10)


def test_green_kernel_flat_2d_log_branch():
    p = ModelParams(2, 0.0)
    assert green_kernel(p, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert green_kernel(p, 0.5) == pytest.approx(-math.log(0.5) / (2 * math.pi), rel=1e-12)


def test_green_kernel_negative_curvature_quadrature():
    # oracle: closed form of int_r^inf sinh(t)^{-2} dt = coth(r) - 1
    p = ModelParams(3, -1.0)
    r = 0.8
    expect = (1.0 / math.tanh(r) - 1.0) / (1 * sphere_measure(3))
    assert green_kernel(p, r) == pytest.approx(expect, rel=1e-9)


def test_green_kernel_monotone_for_nonpositive_k():
    for k in (0.0, -1.0):
        for n in (2, 3):
            p = ModelParams(n, k)
            vals = [green_kernel(p, r) for r in (0.2, 0.5, 1.0, 2.0)]
            assert all(a > b for a, b in zip(vals, vals[1:]))


def test_green_kernel_domain_errors():
    with pytest.raises(DomainError):
        green_kernel(ModelParams(3, 0.0), 0.0)
    with pytest.raises(DomainError):
        green_kernel(ModelParams(2, 1.0), math.pi + 0.1)


def test_green_kernel_deriv_matches_finite_difference():
    for n, k in [(2, 0.0), (2, 1.0), (2, -1.0), (3, 0.0), (3, -0.5), (4, 0.3)]:
        p = ModelParams(n, k)
        r, dr = 0.9, 1e-6
        fd = (green_kernel(p, r + dr) - green_kernel(p, r - dr)) / (2 * dr)
        assert green_kernel_deriv(p, r) == pytest.approx(fd, rel=1e-5)


def test_model_volumes_flat_2d():
    p = ModelParams(2, 0.0)
    assert model_sphere_area(p, 1.0) == pytest.approx(2 * math.pi, rel=1e-12)
    assert model_ball_volume(p, 1.0) == pytest.approx(math.pi, rel=1e-12)


def test_model_volumes_round_sphere():
    # whole unit sphere: int_0^pi 2 pi sin t dt = 4 pi
    p = ModelParams(2, 1.0)
    assert model_ball_volume(p, math.pi) == pytest.approx(4 * math.pi, rel=1e-12)


def test_model_volumes_flat_3d():
    p = ModelParams(3, 0.0)
    assert model_ball_volume(p, 2.0) == pytest.approx(32 * math.pi / 3, rel=1e-12)


def test_model_volume_quadrature_against_closed_form():
    # n=4 hyperbolic ball via quadrature; oracle is the explicit antiderivative
    # int sinh^3 = cosh^3/3 - cosh
    p = ModelParams(4, -1.0)
    r = 1.3

    def f(t):
        c = math.cosh(t)
        return c**3 / 3 - c

    expect = sphere_measure(4) * (f(r) - f(0.0))
    assert model_ball_volume(p, r) == pytest.approx(expect, rel=1e-9)


@given(
    st.sampled_from([(2, 0.0), (2, -1.0), (3, 0.0), (3, 1.0), (4, -0.5)]),
    st.floats(min_value=0.1, max_value=1.5),
)
def test_ball_volume_derivative_is_sphere_area(nk, r):
    # spec invariant: d/dr ball volume = sphere area, relative error < 1e-6
    p = ModelParams(*nk)
    dr = 1e-5
    fd = (model_ball_volume(p, r + dr) - model_ball_volume(p, r - dr)) / (2 * dr)
    assert fd == pytest.approx(model_sphere_area(p, r), rel=1e-6)


def test_cone_ball_volume():
    p = ModelParams(2, 0.0)
    theta = 3 * math.pi / 2
    assert cone_ball_volume(theta, p, 1.0) == pytest.approx(3 * math.pi / 4, rel=1e-12)
    assert cone_ball_volume(2 * math.pi, p, 1.3) == pytest.approx(math.pi * 1.69, rel=1e-12)
    assert cone_ball_volume(math.pi, p, 2.0) == pytest.approx(2 * math.pi, rel=1e-12)
    with pytest.raises(DomainError):
        cone_ball_volume(0.0, p, 1.0)


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


def test_bishop_gromov_profile_flat_plane():
    p = ModelParams(2, 0.0)
    radii = np.linspace(0.1, 1.0, 10)
    ratios, mono = bishop_gromov_profile([(r, math.pi * r**2) for r in radii], p)
    assert np.allclose(ratios, 1.0, atol=1e-12)
    assert mono


def test_bishop_gromov_profile_cone():
    p = ModelParams(2, 0.0)
    radii = np.linspace(0.1, 1.0, 10)
    theta = 3 * math.pi / 2
    ratios, mono = bishop_gromov_profile([(r, theta * r**2 / 2) for r in radii], p)
    assert np.allclose(ratios, 0.75, atol=1e-12)
    assert mono


def test_bishop_gromov_profile_detects_increase():
    p = ModelParams(2, 0.0)
    pairs = [(0.5, math.pi * 0.25), (1.0, 2 * math.pi)]  # ratio 1 then 2
    ratios, mono = bishop_gromov_profile(pairs, p)
    assert not mono
    with pytest.raises(DomainError):
        bishop_gromov_profile([], p)


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(1, 0.0)
    with pytest.raises(DomainError):
        ModelParams(2, math.inf)
