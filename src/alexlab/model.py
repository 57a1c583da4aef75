"""Closed-form kernels of the 2-D model plane of curvature k.

Everything in this module is a pure function of scalars: generalized sine
and cosine, the radial Green kernel, and triangle comparison angles via the
k-cosine law in the model plane of curvature k.  k has units 1/length^2.
"""

from __future__ import annotations

import math

from .exceptions import DomainError, PerimeterTooLargeError, TriangleInequalityError

# Below this threshold a curvature value is treated as zero so that the
# flat-branch formulas take over before sin/sinh cancellation kicks in.
FLAT_CURVATURE_EPS = 1e-12

# Sides measured by separate computations, such as graph distances from
# different Dijkstra sweeps, can break the triangle inequality by rounding
# alone.  comparison_angle allows this many ulps of the largest side; on
# the benchmark's cold-geodesic meshes such sides broke it by at most 6.1.
TRIANGLE_SLACK_ULPS = 16


def _check_k(k: float) -> None:
    if not math.isfinite(k):
        raise DomainError(f"curvature bound must be finite, got {k}")


def generalized_sine(k: float, t: float) -> float:
    """Generalized sine s_k(t) of the curvature-k model space.

    Three branches: sin(sqrt(k) t)/sqrt(k) for k > 0, t for k = 0,
    sinh(sqrt(-k) t)/sqrt(-k) for k < 0.  Continuous in k at k = 0.
    """
    _check_k(k)
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"generalized sine needs a finite t >= 0, got {t}")
    if abs(k) < FLAT_CURVATURE_EPS:
        return t
    if k > 0:
        rk = math.sqrt(k)
        return math.sin(rk * t) / rk
    rk = math.sqrt(-k)
    return math.sinh(rk * t) / rk


def generalized_cosine(k: float, t: float) -> float:
    """Derivative s_k'(t): cos(sqrt(k) t), 1, or cosh(sqrt(-k) t)."""
    if abs(k) < FLAT_CURVATURE_EPS:
        return 1.0
    if k > 0:
        return math.cos(math.sqrt(k) * t)
    return math.cosh(math.sqrt(-k) * t)


def _green_cutoff(k: float) -> float:
    # Upper integration limit for the k != 0 kernels, which have no decay
    # at infinity.  Additive normalization is a free choice; identities only
    # ever use the derivative green_kernel_deriv.
    if k > FLAT_CURVATURE_EPS:
        return 0.5 * math.pi / math.sqrt(k)
    return 1.0


def green_kernel(k: float, r: float) -> float:
    """Radial profile phi_k(r) of the model-plane Green function.

    The flat kernel is -log(r)/(2 pi); the curved kernels integrate
    1/(2 pi s_k) from r up to a fixed cutoff (pi/(2 sqrt(k)) for k > 0,
    1 for k < 0).
    """
    _check_k(k)
    if r <= 0:
        raise DomainError(f"green kernel needs r > 0, got {r}")
    if k > FLAT_CURVATURE_EPS and r >= math.pi / math.sqrt(k):
        raise DomainError(f"r={r} is beyond the diameter of the k={k} model")
    if abs(k) < FLAT_CURVATURE_EPS:
        return -math.log(r) / math.tau
    # Antiderivative is explicit: d/dt log(tan(sqrt(k) t / 2)) = sqrt(k)/sin,
    # with the hyperbolic analogue for k < 0; no quadrature needed.
    upper = _green_cutoff(k)
    if k > 0:
        rk = math.sqrt(k)
        val = math.log(math.tan(rk * upper / 2.0)) - math.log(math.tan(rk * r / 2.0))
    else:
        rk = math.sqrt(-k)
        val = math.log(math.tanh(rk * upper / 2.0)) - math.log(math.tanh(rk * r / 2.0))
    return val / math.tau


def green_kernel_deriv(k: float, r: float) -> float:
    """phi_k'(r) = -1/(2 pi s_k(r)).  Strictly negative on the domain."""
    _check_k(k)
    if r <= 0:
        raise DomainError(f"green kernel derivative needs r > 0, got {r}")
    s = generalized_sine(k, r)
    if s <= 0:
        raise DomainError(f"r={r} is beyond the diameter of the k={k} model")
    return -1.0 / (math.tau * s)


def comparison_angle(k: float, opp: float, s1: float, s2: float) -> float:
    """Angle opposite `opp` in the curvature-k model triangle (s1, s2, opp).

    Uses the flat, spherical, or hyperbolic cosine law.  Raises
    TriangleInequalityError when no such triangle exists, beyond a
    rounding slack of TRIANGLE_SLACK_ULPS ulps of the largest side, and
    PerimeterTooLargeError when k > 0 and opp+s1+s2 >= 2 pi/sqrt(k).
    """
    if s1 <= 0 or s2 <= 0:
        raise DomainError(f"side lengths must be positive, got s1={s1}, s2={s2}")
    if opp < 0:
        raise DomainError(f"opposite side must be nonnegative, got {opp}")
    slack = TRIANGLE_SLACK_ULPS * math.ulp(max(opp, s1, s2))
    if opp > s1 + s2 + slack or opp < abs(s1 - s2) - slack:
        raise TriangleInequalityError(
            f"sides (opp={opp}, s1={s1}, s2={s2}) violate the triangle inequality"
        )
    if k > FLAT_CURVATURE_EPS and opp + s1 + s2 >= 2.0 * math.pi / math.sqrt(k):
        raise PerimeterTooLargeError(
            f"perimeter {opp + s1 + s2} >= 2 pi/sqrt(k) for k={k}"
        )
    if abs(k) < FLAT_CURVATURE_EPS:
        c = (s1 * s1 + s2 * s2 - opp * opp) / (2.0 * s1 * s2)
    elif k > 0:
        rk = math.sqrt(k)
        num = math.cos(rk * opp) - math.cos(rk * s1) * math.cos(rk * s2)
        den = math.sin(rk * s1) * math.sin(rk * s2)
        c = num / den
    else:
        rk = math.sqrt(-k)
        num = math.cosh(rk * s1) * math.cosh(rk * s2) - math.cosh(rk * opp)
        den = math.sinh(rk * s1) * math.sinh(rk * s2)
        c = num / den
    return math.acos(min(1.0, max(-1.0, c)))
