"""Closed-form kernels of the constant-curvature model spaces.

Everything in this module is a pure function of scalars: generalized sine,
radial Green kernels, ball/sphere volumes of the n-dimensional model space
of curvature k, volumes of metric cones over a direction space, triangle
comparison angles via the k-cosine law, and Bishop-Gromov volume ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .exceptions import DomainError, PerimeterTooLargeError, TriangleInequalityError

# Below this threshold a curvature value is treated as zero so that the
# flat-branch formulas take over before sin/sinh cancellation kicks in.
FLAT_CURVATURE_EPS = 1e-12

# Relative tolerance for adaptive quadrature of kernels without closed form.
QUAD_RTOL = 1e-10

# Sides measured by separate computations, such as graph distances from
# different Dijkstra sweeps, can break the triangle inequality by rounding
# alone.  comparison_angle allows this many ulps of the largest side; on
# the benchmark's cold-geodesic meshes such sides broke it by at most 6.1.
TRIANGLE_SLACK_ULPS = 16


@dataclass(frozen=True)
class ModelParams:
    """Dimension and curvature lower bound of a model space.

    n is the dimension (>= 2); k is the sectional-curvature bound with
    units 1/length^2.
    """

    n: int
    k: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise DomainError(f"model dimension must be an integer >= 2, got {self.n}")
        if not math.isfinite(self.k):
            raise DomainError(f"curvature bound must be finite, got {self.k}")

    @property
    def diameter(self) -> float:
        """Diameter of the model space (pi/sqrt(k) for k > 0, else inf)."""
        if self.k > FLAT_CURVATURE_EPS:
            return math.pi / math.sqrt(self.k)
        return math.inf


def sphere_measure(n: int) -> float:
    """Total measure omega_{n-1} of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def generalized_sine(k: float, t: float) -> float:
    """Generalized sine s_k(t) of the curvature-k model space.

    Three branches: sin(sqrt(k) t)/sqrt(k) for k > 0, t for k = 0,
    sinh(sqrt(-k) t)/sqrt(-k) for k < 0.  Continuous in k at k = 0.
    """
    if t < 0:
        raise DomainError(f"generalized sine needs t >= 0, got {t}")
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
    # Upper integration limit for the k != 0 kernels that have no decay at
    # infinity.  Additive normalization is a free choice; identities only
    # ever use the derivative green_kernel_deriv.
    if k > FLAT_CURVATURE_EPS:
        return 0.5 * math.pi / math.sqrt(k)
    return 1.0


def green_kernel(params: ModelParams, r: float) -> float:
    """Radial profile phi_k(r) of the model-space Green function.

    For n >= 3 this is the integral of s_k^{1-n} from r outward, normalized
    by (n-2)*omega_{n-1}; the flat branch has the closed form
    r^{2-n}/((n-2) omega_{n-1}).  For n = 2 the flat kernel is
    -log(r)/(2 pi) and the curved kernels integrate 1/s_k up to a fixed
    cutoff (pi/(2 sqrt(k)) for k > 0, 1 for k < 0).
    """
    n, k = params.n, params.k
    if r <= 0:
        raise DomainError(f"green kernel needs r > 0, got {r}")
    if k > FLAT_CURVATURE_EPS and r >= math.pi / math.sqrt(k):
        raise DomainError(f"r={r} is beyond the diameter of the k={k} model")
    omega = sphere_measure(n)
    if n == 2:
        if abs(k) < FLAT_CURVATURE_EPS:
            return -math.log(r) / omega
        # Antiderivative is explicit: d/dt log(tan(sqrt(k) t / 2)) = sqrt(k)/sin,
        # with the hyperbolic analogue for k < 0; no quadrature needed.
        upper = _green_cutoff(k)
        if k > 0:
            rk = math.sqrt(k)
            val = math.log(math.tan(rk * upper / 2.0)) - math.log(math.tan(rk * r / 2.0))
        else:
            rk = math.sqrt(-k)
            val = math.log(math.tanh(rk * upper / 2.0)) - math.log(math.tanh(rk * r / 2.0))
        return val / omega
    # n >= 3
    if abs(k) < FLAT_CURVATURE_EPS:
        return r ** (2 - n) / ((n - 2) * omega)
    if k < 0:
        # Integrand decays like e^{-(n-1) sqrt(-k) t}; cut the improper tail
        # where it underflows instead of letting sinh overflow.
        rk = math.sqrt(-k)
        upper = r + 720.0 / ((n - 1) * rk)
        val, _ = integrate.quad(
            lambda t: generalized_sine(k, t) ** (1 - n),
            r,
            upper,
            epsrel=QUAD_RTOL,
            epsabs=0.0,
            limit=200,
        )
        return val / ((n - 2) * omega)
    upper = _green_cutoff(k)
    if r >= upper:
        sign = -1.0
        lo, hi = upper, r
    else:
        sign = 1.0
        lo, hi = r, upper
    val, _ = integrate.quad(
        lambda t: generalized_sine(k, t) ** (1 - n),
        lo,
        hi,
        epsrel=QUAD_RTOL,
        epsabs=0.0,
        limit=200,
    )
    return sign * val / ((n - 2) * omega)


def green_kernel_deriv(params: ModelParams, r: float) -> float:
    """phi_k'(r).  Strictly negative on the domain.

    Equals -s_k^{1-n}(r)/((n-2) omega_{n-1}) for n >= 3 and
    -1/(omega_1 s_k(r)) for n = 2.
    """
    n, k = params.n, params.k
    if r <= 0:
        raise DomainError(f"green kernel derivative needs r > 0, got {r}")
    omega = sphere_measure(n)
    s = generalized_sine(k, r)
    if s <= 0:
        raise DomainError(f"r={r} is beyond the diameter of the k={k} model")
    if n == 2:
        return -1.0 / (omega * s)
    return -(s ** (1 - n)) / ((n - 2) * omega)


def model_sphere_area(params: ModelParams, r: float) -> float:
    """Area of the metric sphere of radius r: omega_{n-1} s_k^{n-1}(r)."""
    n, k = params.n, params.k
    if r < 0:
        raise DomainError(f"sphere area needs r >= 0, got {r}")
    if k > FLAT_CURVATURE_EPS and r > math.pi / math.sqrt(k) + 1e-15:
        raise DomainError(f"r={r} exceeds the diameter of the k={k} model")
    return sphere_measure(n) * generalized_sine(k, r) ** (n - 1)


def model_ball_volume(params: ModelParams, r: float) -> float:
    """Volume of the metric ball of radius r in the model space."""
    n, k = params.n, params.k
    if r < 0:
        raise DomainError(f"ball volume needs r >= 0, got {r}")
    if k > FLAT_CURVATURE_EPS and r > math.pi / math.sqrt(k) + 1e-15:
        raise DomainError(f"r={r} exceeds the diameter of the k={k} model")
    if r == 0:
        return 0.0
    omega = sphere_measure(n)
    if abs(k) < FLAT_CURVATURE_EPS:
        return omega * r**n / n
    if n == 2:
        # integral of s_k is (1 - cos(sqrt(k) r))/k in both signed branches
        return omega * (1.0 - generalized_cosine(k, r)) / k
    if n == 3:
        rk = math.sqrt(abs(k))
        if k > 0:
            inner = r / 2.0 - math.sin(2 * rk * r) / (4 * rk)
        else:
            inner = math.sinh(2 * rk * r) / (4 * rk) - r / 2.0
        return omega * inner / abs(k)
    val, _ = integrate.quad(
        lambda t: generalized_sine(k, t) ** (n - 1),
        0.0,
        r,
        epsrel=QUAD_RTOL,
        epsabs=0.0,
        limit=200,
    )
    return omega * val


def cone_ball_volume(direction_measure: float, params: ModelParams, r: float) -> float:
    """Ball volume in the k-cone over a direction space of given measure.

    direction_measure is vol(Sigma_p); for n = 2 it is the cone angle.
    The cone scales the model ball by direction_measure/omega_{n-1}.
    """
    if direction_measure <= 0:
        raise DomainError(f"direction measure must be positive, got {direction_measure}")
    return direction_measure / sphere_measure(params.n) * model_ball_volume(params, r)


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


def bishop_gromov_profile(ball_volumes, params: ModelParams) -> tuple[np.ndarray, bool]:
    """Ratios vol(B(r))/model ball volume plus a monotonicity flag.

    ball_volumes is a sequence of (r, vol) pairs with strictly increasing
    radii and nondecreasing, nonnegative volumes.  The flag is True iff
    the ratio sequence is nonincreasing within 1e-9.
    """
    pairs = list(ball_volumes)
    if not pairs:
        raise DomainError("bishop_gromov_profile needs at least one (r, vol) pair")
    radii = np.asarray([p[0] for p in pairs], dtype=float)
    vols = np.asarray([p[1] for p in pairs], dtype=float)
    if np.any(np.diff(radii) <= 0):
        raise DomainError("radii must be strictly increasing")
    if np.any(vols < 0) or np.any(np.diff(vols) < 0):
        raise DomainError("volumes must be nonnegative and nondecreasing")
    model = np.asarray([model_ball_volume(params, r) for r in radii])
    ratios = vols / model
    monotone = bool(np.all(np.diff(ratios) <= 1e-9))
    return ratios, monotone
