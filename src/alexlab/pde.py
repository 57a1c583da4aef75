"""Poisson/Dirichlet solving, maximum principles, eigenpairs, harmonic measure.

The Dirichlet problem L_u = f vol with u = g on the boundary reduces to a
symmetric positive-definite system on the interior nodes, solved directly
by a banded Cholesky factor in reverse Cuthill-McKee order; the shifted
eigen system is factored the same way.  Sign convention: L_u(phi) =
-E(u, phi), so the solution satisfies E(u, phi) = -int(f phi) for
interior hats and the flat model equation reads  Delta u = f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy import linalg, sparse
from scipy.sparse import csgraph

from .calculus import (
    DirichletOperator,
    PLFunction,
    _check_host,
    _region_mask,
    interior_region_vertices,
    laplacian_vector,
)
from .exceptions import (
    BallTooLargeError,
    DomainError,
    EmptyBoundaryError,
    NotClosedError,
    SolverDivergedError,
)
from .model import generalized_sine
from .report import ExperimentReport, make_report
from .space import ConeSurface, DistanceField


def _as_values(space, data, name):
    if data is None:
        return np.zeros(space.n_vertices)
    if isinstance(data, PLFunction):
        _check_host(space, data)
        return data.values
    if np.isscalar(data):
        return np.full(space.n_vertices, float(data))
    arr = np.asarray(data, dtype=float)
    if arr.shape != (space.n_vertices,):
        raise DomainError(f"{name} must be scalar, PLFunction, or per-vertex array")
    return arr


def _check_operator(space, op):
    if op.surface is not space:
        raise DomainError("operator is assembled on a different surface")


def _check_count(name, value, least):
    if not isinstance(value, Integral) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def _banded_cholesky(mat):
    """Factor a symmetric positive-definite CSR matrix, with one stored
    entry per position; return its solve.

    Reverse Cuthill-McKee narrows the band, whose lower half is stored in
    Fortran order so LAPACK's banded Cholesky factors it in place.  A
    factor that breaks down (mat not positive definite) raises
    SolverDivergedError.
    """
    perm = csgraph.reverse_cuthill_mckee(mat, symmetric_mode=True)
    rank = np.empty_like(perm)
    rank[perm] = np.arange(len(perm))
    entries = mat.tocoo()
    row, col = rank[entries.row], rank[entries.col]
    lower = row >= col
    offset, col = row[lower] - col[lower], col[lower]
    band = np.zeros((offset.max(initial=0) + 1, mat.shape[0]), order="F")
    band[offset, col] = entries.data[lower]
    try:
        factor = linalg.cholesky_banded(band, lower=True, overwrite_ab=True,
                                        check_finite=False)
    except linalg.LinAlgError as exc:
        raise SolverDivergedError(f"banded Cholesky broke down: {exc}") from exc

    def solve(b):
        out = np.empty_like(b)
        out[perm] = linalg.cho_solve_banded((factor, True), b[perm], overwrite_b=True,
                                            check_finite=False)
        return out

    return solve


def solve_poisson_dirichlet(space: ConeSurface, op: DirichletOperator, f, g,
                            tol: float = 1e-10,
                            boundary_mask=None) -> PLFunction:
    """Solve L_u = f vol with Dirichlet data g on the boundary nodes.

    f and g may be PLFunctions, scalars, or per-vertex arrays (f = None
    means the harmonic case); the values read, f inside and g on the
    boundary, must be finite.  boundary_mask, one entry per vertex,
    overrides the surface boundary to solve on sub-regions.  The reduced
    system K_ii u_i = rhs is solved directly, and SolverDivergedError is
    raised when its residual ||K_ii u_i - rhs|| exceeds tol ||rhs||, tol
    finite and positive.
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    _check_operator(space, op)
    bmask = op.boundary if boundary_mask is None else _region_mask(space, boundary_mask)
    if not bmask.any():
        raise EmptyBoundaryError("Dirichlet solve needs a nonempty boundary set")
    fv = _as_values(space, f, "f")
    gv = _as_values(space, g, "g")
    inter = ~bmask
    if not (np.isfinite(fv[inter]).all() and np.isfinite(gv[bmask]).all()):
        raise DomainError("f inside and g on the boundary must be finite")
    K = op.stiffness
    M = op.masses
    u = gv.copy()
    if inter.any():
        Kii = K[inter][:, inter]
        # K applied to g with its interior entries zeroed is K_ib g_b: the
        # extra terms are exact zeros in the same column order
        rhs = -(M[inter] * fv[inter]) - (K @ np.where(bmask, gv, 0.0))[inter]
        x = _banded_cholesky(Kii)(rhs)
        resid = np.linalg.norm(Kii @ x - rhs)
        if resid > tol * np.linalg.norm(rhs):
            raise SolverDivergedError(
                f"Dirichlet residual {resid:.3g} exceeds tol {tol} times the rhs norm"
            )
        u[inter] = x
    return PLFunction(space, u)


def check_maximum_principle(space: ConeSurface, u: PLFunction,
                            region_mask) -> ExperimentReport:
    """Weak and strong maximum principle report for u on a region.

    Weak form: interior max <= boundary max + tol, with tol = 1e-9.  Strong
    form: when the interior max reaches the boundary max, u must be
    constant within tol.
    """
    tol = 1e-9
    _check_host(space, u)
    region = _region_mask(space, region_mask)
    inner = np.zeros(space.n_vertices, dtype=bool)
    inner[interior_region_vertices(space, region)] = True
    boundary = region & ~inner
    if not inner.any() or not boundary.any():
        raise DomainError("region needs both interior and boundary nodes")
    int_max = float(u.values[inner].max())
    bd_max = float(u.values[boundary].max())
    slack = bd_max + tol - int_max
    strong_triggered = int_max >= bd_max - tol
    is_const = float(u.values[region].max() - u.values[region].min()) <= tol
    return make_report(
        "maximum_principle",
        {"interior_max": int_max, "boundary_max": bd_max},
        [slack],
        tolerance=0.0,
        meta={
            "strong_form_triggered": bool(strong_triggered),
            "constant_within_tol": bool(is_const),
            "tol": tol,
        },
    )


def supersolution_slack(op: DirichletOperator, u: PLFunction, f, hats) -> float:
    """min over hats of int(f phi) - L_u(phi); >= 0 iff u is a discrete
    supersolution of L_u = f vol against this hat family."""
    if not hats:
        raise DomainError("need at least one hat function")
    space = op.surface
    fv = _as_values(space, f, "f")
    resid = op.masses * fv - laplacian_vector(op, u)
    worst = math.inf
    for phi in hats:
        _check_host(space, phi)
        idx = np.flatnonzero(phi.values)
        val = float(resid[idx] @ phi.values[idx])
        worst = min(worst, val)
    return worst


def first_nonzero_eigenpair(space: ConeSurface, op: DirichletOperator,
                            tol: float = 1e-8,
                            max_iter: int = 500) -> tuple[float, PLFunction]:
    """Smallest nonzero eigenvalue of K u = lambda M u on a closed surface.

    Shift-invert Lanczos: a Krylov basis of (K + sigma M)^-1 M (sigma =
    1e-8 trace scale regularizes the constant kernel), orthonormal in the M
    inner product.  Constants are projected out of every basis vector, and
    each new one is re-orthogonalized against the whole basis, twice.  After
    each step the Ritz vector of the largest Ritz value is formed, and the
    solve stops when its relative eigen-residual ||K x - lambda M x|| /
    ||K x|| drops below tol, lambda being its Rayleigh quotient.  The Ritz
    vector is signed to have positive M inner product with the start vector.
    Lanczos resolves a nearly double lambda_1, on which single-vector
    inverse iteration converges at the rate lambda_1 / lambda_2 ~ 1.

    max_iter caps the solves, and so the basis, which holds up to
    min(max_iter, V) vectors of V floats.

    K + sigma M is factored once by a banded Cholesky in reverse
    Cuthill-McKee order, which needs no pivoting because the matrix is
    symmetric positive definite: the cotan energy of a PL interpolant is
    >= 0 even where weights are negative, and sigma M > 0.
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    _check_count("max_iter", max_iter, 1)
    _check_operator(space, op)
    if not space.is_closed:
        raise NotClosedError("first eigenpair needs a closed surface")
    K = op.stiffness
    M = op.masses
    sigma = 1e-8 * K.diagonal().sum() / space.n_vertices
    solve = _banded_cholesky(K + sigma * sparse.diags(M))

    total_mass = M.sum()

    def project(v):
        return v - (M @ v) / total_mass

    basis = np.empty((min(max_iter, space.n_vertices), space.n_vertices))
    alpha = np.zeros(len(basis))
    beta = np.zeros(len(basis))
    q = project(np.random.default_rng(1234).standard_normal(space.n_vertices))
    q /= math.sqrt(float(q @ (M * q)))
    for j in range(len(basis)):
        basis[j] = q
        Q = basis[: j + 1]
        w = project(solve(M * q))
        alpha[j] = float(w @ (M * q))
        for _ in range(2):
            w -= (Q @ (M * w)) @ Q
        beta[j] = math.sqrt(float(w @ (M * w)))
        T = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
        s = np.linalg.eigh(T)[1][:, -1]
        x = math.copysign(1.0, s[0]) * s @ Q
        x /= math.sqrt(float(x @ (M * x)))
        Kx = K @ x
        lam = float(x @ Kx)  # Rayleigh quotient with M-normalized x
        resid = np.linalg.norm(Kx - lam * (M * x))
        if resid <= tol * max(np.linalg.norm(Kx), 1e-300):
            return lam, PLFunction(space, x)
        if beta[j] == 0.0:
            break  # the Krylov space is invariant: no new direction
        q = w / beta[j]
    raise SolverDivergedError(
        f"shift-invert Lanczos did not reach tolerance {tol} in {j + 1} steps"
    )


@dataclass
class HarmonicMeasure:
    """Radial harmonic-measure structure at a center p.

    Holds the radii grid, the ball node sets, and the generalized-sine
    weights; mu samples are produced per boundary function by hm_integrate.
    """

    space: ConeSurface
    op: DirichletOperator
    center: int
    radii: np.ndarray
    weights: np.ndarray
    balls: list[np.ndarray]
    solver_tol: float = 1e-10

    def mu_samples(self, phi: PLFunction) -> np.ndarray:
        """u_r(p) for each grid radius: harmonic extension of phi into B_p(r).

        Nodes outside the ball or on the surface boundary keep phi; the
        rest are solved for.
        """
        _check_host(self.space, phi)
        out = np.empty(len(self.radii))
        for idx, region in enumerate(self.balls):
            u = solve_poisson_dirichlet(
                self.space, self.op, None, phi.values, self.solver_tol,
                boundary_mask=~region | self.op.boundary,
            )
            out[idx] = u.values[self.center]
        return out


def harmonic_measure(space: ConeSurface, op: DirichletOperator, p: int,
                     R: float, m: int, dist_field: DistanceField,
                     solver_tol: float = 1e-10) -> HarmonicMeasure:
    """Prepare the harmonic measure nu_{p,R} on a uniform m-point radii grid.

    Each ball is the node sub-mesh {dist <= r}; the measure weights are
    s_k^{n-1}(r) with k the surface's declared curvature bound (n = 2).
    """
    _check_count("m", m, 8)
    _check_operator(space, op)
    if dist_field.source != p:
        raise DomainError("distance field must be centered at p")
    d = dist_field.vertex_dist
    interior_reach = d[space.boundary_vertex].min() if not space.is_closed else math.inf
    if R >= interior_reach:
        raise BallTooLargeError(
            f"B_p({R}) touches the domain boundary (reach {interior_reach:.4g})"
        )
    radii = np.linspace(R / m, R, m)
    weights = np.asarray([generalized_sine(space.declared_k, r) for r in radii])
    balls = []
    for r in radii:
        region = d <= r
        if region.sum() < 4 or not (d[region] > 0).any():
            raise DomainError(f"ball of radius {r} is below mesh resolution")
        balls.append(region)
    return HarmonicMeasure(space, op, p, radii, weights, balls, solver_tol)


def hm_integrate(hm: HarmonicMeasure, phi: PLFunction) -> float:
    """Weighted trapezoidal quotient int s^{n-1} mu / int s^{n-1}."""
    mu = hm.mu_samples(phi)
    num = np.trapezoid(hm.weights * mu, hm.radii)
    den = np.trapezoid(hm.weights, hm.radii)
    return float(num / den)
