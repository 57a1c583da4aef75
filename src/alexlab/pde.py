"""Poisson/Dirichlet solving, maximum principles, eigenpairs, harmonic measure.

The Dirichlet problem L_u = f vol with u = g on the boundary is solved by
minimizing the energy of the reduced symmetric positive-definite system
with conjugate gradients.  Sign convention: L_u(phi) = -E(u, phi), so the
solution satisfies E(u, phi) = -int(f phi) for interior hats and the flat
model equation reads  Delta u = f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as sla

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

CG_ITER_FACTOR = 50  # iteration cap is 50 * sqrt(unknown count)


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


def _cg(mat, rhs, tol, cap):
    sol, info = sla.cg(mat, rhs, rtol=tol, atol=0.0, maxiter=cap)
    if info > 0:
        # one retry with a Jacobi preconditioner before giving up
        d = mat.diagonal()
        precond = sla.LinearOperator(mat.shape, lambda v: v / d)
        sol, info = sla.cg(mat, rhs, rtol=tol, atol=0.0, maxiter=cap, M=precond)
        if info > 0:
            raise SolverDivergedError(
                f"conjugate gradients hit the iteration cap {cap}"
            )
    if info < 0:
        raise SolverDivergedError("conjugate gradients reported invalid input")
    return sol


def solve_poisson_dirichlet(space: ConeSurface, op: DirichletOperator, f, g,
                            tol: float = 1e-10,
                            boundary_mask=None) -> PLFunction:
    """Solve L_u = f vol with Dirichlet data g on the boundary nodes.

    f and g may be PLFunctions, scalars, or per-vertex arrays (f = None
    means the harmonic case).  boundary_mask, one entry per vertex,
    overrides the surface boundary to solve on sub-regions.  Conjugate
    gradients run to relative residual `tol`, finite and positive, with cap
    50 sqrt(n).
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    bmask = op.boundary if boundary_mask is None else _region_mask(space, boundary_mask)
    if not bmask.any():
        raise EmptyBoundaryError("Dirichlet solve needs a nonempty boundary set")
    fv = _as_values(space, f, "f")
    gv = _as_values(space, g, "g")
    K = op.stiffness
    M = op.masses
    inter = ~bmask
    u = gv.copy()
    if inter.any():
        Kii = K[inter][:, inter]
        # K applied to g with its interior entries zeroed is K_ib g_b: the
        # extra terms are exact zeros in the same column order
        rhs = -(M[inter] * fv[inter]) - (K @ np.where(bmask, gv, 0.0))[inter]
        cap = max(100, int(CG_ITER_FACTOR * math.sqrt(int(inter.sum()))))
        u[inter] = _cg(Kii.tocsr(), rhs, tol, cap)
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

    K + sigma M is factored once, in a reverse Cuthill-McKee order refined
    by SuperLU's minimum degree on A^T + A, in symmetric mode with no
    pivoting.  That is stable because the matrix is symmetric positive
    definite: the cotan energy of a PL interpolant is >= 0 even where
    weights are negative, and sigma M > 0.  Reverse Cuthill-McKee runs
    first because it depends on the graph alone, while minimum degree on
    some input numberings (the icosphere's) fills in badly.
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter}")
    if not space.is_closed:
        raise NotClosedError("first eigenpair needs a closed surface")
    K = op.stiffness
    M = op.masses
    sigma = 1e-8 * K.diagonal().sum() / space.n_vertices
    shifted = K + sigma * sparse.diags(M)
    perm = csgraph.reverse_cuthill_mckee(shifted, symmetric_mode=True)
    lu = sla.splu(shifted[perm][:, perm].tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    def solve(b):
        out = np.empty_like(b)
        out[perm] = lu.solve(b[perm])
        return out

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
    if m < 8:
        raise DomainError("harmonic measure grid needs m >= 8")
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
