"""Hopf-Lax infimal convolution Q_t u and its audits.

Q_t u(x) = min over vertices y of u(y) + d(x, y)^2 / (2t), with d the
Steiner-graph distance.  The minimum is pruned per source x to a ball:
any y at least as good as the y = x candidate satisfies
d^2 <= 2t (u(x) - u(y)).  The right side is at most 2t (u(x) - min u),
and at most 2t Lip d, with Lip the largest face-gradient norm of the PL
function u, because the graph distance d is at least the intrinsic one.
So the ball of radius min(sqrt(2t (u(x) - min u)), 2t Lip) holds every
minimizer, and the pruned value and foot equal those over any larger
ball.  `DistanceCache` keeps one distance ball per source; it serves
every later call whose radius at x it covers without a new sweep, and
hands out only the entries within the radius asked for.

Q_t u can be evaluated on a vertex subset only.  A source's radius
depends on u and t alone and its ball is read exactly, so each
evaluated value is bit-equal to the one a call on every vertex gives.
`semigroup_audit` evaluates Q_t only on the vertices of the faces that
touch its inner set: `lip_field` and `face_gradient` take an inner
vertex's entry from its own edges and faces, so those are all it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import PLFunction, _check_host, _region_mask, face_gradient, lip_field
from .exceptions import DomainError
from .report import ExperimentReport, make_report
from .space import ConeSurface, DistanceCache, _check_cache

PRUNE_PAD = 1e-9  # absolute padding on the pruning radius (float safety)


@dataclass
class HopfLaxResult:
    """Q_t u values, foot points, and the distances to them.

    Entries at vertices that were not evaluated hold NaN (foot -1), so
    they cannot pass for Q_t values: `as_plfunction` raises on them.
    """

    surface: ConeSurface
    t: float
    values: np.ndarray      # Q_t u per evaluated vertex, NaN elsewhere
    foot: np.ndarray        # vertex id of the minimizer, smallest id on ties; -1 off the set
    foot_dist: np.ndarray   # graph distance to the foot point, NaN off the set
    prune_radius: float     # largest per-source radius over the evaluated vertices,
                            # min(sqrt(2t osc u), 2t Lip u) + pad; 0 if none

    def as_plfunction(self) -> PLFunction:
        return PLFunction(self.surface, self.values)


def hopf_lax(space: ConeSurface, cache: DistanceCache, u: PLFunction,
             t: float, at=None) -> HopfLaxResult:
    """Evaluate Q_t u at the vertices of the mask `at`, every vertex if None.

    Each evaluated source x reads its distance ball of radius
    min(sqrt(2t (u(x) - min u)), 2t Lip) + PRUNE_PAD from `cache`, with Lip
    the largest face-gradient norm of u; the cache sweeps only the sources
    whose stored ball is smaller.  Q_t u(x) is the minimum of
    u(y) + d^2/(2t) over the ball; the foot is the smallest vertex id
    attaining it.  The radius depends on u and t alone, so each value,
    foot and distance on `at` equals that of the call on every vertex, bit
    for bit.  Off `at`, values and foot_dist are NaN and foot is -1; no
    ball of such a vertex is read or swept.
    """
    _check_host(space, u)
    _check_cache(space, cache)
    if not (math.isfinite(t) and t > 0):
        raise DomainError(f"Hopf-Lax needs a finite t > 0, got {t}")
    V = space.n_vertices
    src = np.arange(V) if at is None else np.flatnonzero(_region_mask(space, at))
    uv = u.values
    umin = float(uv.min())
    values = np.full(V, np.nan)
    foot = np.full(V, -1, dtype=np.int64)
    fdist = np.full(V, np.nan)
    lip = math.sqrt(float(face_gradient(space, u).face_sq.max()))
    radii = np.minimum(np.sqrt(np.maximum(2.0 * t * (uv[src] - umin), 0.0)),
                       2.0 * t * lip) + PRUNE_PAD
    for idx, ptr, ids, d in cache.ball_chunks(src, radii):
        size = np.diff(ptr)
        cand = uv[ids] + d * d / (2.0 * t)
        best = np.minimum.reduceat(cand, ptr[:-1])
        tied = np.where(cand == np.repeat(best, size), ids, V)
        low = np.minimum.reduceat(tied, ptr[:-1])
        values[idx] = best
        foot[idx] = low
        fdist[idx] = d[tied == np.repeat(low, size)]
    return HopfLaxResult(space, t, values, foot, fdist, float(radii.max(initial=0.0)))


def interior_margin_mask(space: ConeSurface, cache: DistanceCache,
                         margin: float) -> np.ndarray:
    """Vertices farther than `margin` from the surface boundary."""
    if not margin >= 0:
        raise DomainError(f"boundary margin must be >= 0, got {margin}")
    _check_cache(space, cache)
    inner = np.ones(space.n_vertices, dtype=bool)
    if space.is_closed:
        return inner
    bvs = np.flatnonzero(space.boundary_vertex)
    for _, _, ids, _ in cache.ball_chunks(bvs, margin):
        inner[ids] = False
    return inner


def semigroup_audit(space: ConeSurface, cache: DistanceCache, u: PLFunction,
                    t_grid) -> ExperimentReport:
    """Monotonicity in t, the quantitative decay bound, and the derivative law.

    Checks, on nodes at distance > t_max Lip(u) + 3h from the boundary:
    exact monotone decrease of t -> u_t; the two-sided bound
    0 <= u_t - u_{t+s} <= (s/2) Lip^2(u_t); and the finite-difference
    derivative (u_{t+s} - u_t)/s against -|grad u_t|^2 / 2, to
    h + (t_max - t_min) / 4.  The grid needs at least two values, all
    distinct.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if not all(math.isfinite(t) and t > 0 for t in t_grid):
        raise DomainError("t grid must be finite and positive")
    if len(t_grid) < 2 or any(a == b for a, b in zip(t_grid, t_grid[1:])):
        raise DomainError(f"t grid needs at least two distinct values, none repeated, "
                          f"got {t_grid}")
    lip_u = lip_field(space, u).max()
    margin = t_grid[-1] * lip_u + 3 * space.mesh_h
    inner = interior_margin_mask(space, cache, margin)
    if not inner.any():
        raise DomainError("no interior nodes survive the boundary margin")
    # every vertex of a face at an inner vertex: all that the reads on
    # `inner` below take from Q_t u
    ring = np.zeros(space.n_vertices, dtype=bool)
    ring[space.faces[inner[space.faces].any(axis=1)]] = True
    # largest t first: its balls cover every smaller t's
    results = {t: hopf_lax(space, cache, u, t, at=ring) for t in reversed(t_grid)}
    derivative_tol = space.mesh_h + 0.25 * (t_grid[-1] - t_grid[0])

    mono_slack = math.inf
    bound_slack = math.inf
    deriv_slack = math.inf
    deriv_errs = []
    for t1, t2 in zip(t_grid[:-1], t_grid[1:]):
        s = t2 - t1
        a, b = results[t1].values, results[t2].values
        decay = a[inner] - b[inner]
        mono_slack = min(mono_slack, float(decay.min()))
        # Q_t u is NaN off the ring; any finite fill there is never read,
        # since lip_field and face_gradient are taken on `inner` only
        u_t = PLFunction(space, np.where(ring, a, 0.0))
        lip_t = float(lip_field(space, u_t)[inner].max())
        # the discrete decay can overshoot the continuum bound by one mesh
        # quantum of movement; budget it explicitly
        bound_tol = 0.5 * space.mesh_h * lip_t**2
        bound_slack = min(
            bound_slack, float((0.5 * s * lip_t**2 + bound_tol - decay).min())
        )
        grad_sq = face_gradient(space, u_t).vertex_sq
        fd = (b[inner] - a[inner]) / s
        err = np.abs(fd + 0.5 * grad_sq[inner])
        deriv_errs.append(float(err.max()))
        deriv_slack = min(deriv_slack, float(derivative_tol - err.max()))
    return make_report(
        "semigroup_audit",
        {"t_grid": t_grid, "margin": margin, "nodes": int(inner.sum())},
        [mono_slack, bound_slack, deriv_slack],
        tolerance=1e-12,
        fitted={"max_derivative_error": max(deriv_errs)},
        meta={"derivative_tol": derivative_tol, "lip_u": lip_u},
    )


def footpoint_audit(space: ConeSurface, cache: DistanceCache,
                    result: HopfLaxResult, u: PLFunction) -> ExperimentReport:
    """Foot-point identity |x F_t(x)| = t |grad u_t(x)| and the slope sandwich.

    Audited on nodes at distance > sqrt(4 t osc u) from the boundary.
    The sandwich compares |grad u_t(x)| against the descending slope of u
    at F_t(x) from below and the pointwise Lipschitz constant from above.
    The identity must hold to 4 h and the sandwich to 6 h, h = mesh_h.
    """
    _check_host(space, u)
    t = result.t
    osc = float(u.values.max() - u.values.min())
    margin = math.sqrt(4.0 * t * osc)
    inner = interior_margin_mask(space, cache, margin)
    if not inner.any():
        raise DomainError("no interior nodes survive the boundary margin")
    identity_tol = 4 * space.mesh_h
    sandwich_tol = 6 * space.mesh_h

    grad_t = np.sqrt(face_gradient(space, result.as_plfunction()).vertex_sq)
    ids = np.flatnonzero(inner)
    identity_err = np.abs(result.foot_dist[ids] - t * grad_t[ids])
    scale = np.maximum(t * grad_t[ids], space.mesh_h)
    rel_err = identity_err / scale

    lip_u = lip_field(space, u)
    desc = descent_slope_field(space, u)
    feet = result.foot[ids]
    lower_slack = float((grad_t[ids] - desc[feet] + sandwich_tol).min())
    upper_slack = float((lip_u[feet] - grad_t[ids] + sandwich_tol).min())
    identity_slack = float(identity_tol - identity_err.max())
    return make_report(
        "footpoint_audit",
        {"t": t, "margin": margin, "nodes": int(inner.sum())},
        [identity_slack, lower_slack, upper_slack],
        tolerance=0.0,
        fitted={
            "max_identity_error": float(identity_err.max()),
            "max_relative_identity_error": float(rel_err.max()),
        },
        meta={"identity_tol": identity_tol, "sandwich_tol": sandwich_tol},
    )


def descent_slope_field(space: ConeSurface, u: PLFunction) -> np.ndarray:
    """Discrete subgradient norm: max over edges of (u(x) - u(y))_+ / len."""
    _check_host(space, u)
    i, j = space.edges[:, 0], space.edges[:, 1]
    diff = (u.values[i] - u.values[j]) / space.edge_lengths
    out = np.zeros(space.n_vertices)
    np.maximum.at(out, i, np.maximum(diff, 0.0))
    np.maximum.at(out, j, np.maximum(-diff, 0.0))
    return out
