"""Piecewise-linear calculus on cone surfaces.

PL functions carry one value per mesh vertex.  Gradients are constant per
face (computed in the face's intrinsic chart), the energy form uses cotan
edge weights with lumped vertex masses, and the distributional Laplacian
is the functional phi -> -E(u, phi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .exceptions import DomainError
from .report import ExperimentReport, make_report
from .space import ConeSurface, DistanceField


@dataclass
class PLFunction:
    """Vertex-sampled piecewise-linear function on a host surface."""

    surface: ConeSurface
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.surface.n_vertices,):
            raise DomainError(
                f"value count {self.values.shape} does not match host vertex count"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("PL function values must be finite")


@dataclass
class GradientField:
    """Per-face constant gradients plus a vertex |grad|^2 representative."""

    surface: ConeSurface
    face_grad: np.ndarray      # (F, 2) in each face's own chart
    face_sq: np.ndarray        # (F,) |grad|^2 per face
    vertex_sq: np.ndarray      # (V,) area-weighted average of incident faces


def _check_host(surface, *fns):
    for fn in fns:
        if fn.surface is not surface:
            raise DomainError("PL function is hosted on a different surface")


def face_gradient(space: ConeSurface, u: PLFunction) -> GradientField:
    """Constant per-face gradient of the affine interpolant of u.

    It relies on the layout of :meth:`ConeSurface.charts`: corner 0 at the
    origin, corner 1 at (l2, 0) on the x-axis and corner 2 at (x2, y2) with
    y2 > 0, l2 being the side from corner 0 to corner 1.  So the 2x2 system
    grad . (p_k - p_0) = u_k - u_0, k = 1, 2, has determinant l2 y2 and is
    solved in closed form.  The vertex
    |grad u|^2 field is the area-weighted average of the incident face
    values (one admissible pointwise representative).
    """
    _check_host(space, u)
    ch = space.charts()           # (F, 3, 2)
    l2, x2, y2 = ch[:, 1, 0], ch[:, 2, 0], ch[:, 2, 1]
    vals = u.values[space.faces]  # (F, 3)
    b1 = vals[:, 1] - vals[:, 0]
    b2 = vals[:, 2] - vals[:, 0]
    det = l2 * y2
    # b2 * 0.0 is the (exactly zero) e1_y term of the general solve; it
    # gives a zero gx the sign that solve gives it
    gx = (b1 * y2 - b2 * 0.0) / det
    gy = (-b1 * x2 + b2 * l2) / det
    grad = np.stack([gx, gy], axis=1)
    face_sq = gx * gx + gy * gy
    corner = space.faces.ravel()
    area = np.repeat(space.face_area, 3)
    V = space.n_vertices
    wsum = np.bincount(corner, weights=area, minlength=V)
    acc = np.bincount(corner, weights=area * np.repeat(face_sq, 3), minlength=V)
    vertex_sq = acc / np.maximum(wsum, 1e-300)
    return GradientField(space, grad, face_sq, vertex_sq)


def face_inner(space: ConeSurface, gu: GradientField, gv: GradientField) -> np.ndarray:
    """Per-face <grad u, grad v> (both fields share the same charts)."""
    _check_host(space, gu, gv)
    return np.einsum("fi,fi->f", gu.face_grad, gv.face_grad)


def lip_field(space: ConeSurface, u: PLFunction) -> np.ndarray:
    """Discrete pointwise Lipschitz surrogate: max slope over incident edges,
    at every vertex."""
    _check_host(space, u)
    i, j = space.edges[:, 0], space.edges[:, 1]
    slope = np.abs(u.values[i] - u.values[j]) / space.edge_lengths
    out = np.zeros(space.n_vertices)
    np.maximum.at(out, i, slope)
    np.maximum.at(out, j, slope)
    return out


@dataclass
class DirichletOperator:
    """Cotan stiffness, lumped masses, and the boundary node set."""

    surface: ConeSurface
    stiffness: sparse.csr_matrix
    masses: np.ndarray
    boundary: np.ndarray  # bool per vertex


def assemble_operator(space: ConeSurface) -> DirichletOperator:
    """Cotan-weight stiffness matrix and one-third lumped vertex areas.

    Each edge's weight is the sum of the half-cotans of the corners
    opposite it, summed per edge over its faces; the diagonal sums the
    weights of the edges at each vertex.  Row sums of the stiffness
    vanish (constants are in the kernel); negative weights from obtuse
    triangles are kept as-is.
    """
    V, E = space.n_vertices, len(space.edges)
    # side s of a face is opposite corner s and is edge face_edge[:, s]
    w = np.bincount(space.face_edge.ravel(), weights=0.5 / np.tan(space.corner_angle).ravel(),
                    minlength=E)
    lo, hi = space.edges[:, 0], space.edges[:, 1]
    diag = np.bincount(lo, weights=w, minlength=V) + np.bincount(hi, weights=w, minlength=V)
    # edges are sorted by (lo, hi), so listing the entries below the
    # diagonal, then the diagonal, then those above it leaves every row's
    # columns ascending after the stable conversion to CSR
    vid = np.arange(V)
    mat = sparse.coo_matrix(
        (np.concatenate([-w, diag, -w]),
         (np.concatenate([hi, vid, lo]), np.concatenate([lo, vid, hi]))),
        shape=(V, V),
    ).tocsr()
    return DirichletOperator(
        surface=space,
        stiffness=mat,
        masses=space.vertex_masses(),
        boundary=space.boundary_vertex.copy(),
    )


def laplacian_vector(op: DirichletOperator, u: PLFunction) -> np.ndarray:
    """L_u against every vertex hat at once: -(K u)_i per vertex."""
    _check_host(op.surface, u)
    return -(op.stiffness @ u.values)


def _region_mask(space, region):
    mask = np.asarray(region, dtype=bool)
    if mask.shape != (space.n_vertices,):
        raise DomainError("region mask must have one entry per vertex")
    return mask


def interior_region_vertices(space: ConeSurface, mask) -> np.ndarray:
    """Vertices of the region whose whole edge star stays inside it."""
    mask = _region_mask(space, mask)
    ok = mask & ~space.boundary_vertex
    i, j = space.edges[:, 0], space.edges[:, 1]
    bad = np.zeros(space.n_vertices, dtype=bool)
    outside = ~mask
    bad[i[outside[j]]] = True
    bad[j[outside[i]]] = True
    return np.flatnonzero(ok & ~bad)


def shell_integral(space: ConeSurface, field: DistanceField, u: PLFunction,
                   r: float, eps: float) -> float:
    """Thin-shell surrogate of the sphere integral of u at radius r.

    (1/2 eps) * integral of u over {r - eps < dist <= r + eps} with lumped
    vertex masses.  Raises DomainError when the shell contains no vertex.
    """
    _check_host(space, u)
    if not 0 < eps < r:
        raise DomainError(f"need 0 < eps < r, got eps={eps}, r={r}")
    d = field.vertex_dist
    sel = (d > r - eps) & (d <= r + eps)
    if not np.any(sel):
        raise DomainError(f"shell at r={r}, eps={eps} contains no vertex")
    masses = space.vertex_masses()
    return float(masses[sel] @ u.values[sel]) / (2 * eps)


def green_identity_check(space: ConeSurface, op: DirichletOperator, p: int,
                         inner_r: float, outer_r: float, v: PLFunction,
                         phi_radial, phi_radial_deriv,
                         field: DistanceField) -> ExperimentReport:
    """Annulus flux identity for a radial function w = phi(dist_p).

    Compares I_{w,A}(v) = E(w, v eta) + sum v L_w(hat) over the annulus
    against phi'(R) * shell(v, R) - phi'(r) * shell(v, r).  The report
    records both sides and their mismatch as slack, which must stay within
    5% relative.
    """
    rel_tol = 0.05
    _check_host(space, v)
    if inner_r >= outer_r:
        raise DomainError("need inner_r < outer_r")
    d = field.vertex_dist
    eps = 2 * space.mesh_h
    ann = (d > inner_r) & (d < outer_r)
    if not np.any(ann):
        raise DomainError("annulus contains no vertex")
    w = PLFunction(space, np.asarray([phi_radial(max(x, 1e-12)) for x in d]))
    # I_{w,A}(v): gradient part over faces inside the annulus plus the
    # measure part against hats at annulus vertices
    gw = face_gradient(space, w)
    gv = face_gradient(space, v)
    centroid_d = d[space.faces].mean(axis=1)
    fsel = (centroid_d > inner_r) & (centroid_d < outer_r)
    grad_part = float(np.sum(space.face_area[fsel] * face_inner(space, gw, gv)[fsel]))
    lw = laplacian_vector(op, w)
    measure_part = float(v.values[ann] @ lw[ann])
    lhs = grad_part + measure_part
    rhs = phi_radial_deriv(outer_r) * shell_integral(space, field, v, outer_r, eps) - \
        phi_radial_deriv(inner_r) * shell_integral(space, field, v, inner_r, eps)
    scale = max(abs(lhs), abs(rhs), 1.0)
    slack = rel_tol - abs(lhs - rhs) / scale
    return make_report(
        "green_identity",
        {"p": p, "inner_r": inner_r, "outer_r": outer_r, "eps": eps},
        [slack],
        tolerance=0.0,
        fitted={"lhs": lhs, "rhs": rhs},
        meta={"relative_mismatch": abs(lhs - rhs) / scale, "rel_tol": rel_tol},
    )
