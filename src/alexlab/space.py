"""Polyhedral cone surfaces and their geodesic distance machinery.

A surface is a set of Euclidean triangles glued along edges of equal
length.  Geometry is intrinsic: faces plus per-edge lengths; embedding
coordinates are optional metadata produced by the generators.  Geodesic
distances are approximated by shortest paths on a Steiner-refined graph
(edge subdivision plus in-face crossing edges), which overestimates the
true distance by O(h).

Mesh data are arrays: the edge table and the face-edge and edge-face
incidences all come from one sort of the face half-edges (see
:func:`_incidence`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.spatial import Delaunay

from .exceptions import (
    DisconnectedError,
    DomainError,
    InconsistentGluingError,
    MeshFormatError,
    TriangleInequalityError,
    UnreachableError,
)
from .model import comparison_angle

# Interior vertices whose cone angle deviates from 2 pi by more than this
# are singular; generators of flat meshes must stay below it.
SINGULAR_ANGLE_TOL = 1e-9

# DistanceCache keeps at most this many bytes of truncated distance balls;
# a ball beyond it serves the request that swept it and is then dropped.
# Unbounded, the balls of a 21.6k-vertex disk at radius 0.9 take ~3 GB.
BALL_CACHE_BYTES = 256 * 2**20

# Sources per sweep: DistanceCache.ball_chunks sweeps at most this many
# sources per chunk, so a chunk's dense sweep block is BALL_CHUNK x V floats.
BALL_CHUNK = 256

# Stored ball entries read per chunk.  2**16 float64 entries are 512 KiB, so
# one chunk's per-entry arrays stay within a 2 MiB L2 cache.  On a 2-vCPU
# Xeon VM with that L2, 2**17 and 2**18 measured the same, and with no
# budget (one chunk for every stored row) warm Hopf-Lax on a 5610-vertex
# disk at t = 0.2 was 1.2 to 1.7 times slower.
BALL_READ = 2**16

# DistanceCache.vertex_block sweeps at most this many graph-node distances
# (sources x graph nodes) per Dijkstra call.
BLOCK_CELLS = 16_000_000


def _first(mask) -> int:
    """Index of the first True entry of a boolean array that has one."""
    return int(np.argmax(mask))


def _edge_keys(u, v, n):
    """Key min * n + max of each vertex pair; injective for ids in [0, n)."""
    return np.minimum(u, v) * n + np.maximum(u, v)


def _find(sorted_keys, query):
    """Positions of `query` in a sorted key array, and which were found."""
    pos = np.minimum(np.searchsorted(sorted_keys, query), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == query


@dataclass
class _Incidence:
    """Edge table and incidences of an (F, 3) face array.

    Half-edge 3 f + s is side s of face f: it lies opposite corner s and
    runs from corner s + 1 to corner s + 2 (mod 3).  Corner 3 f + t is
    corner t of face f.
    """

    edges: np.ndarray        # (E, 2) endpoints, smaller first, sorted by (min, max)
    face_edge: np.ndarray    # (F, 3) edge of each side
    edge_sides: np.ndarray   # (E, 2) first two half-edges on each edge, -1 if missing
    edge_degree: np.ndarray  # (E,) faces on each edge

    def oriented_edges(self, faces):
        """Endpoints (u, v) of each edge in the direction its first face runs it."""
        h = self.edge_sides[:, 0]
        f, s = np.divmod(h, 3)
        return faces[f, (s + 1) % 3], faces[f, (s + 2) % 3]


def _incidence(faces: np.ndarray, n_vertices: int) -> _Incidence:
    """Edge table and incidences from one stable sort of the face half-edges.

    This is np.unique over the half-edge keys, written out because the
    sort order itself gives the edge-face incidence: the half-edges on an
    edge are adjacent in it, in face order.
    """
    tail = faces[:, [1, 2, 0]].ravel()
    head = faces[:, [2, 0, 1]].ravel()
    keys = _edge_keys(tail, head, n_vertices)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    start = np.flatnonzero(new)
    degree = np.diff(np.r_[start, len(keys)])
    edge_id = np.empty(len(keys), dtype=np.int64)
    edge_id[order] = np.cumsum(new) - 1
    ukeys = sorted_keys[start]
    sides = np.full((len(start), 2), -1, dtype=np.int64)
    sides[:, 0] = order[start]
    shared = degree > 1
    sides[shared, 1] = order[start[shared] + 1]
    return _Incidence(
        edges=np.c_[ukeys // n_vertices, ukeys % n_vertices],
        face_edge=edge_id.reshape(-1, 3),
        edge_sides=sides,
        edge_degree=degree,
    )


class _EdgeIndex:
    """Read-only {(i, j): edge id} lookup, in either endpoint order."""

    def __init__(self, edges: np.ndarray, n_vertices: int):
        self._n = n_vertices
        self._keys = edges[:, 0] * n_vertices + edges[:, 1]

    def __getitem__(self, ij) -> int:
        i, j = (int(x) for x in ij)
        pos, found = _find(self._keys, min(i, j) * self._n + max(i, j))
        if not (0 <= min(i, j) and max(i, j) < self._n and found):
            raise KeyError(ij)
        return int(pos)


class ConeSurface:
    """Triangulated polyhedral metric surface with cone singularities.

    Construct via :func:`build_surface` or one of the generators; the
    constructor assumes pre-validated inputs: `edge_lengths` holds the
    length of each edge of `incidence`.
    """

    def __init__(self, faces, incidence: _Incidence, edge_lengths,
                 declared_k=0.0, embedding=None, mesh_h=None):
        self.faces = np.asarray(faces, dtype=np.int64)
        self.n_vertices = int(self.faces.max()) + 1
        self.declared_k = float(declared_k)
        self.embedding = None if embedding is None else np.asarray(embedding, float)

        self.edges = incidence.edges
        self.edge_lengths = np.asarray(edge_lengths, dtype=float)
        self.edge_index = _EdgeIndex(self.edges, self.n_vertices)
        # side s of face f is opposite local vertex s
        self.face_edge = incidence.face_edge
        self.face_side_len = self.edge_lengths[self.face_edge]
        self.edge_sides = incidence.edge_sides
        # (E, 2) faces on each edge, -1 where a boundary edge has no second
        self.edge_faces = np.where(self.edge_sides >= 0, self.edge_sides // 3, -1)

        l0, l1, l2 = (self.face_side_len[:, s] for s in range(3))
        self.corner_angle = np.stack(
            [
                _angle_from_sides(l0, l1, l2),
                _angle_from_sides(l1, l2, l0),
                _angle_from_sides(l2, l0, l1),
            ],
            axis=1,
        )
        s = 0.5 * (l0 + l1 + l2)
        self.face_area = np.sqrt(
            np.maximum(s * (s - l0) * (s - l1) * (s - l2), 0.0)
        )

        self.boundary_edges = np.flatnonzero(self.edge_faces[:, 1] < 0)
        bmask = np.zeros(self.n_vertices, dtype=bool)
        bmask[self.edges[self.boundary_edges].ravel()] = True
        self.boundary_vertex = bmask

        self.cone_angle = np.zeros(self.n_vertices)
        np.add.at(self.cone_angle, self.faces.ravel(), self.corner_angle.ravel())

        interior = ~bmask
        self.singular_vertices = np.flatnonzero(
            interior & (np.abs(self.cone_angle - 2 * math.pi) > SINGULAR_ANGLE_TOL)
        )

        self.mesh_h = float(mesh_h) if mesh_h else float(np.mean(self.edge_lengths))
        self.k_certified = bool(
            abs(self.declared_k) < 1e-12
            and np.all(self.cone_angle[interior] <= 2 * math.pi + SINGULAR_ANGLE_TOL)
        )
        self._charts = None
        self._graphs: dict[float, _SteinerGraph] = {}

    # -- derived geometry ----------------------------------------------------

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def is_closed(self) -> bool:
        return len(self.boundary_edges) == 0

    @property
    def total_area(self) -> float:
        return float(self.face_area.sum())

    def charts(self) -> np.ndarray:
        """Per-face 2D coordinates (F, 3, 2) laid out from side lengths."""
        if self._charts is None:
            l0 = self.face_side_len[:, 0]
            l1 = self.face_side_len[:, 1]
            l2 = self.face_side_len[:, 2]
            x2 = (l2**2 + l1**2 - l0**2) / (2 * l2)
            y2 = np.sqrt(np.maximum(l1**2 - x2**2, 0.0))
            ch = np.zeros((self.n_faces, 3, 2))
            ch[:, 1, 0] = l2
            ch[:, 2, 0] = x2
            ch[:, 2, 1] = y2
            self._charts = ch
        return self._charts

    def vertex_masses(self) -> np.ndarray:
        """Lumped vertex measures: one third of incident face areas."""
        m = np.zeros(self.n_vertices)
        np.add.at(m, self.faces.ravel(), np.repeat(self.face_area / 3.0, 3))
        return m

    def graph(self, h: float) -> "_SteinerGraph":
        key = round(float(h), 12)
        g = self._graphs.get(key)
        if g is None:
            g = _SteinerGraph(self, float(h))
            self._graphs[key] = g
        return g

    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edges) + self.n_faces


def _angle_from_sides(opp, a, b):
    """Corner angle opposite side `opp` in a Euclidean triangle (a, b, opp)."""
    c = (a**2 + b**2 - opp**2) / (2 * a * b)
    return np.arccos(np.clip(c, -1.0, 1.0))


def build_surface(faces, edge_lengths, declared_k=0.0, embedding=None,
                  mesh_h=None) -> ConeSurface:
    """Validate raw face/edge data and assemble a ConeSurface.

    edge_lengths gives the length of every edge of the faces, as one of:

    - a function of the endpoint arrays (u, v) of all edges that returns
      their lengths as an array.  Edges come sorted by (min, max), each
      oriented the way the first face on it runs it;
    - a dict {(i, j): L};
    - an iterable of (i, j, L) records.

    Duplicate records must agree to 1e-9 relative or the gluing is
    rejected, and a record for a pair that is not a face side is rejected.
    Every edge must lie on at most two faces, and the corners at each
    vertex must form one fan.  With at most two faces per edge, one fan is
    a cycle around an interior vertex or an arc between the two boundary
    edges at a boundary vertex.
    """
    # contiguous: load_off passes a column slice, and initial_direction's
    # scan of the faces runs ~6x slower on a strided array
    faces = np.ascontiguousarray(faces, dtype=np.int64)
    if faces.ndim != 2 or faces.shape[1] != 3:
        raise DomainError("faces must be an (F, 3) array of vertex ids")
    if len(faces) == 0:
        raise DomainError("a surface needs at least one face")
    if faces.min() < 0:
        raise DomainError("vertex ids must be nonnegative")
    a, b, c = faces.T
    repeated = (a == b) | (b == c) | (c == a)
    if repeated.any():
        raise DomainError(f"face {_first(repeated)} repeats a vertex")
    n_vertices = int(faces.max()) + 1

    inc = _incidence(faces, n_vertices)
    if callable(edge_lengths):
        u, v = inc.oriented_edges(faces)
        lengths = np.asarray(edge_lengths(u, v), dtype=float)
        if lengths.shape != (len(u),):
            raise DomainError(f"edge length function returned shape {lengths.shape}, "
                              f"expected ({len(u)},)")
        _check_lengths(u, v, lengths)
    else:
        lengths = _record_lengths(edge_lengths, inc, n_vertices)
    crowded = inc.edge_degree > 2
    if crowded.any():
        i, j = inc.edges[_first(crowded)]
        raise InconsistentGluingError(f"edge ({i}, {j}) is shared by more than two faces")
    side = lengths[inc.face_edge]
    l0, l1, l2 = side.T
    bad = (l0 + l1 <= l2) | (l1 + l2 <= l0) | (l2 + l0 <= l1)
    if bad.any():
        f = _first(bad)
        raise TriangleInequalityError(
            f"face {f} has side lengths {side[f].tolist()} violating the strict "
            "triangle inequality"
        )

    surf = ConeSurface(faces, inc, lengths, declared_k, embedding, mesh_h)

    # connectivity of the face-adjacency graph, and no orphan vertices
    if not np.bincount(faces.ravel(), minlength=n_vertices).all():
        raise DisconnectedError("surface has vertices not contained in any face")
    n_comp = _face_components(surf)
    if n_comp != 1:
        raise DisconnectedError(f"face-adjacency graph has {n_comp} components")
    fans = _fans_per_vertex(surf)
    if np.any(fans != 1):
        p = _first(fans != 1)
        n_bnd = np.count_nonzero(surf.edges[surf.boundary_edges] == p)
        raise InconsistentGluingError(
            f"vertex {p} is pinched: its corners form {fans[p]} fans, "
            f"with {n_bnd} boundary edges"
        )
    return surf


def _check_lengths(i, j, lengths) -> None:
    bad = ~(np.isfinite(lengths) & (lengths > 0))
    if bad.any():
        k = _first(bad)
        raise DomainError(f"edge ({i[k]}, {j[k]}) has invalid length {lengths[k]}")


def _record_lengths(edge_lengths, inc: _Incidence, n_vertices) -> np.ndarray:
    """Per-edge lengths from a dict {(i, j): L} or from (i, j, L) records."""
    if isinstance(edge_lengths, dict):
        pairs, lengths = list(edge_lengths), list(edge_lengths.values())
        i, j = zip(*pairs) if pairs else ((), ())
    else:
        records = list(edge_lengths)
        i, j, lengths = zip(*records) if records else ((), (), ())
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=float)
    if np.any(i == j):
        k = _first(i == j)
        raise InconsistentGluingError(f"degenerate edge ({i[k]}, {j[k]})")
    _check_lengths(i, j, lengths)

    def no_side(lo, hi):
        return DomainError(
            f"edge ({lo}, {hi}) has a declared length but is not a side of any face"
        )

    outside = (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n_vertices)
    if outside.any():
        raise no_side(i[_first(outside)], j[_first(outside)])
    keys = _edge_keys(i, j, n_vertices)
    keep = _last_records(keys, lengths, n_vertices)
    keys, lengths = keys[keep], lengths[keep]

    at, found = _find(inc.edges[:, 0] * n_vertices + inc.edges[:, 1], keys)
    if not found.all():
        raise no_side(*divmod(int(keys[_first(~found)]), n_vertices))
    out = np.full(len(inc.edges), np.nan)
    out[at] = lengths
    missing = np.isnan(out)
    if missing.any():
        side = inc.edge_sides[missing, 0].min()
        i, j = inc.edges[inc.face_edge.ravel()[side]]
        raise DomainError(f"face {side // 3} uses edge ({i}, {j}) with no declared length")
    return out


def _last_records(keys, lengths, n_vertices) -> np.ndarray:
    """Index of the last record of each distinct edge key, in key order.

    Records of one edge must agree to 1e-9 relative, or the gluing is
    rejected.
    """
    order = np.argsort(keys, kind="stable")
    keys, lengths = keys[order], lengths[order]
    same = keys[1:] == keys[:-1]
    clash = same & (
        np.abs(lengths[1:] - lengths[:-1]) > 1e-9 * np.maximum(lengths[1:], lengths[:-1])
    )
    if clash.any():
        k = _first(clash)
        lo, hi = divmod(int(keys[k]), n_vertices)
        raise InconsistentGluingError(
            f"edge ({lo}, {hi}) declared with lengths {lengths[k]} and {lengths[k + 1]}"
        )
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = ~same
    return order[last]


def _face_components(surf: ConeSurface) -> int:
    F = surf.n_faces
    shared = surf.edge_faces[surf.edge_faces[:, 1] >= 0]
    adj = sparse.coo_matrix(
        (np.ones(len(shared)), (shared[:, 0], shared[:, 1])), shape=(F, F)
    )
    n, _ = csgraph.connected_components(adj, directed=False)
    return n


def _fans_per_vertex(surf: ConeSurface) -> np.ndarray:
    """Number of fans at each vertex: groups of its corners that are
    connected through shared edges."""
    two = surf.edge_sides[:, 1] >= 0
    h0, h1 = surf.edge_sides[two, 0], surf.edge_sides[two, 1]

    def ends(h):
        """Corners at the tail and at the head of half-edges h."""
        base = h - h % 3
        return base + (h + 1) % 3, base + (h + 2) % 3

    corner_vertex = surf.faces.ravel()
    t0, e0 = ends(h0)
    t1, e1 = ends(h1)
    # join the corners at the same endpoint, whichever way each face runs the edge
    same = corner_vertex[t0] == corner_vertex[t1]
    rows = np.r_[t0, e0]
    cols = np.r_[np.where(same, t1, e1), np.where(same, e1, t1)]
    n = len(corner_vertex)
    adj = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    n_comp, label = csgraph.connected_components(adj, directed=False)
    fan_vertex = np.empty(n_comp, dtype=np.int64)
    fan_vertex[label] = corner_vertex
    return np.bincount(fan_vertex, minlength=surf.n_vertices)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _zip_rings(inner_ids, inner_ang, outer_ids, outer_ang, period):
    """Triangulate the annulus between two sorted angular rings.

    Each face advances one ring by one vertex; the steps are taken in the
    order of the angle they advance to, the inner ring first on ties.
    """
    a, b = len(inner_ids), len(outer_ids)
    if a == 1:
        return np.c_[np.full(b, inner_ids[0]), outer_ids, np.roll(outer_ids, -1)]
    to_inner = np.r_[inner_ang[1:], inner_ang[0] + period]
    to_outer = np.r_[outer_ang[1:], outer_ang[0] + period]
    inner_step = np.argsort(np.r_[to_inner, to_outer], kind="stable") < a
    i = np.cumsum(inner_step) - inner_step  # inner steps taken before each step
    j = np.arange(a + b) - i
    third = np.where(inner_step, inner_ids[(i + 1) % a], outer_ids[(j + 1) % b])
    return np.c_[inner_ids[i % a], outer_ids[j % b], third]


def _polar_mesh(total_angle: float, R: float, h: float, ring_scale: float):
    """Concentric-ring triangulation of a disk sector glued into a cone.

    ring_scale controls points per ring (arc spacing ~ h).  Returns
    (radii per vertex, angles per vertex, faces).
    """
    n_rings = max(2, round(R / h))
    r = np.arange(n_rings + 1) * (R / n_rings)
    counts = np.r_[1, np.maximum(3, np.rint(total_angle * r[1:] / (ring_scale * h)))]
    counts = counts.astype(np.int64)
    start = np.r_[0, np.cumsum(counts)]
    ring = np.repeat(np.arange(n_rings + 1), counts)
    ids = np.arange(start[-1])
    angles = total_angle * (ids - start[ring]) / counts[ring]
    rings = [slice(start[k], start[k + 1]) for k in range(n_rings + 1)]
    faces = np.concatenate([
        _zip_rings(ids[rings[k]], angles[rings[k]], ids[rings[k + 1]],
                   angles[rings[k + 1]], total_angle)
        for k in range(n_rings)
    ])
    return r[ring], angles, faces


def flat_disk(R: float, h: float) -> ConeSurface:
    """Flat disk of radius R: hexagonal-lattice interior, circular rim.

    The lattice interior keeps one-ring geometry translation invariant,
    which the gradient-field experiments rely on; the rim ring puts every
    boundary vertex exactly at radius R.  Vertex 0 is the center.
    """
    if R <= 0 or h <= 0:
        raise DomainError(f"flat_disk needs R > 0 and h > 0, got R={R}, h={h}")
    cutoff = R - 0.95 * h
    n = int(R / h) + 2
    k = np.arange(-n, n + 1)
    j, i = np.repeat(k, len(k)), np.tile(k, len(k))
    x = h * (i + 0.5 * j)
    y = h * (math.sqrt(3.0) / 2.0) * j
    inside = x * x + y * y <= cutoff * cutoff
    i, j, x, y = i[inside], j[inside], x[inside], y[inside]
    # lattice points ring by ring (|p|^2 / h^2 = i^2 + i j + j^2), each ring by angle
    order = np.lexsort((np.arctan2(y, x), i * i + i * j + j * j))
    pts = np.c_[x, y][order] if len(order) else np.zeros((1, 2))
    m = max(8, round(2 * math.pi * R / h))
    rim_angle = 2 * math.pi * np.arange(m) / m
    xy = np.r_[pts, np.c_[R * np.cos(rim_angle), R * np.sin(rim_angle)]]
    faces = Delaunay(xy).simplices.astype(np.int64)
    return build_surface(faces, lambda u, v: np.linalg.norm(xy[u] - xy[v], axis=1),
                         declared_k=0.0, embedding=xy, mesh_h=h)


def cone_disk(theta: float, R: float, h: float) -> ConeSurface:
    """Geodesic disk around the apex of a cone with total angle theta."""
    if not 0 < theta <= 4 * math.pi:
        raise DomainError(f"cone angle must lie in (0, 4 pi], got {theta}")
    if R <= 0 or h <= 0:
        raise DomainError(f"cone_disk needs R > 0 and h > 0, got R={R}, h={h}")
    radii, angles, faces = _polar_mesh(theta, R, h, 1.0)

    def lengths(u, v):
        dphi = np.abs(angles[u] - angles[v])
        dphi = np.minimum(dphi, theta - dphi)
        r1, r2 = radii[u], radii[v]
        return np.sqrt(np.maximum(r1 * r1 + r2 * r2 - 2 * r1 * r2 * np.cos(dphi), 0.0))

    surf = build_surface(faces, lengths, declared_k=0.0, mesh_h=h)
    # abstract cone coordinates (r, phi) kept for diagnostics only
    surf.cone_coords = np.c_[radii, angles]
    return surf


def flat_torus(L: float, h: float) -> ConeSurface:
    """Square flat torus of side L on an n x n grid, n = round(L/h)."""
    if L <= 0 or h <= 0:
        raise DomainError(f"flat_torus needs L > 0 and h > 0, got L={L}, h={h}")
    n = round(L / h)
    if n < 3:
        # a 2 x 2 grid puts some edges on three faces: not a surface
        raise DomainError(f"flat_torus needs round(L/h) >= 3, got L={L}, h={h}")
    step = L / n
    i, j = np.divmod(np.arange(n * n), n)
    v00, v10 = i * n + j, (i + 1) % n * n + j
    v01, v11 = i * n + (j + 1) % n, (i + 1) % n * n + (j + 1) % n
    faces = np.stack([np.c_[v00, v10, v11], np.c_[v00, v11, v01]], axis=1).reshape(-1, 3)
    diag = math.sqrt(2.0) * step

    def lengths(u, v):
        return np.where((u // n != v // n) & (u % n != v % n), diag, step)

    return build_surface(faces, lengths, declared_k=0.0,
                         embedding=np.c_[i * step, j * step], mesh_h=step)


_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.asarray(
    [
        (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
        (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
        (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
    ],
    dtype=float,
)
_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1)[:, None]


def icosphere(subdivisions: int) -> ConeSurface:
    """Subdivided icosahedron on the unit sphere with great-circle edge lengths.

    The declared curvature bound k = 1 is metadata justified by convergence
    to the round sphere, not certified.
    """
    if subdivisions < 0 or int(subdivisions) != subdivisions:
        raise DomainError(f"subdivisions must be a nonnegative integer, got {subdivisions}")
    verts = _unit_rows(_ICO_VERTS)
    faces = np.asarray(_ICO_FACES, dtype=np.int64)
    for _ in range(int(subdivisions)):
        # one midpoint per edge, numbered in the order the sides
        # (a, b), (b, c), (c, a) of the faces first reach the edge
        u, v = faces.ravel(), faces[:, [1, 2, 0]].ravel()
        _, first, inverse = np.unique(
            _edge_keys(u, v, len(verts)), return_index=True, return_inverse=True
        )
        met = np.argsort(first)
        rank = np.empty_like(met)
        rank[met] = np.arange(len(met))
        ab, bc, ca = (len(verts) + rank[inverse]).reshape(-1, 3).T
        a, b, c = faces.T
        verts = np.r_[verts, _unit_rows(verts[u[first[met]]] + verts[v[first[met]]])]
        faces = np.stack(
            [np.c_[a, ab, ca], np.c_[b, bc, ab], np.c_[c, ca, bc], np.c_[ab, bc, ca]],
            axis=1,
        ).reshape(-1, 3)

    def lengths(u, v):
        dot = np.einsum("ij,ij->i", verts[u], verts[v])
        return np.arccos(np.clip(dot, -1.0, 1.0))

    return build_surface(faces, lengths, declared_k=1.0, embedding=verts)


# ---------------------------------------------------------------------------
# Steiner graph and distance fields
# ---------------------------------------------------------------------------


class _SteinerGraph:
    """Shortest-path graph: mesh vertices plus Steiner points on edges.

    Nodes.  Edge e = (i, j), i < j, of length L carries
    m_e = max(0, ceil(L / h) - 1) Steiner points at fractions
    k / (m_e + 1), k = 1..m_e, from i (computed as np.linspace does), so
    consecutive nodes along an edge are at most h apart.  Vertices keep
    their ids; the Steiner points of edge e get consecutive ids, in order
    along the edge, after those of edges 0..e-1.  `steiner_edge` and
    `steiner_frac` give the edge and the fraction of node V + k.

    Arcs.  Consecutive nodes along each edge, weighted L / (m_e + 1), and
    every pair of nodes on two different sides of a face, weighted by
    their straight-line distance in the face chart.  A pair met more than
    once (a side shared by two faces) keeps its shortest length.  Every
    arc is a path on the surface, so graph distances bound geodesic
    distances from above.

    Build.  Each along-edge segment and each pair of nodes on two sides
    of a face is a record: a node pair (int32 ids) with a length.  Only
    the records that can repeat go through a min-reduction, by one sort of
    their keys: the segments and every record with a vertex endpoint (a
    pair along an edge is met from both faces on it and from its segments;
    a corner meets the opposite side's nodes from two side pairs of its
    face).  A pair of Steiner points on two sides of a face occurs once,
    unless another face has the same three vertices; only such faces send
    those pairs to the reduction.  The distinct pairs, smaller id first,
    are the upper triangle U, which the CSR conversion sorts per row, and
    the matrix is U + U.T: exactly symmetric.  Faces are grouped by their
    triple of per-side node counts, so each group's node positions and
    cross-side distances are broadcast array operations.
    """

    def __init__(self, surf: ConeSurface, h: float):
        if h <= 0:
            raise DomainError(f"Steiner spacing must be positive, got {h}")
        self.h = h
        # the graph keeps the edge table but not the surface, which holds
        # the graph: without a cycle, both are freed by reference count
        self.edges = edges = surf.edges
        V, L = surf.n_vertices, surf.edge_lengths
        m = np.maximum(np.ceil(L / h).astype(np.int64) - 1, 0)
        first = V + np.cumsum(m) - m  # id of each edge's first Steiner point
        n = self.n_nodes = V + int(m.sum())
        self.steiner_edge = np.repeat(np.arange(len(edges)), m)
        node = np.arange(V, n)
        k = node - first[self.steiner_edge] + 1
        self.steiner_frac = k * (1.0 / (m + 1))[self.steiner_edge]

        # along-edge segments: i -> first, ..., last -> j
        seg = L / (m + 1)
        prev = np.where(k == 1, edges[self.steiner_edge, 0], node - 1)
        last = np.where(m > 0, first + m - 1, edges[:, 0])
        again = _Records()  # records that can repeat
        once = _Records()   # records that cannot
        again.add(prev, node, seg[self.steiner_edge])
        again.add(last, edges[:, 1], seg)

        # per face side: its edge, node count, and the corners at the
        # edge's smaller and larger endpoint
        faces, fe = surf.faces, surf.face_edge
        nxt = (np.arange(3) + 1) % 3
        lo_first = faces[:, nxt] == edges[fe, 0]
        lo_corner = np.where(lo_first, nxt, (nxt + 1) % 3)
        hi_corner = np.where(lo_first, (nxt + 1) % 3, nxt)
        side_nodes = m[fe] + 2
        charts = surf.charts()
        # two faces on one edge with the same three vertices share every
        # side, so they meet each of their Steiner-Steiner pairs twice
        two = surf.edge_faces[surf.edge_faces[:, 1] >= 0]
        twin = np.all(np.sort(faces[two[:, 0]], axis=1) == np.sort(faces[two[:, 1]], axis=1),
                      axis=1)
        doubled = np.zeros(len(faces), dtype=bool)
        doubled[two[twin].ravel()] = True
        _, group, sizes = np.unique(
            side_nodes, axis=0, return_inverse=True, return_counts=True
        )
        by_group = np.split(np.argsort(group.ravel(), kind="stable"), np.cumsum(sizes)[:-1])
        for fs in by_group:
            ids, xs, ys = [], [], []
            for s in range(3):
                ns = int(side_nodes[fs[0], s])
                e = fe[fs, s]
                p = charts[fs, lo_corner[fs, s]]
                q = charts[fs, hi_corner[fs, s]]
                fr = np.linspace(0.0, 1.0, ns)
                # chart points of the side's nodes, one axis at a time
                xs.append(p[:, None, 0] + fr[None, :] * (q - p)[:, None, 0])
                ys.append(p[:, None, 1] + fr[None, :] * (q - p)[:, None, 1])
                ids.append(np.c_[edges[e, 0], first[e][:, None] + np.arange(ns - 2),
                                 edges[e, 1]].astype(np.int32))
            twins = doubled[fs]
            for s, t in ((0, 1), (0, 2), (1, 2)):
                # the norm of each chart difference, summed as np.linalg.norm does
                d = xs[s][:, :, None] - xs[t][:, None, :]
                d *= d
                dy = ys[s][:, :, None] - ys[t][:, None, :]
                dy *= dy
                d += dy
                del dy
                np.sqrt(d, out=d)
                u, v = ids[s][:, :, None], ids[t][:, None, :]
                frame = np.ones(d.shape[1:], dtype=bool)
                frame[1:-1, 1:-1] = False
                uu = np.broadcast_to(u, d.shape)[:, frame]
                vv = np.broadcast_to(v, d.shape)[:, frame]
                keep = uu != vv  # the corner the two sides share
                again.add(uu[keep], vv[keep], d[:, frame][keep])
                # Steiner-Steiner pairs
                u, v, d = u[:, 1:-1], v[:, :, 1:-1], d[:, 1:-1, 1:-1]
                if twins.any():
                    again.add(u[twins], v[twins], d[twins])
                    u, v, d = u[~twins], v[~twins], d[~twins]
                once.add(u, v, d)
        once.add(*again.min_reduced(n))
        upper = once.upper(n)
        self.matrix = upper + upper.T

    def node_values(self, vertex_values: np.ndarray) -> np.ndarray:
        """PL interpolation of a vertex function onto all graph nodes."""
        a = self.edges[self.steiner_edge, 0]
        b = self.edges[self.steiner_edge, 1]
        t = self.steiner_frac
        interp = (1 - t) * vertex_values[a] + t * vertex_values[b]
        return np.concatenate([vertex_values, interp])


class _Records:
    """Node pairs (int32, smaller id first) with their lengths, in chunks."""

    def __init__(self):
        self.lo, self.hi, self.val = [], [], []

    def add(self, u, v, val) -> None:
        """Records of the node pairs (u, v), broadcast together, and lengths val."""
        self.lo.append(np.minimum(u, v, dtype=np.int32).ravel())
        self.hi.append(np.maximum(u, v, dtype=np.int32).ravel())
        self.val.append(np.ravel(val))

    def _joined(self, name, dtype=None):
        """One column as one array; its chunks are dropped."""
        chunks = getattr(self, name)
        setattr(self, name, None)
        return np.concatenate(chunks, dtype=dtype)

    def min_reduced(self, n):
        """(lo, hi, length) of each distinct pair, at its shortest length.

        The records are dropped; the columns are joined and sorted one at a
        time, so the peak is four record-length arrays of 8 bytes.
        """
        val = self._joined("val")
        key = self._joined("lo", np.int64)
        key *= n
        key += self._joined("hi")
        order = np.argsort(key)
        val = val[order]
        key = key[order]
        del order
        start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        val = np.minimum.reduceat(val, start)
        key = key[start]
        return (key // n).astype(np.int32), (key % n).astype(np.int32), val

    def upper(self, n):
        """The pairs as an upper-triangular (n, n) CSR; they must be distinct.

        The records are dropped.
        """
        val, lo, hi = (self._joined(c) for c in ("val", "lo", "hi"))
        return sparse.csr_matrix((val, (lo, hi)), shape=(n, n))


@dataclass
class DistanceField:
    """Graph distances from one source vertex, with predecessors for tracing."""

    surface: ConeSurface
    source: int
    h: float
    node_dist: np.ndarray
    predecessors: np.ndarray

    @property
    def vertex_dist(self) -> np.ndarray:
        return self.node_dist[: self.surface.n_vertices]

    def distance_to(self, vertex: int) -> float:
        d = self.node_dist[vertex]
        if not math.isfinite(d):
            raise UnreachableError(f"vertex {vertex} unreachable from {self.source}")
        return float(d)


def distance_field(space: ConeSurface, source: int, h: float) -> DistanceField:
    """Shortest-path distance field from a source vertex.

    Distances are exact on the Steiner graph and overestimate the true
    geodesic distance by O(h).
    """
    if not 0 <= source < space.n_vertices:
        raise DomainError(f"source vertex {source} out of range")
    g = space.graph(h)
    # directed=True: the matrix is U + U.T, exactly symmetric (see _SteinerGraph)
    dist, pred = csgraph.dijkstra(
        g.matrix, directed=True, indices=source, return_predecessors=True
    )
    return DistanceField(
        surface=space,
        source=source,
        h=h,
        node_dist=dist,
        predecessors=pred,
    )


class DistanceCache:
    """Distances on the Steiner graph of one surface at spacing h, memoized.

    It holds two kinds of entry:

    - full distance fields with predecessors, per source (:meth:`field`);
    - one truncated distance ball per source vertex (:meth:`ball_chunks`),
      all in one CSR: row v is ``_ids[_ptr[v]:_ptr[v + 1]]`` (int32 vertex
      ids) with their float64 graph distances ``_dist[_ptr[v]:_ptr[v + 1]]``,
      in ascending distance with ties in ascending id, out to the radius
      ``_covered[v]``.

    A ball request for a radius at most the covered one runs no sweep and
    reads the row's prefix within the radius asked for; a larger radius
    sweeps that source again and replaces its row.  A request counts the
    entries within radius of all its stored rows once, by one bisection,
    and hands them out in chunks of at most ``BALL_READ`` stored entries
    and ``BALL_CHUNK`` swept sources.  Stored rows take at
    most ``BALL_CACHE_BYTES`` (``ball_bytes`` counts them); a ball that
    would exceed the cap serves the request that swept it and is then
    dropped.
    """

    def __init__(self, space: ConeSurface, h: float):
        self.space = space
        self.h = float(h)
        self._fields: dict[int, DistanceField] = {}
        V = space.n_vertices
        self._covered = np.full(V, -np.inf)  # radius each stored row covers
        self._ptr = np.zeros(V + 1, dtype=np.int64)
        self._ids = np.empty(0, dtype=np.int32)
        self._dist = np.empty(0)

    @property
    def ball_bytes(self) -> int:
        return self._ids.nbytes + self._dist.nbytes

    def field(self, source: int) -> DistanceField:
        fld = self._fields.get(source)
        if fld is None:
            fld = distance_field(self.space, source, self.h)
            self._fields[source] = fld
        return fld

    def vertex_block(self, sources, limit=np.inf):
        """Vertex-to-vertex distances (len(sources), V), inf beyond `limit`.

        Chunked over sources to bound peak memory.
        """
        g = self.space.graph(self.h)
        V = self.space.n_vertices
        sources = np.asarray(sources, dtype=np.int64)
        out = np.empty((len(sources), V))
        step = max(1, int(BLOCK_CELLS // max(g.n_nodes, 1)))
        for lo in range(0, len(sources), step):
            idx = sources[lo : lo + step]
            # directed=True reads the matrix as given: it is U + U.T, exactly
            # symmetric (see _SteinerGraph), so this equals the undirected search
            d = csgraph.dijkstra(g.matrix, directed=True, indices=idx, limit=limit)
            out[lo : lo + step] = d[:, :V]
        return out

    def ball_chunks(self, sources, radii):
        """Distance balls of `sources`, in chunks of descending radius.

        `radii` is one radius per source, or one for all.  Yields
        ``(idx, ptr, ids, dist)`` per chunk: row k belongs to source
        ``idx[k]`` and is ``ids[ptr[k]:ptr[k+1]]`` with graph distances
        ``dist[ptr[k]:ptr[k+1]]``.  A row holds exactly the vertices within
        the requested radius of its source, in ascending distance with ties
        in ascending id.  The sources whose stored balls are missing or too
        small are swept; the rest are read from the store, after one count
        of each stored row's entries within its radius for the whole
        request.  Chunks are cut along the descending-radius order: one
        ends before it would sweep more than ``BALL_CHUNK`` sources or read
        more than ``BALL_READ`` stored entries, and a single stored row
        above that budget is a chunk of its own.  A chunk's swept sources
        are swept together by one :meth:`vertex_block` call; their rows come
        last in the chunk, and enter the store when the request ends.
        """
        sources = np.asarray(sources, dtype=np.int64)
        radii = np.broadcast_to(np.asarray(radii, dtype=float), sources.shape)
        order = np.argsort(-radii, kind="stable")
        src, r = sources[order], radii[order]
        miss = self._covered[src] < r
        start = self._ptr[src]
        count = np.zeros(len(src), dtype=np.int64)
        count[~miss] = self._count_within(src[~miss], r[~miss])
        # chunk [lo, hi) sweeps sweeps[hi] - sweeps[lo] sources and reads
        # reads[hi] - reads[lo] stored entries
        sweeps = np.zeros(len(src) + 1, dtype=np.int64)
        np.cumsum(miss, out=sweeps[1:])
        reads = np.zeros(len(src) + 1, dtype=np.int64)
        np.cumsum(count, out=reads[1:])
        swept = []
        try:
            lo = 0
            while lo < len(src):
                hi = min(np.searchsorted(sweeps, sweeps[lo] + BALL_CHUNK, "right"),
                         np.searchsorted(reads, reads[lo] + BALL_READ, "right")) - 1
                hi = max(int(hi), lo + 1)
                hit = ~miss[lo:hi]
                idx = src[lo:hi][hit]
                ptr = np.append(reads[lo:hi][hit], reads[hi]) - reads[lo]
                at = _row_entries(start[lo:hi][hit], count[lo:hi][hit])
                ids, dist = self._ids[at], self._dist[at]
                if not hit.all():
                    swept.append(self._sweep(src[lo:hi][~hit], r[lo:hi][~hit]))
                    s_idx, _, s_ptr, s_ids, s_dist = swept[-1]
                    idx = np.concatenate([idx, s_idx])
                    ptr = np.concatenate([ptr, ptr[-1] + s_ptr[1:]])
                    ids = np.concatenate([ids, s_ids])
                    dist = np.concatenate([dist, s_dist])
                yield idx, ptr, ids, dist
                lo = hi
        finally:
            self._store(swept)

    def _count_within(self, idx, r):
        """Per stored row of `idx`, its count of leading entries within `r`."""
        lo = self._ptr[idx]
        # bisect every row at once for the first entry beyond its radius
        a, n = lo.copy(), self._ptr[idx + 1] - lo
        top = len(self._dist) - 1
        for _ in range(int(n.max(initial=0)).bit_length()):
            half = n >> 1
            mid = a + half
            inside = (self._dist[np.minimum(mid, top)] <= r) & (n > 0)
            a = np.where(inside, mid + 1, a)
            n = np.where(inside, n - half - 1, half)
        return a - lo

    def _sweep(self, idx, r):
        """Balls of `idx` within radii `r`, fresh from one vertex_block call.

        Returns (idx, r, ptr, ids, dist), rows in ascending distance with
        ties in ascending id.  Only the entries within r are sorted: a
        stable sort by distance of the block's row-major entries, then a
        stable sort by row, whose small integer keys numpy sorts by radix.
        """
        block = self.vertex_block(idx, limit=float(r.max()))
        row, col = np.nonzero(block <= r[:, None])
        dist = block[row, col]
        del block
        order = np.argsort(dist, kind="stable")
        order = order[np.argsort(row[order].astype(np.min_scalar_type(len(idx))),
                                 kind="stable")]
        ptr = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=len(idx)), out=ptr[1:])
        return idx, r, ptr, col[order].astype(np.int32), dist[order]

    def _store(self, swept) -> None:
        """Put swept rows in place of the stored ones, within the byte cap.

        A source keeps its largest swept ball, if it covers more than the
        stored one; such rows enter in sweep order until the next would
        pass the cap.  A row that covers more holds at least as many
        entries, so the store grows in place: each run of kept rows moves
        up by the entries inserted before it, then the swept rows are
        scattered into their new slots.
        """
        if not swept:
            return
        src = np.concatenate([s[0] for s in swept])
        r = np.concatenate([s[1] for s in swept])
        size = np.concatenate([np.diff(s[2]) for s in swept])
        by_src = np.lexsort((-r, src))
        top = np.zeros(len(src), dtype=bool)
        top[by_src[np.r_[True, src[by_src][1:] != src[by_src][:-1]]]] = True
        take = top & (r > self._covered[src])
        old = np.diff(self._ptr)
        grow = np.where(take, size - old[src], 0) * (
            self._ids.itemsize + self._dist.itemsize)
        take &= np.cumsum(grow) <= BALL_CACHE_BYTES - self.ball_bytes
        if not take.any():
            return
        length = old.copy()
        length[src[take]] = size[take]
        ptr = np.zeros_like(self._ptr)
        np.cumsum(length, out=ptr[1:])
        # no view of the buffers outlives a call, so they can grow in place
        self._ids.resize(ptr[-1], refcheck=False)
        self._dist.resize(ptr[-1], refcheck=False)
        changed = np.zeros(len(old), dtype=bool)
        changed[src[take]] = True
        # runs [first, stop) of kept rows, last first, so none is overwritten
        # before it moves
        edge = np.flatnonzero(np.diff(np.r_[True, changed, True]))
        for first, stop in zip(edge[-2::-2], edge[:0:-2]):
            a, b = self._ptr[first], self._ptr[stop]
            shift = ptr[first] - a
            if b > a and shift:
                self._ids[a + shift : b + shift] = self._ids[a:b]
                self._dist[a + shift : b + shift] = self._dist[a:b]
        lo = 0
        for s_idx, s_r, s_ptr, s_ids, s_dist in swept:
            rows = np.flatnonzero(take[lo : lo + len(s_idx)])
            lo += len(s_idx)
            n_row = np.diff(s_ptr)[rows]
            at = _row_entries(s_ptr[rows], n_row)
            to = _row_entries(ptr[s_idx[rows]], n_row)
            self._ids[to] = s_ids[at]
            self._dist[to] = s_dist[at]
            self._covered[s_idx[rows]] = s_r[rows]
        self._ptr = ptr


def _row_entries(start, length):
    """Flat positions of the rows [start, start + length), in row order."""
    ptr = np.zeros(len(length) + 1, dtype=np.int64)
    np.cumsum(length, out=ptr[1:])
    return np.repeat(start - ptr[:-1], length) + np.arange(ptr[-1])


def trace_shortest_path(field: DistanceField, target: int):
    """Graph node sequence from the field's source to `target`.

    Returns (node ids, cumulative arclengths); the final arclength equals
    the graph distance exactly.
    """
    if not math.isfinite(field.node_dist[target]):
        raise UnreachableError(
            f"vertex {target} unreachable from {field.source}"
        )
    seq = [int(target)]
    while seq[-1] != field.source:
        p = field.predecessors[seq[-1]]
        if p < 0:
            raise UnreachableError(
                f"no predecessor chain from {target} to {field.source}"
            )
        seq.append(int(p))
    seq.reverse()
    arc = field.node_dist[np.asarray(seq)]
    return np.asarray(seq, dtype=np.int64), np.asarray(arc)


def initial_direction(space: ConeSurface, p: int, q: int, h: float,
                      cache: DistanceCache | None = None) -> float:
    """Direction at p of a shortest path p -> q, as a coordinate in [0, cone angle].

    The coordinate is an angle about p.  It is 0 along the start edge: the
    boundary edge listed last if p lies on the boundary, else the edge at p
    with the smallest id (edges listed as the sides of the corners at p, in
    face order, each corner's two sides in side order).  From there it
    walks the corners at p across shared edges and sums their angles: each
    edge at p sits at the sum of the corners walked before it, and a
    direction inside a corner adds its angle from the edge the walk entered
    that corner by.  At an interior vertex the walk closes, so the
    coordinate is a circle whose length is the cone angle; at a boundary
    vertex it is the arc from the start edge, at 0, to the other boundary
    edge, at the cone angle.  The cone angle here is the corner angles
    summed in walk order, which may differ from ``cone_angle[p]`` in the
    last bits.  Against an embedding, the walk turns either way about p,
    as the start corner leads.  The direction is that of the traced graph
    path's first segment.
    """
    if p == q:
        raise DomainError("initial_direction needs q != p")
    fld = cache.field(p) if cache is not None else distance_field(space, p, h)
    nodes, _ = trace_shortest_path(fld, q)
    graph = space.graph(fld.h)

    # corners 3 f + t at p, in face order; slot 2 k + j holds the j-th of
    # the two sides at corner k, in side order
    corners = np.flatnonzero(space.faces.ravel() == p)
    f, t = np.divmod(corners, 3)
    side = np.array([[1, 2], [0, 2], [0, 1]])[t]
    slot_edge = space.face_edge[f[:, None], side].ravel()
    # mate: the other slot on the same edge, -1 on a boundary edge
    order = np.argsort(slot_edge, kind="stable")
    pair = slot_edge[order[1:]] == slot_edge[order[:-1]]
    mate = np.full(len(slot_edge), -1)
    mate[order[1:][pair]] = order[:-1][pair]
    mate[order[:-1][pair]] = order[1:][pair]
    boundary = np.flatnonzero(space.edge_faces[slot_edge, 1] < 0)
    entry = [int(boundary[-1]) if len(boundary) else int(np.argmin(slot_edge))]
    # the corners at p form one fan (build_surface checks it), so leaving
    # each corner by its other side into the mate's corner visits them all
    mate = mate.tolist()
    for _ in range(len(corners) - 1):
        entry.append(mate[entry[-1] ^ 1])
    walk = [s // 2 for s in entry]
    # angle[i] is the coordinate of edge_at[i]: the start edge, then the
    # edge each corner is left by; angle[i] is also the base of walk[i]
    slot_edge = slot_edge.tolist()
    edge_at = [slot_edge[entry[0]]] + [slot_edge[s ^ 1] for s in entry]
    angle = np.zeros(len(walk) + 1)
    np.cumsum(space.corner_angle[f[walk], t[walk]], out=angle[1:])

    node = int(nodes[1])
    V = space.n_vertices
    e = space.edge_index[p, node] if node < V else int(graph.steiner_edge[node - V])
    if p in space.edges[e]:
        return float(angle[edge_at.index(e)])
    # the segment crosses the first face at p opposite edge e, to the
    # Steiner node on e, at an angle from the edge the walk entered by
    k = int(np.argmax(space.face_edge[f, t] == e))
    i = walk.index(k)
    chart = space.charts()[f[k]]
    a, b = (space.faces[f[k]].tolist().index(v) for v in space.edges[e])
    x = chart[a] + graph.steiner_frac[node - V] * (chart[b] - chart[a])
    at_p = chart[t[k]]
    vec_edge = chart[3 - t[k] - side[k, entry[i] % 2]] - at_p
    vec_seg = x - at_p
    cosang = np.dot(vec_edge, vec_seg) / (np.linalg.norm(vec_edge) * np.linalg.norm(vec_seg))
    return float(angle[i] + math.acos(min(1.0, max(-1.0, float(cosang)))))


def toponogov_check(space: ConeSurface, cache: DistanceCache,
                    quadruple, kappa: float, tol: float) -> bool:
    """Alexandrov quadruple condition: the three comparison angles at p sum
    to at most 2 pi + tol."""
    if cache.space is not space:
        raise DomainError("distance cache belongs to a different surface")
    p, a, b, c = quadruple
    dp = cache.field(p)
    da = cache.field(a)
    db = cache.field(b)
    pa, pb, pc = dp.distance_to(a), dp.distance_to(b), dp.distance_to(c)
    ab, bc, ca = da.distance_to(b), db.distance_to(c), da.distance_to(c)
    total = (
        comparison_angle(kappa, ab, pa, pb)
        + comparison_angle(kappa, bc, pb, pc)
        + comparison_angle(kappa, ca, pc, pa)
    )
    return bool(total <= 2 * math.pi + tol)


# ---------------------------------------------------------------------------
# ball volumes from a PL distance field
# ---------------------------------------------------------------------------


def _sublevel_fraction(vals: np.ndarray, r: float) -> np.ndarray:
    """Per-face area fraction of {PL interpolant <= r}; exact for PL fields."""
    srt = np.sort(vals, axis=1)
    a, b, c = srt[:, 0], srt[:, 1], srt[:, 2]
    out = np.zeros(len(vals))
    out[r >= c] = 1.0
    mid = (r > a) & (r <= b)
    den1 = np.maximum((b - a) * (c - a), 1e-300)
    out[mid] = ((r - a) ** 2 / den1)[mid]
    hi = (r > b) & (r < c)
    den2 = np.maximum((c - a) * (c - b), 1e-300)
    out[hi] = (1.0 - (c - r) ** 2 / den2)[hi]
    return out


def ball_volume(space: ConeSurface, field: DistanceField, r: float) -> float:
    """Area of the sub-level set {dist <= r} of the PL distance interpolant."""
    vals = field.vertex_dist[space.faces]
    return float(np.sum(space.face_area * _sublevel_fraction(vals, r)))


# ---------------------------------------------------------------------------
# mesh text format
# ---------------------------------------------------------------------------


def save_off(space: ConeSurface, path) -> None:
    """Write the header-counts-vertices-faces text format with a #lengths trailer.

    Embedding coordinates are written when present (2D padded to 3D);
    abstract surfaces get zero coordinates and rely on the trailer.
    """
    V = space.n_vertices
    emb = space.embedding
    if emb is None:
        coords = np.zeros((V, 3))
    elif emb.shape[1] == 2:
        coords = np.c_[emb, np.zeros(V)]
    else:
        coords = emb
    F, E = space.n_faces, len(space.edges)
    i, j = space.edges.T.tolist()
    lengths = tuple(chain.from_iterable(zip(i, j, space.edge_lengths.tolist())))
    with open(path, "w") as fh:
        fh.write(f"OFF\n{V} {F} 0\n")
        fh.write("%.17g %.17g %.17g\n" * V % tuple(coords.ravel().tolist()))
        fh.write("3 %d %d %d\n" * F % tuple(space.faces.ravel().tolist()))
        fh.write("#lengths\n")
        fh.write("%d %d %.17g\n" * E % lengths)


def _convert(rows, dtype, msg):
    """np.array(rows, dtype); a token that does not convert raises ValueError(msg)."""
    try:
        return np.array(rows, dtype=dtype)
    except (ValueError, OverflowError):
        raise ValueError(msg) from None


def load_off(path) -> ConeSurface:
    """Read a surface from the text format that save_off writes.

    The format carries no curvature bound, so the surface declares k = 0.

    The content lines, in order:

    - the header ``OFF``;
    - the counts ``V F x``: nonnegative integers V and F, and any third
      token;
    - V vertex lines ``x y z`` of finite coordinates;
    - F face lines ``3 i j k`` of vertex ids in [0, V);
    - optionally the marker ``#lengths``, then any number of edge records
      ``i j L`` with vertex ids in [0, V) and a finite length L > 0.

    Every vertex must lie on a face.  A record overrides the embedding
    distance of the face side it names, and a record that names no face
    side is an error.  Records of one edge must agree to 1e-9 relative
    (else InconsistentGluingError); the last one is used.  Blank lines and
    lines whose first non-blank character is '#' are comments, except the
    marker itself.  Lines end in LF or CRLF.

    A malformed file raises MeshFormatError naming the file and its first
    bad line; each line is checked for its token count, then its
    conversion, then its values.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    tokens = [line.split() for line in lines]
    # content lines: not blank, and no comment unless the '#lengths' marker
    nums = [n for n, t in enumerate(tokens, 1) if t and (t[0][0] != "#" or t == ["#lengths"])]
    content = [tokens[n - 1] for n in nums]

    def fail(num, msg):
        raise MeshFormatError(f"{path}:{num}: {msg}") from None

    def block(start, stop, parse):
        """parse() of content rows [start, stop).  If it raises, the rows are
        parsed one at a time to fail at the first bad one."""
        try:
            return parse(content[start:stop])
        except ValueError:
            for row, num in zip(content[start:stop], nums[start:stop]):
                try:
                    parse([row])
                except ValueError as err:
                    fail(num, err)
            raise  # not reached: every check is a check of one row

    def vertex_rows(rows):
        if any(len(r) != 3 for r in rows):
            raise ValueError("vertex line must have 3 coordinates")
        x = _convert(rows, float, "bad vertex coordinate").reshape(-1, 3)
        if not np.isfinite(x).all():
            raise ValueError("vertex coordinate is not finite")
        return x

    def face_rows(rows):
        if any(len(r) != 4 or r[0] != "3" for r in rows):
            raise ValueError("face line must be '3 i j k'")
        f = _convert(rows, np.int64, "bad face index").reshape(-1, 4)[:, 1:]
        if ((f < 0) | (f >= nv)).any():
            raise ValueError("face index out of range")
        return f

    def length_rows(rows):
        if any(len(r) != 3 for r in rows):
            raise ValueError("length line must be 'i j L'")
        ij = _convert([r[:2] for r in rows], np.int64, "bad length record").reshape(-1, 2)
        L = _convert([r[2] for r in rows], float, "bad length record")
        bad = ~(np.isfinite(L) & (L > 0))
        if bad.any():
            raise ValueError(f"invalid edge length {L[_first(bad)]}")
        if ((ij < 0) | (ij >= nv)).any():
            raise ValueError("length record index out of range")
        return ij, L

    if not content or content[0] != ["OFF"]:
        fail(nums[0] if content else 1, "expected OFF header")
    if len(content) < 2:
        fail(len(lines), "missing counts line")
    if len(content[1]) != 3:
        fail(nums[1], "counts line must be 'V F 0'")
    try:
        nv, nf = int(content[1][0]), int(content[1][1])
    except ValueError:
        fail(nums[1], "counts must be integers")
    if nv < 0 or nf < 0:
        fail(nums[1], "counts must be nonnegative")

    coords = block(2, 2 + nv, vertex_rows)
    if len(content) < 2 + nv:
        fail(len(lines), f"expected {nv} vertex lines")
    faces = block(2 + nv, 2 + nv + nf, face_rows)
    start = 2 + nv + nf
    if len(content) < start:
        fail(len(lines), f"expected {nf} face lines")
    if start < len(content) and content[start] != ["#lengths"]:
        fail(nums[start], f"unexpected trailing content: {lines[nums[start] - 1].strip()!r}")
    rec_ij, rec_len = block(start + 1, len(content), length_rows)
    rec_keys = _edge_keys(rec_ij[:, 0], rec_ij[:, 1], nv)

    def lengths(u, v):
        out = np.linalg.norm(coords[u] - coords[v], axis=1)
        # build_surface lists edges sorted by (min, max), so their keys ascend
        pos, found = _find(_edge_keys(u, v, nv), rec_keys)
        if not found.all():
            fail(nums[start + 1 + _first(~found)], "length record names no face edge")
        last = _last_records(rec_keys, rec_len, nv)
        out[pos[last]] = rec_len[last]
        return out

    embedding = coords if np.any(coords) else None
    surf = build_surface(faces, lengths, embedding=embedding)
    # build_surface counts the vertices up to the largest face id
    if surf.n_vertices < nv:
        fail(nums[2 + surf.n_vertices], "vertex is in no face")
    return surf
