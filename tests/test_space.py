import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import csgraph

import alexlab.space
from alexlab.exceptions import (
    AlexlabError,
    DisconnectedError,
    DomainError,
    InconsistentGluingError,
    MeshFormatError,
    TriangleInequalityError,
    UnreachableError,
)
from alexlab.model import comparison_angle
from alexlab.space import (
    DistanceCache,
    build_surface,
    cone_disk,
    distance_field,
    flat_disk,
    flat_torus,
    icosphere,
    initial_direction,
    load_off,
    save_off,
    toponogov_check,
    trace_shortest_path,
)

RNG = np.random.default_rng(20240817)


def table(lengths):
    """Edge length function of a {(i, j): L} table, in either endpoint order."""
    both = {**lengths, **{(j, i): L for (i, j), L in lengths.items()}}
    return lambda u, v: np.array([both[ij] for ij in zip(u.tolist(), v.tolist())])


def edge_id(surf, i, j):
    """Id of the edge with endpoints i and j."""
    return int(np.flatnonzero((surf.edges == sorted((i, j))).all(axis=1))[0])


def unit_square():
    faces = [(0, 1, 2), (0, 2, 3)]
    s2 = math.sqrt(2.0)
    lengths = {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0, (0, 2): s2}
    return build_surface(faces, table(lengths), embedding=np.asarray(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    ))


def test_build_surface_square():
    surf = unit_square()
    assert surf.n_vertices == 4
    assert surf.face_area.sum() == pytest.approx(1.0, abs=1e-12)
    # all four vertices are on the boundary of the square
    assert surf.boundary_vertex.all()
    assert len(surf.singular_vertices) == 0


def test_build_surface_triangle_inequality():
    with pytest.raises(TriangleInequalityError):
        build_surface([(0, 1, 2)], table({(0, 1): 1.0, (1, 2): 1.0, (0, 2): 3.0}))


@pytest.mark.parametrize("lengths, message", [
    (lambda u, v: np.ones(len(u) + 1), r"returned shape \(4,\), expected \(3,\)"),
    (lambda u, v: np.where(u + v == 2, math.nan, 1.0), r"edge \(2, 0\) has invalid length nan"),
    (lambda u, v: np.where(u + v == 2, math.inf, 1.0), r"edge \(2, 0\) has invalid length inf"),
    (lambda u, v: np.where(u + v == 2, 0.0, 1.0), r"edge \(2, 0\) has invalid length 0.0"),
    (lambda u, v: np.where(u + v == 2, -1.0, 1.0), r"edge \(2, 0\) has invalid length -1.0"),
], ids=["shape", "nan", "inf", "zero", "negative"])
def test_build_surface_rejects_bad_lengths(lengths, message):
    # the triangle's edges, as the length function sees them: (1, 2), (2, 0), (0, 1)
    with pytest.raises(DomainError, match=message):
        build_surface([(0, 1, 2)], lengths)


def test_build_surface_disconnected():
    faces = [(0, 1, 2), (3, 4, 5)]
    lengths = {}
    for a, b, c in faces:
        lengths[(a, b)] = lengths[(b, c)] = 1.0
        lengths[(min(a, c), max(a, c))] = 1.0
    with pytest.raises(DisconnectedError):
        build_surface(faces, table(lengths))


def test_cone_disk_roundtrip_apex_angle(tmp_path):
    theta = 3 * math.pi / 2
    cone = cone_disk(theta, 1.0, 0.05)
    assert cone.cone_angle[0] == pytest.approx(theta, abs=1e-9)
    assert 0 in cone.singular_vertices
    assert cone.face_area.sum() == pytest.approx(theta / 2, rel=0.02)
    # re-ingest through the mesh format
    path = tmp_path / "cone.off"
    save_off(cone, path)
    back = load_off(path)
    assert back.cone_angle[0] == pytest.approx(theta, abs=1e-9)
    assert 0 in back.singular_vertices


def test_flat_disk_area_and_regularity():
    disk = flat_disk(1.0, 0.1)
    assert disk.face_area.sum() == pytest.approx(math.pi, rel=0.02)
    # spec invariant: generated flat meshes have empty singular set
    assert len(disk.singular_vertices) == 0
    interior = ~disk.boundary_vertex
    assert np.max(np.abs(disk.cone_angle[interior] - 2 * math.pi)) < 1e-9


def cross(xy, a, b, c):
    """Twice the signed areas of the triangles (a, b, c)."""
    (ux, uy), (vx, vy) = (xy[b] - xy[a]).T, (xy[c] - xy[a]).T
    return ux * vy - uy * vx


def lifted_incircle(xy, a, b, c, d):
    """det [p - d, |p - d|^2] over the rows p = a, b, c: positive where d
    lies inside the circle through a, b, c, if they run counterclockwise."""
    rows = np.stack([xy[a] - xy[d], xy[b] - xy[d], xy[c] - xy[d]], axis=1)
    return np.linalg.det(np.concatenate([rows, (rows**2).sum(axis=2, keepdims=True)], axis=2))


# R/h: a lone center (< 1.95), a sweep, and the benchmark disks
DELAUNAY_DISKS = ([(1.0, 1.0 / rh) for rh in np.r_[0.01, np.linspace(0.5, 60, 25)]]
                  + [(1.0, 0.05), (math.sqrt(math.sqrt(3) / 2), 0.04), (1.0, 0.02)])


@pytest.mark.parametrize("R, h", DELAUNAY_DISKS)
def test_flat_disk_is_delaunay_and_matches_qhull(R, h):
    from scipy.spatial import Delaunay  # test-only oracle

    disk = flat_disk(R, h)
    xy, faces, V = disk.embedding, disk.faces, disk.n_vertices
    rim = np.arange(V - max(8, round(2 * math.pi * R / h)), V)
    qhull = Delaunay(xy)
    assert len(faces) == len(qhull.simplices)
    assert np.array_equal(np.flatnonzero(disk.boundary_vertex), rim)
    assert np.array_equal(np.unique(qhull.convex_hull), rim)
    assert (cross(xy, faces[:, 0], faces[:, 1], faces[:, 2]) > 0).all()  # counterclockwise
    # every interior edge (a, b), far corners c and d, passes the incircle test
    two = disk.edge_faces[:, 1] >= 0
    a, b = disk.edges[two].T
    f0, f1 = disk.edge_faces[two].T
    c = faces[f0].sum(axis=1) - a - b
    d = faces[f1].sum(axis=1) - a - b
    det = np.sign(cross(xy, a, b, c)) * lifted_incircle(xy, a, b, c, d)
    tol = 1e-9 * min(h, R) ** 4
    assert (det <= tol).all()
    # a quad cocircular within tol takes the diagonal through its lowest id
    cocircular = np.flatnonzero(np.abs(det) <= tol)
    assert (np.minimum(a, b) < np.minimum(c, d))[cocircular].all()
    # the faces are Qhull's, but for cocircular quads whose diagonal Qhull
    # took the other way
    ours = {tuple(f) for f in np.sort(faces, axis=1).tolist()}
    theirs = {tuple(f) for f in np.sort(qhull.simplices, axis=1).tolist()}
    for k in cocircular:
        old = [tuple(sorted(f)) for f in faces[[f0[k], f1[k]]].tolist()]
        if old[0] not in theirs and old[1] not in theirs:
            ours -= set(old)
            ours |= {tuple(sorted((a[k], c[k], d[k]))), tuple(sorted((b[k], c[k], d[k])))}
    assert ours == theirs


def test_icosphere_area_and_gauss_bonnet():
    ico = icosphere(3)
    assert ico.face_area.sum() == pytest.approx(4 * math.pi, rel=0.01)
    assert ico.is_closed
    # spec invariant: discrete Gauss-Bonnet, exact to 1e-8
    defect = np.sum(2 * math.pi - ico.cone_angle)
    assert defect == pytest.approx(2 * math.pi * ico.euler_characteristic(), abs=1e-8)
    assert ico.euler_characteristic() == 2


def test_flat_torus_gauss_bonnet_and_closedness():
    torus = flat_torus(1.0, 1 / 8)
    assert torus.is_closed
    assert torus.euler_characteristic() == 0
    defect = np.sum(2 * math.pi - torus.cone_angle)
    assert abs(defect) < 1e-8
    assert torus.face_area.sum() == pytest.approx(1.0, abs=1e-12)


def test_generator_parameter_validation():
    with pytest.raises(DomainError):
        flat_disk(-1.0, 0.1)
    with pytest.raises(DomainError):
        cone_disk(5 * math.pi, 1.0, 0.1)
    with pytest.raises(DomainError):
        flat_torus(1.0, 0.0)
    for bad in (lambda: flat_disk(1.0, math.nan), lambda: flat_disk(math.nan, 0.2),
                lambda: flat_disk(math.inf, 0.2), lambda: flat_disk(1.0, math.inf),
                lambda: cone_disk(1.0, 1.0, math.nan), lambda: flat_torus(1.0, math.nan),
                lambda: flat_torus(math.inf, 0.1), lambda: icosphere(math.nan),
                lambda: icosphere(math.inf)):
        with pytest.raises(DomainError):
            bad()
    # round(L/h) = 2 would glue some edges to three faces
    for h in (0.5, 0.4):
        with pytest.raises(DomainError):
            flat_torus(1.0, h)
    assert flat_torus(1.0, 0.34).n_vertices == 9
    with pytest.raises(DomainError):
        icosphere(-1)


def test_distance_field_flat_disk_radius():
    disk = flat_disk(1.0, 0.02)
    fld = distance_field(disk, 0, 0.01)
    boundary = np.flatnonzero(disk.boundary_vertex)
    d = fld.vertex_dist[boundary]
    assert np.all(np.abs(d - 1.0) <= 0.03)
    assert fld.vertex_dist[0] == 0.0


def test_distance_field_icosphere_antipodal():
    ico = icosphere(4)
    fld = distance_field(ico, 0, 0.02)
    emb = ico.embedding
    anti = int(np.argmin(emb @ emb[0]))
    assert fld.vertex_dist[anti] == pytest.approx(math.pi, abs=0.05)


def test_distance_field_symmetry():
    # graph distances are exactly symmetric
    disk = flat_disk(1.0, 0.1)
    pairs = RNG.choice(disk.n_vertices, size=(20, 2), replace=True)
    cache = DistanceCache(disk, 0.05)
    for a, b in pairs:
        if a == b:
            continue
        ab = cache.field(int(a)).node_dist[b]
        ba = cache.field(int(b)).node_dist[a]
        assert abs(ab - ba) <= 1e-9


def test_refinement_convergence_regression():
    # max over random pairs of |graph - Euclidean| <= C * h, C frozen at 2.0
    disk = flat_disk(1.0, 0.05)
    xy = disk.embedding
    targets = RNG.choice(disk.n_vertices, size=50, replace=False)
    for h in (0.05, 0.025):
        fld = distance_field(disk, 0, h)
        true = np.linalg.norm(xy[targets] - xy[0], axis=1)
        err = np.abs(fld.vertex_dist[targets] - true)
        assert err.max() <= 2.0 * h


def test_trace_shortest_path_consistency():
    disk = flat_disk(1.0, 0.1)
    fld = distance_field(disk, 0, 0.05)
    target = int(np.flatnonzero(disk.boundary_vertex)[0])
    nodes, arcs = trace_shortest_path(fld, target)
    assert nodes[0] == 0 and nodes[-1] == target
    assert arcs[-1] == pytest.approx(fld.node_dist[target], abs=1e-12)
    assert np.all(np.diff(arcs) > 0)
    # source -> source is the trivial path
    nodes0, arcs0 = trace_shortest_path(fld, 0)
    assert list(nodes0) == [0] and arcs0[0] == 0.0


def non_vertices():
    """flat_disk(1, 0.3) at spacing 0.1, and ids it must refuse as vertices:
    -1, V and a Steiner node."""
    disk = flat_disk(1.0, 0.3)
    V = disk.n_vertices
    assert disk.graph(0.1).n_nodes > V + 2
    return disk, (-1, V, V + 2)


def test_trace_shortest_path_rejects_non_vertices():
    disk, bad = non_vertices()
    fld = distance_field(disk, 0, 0.1)
    for v in bad:
        with pytest.raises(DomainError, match="out of range"):
            trace_shortest_path(fld, v)


def test_trace_path_cone_unrolling_bound():
    # path between two rim points of a theta < 2pi cone is no longer than
    # the flat-unrolled straight chord, up to graph stretch
    theta = math.pi
    cone = cone_disk(theta, 1.0, 0.05)
    rim = np.flatnonzero(np.abs(cone.cone_coords[:, 0] - 1.0) < 1e-9)
    phis = cone.cone_coords[rim, 1]
    a = int(rim[np.argmin(np.abs(phis - 0.1))])
    b = int(rim[np.argmin(np.abs(phis - (theta - 0.1)))])
    fld = distance_field(cone, a, 0.02)
    dphi = min(abs(phis[rim == b][0] - phis[rim == a][0]),
               theta - abs(phis[rim == b][0] - phis[rim == a][0]))
    chord = math.sqrt(2 - 2 * math.cos(dphi))
    assert fld.node_dist[b] <= chord * 1.05
    # going through the apex is never shorter than the unrolled chord here
    assert fld.node_dist[b] <= 2.0


def test_initial_direction_flat_embedding_azimuth():
    disk = flat_disk(1.0, 0.05)
    xy = disk.embedding
    cache = DistanceCache(disk, 0.005)
    # target on the positive x axis as seen from an interior vertex near center
    p = 0
    fan_total = disk.cone_angle[p]
    assert fan_total == pytest.approx(2 * math.pi, abs=1e-9)
    targets = [int(np.argmax(xy[:, 0])), int(np.argmax(xy[:, 1]))]
    angs = [initial_direction(disk, p, q, 0.005, cache) for q in targets]
    # directions to +x and +y targets differ by pi/2 in the fan coordinate
    gap = abs(angs[0] - angs[1]) % (2 * math.pi)
    gap = min(gap, 2 * math.pi - gap)
    assert gap == pytest.approx(math.pi / 2, abs=0.15)


def test_initial_direction_symmetric_targets():
    disk = flat_disk(1.0, 0.05)
    xy = disk.embedding
    cache = DistanceCache(disk, 0.005)
    up = int(np.argmin(np.linalg.norm(xy - [0.0, 0.8], axis=1)))
    dn = int(np.argmin(np.linalg.norm(xy - [0.0, -0.8], axis=1)))
    a_up = initial_direction(disk, 0, up, 0.005, cache)
    a_dn = initial_direction(disk, 0, dn, 0.005, cache)
    gap = abs(a_up - a_dn)
    gap = min(gap, 2 * math.pi - gap)
    assert gap == pytest.approx(math.pi, abs=0.15)


def test_initial_direction_cone_rim_gap():
    theta = 3 * math.pi / 2
    cone = cone_disk(theta, 1.0, 0.05)
    rim = np.flatnonzero(np.abs(cone.cone_coords[:, 0] - 1.0) < 1e-9)
    phis = cone.cone_coords[rim, 1]
    a = int(rim[np.argmin(np.abs(phis - 0.3))])
    b = int(rim[np.argmin(np.abs(phis - 1.1))])
    cache = DistanceCache(cone, 0.004)
    ang_a = initial_direction(cone, 0, a, 0.004, cache)
    ang_b = initial_direction(cone, 0, b, 0.004, cache)
    want = abs(phis[rim == b][0] - phis[rim == a][0])
    gap = abs(ang_a - ang_b)
    gap = min(gap, theta - gap)
    assert gap == pytest.approx(want, abs=0.1)


def test_initial_direction_errors():
    disk = flat_disk(1.0, 0.2)
    with pytest.raises(DomainError):
        initial_direction(disk, 3, 3, 0.1)


def test_initial_direction_rejects_non_vertices():
    disk, bad = non_vertices()
    cache = DistanceCache(disk, 0.1)
    for v in bad:
        for p, q in ((0, v), (v, 0)):
            with pytest.raises(DomainError, match="out of range"):
                initial_direction(disk, p, q, 0.1, cache)
            with pytest.raises(DomainError, match="out of range"):
                initial_direction(disk, p, q, 0.1)


@pytest.mark.parametrize("cache_of, h", [
    (lambda disk: DistanceCache(cone_disk(5.0, 1.0, 0.2), 0.2), 0.2),
    (lambda disk: DistanceCache(disk, 0.3), 0.1),
], ids=["another_surface", "another_spacing"])
def test_initial_direction_rejects_a_foreign_cache(cache_of, h):
    disk = flat_disk(1.0, 0.2)
    cache = cache_of(disk)
    for p, q in ((0, 7), (3, 20), (12, 1)):
        with pytest.raises(DomainError, match="distance cache"):
            initial_direction(disk, p, q, h, cache)


def test_initial_direction_spans_the_boundary_arc():
    # at a boundary vertex the directions run over [0, cone angle], from one
    # rim edge to the other; the far rim edge is not wrapped back to 0
    disk = flat_disk(1.0, 0.1)
    p, rim = 304, [303, 305]
    assert disk.boundary_vertex[[p] + rim].all()
    assert disk.cone_angle[p] == pytest.approx(3.0419, abs=1e-4)
    angs = sorted(initial_direction(disk, p, q, 0.05) for q in rim)
    assert angs[0] == 0.0
    assert angs[1] == pytest.approx(disk.cone_angle[p], abs=1e-12)


def first_segment_azimuth(surf, graph, p, node):
    """Azimuth at p of the segment to a graph node, from the embedding of a
    flat surface or, at the apex of a cone_disk, from its cone coordinates."""
    V = surf.n_vertices
    if surf.embedding is not None:
        xy = surf.embedding
        x, y = graph.node_values(xy[:, 0])[node], graph.node_values(xy[:, 1])[node]
        return math.atan2(y - xy[p, 1], x - xy[p, 0])
    assert p == 0
    phi = surf.cone_coords[:, 1]
    if node < V:
        return phi[node]
    a, b = surf.edges[graph.steiner_edge[node - V]]
    t = graph.steiner_frac[node - V]
    if a == p:
        return phi[b]
    # unroll face (p, a, b): b lies dphi past a, both on the first ring
    theta = surf.cone_angle[p]
    dphi = (phi[b] - phi[a] + theta / 2) % theta - theta / 2
    return phi[a] + math.atan2(t * math.sin(dphi), 1 - t + t * math.cos(dphi))


@pytest.mark.parametrize("make, sources", [
    (lambda: flat_disk(1.0, 0.1), [0, 40, 150, 250]),
    (lambda: cone_disk(math.pi / 2, 1.0, 0.1), [0]),
    (lambda: cone_disk(math.pi, 1.0, 0.1), [0]),
    (lambda: cone_disk(2 * math.pi, 1.0, 0.1), [0]),
], ids=["flat_disk", "cone_half_pi", "cone_pi", "cone_two_pi"])
def test_initial_direction_is_first_segment_azimuth(make, sources):
    # the coordinate is the azimuth of the path's first segment plus one
    # constant, mod the cone angle, in the sense the walk turns (+1 or -1)
    surf = make()
    h = 0.4 * surf.mesh_h
    cache = DistanceCache(surf, h)
    graph = surf.graph(h)
    for p in sources:
        assert not surf.boundary_vertex[p]
        period = surf.cone_angle[p]
        fld = cache.field(p)
        targets = [q for q in range(surf.n_vertices) if q != p]
        got = np.array([initial_direction(surf, p, q, h, cache) for q in targets])
        az = np.array([first_segment_azimuth(surf, graph, p, trace_shortest_path(fld, q)[0][1])
                       for q in targets])
        spread = []
        for sense in (1, -1):
            d = got - sense * az
            spread.append(np.abs((d - d[0] + period / 2) % period - period / 2).max())
        assert min(spread) <= 1e-12


def test_toponogov_flat_torus():
    torus = flat_torus(1.0, 1 / 12)
    cache = DistanceCache(torus, 1 / 24)
    pool = RNG.choice(torus.n_vertices, size=12, replace=False)
    count = 0
    for i in range(0, 12, 4):
        p, a, b, c = (int(v) for v in pool[i : i + 4])
        assert toponogov_check(torus, cache, (p, a, b, c), 0.0, 3 * torus.mesh_h)
        count += 1
    assert count == 3


def test_toponogov_icosphere():
    ico = icosphere(2)
    cache = DistanceCache(ico, 0.05)
    pool = [int(v) for v in RNG.choice(ico.n_vertices, size=8, replace=False)]
    checked = 0
    for p in pool[:2]:
        for quad in [(p, pool[2], pool[3], pool[4]), (p, pool[5], pool[6], pool[7])]:
            try:
                ok = toponogov_check(ico, cache, quad, 1.0, 3 * ico.mesh_h)
            except DomainError:
                continue  # perimeter constraint rejected the quadruple
            assert ok
            checked += 1
    assert checked >= 1


def test_toponogov_rejects_a_cache_of_another_surface():
    torus, other = flat_torus(1.0, 1 / 12), flat_torus(1.0, 1 / 12)
    with pytest.raises(DomainError):
        toponogov_check(torus, DistanceCache(other, 1 / 24), (0, 1, 2, 3), 0.0, 1.0)


def test_toponogov_rejects_non_vertices():
    disk, bad = non_vertices()
    cache = DistanceCache(disk, 0.1)
    for v in bad:
        for i in range(4):
            quad = [0, 1, 2, 3]
            quad[i] = v
            with pytest.raises(DomainError, match="out of range"):
                toponogov_check(disk, cache, tuple(quad), 0.0, 0.1)


def test_toponogov_reads_one_sweep_and_stores_nothing():
    # the verdicts of three full distance fields, around a saddle vertex
    saddle = cone_disk(2 * math.pi + 1.2, 1.0, 0.1)
    cache = DistanceCache(saddle, 0.02)
    sweeps = []
    vertex_block = cache.vertex_block
    cache.vertex_block = lambda sources: sweeps.append(sources) or vertex_block(sources)
    rng = np.random.default_rng(5)
    verdicts = set()
    for k in range(12):
        p, a, b, c = (int(v) for v in 1 + rng.choice(saddle.n_vertices - 1, size=4, replace=False))
        p = 0 if k % 2 else p  # the apex
        dp, da, db = (distance_field(saddle, v, 0.02).vertex_dist for v in (p, a, b))
        total = (comparison_angle(0.0, da[b], dp[a], dp[b])
                 + comparison_angle(0.0, db[c], dp[b], dp[c])
                 + comparison_angle(0.0, da[c], dp[c], dp[a]))
        verdict = toponogov_check(saddle, cache, (p, a, b, c), 0.0, 1e-3)
        assert verdict == (total <= 2 * math.pi + 1e-3)
        verdicts.add(verdict)
    assert verdicts == {True, False}
    assert len(sweeps) == 12
    assert cache._fields == {}


def test_toponogov_infinite_distance_is_unreachable(monkeypatch):
    disk = flat_disk(1.0, 0.3)
    cache = DistanceCache(disk, 0.1)
    block = cache.vertex_block([0, 1, 2])
    block[2, 3] = np.inf
    monkeypatch.setattr(cache, "vertex_block", lambda sources: block)
    with pytest.raises(UnreachableError):
        toponogov_check(disk, cache, (0, 1, 2, 3), 0.0, 0.1)


def test_toponogov_saddle_vertex_fails_kappa0():
    # gluing with cone angle > 2pi: some quadruple near the vertex violates
    # the kappa = 0 quadruple condition
    theta = 2 * math.pi + 1.2
    saddle = cone_disk(theta, 1.0, 0.1)
    cache = DistanceCache(saddle, 0.02)
    r = saddle.cone_coords[:, 0]
    ring = np.flatnonzero(np.abs(r - 0.3) < 0.05)
    phis = saddle.cone_coords[ring, 1]
    order = np.argsort(phis)
    ring = ring[order]
    # three points roughly equally spaced around the apex
    thirds = [int(ring[int(len(ring) * f)]) for f in (0.0, 0.34, 0.67)]
    ok = toponogov_check(saddle, cache, (0, *thirds), 0.0, 1e-3)
    assert not ok


@pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -0.1])
def test_steiner_spacing_must_be_finite_and_positive(h):
    disk = flat_disk(1.0, 0.2)
    with pytest.raises(DomainError):
        disk.graph(h)
    with pytest.raises(DomainError):
        DistanceCache(disk, h).field(0)


def test_off_roundtrip_flat(tmp_path):
    disk = flat_disk(1.0, 0.2)
    path = tmp_path / "disk.off"
    save_off(disk, path)
    back = load_off(path)
    assert back.n_vertices == disk.n_vertices
    assert back.n_faces == disk.n_faces
    assert back.face_area.sum() == pytest.approx(disk.face_area.sum(), rel=1e-12)


def line_save_off(space, path):
    """Reference writer: one formatted write per vertex, face and edge."""
    V = space.n_vertices
    emb = space.embedding
    if emb is None:
        coords = np.zeros((V, 3))
    elif emb.shape[1] == 2:
        coords = np.c_[emb, np.zeros(V)]
    else:
        coords = emb
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{V} {space.n_faces} 0\n")
        for row in coords:
            fh.write(f"{row[0]:.17g} {row[1]:.17g} {row[2]:.17g}\n")
        for a, b, c in space.faces:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write("#lengths\n")
        for e, (i, j) in enumerate(space.edges):
            fh.write(f"{i} {j} {space.edge_lengths[e]:.17g}\n")


OFF_GENERATORS = pytest.mark.parametrize("make", [
    lambda: cone_disk(2 * math.pi + 1.2, 1.0, 0.1),
    lambda: flat_disk(1.0, 0.1),
    lambda: flat_torus(1.0, 0.1),
    lambda: icosphere(3),
], ids=["cone_disk", "flat_disk", "flat_torus", "icosphere"])


@OFF_GENERATORS
def test_save_off_matches_line_writer(make, tmp_path):
    surf = make()
    save_off(surf, tmp_path / "block.off")
    line_save_off(surf, tmp_path / "line.off")
    assert (tmp_path / "block.off").read_bytes() == (tmp_path / "line.off").read_bytes()


@OFF_GENERATORS
def test_off_roundtrip_is_bit_identical(make, tmp_path):
    surf = make()
    save_off(surf, tmp_path / "s.off")
    back = load_off(tmp_path / "s.off")
    assert np.array_equal(back.faces, surf.faces)
    assert np.array_equal(back.edges, surf.edges)
    assert np.array_equal(back.edge_lengths, surf.edge_lengths)
    emb = surf.embedding
    if emb is None:
        assert back.embedding is None
    else:  # written padded to 3D
        assert np.array_equal(back.embedding, np.c_[emb, np.zeros((len(emb), 3 - emb.shape[1]))])


def test_off_rejects_bad_lengths(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text(
        "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n#lengths\n0 1 nan\n"
    )
    with pytest.raises(MeshFormatError, match="bad.off:8"):
        load_off(path)
    path.write_text(
        "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n#lengths\n0 1 -2.0\n"
    )
    with pytest.raises(MeshFormatError, match="invalid edge length"):
        load_off(path)


def test_off_rejects_malformed_header(tmp_path):
    path = tmp_path / "h.off"
    path.write_text("FOO\n1 0 0\n")
    with pytest.raises(MeshFormatError, match="OFF header"):
        load_off(path)


def test_off_lengths_trailer_overrides(tmp_path):
    # a right triangle whose trailer stretches one leg
    path = tmp_path / "tri.off"
    path.write_text(
        "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        "#lengths\n0 1 1.5\n"
    )
    surf = load_off(path)
    assert surf.edge_lengths[edge_id(surf, 0, 1)] == 1.5


def test_unreachable_error():
    disk = flat_disk(1.0, 0.3)
    fld = distance_field(disk, 0, 0.1)
    with pytest.raises(UnreachableError):
        # out-of-range vertex id handled upstream; emulate unreachable via inf
        fld.node_dist[1] = np.inf
        trace_shortest_path(fld, 1)


def unit_edges(faces):
    return table({tuple(sorted((f[k], f[(k + 1) % 3]))): 1.0 for f in faces for k in range(3)})


def test_build_surface_rejects_pinched_vertex():
    # a strip of four unit equilateral triangles whose two ends share
    # vertex 0: the faces stay edge-connected, the corners at 0 form two fans
    faces = [(0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 0, 4)]
    with pytest.raises(InconsistentGluingError, match="vertex 0 is pinched"):
        build_surface(faces, unit_edges(faces))
    # the same strip with distinct end vertices is a valid disk
    faces[-1] = (2, 5, 4)
    assert build_surface(faces, unit_edges(faces)).boundary_vertex.all()


@pytest.mark.parametrize("make", [
    lambda: flat_disk(1.0, 0.2),
    lambda: cone_disk(3 * math.pi / 2, 1.0, 0.2),
])
def test_boundary_vertices_have_two_boundary_edges(make):
    surf = make()
    ends = np.bincount(surf.edges[surf.boundary_edges].ravel(), minlength=surf.n_vertices)
    assert np.all(ends[surf.boundary_vertex] == 2)
    assert np.all(ends[~surf.boundary_vertex] == 0)


def test_off_reports_line_of_face_with_wrong_token_count(tmp_path):
    path = tmp_path / "short.off"
    path.write_text(
        "OFF\n# four corners\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n\n"
        "3 0 1 2\n3 0 2\n"
    )
    with pytest.raises(MeshFormatError, match=r"short\.off:10: face line must be '3 i j k'"):
        load_off(path)


def test_off_reports_first_bad_line(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text(
        "OFF\n3 2 0\n0 0 0\n1 0 0\n0 x 0\n3 0 1 2\n3 0 1\n"
    )
    with pytest.raises(MeshFormatError, match=r"bad\.off:5: bad vertex coordinate"):
        load_off(path)
    path.write_text(
        "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n3 0 1\n"
    )
    with pytest.raises(MeshFormatError, match=r"bad\.off:6: face index out of range"):
        load_off(path)
    path.write_text(
        "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n3 0 1 7\n"
    )
    with pytest.raises(MeshFormatError, match=r"bad\.off:6: face line must be '3 i j k'"):
        load_off(path)


TRIANGLE_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
TRIANGLE_LENGTHS = TRIANGLE_OFF + "#lengths\n"


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "expected OFF header"),
    ("# made by hand\nNOFF\n3 1 0\n", 2, "expected OFF header"),
    ("OFF\n", 1, "missing counts line"),
    ("OFF\n# no counts\n\n", 3, "missing counts line"),
    ("OFF\n3 1\n", 2, "counts line must be 'V F 0'"),
    ("OFF\n3 x 0\n", 2, "counts must be integers"),
    ("OFF\n3.0 1 0\n", 2, "counts must be integers"),
    ("OFF\n3 -1 0\n", 2, "counts must be nonnegative"),
    ("OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n", 4, "vertex line must have 3 coordinates"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 inf 0\n3 0 1 2\n", 5, "vertex coordinate is not finite"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n", 4, "expected 3 vertex lines"),
    ("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 6, "vertex line must have 3 coordinates"),
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 6, "expected 2 face lines"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n", 6, "face line must be '3 i j k'"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2.0\n", 6, "bad face index"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n", 6, "face index out of range"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 -1 2\n", 6, "face index out of range"),
    (TRIANGLE_OFF + "9 9 9\n", 7, "unexpected trailing content: '9 9 9'"),
    (TRIANGLE_LENGTHS + "0 1\n", 8, "length line must be 'i j L'"),
    (TRIANGLE_LENGTHS + "x 1\n", 8, "length line must be 'i j L'"),
    (TRIANGLE_LENGTHS + "0.0 1 1.5\n", 8, "bad length record"),
    (TRIANGLE_LENGTHS + "0 3 1.5\n", 8, "length record index out of range"),
    (TRIANGLE_LENGTHS + "0 1 nan\n", 8, "invalid edge length nan"),
    (TRIANGLE_LENGTHS + "0 1 -1\n", 8, "invalid edge length -1.0"),
    (TRIANGLE_LENGTHS + "0 1 x\n", 8, "bad length record"),
    (TRIANGLE_LENGTHS + "0 3 -1\n", 8, "invalid edge length -1.0"),
    (TRIANGLE_LENGTHS + "0 1 1\n# note\n1 2 1.5\n0 2 0\n", 11, "invalid edge length 0.0"),
    (TRIANGLE_LENGTHS + "0 1 inf\n", 8, "invalid edge length inf"),
    ("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n", 6, "vertex is in no face"),
])
def test_off_error_names_file_and_line(text, line, message, tmp_path):
    path = tmp_path / "m.off"
    path.write_text(text)
    with pytest.raises(MeshFormatError) as err:
        load_off(path)
    assert str(err.value) == f"{path}:{line}: {message}"


def test_off_integer_overflow_is_a_format_error(tmp_path):
    path = tmp_path / "m.off"
    big = "99999999999999999999"
    path.write_text(f"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 {big}\n")
    with pytest.raises(MeshFormatError, match=r"m\.off:6: bad face index"):
        load_off(path)
    path.write_text(TRIANGLE_LENGTHS + f"0 {big} 1.0\n")
    with pytest.raises(MeshFormatError, match=r"m\.off:8: bad length record"):
        load_off(path)


@pytest.mark.parametrize("text", [
    "# a triangle\n\nOFF\n  # counts follow\n3 1 0\n0 0 0\n\n1 0 0\n0 1 0\n"
    "3 0 1 2\n#lengths\n# legs\n0 1 1.5\n",
    "OFF\r\n3 1 0\r\n0 0 0\r\n1 0 0\r\n0 1 0\r\n3 0 1 2\r\n#lengths\r\n0 1 1.5\r\n",
    "\tOFF \n 3  1  0\n0\t0 0\n1 0 0 \n0 1 0\n3 0 1 2\n  #lengths  \n0 1 1.5",
], ids=["comments_and_blanks", "crlf", "whitespace"])
def test_off_accepts_comments_blank_lines_and_crlf(text, tmp_path):
    plain = tmp_path / "plain.off"
    plain.write_text(TRIANGLE_LENGTHS + "0 1 1.5\n")
    path = tmp_path / "m.off"
    path.write_bytes(text.encode())
    surf, ref = load_off(path), load_off(plain)
    assert np.array_equal(surf.faces, ref.faces)
    assert np.array_equal(surf.edge_lengths, ref.edge_lengths)
    assert np.array_equal(surf.embedding, ref.embedding)
    assert surf.edge_lengths[edge_id(surf, 0, 1)] == 1.5


def test_off_duplicate_length_records(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text(TRIANGLE_LENGTHS + "0 1 1.3\n1 0 1.3\n")
    surf = load_off(path)
    assert surf.edge_lengths[edge_id(surf, 0, 1)] == 1.3
    path.write_text(TRIANGLE_LENGTHS + "0 1 1.2\n1 0 1.3\n")
    with pytest.raises(InconsistentGluingError, match=r"edge \(0, 1\) declared with lengths 1.2 and 1.3"):
        load_off(path)


def test_off_rejects_length_record_for_a_non_edge(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text(
        "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n"
        "#lengths\n0 1 1.5\n0 3 1.0\n"
    )
    with pytest.raises(MeshFormatError, match=r"tri\.off:10: length record names no face edge"):
        load_off(path)


def test_off_rejects_bytes_that_are_not_utf8(tmp_path):
    # the bad byte sits in a comment, which is still part of the text
    path = tmp_path / "m.off"
    path.write_bytes(b"OFF\n# caf\xe9\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(MeshFormatError) as err:
        load_off(path)
    assert str(err.value) == f"{path}:2: byte 0xe9 is not UTF-8"
    path.write_bytes(b"OFF\r\n3 1 0\r\n0 0 0\r\n1 0 0\r\n0 1 \xff\r\n3 0 1 2\r\n")
    with pytest.raises(MeshFormatError) as err:
        load_off(path)
    assert str(err.value) == f"{path}:5: byte 0xff is not UTF-8"


@pytest.mark.parametrize("text, line", [
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 0 2\n", 6),
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 2 1 2\n", 7),
])
def test_off_rejects_face_that_repeats_a_vertex(text, line, tmp_path):
    path = tmp_path / "m.off"
    path.write_text(text)
    with pytest.raises(MeshFormatError) as err:
        load_off(path)
    assert str(err.value) == f"{path}:{line}: face repeats a vertex"


def traced_peak(call):
    """call() and the tracemalloc peak it reached above the memory before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_load_off_peak_memory(tmp_path):
    # the traced peak was 24.5x the file when every line became a list of
    # str tokens, and is 8.1x with numpy's text reader
    path = tmp_path / "disk.off"
    save_off(flat_disk(1.0, 0.04), path)
    surf, peak = traced_peak(lambda: load_off(path))
    assert surf.n_vertices == 2252
    assert peak <= 10 * path.stat().st_size


@pytest.mark.parametrize("block", ["vertex", "face", "record"])
def test_load_off_finds_a_bad_last_line_by_bisection(block, monkeypatch, tmp_path):
    path = tmp_path / "disk.off"
    save_off(flat_disk(1.0, 0.05), path)
    lines = path.read_text().split("\n")[:-1]
    nv, nf = (int(t) for t in lines[1].split()[:2])
    last, bad, message = {
        "vertex": (2 + nv, "0 x 0", "bad vertex coordinate"),
        "face": (2 + nv + nf, "3 0 1", "face line must be '3 i j k'"),
        "record": (len(lines), "0 1 -1", "invalid edge length -1.0"),
    }[block]
    lines[last - 1] = bad
    path.write_text("\n".join(lines) + "\n")
    calls = []
    read_rows = alexlab.space._read_rows
    monkeypatch.setattr(alexlab.space, "_read_rows", lambda *a: calls.append(1) or read_rows(*a))
    with pytest.raises(MeshFormatError, match=rf"disk\.off:{last}: {re.escape(message)}"):
        load_off(path)
    assert len(calls) <= 2 * math.ceil(math.log2(len(lines))) + 2


# ---------------------------------------------------------------------------
# differential test: load_off against a line-by-line reader
# ---------------------------------------------------------------------------


def line_load_off(path):
    """Reference reader: str.split tokens of every line, then Python's int and
    float on one line at a time."""

    def fail(num, msg):
        raise MeshFormatError(f"{path}:{num}: {msg}")

    def numbers(kinds, tokens, num, msg):
        try:
            vals = [kind(t) for kind, t in zip(kinds, tokens)]
        except ValueError:
            fail(num, msg)
        if any(kind is int and not -2**63 <= v < 2**63 for kind, v in zip(kinds, vals)):
            fail(num, msg)
        return vals

    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    content = [(num, line.split()) for num, line in enumerate(lines, 1)]
    content = [(num, t) for num, t in content if t and (t[0][0] != "#" or t == ["#lengths"])]
    if not content or content[0][1] != ["OFF"]:
        fail(content[0][0] if content else 1, "expected OFF header")
    if len(content) < 2:
        fail(len(lines), "missing counts line")
    num, t = content[1]
    if len(t) != 3:
        fail(num, "counts line must be 'V F 0'")
    nv, nf = numbers((int, int), t, num, "counts must be integers")
    if nv < 0 or nf < 0:
        fail(num, "counts must be nonnegative")
    coords = []
    for num, t in content[2:2 + nv]:
        if len(t) != 3:
            fail(num, "vertex line must have 3 coordinates")
        coords.append(numbers((float,) * 3, t, num, "bad vertex coordinate"))
        if not np.isfinite(coords[-1]).all():
            fail(num, "vertex coordinate is not finite")
    if len(coords) < nv:
        fail(len(lines), f"expected {nv} vertex lines")
    faces = []
    for num, t in content[2 + nv:2 + nv + nf]:
        if len(t) != 4 or t[0] != "3":
            fail(num, "face line must be '3 i j k'")
        f = numbers((int,) * 3, t[1:], num, "bad face index")
        if not all(0 <= i < nv for i in f):
            fail(num, "face index out of range")
        if len(set(f)) < 3:
            fail(num, "face repeats a vertex")
        faces.append(f)
    if len(faces) < nf:
        fail(len(lines), f"expected {nf} face lines")
    records = content[2 + nv + nf:]
    if records and records[0][1] != ["#lengths"]:
        num = records[0][0]
        fail(num, f"unexpected trailing content: {lines[num - 1].strip()!r}")
    declared = {}  # (lo, hi) -> [(L, line number)] in file order
    for num, t in records[1:]:
        if len(t) != 3:
            fail(num, "length line must be 'i j L'")
        i, j, L = numbers((int, int, float), t, num, "bad length record")
        if not (math.isfinite(L) and L > 0):
            fail(num, f"invalid edge length {L}")
        if not (0 <= i < nv and 0 <= j < nv):
            fail(num, "length record index out of range")
        declared.setdefault((min(i, j), max(i, j)), []).append((L, num))

    def lengths(u, v):
        sides = {(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())}
        missing = [num for key, recs in declared.items() if key not in sides for _, num in recs]
        if missing:
            fail(min(missing), "length record names no face edge")
        for (lo, hi), recs in sorted(declared.items()):
            for (a, _), (b, _) in zip(recs, recs[1:]):
                if abs(a - b) > 1e-9 * max(a, b):
                    raise InconsistentGluingError(
                        f"edge ({lo}, {hi}) declared with lengths {a} and {b}")
        return [declared[min(a, b), max(a, b)][-1][0] if (min(a, b), max(a, b)) in declared
                else math.sqrt(sum((p - q) ** 2 for p, q in zip(coords[a], coords[b])))
                for a, b in zip(u.tolist(), v.tolist())]

    embedding = np.array(coords, dtype=float).reshape(-1, 3)
    surf = build_surface(np.array(faces, dtype=np.int64).reshape(-1, 3), lengths,
                         embedding=embedding if np.any(embedding) else None)
    if surf.n_vertices < nv:
        fail(content[2 + surf.n_vertices][0], "vertex is in no face")
    return surf


def off_outcome(read, path):
    """The arrays of the surface `read` makes of a file, or its error."""
    try:
        surf = read(path)
    except AlexlabError as err:
        return type(err).__name__, str(err)
    arrays = surf.faces, surf.edges, surf.edge_lengths, surf.embedding
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays]


# two records, so that the records block has an inside too
TRIANGLE_FILE = TRIANGLE_LENGTHS + "0 1 1.5\n1 2 1.5\n"


def edited(line, old, new):
    """The triangle file with one token of line `line` (1-based) replaced."""
    rows = TRIANGLE_FILE.split("\n")
    tokens = rows[line - 1].split(" ")
    tokens[tokens.index(old)] = new
    rows[line - 1] = " ".join(tokens)
    return "\n".join(rows)


def inserted(line, text):
    """The triangle file with `text` inserted before line `line` (1-based)."""
    rows = TRIANGLE_FILE.split("\n")
    return "\n".join(rows[:line - 1] + [text] + rows[line - 1:])


TRIANGLE_EDITS = {
    "counts_plus": edited(2, "3", "+3"),
    "counts_zero_padded": edited(2, "3", "03"),
    "counts_float": edited(2, "3", "3.0"),
    "arity_plus": edited(6, "3", "+3"),
    "arity_zero_padded": edited(6, "3", "03"),
    "arity_float": edited(6, "3", "3.0"),
    "index_plus": edited(6, "1", "+1"),
    "index_zero_padded": edited(6, "1", "01"),
    "index_float": edited(6, "2", "2.0"),
    "record_index_float": edited(8, "1", "1.0"),
    "coordinate_plus": edited(4, "1", "+1"),
    "coordinate_zero_padded": edited(4, "1", "01"),
    "coordinate_float": edited(4, "1", "1.0"),
    "coordinate_inexact_side": edited(5, "0", "0.3"),
    "length_exponent": edited(8, "1.5", "15e-1"),
    "coordinate_nan": edited(5, "1", "nan"),
    "length_nan": edited(8, "1.5", "nan"),
    "coordinate_1e999": edited(3, "0", "1e999"),
    "length_1e999": edited(8, "1.5", "1e999"),
    "length_minus_1e999": edited(8, "1.5", "-1e999"),
    "record_4_tokens": TRIANGLE_FILE + "1 2 1.0 7\n",
    "vertex_4_tokens": edited(3, "0", "0 0"),
    "face_5_tokens": edited(6, "2", "2 2"),
    "tabs": TRIANGLE_FILE.replace(" ", "\t"),
    "trailing_spaces": TRIANGLE_FILE.replace("\n", "  \n"),
    "no_final_newline": TRIANGLE_FILE[:-1],
    "crlf": TRIANGLE_FILE.replace("\n", "\r\n"),
    "cr": TRIANGLE_FILE.replace("\n", "\r"),
    "marker_in_vertices": inserted(4, "#lengths"),
    "two_markers": inserted(9, "  #lengths"),
    "repeated_record": TRIANGLE_FILE + "1 0 1.5\n",
    "clashing_record": TRIANGLE_FILE + "1 0 1.25\n",
    "record_off_the_faces": TRIANGLE_FILE + "2 2 1.0\n",
    "marker_with_text": inserted(8, "#lengths 2"),
    **{f"comment_before_line_{n}": inserted(n, " # note") for n in range(1, 11)},
    **{f"blank_before_line_{n}": inserted(n, " \t") for n in range(1, 11)},
}
# grammar changes of the numpy reader, documented in load_off: '_' separators
# and non-ASCII digits, which Python's int and float read
NUMPY_GRAMMAR = {
    "counts_underscore": (edited(2, "3", "0_3"), 2, "counts must be integers"),
    "index_underscore": (edited(6, "2", "0_2"), 6, "bad face index"),
    "coordinate_underscore": (edited(4, "1", "1_0"), 4, "bad vertex coordinate"),
    "length_underscore": (edited(8, "1.5", "1_0"), 8, "bad length record"),
    "coordinate_arabic_digit": (edited(4, "1", "١"), 4, "bad vertex coordinate"),
}


@OFF_GENERATORS
def test_load_off_matches_line_reader_on_generators(make, tmp_path):
    path = tmp_path / "s.off"
    save_off(make(), path)
    assert off_outcome(load_off, path) == off_outcome(line_load_off, path)


@pytest.mark.parametrize("text", TRIANGLE_EDITS.values(), ids=TRIANGLE_EDITS.keys())
def test_load_off_matches_line_reader_on_edits(text, tmp_path):
    path = tmp_path / "m.off"
    path.write_bytes(text.encode())
    assert off_outcome(load_off, path) == off_outcome(line_load_off, path)


@pytest.mark.parametrize("text, line, message", NUMPY_GRAMMAR.values(), ids=NUMPY_GRAMMAR.keys())
def test_load_off_grammar_departs_from_python_numbers(text, line, message, tmp_path):
    path = tmp_path / "m.off"
    path.write_bytes(text.encode())
    assert off_outcome(load_off, path) == ("MeshFormatError", f"{path}:{line}: {message}")
    # the line reader's int and float take the token
    assert off_outcome(line_load_off, path)[0] != "MeshFormatError"


# ---------------------------------------------------------------------------
# differential test: the array Steiner build against the loop build
# ---------------------------------------------------------------------------


def loop_steiner_graph(surf, h):
    """Reference Steiner build: one edge, then one face side pair at a time.

    Returns (matrix, node count, (edge, index along edge) of each Steiner node).
    """
    V = surf.n_vertices
    edge_nodes, steiner = [], []
    next_id = V
    rows, cols, vals = [], [], []
    for e, (i, j) in enumerate(surf.edges):
        L = surf.edge_lengths[e]
        m = max(0, math.ceil(L / h) - 1)
        ids = [int(i)] + list(range(next_id, next_id + m)) + [int(j)]
        steiner += [(e, k) for k in range(1, m + 1)]
        next_id += m
        edge_nodes.append(np.asarray(ids, dtype=np.int64))
        seg = L / (m + 1)
        for a, b in zip(ids[:-1], ids[1:]):
            rows.append(a)
            cols.append(b)
            vals.append(seg)
    chunks_r = [np.asarray(rows, dtype=np.int64)]
    chunks_c = [np.asarray(cols, dtype=np.int64)]
    chunks_v = [np.asarray(vals, dtype=float)]
    charts = surf.charts()
    for f in range(surf.n_faces):
        loc = {int(surf.faces[f, t]): t for t in range(3)}
        side_pts = []
        for s in range(3):
            e = surf.face_edge[f, s]
            i, j = surf.edges[e]
            ids = edge_nodes[e]
            fr = np.linspace(0.0, 1.0, len(ids))
            pi = charts[f, loc[int(i)]]
            pj = charts[f, loc[int(j)]]
            side_pts.append((ids, pi[None, :] + fr[:, None] * (pj - pi)[None, :]))
        for s in range(3):
            ids_a, pts_a = side_pts[s]
            for t in range(s + 1, 3):
                ids_b, pts_b = side_pts[t]
                d = np.linalg.norm(pts_a[:, None, :] - pts_b[None, :, :], axis=2)
                uu = np.broadcast_to(ids_a[:, None], d.shape).ravel()
                vv = np.broadcast_to(ids_b[None, :], d.shape).ravel()
                keep = uu != vv
                chunks_r.append(uu[keep])
                chunks_c.append(vv[keep])
                chunks_v.append(d.ravel()[keep])
    matrix = min_coo(np.concatenate(chunks_r), np.concatenate(chunks_c),
                     np.concatenate(chunks_v), next_id)
    return matrix, next_id, np.asarray(steiner, dtype=np.int64).reshape(-1, 2)


def min_coo(rows, cols, vals, n):
    """Symmetric csr adjacency keeping the minimum length over all duplicates."""
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    v = vals[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    group = np.cumsum(first) - 1
    mins = np.full(int(group[-1]) + 1 if len(group) else 0, np.inf)
    np.minimum.at(mins, group, v)
    ukey = key[first]
    ulo = ukey // n
    uhi = ukey % n
    rr = np.concatenate([ulo, uhi])
    cc = np.concatenate([uhi, ulo])
    vv = np.concatenate([mins, mins])
    return sparse.csr_matrix((vv, (rr, cc)), shape=(n, n))


def node_labels(surf, steiner):
    """Key of each node: its vertex id, or (edge endpoints, index along edge)."""
    V = surf.n_vertices
    e, k = steiner[:, 0], steiner[:, 1]
    i, j = surf.edges[e, 0], surf.edges[e, 1]
    return np.r_[np.arange(V), V + ((i * V + j) * (steiner[:, 1].max(initial=0) + 1) + k)]


def irregular_off_mesh(tmp_path):
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(7)
    g = np.linspace(0.0, 1.0, 6)
    xy = np.c_[np.repeat(g, 6), np.tile(g, 6)]
    xy[(xy > 0) & (xy < 1)] += rng.uniform(-0.06, 0.06, size=((xy > 0) & (xy < 1)).sum())
    faces = Delaunay(xy).simplices
    lines = ["OFF", f"{len(xy)} {len(faces)} 0"]
    lines += [f"{x:.17g} {y:.17g} 0" for x, y in xy]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    path = tmp_path / "irregular.off"
    path.write_text("\n".join(lines) + "\n")
    return load_off(path)


DIFFERENTIAL_MESHES = {
    "flat_disk": lambda tmp: flat_disk(1.0, 0.25),
    "cone_disk": lambda tmp: cone_disk(2 * math.pi + 1.2, 1.0, 0.25),
    "flat_torus": lambda tmp: flat_torus(1.0, 1 / 6),
    "icosphere": lambda tmp: icosphere(1),
    "load_off": irregular_off_mesh,
    # two faces on the same three vertices: the one surface whose faces meet
    # the same pair of Steiner points twice
    "doubled_triangle": lambda tmp: build_surface(
        [[0, 1, 2], [0, 2, 1]], table({(0, 1): 1.0, (1, 2): 1.2, (0, 2): 0.9})),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_MESHES))
@pytest.mark.parametrize("spacing", [0.3, 0.9])
def test_steiner_graph_matches_loop_reference(name, spacing, tmp_path):
    surf = DIFFERENTIAL_MESHES[name](tmp_path)
    h = spacing * surf.mesh_h
    ref, n_ref, steiner_ref = loop_steiner_graph(surf, h)
    g = surf.graph(h)
    assert g.n_nodes == n_ref
    # relabel both graphs' Steiner ids by (edge endpoints, index along edge)
    V = surf.n_vertices
    first = np.r_[V, V + np.cumsum(np.bincount(g.steiner_edge, minlength=len(surf.edges)))]
    along = np.arange(V, g.n_nodes) - first[g.steiner_edge] + 1
    new_labels = node_labels(surf, np.c_[g.steiner_edge, along])
    ref_labels = node_labels(surf, steiner_ref)
    assert np.array_equal(np.sort(new_labels), np.sort(ref_labels))
    to_new = np.empty(n_ref, dtype=np.int64)
    to_new[np.argsort(ref_labels)] = np.argsort(new_labels)
    coo_ref, coo_new = ref.tocoo(), g.matrix.tocoo()
    r, c = to_new[coo_ref.row], to_new[coo_ref.col]
    o_ref = np.lexsort((c, r))
    o_new = np.lexsort((coo_new.col, coo_new.row))
    assert np.array_equal(r[o_ref], coo_new.row[o_new])
    assert np.array_equal(c[o_ref], coo_new.col[o_new])
    assert np.array_equal(coo_ref.data[o_ref], coo_new.data[o_new])  # bit for bit
    d_ref = csgraph.dijkstra(ref, directed=False, indices=np.arange(V))[:, :V]
    d_new = csgraph.dijkstra(g.matrix, directed=False, indices=np.arange(V))[:, :V]
    assert np.array_equal(d_ref, d_new)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_MESHES))
@pytest.mark.parametrize("spacing", [0.3, 0.9])
def test_graph_matrix_is_exactly_symmetric(name, spacing, tmp_path):
    # distance_field and vertex_block search it with directed=True
    surf = DIFFERENTIAL_MESHES[name](tmp_path)
    m = surf.graph(spacing).matrix
    assert (m != m.T).nnz == 0
    fld = distance_field(surf, 0, spacing)
    dist, pred = csgraph.dijkstra(m, directed=False, indices=0, return_predecessors=True)
    assert np.array_equal(fld.node_dist, dist)
    assert np.array_equal(fld.predecessors, pred)


def relabelled(surf, perm):
    """The surface rebuilt through build_surface with vertex v renamed perm[v]."""
    V = surf.n_vertices
    old = np.argsort(perm)
    keys = surf.edges[:, 0] * V + surf.edges[:, 1]  # sorted, as the edges are

    def lengths(u, v):
        a, b = old[u], old[v]
        return surf.edge_lengths[np.searchsorted(keys, np.minimum(a, b) * V + np.maximum(a, b))]

    embedding = None if surf.embedding is None else surf.embedding[old]
    return build_surface(perm[surf.faces], lengths, surf.declared_k, embedding, surf.mesh_h)


RELABEL_MESHES = {
    "flat_disk": lambda: flat_disk(1.0, 0.2),
    "cone_disk": lambda: cone_disk(3 * math.pi, 1.0, 0.25),
    "flat_torus": lambda: flat_torus(1.0, 1 / 8),
    "icosphere": lambda: icosphere(2),
}


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(RELABEL_MESHES)), spacing=st.sampled_from([0.4, 1.0]),
       data=st.data())
def test_graph_does_not_depend_on_vertex_labels(name, spacing, data):
    # relabelling turns edges around, so Steiner points are laid out from
    # the other end and lengths may move in the last bits, but no arc may
    # appear or vanish
    surf = RELABEL_MESHES[name]()
    perm = np.asarray(data.draw(st.permutations(range(surf.n_vertices))))
    other = relabelled(surf, perm)
    h = spacing * surf.mesh_h
    g, g_other = surf.graph(h), other.graph(h)
    assert g_other.n_nodes == g.n_nodes
    assert g_other.matrix.nnz == g.matrix.nnz
    src = data.draw(st.integers(0, surf.n_vertices - 1))
    dist = distance_field(surf, src, h).vertex_dist
    dist_other = distance_field(other, int(perm[src]), h).vertex_dist[perm]
    np.testing.assert_array_max_ulp(dist, dist_other, maxulp=4)


def test_surface_and_graph_are_freed_by_reference_count():
    # the graph holds no reference back to its surface, so no cycle waits
    # for the collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        surf = flat_disk(1.0, 0.25)
        cache = DistanceCache(surf, 0.1)
        surf.graph(0.1)
        cache.field(0)
        alive = weakref.ref(surf)
        del surf, cache
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("make, spacing, nodes, pairs", [
    # the benchmark's torus at its spacing
    (lambda: flat_torus(math.sqrt(math.pi), 0.04), lambda surf: 0.016, 15488, 129712),
    # at spacing mesh_h most sides carry at most one Steiner point, so the
    # per-face arrays weigh most against the CSR
    (lambda: flat_disk(1.0, 0.05), lambda surf: surf.mesh_h, 2931, 11866),
], ids=["torus_0.016", "disk_mesh_h"])
def test_graph_build_peak_memory(make, spacing, nodes, pairs):
    # the arrays a build holds at once, the CSR it returns included, stay
    # within 2 times that CSR
    surf = make()
    m, peak = traced_peak(lambda: surf.graph(spacing(surf)).matrix)
    assert m.shape == (nodes, nodes) and m.nnz == 2 * pairs
    assert peak <= 2 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


# ---------------------------------------------------------------------------
# differential test: the array walk of initial_direction against the dict walk
# ---------------------------------------------------------------------------


def loop_initial_direction(surf, graph, p, node):
    """Reference direction at p toward the first path node `node`.

    Walks the corners at p with dict tables (edge -> corners, edge ->
    angle, face -> base angle) and takes every coordinate mod the fan
    total.  Returns (direction, fan total).
    """
    corners = np.flatnonzero(surf.faces.ravel() == p)
    faces, corner = np.divmod(corners, 3)
    other = np.sort([(corner + 1) % 3, (corner + 2) % 3], axis=0).T
    sides = surf.face_edge[faces[:, None], other]
    by_edge = {}
    for k, pair in enumerate(sides.tolist()):
        for e in pair:
            by_edge.setdefault(e, []).append(k)
    boundary = [e for e in by_edge if surf.edge_faces[e, 1] < 0]
    start_edge = boundary[-1] if boundary else min(by_edge)
    edge_angle = {start_edge: 0.0}
    corner_base = {}
    used = set()
    cur_edge, total = start_edge, 0.0
    while True:
        k = next((k for k in by_edge[cur_edge] if k not in used), None)
        if k is None:
            break
        used.add(k)
        f = int(faces[k])
        corner_base[f] = (total, cur_edge)
        a, b = sides[k]
        exit_edge = int(b if a == cur_edge else a)
        total += surf.corner_angle[f, corner[k]]
        edge_angle.setdefault(exit_edge, total)
        cur_edge = exit_edge
    V = surf.n_vertices
    if node < V:
        return edge_angle[edge_id(surf, p, node)] % total, total
    e, t = int(graph.steiner_edge[node - V]), float(graph.steiner_frac[node - V])
    a, b = surf.edges[e]
    if a == p or b == p:
        return edge_angle[e] % total, total
    fs = surf.edge_faces[e]
    f = int(fs[(fs >= 0) & (surf.faces[fs] == p).any(axis=1)][0])
    charts = surf.charts()
    loc = {int(surf.faces[f, s]): s for s in range(3)}
    x = charts[f, loc[int(a)]] + t * (charts[f, loc[int(b)]] - charts[f, loc[int(a)]])
    base, enter_edge = corner_base[f]
    u, v = surf.edges[enter_edge]
    vec_edge = charts[f, loc[int(v) if int(u) == p else int(u)]] - charts[f, loc[p]]
    vec_seg = x - charts[f, loc[p]]
    cosang = np.dot(vec_edge, vec_seg) / (np.linalg.norm(vec_edge) * np.linalg.norm(vec_seg))
    alpha = math.acos(min(1.0, max(-1.0, float(cosang))))
    return (base + alpha) % total, total


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_MESHES))
def test_initial_direction_matches_loop_reference(name, tmp_path):
    surf = DIFFERENTIAL_MESHES[name](tmp_path)
    h = 0.3 * surf.mesh_h
    cache = DistanceCache(surf, h)
    graph = surf.graph(h)
    inner = np.flatnonzero(~surf.boundary_vertex)
    rim = np.flatnonzero(surf.boundary_vertex)
    sources = [int(v) for side in (inner, rim) for v in side[:: max(1, len(side) // 3)][:3]]
    far_edge = 0
    for p in sources:
        fld = cache.field(p)
        for q in range(surf.n_vertices):
            if q == p:
                continue
            got = initial_direction(surf, p, q, h, cache)
            want, total = loop_initial_direction(surf, graph, p, trace_shortest_path(fld, q)[0][1])
            if got != want:  # bit for bit, except along the far boundary edge:
                # the end of the arc, where the reference wraps to 0
                assert surf.boundary_vertex[p] and want == 0.0 and got == total
                far_edge += 1
    assert (far_edge > 0) == (len(rim) > 0)
