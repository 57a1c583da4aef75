import math

import numpy as np
import pytest

from alexlab.calculus import PLFunction, face_gradient, lip_field
from alexlab.exceptions import DomainError
from alexlab import hopflax as hopflax_mod
from alexlab import space as space_mod
from alexlab.hopflax import (
    PRUNE_PAD,
    descent_slope_field,
    footpoint_audit,
    hopf_lax,
    interior_margin_mask,
    semigroup_audit,
)
from alexlab.space import (
    DistanceCache,
    cone_disk,
    distance_field,
    flat_disk,
    flat_torus,
    trace_shortest_path,
)

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def disk():
    return flat_disk(1.0, 0.1)


@pytest.fixture(scope="module")
def cache(disk):
    return DistanceCache(disk, disk.mesh_h)


def test_constant_function_fixed_point(disk, cache):
    u = PLFunction(disk, np.full(disk.n_vertices, 2.5))
    res = hopf_lax(disk, cache, u, 0.3)
    assert np.abs(res.values - 2.5).max() == 0.0
    assert np.array_equal(res.foot, np.arange(disk.n_vertices))
    assert np.abs(res.foot_dist).max() == 0.0


def test_rejects_nonpositive_t(disk, cache):
    u = PLFunction(disk, np.zeros(disk.n_vertices))
    with pytest.raises(DomainError):
        hopf_lax(disk, cache, u, 0.0)


def test_value_never_exceeds_u(disk, cache):
    u = PLFunction(disk, RNG.normal(size=disk.n_vertices))
    res = hopf_lax(disk, cache, u, 0.2)
    assert np.all(res.values <= u.values + 1e-15)
    assert res.values.min() >= u.values.min() - 1e-15


def test_foot_point_identity_by_construction(disk, cache):
    u = PLFunction(disk, RNG.normal(size=disk.n_vertices))
    t = 0.15
    res = hopf_lax(disk, cache, u, t)
    recon = u.values[res.foot] + res.foot_dist**2 / (2 * t)
    assert np.abs(recon - res.values).max() <= 1e-14


def test_distance_cone_closed_form():
    disk = flat_disk(1.0, 0.05)
    fld = distance_field(disk, 0, 0.02)
    u = PLFunction(disk, fld.vertex_dist)
    cache = DistanceCache(disk, disk.mesh_h)
    t = 0.2
    res = hopf_lax(disk, cache, u, t)
    d = fld.vertex_dist
    closed = np.where(d >= t, d - t / 2, d * d / (2 * t))
    assert np.abs(res.values - closed).max() <= 0.05


def test_monotone_convergence_to_u(disk, cache):
    fld = distance_field(disk, 0, 0.05)
    u = PLFunction(disk, fld.vertex_dist)
    gaps = []
    for t in (0.4, 0.2, 0.1, 0.05):
        res = hopf_lax(disk, cache, u, t)
        gaps.append(np.abs(res.values - u.values).max())
    assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]


def test_order_preserving_exact(disk, cache):
    u = PLFunction(disk, RNG.normal(size=disk.n_vertices))
    v = PLFunction(disk, u.values + np.abs(RNG.normal(size=disk.n_vertices)))
    ru = hopf_lax(disk, cache, u, 0.3)
    rv = hopf_lax(disk, cache, v, 0.3)
    assert np.all(ru.values <= rv.values + 1e-14)


def test_constant_shift_equivariance(disk, cache):
    u = PLFunction(disk, RNG.normal(size=disk.n_vertices))
    shifted = PLFunction(disk, u.values + 5.0)
    r0 = hopf_lax(disk, cache, u, 0.25)
    r1 = hopf_lax(disk, cache, shifted, 0.25)
    assert np.abs(r1.values - r0.values - 5.0).max() <= 1e-12
    assert np.array_equal(r0.foot, r1.foot)


def test_pruning_correctness(disk, cache):
    # recomputing one node's minimum without pruning agrees exactly
    u = PLFunction(disk, RNG.normal(size=disk.n_vertices))
    t = 0.17
    res = hopf_lax(disk, cache, u, t)
    x = int(RNG.integers(disk.n_vertices))
    d = cache.vertex_block([x], limit=np.inf)[0]
    cand = u.values + d * d / (2 * t)
    best = int(np.argmin(cand))
    assert res.values[x] == pytest.approx(cand[best], abs=1e-15)
    assert res.foot[x] == best


def test_linear_function_foot_shift():
    disk = flat_disk(1.0, 0.05)
    cache = DistanceCache(disk, disk.mesh_h)
    u = PLFunction(disk, 1 + disk.embedding[:, 0])
    t = 0.1
    res = hopf_lax(disk, cache, u, t)
    fld = distance_field(disk, 0, 0.05)
    inner = fld.vertex_dist <= 0.6
    # interior: u_t = 1 + x - t/2 and the foot sits t against grad u
    xy = disk.embedding
    want = 1 + xy[inner, 0] - t / 2
    assert np.abs(res.values[inner] - want).max() <= 0.01
    assert np.abs(res.foot_dist[inner] - t).max() <= 0.03
    shift = xy[res.foot[inner]] - xy[inner]
    assert np.abs(shift[:, 0] + t).max() <= 0.03
    assert np.abs(shift[:, 1]).max() <= 0.03


def test_semiconcavity_along_geodesic():
    # second differences of u_t along a traced geodesic, minus those of the
    # frozen-foot parabola, are nonpositive up to tolerance
    disk = flat_disk(1.0, 0.05)
    cache = DistanceCache(disk, disk.mesh_h)
    fld = distance_field(disk, 0, 0.02)
    u = PLFunction(disk, fld.vertex_dist)
    t = 0.2
    res = hopf_lax(disk, cache, u, t)
    xy = disk.embedding
    a = int(np.argmin(np.linalg.norm(xy - [-0.5, 0.05], axis=1)))
    b = int(np.argmin(np.linalg.norm(xy - [0.5, 0.05], axis=1)))
    path_field = cache.field(a)
    nodes, arcs = trace_shortest_path(path_field, b)
    vals = disk.graph(cache.h).node_values(res.values)[nodes]
    keep = slice(1, -1)
    for m in range(2, len(nodes) - 2):
        s1 = arcs[m] - arcs[m - 1]
        s2 = arcs[m + 1] - arcs[m]
        if min(s1, s2) < 0.02:
            continue
        ys = int(nodes[m]) if nodes[m] < disk.n_vertices else None
        if ys is None:
            continue
        ystar = int(res.foot[ys])
        dfoot = cache.field(ystar).node_dist[nodes[m - 1 : m + 2]]
        para = dfoot**2 / (2 * t)
        d2u = vals[m - 1] - 2 * vals[m] + vals[m + 1]
        d2p = para[0] - 2 * para[1] + para[2]
        step = 0.5 * (s1 + s2)
        assert d2u - d2p <= 0.5 * step**2 + 5e-3


def test_semigroup_audit_linear():
    disk = flat_disk(1.0, 0.05)
    cache = DistanceCache(disk, disk.mesh_h)
    u = PLFunction(disk, 1 + disk.embedding[:, 0])
    rep = semigroup_audit(disk, cache, u, [0.05, 0.1, 0.2])
    assert rep.passed
    assert rep.fitted["max_derivative_error"] <= 0.05


def test_semigroup_audit_constant(disk, cache):
    u = PLFunction(disk, np.full(disk.n_vertices, 3.0))
    rep = semigroup_audit(disk, cache, u, [0.1, 0.2])
    assert rep.passed
    assert rep.fitted["max_derivative_error"] <= 1e-12


def test_semigroup_audit_distance_cone(disk, cache):
    # t above mesh resolution; the kink ring d = t dominates the error
    fld = distance_field(disk, 0, 0.05)
    u = PLFunction(disk, fld.vertex_dist)
    rep = semigroup_audit(disk, cache, u, [0.2, 0.3])
    # monotonicity and the decay bound hold; the derivative law holds to
    # 0.4, looser than the audit's h + (t_max - t_min) / 4 = 0.125
    assert rep.slacks[0] >= -1e-12
    assert rep.slacks[1] >= -1e-12
    assert rep.fitted["max_derivative_error"] <= 0.4 + 1e-12


@pytest.mark.parametrize("t_grid", [[0.1], [0.1, 0.1], [0.2, 0.1, 0.2]])
def test_semigroup_audit_needs_two_distinct_times(monkeypatch, disk, cache, t_grid):
    # the grid is rejected before anything is computed
    monkeypatch.setattr(hopflax_mod, "lip_field", None)
    monkeypatch.setattr(hopflax_mod, "hopf_lax", None)
    u = PLFunction(disk, 1.0 + disk.embedding @ [0.6, -0.5])
    with pytest.raises(DomainError, match="two distinct values"):
        semigroup_audit(disk, cache, u, t_grid)


def test_footpoint_audit_constant(disk, cache):
    u = PLFunction(disk, np.ones(disk.n_vertices))
    res = hopf_lax(disk, cache, u, 0.05)
    rep = footpoint_audit(disk, cache, res, u)
    assert rep.passed
    assert rep.fitted["max_identity_error"] <= 1e-12


def test_footpoint_audit_distance():
    disk = flat_disk(1.0, 0.05)
    cache = DistanceCache(disk, disk.mesh_h)
    fld = distance_field(disk, 0, 0.02)
    u = PLFunction(disk, fld.vertex_dist)
    res = hopf_lax(disk, cache, u, 0.2)
    rep = footpoint_audit(disk, cache, res, u)
    assert rep.passed
    assert rep.fitted["max_identity_error"] <= 0.05


def test_descent_slope_field(disk):
    fld = distance_field(disk, 0, 0.05)
    u = PLFunction(disk, fld.vertex_dist)
    desc = descent_slope_field(disk, u)
    assert desc.max() <= 1.0 + 1e-9
    assert desc[0] == 0.0  # the source only goes up


# -- reference: dense (chunk x V) sweeps per call, as before the ball cache --


def dense_hopf_lax(space, cache, u, t, chunk=256):
    """Q_t u from dense vertex blocks: (values, foot, foot_dist, prune_radius)."""
    uv = u.values
    umin = float(uv.min())
    V = space.n_vertices
    values = np.empty(V)
    foot = np.empty(V, dtype=np.int64)
    fdist = np.empty(V)
    order = np.argsort(-uv, kind="stable")
    max_radius = 0.0
    for lo in range(0, V, chunk):
        idx = order[lo : lo + chunk]
        radius = math.sqrt(max(2.0 * t * (float(uv[idx[0]]) - umin), 0.0)) + PRUNE_PAD
        max_radius = max(max_radius, radius)
        d = cache.vertex_block(idx, limit=radius)
        cand = uv[None, :] + d * d / (2.0 * t)
        best = np.argmin(cand, axis=1)
        rows = np.arange(len(idx))
        values[idx] = cand[rows, best]
        foot[idx] = best
        fdist[idx] = d[rows, best]
    return values, foot, fdist, max_radius


def dense_margin_mask(space, cache, margin):
    if space.is_closed:
        return np.ones(space.n_vertices, dtype=bool)
    bvs = np.flatnonzero(space.boundary_vertex)
    d = cache.vertex_block(bvs, limit=margin * 1.001).min(axis=0)
    return d > margin


def _chart(space):
    """Planar coordinates: the embedding, or the unrolled cone chart."""
    if space.embedding is not None:
        return space.embedding
    r, phi = space.cone_coords.T
    return np.c_[r * np.cos(phi), r * np.sin(phi)]


def _data(space):
    xy = _chart(space)
    rng = np.random.default_rng(5)
    return {
        "linear": 1.0 + xy @ [0.8, -0.3],
        "quadratic": 0.7 * np.sum(xy**2, axis=1) / 2,
        "distance": distance_field(space, space.n_vertices // 3, space.mesh_h).vertex_dist.copy(),
        "normal": rng.normal(size=space.n_vertices),
        "constant": np.full(space.n_vertices, 1.5),
    }


def _assert_same(space, cache, u, t, dense):
    """hopf_lax from `cache` against `dense`, the dense_hopf_lax tuple."""
    got = hopf_lax(space, cache, u, t)
    values, foot, fdist, radius = dense
    assert np.array_equal(got.values, values)
    assert np.array_equal(got.foot, foot)
    assert np.array_equal(got.foot_dist, fdist)
    lip = math.sqrt(float(face_gradient(space, u).face_sq.max()))
    osc = float(u.values.max() - u.values.min())
    assert got.prune_radius == min(math.sqrt(2.0 * t * osc), 2.0 * t * lip) + PRUNE_PAD
    assert got.prune_radius <= radius
    return got


DIFF_MESHES = {
    "flat_disk": lambda: flat_disk(1.0, 0.1),
    "cone_below_2pi": lambda: cone_disk(1.7, 1.0, 0.1),
    "cone_above_2pi": lambda: cone_disk(5.0, 1.0, 0.1),
    "flat_torus": lambda: flat_torus(1.0, 1 / 8),
}


# CHUNK_BYTES values for a graph of n nodes: the default, then budgets that
# cut read chunks every few rows and at every row; each must hand out the
# same balls.  A sweep of 7 sources takes 7 * 8 * n bytes, and a 1-byte
# budget still reads one row and sweeps one source per chunk.
def chunk_limits(n_nodes):
    return [space_mod.CHUNK_BYTES, 7 * 8 * n_nodes, 1]


def sources_per_sweep(space):
    """The most sources one ball_chunks sweep may take on `space`'s graph."""
    return max(1, space_mod.CHUNK_BYTES // (8 * space.graph(space.mesh_h).n_nodes))


def entries_per_read():
    """The most stored entries one ball_chunks read chunk may hold."""
    return space_mod.CHUNK_BYTES // space_mod._READ_ENTRY_BYTES


@pytest.mark.parametrize("mesh", sorted(DIFF_MESHES))
def test_ball_cache_matches_dense_blocks(monkeypatch, mesh):
    space = DIFF_MESHES[mesh]()
    orders = {
        "ascending": (0.05, 0.1, 0.2),
        "descending": (0.3, 0.15, 0.05),
        "repeated": (0.1, 0.1),
    }
    margins = (0.0, 0.05, 0.15, 0.3, 0.6)
    data = {name: PLFunction(space, vals) for name, vals in _data(space).items()}
    ref = DistanceCache(space, space.mesh_h)
    dense = {(name, t): dense_hopf_lax(space, ref, u, t)
             for name, u in data.items() for t in set().union(*orders.values())}
    masks = {margin: dense_margin_mask(space, ref, margin) for margin in margins}
    for budget in chunk_limits(space.graph(space.mesh_h).n_nodes):
        monkeypatch.setattr(space_mod, "CHUNK_BYTES", budget)
        cache = DistanceCache(space, space.mesh_h)
        for name, u in data.items():
            for ts in orders.values():
                for t in ts:
                    res = _assert_same(space, cache, u, t, dense[name, t])
                    if name == "constant":
                        assert np.array_equal(res.foot, np.arange(space.n_vertices))
            for margin in margins:
                assert np.array_equal(interior_margin_mask(space, cache, margin),
                                      masks[margin])


def _count_sweeps(monkeypatch):
    calls = []
    sweep = DistanceCache.vertex_block

    def counted(self, sources, *args, **kwargs):
        calls.append(len(sources))
        return sweep(self, sources, *args, **kwargs)

    monkeypatch.setattr(DistanceCache, "vertex_block", counted)
    return calls


def test_ball_cache_serves_smaller_t_without_sweeps(monkeypatch, disk):
    calls = _count_sweeps(monkeypatch)
    cache = DistanceCache(disk, disk.mesh_h)
    u = PLFunction(disk, RNG.normal(size=disk.n_vertices))
    hopf_lax(disk, cache, u, 0.2)
    interior_margin_mask(disk, cache, 0.3)
    assert calls
    calls.clear()
    for t in (0.2, 0.1, 0.05, 0.2):
        hopf_lax(disk, cache, u, t)
    interior_margin_mask(disk, cache, 0.3)
    interior_margin_mask(disk, cache, 0.1)
    assert calls == []
    hopf_lax(disk, cache, u, 0.4)  # a larger t needs larger balls
    assert calls


def test_ball_cache_byte_cap(monkeypatch, disk):
    budget = 40_000
    monkeypatch.setattr(space_mod, "BALL_CACHE_BYTES", budget)
    capped = DistanceCache(disk, disk.mesh_h)
    full = DistanceCache(disk, disk.mesh_h)
    u = PLFunction(disk, RNG.normal(size=disk.n_vertices))
    for t in (0.2, 0.05, 0.3, 0.2):
        a = hopf_lax(disk, capped, u, t)
        b = dense_hopf_lax(disk, full, u, t)
        assert np.array_equal(a.values, b[0])
        assert np.array_equal(a.foot, b[1])
        assert np.array_equal(a.foot_dist, b[2])
        assert 0 < capped.ball_bytes <= budget
        mask = interior_margin_mask(disk, capped, 0.25)
        assert np.array_equal(mask, dense_margin_mask(disk, full, 0.25))
        assert 0 < capped.ball_bytes <= budget


def test_ball_rows_hold_exactly_the_requested_ball(monkeypatch, disk):
    dense = DistanceCache(disk, disk.mesh_h).vertex_block(np.arange(disk.n_vertices))
    calls = _count_sweeps(monkeypatch)
    for budget in chunk_limits(disk.graph(disk.mesh_h).n_nodes):
        monkeypatch.setattr(space_mod, "CHUNK_BYTES", budget)
        per_sweep, per_read = sources_per_sweep(disk), entries_per_read()
        cache = DistanceCache(disk, disk.mesh_h)
        rng = np.random.default_rng(3)
        src = rng.permutation(disk.n_vertices)[:300]
        covered = np.full(300, -np.inf)  # what the cache stores, none capped
        # a large radius first, then smaller ones served from it, then a mix
        # of stored rows and sweeps
        for radii in (np.full(300, 0.6), rng.uniform(0.0, 0.6, 300),
                      rng.uniform(0.0, 0.9, 300)):
            radius = dict(zip(src.tolist(), radii.tolist()))
            stored = src[covered >= radii].tolist()
            covered = np.maximum(covered, radii)
            read, swept = [], []
            calls.clear()
            for idx, ptr, ids, dist in cache.ball_chunks(src, radii):
                for k, s in enumerate(idx.tolist()):
                    want = np.flatnonzero(dense[s] <= radius[s])
                    want = want[np.lexsort((want, dense[s, want]))]
                    assert np.array_equal(ids[ptr[k] : ptr[k + 1]], want)
                    assert np.array_equal(dist[ptr[k] : ptr[k + 1]], dense[s, want])
                # a chunk is all stored rows or all swept ones
                if calls:
                    assert calls == [len(idx)] and len(idx) <= per_sweep
                    swept += idx.tolist()
                else:
                    assert not swept  # every read comes before the sweeps
                    assert ptr[-1] <= per_read or len(idx) == 1
                    read += idx.tolist()
                calls.clear()
            # reads in the order given, sweeps by descending radius
            assert read == stored
            swept_radii = [radius[s] for s in swept]
            assert swept_radii == sorted(swept_radii, reverse=True)
            # every other source is swept, each once
            assert sorted(swept) == sorted(set(src.tolist()) - set(stored))
            assert sorted(read + swept) == sorted(src.tolist())


def _record_chunks(monkeypatch):
    """Row sizes of each chunk that ball_chunks yields, one list per chunk."""
    chunks = []
    ball_chunks = DistanceCache.ball_chunks

    def recorded(self, sources, radii):
        for chunk in ball_chunks(self, sources, radii):
            chunks.append(np.diff(chunk[1]).tolist())
            yield chunk

    monkeypatch.setattr(DistanceCache, "ball_chunks", recorded)
    return chunks


def test_warm_hopf_lax_reads_in_few_chunks(monkeypatch):
    disk = flat_disk(1.0, 0.05)
    assert disk.n_vertices == 1429
    cache = DistanceCache(disk, disk.mesh_h)
    u = PLFunction(disk, 1.0 + disk.embedding @ [0.6, -0.5])
    hopf_lax(disk, cache, u, 0.2)
    calls = _count_sweeps(monkeypatch)
    chunks = _record_chunks(monkeypatch)
    for t in (0.2, 0.1):
        chunks.clear()
        hopf_lax(disk, cache, u, t)
        assert calls == []
        assert sum(map(len, chunks)) == disk.n_vertices
        # per-chunk budgets, not a fixed count of sources per chunk
        assert len(chunks) < 6


@pytest.mark.parametrize("h", (0.1, 0.05))
def test_cold_sweeps_fit_the_byte_budget(monkeypatch, h):
    disk = flat_disk(1.0, h)
    cache = DistanceCache(disk, disk.mesh_h)
    n_nodes = disk.graph(disk.mesh_h).n_nodes
    calls = _count_sweeps(monkeypatch)
    u = PLFunction(disk, 1.0 + disk.embedding @ [0.6, -0.5])
    hopf_lax(disk, cache, u, 0.2)
    assert calls
    assert all(n * n_nodes * 8 <= space_mod.CHUNK_BYTES or n == 1 for n in calls)
    # the source count follows the graph size
    assert max(calls) == sources_per_sweep(disk)


@pytest.mark.parametrize("budget", (space_mod.CHUNK_BYTES, 2**16))
def test_warm_reads_fit_the_byte_budget(monkeypatch, budget):
    disk = flat_disk(1.0, 0.05)
    cache = DistanceCache(disk, disk.mesh_h)
    u = PLFunction(disk, 1.0 + disk.embedding @ [0.6, -0.5])
    hopf_lax(disk, cache, u, 0.2)
    monkeypatch.setattr(space_mod, "CHUNK_BYTES", budget)
    calls = _count_sweeps(monkeypatch)
    chunks = _record_chunks(monkeypatch)
    hopf_lax(disk, cache, u, 0.2)
    assert calls == [] and sum(map(len, chunks)) == disk.n_vertices
    per_read = entries_per_read()
    assert all(sum(rows) <= per_read or len(rows) == 1 for rows in chunks)
    # a chunk ends only where its next row would pass the budget
    assert all(sum(a) + b[0] > per_read for a, b in zip(chunks, chunks[1:]))
    # one chunk exactly when every entry fits the budget
    assert (len(chunks) == 1) == (sum(map(sum, chunks)) <= per_read)


def test_prune_radius_is_twice_t_times_max_gradient():
    disk = flat_disk(1.0, 0.1)
    slope = 0.8
    a = slope * np.array([math.cos(0.7), math.sin(0.7)])
    u = PLFunction(disk, 1.0 + disk.embedding @ a)
    # no edge runs along a, so edge slopes fall short of |a|
    assert lip_field(disk, u).max() < (1 - 1e-6) * slope
    t = 0.1
    res = hopf_lax(disk, DistanceCache(disk, disk.mesh_h), u, t)
    assert math.sqrt(2 * t * np.ptp(u.values)) > 2 * t * slope  # the cap binds
    assert res.prune_radius == pytest.approx(2 * t * slope + PRUNE_PAD, rel=1e-12)


def test_foot_is_smallest_id_among_tied_minimizers(disk, cache):
    x, t = 150, 0.1
    d = cache.vertex_block([x])[0]
    u = PLFunction(disk, -(d * d / (2.0 * t)))
    res = hopf_lax(disk, cache, u, t)
    # every candidate at x is exactly 0, so every vertex is a minimizer
    assert res.values[x] == 0.0
    assert res.foot[x] == 0
    assert res.foot_dist[x] == d[0] > 0.6


def test_cap_narrows_sweeps(monkeypatch, disk):
    limits = []
    sweep = DistanceCache.vertex_block

    def recorded(self, sources, limit=np.inf):
        limits.append(limit)
        return sweep(self, sources, limit)

    monkeypatch.setattr(DistanceCache, "vertex_block", recorded)
    u = PLFunction(disk, 1.0 + disk.embedding @ [0.6, -0.5])
    t = 0.2
    hopf_lax(disk, DistanceCache(disk, disk.mesh_h), u, t)
    lip = math.sqrt(float(face_gradient(disk, u).face_sq.max()))
    assert limits
    assert max(limits) <= 2 * t * lip + PRUNE_PAD
    assert max(limits) < math.sqrt(2 * t * np.ptp(u.values))


# -- Q_t u on a vertex subset --


def _ring(space, inner):
    """`inner` and every vertex joined to it by an edge."""
    i, j = space.edges.T
    ring = inner.copy()
    ring[i[inner[j]]] = True
    ring[j[inner[i]]] = True
    return ring


@pytest.mark.parametrize("mesh", sorted(DIFF_MESHES))
def test_restricted_hopf_lax_matches_full(mesh):
    space = DIFF_MESHES[mesh]()
    V, t = space.n_vertices, 0.15
    ref = DistanceCache(space, space.mesh_h)
    rng = np.random.default_rng(7)
    one = np.zeros(V, dtype=bool)
    one[V // 2] = True
    # one vertex, a random half, an inner ring, every vertex
    masks = [one, rng.permutation(V) < V // 2,
             _ring(space, dense_margin_mask(space, ref, 0.3)), np.ones(V, dtype=bool)]
    # one cache for all masks: cold for the first, partly warm after
    cache = DistanceCache(space, space.mesh_h)
    for vals in _data(space).values():
        u = PLFunction(space, vals)
        full = hopf_lax(space, ref, u, t)
        for mask in masks:
            got = hopf_lax(space, cache, u, t, at=mask)
            assert np.array_equal(got.values[mask], full.values[mask])
            assert np.array_equal(got.foot[mask], full.foot[mask])
            assert np.array_equal(got.foot_dist[mask], full.foot_dist[mask])
            assert np.isnan(got.values[~mask]).all()
            assert np.isnan(got.foot_dist[~mask]).all()
            assert (got.foot[~mask] == -1).all()
            assert got.prune_radius <= full.prune_radius
        assert got.prune_radius == full.prune_radius  # the last mask holds every vertex


def _audit_cases():
    disk = flat_disk(1.0, 0.1)
    xy = disk.embedding
    return disk, {
        "linear": 1.0 + xy @ [0.6, -0.5],
        "quadratic": 0.8 * np.sum(xy**2, axis=1) / 2,
        "distance": distance_field(disk, 0, disk.mesh_h).vertex_dist.copy(),
    }


AUDIT_T = (0.05, 0.1, 0.15, 0.2)


def test_semigroup_audit_matches_full_evaluation(monkeypatch):
    disk, data = _audit_cases()
    restricted, built = {}, []

    def recorded(space, values):
        built.append(np.array(values))
        return PLFunction(space, values)

    # the audit's reports, and the Q_t u arrays it builds PL functions from
    monkeypatch.setattr(hopflax_mod, "PLFunction", recorded)
    for name, vals in data.items():
        u = PLFunction(disk, vals)
        built.clear()
        restricted[name] = semigroup_audit(disk, DistanceCache(disk, disk.mesh_h), u,
                                           AUDIT_T).to_json()
        # every entry the audit reads on its inner set equals the full call's
        ref = DistanceCache(disk, disk.mesh_h)
        margin = max(AUDIT_T) * lip_field(disk, u).max() + 3 * disk.mesh_h
        inner = dense_margin_mask(disk, ref, margin)
        assert len(built) == len(AUDIT_T) - 1
        for t, got in zip(AUDIT_T, built):
            full = PLFunction(disk, hopf_lax(disk, ref, u, t).values)
            got = PLFunction(disk, got)
            assert np.array_equal(lip_field(disk, got)[inner], lip_field(disk, full)[inner])
            assert np.array_equal(face_gradient(disk, got).vertex_sq[inner],
                                  face_gradient(disk, full).vertex_sq[inner])
    monkeypatch.undo()
    full = hopflax_mod.hopf_lax

    def ignore_at(space, cache, u, t, at=None):
        return full(space, cache, u, t)

    monkeypatch.setattr(hopflax_mod, "hopf_lax", ignore_at)
    for name, vals in data.items():
        cache = DistanceCache(disk, disk.mesh_h)
        want = semigroup_audit(disk, cache, PLFunction(disk, vals), AUDIT_T).to_json()
        assert restricted[name] == want


def test_semigroup_audit_sweeps_only_the_ring(monkeypatch):
    disk, data = _audit_cases()
    u = PLFunction(disk, data["linear"])
    ref = DistanceCache(disk, disk.mesh_h)
    margin = max(AUDIT_T) * lip_field(disk, u).max() + 3 * disk.mesh_h
    ring = _ring(disk, dense_margin_mask(disk, ref, margin))
    assert 0 < ring.sum() < disk.n_vertices
    asked, inside = [], [False]
    hopf, ball_chunks = hopflax_mod.hopf_lax, DistanceCache.ball_chunks

    def tagged(*args, **kwargs):
        inside[0] = True
        try:
            return hopf(*args, **kwargs)
        finally:
            inside[0] = False

    def recorded(self, sources, radii):
        if inside[0]:
            asked.append(np.sort(sources))
        return ball_chunks(self, sources, radii)

    monkeypatch.setattr(hopflax_mod, "hopf_lax", tagged)
    monkeypatch.setattr(DistanceCache, "ball_chunks", recorded)
    semigroup_audit(disk, DistanceCache(disk, disk.mesh_h), u, AUDIT_T)
    assert len(asked) == len(AUDIT_T)
    for sources in asked:
        assert np.array_equal(sources, np.flatnonzero(ring))


def test_partial_result_is_no_pl_function(disk, cache):
    u = PLFunction(disk, RNG.normal(size=disk.n_vertices))
    at = np.zeros(disk.n_vertices, dtype=bool)
    at[:5] = True
    res = hopf_lax(disk, cache, u, 0.1, at=at)
    with pytest.raises(DomainError):
        res.as_plfunction()
    hopf_lax(disk, cache, u, 0.1).as_plfunction()


def test_empty_mask_evaluates_and_sweeps_nothing(monkeypatch, disk):
    calls = _count_sweeps(monkeypatch)
    u = PLFunction(disk, RNG.normal(size=disk.n_vertices))
    cache = DistanceCache(disk, disk.mesh_h)
    res = hopf_lax(disk, cache, u, 0.2, at=np.zeros(disk.n_vertices, dtype=bool))
    assert calls == []
    assert cache.ball_bytes == 0
    assert np.isnan(res.values).all() and np.isnan(res.foot_dist).all()
    assert (res.foot == -1).all()
    assert res.prune_radius == 0.0


@pytest.mark.parametrize("at", [np.ones(5, dtype=bool), lambda v: True])
def test_rejects_a_mask_that_is_not_one_flag_per_vertex(disk, cache, at):
    u = PLFunction(disk, np.zeros(disk.n_vertices))
    with pytest.raises(DomainError):
        hopf_lax(disk, cache, u, 0.1, at=at)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rejects_non_finite_t(disk, cache, bad):
    u = PLFunction(disk, 1.0 + disk.embedding @ [0.6, -0.5])
    with pytest.raises(DomainError):
        hopf_lax(disk, cache, u, bad)
    with pytest.raises(DomainError):
        semigroup_audit(disk, cache, u, [0.05, bad])


@pytest.mark.parametrize("margin", [math.nan, -0.1])
def test_margin_mask_rejects_nan_and_negative_margins(margin):
    disk = flat_disk(1.0, 0.2)
    with pytest.raises(DomainError):
        interior_margin_mask(disk, DistanceCache(disk, disk.mesh_h), margin)


# a surface, and another whose cache it must not take: the same vertex
# count, more vertices, fewer vertices, and an equal but separate surface
FOREIGN_CACHES = {
    "same_size": (lambda: flat_torus(1.0, 1 / 8), lambda: flat_torus(2.0, 1 / 4)),
    "larger": (lambda: flat_disk(1.0, 0.2), lambda: flat_disk(1.0, 0.1)),
    "smaller": (lambda: flat_disk(1.0, 0.1), lambda: flat_disk(1.0, 0.2)),
    "equal": (lambda: flat_disk(1.0, 0.2), lambda: flat_disk(1.0, 0.2)),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_CACHES))
def test_hopf_lax_rejects_a_cache_of_another_surface(case):
    space, other = (make() for make in FOREIGN_CACHES[case])
    cache = DistanceCache(other, other.mesh_h)
    u = PLFunction(space, np.arange(space.n_vertices, dtype=float))
    with pytest.raises(DomainError, match="different surface"):
        hopf_lax(space, cache, u, 0.1)


@pytest.mark.parametrize("case", sorted(FOREIGN_CACHES))
def test_margin_mask_rejects_a_cache_of_another_surface(case):
    space, other = (make() for make in FOREIGN_CACHES[case])
    with pytest.raises(DomainError, match="different surface"):
        interior_margin_mask(space, DistanceCache(other, other.mesh_h), 0.2)
