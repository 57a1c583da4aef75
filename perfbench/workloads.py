"""The benchmark's three workloads, their seeded inputs and their oracles.

Each workload has a ``setup`` (timed as ``setup_s``), an ``op_input`` that
derives one op's inputs from ``(seed, op index)`` alone, so a run can be
replayed op for op, and a ``run`` that calls alexlab and checks every output.
alexlab is only reached through module attributes (``S.cone_disk``, ...),
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from alexlab import calculus as C
from alexlab import hopflax as H
from alexlab import pde as P
from alexlab import report as R
from alexlab import space as S

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def stratified(seed: int, stream: int, j: int) -> float:
    """j-th point of a golden-ratio sequence with a seeded offset, in [0, 1).

    Each point is uniform over seeds, but consecutive points spread evenly,
    so the cost mix of the few ops a run completes varies little by seed.
    The warm-up op (j = -1) takes the middle of the range, so that set-up
    time does not depend on the seed either.
    """
    if j < 0:
        return 0.5
    offset = np.random.default_rng([seed, stream]).random()
    return (offset + j * GOLDEN) % 1.0


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1000 + i])


@dataclass
class Outcome:
    """What one op produced: output checks, verdicts and the oracle error."""

    checks: dict[str, bool] = field(default_factory=dict)
    verdicts: list[bool] = field(default_factory=list)
    oracle_err: float = 0.0

    def check(self, name: str, ok) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def error(self, value: float) -> None:
        self.oracle_err = max(self.oracle_err, float(value))


def mesh_info(surf, spacing=None) -> dict:
    info = {"V": int(surf.n_vertices), "F": int(surf.n_faces)}
    if spacing is not None:
        info["graph_nodes"] = int(surf.graph(spacing).n_nodes)
    return info


# ---------------------------------------------------------------------------
# exact distances
# ---------------------------------------------------------------------------


def cone_distances(coords: np.ndarray, theta: float, src: int) -> np.ndarray:
    """Geodesic distance on the cone of total angle theta, by unrolling."""
    r, phi = coords[:, 0], coords[:, 1]
    dphi = np.abs(phi - phi[src]) % theta
    dphi = np.minimum(dphi, theta - dphi)
    chord = np.sqrt(np.maximum(r**2 + r[src] ** 2 - 2 * r * r[src] * np.cos(dphi), 0.0))
    return np.where(dphi < math.pi, chord, r + r[src])


def plane_distances(xy: np.ndarray, src: int) -> np.ndarray:
    return np.linalg.norm(xy - xy[src], axis=1)


def torus_distances(xy: np.ndarray, side: float, src: int) -> np.ndarray:
    """Minimum over lattice translates on the square flat torus."""
    d = np.abs(xy - xy[src]) % side
    d = np.minimum(d, side - d)
    return np.linalg.norm(d, axis=1)


def path_length(graph, nodes: np.ndarray) -> float:
    """Sum of graph edge weights along a node sequence."""
    if len(nodes) < 2:
        return 0.0
    return float(np.asarray(graph.matrix[nodes[:-1], nodes[1:]]).sum())


def same_mesh(a, b) -> bool:
    """Same faces and the same length on every edge, in any edge order."""
    if a.n_vertices != b.n_vertices or not np.array_equal(a.faces, b.faces):
        return False
    if len(a.edges) != len(b.edges):
        return False
    n = a.n_vertices
    ka = a.edges[:, 0] * n + a.edges[:, 1]
    kb = b.edges[:, 0] * n + b.edges[:, 1]
    oa, ob = np.argsort(ka), np.argsort(kb)
    return bool(
        np.array_equal(ka[oa], kb[ob])
        and np.array_equal(a.edge_lengths[oa], b.edge_lengths[ob])
    )


# ---------------------------------------------------------------------------
# geodesic_cold
# ---------------------------------------------------------------------------


class GeodesicCold:
    """Cold meshes: each op generates the next mesh of a seeded cycle (cone
    disk, flat disk, flat torus), round-trips it through OFF, builds its
    graph, answers 8 sources and checks 4 quadruples.

    Every mesh has about pi / h^2 vertices: the torus of side sqrt(pi), the
    cone disk of radius sqrt(2 pi / theta) and, since the disk's hexagonal
    lattice packs 2 / sqrt(3) vertices per h^2 where the torus grid and the
    cone rings pack one, the disk of area pi sqrt(3) / 2.  So every op costs
    about the same, whatever the mesh and the cone angle.
    """

    name = "geodesic_cold"
    kinds = ("cone_disk", "flat_disk", "flat_torus")
    area = math.pi
    disk_radius = math.sqrt(math.sqrt(3.0) / 2.0)
    n_sources = 8
    n_quads = 4

    def __init__(self, tiny: bool):
        self.h = 0.2 if tiny else 0.04

    def setup(self, workdir: Path) -> dict:
        return {"off_path": workdir / "geodesic_cold.off", "meshes": {}}

    def op_input(self, seed: int, i: int) -> dict:
        order = np.random.default_rng([seed, 1]).permutation(len(self.kinds))
        rng = op_rng(seed, i)
        return {
            "kind": self.kinds[order[i % 3]],
            "theta": rng.uniform(math.pi / 2, 4 * math.pi),
            "rng": rng,
        }

    def run(self, state: dict, inp: dict) -> Outcome:
        out = Outcome()
        h, kind, theta, rng = self.h, inp["kind"], inp["theta"], inp["rng"]
        if kind == "cone_disk":
            surf = S.cone_disk(theta, math.sqrt(2 * self.area / theta), h)
            exact = partial(cone_distances, surf.cone_coords, theta)
        elif kind == "flat_disk":
            surf = S.flat_disk(self.disk_radius, h)
            exact = partial(plane_distances, surf.embedding)
        else:
            side = math.sqrt(self.area)
            surf = S.flat_torus(side, h)
            exact = partial(torus_distances, surf.embedding, side)

        S.save_off(surf, state["off_path"])
        loaded = S.load_off(state["off_path"])
        out.check("off_round_trip", same_mesh(surf, loaded))

        spacing = 0.4 * h
        graph = loaded.graph(spacing)
        cache = S.DistanceCache(loaded, spacing)
        V = loaded.n_vertices
        state["meshes"].setdefault(kind, []).append(
            {"V": V, "F": loaded.n_faces, "graph_nodes": graph.n_nodes}
        )
        excess_min = math.inf
        worst = 0.0
        for _ in range(self.n_sources):
            src, tgt = (int(v) for v in rng.choice(V, size=2, replace=False))
            fld = cache.field(src)
            excess = fld.vertex_dist - exact(src)
            excess_min = min(excess_min, float(excess.min()))
            worst = max(worst, float(excess.max()) / spacing)
            # a graph path is a real surface path, so it is never shorter
            out.check("graph_not_below_exact", excess.min() >= -1e-9)

            nodes, arc = S.trace_shortest_path(fld, tgt)
            walked = path_length(graph, nodes)
            out.check(
                "path_arclength",
                nodes[0] == src and nodes[-1] == tgt
                and arc[-1] == fld.node_dist[tgt]
                and abs(walked - arc[-1]) <= 1e-9 * max(1.0, arc[-1]),
            )
            angle = S.initial_direction(loaded, src, tgt, spacing, cache)
            out.check(
                "direction_in_range",
                0.0 <= angle <= loaded.cone_angle[src] + 1e-9,
            )
        out.error(worst)
        for _ in range(self.n_quads):
            quad = tuple(int(v) for v in rng.choice(V, size=4, replace=False))
            out.verdicts.append(S.toponogov_check(loaded, cache, quad, 0.0, 3 * h))
        rep = R.make_report(
            "distance_oracle",
            {"mesh": kind, "theta": theta, "spacing": spacing, "sources": self.n_sources},
            [excess_min],
            tolerance=1e-9,
            fitted={"max_excess_per_spacing": worst},
        )
        out.check("report_json", rep.to_json())
        return out

    def describe(self, state: dict) -> dict:
        return {
            kind: {key: [min(m[key] for m in seen), max(m[key] for m in seen)]
                   for key in ("V", "F", "graph_nodes")}
            for kind, seen in state["meshes"].items()
        }


# ---------------------------------------------------------------------------
# hopflax_audit
# ---------------------------------------------------------------------------


class HopfLaxAudit:
    """One fixed disk; each op audits Q_t u for the next data family of a
    seeded cycle (oblique linear, quadratic, distance cone)."""

    name = "hopflax_audit"
    families = ("linear", "quadratic", "distance")
    t_grid = (0.05, 0.1, 0.15, 0.2)
    t_probe = 0.1

    def __init__(self, tiny: bool):
        self.h = 0.2 if tiny else 0.05

    def setup(self, workdir: Path) -> dict:
        surf = S.flat_disk(1.0, self.h)
        cache = S.DistanceCache(surf, surf.mesh_h)
        surf.graph(surf.mesh_h)
        return {"surf": surf, "cache": cache}

    def op_input(self, seed: int, i: int) -> dict:
        order = np.random.default_rng([seed, 1]).permutation(len(self.families))
        rng = op_rng(seed, i)
        angle = rng.uniform(0.0, 2 * math.pi)
        return {
            "family": self.families[order[i % 3]],
            "slope": (0.3 + 0.7 * stratified(seed, 2, i // 3))
            * np.array([math.cos(angle), math.sin(angle)]),
            "curvature": 0.5 + stratified(seed, 3, i // 3),
            "centre": rng.uniform(-0.2, 0.2, size=2),
        }

    def run(self, state: dict, inp: dict) -> Outcome:
        out = Outcome()
        surf, cache = state["surf"], state["cache"]
        family = inp["family"]
        xy = surf.embedding
        t = self.t_probe
        if family == "linear":
            a = inp["slope"]
            u = 1.0 + xy @ a
            closed = u - t * float(a @ a) / 2
            reach = t * float(np.linalg.norm(a))
        elif family == "quadratic":
            c = inp["curvature"]
            u = c * np.sum(xy**2, axis=1) / 2
            closed = c * np.sum(xy**2, axis=1) / (2 * (1 + c * t))
            reach = 0.0
        else:
            p = int(np.argmin(np.linalg.norm(xy - inp["centre"], axis=1)))
            u = S.distance_field(surf, p, surf.mesh_h).vertex_dist.copy()
            closed = np.where(u >= t, u - t / 2, u * u / (2 * t))
            reach = t
        U = C.PLFunction(surf, u)

        audit = H.semigroup_audit(surf, cache, U, self.t_grid)
        res = H.hopf_lax(surf, cache, U, t)
        feet = H.footpoint_audit(surf, cache, res, U)

        out.check("below_u", np.all(res.values <= u))
        recon = u[res.foot] + res.foot_dist**2 / (2 * t)
        out.check(
            "foot_identity",
            np.all(np.abs(recon - res.values) <= 1e-14 * np.maximum(1.0, np.abs(res.values))),
        )
        # the closed forms hold where the continuum minimizer stays inside
        inner = np.linalg.norm(xy, axis=1) <= 1.0 - reach - 3 * surf.mesh_h
        out.error(np.abs(res.values - closed)[inner].max() / surf.mesh_h)
        out.verdicts += [audit.passed, feet.passed]
        out.check("report_json", audit.to_json())
        out.check("report_json", feet.to_json())
        return out

    def describe(self, state: dict) -> dict:
        surf = state["surf"]
        return {"flat_disk": mesh_info(surf, surf.mesh_h)}


# ---------------------------------------------------------------------------
# poisson_hm
# ---------------------------------------------------------------------------


def dirichlet_residual(op, u: np.ndarray, f: float, g: np.ndarray) -> tuple[float, float]:
    """Norms of the reduced Dirichlet system's residual and right-hand side."""
    inter = ~op.boundary
    K, M = op.stiffness, op.masses
    boundary_part = np.where(op.boundary, g, 0.0)
    rhs = -(M * f)[inter] - (K @ boundary_part)[inter]
    resid = (K @ u)[inter] + (M * f)[inter]
    return float(np.linalg.norm(resid)), float(np.linalg.norm(rhs))


class PoissonHM:
    """A fixed fine disk: assemble, distance, harmonic measure, Dirichlet
    solves and the maximum principle; then the first eigenpair of the
    icosphere and of the flat torus, in seeded order."""

    name = "poisson_hm"
    radius = 0.5
    n_radii = 10
    solver_tol = 1e-10
    # closed-form first nonzero eigenvalues of -Laplace
    eigenvalues = {"icosphere": 2.0, "flat_torus": 4 * math.pi**2}

    def __init__(self, tiny: bool):
        self.disk_h, self.ico, self.torus_h = (
            (0.04, 2, 1 / 8) if tiny else (0.02, 5, 1 / 64)
        )

    def setup(self, workdir: Path) -> dict:
        disk = S.flat_disk(1.0, self.disk_h)
        disk.graph(disk.mesh_h)
        return {
            "disk": disk,
            "icosphere": S.icosphere(self.ico),
            "flat_torus": S.flat_torus(1.0, self.torus_h),
        }

    def op_input(self, seed: int, i: int) -> dict:
        rng = op_rng(seed, i)
        r, a = 0.2 * math.sqrt(rng.random()), rng.uniform(0.0, 2 * math.pi)
        return {
            "centre": np.array([r * math.cos(a), r * math.sin(a)]),
            "alpha": rng.uniform(0.0, 2 * math.pi),
            "k": int(rng.integers(1, 5)),
            "closed": [("icosphere", "flat_torus")[k] for k in rng.permutation(2)],
        }

    def run(self, state: dict, inp: dict) -> Outcome:
        out = Outcome()
        disk = state["disk"]
        xy = disk.embedding
        inside = np.flatnonzero(np.linalg.norm(xy, axis=1) < 0.2)
        p = int(inside[np.argmin(np.linalg.norm(xy[inside] - inp["centre"], axis=1))])
        z = xy[:, 0] + 1j * xy[:, 1]
        g = 3.0 + np.real(np.exp(1j * inp["alpha"]) * z ** inp["k"])
        phi = C.PLFunction(disk, g)

        op = C.assemble_operator(disk)
        fld = S.distance_field(disk, p, disk.mesh_h)
        hm = P.harmonic_measure(disk, op, p, self.radius, self.n_radii, fld,
                                solver_tol=self.solver_tol)
        mean = P.hm_integrate(hm, phi)
        out.error(abs(mean - g[p]))

        harmonic = P.solve_poisson_dirichlet(disk, op, None, g, tol=self.solver_tol)
        poisson = P.solve_poisson_dirichlet(disk, op, 1.0, g, tol=self.solver_tol)
        for name, sol, f in (("harmonic", harmonic, 0.0), ("poisson", poisson, 1.0)):
            resid, rhs = dirichlet_residual(op, sol.values, f, g)
            # CG stops on its recursively updated residual; the recomputed
            # one differs from it by rounding only
            out.check(f"{name}_residual", resid <= 2 * self.solver_tol * rhs)
            out.check(f"{name}_boundary", np.array_equal(sol.values[op.boundary], g[op.boundary]))
        mp = P.check_maximum_principle(disk, harmonic, np.ones(disk.n_vertices, bool))
        out.verdicts.append(mp.passed)
        out.check("report_json", mp.to_json())

        for name in inp["closed"]:
            closed = state[name]
            cop = C.assemble_operator(closed)
            lam, vec = P.first_nonzero_eigenpair(closed, cop)
            Kx = cop.stiffness @ vec.values
            resid = np.linalg.norm(Kx - lam * cop.masses * vec.values)
            out.check("eigen_residual", resid <= 1e-8 * np.linalg.norm(Kx) + 1e-12)
            out.check("eigen_mean_zero", abs(cop.masses @ vec.values) <= 1e-8)
            exact = self.eigenvalues[name]
            out.error(abs(lam - exact) / exact)
        return out

    def describe(self, state: dict) -> dict:
        disk = state["disk"]
        return {
            "flat_disk": mesh_info(disk, disk.mesh_h),
            "icosphere": mesh_info(state["icosphere"]),
            "flat_torus": mesh_info(state["flat_torus"]),
        }


WORKLOADS = {w.name: w for w in (GeodesicCold, HopfLaxAudit, PoissonHM)}
