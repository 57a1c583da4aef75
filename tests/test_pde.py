import math

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse import linalg as sla

from alexlab import pde
from alexlab.calculus import (
    PLFunction,
    assemble_operator,
    interior_region_vertices,
)
from alexlab.exceptions import (
    BallTooLargeError,
    DomainError,
    EmptyBoundaryError,
    NotClosedError,
    SolverDivergedError,
)
from alexlab.pde import (
    check_maximum_principle,
    first_nonzero_eigenpair,
    harmonic_measure,
    hm_integrate,
    solve_poisson_dirichlet,
    supersolution_slack,
)
from alexlab.space import build_surface, distance_field, flat_disk, flat_torus, icosphere
from test_space import DIFFERENTIAL_MESHES


@pytest.fixture(scope="module")
def disk():
    return flat_disk(1.0, 0.05)


@pytest.fixture(scope="module")
def op(disk):
    return assemble_operator(disk)


@pytest.fixture(scope="module")
def center_field(disk):
    return distance_field(disk, 0, 0.02)


def test_harmonic_solve_linear_exact(disk, op):
    g = PLFunction(disk, 1 + disk.embedding[:, 0])
    u = solve_poisson_dirichlet(disk, op, None, g, tol=1e-12)
    assert np.abs(u.values - g.values).max() <= 1e-8


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10])
def test_dirichlet_solve_rejects_a_tolerance_that_is_not_positive(disk, op, tol):
    with pytest.raises(DomainError):
        solve_poisson_dirichlet(disk, op, None, 0.0, tol=tol)


def test_harmonic_solve_constant_exact(disk, op):
    g = PLFunction(disk, np.full(disk.n_vertices, 4.2))
    u = solve_poisson_dirichlet(disk, op, None, g, tol=1e-12)
    assert np.abs(u.values - 4.2).max() <= 1e-10


def test_poisson_quadratic(disk, op):
    x, y = disk.embedding.T
    g = PLFunction(disk, (x * x + y * y) / 2)
    u = solve_poisson_dirichlet(disk, op, 2.0, g, tol=1e-12)
    err = np.abs(u.values - g.values).max()
    assert err <= 5 * disk.mesh_h**2


def test_solver_antisymmetry(disk, op):
    # solution with g = x is antisymmetric under x -> -x
    g = PLFunction(disk, disk.embedding[:, 0])
    u = solve_poisson_dirichlet(disk, op, None, g, tol=1e-12)
    xy = disk.embedding
    # pair each vertex with its reflection (the hex lattice and the rim are
    # both symmetric under x -> -x)
    refl = np.c_[-xy[:, 0], xy[:, 1]]
    order = np.lexsort((np.round(xy[:, 1], 9), np.round(xy[:, 0], 9)))
    order_r = np.lexsort((np.round(refl[:, 1], 9), np.round(refl[:, 0], 9)))
    assert np.abs(u.values[order] + u.values[order_r]).max() <= 1e-8


def test_solution_monotone_in_boundary_data(disk, op):
    g1 = PLFunction(disk, disk.embedding[:, 0])
    g2 = PLFunction(disk, disk.embedding[:, 0] + 0.3)
    u1 = solve_poisson_dirichlet(disk, op, None, g1, tol=1e-12)
    u2 = solve_poisson_dirichlet(disk, op, None, g2, tol=1e-12)
    assert np.all(u1.values <= u2.values + 1e-9)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_MESHES))
def test_dirichlet_rhs_matches_boundary_slice(name, tmp_path, monkeypatch):
    surf = DIFFERENTIAL_MESHES[name](tmp_path)
    sop = assemble_operator(surf)
    V = surf.n_vertices
    rng = np.random.default_rng(31)
    seen = []
    factor = pde._banded_cholesky

    def record_rhs(mat):
        solve = factor(mat)

        def record(rhs):
            seen.append(rhs)
            return solve(rhs)

        return record

    monkeypatch.setattr(pde, "_banded_cholesky", record_rhs)
    for bmask in (sop.boundary | (rng.random(V) < 0.1), rng.random(V) < 0.4):
        f = rng.standard_normal(V)
        g = rng.standard_normal(V) * 10.0 ** rng.uniform(-3, 3, V)
        solve_poisson_dirichlet(surf, sop, f, g, boundary_mask=bmask)
        inter = ~bmask
        # reference: the boundary columns sliced out of the interior rows
        Kib = sop.stiffness[inter][:, bmask]
        ref = -(sop.masses[inter] * f[inter]) - Kib @ g[bmask]
        np.testing.assert_array_equal(seen.pop(), ref)


def test_dirichlet_solve_matches_dense_reference():
    surf = flat_disk(1.0, 0.2)
    sop = assemble_operator(surf)
    V = surf.n_vertices
    rng = np.random.default_rng(7)
    bmask = rng.random(V) < 0.3
    f, g = rng.standard_normal(V), rng.standard_normal(V)
    u = solve_poisson_dirichlet(surf, sop, f, g, tol=1e-12, boundary_mask=bmask)
    inter = ~bmask
    K = sop.stiffness.toarray()
    rhs = -(sop.masses[inter] * f[inter]) - K[np.ix_(inter, bmask)] @ g[bmask]
    ref = np.linalg.solve(K[np.ix_(inter, inter)], rhs)
    np.testing.assert_allclose(u.values[inter], ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    np.testing.assert_array_equal(u.values[bmask], g[bmask])


def test_dirichlet_solve_ignores_the_values_it_does_not_read(disk, op):
    # f on the boundary and g inside may be NaN: the solve never reads them
    x, y = disk.embedding.T
    f, g = np.where(op.boundary, math.nan, 2.0), np.where(op.boundary, x * y, math.inf)
    u = solve_poisson_dirichlet(disk, op, f, g)
    ref = solve_poisson_dirichlet(disk, op, 2.0, x * y)
    np.testing.assert_array_equal(u.values, ref.values)


def test_dirichlet_residual_above_tol_diverges(disk, op):
    # tol bounds the residual of the direct solve, which rounding keeps
    # above 1e-30 of the rhs
    with pytest.raises(SolverDivergedError):
        solve_poisson_dirichlet(disk, op, None, disk.embedding[:, 0] ** 2, tol=1e-30)


def test_factor_of_a_matrix_that_is_not_positive_definite_diverges():
    # a path graph Laplacian with one diagonal entry made negative
    n = 6
    mat = sparse.diags([-np.ones(n - 1), np.full(n, 2.0), -np.ones(n - 1)], [-1, 0, 1],
                       format="lil")
    mat[3, 3] = -1.0
    with pytest.raises(SolverDivergedError):
        pde._banded_cholesky(mat.tocsr())


def test_empty_boundary_error(disk, op):
    with pytest.raises(EmptyBoundaryError):
        solve_poisson_dirichlet(
            disk, op, None, 0.0, boundary_mask=np.zeros(disk.n_vertices, bool)
        )


def test_maximum_principle_harmonic(disk, op, center_field):
    g = PLFunction(disk, 1 + disk.embedding[:, 0])
    u = solve_poisson_dirichlet(disk, op, None, g, tol=1e-12)
    rep = check_maximum_principle(disk, u, center_field.vertex_dist <= 0.8)
    assert rep.passed
    assert not rep.meta["constant_within_tol"]


def test_maximum_principle_subharmonic(disk, center_field):
    x, y = disk.embedding.T
    u = PLFunction(disk, -(x * x + y * y))
    # -(x^2+y^2) is subharmonic's negative: its max sits at the center, so
    # the weak principle fails for it and passes for its negative
    rep = check_maximum_principle(disk, u, center_field.vertex_dist <= 0.8)
    assert not rep.passed
    neg = PLFunction(disk, -u.values)
    rep2 = check_maximum_principle(disk, neg, center_field.vertex_dist <= 0.8)
    assert rep2.passed


def test_maximum_principle_constant_strong_form(disk, center_field):
    u = PLFunction(disk, np.ones(disk.n_vertices))
    rep = check_maximum_principle(disk, u, center_field.vertex_dist <= 0.8)
    assert rep.passed
    assert rep.meta["strong_form_triggered"]
    assert rep.meta["constant_within_tol"]


@pytest.mark.parametrize("region", [
    lambda disk: np.ones(disk.n_vertices - 1, bool),
    lambda disk: np.ones((disk.n_vertices, 2), bool),
    lambda disk: (lambda v: True),
], ids=["short", "two_columns", "callable"])
def test_region_mask_shape_is_checked(disk, region):
    u = PLFunction(disk, np.ones(disk.n_vertices))
    with pytest.raises(DomainError):
        check_maximum_principle(disk, u, region(disk))
    with pytest.raises(DomainError):
        interior_region_vertices(disk, region(disk))


def hats(space, region):
    """One hat per vertex of the region whose edge star stays inside it."""
    return [PLFunction(space, np.eye(1, space.n_vertices, i)[0])
            for i in interior_region_vertices(space, region)]


def test_supersolution_slack_solution_is_both(disk, op, center_field):
    x, y = disk.embedding.T
    g = PLFunction(disk, (x * x + y * y) / 2)
    u = solve_poisson_dirichlet(disk, op, 2.0, g, tol=1e-12)
    slack = supersolution_slack(op, u, 2.0, hats(disk, center_field.vertex_dist <= 0.6))
    assert abs(slack) <= 1e-8


def test_supersolution_slack_neg_dist_squared(disk, op, center_field):
    u = PLFunction(disk, -center_field.vertex_dist**2)
    slack = supersolution_slack(op, u, -4.0, hats(disk, center_field.vertex_dist <= 0.6))
    assert slack >= -0.5 * disk.mesh_h


def test_supersolution_slack_log_kernel(disk, op, center_field):
    d = np.maximum(center_field.vertex_dist, 1e-9)
    u = PLFunction(disk, -np.log(d) / (2 * math.pi))
    ann = (center_field.vertex_dist >= 0.3) & (center_field.vertex_dist <= 0.7)
    slack = supersolution_slack(op, u, 0.0, hats(disk, ann))
    assert slack >= -disk.mesh_h


def test_supersolution_slack_empty_hats(disk, op):
    u = PLFunction(disk, np.zeros(disk.n_vertices))
    with pytest.raises(DomainError):
        supersolution_slack(op, u, 0.0, [])


def test_first_eigenpair_icosphere():
    ico = icosphere(3)
    iop = assemble_operator(ico)
    lam, u = first_nonzero_eigenpair(ico, iop, tol=1e-10)
    assert 1.9 <= lam <= 2.05
    mean = float(iop.masses @ u.values)
    assert abs(mean) <= 1e-8
    resid = np.linalg.norm(iop.stiffness @ u.values - lam * iop.masses * u.values)
    assert resid <= 1e-8 * np.linalg.norm(iop.stiffness @ u.values) + 1e-12


def test_first_eigenpair_flat_torus():
    torus = flat_torus(1.0, 1 / 24)
    top = assemble_operator(torus)
    lam, _ = first_nonzero_eigenpair(torus, top, tol=1e-10)
    assert lam == pytest.approx(4 * math.pi**2, rel=0.03)


def colamd_eigenpair(space, op, tol):
    """Reference eigen solve: the same inverse iteration, with K + sigma M
    factored by `sla.factorized` in SuperLU's default COLAMD order."""
    K = op.stiffness.tocsc()
    M = op.masses
    sigma = 1e-8 * K.diagonal().sum() / space.n_vertices
    solve = sla.factorized((K + sigma * sparse.diags(M)).tocsc())
    x = np.random.default_rng(1234).standard_normal(space.n_vertices)
    x -= (M @ x) / M.sum()
    x /= math.sqrt(float(x @ (M * x)))
    for _ in range(500):
        y = solve(M * x)
        y -= (M @ y) / M.sum()
        x = y / math.sqrt(float(y @ (M * y)))
        Kx = K @ x
        lam = float(x @ Kx)
        if np.linalg.norm(Kx - lam * (M * x)) <= tol * np.linalg.norm(Kx):
            return lam, x
    raise AssertionError("reference inverse iteration did not converge")


@pytest.mark.parametrize("make", [
    lambda: icosphere(3), lambda: icosphere(4),
    lambda: flat_torus(1.0, 1 / 16), lambda: flat_torus(1.0, 1 / 32),
], ids=["icosphere3", "icosphere4", "torus16", "torus32"])
def test_first_eigenpair_matches_colamd_reference(make):
    surf = make()
    sop = assemble_operator(surf)
    tol = 1e-8
    lam, u = first_nonzero_eigenpair(surf, sop, tol=tol)
    # the reference is converged further: at tol it is itself up to 1.3e-8
    # off, the size of the vector bound
    ref_lam, ref_vec = colamd_eigenpair(surf, sop, 1e-12)
    assert lam == pytest.approx(ref_lam, rel=1e-12, abs=0)
    assert np.abs(np.abs(u.values) - np.abs(ref_vec)).max() <= 1e-8
    K, M = sop.stiffness, sop.masses
    Ku = K @ u.values
    assert np.linalg.norm(Ku - lam * (M * u.values)) <= tol * np.linalg.norm(Ku)


@pytest.mark.parametrize("squash", [1.00001, 1.001])
def test_first_eigenpair_resolves_a_nearly_double_eigenvalue(squash):
    # z scaled by 1.00001 splits the triple lambda_1 of the sphere by a
    # relative 8e-6: single-vector inverse iteration stalls there
    ico = icosphere(3)
    xyz = ico.embedding * [1.0, 1.0, squash]
    surf = build_surface(ico.faces, lambda u, v: np.linalg.norm(xyz[u] - xyz[v], axis=1),
                         embedding=xyz)
    sop = assemble_operator(surf)
    K, M = sop.stiffness, sop.masses
    lam, u = first_nonzero_eigenpair(surf, sop, tol=1e-8)
    dense = scipy.linalg.eigh(K.toarray(), np.diag(M), eigvals_only=True)
    assert lam == pytest.approx(dense[1], rel=1e-9)
    Ku = K @ u.values
    assert np.linalg.norm(Ku - lam * (M * u.values)) <= 1e-8 * np.linalg.norm(Ku)
    assert abs(float(M @ u.values)) <= 1e-8


def test_first_eigenvalue_does_not_depend_on_vertex_numbering():
    # reverse Cuthill-McKee breaks ties by vertex id, so the factor's
    # rounding follows the numbering; the eigenvalue must not see it
    ico = icosphere(3)
    perm = np.random.default_rng(17).permutation(ico.n_vertices)  # old id -> new id
    verts = ico.embedding[np.argsort(perm)]

    def great_circle(u, v):
        return np.arccos(np.clip(np.einsum("ij,ij->i", verts[u], verts[v]), -1.0, 1.0))

    relabelled = build_surface(perm[ico.faces], great_circle,
                               declared_k=ico.declared_k, embedding=verts)
    lam, _ = first_nonzero_eigenpair(ico, assemble_operator(ico))
    lam_p, _ = first_nonzero_eigenpair(relabelled, assemble_operator(relabelled))
    assert lam_p == pytest.approx(lam, rel=1e-12, abs=0)


def test_first_eigenpair_iteration_cap():
    torus = flat_torus(1.0, 1 / 16)
    with pytest.raises(SolverDivergedError):
        first_nonzero_eigenpair(torus, assemble_operator(torus), max_iter=3)


@pytest.mark.parametrize("kwargs", [dict(tol=math.nan), dict(tol=0.0),
                                    dict(tol=-1.0), dict(tol=math.inf),
                                    dict(max_iter=0), dict(max_iter=-1)])
def test_first_eigenpair_rejects_bad_tol_and_max_iter(monkeypatch, kwargs):
    torus = flat_torus(1.0, 1 / 8)
    op = assemble_operator(torus)

    def no_factor(*args, **kw):
        raise AssertionError("factored before checking the arguments")

    monkeypatch.setattr(pde, "_banded_cholesky", no_factor)
    with pytest.raises(DomainError):
        first_nonzero_eigenpair(torus, op, **kwargs)


def test_first_eigenpair_needs_closed(disk, op):
    with pytest.raises(NotClosedError):
        first_nonzero_eigenpair(disk, op)


def test_harmonic_measure_probability(disk, op, center_field):
    hm = harmonic_measure(disk, op, 0, 0.5, 8, center_field)
    one = PLFunction(disk, np.ones(disk.n_vertices))
    assert hm_integrate(hm, one) == pytest.approx(1.0, abs=1e-6)


def test_harmonic_measure_reproduces_harmonic_values(disk, op, center_field):
    hm = harmonic_measure(disk, op, 0, 0.5, 10, center_field)
    x, y = disk.embedding.T
    phi = PLFunction(disk, x * x - y * y + 5.0)
    val = hm_integrate(hm, phi)
    assert val == pytest.approx(5.0, abs=5 * disk.mesh_h**2 + 1e-3)
    # mu(r) of harmonic data is near-constant in r
    assert np.abs(hm.mu_samples(phi) - 5.0).max() <= 0.01


def test_harmonic_measure_hat_lower_bound(disk, op, center_field):
    # nu_{p,R} >= vol / H^2(B_o(R)) in the flat tangent cone
    R = 0.5
    hm = harmonic_measure(disk, op, 0, R, 10, center_field)
    inside = np.flatnonzero(
        (center_field.vertex_dist < 0.3) & (center_field.vertex_dist > 0.1)
    )
    masses = disk.vertex_masses()
    for q in inside[:3]:
        vals = np.zeros(disk.n_vertices)
        vals[q] = 1.0
        hat = PLFunction(disk, vals)
        got = hm_integrate(hm, hat)
        lower = masses[q] / (math.pi * R * R)
        assert got >= lower - 1e-4


def test_harmonic_measure_ball_too_large(disk, op, center_field):
    with pytest.raises(BallTooLargeError):
        harmonic_measure(disk, op, 0, 1.5, 8, center_field)
    with pytest.raises(DomainError):
        harmonic_measure(disk, op, 0, 0.5, 4, center_field)


def test_harmonic_measure_nonnegative_mu(disk, op, center_field):
    hm = harmonic_measure(disk, op, 0, 0.5, 8, center_field)
    phi = PLFunction(disk, abs(disk.embedding[:, 0]) + 0.1)
    assert np.all(hm.mu_samples(phi) >= 0)
