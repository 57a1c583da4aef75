import math

import numpy as np
import pytest

from alexlab.calculus import (
    PLFunction,
    assemble_operator,
    hat_functions,
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
    solve_closed_harmonic,
    solve_poisson_dirichlet,
    supersolution_slack,
)
from alexlab.space import distance_field, flat_disk, flat_torus, icosphere


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
    g = PLFunction.from_embedding(disk, lambda x, y: 1 + x)
    u = solve_poisson_dirichlet(disk, op, None, g, tol=1e-12)
    assert np.abs(u.values - g.values).max() <= 1e-8


def test_harmonic_solve_constant_exact(disk, op):
    g = PLFunction.constant(disk, 4.2)
    u = solve_poisson_dirichlet(disk, op, None, g, tol=1e-12)
    assert np.abs(u.values - 4.2).max() <= 1e-10


def test_poisson_quadratic(disk, op):
    g = PLFunction.from_embedding(disk, lambda x, y: (x * x + y * y) / 2)
    u = solve_poisson_dirichlet(disk, op, 2.0, g, tol=1e-12)
    err = np.abs(u.values - g.values).max()
    assert err <= 5 * disk.mesh_h**2


def test_solver_antisymmetry(disk, op):
    # solution with g = x is antisymmetric under x -> -x
    g = PLFunction.from_embedding(disk, lambda x, y: x)
    u = solve_poisson_dirichlet(disk, op, None, g, tol=1e-12)
    xy = disk.embedding
    # pair each vertex with its reflection (the hex lattice and the rim are
    # both symmetric under x -> -x)
    refl = np.c_[-xy[:, 0], xy[:, 1]]
    order = np.lexsort((np.round(xy[:, 1], 9), np.round(xy[:, 0], 9)))
    order_r = np.lexsort((np.round(refl[:, 1], 9), np.round(refl[:, 0], 9)))
    assert np.abs(u.values[order] + u.values[order_r]).max() <= 1e-8


def test_solution_monotone_in_boundary_data(disk, op):
    g1 = PLFunction.from_embedding(disk, lambda x, y: x)
    g2 = PLFunction.from_embedding(disk, lambda x, y: x + 0.3)
    u1 = solve_poisson_dirichlet(disk, op, None, g1, tol=1e-12)
    u2 = solve_poisson_dirichlet(disk, op, None, g2, tol=1e-12)
    assert np.all(u1.values <= u2.values + 1e-9)


def test_empty_boundary_error(disk, op):
    with pytest.raises(EmptyBoundaryError):
        solve_poisson_dirichlet(
            disk, op, None, 0.0, boundary_mask=np.zeros(disk.n_vertices, bool)
        )


def test_maximum_principle_harmonic(disk, op, center_field):
    g = PLFunction.from_embedding(disk, lambda x, y: 1 + x)
    u = solve_poisson_dirichlet(disk, op, None, g, tol=1e-12)
    rep = check_maximum_principle(disk, u, center_field.vertex_dist <= 0.8)
    assert rep.passed
    assert not rep.meta["constant_within_tol"]


def test_maximum_principle_subharmonic(disk, center_field):
    u = PLFunction.from_embedding(disk, lambda x, y: -(x * x + y * y))
    # -(x^2+y^2) is subharmonic's negative: its max sits at the center, so
    # the weak principle fails for it and passes for its negative
    rep = check_maximum_principle(disk, u, center_field.vertex_dist <= 0.8)
    assert not rep.passed
    neg = PLFunction(disk, -u.values)
    rep2 = check_maximum_principle(disk, neg, center_field.vertex_dist <= 0.8)
    assert rep2.passed


def test_maximum_principle_constant_strong_form(disk, center_field):
    u = PLFunction.constant(disk, 1.0)
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
    u = PLFunction.constant(disk, 1.0)
    with pytest.raises(DomainError):
        check_maximum_principle(disk, u, region(disk))
    with pytest.raises(DomainError):
        interior_region_vertices(disk, region(disk))


def test_supersolution_slack_solution_is_both(disk, op, center_field):
    g = PLFunction.from_embedding(disk, lambda x, y: (x * x + y * y) / 2)
    u = solve_poisson_dirichlet(disk, op, 2.0, g, tol=1e-12)
    hats = hat_functions(disk, center_field.vertex_dist <= 0.6)
    slack = supersolution_slack(op, u, 2.0, hats)
    assert abs(slack) <= 1e-8


def test_supersolution_slack_neg_dist_squared(disk, op, center_field):
    u = PLFunction(disk, -center_field.vertex_dist**2)
    hats = hat_functions(disk, center_field.vertex_dist <= 0.6)
    slack = supersolution_slack(op, u, -4.0, hats)
    assert slack >= -0.5 * disk.mesh_h


def test_supersolution_slack_log_kernel(disk, op, center_field):
    d = np.maximum(center_field.vertex_dist, 1e-9)
    u = PLFunction(disk, -np.log(d) / (2 * math.pi))
    ann = (center_field.vertex_dist >= 0.3) & (center_field.vertex_dist <= 0.7)
    hats = hat_functions(disk, ann)
    slack = supersolution_slack(op, u, 0.0, hats)
    assert slack >= -disk.mesh_h


def test_supersolution_slack_empty_hats(disk, op):
    u = PLFunction.constant(disk, 0.0)
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


def test_first_eigenpair_iteration_cap():
    torus = flat_torus(1.0, 1 / 16)
    with pytest.raises(SolverDivergedError):
        first_nonzero_eigenpair(torus, assemble_operator(torus), max_iter=3)


def test_first_eigenpair_needs_closed(disk, op):
    with pytest.raises(NotClosedError):
        first_nonzero_eigenpair(disk, op)


def test_closed_harmonic_is_constant_zero():
    torus = flat_torus(1.0, 1 / 32)
    top = assemble_operator(torus)
    u = solve_closed_harmonic(torus, top)
    assert np.abs(u.values).max() <= 1e-8


def test_closed_solve_zero_mean_rhs():
    torus = flat_torus(1.0, 1 / 16)
    top = assemble_operator(torus)
    xy = torus.embedding
    f = np.sin(2 * math.pi * xy[:, 0])
    f -= (top.masses @ f) / top.masses.sum()
    u = solve_closed_harmonic(torus, top, f)
    # discrete solvability: residual of K u = -M f away from zero modes
    r = top.stiffness @ u.values + top.masses * f
    assert np.linalg.norm(r) <= 1e-6 * np.linalg.norm(top.masses * f)
    with pytest.raises(DomainError):
        solve_closed_harmonic(torus, top, np.ones(torus.n_vertices))


def test_harmonic_measure_probability(disk, op, center_field):
    hm = harmonic_measure(disk, op, 0, 0.5, 8, center_field)
    one = PLFunction.constant(disk, 1.0)
    assert hm_integrate(hm, one) == pytest.approx(1.0, abs=1e-6)


def test_harmonic_measure_reproduces_harmonic_values(disk, op, center_field):
    hm = harmonic_measure(disk, op, 0, 0.5, 10, center_field)
    phi = PLFunction.from_embedding(disk, lambda x, y: x * x - y * y + 5.0)
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
    phi = PLFunction.from_embedding(disk, lambda x, y: abs(x) + 0.1)
    assert np.all(hm.mu_samples(phi) >= 0)
