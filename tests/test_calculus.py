import math

import numpy as np
import pytest
from scipy import sparse

from alexlab.calculus import (
    PLFunction,
    assemble_operator,
    ball_integral,
    dirichlet_form,
    face_gradient,
    face_inner,
    green_identity_check,
    hat_functions,
    interior_region_vertices,
    laplacian_functional,
    laplacian_vector,
    lip_field,
    shell_integral,
)
from alexlab.exceptions import DomainError
from alexlab.pde import solve_poisson_dirichlet
from alexlab.space import cone_disk, distance_field, flat_disk
from test_space import DIFFERENTIAL_MESHES

RNG = np.random.default_rng(7)


@pytest.fixture(scope="module")
def disk():
    return flat_disk(1.0, 0.1)


@pytest.fixture(scope="module")
def disk_op(disk):
    return assemble_operator(disk)


def test_face_gradient_constant(disk):
    u = PLFunction.constant(disk, 3.7)
    g = face_gradient(disk, u)
    assert np.abs(g.face_grad).max() == 0.0
    assert np.abs(g.vertex_sq).max() == 0.0


def test_face_gradient_linear_exact(disk):
    u = PLFunction.from_embedding(disk, lambda x, y: x)
    g = face_gradient(disk, u)
    assert np.abs(np.sqrt(g.face_sq) - 1.0).max() < 1e-10


def test_face_gradient_reproduces_vertex_values(disk):
    # affine interpolation identity: gradient dotted with chart edges
    # recovers the value differences exactly
    u = PLFunction(disk, RNG.normal(size=disk.n_vertices))
    g = face_gradient(disk, u)
    ch = disk.charts()
    vals = u.values[disk.faces]
    for f in RNG.choice(disk.n_faces, size=25, replace=False):
        for a, b in ((0, 1), (0, 2), (1, 2)):
            dv = vals[f, b] - vals[f, a]
            de = ch[f, b] - ch[f, a]
            assert g.face_grad[f] @ de == pytest.approx(dv, abs=1e-10)


def test_face_gradient_quadratic_vertex_field(disk):
    u = PLFunction.from_embedding(disk, lambda x, y: x * x - y * y)
    g = face_gradient(disk, u)
    xy = disk.embedding
    want = 4 * (xy[:, 0] ** 2 + xy[:, 1] ** 2)
    inner = ~disk.boundary_vertex
    err = np.abs(g.vertex_sq - want)[inner]
    assert np.median(err) < 4 * disk.mesh_h**2 + 0.05


def test_pointwise_lip(disk):
    const = PLFunction.constant(disk, 2.0)
    assert lip_field(disk, const)[0] == 0.0
    lin = PLFunction.from_embedding(disk, lambda x, y: x)
    lips = lip_field(disk, lin)
    # 1-Lipschitz exactly; interior lattice vertices see a parallel edge
    assert lips.max() <= 1.0 + 1e-12
    assert np.abs(lips[~disk.boundary_vertex] - 1.0).max() < 0.2
    # exactly the largest |u(i) - u(j)| / length over the edges at each vertex
    vals, want = lin.values.tolist(), [0.0] * disk.n_vertices
    for (i, j), length in zip(disk.edges.tolist(), disk.edge_lengths.tolist()):
        slope = abs(vals[i] - vals[j]) / length
        want[i], want[j] = max(want[i], slope), max(want[j], slope)
    assert np.array_equal(lips, want)


def test_distance_field_is_one_lipschitz(disk):
    fld = distance_field(disk, 0, 0.05)
    u = PLFunction(disk, fld.vertex_dist)
    # graph distances satisfy the triangle inequality along edges exactly
    assert lip_field(disk, u).max() <= 1.0 + 1e-9


def test_dirichlet_form_cotan_identity(disk, disk_op):
    # spec invariant: cotan form equals the face-gradient sum to 1e-10
    for _ in range(100):
        u = PLFunction(disk, RNG.normal(size=disk.n_vertices))
        v = PLFunction(disk, RNG.normal(size=disk.n_vertices))
        gu, gv = face_gradient(disk, u), face_gradient(disk, v)
        direct = float(np.sum(disk.face_area * face_inner(disk, gu, gv)))
        assert dirichlet_form(disk_op, u, v) == pytest.approx(direct, abs=1e-10)


def test_dirichlet_form_examples(disk, disk_op):
    const = PLFunction.constant(disk, 5.0)
    assert dirichlet_form(disk_op, const, const) == pytest.approx(0.0, abs=1e-12)
    ux = PLFunction.from_embedding(disk, lambda x, y: x)
    uy = PLFunction.from_embedding(disk, lambda x, y: y)
    assert dirichlet_form(disk_op, ux, uy) == pytest.approx(0.0, abs=1e-10)
    # E(x, x) = area of the disk
    assert dirichlet_form(disk_op, ux, ux) == pytest.approx(disk.total_area, rel=1e-10)


def test_stiffness_row_sums_and_symmetry(disk_op):
    K = disk_op.stiffness
    assert abs(K - K.T).max() < 1e-12
    row_sums = np.asarray(K.sum(axis=1)).ravel()
    assert np.abs(row_sums).max() < 1e-12
    assert disk_op.masses.sum() == pytest.approx(disk_op.surface.total_area, rel=1e-12)
    assert np.all(disk_op.masses > 0)


def coo_stiffness(space):
    """Reference assembly: four COO records per face side, 12F in all,
    with the duplicates summed by the conversion to CSR."""
    rows, cols, vals = [], [], []
    for s in range(3):
        u = space.faces[:, (s + 1) % 3]
        v = space.faces[:, (s + 2) % 3]
        w = 0.5 / np.tan(space.corner_angle[:, s])
        rows.extend([u, v, u, v])
        cols.extend([v, u, u, v])
        vals.extend([-w, -w, w, w])
    V = space.n_vertices
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(V, V)
    ).tocsr()


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_MESHES))
def test_stiffness_matches_coo_reference(name, tmp_path):
    surf = DIFFERENTIAL_MESHES[name](tmp_path)
    ref = coo_stiffness(surf)
    K = assemble_operator(surf).stiffness
    assert K.has_canonical_format
    assert K.nnz == surf.n_vertices + 2 * len(surf.edges)
    np.testing.assert_array_equal(K.indptr, ref.indptr)
    np.testing.assert_array_equal(K.indices, ref.indices)
    # edge weights are summed per edge, then per vertex: a new summation
    # order, so entries agree to a few ulps of their row's largest entry
    row_max = np.maximum.reduceat(np.abs(ref.data), ref.indptr[:-1])
    ulps = np.repeat(np.spacing(row_max), np.diff(ref.indptr))
    assert np.all(np.abs(K.data - ref.data) <= 4 * ulps)


def general_face_gradient(space, u):
    """Reference: the general 2x2 solve from the chart's edge vectors, with
    the vertex sums by np.add.at: (face_grad, face_sq, vertex_sq)."""
    ch = space.charts()
    vals = u.values[space.faces]
    e1 = ch[:, 1] - ch[:, 0]
    e2 = ch[:, 2] - ch[:, 0]
    b1 = vals[:, 1] - vals[:, 0]
    b2 = vals[:, 2] - vals[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    gx = (b1 * e2[:, 1] - b2 * e1[:, 1]) / det
    gy = (-b1 * e2[:, 0] + b2 * e1[:, 0]) / det
    face_sq = gx * gx + gy * gy
    wsum = np.zeros(space.n_vertices)
    acc = np.zeros(space.n_vertices)
    np.add.at(wsum, space.faces.ravel(), np.repeat(space.face_area, 3))
    np.add.at(acc, space.faces.ravel(), np.repeat(space.face_area * face_sq, 3))
    return np.stack([gx, gy], axis=1), face_sq, acc / np.maximum(wsum, 1e-300)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_MESHES))
def test_face_gradient_matches_general_solve(name, tmp_path):
    surf = DIFFERENTIAL_MESHES[name](tmp_path)
    rng = np.random.default_rng(17)
    V = surf.n_vertices
    data = {
        "random": rng.normal(size=V),
        "constant": np.full(V, -2.5),
        # most values round to +0.0 or -0.0, so zero gradients of both
        # signs occur
        "rounded": np.round(0.6 * rng.normal(size=V)),
    }
    for vals in data.values():
        got = face_gradient(surf, PLFunction(surf, vals))
        ref = general_face_gradient(surf, PLFunction(surf, vals))
        for a, b in zip((got.face_grad, got.face_sq, got.vertex_sq), ref):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_face_inner_rejects_a_gradient_from_another_surface(disk):
    other = flat_disk(1.0, 0.1)
    g = face_gradient(disk, PLFunction.constant(disk, 1.0))
    g_other = face_gradient(other, PLFunction.constant(other, 1.0))
    with pytest.raises(DomainError):
        face_inner(disk, g, g_other)
    with pytest.raises(DomainError):
        face_inner(other, g, g)


def test_laplacian_functional_basics(disk, disk_op):
    u = PLFunction(disk, RNG.normal(size=disk.n_vertices))
    zero = PLFunction.constant(disk, 0.0)
    assert laplacian_functional(disk_op, u, zero) == 0.0
    bad = PLFunction.constant(disk, 1.0)
    with pytest.raises(DomainError):
        laplacian_functional(disk_op, u, bad)


def test_laplacian_symmetry_for_interior_pair(disk, disk_op):
    # L_u(phi) = L_phi(u) when both vanish on the boundary
    interior = ~disk.boundary_vertex
    u_vals = RNG.normal(size=disk.n_vertices) * interior
    p_vals = RNG.normal(size=disk.n_vertices) * interior
    u = PLFunction(disk, u_vals)
    phi = PLFunction(disk, p_vals)
    assert laplacian_functional(disk_op, u, phi) == pytest.approx(
        laplacian_functional(disk_op, phi, u), abs=1e-12
    )


def test_linear_functions_are_harmonic(disk, disk_op):
    # L_u(hat) = 0 for every interior hat when u is linear
    u = PLFunction.from_embedding(disk, lambda x, y: 2.0 - 3.0 * x + y)
    lap = laplacian_vector(disk_op, u)
    assert np.abs(lap[~disk.boundary_vertex]).max() < 1e-10


def test_laplacian_of_quadratic(disk, disk_op):
    # u = (x^2+y^2)/2 has L_u(hat_i) ~ 2 * mass_i
    u = PLFunction.from_embedding(disk, lambda x, y: (x * x + y * y) / 2)
    fld = distance_field(disk, 0, 0.05)
    ids = interior_region_vertices(disk, fld.vertex_dist <= 0.7)
    lap = laplacian_vector(disk_op, u)[ids]
    assert np.abs(lap / disk_op.masses[ids] - 2.0).max() < 0.1


def test_hat_functions(disk):
    fld = distance_field(disk, 0, 0.05)
    hats = hat_functions(disk, fld.vertex_dist <= 0.5)
    assert len(hats) > 0
    for hat in hats[:5]:
        assert hat.values.min() == 0.0
        assert hat.values.max() == 1.0
        assert np.count_nonzero(hat.values) == 1
    with pytest.raises(DomainError):
        hat_functions(disk, np.zeros(disk.n_vertices, dtype=bool))


def test_shell_integral_circle_length(disk):
    fld = distance_field(disk, 0, 0.02)
    one = PLFunction.constant(disk, 1.0)
    val = shell_integral(disk, fld, one, 0.5, 2 * disk.mesh_h)
    assert val == pytest.approx(math.pi, rel=0.05)


def test_shell_integral_odd_harmonic_vanishes(disk):
    fld = distance_field(disk, 0, 0.02)
    u = PLFunction.from_embedding(disk, lambda x, y: x * x - y * y)
    one = PLFunction.constant(disk, 1.0)
    r = 0.5
    val = shell_integral(disk, fld, u, r, 2 * disk.mesh_h)
    mass = shell_integral(disk, fld, one, r, 2 * disk.mesh_h)
    assert abs(val) <= 0.05 * mass


def test_shell_integral_cone_circle():
    theta = 3 * math.pi / 2
    cone = cone_disk(theta, 1.0, 0.05)
    fld = distance_field(cone, 0, 0.01)
    one = PLFunction.constant(cone, 1.0)
    r = 0.5
    val = shell_integral(cone, fld, one, r, 2 * cone.mesh_h)
    assert val == pytest.approx(theta * r, rel=0.05)


def test_shell_integral_errors(disk):
    fld = distance_field(disk, 0, 0.05)
    one = PLFunction.constant(disk, 1.0)
    with pytest.raises(DomainError):
        # off-lattice radius with a sub-resolution shell width
        shell_integral(disk, fld, one, 0.477, 1e-9)


def test_green_identity_log_kernel():
    disk = flat_disk(1.0, 0.05)
    op = assemble_operator(disk)
    fld = distance_field(disk, 0, 0.02)
    one = PLFunction.constant(disk, 1.0)
    rep = green_identity_check(
        disk, op, 0, 0.3, 0.7, one,
        phi_radial=lambda r: -math.log(r) / (2 * math.pi),
        phi_radial_deriv=lambda r: -1.0 / (2 * math.pi * r),
        field=fld,
    )
    assert rep.passed
    # both sides are near zero: the log-kernel flux is radius independent
    assert abs(rep.fitted["lhs"]) < 0.05
    assert abs(rep.fitted["rhs"]) < 0.05


def test_green_identity_distance_squared():
    disk = flat_disk(1.0, 0.05)
    op = assemble_operator(disk)
    fld = distance_field(disk, 0, 0.02)
    one = PLFunction.constant(disk, 1.0)
    r, R = 0.3, 0.7
    rep = green_identity_check(
        disk, op, 0, r, R, one,
        phi_radial=lambda t: t * t,
        phi_radial_deriv=lambda t: 2 * t,
        field=fld,
    )
    assert rep.passed
    # oracle: divergence theorem gives 4 * annulus area on both sides
    want = 2 * R * 2 * math.pi * R - 2 * r * 2 * math.pi * r
    assert rep.fitted["rhs"] == pytest.approx(want, rel=0.05)
    assert rep.fitted["lhs"] == pytest.approx(want, rel=0.05)


def test_green_identity_zero_function():
    disk = flat_disk(1.0, 0.1)
    op = assemble_operator(disk)
    fld = distance_field(disk, 0, 0.05)
    zero = PLFunction.constant(disk, 0.0)
    rep = green_identity_check(
        disk, op, 0, 0.3, 0.7, zero,
        phi_radial=lambda t: t * t,
        phi_radial_deriv=lambda t: 2 * t,
        field=fld,
    )
    assert rep.fitted["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert rep.fitted["rhs"] == pytest.approx(0.0, abs=1e-12)


def test_ball_integral(disk):
    fld = distance_field(disk, 0, 0.02)
    one = PLFunction.constant(disk, 1.0)
    assert ball_integral(disk, fld, one, 0.6) == pytest.approx(
        math.pi * 0.36, rel=0.08
    )


def test_harmonic_lip_stable_under_refinement():
    # refinement-stability probe: sup pointwise Lipschitz of the solved
    # harmonic function on a fixed compact subdomain must not grow by more
    # than 10% from h to h/2
    sups = []
    for h in (0.1, 0.05):
        disk = flat_disk(1.0, h)
        op = assemble_operator(disk)
        g = PLFunction.from_embedding(disk, lambda x, y: 1 + x + 0.5 * y * y)
        u = solve_poisson_dirichlet(disk, op, None, g, tol=1e-11)
        fld = distance_field(disk, 0, h / 2)
        sub = fld.vertex_dist <= 0.5
        lips = lip_field(disk, u)[sub]
        sups.append(lips.max())
    assert sups[1] <= 1.1 * sups[0]
