"""Invalid calls to public entry points raise a typed alexlab error.

One row per invalid call: each must raise an AlexlabError subclass, not
return a silent answer or a bare Python error.  Valid calls are pinned by
the bit-identity tests of each module.
"""

import math

import numpy as np
import pytest

from alexlab import pde
from alexlab.calculus import assemble_operator
from alexlab.exceptions import AlexlabError, DomainError
from alexlab.model import generalized_sine
from alexlab.pde import first_nonzero_eigenpair, harmonic_measure, solve_poisson_dirichlet
from alexlab.report import make_report
from alexlab.space import (DistanceCache, distance_field, flat_disk, flat_torus, icosphere,
                           toponogov_check)


@pytest.fixture(scope="module")
def disk():
    return flat_disk(1.0, 0.2)


def dirichlet(disk, **kwargs):
    """Harmonic extension of x^2 with the keyword arguments given."""
    return solve_poisson_dirichlet(disk, assemble_operator(disk), None,
                                   disk.embedding[:, 0] ** 2, **kwargs)


def cache(disk):
    return DistanceCache(disk, disk.mesh_h)


def boundary_inf(disk):
    """x^2 with one boundary value made infinite."""
    g = disk.embedding[:, 0] ** 2
    g[np.flatnonzero(assemble_operator(disk).boundary)[0]] = math.inf
    return g


def measure(disk, m, op_disk=None):
    """Harmonic measure at vertex 0, with the operator of op_disk."""
    return harmonic_measure(disk, assemble_operator(op_disk or disk), 0, 0.5, m,
                            distance_field(disk, 0, disk.mesh_h))


def eigenpair(surface, op_surface=None, **kwargs):
    """First eigenpair of the surface, with the operator of op_surface."""
    return first_nonzero_eigenpair(surface, assemble_operator(op_surface or surface), **kwargs)


INVALID_CALLS = {
    # tol bounds the residual of the solve: an infinite one bounds nothing
    "dirichlet_tol_inf": lambda disk: dirichlet(disk, tol=math.inf),
    # the mask is one short: g came back unchanged
    "dirichlet_short_mask_all_true": lambda disk: dirichlet(
        disk, boundary_mask=np.ones(disk.n_vertices - 1, bool)),
    # the mask is one short: a bare IndexError
    "dirichlet_short_mask_mixed": lambda disk: dirichlet(
        disk, boundary_mask=np.arange(disk.n_vertices - 1) % 2 == 0),
    # an operator of another mesh: a bare IndexError, or with as many
    # vertices, a solve on the wrong stiffness
    "dirichlet_foreign_op": lambda disk: solve_poisson_dirichlet(
        disk, assemble_operator(flat_disk(1.0, 0.3)), None, 0.0),
    "dirichlet_foreign_op_same_size": lambda disk: solve_poisson_dirichlet(
        disk, assemble_operator(flat_disk(1.0, 0.2)), None, 0.0),
    # built silently; the error came at the first ball solve
    "harmonic_measure_foreign_op": lambda disk: measure(
        flat_disk(1.0, 0.05), 8, flat_disk(1.0, 0.05)),
    "eigenpair_foreign_op": lambda disk: eigenpair(flat_torus(1.0, 1 / 6), icosphere(1)),
    "eigenpair_foreign_op_same_size": lambda disk: eigenpair(
        flat_torus(1.0, 1 / 6), flat_torus(1.0, 1 / 6)),
    # a bare TypeError from np.linspace and np.empty
    "harmonic_measure_m_not_integer": lambda disk: measure(disk, 8.5),
    "eigenpair_max_iter_not_integer": lambda disk: eigenpair(
        flat_torus(1.0, 1 / 6), max_iter=2.5),
    # a report that fails, with no error
    "report_tolerance_nan": lambda disk: make_report("r", {}, [0.0], tolerance=math.nan),
    "sine_t_nan": lambda disk: generalized_sine(0.0, math.nan),
    "sine_k_nan": lambda disk: generalized_sine(math.nan, 1.0),
    # a bare "math domain error" from math.sin
    "sine_t_inf": lambda disk: generalized_sine(1.0, math.inf),
    # ids past the vertices name Steiner nodes, whose distances came back
    "vertex_block_negative_id": lambda disk: cache(disk).vertex_block([-1]),
    "vertex_block_id_V": lambda disk: cache(disk).vertex_block([disk.n_vertices]),
    # a bare ValueError from unpacking
    "toponogov_three_ids": lambda disk: toponogov_check(disk, cache(disk), (0, 1, 2), 0.0, 0.1),
}


@pytest.mark.parametrize("call", INVALID_CALLS.values(), ids=INVALID_CALLS.keys())
def test_invalid_call_raises_a_typed_error(disk, call):
    with pytest.raises(AlexlabError):
        call(disk)


@pytest.mark.parametrize("f, g", [
    (math.nan, lambda disk: 0.0),
    (None, boundary_inf),
], ids=["f_nan_scalar", "g_boundary_inf_array"])
def test_non_finite_dirichlet_data_is_rejected_before_factoring(disk, monkeypatch, f, g):
    # a solver fault for an input fault: both ran a full solve before
    # raising SolverDivergedError
    def no_factor(mat):
        raise AssertionError("factored non-finite data")

    monkeypatch.setattr(pde, "_banded_cholesky", no_factor)
    with pytest.raises(DomainError):
        solve_poisson_dirichlet(disk, assemble_operator(disk), f, g(disk))
