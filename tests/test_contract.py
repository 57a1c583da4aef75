"""Invalid calls to public entry points raise a typed alexlab error.

One row per invalid call: each must raise an AlexlabError subclass, not
return a silent answer or a bare Python error.  Valid calls are pinned by
the bit-identity tests of each module.
"""

import math

import numpy as np
import pytest

from alexlab.calculus import assemble_operator
from alexlab.exceptions import AlexlabError
from alexlab.model import generalized_sine
from alexlab.pde import solve_poisson_dirichlet
from alexlab.report import make_report
from alexlab.space import DistanceCache, flat_disk, toponogov_check


@pytest.fixture(scope="module")
def disk():
    return flat_disk(1.0, 0.2)


def dirichlet(disk, **kwargs):
    """Harmonic extension of x^2 with the keyword arguments given."""
    return solve_poisson_dirichlet(disk, assemble_operator(disk), None,
                                   disk.embedding[:, 0] ** 2, **kwargs)


def cache(disk):
    return DistanceCache(disk, disk.mesh_h)


INVALID_CALLS = {
    # CG stops at once and returns 0 inside, up to 0.83 from the solution
    "dirichlet_tol_inf": lambda disk: dirichlet(disk, tol=math.inf),
    # the mask is one short: g came back unchanged
    "dirichlet_short_mask_all_true": lambda disk: dirichlet(
        disk, boundary_mask=np.ones(disk.n_vertices - 1, bool)),
    # the mask is one short: a bare IndexError
    "dirichlet_short_mask_mixed": lambda disk: dirichlet(
        disk, boundary_mask=np.arange(disk.n_vertices - 1) % 2 == 0),
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
