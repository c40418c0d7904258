"""The set-up holds little more than it returns.

``assemble_forms`` and ``SchurPlan.build`` work in slices, so the most
memory each holds above its start, by tracemalloc, is a fixed multiple of
the bytes it returns.  Summing every block of the mesh in one pass, or
keying every pair of the plan in one array, took about 8 (assembly) and
3.5 to 4.5 (plan) times those bytes on these meshes.
"""

import tracemalloc

import pytest

from hmmvi import assemble_forms, build_gd, generate_mesh
from hmmvi.solver import SchurPlan

# Peak above start over bytes returned: 3.7 and 2.7 for the assembly (its
# stiffness alone; the mass is the mesh's cell areas), 1.5 and 1.6 for the
# plan on these meshes.
ASSEMBLY_BOUND = 4.0
PLAN_BOUND = 2.0


def _traced(fn, *args):
    """fn(*args) and the most memory it held above its start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def _nbytes(*arrays):
    return sum(a.nbytes for a in arrays)


def _csr_nbytes(A):
    return _nbytes(A.data, A.indices, A.indptr)


MESHES = [("cartesian", 6), ("hexagonal", 5)]


@pytest.mark.parametrize("family, level", MESHES)
def test_assembly_holds_a_bounded_multiple_of_what_it_returns(family, level):
    forms, peak = _traced(assemble_forms, build_gd(generate_mesh(family, level)))
    returned = _csr_nbytes(forms.stiffness)
    assert peak <= ASSEMBLY_BOUND * returned, (peak, returned)


@pytest.mark.parametrize("family, level", MESHES)
def test_plan_build_holds_a_bounded_multiple_of_what_it_returns(family, level):
    gd = build_gd(generate_mesh(family, level))
    stiffness, nc = assemble_forms(gd).stiffness, gd.n_cells
    plan, peak = _traced(SchurPlan.build, stiffness, nc, gd.free_dofs[nc:])
    returned = (_csr_nbytes(plan.B) + _csr_nbytes(plan.q)
                + _nbytes(plan.s_cc, plan.aee, plan.indices, plan.indptr))
    assert peak <= PLAN_BOUND * returned, (peak, returned)
