"""Cartesian test1 and test2 marches against the independent 5-point oracle.

``tpfaref`` shares no code with the library's geometry, assembly, Schur
plan or factorisation, so agreement here checks all of them at once.
test1 also checks the Dirichlet data: its boundary values follow the exact
solution, and enter the oracle as a load on the boundary cells.
"""

import numpy as np
import pytest

from hmmvi import TimeGrid, build_gd, builtin_case, generate_mesh, run_transient

import tpfaref

SQUARE = (-1.0, 1.0, -1.0, 1.0)


def _assert_five_point_march(spec, level, box, lam, grid):
    """The march on Cartesian ``level`` is the oracle's: the same iterations,
    the same contact sets and the same cell values to 1e-12 relative."""
    mesh = generate_mesh("cartesian", level, bbox=box)
    solution = run_transient(build_gd(mesh, np.diag(lam)), spec, grid)

    n = 2**level
    A, area = tpfaref.five_point(n, n, box, lam)
    order = tpfaref.match(mesh.cell_points, n, n, box)
    load = None if spec.dirichlet is None else tpfaref.dirichlet_load(n, n, box, lam,
                                                                       spec.dirichlet)
    iterations, contacts, values = tpfaref.march(
        A, area, tpfaref.centres(n, n, box), grid.nodes, spec.source, spec.obstacle,
        spec.initial, load)

    assert solution.iterations == iterations
    for step, (partition, u, contact, want) in enumerate(
            zip(solution.partitions, solution.vectors[1:], contacts, values, strict=True)):
        assert np.array_equal(partition.contact[order], contact), step
        got = u.cells[order]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), step


@pytest.mark.parametrize("level, box, lam", [
    (6, SQUARE, (1.0, 1.0)),
    (6, SQUARE, (1.0, 3.0)),
    (5, (-3.0, 3.0, -1.0, 1.0), (1.0, 1.0)),
], ids=["identity", "anisotropic", "wide-box"])
def test_cartesian_test2_march_is_the_five_point_march(level, box, lam):
    spec = builtin_case("test2").spec
    grid = TimeGrid.uniform_from_dt(spec.final_time, 0.01)
    assert grid.n_steps == 10
    _assert_five_point_march(spec, level, box, lam, grid)


@pytest.mark.parametrize("level, dt", [(5, 0.01), (6, 0.01), (5, 1 / 256)],
                         ids=["level5", "level6", "level5-small-step"])
def test_cartesian_test1_march_is_the_five_point_march(level, dt):
    case = builtin_case("test1")
    assert case.bbox == SQUARE and case.spec.dirichlet is not None
    grid = TimeGrid.uniform_from_dt(case.spec.final_time, dt)
    _assert_five_point_march(case.spec, level, SQUARE, (1.0, 1.0), grid)
