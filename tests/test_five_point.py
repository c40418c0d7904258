"""Cartesian test2 marches against the independent 5-point oracle.

``tpfaref`` shares no code with the library's geometry, assembly, Schur
plan or factorisation, so agreement here checks all of them at once.
"""

import numpy as np
import pytest

from hmmvi import TimeGrid, build_gd, builtin_case, generate_mesh, run_transient

import tpfaref

SQUARE = (-1.0, 1.0, -1.0, 1.0)


@pytest.mark.parametrize("level, box, lam", [
    (6, SQUARE, (1.0, 1.0)),
    (6, SQUARE, (1.0, 3.0)),
    (5, (-3.0, 3.0, -1.0, 1.0), (1.0, 1.0)),
], ids=["identity", "anisotropic", "wide-box"])
def test_cartesian_test2_march_is_the_five_point_march(level, box, lam):
    case = builtin_case("test2")
    spec = case.spec
    mesh = generate_mesh("cartesian", level, bbox=box)
    grid = TimeGrid.uniform_from_dt(spec.final_time, 0.01)
    assert grid.n_steps == 10
    solution = run_transient(build_gd(mesh, np.diag(lam)), spec, grid)

    n = 2**level
    A, area = tpfaref.five_point(n, n, box, lam)
    order = tpfaref.match(mesh.cell_points, n, n, box)
    iterations, contacts, values = tpfaref.march(
        A, area, tpfaref.centres(n, n, box), grid.nodes, spec.source, spec.obstacle,
        spec.initial)

    assert solution.iterations == iterations
    for step, (partition, u, contact, want) in enumerate(
            zip(solution.partitions, solution.vectors[1:], contacts, values, strict=True)):
        assert np.array_equal(partition.contact[order], contact), step
        got = u.cells[order]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), step
