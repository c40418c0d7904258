"""Cell quadrature rules against the frozen per-triangle reference."""

import numpy as np
import pytest

from hmmvi import MESH_FAMILIES, PolytopalMesh, generate_mesh
from hmmvi.quadrature import cell_rule

import quadref
from cellref import cell_slices


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _meshes():
    for family in MESH_FAMILIES:
        for level in (1, 2):
            yield f"{family}-{level}", generate_mesh(family, level)
    hexagons = generate_mesh("hexagonal", 2)
    loops = [loc.tolist() for loc in cell_slices(hexagons, hexagons.corner_vertices)]
    # Reversed lists are put back in counterclockwise order by the mesh;
    # rotating them as well moves the first corner of every cell.
    yield "hexagonal-2-reversed", PolytopalMesh(hexagons.vertices, [c[::-1] for c in loops])
    yield "hexagonal-2-reversed-rotated", PolytopalMesh(
        hexagons.vertices, [(c[1:] + c[:1])[::-1] for c in loops])


@pytest.mark.parametrize("name, mesh", list(_meshes()))
@pytest.mark.parametrize("rule", ["fan3"])  # the reference's rule; cell_rule is fan3
def test_cell_rule_matches_per_triangle_reference_bitwise(name, mesh, rule):
    for k in range(mesh.n_cells):
        pts, w = cell_rule(mesh, k)
        ref_pts, ref_w = quadref.cell_rule(mesh, k, rule)
        assert _same_bits(pts, ref_pts), (name, k)
        assert _same_bits(w, ref_w), (name, k)


def test_hexagonal_levels_one_and_two_mix_three_to_six_edges():
    counts = [np.diff(generate_mesh("hexagonal", level).cell_offsets) for level in (1, 2)]
    assert set(np.concatenate(counts).tolist()) == {3, 4, 5, 6}
