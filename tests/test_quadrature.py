"""Cell quadrature rules against the frozen per-triangle reference."""

import gc
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmvi.quadrature
from hmmvi import (MESH_FAMILIES, PolytopalMesh, TimeGrid, build_gd, builtin_case,
                   error_norms, gd_quality_report, generate_mesh, run_transient)
from hmmvi.diagnostics import _cell_quad_flat
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


# The largest relative gap measured on these meshes is 1.05e-13, on kershaw 5
# in the flat box.
@pytest.mark.parametrize("box", [(-1.0, 1.0, -1.0, 1.0), (0.0, 1.0, 0.0, 0.7)])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_fan_weights_are_the_triangle_areas_to_rounding(family, level, box):
    # |sigma| d / 2 and the cross product are two formulas for one area.
    mesh = generate_mesh(family, level, bbox=box)
    areas = []
    for xk, loc in zip(mesh.cell_points, cell_slices(mesh, mesh.corner_vertices)):
        v = mesh.vertices[loc]
        areas += [quadref.cross_area(np.array([xk, a, b])) for a, b in zip(v, np.roll(v, -1, 0))]
    w = hmmvi.quadrature._fan_table(mesh)[1]
    want = np.repeat(areas, 3) / 3.0
    assert np.all(np.abs(w - want) <= 1e-12 * want)


def test_hexagonal_levels_one_and_two_mix_three_to_six_edges():
    counts = [np.diff(generate_mesh("hexagonal", level).cell_offsets) for level in (1, 2)]
    assert set(np.concatenate(counts).tolist()) == {3, 4, 5, 6}


@st.composite
def star_cells(draw):
    """One star-shaped cell: corners at increasing angles around a centre."""
    n = draw(st.integers(3, 12))
    jitter = st.floats(-0.4, 0.4)
    angles = [2.0 * np.pi * (j + draw(jitter)) / n for j in range(n)]
    radii = [draw(st.floats(0.05, 1.0)) for _ in range(n)]
    size = 10.0 ** draw(st.floats(-2.0, 1.0))
    aspect = 10.0 ** draw(st.floats(-6.0, 0.0))
    turn = draw(st.floats(0.0, 2.0 * np.pi))
    centre = np.array([draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))])
    local = size * np.column_stack((np.multiply(radii, np.cos(angles)),
                                    aspect * np.multiply(radii, np.sin(angles))))
    c, s = np.cos(turn), np.sin(turn)
    vertices = centre + local @ np.array([[c, s], [-s, c]])
    order = list(range(n))
    if draw(st.booleans()):
        order.reverse()
    points = [centre] if draw(st.booleans()) else None
    return vertices, [order], points


# Far from the origin, thin cells round their corners onto a few floats, so
# their edge midpoints and cross products take float paths that the
# generated meshes never reach.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cell=star_cells())
def test_cell_rule_matches_reference_bitwise_on_random_star_cells(cell):
    mesh = PolytopalMesh(*cell)
    pts, w = cell_rule(mesh, 0)
    ref_pts, ref_w = quadref.cell_rule(mesh, 0)
    assert _same_bits(pts, ref_pts)
    assert _same_bits(w, ref_w)


def _hex_floats(value):
    if isinstance(value, dict):
        return {key: _hex_floats(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_hex_floats(v) for v in value]
    if isinstance(value, (float, np.ndarray)):
        return [float(v).hex() for v in np.ravel(value)]
    return value


def _downstream_numbers():
    reports = [asdict(gd_quality_report(build_gd(generate_mesh(family, level))))
               for family, level in (("hexagonal", 3), ("kershaw", 2))]
    case = builtin_case("test1")
    gd = build_gd(generate_mesh("triangular", 4))
    solution = run_transient(gd, case.spec, TimeGrid(case.spec.final_time, 3))
    norms = error_norms(gd, solution, case.u_exact, case.grad_exact, rule="fan3")
    return _hex_floats({"quality": [{key: report[key] for key in ("c_d", "w_d", "s_d", "i_d0")}
                                    for report in reports],
                        "norms": asdict(norms)})


def test_quality_report_and_error_norms_match_the_reference_kernel_bitwise(monkeypatch):
    got = _downstream_numbers()
    monkeypatch.setattr(hmmvi.quadrature, "cell_rule", quadref.cell_rule)
    assert _downstream_numbers() == got


def test_second_flattening_of_a_mesh_reuses_its_fan_table():
    mesh = generate_mesh("hexagonal", 2)
    first = _cell_quad_flat(mesh, "fan3")
    table = hmmvi.quadrature._fans[mesh]
    second = _cell_quad_flat(mesh, "fan3")
    assert hmmvi.quadrature._fans[mesh] is table
    for a, b in zip(first, second):
        assert _same_bits(a, b)
    # Every cell_rule result is a view of the table, not a copy.
    pts, w = cell_rule(mesh, mesh.n_cells - 1)
    assert np.shares_memory(pts, table[0]) and np.shares_memory(w, table[1])


def test_fan_table_goes_with_its_mesh():
    gc.collect()
    before = len(hmmvi.quadrature._fans)
    mesh = generate_mesh("kershaw", 1)
    _cell_quad_flat(mesh, "fan3")
    assert len(hmmvi.quadrature._fans) == before + 1
    alive = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert alive() is None
    assert len(hmmvi.quadrature._fans) == before


def test_cell_rule_results_are_read_only():
    mesh = generate_mesh("hexagonal", 1)
    pts, w = cell_rule(mesh, 0)
    kept = pts.copy(), w.copy()
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0
    with pytest.raises(ValueError):
        w[:] = 1.0
    with pytest.raises(ValueError):
        pts.flags.writeable = True
    again = cell_rule(mesh, 0)
    assert _same_bits(again[0], kept[0]) and _same_bits(again[1], kept[1])
