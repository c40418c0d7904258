"""Mesh generation, validation and file IO."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hmmvi.mesh
from hmmvi import (MESH_FAMILIES, MeshFormatError, MeshGenerationError,
                   MeshValidationError, PolytopalMesh, generate_mesh, load_mesh,
                   mesh_size, save_mesh, validate)
from hmmvi.mesh import GEOM_TOL, _generate_hexagonal, _round10

import meshref
from cellref import cell_slice, cell_slices


def test_cartesian_level_one_counts():
    m = generate_mesh("cartesian", 1)
    assert m.n_cells == 4
    assert m.n_edges == 12
    assert np.allclose(m.cell_areas, 1.0)
    assert mesh_size(m) == pytest.approx(np.sqrt(2.0))


def test_triangular_counts_and_size():
    m = generate_mesh("triangular", 3)
    assert m.n_cells == 2 * 3 * 3
    assert mesh_size(m) == pytest.approx(2.0 * np.sqrt(2.0) / 3)
    assert np.sum(m.cell_areas) == pytest.approx(4.0)


def test_hexagonal_has_polygon_mix():
    m = generate_mesh("hexagonal", 2)
    sides = set(np.diff(m.cell_offsets).tolist())
    assert 6 in sides
    assert any(s < 6 for s in sides), "clipping at the box should cut some cells"
    assert np.sum(m.cell_areas) == pytest.approx(4.0)


def test_kershaw_is_distorted_but_valid():
    m = generate_mesh("kershaw", 2)
    assert m.metadata["family"] == "kershaw"
    assert m.metadata["distortion_amplitude"] > 0
    report = validate(m)
    assert report["min_edge_distance"] > 0
    assert np.sum(m.cell_areas) == pytest.approx(4.0)


def test_kershaw_mesh_is_built_and_validated_once(monkeypatch):
    calls = {"build": 0, "validate": 0}
    init, check = PolytopalMesh.__init__, hmmvi.mesh.validate

    def counting_init(self, *args, **kwargs):
        calls["build"] += 1
        init(self, *args, **kwargs)

    def counting_validate(mesh):
        calls["validate"] += 1
        return check(mesh)

    monkeypatch.setattr(PolytopalMesh, "__init__", counting_init)
    monkeypatch.setattr(hmmvi.mesh, "validate", counting_validate)
    generate_mesh("kershaw", 3)
    assert calls == {"build": 1, "validate": 1}


@pytest.mark.parametrize("bbox", [(-1.0, 1.0, -1.0, 1.0), (0.0, 1.0, 0.0, 0.01),
                                  (1e6, 1e6 + 1.0, -3.0, 7.0)])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_kershaw_amplitude_is_fixed(level, bbox):
    m = generate_mesh("kershaw", level, bbox)
    assert m.metadata["distortion_amplitude"] == hmmvi.mesh.KERSHAW_AMPLITUDE == 0.21
    assert m.metadata["distortion_waves"] == 2
    assert "target_amplitude" not in m.metadata


def test_kershaw_box_too_thin_to_mesh_fails_like_cartesian():
    for family in ("cartesian", "kershaw"):
        with pytest.raises(MeshValidationError, match="edge 1 has zero length"):
            generate_mesh(family, 1, (0.0, 1.0, 0.0, 1e-300))


@pytest.mark.parametrize("vertices, message", [
    ([[0, 0], [1e200, 0], [0, 1]], r"cell 0: centroid has non-finite coordinates \[inf"),
    ([[0, 0], [1e200, 0], [0, 1e200]], "cell 0 has a non-finite area"),
    ([[0, 0], [1e160, 0], [0, 1e-160]], "edge 0 has non-finite length")])
def test_geometry_that_overflows_is_refused_without_warnings(vertices, message):
    # RuntimeWarnings are errors under this suite's warning filter.
    with pytest.raises(MeshValidationError, match=message):
        PolytopalMesh(vertices, [[0, 1, 2]])


def test_cell_id_beyond_int64_is_an_unknown_vertex():
    # The id overflows the flat int array before any range check sees it.
    with pytest.raises(MeshValidationError, match=r"^cell 1 references an unknown vertex$"):
        PolytopalMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2], [0, 1, 2**63]])


def test_vertex_array_of_three_columns_is_refused():
    with pytest.raises(MeshValidationError, match=r"^vertex array must have shape \(nv, 2\)$"):
        PolytopalMesh(np.zeros((4, 3)), [[0, 1, 2]])


def test_box_of_zero_width_is_degenerate():
    with pytest.raises(MeshGenerationError,
                       match=r"^degenerate bounding box \(0\.0, 0\.0, 0\.0, 1\.0\)$"):
        generate_mesh("cartesian", 2, (0.0, 0.0, 0.0, 1.0))


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_generated_meshes_validate(family):
    for n in (1, 2):
        m = generate_mesh(family, n)
        report = validate(m)
        assert report["euler_characteristic"] == 1
        assert report["max_closure_defect"] < 1e-12 * 8.0
        assert report["area_defect"] < 1e-12


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_outward_normals_close_up(family):
    m = generate_mesh(family, 2)
    for k in range(m.n_cells):
        lengths = m.edge_lengths[cell_slice(m, m.corner_edges, k)]
        total = lengths @ cell_slice(m, m.corner_normals, k)
        assert np.abs(total).max() < 1e-13 * lengths.sum()
        assert np.all(cell_slice(m, m.corner_edge_dists, k) > 0)


def test_clockwise_cells_are_normalized():
    cw = PolytopalMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        [[0, 3, 2, 1]])
    assert cw.cell_areas[0] == pytest.approx(1.0)
    for j, e in enumerate(cell_slice(cw, cw.corner_edges, 0)):
        mid = cw.edge_centers[e]
        assert (mid - cw.cell_points[0]) @ cw.corner_normals[j] > 0


def test_custom_cell_point_must_be_inside_star_region():
    bad = PolytopalMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        [[0, 1, 2, 3]],
        cell_points=[[2.0, 0.5]])
    with pytest.raises(MeshValidationError, match="cell 0"):
        validate(bad)


def test_nonconforming_interface_is_rejected():
    # The lower cell spans the full width with a single top edge while two
    # upper cells each cover half of it.  The hanging vertex (1, 1) is listed
    # by the upper cells only, so the mesh has 8 vertices, 10 edges and 3
    # cells, and the Euler check stops it before the boundary-edge check.
    verts = np.array([
        [0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [0.0, 1.0],
        [0.0, 2.0], [1.0, 2.0], [2.0, 2.0]])
    cells = [[0, 1, 2, 4], [4, 3, 6, 5], [3, 2, 7, 6]]
    m = PolytopalMesh(verts, cells)
    with pytest.raises(MeshValidationError, match="Euler characteristic"):
        validate(m)


def test_slit_between_two_cells_is_rejected():
    # Four unit squares on [0, 2]^2, but vertex 9 is a second copy of (1, 0)
    # and the lower right cell uses it: the two lower cells do not share
    # their edge up to (1, 1).  The areas tile the box and V - E + F =
    # 10 - 13 + 4 = 1, so only the boundary-edge check sees the slit.
    verts = np.array([[x, y] for y in (0.0, 1.0, 2.0) for x in (0.0, 1.0, 2.0)]
                     + [[1.0, 0.0]])
    cells = [[0, 1, 4, 3], [9, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7]]
    with pytest.raises(MeshValidationError,
                       match=r"^edge 1 has one owning cell but does not lie on the "
                             r"domain boundary \(possible hanging node or crack\)$"):
        validate(PolytopalMesh(verts, cells))


def test_pentagon_with_straight_vertex_is_conforming():
    # Same geometry as above but the lower cell lists the interface midpoint,
    # which makes the split legal for a polytopal mesh.
    verts = np.array([
        [0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [0.0, 1.0],
        [0.0, 2.0], [1.0, 2.0], [2.0, 2.0]])
    cells = [[0, 1, 2, 3, 4], [4, 3, 6, 5], [3, 2, 7, 6]]
    report = validate(PolytopalMesh(verts, cells))
    assert report["n_cells"] == 3
    assert report["euler_characteristic"] == 1


def test_more_than_two_owners_is_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [-1.0, 1.0]])
    with pytest.raises(MeshValidationError, match="more than two"):
        PolytopalMesh(verts, [[0, 1, 2], [1, 3, 2], [0, 2, 4], [0, 1, 2]])


def test_generation_cell_budget(monkeypatch):
    monkeypatch.setattr(hmmvi.mesh, "MAX_CELLS", 10)
    with pytest.raises(MeshGenerationError):
        generate_mesh("cartesian", 2)


def test_max_level_is_the_last_triangular_level_within_the_budget():
    n = hmmvi.mesh.MAX_LEVEL
    assert 2 * n * n <= hmmvi.mesh.MAX_CELLS < 2 * (n + 1) ** 2


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_level_above_max_level_is_refused(family):
    n = hmmvi.mesh.MAX_LEVEL + 1
    with pytest.raises(MeshGenerationError,
                       match=rf"^refinement level must be 1 to {n - 1}, got {n}$"):
        generate_mesh(family, n)


# From level 538 on the squared circumradius underflows to zero.
@pytest.mark.parametrize("level", [538, hmmvi.mesh.MAX_LEVEL])
def test_hexagonal_level_with_a_vanishing_circumradius_is_over_budget(level):
    with pytest.raises(MeshGenerationError, match="more than the budget"):
        generate_mesh("hexagonal", level)


def _exact_area_error(mesh) -> float:
    """Worst relative error of ``cell_areas`` against the shoelace areas of
    the mesh's own float vertices, summed exactly in rationals."""
    worst = Fraction(0)
    for ids, area in zip(cell_slices(mesh, mesh.corner_vertices), mesh.cell_areas):
        p = [(Fraction(x), Fraction(y)) for x, y in mesh.vertices[ids].tolist()]
        exact = abs(sum(x0 * y1 - x1 * y0
                        for (x0, y0), (x1, y1) in zip(p, p[1:] + p[:1]))) / 2
        worst = max(worst, abs(Fraction(float(area)) - exact) / exact)
    return float(worst)


@pytest.mark.parametrize("family, level", [("kershaw", 2), ("kershaw", 3),
                                           ("hexagonal", 3)])
def test_cell_areas_match_exact_rational_areas(family, level):
    assert _exact_area_error(generate_mesh(family, level)) <= 1e-15


# Within 2 * ON_LINE_TOL circumradii a point would lie on both parallel lines.
_THIN_HEXAGONAL_BOXES = [(0.0, 1.0, 0.0, 1e-7), (0.0, 1.0, 0.1, 0.1 + 1e-7),
                         (0.1, 0.1 + 1e-7, 0.0, 1.0)]


@pytest.mark.parametrize("bbox", _THIN_HEXAGONAL_BOXES)
@pytest.mark.parametrize("level", [1, 3])
def test_hexagonal_box_thinner_than_the_on_line_tolerance_is_refused(level, bbox):
    with pytest.raises(MeshGenerationError, match=r"hexagonal box .* wider and taller"):
        generate_mesh("hexagonal", level, bbox)


# Just above that limit, and away from the origin, where cell areas from
# absolute coordinates would miss the box area by more than GEOM_TOL.
_THIN_HEXAGONAL_BOXES_ABOVE_THE_LIMIT = [(0.0, 1.0, 0.1, 0.1 + 3e-6),
                                         (0.1, 0.1 + 3e-6, 0.0, 1.0),
                                         (-1.5, 0.5, 1.7, 1.7 + 1e-5)]


@pytest.mark.parametrize("bbox", _THIN_HEXAGONAL_BOXES_ABOVE_THE_LIMIT)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_thin_hexagonal_box_above_the_limit_meshes_and_validates(level, bbox):
    mesh = generate_mesh("hexagonal", level, bbox)  # validates
    assert validate(mesh)["area_defect"] <= GEOM_TOL
    assert _exact_area_error(mesh) <= 1e-15
    assert mesh.bbox == tuple(_round10(np.array(bbox)).tolist())


@pytest.mark.parametrize("bbox", _THIN_HEXAGONAL_BOXES_ABOVE_THE_LIMIT)
def test_thin_hexagonal_box_with_a_cell_missing_fails_the_area_check(bbox):
    mesh = generate_mesh("hexagonal", 3, bbox)
    cells = [c.tolist() for c in cell_slices(mesh, mesh.corner_vertices)]
    del cells[len(cells) // 2]
    with pytest.raises(MeshValidationError, match="cell areas sum to"):
        validate(PolytopalMesh(mesh.vertices, cells))


def test_unknown_family():
    with pytest.raises(MeshGenerationError):
        generate_mesh("voronoi", 2)


def test_json_roundtrip_is_exact(tmp_path):
    m = generate_mesh("hexagonal", 2)
    path = tmp_path / "hex.json"
    save_mesh(m, path)
    m2 = load_mesh(path)
    assert np.array_equal(m.vertices, m2.vertices)
    assert np.array_equal(m.cell_offsets, m2.cell_offsets)
    assert np.array_equal(m.corner_vertices, m2.corner_vertices)
    assert np.array_equal(m.cell_points, m2.cell_points)
    assert m2.metadata["family"] == "hexagonal"


def test_text_format_roundtrip(tmp_path):
    path = tmp_path / "two.typ2"
    path.write_text(
        "# two unit squares\n"
        "6\n"
        "0.0 0.0\n1.0 0.0\n2.0 0.0\n0.0 1.0\n1.0 1.0\n2.0 1.0\n"
        "2\n"
        "4  1 2 5 4\n"
        "4  2 3 6 5\n")
    m = load_mesh(path)
    assert m.n_cells == 2
    assert m.n_edges == 7
    assert np.allclose(m.cell_areas, 1.0)


def test_text_format_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.typ2"
    path.write_text("2\n0 0\n1 0\n1\n3 1 2\n")
    with pytest.raises(MeshFormatError, match=r"bad\.typ2:5"):
        load_mesh(path)


def test_mesh_format_comes_from_the_content(tmp_path):
    native = tmp_path / "hex.json"
    save_mesh(generate_mesh("hexagonal", 2), native)
    (tmp_path / "two.typ2").write_text(
        "# two unit squares\n6\n0 0\n1 0\n2 0\n0 1\n1 1\n2 1\n2\n4 1 2 5 4\n4 2 3 6 5\n")
    for usual, other in ((native, tmp_path / "hex.txt"), (native, tmp_path / "hex"),
                         (tmp_path / "two.typ2", tmp_path / "two.json")):
        other.write_text(usual.read_text())
        a, b = load_mesh(usual), load_mesh(other)
        for name in ("vertices", "cell_offsets", "corner_vertices", "cell_points"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.metadata == b.metadata


def test_text_format_line_numbers_count_newlines_only(tmp_path):
    # a form feed is not a line break: the short cell is on the file's line 6
    path = tmp_path / "bad.typ2"
    path.write_text("# page one\f page two\n2\n0 0\n1 0\n1\n3 1 2\n")
    with pytest.raises(MeshFormatError, match=r"bad\.typ2:6: cell 0 announces 3"):
        load_mesh(path)


def test_text_format_end_of_file_names_the_last_line(tmp_path):
    path = tmp_path / "short.typ2"
    path.write_text("2\n0 0\n1 0\n")
    with pytest.raises(MeshFormatError, match="unexpected end of file at line 3$"):
        load_mesh(path)


def test_json_loader_requires_marker(tmp_path):
    path = tmp_path / "plain.json"
    path.write_text('{"vertices": [], "cells": []}')
    with pytest.raises(MeshFormatError, match="marker"):
        load_mesh(path)


def test_native_json_metadata_must_be_an_object(tmp_path):
    path = tmp_path / "meta.json"
    path.write_text(json.dumps({"format": "polytopal-mesh", "version": 1,
                                "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                                "cells": [[0, 1, 2, 3]], "metadata": [1, 2]}))
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert str(info.value) == f"{path}: 'metadata' must be a JSON object"


def test_validate_names_a_cell_whose_normals_do_not_close():
    # PolytopalMesh builds normals that close to rounding; stored normals
    # that disagree with the edges are the defect validate reports first.
    m = generate_mesh("cartesian", 1)
    normals = m.corner_normals.copy()
    normals[0] *= -1.0
    m.corner_normals = normals
    with pytest.raises(MeshValidationError,
                       match=r"^cell 0: edge normals do not close up \(defect 2\.000e\+00\)$"):
        validate(m)


def test_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(MeshFormatError, match="cannot read"):
        load_mesh(tmp_path / "nope.json")


def test_arrays_are_read_only():
    m = generate_mesh("cartesian", 1)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 99.0
    with pytest.raises(ValueError):
        m.cell_areas[0] = -1.0


def test_mesh_keeps_copies_of_the_given_arrays():
    # Views of writable arrays: writing through them must not reach the mesh.
    table = np.array([[0.0, 0.0, 0.5, 0.5], [1.0, 0.0, 0.5, 0.5],
                      [1.0, 1.0, 0.5, 0.5], [0.0, 1.0, 0.5, 0.5]])
    m = PolytopalMesh(table[:, :2], [[0, 1, 2, 3]], cell_points=table[:1, 2:])
    table[:] = 7.0
    assert m.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    assert m.cell_points.tolist() == [[0.5, 0.5]]
    assert table.flags.writeable


def test_nonfinite_vertices_and_cell_points_are_rejected():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    bad = square.copy()
    bad[2, 1] = np.nan
    with pytest.raises(MeshValidationError, match=r"vertex 2 has non-finite"):
        PolytopalMesh(bad, [[0, 1, 2, 3]])
    with pytest.raises(MeshValidationError, match=r"cell 0: point x_K has non-finite"):
        PolytopalMesh(square, [[0, 1, 2, 3]], cell_points=[[np.nan, 0.5]])


# -- parity with the frozen per-cell construction ------------------------------


def _rel(a, b) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - b))) / scale


def _assert_same_mesh(mesh, ref):
    """Topology bitwise, geometry to 1e-14 relative."""
    assert (mesh.n_cells, mesh.n_edges) == (ref.n_cells, ref.n_edges)
    for name, flat in (("cell_vertices", mesh.corner_vertices),
                       ("cell_edges", mesh.corner_edges)):
        got, want = cell_slices(mesh, flat), getattr(ref, name)
        assert len(got) == len(want)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))
    for name in ("edge_vertices", "edge_cells"):
        assert np.array_equal(getattr(mesh, name), getattr(ref, name))
    for name in ("cell_areas", "cell_diameters", "cell_points", "edge_centers",
                 "edge_lengths"):
        assert _rel(getattr(mesh, name), getattr(ref, name)) <= 1e-14, name
    for name, flat in (("cell_normals", mesh.corner_normals),
                       ("cell_edge_dists", mesh.corner_edge_dists)):
        assert _rel(flat, np.concatenate(getattr(ref, name))) <= 1e-14, name
    assert mesh.bbox == ref.bbox


def _assert_same_report(report, ref):
    assert report.keys() == ref.keys()
    for key, want in ref.items():
        if key == "max_closure_defect":
            # Already relative to the perimeter, and rounding noise on a
            # valid mesh, so it is compared absolutely.
            assert abs(report[key] - want) <= 1e-14
        elif isinstance(want, float):
            assert abs(report[key] - want) <= 1e-14 * abs(want), key
        else:
            assert report[key] == want, key


def _outcome(build, check, vertices, cells, points):
    try:
        mesh = build(vertices, cells, points)
    except MeshValidationError as exc:
        return None, str(exc)
    try:
        return mesh, check(mesh)
    except MeshValidationError as exc:
        return mesh, str(exc)


def _assert_same_outcome(mesh, report, ref, ref_report):
    """Both builders fail with the same message, or build the same mesh and
    both validations fail alike or give the same report."""
    assert (mesh is None) == (ref is None)
    if mesh is None:
        assert report == ref_report
    else:
        _assert_same_mesh(mesh, ref)
        if isinstance(ref_report, str):
            assert report == ref_report
        else:
            _assert_same_report(report, ref_report)


# Levels 1 to 3 of every family, and one larger level each, so that the
# constructor's array passes are pinned beyond the smallest meshes.
REFERENCE_LEVELS = [(family, level) for family in MESH_FAMILIES for level in (1, 2, 3)] + [
    ("cartesian", 4), ("triangular", 16), ("hexagonal", 4), ("kershaw", 4)]


@pytest.mark.parametrize("layout", ["given", "reversed", "alternate"])
@pytest.mark.parametrize("family, level", REFERENCE_LEVELS)
def test_mesh_matches_per_cell_reference(family, level, layout):
    generated = generate_mesh(family, level)
    vertices = generated.vertices
    cells = [c.tolist() for c in cell_slices(generated, generated.corner_vertices)]
    if layout == "reversed":
        cells = [c[::-1] for c in cells]
    elif layout == "alternate":
        cells = [c[::-1] if k % 2 else c for k, c in enumerate(cells)]
    mesh = PolytopalMesh(vertices, cells)
    ref = meshref.ReferenceMesh(vertices, cells)
    _assert_same_mesh(mesh, ref)
    _assert_same_report(validate(mesh), meshref.validate(ref))
    if family != "hexagonal":
        # Cells of one size may also be given as a 2-D array.
        _assert_same_mesh(PolytopalMesh(vertices, np.array(cells)), ref)


@pytest.mark.parametrize("cells, points", [
    ([[0, 1, 2, 4], [4, 3, 6, 5], [3, 2, 7, 6]], None),      # nonconforming
    ([[0, 1, 2, 3, 4], [4, 3, 6, 5], [3, 2, 7, 6]], None),   # conforming
    ([[0, 1, 2, 3, 4], [4, 3, 6, 5], [3, 2, 7, 6]],
     [[1.0, 0.5], [0.5, 1.5], [1.5, 2.5]]),                  # x_K outside
    ([[0, 1, 2, 4], [4, 3, 6, 5], [3, 2, 7, 6], [2, 1, 0, 4]], None),  # third owner
])
def test_hand_made_meshes_match_per_cell_reference(cells, points):
    verts = np.array([
        [0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [0.0, 1.0],
        [0.0, 2.0], [1.0, 2.0], [2.0, 2.0]])
    mesh, report = _outcome(PolytopalMesh, validate, verts, cells, points)
    ref, ref_report = _outcome(meshref.ReferenceMesh, meshref.validate,
                               verts, cells, points)
    _assert_same_outcome(mesh, report, ref, ref_report)


DEFECTS = ("none", "few", "unknown", "repeat", "collinear", "third_owner",
           "zero_length", "outside_point", "hanging", "two_cells")


@st.composite
def defective_meshes(draw, defect):
    """A jittered grid of squares and triangles with one defect injected.

    Short cells and unknown ids may also repeat ids, and ``two_cells`` puts a
    zero-area cell and an unknown id in two different cells, so the order in
    which defects are reported is exercised too.
    """
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    X, Y = np.meshgrid(np.arange(nx + 1.0), np.arange(ny + 1.0), indexing="ij")
    verts = np.column_stack((X.ravel(), Y.ravel()))
    inner = (verts[:, 0] > 0) & (verts[:, 0] < nx) & (verts[:, 1] > 0) & (verts[:, 1] < ny)
    shift = draw(st.lists(st.floats(-0.2, 0.2), min_size=2 * len(verts),
                          max_size=2 * len(verts)))
    verts[inner] += np.reshape(shift, (-1, 2))[inner]
    verts = verts.tolist()

    cells = []
    for i in range(nx):
        for j in range(ny):
            v = i * (ny + 1) + j
            square = [v, v + ny + 1, v + ny + 2, v + 1]
            if draw(st.booleans()):
                cells.append(square)
            else:
                cells += [square[:3], [square[0], square[2], square[3]]]
    for k, c in enumerate(cells):
        turn = draw(st.integers(0, len(c) - 1))
        c = c[turn:] + c[:turn]
        cells[k] = c[::-1] if draw(st.booleans()) else c

    k = draw(st.integers(0, len(cells) - 1))
    j = draw(st.integers(0, len(cells[k]) - 1))
    c = cells[k]
    nv = len(verts)
    points = None
    outside = st.sampled_from([-1, nv + 3, nv + 7])
    if defect == "few":
        cells[k] = draw(st.lists(st.sampled_from(c) | outside, max_size=2))
    elif defect in ("unknown", "two_cells"):
        c[j] = draw(outside)
        if draw(st.booleans()):
            c[(j + 1) % len(c)] = c[j]
    elif defect == "repeat":
        c[j] = c[(j + draw(st.integers(1, len(c) - 1))) % len(c)]
    if defect in ("collinear", "two_cells"):
        verts += [[0.0, 0.5], [0.5, 0.5], [1.0, 0.5]]
        cells.insert(draw(st.integers(0, len(cells))), [nv, nv + 1, nv + 2])
    elif defect == "third_owner":
        cells.insert(draw(st.integers(0, len(cells))), c[::-1])
    elif defect == "zero_length":
        verts.append(list(verts[c[j]]))
        c.insert(j + 1, nv)
    elif defect == "hanging":
        a, b = verts[c[j]], verts[c[(j + 1) % len(c)]]
        verts.append([0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])])
        c.insert(j + 1, nv)
    elif defect == "outside_point":
        points = [np.mean([verts[v] for v in cell], axis=0) for cell in cells]
        points[k] = points[k] + [draw(st.floats(-3.0, 3.0)), 3.0]
    return np.array(verts), cells, points


@pytest.mark.parametrize("defect", DEFECTS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_defective_meshes_match_per_cell_reference(defect, data):
    vertices, cells, points = data.draw(defective_meshes(defect))
    mesh, report = _outcome(PolytopalMesh, validate, vertices, cells, points)
    ref, ref_report = _outcome(meshref.ReferenceMesh, meshref.validate,
                               vertices, cells, points)
    _assert_same_outcome(mesh, report, ref, ref_report)


# Wide, tall and off-centre boxes exercise each axis of the lattice alone.
@pytest.mark.parametrize("bbox", [(-1.0, 1.0, -1.0, 1.0), (0.0, 1.0, 0.0, 0.7),
                                  (-0.3, 2.1, -1.7, 0.4), (0.0, 3.0, 0.0, 0.2),
                                  (0.0, 0.2, 0.0, 3.0), (-2.5, 3.5, 0.2, 0.9)])
@pytest.mark.parametrize("level", range(1, 7))
def test_hexagonal_generator_matches_per_hexagon_reference_bitwise(level, bbox):
    # tobytes also tells -0.0 from 0.0, which the (0, 1, 0, 0.7) box produces
    # where a clipped corner rounds to zero from below.
    a = 0.5 / 2 ** (level - 1)
    mesh = generate_mesh("hexagonal", level, bbox)
    ref = meshref._generate_hexagonal(a, bbox)
    for name in ("vertices", "cell_offsets", "corner_vertices"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


# sha256 of each box's vertices, cell_offsets and corner_vertices (tobytes)
# at levels 1 to 6, taken from the per-hexagon Python clip.  It also pins the
# boxes near the lattice, where tests/meshref.py is no oracle.
@pytest.mark.parametrize("bbox, digest", [
    ((-1.0, 1.0, -1.0, 1.0),
     "f034bb617a0593ab50c5b36b389afd5a548d19f04ef85a124c8470249413198a"),
    ((-1.0, 0.9999999999, -1.0, 0.9999999999),
     "b20897fe58d8956d65fcf1b611a72b267834736d21a04a0377cfef34ff0002c2"),
    ((-0.3, 2.1 + 1e-10, -1.7, 0.4),
     "e24f9ed2128e5c92796ee8c2b9a4cb9141900b279b120e4eb4aa58e4afd72d17"),
    ((0.0, 1.0, 0.0, 0.5 * 3.0 ** 0.5 + 1e-8),
     "e030cee8caeaeea1fc3fd2417adeada9a18cce50030cb1c786ccd9aa2b0d52fc"),
    ((0.0, 1.0, 0.0, 0.5 * 3.0 ** 0.5 + 1e-10),
     "9fbcf44f91750f3c2681bf8d238f7fc40569cec6c308dabba0cc504096731e6f"),
    ((0.0, 1.0, -1e-8, 0.5 * 3.0 ** 0.5 - 1e-8),
     "3e936690f78feb3c3b7f3f5ec1c536fe03eb5f65f0acb67916f2945c9e2fe782"),
    ((-0.375, 0.375, -(3.0 ** 0.5 / 8 + 1e-11), 3.0 ** 0.5 / 8 + 1e-11),
     "32a50b70ff80006cda20c5b52f161d20d1bd0d2edd70d7a9dfd6522db3bef04e"),
    ((0.0, 3.0, 0.0, 0.2),
     "1a5f24338dd9a52785f05dff0dbf9e765f379a5c558f4064d94ce4b104e4df99"),
    ((0.0, 0.2, 0.0, 3.0),
     "01f46a70c1937f4247c8f7543547f15f3543c724527e6f4bc1e078f78a929749"),
    ((-2.5, 3.5, 0.2, 0.9),
     "2af57f100070f4ee6b01b67ed682d7fcaa51d860745ba464b828aa98efaaf2b5"),
])
def test_hexagonal_generator_output_is_frozen(bbox, digest):
    h = hashlib.sha256()
    for level in range(1, 7):
        mesh = generate_mesh("hexagonal", level, bbox)
        for name in ("vertices", "cell_offsets", "corner_vertices"):
            h.update(getattr(mesh, name).tobytes())
    assert h.hexdigest() == digest


# The default box at levels 1, 3 and 5, the box near a corner row and the
# (0, 1, 0, 0.7) box have hexagons that only touch the box, at 1 or 2 points.
@pytest.mark.parametrize("level, bbox", [
    *((level, (-1.0, 1.0, -1.0, 1.0)) for level in range(1, 7)),
    (3, (0.0, 1.0, 0.0, 0.8660254137844386)),  # near a corner row
    (1, (0.0, 1.0, 0.1, 0.100003)),            # thin and offset
    (4, (0.0, 1.0, 0.0, 0.7)),
    (3, (-0.3, 2.1, -1.7, 0.4)),
])
def test_flat_hexagonal_cells_give_the_mesh_of_per_cell_lists(monkeypatch, level, bbox):
    passed = []

    def recording_mesh(vertices, cells, *args):
        passed.append((vertices, cells))
        return PolytopalMesh(vertices, cells, *args)

    monkeypatch.setattr(hmmvi.mesh, "PolytopalMesh", recording_mesh)
    mesh = generate_mesh("hexagonal", level, bbox)
    (vertices, cells), = passed
    assert isinstance(cells, hmmvi.mesh._FlatCells)
    bounds = np.concatenate(([0], np.cumsum(cells.counts))).tolist()
    ids = cells.ids.tolist()
    ref = PolytopalMesh(vertices, [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])])
    got, want = vars(mesh), vars(ref)
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            other = got[name]
            assert other.dtype == value.dtype and other.shape == value.shape, name
            assert other.tobytes() == value.tobytes(), name
        elif name != "metadata":
            assert got[name] == value, name


def test_vertex_rounding_equals_python_round_bitwise():
    rng = np.random.default_rng(3)
    x = np.concatenate((
        rng.uniform(-3.0, 3.0, 2000),
        (rng.integers(-10**10, 10**10, 2000) + 0.5) * 1e-10,  # next to a tie
        rng.integers(-2**14, 2**14, 200) * 2.0**-11,          # exact ties
        [0.0, -0.0, -1e-12, 1e-12, 1e3 + 1e-11, -2.5e-10, 1e20, -7e15],
    )).reshape(-1, 2)
    want = np.array([round(float(v), 10) for v in x.ravel()]).reshape(x.shape)
    assert _round10(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("bbox, ref_bbox", [
    pytest.param((-1.0, 1.0 + 1e-10, -1.0, 1.0 + 1e-10), None, id="bbox0"),
    pytest.param((-1.0 - 4e-11, 1.0 + 4e-11, -1.0, 1.0), (-1.0, 1.0, -1.0, 1.0), id="bbox1"),
    pytest.param((0.0, 1.0, 0.0, 0.5 * 3.0 ** 0.5), (0.0, 1.0, 0.0, 0.5 * 3.0 ** 0.5),
                 id="bbox2"),
])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_hexagonal_slivers_match_per_hexagon_reference_bitwise(level, bbox, ref_bbox):
    # Box lines within 1e-10 of a row or column of corners.  The reference
    # mesh of bbox0 fails validation.  bbox1 puts the corner columns x = +-1
    # 4e-11 inside the box at levels 1 and 3; they lie on its lines, so no
    # edge is cut next to them, while the reference keeps cut points 7e-11
    # above and below each of those corners (36 and 260 vertices against 24
    # and 232).  The mesh is the reference mesh of the box bbox1 rounds to,
    # which at level 2 is its own.
    a = 0.5 / 2 ** (level - 1)
    mesh = _generate_hexagonal(a, bbox)
    validate(mesh)
    assert mesh.bbox == tuple(_round10(np.array(bbox)))
    if ref_bbox is None:
        return
    ref = meshref._generate_hexagonal(a, ref_bbox)
    for name in ("vertices", "cell_offsets", "corner_vertices"):
        assert getattr(mesh, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("rel_gap", [2e-10, 3e-8, 6e-7])
@pytest.mark.parametrize("centred", [False, True])
@pytest.mark.parametrize("level", [1, 3])
def test_hexagonal_box_line_near_a_corner_column_is_snapped_onto_it(level, centred, rel_gap):
    # A right box line just past a column of corners: the corners move onto
    # the line, and the box is kept.
    a = 0.5 / 2 ** (level - 1)
    gap = rel_gap * a
    bbox = (-1.0 - gap, 1.0 + gap, -1.0, 1.0) if centred else (-1.0, 1.0 + gap, -1.0, 1.0 + gap)
    mesh = generate_mesh("hexagonal", level, bbox)
    assert mesh.metadata["bbox"] == list(bbox)
    assert mesh.bbox == tuple(_round10(np.array(bbox)))
    # every corner of the column is a vertex on the line, none 1e-10 beside it
    on_line = mesh.vertices[:, 0] == mesh.bbox[1]
    assert np.all(np.abs(mesh.vertices[~on_line, 0] - mesh.bbox[1]) > 0.1 * a)


@st.composite
def boxes_near_the_lattice(draw):
    """A level and a box whose lines or corners lie near the lattice.

    The lattice is centred on the box, so columns of corners lie m a/2 from
    the centre (m not a multiple of 3) and rows n sqrt(3) a/2.  Either each
    line lies on such a line, or the box corners lie on slanted lattice
    edges; then each is moved 1e-12 a to 1e-6 a to either side, or not at
    all.  The centre is drawn anywhere or on a tie of the 1e-10 grid.
    """
    level = draw(st.integers(1, 3))
    a = 0.5 / 2 ** (level - 1)

    def gap():
        return draw(st.sampled_from([-a, 0.0, a])) * 10.0 ** draw(st.floats(-12.0, -6.0))

    def centre():
        return draw(st.one_of(st.floats(-2.0, 2.0),
                              st.integers(-10**10, 10**10).map(lambda k: (k + 0.5) * 1e-10)))

    if draw(st.booleans()):
        half_x = 0.5 * a * draw(st.integers(2, 12)) + gap()
        half_y = 0.5 * np.sqrt(3.0) * a * draw(st.integers(1, 4)) + gap()
    else:
        # A box corner on or near the slanted edge from corner (m, n) to
        # (m + 1, n - 1) or (m + 1, n + 1): m = 1 mod 3 and m + n even.
        m = 3 * draw(st.integers(0, 3)) + 1
        n = 2 - m % 2 + 2 * draw(st.integers(0, 3))
        t = draw(st.floats(0.05, 0.95))
        half_x = 0.5 * a * (m + t) + gap()
        half_y = 0.5 * np.sqrt(3.0) * a * (n + draw(st.sampled_from([-t, t]))) + gap()
    cx, cy = centre(), centre()
    return level, (cx - half_x, cx + half_x, cy - half_y, cy + half_y)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=boxes_near_the_lattice())
@example(case=(1, (-1.0, 0.9999999999, -1.0, 0.9999999999)))
@example(case=(2, (-1.0, 0.9999999999, -1.0, 0.9999999999)))
@example(case=(1, (-0.3, 2.1 + 1e-10, -1.7, 0.4)))
@example(case=(3, (0.0, 1.0, 0.0, 0.5 * 3.0 ** 0.5 + 1e-8)))
@example(case=(3, (0.0, 1.0, 0.0, 0.5 * 3.0 ** 0.5 + 1e-10)))
@example(case=(1, (0.0, 1.0, -1e-8, 0.5 * 3.0 ** 0.5 - 1e-8)))
@example(case=(1, (-0.375, 0.375, -(3.0 ** 0.5 / 8 + 1e-11), 3.0 ** 0.5 / 8 + 1e-11)))
@example(case=(2, (-0.375, 0.375, -(3.0 ** 0.5 / 8 + 1e-11), 3.0 ** 0.5 / 8 + 1e-11)))
@example(case=(3, (-0.375, 0.375, -(3.0 ** 0.5 / 8 + 1e-11), 3.0 ** 0.5 / 8 + 1e-11)))
def test_hexagonal_meshes_validate_and_keep_the_box(case):
    level, bbox = case
    mesh = generate_mesh("hexagonal", level, bbox)  # validates
    assert mesh.metadata["bbox"] == list(bbox)
    assert mesh.bbox == tuple(_round10(np.array(bbox)))
