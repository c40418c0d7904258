"""VTK snapshot writer against the record-by-record reference and the legacy
format specification; CSV writer against the frozen row-by-row writer."""

import gc
import weakref

import numpy as np
import pytest

from hmmvi import MESH_FAMILIES, PolytopalMesh, generate_mesh
from hmmvi import export
from hmmvi.export import write_csv, write_vtk

import exportref
from cellref import cell_slices


def _fields(mesh):
    """Cell fields holding the values whose formatting is easiest to get wrong."""
    n = mesh.n_cells
    rng = np.random.default_rng(n)
    special = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e300, 5e-324, 0.1, 1.0 / 3.0,
                        3.0, -42.0, 2.0**53, 1e16, 123456789012345678.0])
    return {
        "u": rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n),
        "special": np.resize(special, n),
        "contact": (rng.random(n) < 0.5).astype(float),
        "ids": np.arange(n) - n // 2,
    }


def _meshes():
    for family in MESH_FAMILIES:
        for level in (1, 2):
            yield f"{family}-{level}", generate_mesh(family, level)
    mesh = generate_mesh("hexagonal", 2)
    reversed_cells = [c[::-1].tolist() for c in cell_slices(mesh, mesh.corner_vertices)]
    yield "hexagonal-2-reversed", PolytopalMesh(mesh.vertices, reversed_cells,
                                                mesh.cell_points)


MESHES = dict(_meshes())


def test_mixed_cell_sizes_are_covered():
    sizes = set()
    for name, mesh in MESHES.items():
        if name.startswith("hexagonal"):
            sizes.update(np.diff(mesh.cell_offsets).tolist())
    assert sizes == {3, 4, 5, 6}


class _Reader:
    """Text lines and binary blocks of a legacy VTK file, in file order."""

    def __init__(self, data):
        self.data, self.pos = data, 0

    def at_end(self):
        return self.pos == len(self.data)

    def line(self):
        end = self.data.index(b"\n", self.pos)
        line, self.pos = self.data[self.pos:end].decode(), end + 1
        return line

    def block(self, dtype, count):
        """``count`` big-endian values of ``dtype``, then the closing newline."""
        end = self.pos + np.dtype(dtype).itemsize * count
        assert self.data[end:end + 1] == b"\n"
        values = np.frombuffer(self.data[self.pos:end], dtype)
        self.pos = end + 1
        return values


def parse_vtk(data):
    """(title, points, cells, fields) of a legacy binary VTK unstructured grid.

    Written from the legacy format specification: four header lines (version,
    title, ``BINARY``, dataset), then each section as a keyword line with its
    counts and a big-endian block ending in a newline.  Every byte of the
    file must be read.
    """
    r = _Reader(data)
    assert r.line() == "# vtk DataFile Version 2.0"
    title = r.line()
    assert r.line() == "BINARY"
    assert r.line() == "DATASET UNSTRUCTURED_GRID"
    keyword, n_points, kind = r.line().split(" ")
    assert (keyword, kind) == ("POINTS", "double")
    points = r.block(">f8", 3 * int(n_points)).reshape(-1, 3)
    keyword, n_cells, size = r.line().split(" ")
    assert keyword == "CELLS"
    n_cells = int(n_cells)
    records = r.block(">i4", int(size)).tolist()
    cells, pos = [], 0
    for _ in range(n_cells):
        count = records[pos]
        cells.append(records[pos + 1:pos + 1 + count])
        pos += 1 + count
    assert pos == len(records)
    assert r.line() == f"CELL_TYPES {n_cells}"
    assert r.block(">i4", n_cells).tolist() == [7] * n_cells
    fields = {}
    if not r.at_end():
        assert r.line() == f"CELL_DATA {n_cells}"
        while not r.at_end():
            keyword, name, kind, components = r.line().split(" ")
            assert (keyword, kind, components) == ("SCALARS", "double", "1")
            assert r.line() == "LOOKUP_TABLE default"
            fields[name] = r.block(">f8", n_cells)
    return title, points, cells, fields


def _assert_bitwise_equal(parsed, expected):
    parsed = np.asarray(parsed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert np.array_equal(parsed.view(np.int64), expected.view(np.int64))


def _assert_parses_back(path, mesh, fields, title):
    parsed_title, points, cells, parsed = parse_vtk(path.read_bytes())
    assert parsed_title == title
    _assert_bitwise_equal(points[:, :2], mesh.vertices)
    _assert_bitwise_equal(points[:, 2], np.zeros(mesh.n_vertices))
    assert cells == [c.tolist() for c in cell_slices(mesh, mesh.corner_vertices)]
    for cell in cells:  # counter-clockwise: a positive shoelace area
        x, y = points[cell, 0], points[cell, 1]
        assert np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)) > 0
    assert list(parsed) == list(fields)
    for key, values in fields.items():
        _assert_bitwise_equal(parsed[key], values)


def _assert_matches_reference(tmp_path, mesh, fields, title):
    new, ref = tmp_path / "new.vtk", tmp_path / "ref.vtk"
    write_vtk(new, mesh, fields, title=title)
    exportref.write_vtk(ref, mesh, fields, title=title)
    assert new.read_bytes() == ref.read_bytes()
    _assert_parses_back(new, mesh, fields, title)


@pytest.mark.parametrize("name", sorted(MESHES))
@pytest.mark.parametrize("with_fields", [True, False])
def test_vtk_matches_line_by_line_reference(tmp_path, name, with_fields):
    mesh = MESHES[name]
    _assert_matches_reference(tmp_path, mesh, _fields(mesh) if with_fields else {},
                              f"{name} t=0.05")


@pytest.mark.parametrize("name", sorted(MESHES))
def test_vtk_round_trips_every_float(tmp_path, name):
    # The file read back by the format specification: exact points with
    # z = 0, each cell's corners in order, every field value bit for bit.
    mesh = MESHES[name]
    path = tmp_path / "mesh.vtk"
    for fields in (_fields(mesh), {}):
        write_vtk(path, mesh, fields)
        _assert_parses_back(path, mesh, fields, "polytopal cell data")


def test_field_shape_error_matches_reference(tmp_path):
    mesh = MESHES["cartesian-1"]
    fields = {"u": np.zeros(mesh.n_cells), "bad": np.zeros(mesh.n_cells + 1)}
    with pytest.raises(ValueError) as new:
        write_vtk(tmp_path / "new.vtk", mesh, fields)
    with pytest.raises(ValueError) as ref:
        exportref.write_vtk(tmp_path / "ref.vtk", mesh, fields)
    assert str(new.value) == str(ref.value) == "field 'bad' has shape (5,), expected (4,)"
    assert not (tmp_path / "new.vtk").exists()


def test_second_write_of_a_mesh_reuses_its_geometry(tmp_path):
    mesh = generate_mesh("hexagonal", 2)
    _assert_matches_reference(tmp_path, mesh, _fields(mesh), "first t=0.01")
    geometry = export._geometry[mesh]
    fields = {"gap": -_fields(mesh)["u"], "contact": np.ones(mesh.n_cells)}
    _assert_matches_reference(tmp_path, mesh, fields, "second t=0.02")
    assert export._geometry[mesh] is geometry


def test_writes_alternating_between_meshes_match_their_references(tmp_path):
    meshes = [generate_mesh("cartesian", 2), generate_mesh("triangular", 3)]
    for step in range(4):
        mesh = meshes[step % 2]
        fields = {"u": np.full(mesh.n_cells, step + 0.5)}
        _assert_matches_reference(tmp_path, mesh, fields, f"t={step}")
    assert all(mesh in export._geometry for mesh in meshes)


def test_geometry_goes_with_its_mesh(tmp_path):
    gc.collect()
    before = len(export._geometry)
    mesh = generate_mesh("kershaw", 1)
    write_vtk(tmp_path / "mesh.vtk", mesh, {})
    assert len(export._geometry) == before + 1
    alive = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert alive() is None
    assert len(export._geometry) == before


def test_field_shape_error_on_a_cached_mesh_writes_no_file(tmp_path):
    mesh = MESHES["cartesian-2"]
    write_vtk(tmp_path / "first.vtk", mesh, {"u": np.zeros(mesh.n_cells)})
    assert mesh in export._geometry
    with pytest.raises(ValueError, match=r"field 'bad' has shape \(3,\), expected \(16,\)"):
        write_vtk(tmp_path / "new.vtk", mesh, {"u": np.zeros(mesh.n_cells),
                                               "bad": np.zeros(3)})
    assert not (tmp_path / "new.vtk").exists()


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
def test_title_stays_on_one_header_line(tmp_path, brk):
    mesh = MESHES["cartesian-1"]
    path = tmp_path / "mesh.vtk"
    fields = {"u": np.ones(mesh.n_cells)}
    write_vtk(path, mesh, fields, title=f"a{brk}b t=0.05")
    _assert_parses_back(path, mesh, fields, "a" + " " * len(brk) + "b t=0.05")
    write_vtk(path, mesh, {}, title=("x" * 254 + brk) * 2)
    _assert_parses_back(path, mesh, {}, "x" * 254 + " ")


@pytest.mark.parametrize("family, level", [("cartesian", 3), ("triangular", 8),
                                           ("hexagonal", 2)])
def test_cells_csv_matches_the_row_writer(tmp_path, family, level):
    mesh = generate_mesh(family, level)
    n = mesh.n_cells
    fields = _fields(mesh)
    u = fields["u"]
    psi = np.resize(np.append(fields["special"], [np.nan, np.inf, -np.inf]), n)
    contact = fields["contact"] > 0.5
    header = ["cell", "x", "y", "area", "u", "obstacle", "contact"]
    x, y = mesh.cell_points.T
    write_csv(tmp_path / "bulk.csv", header,
              [range(n), x, y, mesh.cell_areas, u, psi, contact.astype(int)])
    exportref.write_csv_rows(
        tmp_path / "rows.csv", header,
        ((k, mesh.cell_points[k, 0], mesh.cell_points[k, 1], mesh.cell_areas[k],
          u[k], psi[k], int(contact[k])) for k in range(n)))
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_mixed_csv_table_matches_the_row_writer(tmp_path):
    """Text that needs quoting, ints, float scalars and empty (None) fields."""
    header = ["tag", "n", "h", "rate"]
    rows = [("plain", 4, 0.5, None), ('a,"b"', np.int64(16), np.float64(1 / 3), 1.0),
            ("line\nbreak", 64, -0.0, float("nan"))]
    write_csv(tmp_path / "bulk.csv", header, list(zip(*rows)))
    exportref.write_csv_rows(tmp_path / "rows.csv", header,
                             [["" if v is None else v for v in row] for row in rows])
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
