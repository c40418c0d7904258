"""VTK snapshot writer against the frozen line-by-line reference."""

import numpy as np
import pytest

from hmmvi import MESH_FAMILIES, PolytopalMesh, generate_mesh
from hmmvi.export import write_csv, write_vtk

import exportref


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
    reversed_cells = [c[::-1].tolist() for c in mesh.cell_vertices]
    yield "hexagonal-2-reversed", PolytopalMesh(mesh.vertices, reversed_cells,
                                                mesh.cell_points)


MESHES = dict(_meshes())


def test_mixed_cell_sizes_are_covered():
    sizes = set()
    for name, mesh in MESHES.items():
        if name.startswith("hexagonal"):
            sizes.update(np.diff(mesh.cell_offsets).tolist())
    assert sizes == {3, 4, 5, 6}


@pytest.mark.parametrize("name", sorted(MESHES))
@pytest.mark.parametrize("with_fields", [True, False])
def test_vtk_matches_line_by_line_reference(tmp_path, name, with_fields):
    mesh = MESHES[name]
    fields = _fields(mesh) if with_fields else {}
    new, ref = tmp_path / "new.vtk", tmp_path / "ref.vtk"
    write_vtk(new, mesh, fields, title=f"{name} t=0.05")
    exportref.write_vtk(ref, mesh, fields, title=f"{name} t=0.05")
    assert new.read_bytes() == ref.read_bytes()


def _parse_vtk(text):
    lines = text.split("\n")
    assert lines[-1] == ""
    pos = 4
    n_vertices = int(lines[pos].split()[1])
    points = [line.split() for line in lines[pos + 1:pos + 1 + n_vertices]]
    pos += 1 + n_vertices
    header, n_cells, size = lines[pos].split()
    assert header == "CELLS"
    n_cells = int(n_cells)
    cells = [[int(tok) for tok in line.split()] for line in lines[pos + 1:pos + 1 + n_cells]]
    assert sum(len(c) for c in cells) == int(size)
    pos += 1 + n_cells
    assert lines[pos:pos + 1 + n_cells] == [f"CELL_TYPES {n_cells}"] + ["7"] * n_cells
    pos += 1 + n_cells
    fields = {}
    if lines[pos]:
        assert lines[pos] == f"CELL_DATA {n_cells}"
        pos += 1
        while lines[pos]:
            name = lines[pos].split()[1]
            fields[name] = [float(tok) for tok in lines[pos + 2:pos + 2 + n_cells]]
            pos += 2 + n_cells
    return points, cells, fields


def _assert_bitwise_equal(parsed, expected):
    parsed = np.asarray(parsed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert np.array_equal(parsed.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("name", sorted(MESHES))
def test_vtk_round_trips_every_float(tmp_path, name):
    mesh = MESHES[name]
    fields = _fields(mesh)
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh, fields)
    points, cells, parsed = _parse_vtk(path.read_text())
    assert all(p[2] == "0" for p in points)
    _assert_bitwise_equal([[float(p[0]), float(p[1])] for p in points], mesh.vertices)
    assert cells == [[c.size] + c.tolist() for c in mesh.cell_vertices]
    assert list(parsed) == list(fields)
    for key, values in fields.items():
        _assert_bitwise_equal(parsed[key], values)


def test_field_shape_error_matches_reference(tmp_path):
    mesh = MESHES["cartesian-1"]
    fields = {"u": np.zeros(mesh.n_cells), "bad": np.zeros(mesh.n_cells + 1)}
    with pytest.raises(ValueError) as new:
        write_vtk(tmp_path / "new.vtk", mesh, fields)
    with pytest.raises(ValueError) as ref:
        exportref.write_vtk(tmp_path / "ref.vtk", mesh, fields)
    assert str(new.value) == str(ref.value) == "field 'bad' has shape (5,), expected (4,)"
    assert not (tmp_path / "new.vtk").exists()


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
def test_title_stays_on_one_header_line(tmp_path, brk):
    mesh = MESHES["cartesian-1"]
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh, {"u": np.ones(mesh.n_cells)}, title=f"a{brk}b t=0.05")
    lines = path.read_bytes().split(b"\n")
    assert lines[1] == b"a" + b" " * len(brk) + b"b t=0.05"
    assert lines[2] == b"ASCII"
    write_vtk(path, mesh, {}, title=("x" * 254 + brk) * 2)
    lines = path.read_bytes().split(b"\n")
    assert lines[1] == b"x" * 254 + b" "
    assert lines[2] == b"ASCII"


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
