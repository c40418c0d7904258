"""Writers for VTK snapshots, CSV tables and JSON records.

Snapshots use the legacy binary VTK unstructured-grid format with one polygon
per cell and all fields attached as cell data, which every common viewer
reads.  Header and section lines are ASCII; each section's data is one
big-endian block ending in a newline: float64 (x, y, 0) points, int32
``count v0 ... v(count-1)`` cells, int32 cell types and float64 fields, so
every float round-trips bit for bit.  ``write_vtk`` converts each section in
one array operation and writes the file once.  The geometry sections are
converted once per mesh object and kept while the mesh lives; a
``PolytopalMesh`` keeps read-only copies of its arrays, so the bytes cannot
go stale.  CSV floats carry 12 significant digits.  Every writer goes in
index order, so outputs are deterministic.
"""

from __future__ import annotations

import csv
import json
import weakref
from typing import Iterable, Mapping, Sequence

import numpy as np

from .mesh import PolytopalMesh

VTK_POLYGON = 7

# mesh -> its POINTS, CELLS and CELL_TYPES bytes; the weak key drops them
# with the mesh.
_geometry = weakref.WeakKeyDictionary()


def _vtk_geometry(mesh: PolytopalMesh) -> bytes:
    """The POINTS, CELLS and CELL_TYPES sections, converted on first use."""
    data = _geometry.get(mesh)
    if data is None:
        n = mesh.n_cells
        offsets = mesh.cell_offsets
        points = np.zeros((mesh.n_vertices, 3), ">f8")
        points[:, :2] = mesh.vertices
        # Each cell is the record "count v0 ... v(count-1)".
        cells = np.insert(mesh.corner_vertices, offsets[:-1], np.diff(offsets))
        data = b"".join([
            f"POINTS {mesh.n_vertices} double\n".encode(), points.tobytes(), b"\n",
            f"CELLS {n} {cells.size}\n".encode(), cells.astype(">i4").tobytes(), b"\n",
            f"CELL_TYPES {n}\n".encode(), np.full(n, VTK_POLYGON, ">i4").tobytes(), b"\n",
        ])
        _geometry[mesh] = data
    return data


def write_vtk(path, mesh: PolytopalMesh, cell_fields: Mapping[str, np.ndarray],
              title: str = "polytopal cell data") -> None:
    """Write the mesh and per-cell scalar fields as a legacy binary VTK file.

    The title goes on one header line, so line breaks in it become spaces.
    """
    n = mesh.n_cells
    title = title.replace("\r", " ").replace("\n", " ")[:255]
    header = f"# vtk DataFile Version 2.0\n{title}\nBINARY\nDATASET UNSTRUCTURED_GRID\n"
    parts = [header.encode(), _vtk_geometry(mesh)]
    if cell_fields:
        parts.append(f"CELL_DATA {n}\n".encode())
        for name in cell_fields:
            values = np.asarray(cell_fields[name], dtype=float)
            if values.shape != (n,):
                raise ValueError(f"field {name!r} has shape {values.shape}, "
                                 f"expected ({n},)")
            parts += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n".encode(),
                      values.astype(">f8").tobytes(), b"\n"]
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def write_csv(path, header: Sequence[str], columns: Iterable) -> None:
    """Write equal-length columns as CSV rows.

    Floats carry 12 significant digits and ``None`` is an empty field; other
    values are written with ``str``.  A float array is formatted in one
    ``%``-format, not value by value.
    """

    def fields(column):
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            return (("%.12g\n" * column.size) % tuple(column.tolist())).split("\n")[:-1]
        return ["" if v is None else f"{v:.12g}" if isinstance(v, (float, np.floating))
                else str(v) for v in column]

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(zip(*map(fields, columns)))


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
