"""Writers for VTK snapshots, CSV tables and JSON records.

Snapshots use the legacy ASCII VTK unstructured-grid format with one polygon
per cell and all fields attached as cell data, which every common viewer
reads.  ``write_vtk`` builds each section in one pass over the flat mesh
arrays (one ``%``-format per section, no loop over cells or values) and
writes the file once.  The geometry sections (POINTS, CELLS, CELL_TYPES) are
formatted once per mesh object and kept while the mesh lives, so the
snapshots of a run format only their title and cell fields.  That is safe
because a ``PolytopalMesh`` keeps read-only copies of its arrays: the text
cannot go stale.  Floats carry 17 significant digits, which round-trip every
float64 exactly; CSV floats carry 12.  Every writer goes in index order, so
outputs are deterministic.
"""

from __future__ import annotations

import csv
import json
import weakref
from typing import Iterable, Mapping, Sequence

import numpy as np

from .mesh import PolytopalMesh

VTK_POLYGON = 7

# mesh -> its POINTS, CELLS and CELL_TYPES text; the weak key drops the text
# with the mesh.
_geometry_text = weakref.WeakKeyDictionary()


def _vtk_geometry(mesh: PolytopalMesh) -> str:
    """The POINTS, CELLS and CELL_TYPES sections, formatted on first use."""
    text = _geometry_text.get(mesh)
    if text is None:
        n = mesh.n_cells
        offsets = mesh.cell_offsets
        # Each cell is the line "count v0 ... v(count-1)": a "%d " per token
        # and "%d\n" for the last token of the cell.
        cells = np.insert(mesh.corner_vertices, offsets[:-1], np.diff(offsets))
        fmt = np.tile(np.frombuffer(b"%d ", np.uint8), cells.size)
        fmt[3 * (offsets[1:] + np.arange(1, n + 1)) - 1] = ord("\n")
        text = "".join([
            f"POINTS {mesh.n_vertices} double\n",
            ("%.17g %.17g 0\n" * mesh.n_vertices) % tuple(mesh.vertices.ravel().tolist()),
            f"CELLS {n} {cells.size}\n",
            fmt.tobytes().decode() % tuple(cells.tolist()),
            f"CELL_TYPES {n}\n" + f"{VTK_POLYGON}\n" * n,
        ])
        _geometry_text[mesh] = text
    return text


def write_vtk(path, mesh: PolytopalMesh, cell_fields: Mapping[str, np.ndarray],
              title: str = "polytopal cell data") -> None:
    """Write the mesh and per-cell scalar fields as a legacy VTK file.

    The title goes on one header line, so line breaks in it become spaces.
    """
    n = mesh.n_cells
    title = title.replace("\r", " ").replace("\n", " ")[:255]
    parts = [f"# vtk DataFile Version 2.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n",
             _vtk_geometry(mesh)]
    if cell_fields:
        parts.append(f"CELL_DATA {n}\n")
        for name in cell_fields:
            values = np.asarray(cell_fields[name], dtype=float)
            if values.shape != (n,):
                raise ValueError(f"field {name!r} has shape {values.shape}, "
                                 f"expected ({n},)")
            parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            parts.append(("%.17g\n" * n) % tuple(values.tolist()))
    with open(path, "w") as f:
        f.write("".join(parts))


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
