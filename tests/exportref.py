"""Record-by-record reference VTK and row-by-row reference CSV writers.

These check the bulk-pass ``hmmvi.export.write_vtk`` and ``write_csv`` byte
for byte.  ``write_vtk`` packs one big-endian record per vertex, per cell
(read through ``cellref.cell_slices``) and per field value with ``struct``,
joins them and writes them at the end; it writes the title as given, line
breaks included.  ``write_csv_rows`` is the former row-by-row CSV writer,
kept frozen: it formats one row at a time through ``csv.writer``.
"""

import csv
import struct

import numpy as np

from cellref import cell_slices

VTK_POLYGON = 7


def write_vtk(path, mesh, cell_fields, title="polytopal cell data"):
    """Write the mesh and per-cell scalar fields as a legacy binary VTK file."""
    cells = cell_slices(mesh, mesh.corner_vertices)
    out = [b"# vtk DataFile Version 2.0\n", title[:255].encode() + b"\n", b"BINARY\n",
           b"DATASET UNSTRUCTURED_GRID\n", f"POINTS {mesh.n_vertices} double\n".encode()]
    for x, y in mesh.vertices:
        out.append(struct.pack(">3d", x, y, 0.0))
    out.append(b"\n")
    size = sum(loc.size + 1 for loc in cells)
    out.append(f"CELLS {mesh.n_cells} {size}\n".encode())
    for loc in cells:
        out.append(struct.pack(f">{loc.size + 1}i", loc.size, *loc.tolist()))
    out.append(b"\n")
    out.append(f"CELL_TYPES {mesh.n_cells}\n".encode())
    out.extend([struct.pack(">i", VTK_POLYGON)] * mesh.n_cells)
    out.append(b"\n")
    if cell_fields:
        out.append(f"CELL_DATA {mesh.n_cells}\n".encode())
        for name in cell_fields:
            values = np.asarray(cell_fields[name], dtype=float)
            if values.shape != (mesh.n_cells,):
                raise ValueError(
                    f"field {name!r} has shape {values.shape}, "
                    f"expected ({mesh.n_cells},)")
            out.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n".encode())
            out.extend(struct.pack(">d", v) for v in values.tolist())
            out.append(b"\n")
    with open(path, "wb") as f:
        f.write(b"".join(out))


def write_csv_rows(path, header, rows):
    """Write rows of numbers/strings as CSV with 12 significant digits."""

    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return f"{v:.12g}"
        return str(v)

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([fmt(v) for v in row])
