"""Line-by-line reference VTK and row-by-row reference CSV writers.

These are the writers the bulk-pass ``hmmvi.export.write_vtk`` and
``write_csv`` replaced, kept frozen so the new ones can be checked against
them byte for byte.  ``write_vtk`` formats one line per vertex, per cell (read
through ``cellref.cell_slices``) and per field value, joins them and writes
them at the end; it writes the title as given, line breaks included.
``write_csv_rows`` formats one row at a time through ``csv.writer``.
"""

import csv

import numpy as np

from cellref import cell_slices

VTK_POLYGON = 7


def write_vtk(path, mesh, cell_fields, title="polytopal cell data"):
    """Write the mesh and per-cell scalar fields as a legacy VTK file."""
    lines = []
    lines.append("# vtk DataFile Version 2.0")
    lines.append(title[:255])
    lines.append("ASCII")
    lines.append("DATASET UNSTRUCTURED_GRID")
    lines.append(f"POINTS {mesh.n_vertices} double")
    for p in mesh.vertices:
        lines.append(f"{p[0]:.17g} {p[1]:.17g} 0")
    size = sum(loc.size + 1 for loc in cell_slices(mesh, mesh.corner_vertices))
    lines.append(f"CELLS {mesh.n_cells} {size}")
    for loc in cell_slices(mesh, mesh.corner_vertices):
        lines.append(" ".join([str(loc.size)] + [str(int(v)) for v in loc]))
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend([str(VTK_POLYGON)] * mesh.n_cells)
    if cell_fields:
        lines.append(f"CELL_DATA {mesh.n_cells}")
        for name in cell_fields:
            values = np.asarray(cell_fields[name], dtype=float)
            if values.shape != (mesh.n_cells,):
                raise ValueError(
                    f"field {name!r} has shape {values.shape}, "
                    f"expected ({mesh.n_cells},)")
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.17g}" for v in values)
    with open(path, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")


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
