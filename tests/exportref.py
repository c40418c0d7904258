"""Line-by-line reference VTK writer.

This is the writer the bulk-pass ``hmmvi.export.write_vtk`` replaced, kept
frozen so the new one can be checked against it byte for byte: one formatted
line per vertex, per cell (read through ``mesh.cell_vertices``) and per field
value, joined and written at the end.  It writes the title as given, line
breaks included.
"""

import numpy as np

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
    size = sum(loc.size + 1 for loc in mesh.cell_vertices)
    lines.append(f"CELLS {mesh.n_cells} {size}")
    for loc in mesh.cell_vertices:
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
