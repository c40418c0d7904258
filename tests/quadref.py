"""Per-triangle reference of the fan3 cell quadrature.

This is the ``cell_rule`` that built the fan of a cell one triangle at a
time, kept frozen so the one-pass version in ``hmmvi.quadrature`` can be
checked against it point for point and weight for weight.
"""

import numpy as np

from cellref import cell_slice


def _triangle_midpoint_rule(tri: np.ndarray):
    pts = 0.5 * (tri + np.roll(tri, -1, axis=0))
    area = 0.5 * abs(
        (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
        - (tri[2, 0] - tri[0, 0]) * (tri[1, 1] - tri[0, 1]))
    w = np.full(3, area / 3.0)
    return pts, w


def cell_rule(mesh, k: int, rule: str = "fan3"):
    """Quadrature points and weights for cell k; weights sum to |K|."""
    if rule == "centroid":
        return mesh.cell_points[k][None, :], np.array([mesh.cell_areas[k]])
    if rule != "fan3":
        raise ValueError(f"unknown quadrature rule {rule!r}")
    xk = mesh.cell_points[k]
    pts_list = []
    w_list = []
    loc = cell_slice(mesh, mesh.corner_vertices, k)
    verts = mesh.vertices[loc]
    for j in range(loc.size):
        tri = np.array([xk, verts[j], verts[(j + 1) % loc.size]])
        p, w = _triangle_midpoint_rule(tri)
        pts_list.append(p)
        w_list.append(w)
    return np.vstack(pts_list), np.concatenate(w_list)
