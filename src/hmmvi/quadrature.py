"""Quadrature rules on polygonal cells and their edge subcells.

Two rules are used throughout: the one-point centroid rule, and a fan rule
that splits the cell into triangles around x_K and applies the three-point
edge-midpoint rule on each (exact for quadratics).  The subcell D_{K,sigma}
is the triangle spanned by the edge and x_K, so the same two rules apply to
subcells directly.
"""

from __future__ import annotations

import numpy as np

CELL_RULES = ("centroid", "fan3")


def cell_rule(mesh, k: int, rule: str = "fan3"):
    """Quadrature points and weights for cell k; weights sum to |K|.

    The fan3 points of cell k come in triangle order (x_K, v_j, v_{j+1}),
    three edge midpoints per triangle, each weighted by |T|/3.
    """
    if rule == "centroid":
        return mesh.cell_points[k][None, :], np.array([mesh.cell_areas[k]])
    if rule != "fan3":
        raise ValueError(f"unknown quadrature rule {rule!r}")
    start, stop = mesh.cell_offsets[k], mesh.cell_offsets[k + 1]
    # Row j is the closed triangle (x_K, v_j, v_{j+1}, x_K).
    tri = np.empty((stop - start, 4, 2))
    tri[:, 0] = tri[:, 3] = mesh.cell_points[k]
    tri[:, 1] = mesh.vertices[mesh.corner_vertices[start:stop]]
    tri[:-1, 2] = tri[1:, 1]
    tri[-1, 2] = tri[0, 1]
    pts = 0.5 * (tri[:, :3] + tri[:, 1:])
    e = tri[:, 1:3] - tri[:, :1]
    area = 0.5 * np.abs(e[:, 0, 0] * e[:, 1, 1] - e[:, 1, 0] * e[:, 0, 1])
    return pts.reshape(-1, 2), np.repeat(area / 3.0, 3)


def integrate_cells(mesh, fn, rule: str = "fan3") -> np.ndarray:
    """Integral of a scalar field over each cell, as an (n_cells,) array."""
    out = np.empty(mesh.n_cells)
    for k in range(mesh.n_cells):
        pts, w = cell_rule(mesh, k, rule)
        out[k] = float(w @ fn(pts))
    return out
