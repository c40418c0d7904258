"""Quadrature rule on polygonal cells.

The fan rule splits the cell into triangles around x_K and applies the
three-point edge-midpoint rule on each (exact for quadratics).  The
one-point centroid rule needs no construction and is built by its callers.

``cell_rule`` runs once per cell, on 3 to 6 corners.  On arrays that small
numpy's fixed cost per operation outweighs the arithmetic, so the fan is
built in Python floats, by the same IEEE operations as the per-triangle
reference and so bit for bit its points and weights.
"""

from __future__ import annotations

import numpy as np


def cell_rule(mesh, k: int):
    """Fan3 quadrature points and weights for cell k; weights sum to |K|.

    The points come in triangle order (x_K, v_j, v_{j+1}), three edge
    midpoints per triangle, each weighted by |T|/3.
    """
    start, stop = mesh.cell_offsets[k:k + 2].tolist()
    xk, yk = mesh.cell_points[k].tolist()
    corners = mesh.vertices[mesh.corner_vertices[start:stop]].tolist()
    pts, ws = [], []
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        pts += (0.5 * (xk + ax), 0.5 * (yk + ay), 0.5 * (ax + bx), 0.5 * (ay + by),
                0.5 * (bx + xk), 0.5 * (by + yk))
        w = 0.5 * abs((ax - xk) * (by - yk) - (bx - xk) * (ay - yk)) / 3.0
        ws += (w, w, w)
    return np.array(pts).reshape(-1, 2), np.array(ws)
