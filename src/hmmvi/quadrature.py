"""Quadrature rule on polygonal cells.

The fan rule splits the cell into triangles around x_K and applies the
three-point edge-midpoint rule on each (exact for quadratics).  The
one-point centroid rule needs no construction and is built by its callers.

``cell_rule`` runs once per cell, on 3 to 6 corners.  On arrays that small
numpy's fixed cost per operation outweighs the arithmetic, so the fan is
built in Python floats, by the same IEEE operations as the per-triangle
reference and so bit for bit its points and weights.  A mesh is converted
to Python floats once, on its first call: every x_K, and every cell's
corners, closed by its first so that each edge is a pair, as references to
the mesh's vertex pairs, which cells share.
"""

from __future__ import annotations

import weakref
from itertools import pairwise

import numpy as np

# mesh -> its corner table (see _corner_table); the weak key drops it with
# the mesh.
_corners = weakref.WeakKeyDictionary()


def _corner_table(mesh):
    """Every cell's [x, y] of x_K and its closed list of corner [x, y]."""
    table = _corners.get(mesh)
    if table is None:
        offsets, ids = mesh.cell_offsets, mesh.corner_vertices
        closed = np.insert(ids, offsets[1:], ids[offsets[:-1]])
        bounds = (offsets + np.arange(offsets.size)).tolist()
        vertices = mesh.vertices.tolist()
        corners = list(map(vertices.__getitem__, closed.tolist()))
        table = _corners[mesh] = (mesh.cell_points.tolist(),
                                  [corners[a:b] for a, b in zip(bounds[:-1], bounds[1:])])
    return table


def cell_rule(mesh, k: int):
    """Fan3 quadrature points and weights for cell k; weights sum to |K|.

    The points come in triangle order (x_K, v_j, v_{j+1}), three edge
    midpoints per triangle, each weighted by |T|/3.
    """
    points, cells = _corner_table(mesh)
    xk, yk = points[k]
    corners = cells[k]
    pts, ws = [], []
    for (ax, ay), (bx, by) in pairwise(corners):
        pts += (0.5 * (xk + ax), 0.5 * (yk + ay), 0.5 * (ax + bx), 0.5 * (ay + by),
                0.5 * (bx + xk), 0.5 * (by + yk))
        w = 0.5 * abs((ax - xk) * (by - yk) - (bx - xk) * (ay - yk)) / 3.0
        ws += (w, w, w)
    return np.array(pts, float).reshape(-1, 2), np.array(ws, float)
