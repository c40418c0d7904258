"""Quadrature rule on polygonal cells.

The fan rule splits the cell into triangles around x_K and applies the
three-point edge-midpoint rule on each (exact for quadratics).  The
one-point centroid rule needs no construction and is built by its callers.
"""

from __future__ import annotations

import numpy as np


def cell_rule(mesh, k: int):
    """Fan3 quadrature points and weights for cell k; weights sum to |K|.

    The points come in triangle order (x_K, v_j, v_{j+1}), three edge
    midpoints per triangle, each weighted by |T|/3.
    """
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

