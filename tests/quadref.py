"""Per-triangle reference of the fan3 cell quadrature.

This is the ``cell_rule`` that built the fan of a cell one triangle at a
time, kept so the one-pass version in ``hmmvi.quadrature`` can be checked
against it point for point and weight for weight.  Each triangle's weight is
the HMM subcell area |sigma| d_{K,sigma} / 2 over 3, taken from that
triangle alone: the length of its edge and the distance from x_K to the
edge's line along the outward normal.  ``cross_area``, the absolute cross
product the weights were once taken from, is kept to check that the two
areas agree to rounding.
"""

import math

import numpy as np

from cellref import cell_slice


def cross_area(tri: np.ndarray) -> float:
    """|T| of the triangle (x_K, a, b) by the absolute cross product."""
    return 0.5 * abs(
        (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
        - (tri[2, 0] - tri[0, 0]) * (tri[1, 1] - tri[0, 1]))


def subcell_area(tri: np.ndarray) -> float:
    """|sigma| d_{K,sigma} / 2 of the triangle (x_K, a, b), its edge from a to b.

    For a counterclockwise cell (dy, -dx) / |sigma| is the outward normal,
    and d is signed: negative where x_K lies beyond the edge's line.
    """
    (xk, yk), (ax, ay), (bx, by) = tri.tolist()
    dx, dy = bx - ax, by - ay
    length = math.sqrt(dx * dx + dy * dy)
    d = (0.5 * (ax + bx) - xk) * (dy / length) + (0.5 * (ay + by) - yk) * (-dx / length)
    return 0.5 * length * d


def _triangle_midpoint_rule(tri: np.ndarray):
    pts = 0.5 * (tri + np.roll(tri, -1, axis=0))
    w = np.full(3, subcell_area(tri) / 3.0)
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
