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
    loc = mesh.cell_vertices[k]
    verts = mesh.vertices[loc]
    for j in range(loc.size):
        tri = np.array([xk, verts[j], verts[(j + 1) % loc.size]])
        p, w = _triangle_midpoint_rule(tri)
        pts_list.append(p)
        w_list.append(w)
    return np.vstack(pts_list), np.concatenate(w_list)


def integrate_cells(mesh, fn, rule: str = "fan3") -> np.ndarray:
    """Integral of a scalar field over each cell, as an (n_cells,) array."""
    out = np.empty(mesh.n_cells)
    for k in range(mesh.n_cells):
        pts, w = cell_rule(mesh, k, rule)
        out[k] = float(w @ fn(pts))
    return out
