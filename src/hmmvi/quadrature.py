"""Quadrature rule on polygonal cells.

The fan rule splits the cell into triangles around x_K and applies the
three-point edge-midpoint rule on each (exact for quadratics).  The
one-point centroid rule needs no construction and is built by its callers.

A mesh's fan is built once, on its first use, from the triangles
(x_K, v_j, v_{j+1}) of ``mesh._corner_triangles``, the HMM subcells, each
side midpoint weighted by |D_{K,sigma}|/3 (``mesh._subcell_areas``).  It
lives as long as the mesh; ``cell_rule`` returns read-only slices of it and
the subcell fan3 rule the whole.  ``diagnostics._cell_quad_flat`` still
calls ``cell_rule`` once per cell only because the benchmark selftest pins
that call count; ROADMAP item 5 deletes the loop and this module with it.
"""

from __future__ import annotations

import weakref

import numpy as np

from .mesh import _corner_triangles, _subcell_areas

# mesh -> its fan table (see _fan_table); the weak key drops it with the mesh.
_fans = weakref.WeakKeyDictionary()


def _fan_table(mesh):
    """Every corner's three points and weights, and each cell's row bounds."""
    table = _fans.get(mesh)
    if table is None:
        xk, a, b = _corner_triangles(mesh)
        fan = 0.5 * np.stack((xk + a, a + b, b + xk), axis=1)
        w = np.repeat(_subcell_areas(mesh) / 3.0, 3)
        # Read-only at the owner, so no view of the table can be made writable.
        fan.flags.writeable = w.flags.writeable = False
        table = _fans[mesh] = (fan.reshape(-1, 2), w, (3 * mesh.cell_offsets).tolist())
    return table


def cell_rule(mesh, k: int):
    """Fan3 quadrature points and weights for cell k; weights sum to |K|.

    The points come in triangle order (x_K, v_j, v_{j+1}), three edge
    midpoints per triangle, each weighted by |D_{K,sigma}|/3.  Both are
    read-only views of the mesh's fan table.
    """
    pts, w, bounds = _fan_table(mesh)
    a, b = bounds[k], bounds[k + 1]
    return pts[a:b], w[a:b]
