"""Polytopal meshes of planar box domains.

A mesh is a conforming partition of an axis-aligned box into simple polygonal
cells.  Every cell carries a distinguished point x_K (the centroid unless a
mesh file declares otherwise) that must see all edges of the cell from the
inside: the orthogonal distance d from x_K to each edge line is required to be
strictly positive.  That star-shapedness condition is what the discretisation
needs to split cells into well-defined edge subcells.

All geometric quantities (areas, centroids, normals, edge lengths) are
recomputed from the vertex coordinates; files are never trusted for derived
geometry, and an area, centroid or edge length that overflows is refused.
Cell vertex lists are normalised to counterclockwise order on construction.
"""

from __future__ import annotations

import collections
import itertools
import json
import math

import numpy as np

GEOM_TOL = 1e-12
# Largest estimated cell count generate_mesh accepts.
MAX_CELLS = 2_000_000
# Largest level any family can generate within MAX_CELLS: triangular, the
# slowest-growing family, has 2 n^2 cells at level n.
MAX_LEVEL = math.isqrt(MAX_CELLS // 2)
# A hexagon corner this close to a box line, in circumradii, lies on it.
ON_LINE_TOL = 1e-6
# Shear amplitude A of kershaw meshes.  The shear stretches every vertical
# segment by a factor of at least 1 - 4A, so 4A < 1 keeps every cell's height
# positive; the grid folds at A = 0.25.
KERSHAW_AMPLITUDE = 0.21

# Characters of an offending token that a format error echoes at most.
ECHO_CHARS = 40

MESH_FAMILIES = ("cartesian", "triangular", "hexagonal", "kershaw")


class MeshError(Exception):
    """Base class for mesh construction and validation problems."""


class MeshFormatError(MeshError):
    """A mesh file could not be parsed."""


class MeshValidationError(MeshError):
    """A mesh violates one of the documented invariants."""


class MeshGenerationError(MeshError):
    """A generator was asked for something it cannot produce."""


# Per-cell defects in the order they are checked; a mesh error names the
# first defective cell and its first defect.
_CELL_DEFECTS = ("has fewer than 3 vertices", "references an unknown vertex",
                 "repeats a vertex", "has zero area", "has a non-finite area")


def _require_finite(points: np.ndarray, label: str) -> None:
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise MeshValidationError(
            f"{label.format(i)} has non-finite coordinates {points[i].tolist()}")


# A generator's cells as it holds them, flat, so it builds no list per cell.
_FlatCells = collections.namedtuple("_FlatCells", "ids counts")


def _flatten_cells(cell_vertices):
    """Vertex ids of all cells in one array, and the vertex count of each cell.

    ``cell_vertices`` is a 2-D integer array (cells of one size), a
    sequence of index sequences, or ``_FlatCells``.
    """
    if isinstance(cell_vertices, _FlatCells):
        return cell_vertices
    if isinstance(cell_vertices, np.ndarray) and cell_vertices.ndim == 2:
        n, m = cell_vertices.shape
        return np.asarray(cell_vertices, dtype=int).ravel(), np.full(n, m)
    counts = np.fromiter(map(len, cell_vertices), dtype=int, count=len(cell_vertices))
    try:
        flat = np.fromiter(itertools.chain.from_iterable(cell_vertices), dtype=int,
                           count=int(counts.sum()))
    except OverflowError:  # an id beyond any vertex array
        k = next(k for k, ids in enumerate(cell_vertices) if any(abs(v) >= 2**63 for v in ids))
        raise MeshValidationError(f"cell {k} {_CELL_DEFECTS[1]}") from None
    return flat, counts


def _number_by_first_appearance(keys: np.ndarray):
    """Ids 0, 1, ... for the distinct keys, in the order they first appear.

    Returns the index of each id's first appearance, the id of every key and
    its slot, the number of equal keys before it.  One stable sort gives all
    three: each run of equal keys lists their indices in ascending order.
    """
    order = np.argsort(keys, kind="stable")
    run_start = np.ones(keys.size, dtype=bool)
    ordered = keys[order]
    np.not_equal(ordered[1:], ordered[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    run = np.cumsum(run_start) - 1
    # The first index of every run, marked in key order, numbers the runs.
    is_first = np.zeros(keys.size, dtype=bool)
    is_first[order[starts]] = True
    ids, slots = np.empty_like(order), np.empty_like(order)
    ids[order] = (np.cumsum(is_first) - 1)[order[starts]][run]
    slots[order] = np.arange(keys.size) - starts[run]
    return np.flatnonzero(is_first), ids, slots


class PolytopalMesh:
    """Conforming polygonal mesh with per-cell star points.

    Parameters
    ----------
    vertices : (nv, 2) array of vertex coordinates.
    cell_vertices : sequence of integer index sequences, one per cell, or a
        2-D integer array when all cells have the same number of vertices.
        Any consistent orientation is accepted; clockwise cells are reversed.
    cell_points : optional (nc, 2) array of declared cell points x_K.  When
        omitted the centroid is used.
    metadata : optional dict recorded verbatim (generator family, level,
        distortion amplitude and similar provenance of the construction).

    The mesh keeps read-only copies of the given arrays, so no caller can
    change its geometry after construction.  Each cell's signed area, which
    gives its orientation and ``cell_areas``, and its centroid come from one
    pass of shoelace cross terms relative to the cell's first vertex, so their
    round-off scales with the cell, not with its distance from the origin.
    All geometry is computed per corner on contiguous x and y arrays.  One
    stable sort of the corners' vertex pairs numbers the edges in the order
    the corners first reach them, as ``corner_edges``.  An edge keeps the
    length and centre of its first corner, and the edges that a second corner
    reaches are ``interior_edges``; the rest are ``boundary_edges``.

    Cells are stored only flat: corner j of cell k is entry
    ``cell_offsets[k] + j`` of ``corner_vertices``, ``corner_edges``,
    ``corner_normals`` and ``corner_edge_dists``, and pairs local vertex j
    with the edge from j to j+1.  Cell k's slice of any of them is
    ``[cell_offsets[k]:cell_offsets[k + 1]]``.
    """

    @np.errstate(all="ignore")
    def __init__(self, vertices, cell_vertices, cell_points=None, metadata=None):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshValidationError("vertex array must have shape (nv, 2)")
        _require_finite(self.vertices, "vertex {}")
        self.n_vertices = nv = self.vertices.shape[0]
        flat, counts = _flatten_cells(cell_vertices)
        self.n_cells = n = counts.size
        if n == 0:
            raise MeshValidationError("mesh has no cells")

        offsets = np.zeros(n + 1, dtype=int)
        np.cumsum(counts, out=offsets[1:])
        cell = np.repeat(np.arange(n), counts)
        first = offsets[cell]
        size = counts[cell]
        local = np.arange(flat.size) - first
        # ahead[r - 1]: the corner r places after each corner of its cell,
        # for r = 1 to m/2 of the largest cell, and at least for r = 1.
        ahead = [first + (local + r) % size
                 for r in range(1, max(int(counts.max()) // 2, 1) + 1)]

        small = counts < 3
        unknown = np.zeros(n, dtype=bool)
        unknown[cell[(flat < 0) | (flat >= nv)]] = True
        repeated = np.zeros(n, dtype=bool)
        for r, later in enumerate(ahead, start=1):
            repeated[cell[(flat == flat[later]) & (r % size != 0)]] = True

        # Cross terms of the cells before the first id defect, the only ones
        # whose geometry can be read and the only ones that can fail first,
        # relative to each cell's first vertex to limit cancellation.
        id_bad = np.flatnonzero(small | unknown | repeated)
        stop = int(id_bad[0]) if id_bad.size else n
        c = offsets[stop]
        nxt = ahead[0][:c]
        vx, vy = self.vertices.T.copy()
        px, py = vx[flat[:c]], vy[flat[:c]]
        x0, y0 = px[offsets[:stop]], py[offsets[:stop]]
        x, y = px - x0[cell[:c]], py - y0[cell[:c]]
        cross = x * y[nxt] - x[nxt] * y
        signed = 0.5 * np.bincount(cell[:c], cross, minlength=stop)
        zero_area, overflow = np.zeros((2, n), dtype=bool)
        zero_area[:stop] = signed == 0.0
        overflow[:stop] = ~np.isfinite(signed)
        defects = (small, unknown, repeated, zero_area, overflow)
        bad = np.flatnonzero(np.logical_or.reduce(defects))
        if bad.size:
            k = int(bad[0])
            reason = next(text for flags, text in zip(defects, _CELL_DEFECTS) if flags[k])
            raise MeshValidationError(f"cell {k} {reason}")

        # The centroid formula is unchanged when a cell is reversed.
        six_area = 6.0 * signed
        centroids = np.column_stack(
            (x0 + np.bincount(cell, (x + x[nxt]) * cross, minlength=n) / six_area,
             y0 + np.bincount(cell, (y + y[nxt]) * cross, minlength=n) / six_area))
        self.cell_areas = np.abs(signed)
        del x, y, cross

        # Reverse clockwise cells: local vertex j takes vertex m - 1 - j.
        reverse = (signed < 0.0)[cell]
        perm = np.where(reverse, first + size - 1 - local, np.arange(flat.size))
        flat, px, py = flat[perm], px[perm], py[perm]

        # Diameters: every vertex pair of a cell is r <= m/2 corners apart.
        far = np.zeros(flat.size)
        for later in ahead:
            dx, dy = px - px[later], py - py[later]
            np.maximum(far, dx * dx + dy * dy, out=far)
        self.cell_diameters = np.sqrt(np.maximum.reduceat(far, offsets[:-1]))
        del ahead, far, dx, dy

        if cell_points is None:
            _require_finite(centroids, "cell {}: centroid")
            self.cell_points = centroids
        else:
            self.cell_points = np.array(cell_points, dtype=float).reshape(n, 2)
            _require_finite(self.cell_points, "cell {}: point x_K")

        self.cell_offsets = offsets
        self.corner_vertices = flat
        lengths, mx, my = self._build_cell_geometry(cell, nxt, px, py)
        self._build_edges(nxt, lengths, mx, my)

        self.bbox = (float(vx.min()), float(vx.max()), float(vy.min()), float(vy.max()))
        self.metadata = dict(metadata) if metadata else {}

        for arr in (self.vertices, self.cell_points, self.cell_areas,
                    self.cell_diameters, self.edge_centers, self.edge_lengths,
                    self.boundary_edges, self.interior_edges,
                    self.cell_offsets, self.corner_vertices, self.corner_edges,
                    self.corner_normals, self.corner_edge_dists):
            arr.setflags(write=False)

    def _build_cell_geometry(self, cell, nxt, px, py):
        """Outward unit normals and orthogonal distances from x_K, per corner.

        The edge of corner j joins local vertices j and j+1.  Returns the
        length and the midpoint coordinates of every corner's edge.
        """
        dx, dy = px[nxt] - px, py[nxt] - py
        lengths = np.sqrt(dx * dx + dy * dy)
        # For a counterclockwise polygon (dy, -dx) points outward.
        nx, ny = dy / lengths, -dx / lengths
        self.corner_normals = np.column_stack((nx, ny))
        mx, my = 0.5 * (px + px[nxt]), 0.5 * (py + py[nxt])
        cx, cy = self.cell_points.T
        self.corner_edge_dists = (mx - cx[cell]) * nx + (my - cy[cell]) * ny
        return lengths, mx, my

    def _build_edges(self, nxt, lengths, mx, my):
        # An edge takes the length and centre of its first corner: both are
        # symmetric in the two ends.  A second corner makes it interior.
        a = self.corner_vertices
        b = a[nxt]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        first_corner, edges, slot = _number_by_first_appearance(lo * self.n_vertices + hi)
        self.corner_edges = edges
        self.n_edges = first_corner.size

        third = np.flatnonzero(slot >= 2)
        if third.size:
            j = int(third[0])
            raise MeshValidationError(f"edge {int(edges[j])} between vertices "
                                      f"{(int(lo[j]), int(hi[j]))} has more than two cells")

        self.edge_centers = np.column_stack((mx[first_corner], my[first_corner]))
        self.edge_lengths = lengths[first_corner]
        ok = (0.0 < self.edge_lengths) & (self.edge_lengths < math.inf)
        if not ok.all():
            e = int(np.argmin(ok))
            what = "zero" if self.edge_lengths[e] == 0.0 else "non-finite"
            raise MeshValidationError(f"edge {e} has {what} length")
        interior = np.zeros(self.n_edges, dtype=bool)
        interior[edges[slot == 1]] = True
        self.boundary_edges = np.flatnonzero(~interior)
        self.interior_edges = np.flatnonzero(interior)


def mesh_size(mesh: PolytopalMesh) -> float:
    """Largest cell diameter."""
    return float(np.max(mesh.cell_diameters))


def validate(mesh: PolytopalMesh) -> dict:
    """Check the mesh invariants and return a report of the worst defects.

    Raises MeshValidationError naming the offending cell or edge on the first
    violated invariant.  The cells must tile the bounding box exactly: the
    sum of ``cell_areas`` (to ``GEOM_TOL`` relative), the Euler characteristic
    and the position of boundary edges are all checked, which catches cracks
    and hanging nodes.
    """
    xmin, xmax, ymin, ymax = mesh.bbox
    scale = max(xmax - xmin, ymax - ymin)

    n = mesh.n_cells
    starts = mesh.cell_offsets[:-1]
    cell = np.repeat(np.arange(n), np.diff(mesh.cell_offsets))
    lengths = mesh.edge_lengths[mesh.corner_edges]
    nx, ny = mesh.corner_normals.T
    closure = np.hypot(np.bincount(cell, nx * lengths, minlength=n),
                       np.bincount(cell, ny * lengths, minlength=n))
    perimeter = np.bincount(cell, lengths, minlength=n)
    dmin = np.minimum.reduceat(mesh.corner_edge_dists, starts)
    open_cells = ~(closure <= GEOM_TOL * np.maximum(1.0, perimeter))
    unseen = ~(dmin > 0.0)
    bad = np.flatnonzero(open_cells | unseen)
    if bad.size:
        k = int(bad[0])
        if open_cells[k]:
            raise MeshValidationError(
                f"cell {k}: edge normals do not close up (defect {closure[k]:.3e})")
        a, b = mesh.cell_offsets[k:k + 2]
        j = a + int(np.argmin(mesh.corner_edge_dists[a:b]))
        raise MeshValidationError(
            f"cell {k}: point x_K does not see edge {int(mesh.corner_edges[j])} "
            f"from inside (d = {dmin[k]:.3e})")

    area_sum = float(np.sum(mesh.cell_areas))
    bbox_area = (xmax - xmin) * (ymax - ymin)
    area_defect = abs(area_sum - bbox_area) / bbox_area
    euler = mesh.n_vertices - mesh.n_edges + mesh.n_cells

    if area_defect > GEOM_TOL:
        raise MeshValidationError(
            f"cell areas sum to {area_sum!r}, bounding box area is {bbox_area!r}")
    if euler != 1:
        raise MeshValidationError(
            f"Euler characteristic V - E + F = {euler}, expected 1")
    boundary = mesh.boundary_edges
    cx, cy = mesh.edge_centers[boundary].T
    near = GEOM_TOL * scale
    on_box = ((np.minimum(np.abs(cx - xmin), np.abs(cx - xmax)) <= near)
              | (np.minimum(np.abs(cy - ymin), np.abs(cy - ymax)) <= near))
    off_box = boundary[~on_box]
    if off_box.size:
        raise MeshValidationError(
            f"edge {int(off_box[0])} has one owning cell but does not lie on the "
            f"domain boundary (possible hanging node or crack)")

    return {
        "n_cells": mesh.n_cells,
        "n_edges": mesh.n_edges,
        "n_vertices": mesh.n_vertices,
        "h": mesh_size(mesh),
        "max_closure_defect": max(0.0, float(np.max(closure / perimeter))),
        "min_edge_distance": float(np.min(dmin)),
        "area_defect": area_defect,
        "euler_characteristic": euler,
    }


# -- generators -------------------------------------------------------------


def _grid_vertices(m: int, bbox) -> np.ndarray:
    xmin, xmax, ymin, ymax = bbox
    xs = np.linspace(xmin, xmax, m + 1)
    ys = np.linspace(ymin, ymax, m + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack((X.ravel(), Y.ravel()))


def _cartesian_cells(m: int) -> np.ndarray:
    """Counterclockwise squares of an m x m grid, row i of cells at x_i."""
    v = (np.arange(m)[:, None] * (m + 1) + np.arange(m)).ravel()
    return np.column_stack((v, v + m + 1, v + m + 2, v + 1))


def _generate_cartesian(m: int, bbox) -> PolytopalMesh:
    return PolytopalMesh(_grid_vertices(m, bbox), _cartesian_cells(m))


def _generate_triangular(m: int, bbox) -> PolytopalMesh:
    # Each square (v, v+m+1, v+m+2, v+1) is cut along its diagonal.
    sq = _cartesian_cells(m)
    cells = np.stack((sq[:, [0, 1, 2]], sq[:, [0, 2, 3]]), axis=1).reshape(-1, 3)
    return PolytopalMesh(_grid_vertices(m, bbox), cells)


def _generate_kershaw(m: int, bbox) -> PolytopalMesh:
    """Cartesian grid under a smooth vertical shear.

    In normalised coordinates tx, ty the shear moves y by KERSHAW_AMPLITUDE *
    height * 4 ty (1 - ty) sin(4 pi tx): two sine waves across the box,
    vanishing on the whole boundary.
    """
    xmin, xmax, ymin, ymax = bbox
    height = ymax - ymin
    verts = _grid_vertices(m, bbox)
    tx = (verts[:, 0] - xmin) / (xmax - xmin)
    ty = (verts[:, 1] - ymin) / height
    verts[:, 1] += KERSHAW_AMPLITUDE * height * (4.0 * ty * (1.0 - ty) * np.sin(4.0 * math.pi * tx))
    return PolytopalMesh(verts, _cartesian_cells(m),
                         metadata={"family": "kershaw", "distortion_amplitude": KERSHAW_AMPLITUDE,
                                   "distortion_waves": 2})


def _round10(x: np.ndarray) -> np.ndarray:
    """``round(value, 10)`` of every entry, bit for bit.

    rint(x * 1e10) / 1e10 is the double nearest to N / 10^10, as round's
    result is, whenever the product rounds to round's integer N; only entries
    within a few ulps of a tie can differ, and those go through round itself.
    """
    y = x * 1e10
    out = np.rint(y) / 1e10
    tie = np.abs(np.abs(y - np.floor(y)) - 0.5) <= 4.0 * np.finfo(float).eps * np.abs(y)
    for i in np.flatnonzero(tie):
        out.flat[i] = round(float(x.flat[i]), 10)
    return out


def _clip_to_box(key, xy, side, lines, tol, n_ids):
    """Sutherland-Hodgman on padded rows of keys, coordinates and sides.

    A cut point on two lines is their box corner ``n_ids + mask``; any other
    is named by its line and the sorted keys of its segment's ends, and its
    first reach decides its sides.  Returns counts, keys and xy.
    """
    count = np.full(len(key), key.shape[1])
    next_key = n_ids + 16  # above every box corner
    # Above every key: each pass cuts each convex polygon at most twice.
    pair = next_key + 2 * len(lines) * len(key)
    bits = 1 << np.arange(4)
    for k, (axis, v, s) in enumerate(lines):
        slot = np.arange(key.shape[1])
        valid, nxt = slot < count[:, None], np.where(slot + 1 < count[:, None], slot + 1, 0)
        keep = valid & (side[..., k] >= 0)
        cross = valid & (side[..., k] * np.take_along_axis(side[..., k], nxt, axis=1) < 0)
        h, j = np.nonzero(cross)
        jq = nxt[h, j]
        p, q, sp, sq = xy[h, j], xy[h, jq], side[h, j], side[h, jq]
        dp, dq = s * (p[:, axis] - v), s * (q[:, axis] - v)
        pt = p + (q - p) * (dp / (dp - dq))[:, None]
        # On every other line the point lies on the side p and q share.
        # Where they lie on opposite sides, it is decided like a corner.
        d = np.where(sp * sq < 0, np.column_stack([sl * (pt[:, ax] - vl) for ax, vl, sl in lines]),
                     sp + sq)
        own = np.where((np.abs(d) <= tol) | (bits == 1 << k), 0, np.sign(d)).astype(np.int8)
        shared = ((sp == 0) & (sq == 0)) @ bits  # the lines p and q both lie on
        ends = np.sort(np.column_stack((key[h, j], key[h, jq])), axis=1) @ [pair, 1]
        first, number, _ = _number_by_first_appearance(
            np.where(shared > 0, (shared | 1 << k) - 16, 4 * ends + k))
        cut_side = own[first][number]
        on = cut_side == 0
        # A point on two lines is their box corner, however it is reached.
        cut_key = np.where(on.sum(axis=1) > 1, n_ids + on @ bits, next_key + number)
        next_key += first.size
        for n, (ax, vl, _) in enumerate(lines):
            pt[:, ax] = np.where(on[:, n], np.copysign(vl, pt[:, ax]), pt[:, ax])
        emitted = keep + cross.astype(int)
        at = np.cumsum(emitted, axis=1) - emitted
        count = emitted.sum(axis=1)
        hk, jk = np.nonzero(keep)
        clipped = []
        for kept, cut in ((key, cut_key), (xy, pt), (side, cut_side)):
            out = np.full((len(key), max(count.max(initial=0), 1)) + kept.shape[2:], -1, kept.dtype)
            out[hk, at[hk, jk]], out[h, at[h, j] + keep[h, j]] = kept[hk, jk], cut
            clipped.append(out)
        key, xy, side = clipped
    return count, key, xy


def _generate_hexagonal(a: float, bbox) -> PolytopalMesh:
    """Flat-top hexagons of circumradius a clipped to the box (docs/formats.md).

    A lattice corner is named by its id, a cut point by its box line and its
    segment's end keys, a box corner by its two lines.  Each point decides
    its side of each line once, from its lattice position (c a/2, r sqrt(3)
    a/2 from the box centre) or its interpolated one; within ON_LINE_TOL a
    it lies on the line and takes its coordinate (a cut point with its
    interpolated sign).  On a lattice cut to the box, array passes keep the
    corners of the hexagons inside and clip the others (``_clip_to_box``).
    Vertices are numbered by first reach in the (i, then j) sweep.
    """
    xmin, xmax, ymin, ymax = map(float, bbox)
    dy = math.sqrt(3.0) * a
    offsets = np.array([(math.cos(t), math.sin(t)) for t in np.arange(6) * math.pi / 3.0]) * a
    cx0, cy0 = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    # Centres lie 1.5 a apart in x and dy in y from the box centre.  One that
    # reaches the box, if only at a corner within ON_LINE_TOL a of it, lies
    # within a + ON_LINE_TOL a in x and dy / 2 + ON_LINE_TOL a in y of it: in
    # the first column or row past the half-extent.  The second is margin.
    ni = int(math.ceil((xmax - xmin) / (3.0 * a))) + 2
    nj = int(math.ceil(0.5 * (ymax - ymin) / dy)) + 2
    i, j = np.indices((2 * ni + 1, 2 * nj + 1)).reshape(2, -1) - [[ni], [nj]]
    # Column c and row r of each corner, as c + 3 ni + 2 and r + 2 nj + 1.
    col = 3 * (i + ni) + 2 + np.array([2, 1, -1, -2, -1, 1])[:, None]
    row = 2 * (j + nj) + 1 + i % 2 + np.array([0, 1, 1, 0, -1, -1])[:, None]
    ids = col * (4 * nj + 5) + row + 1
    # (axis, value, inward sign) of xmin, xmax, ymin, ymax
    lines = ((0, xmin, 1.0), (0, xmax, -1.0), (1, ymin, 1.0), (1, ymax, -1.0))
    # side[line, corner, hexagon]: of an x line by column, of a y line by row
    pos = (cx0 + 0.5 * a * np.arange(-3 * ni - 2, 3 * ni + 3),
           cy0 + 0.5 * dy * np.arange(-2 * nj - 1, 2 * nj + 3))
    side = np.stack([np.where(np.abs(d) <= ON_LINE_TOL * a, 0, np.sign(d)).astype(np.int8)[by]
                     for d, by in ((s * (pos[ax] - v), (col, row)[ax]) for ax, v, s in lines)])
    # Each hexagon computes its own corners, centre plus offset.
    xy = [cx0 + 1.5 * a * i + offsets[:, :1],
          cy0 + dy * j + np.where(i % 2 == 1, 0.5 * dy, 0.0) + offsets[:, 1:]]
    inside = (side >= 0).all(axis=(0, 1))
    crossing = np.flatnonzero(~inside & (side >= 0).any(axis=1).all(axis=0))
    x, y = xy[0][:, crossing], xy[1][:, crossing]
    off = np.where((x < xmin) | (x > xmax) | (y < ymin) | (y > ymax), ids[:, crossing], -2).T
    for k, (axis, v, _) in enumerate(lines):
        xy[axis][side[k] == 0] = v
    n_pts, keys, pts = _clip_to_box(
        ids[:, crossing].T, np.stack([z[:, crossing].T for z in xy], axis=-1),
        side[..., crossing].T, lines, ON_LINE_TOL * a, (6 * ni + 5) * (4 * nj + 5))
    # A hexagon that only touches the box reaches the points it touches,
    # unless it computes one of them outside the box (-2 matches no padding).
    n_pts[(n_pts < 3) & (keys[:, :2, None] == off[:, None, :]).any(axis=(1, 2))] = 0
    count = np.where(inside, 6, 0)
    count[crossing] = n_pts
    at = np.repeat(6 * np.cumsum(inside)[crossing], n_pts)  # after the inner hexagons before
    reached = np.arange(keys.shape[1]) < n_pts[:, None]
    flat = [np.insert(lattice.T[inside].ravel(), at, clipped[reached])
            for lattice, clipped in ((ids, keys), (xy[0], pts[..., 0]), (xy[1], pts[..., 1]))]
    first, vids, _ = _number_by_first_appearance(flat[0])
    # Fewer than 3 points only touch the box: they are reached, not a cell.
    cell = count >= 3
    return PolytopalMesh(_round10(np.column_stack((flat[1][first], flat[2][first]))),
                         _FlatCells(vids[np.repeat(cell, count)], count[cell]))


def generate_mesh(family: str, n: int, bbox=(-1.0, 1.0, -1.0, 1.0)) -> PolytopalMesh:
    """Generate one mesh of the requested family at refinement level n.

    Level semantics per family (documented in docs/formats.md):

    * ``cartesian``: 2^n x 2^n squares.
    * ``triangular``: n x n squares each split into two right triangles, so
      the level is the subdivision count and the size can be tuned finely.
    * ``hexagonal``: hexagons of circumradius 0.5 / 2^(n-1), boundary cells
      clipped to the box; a hexagon corner within ON_LINE_TOL circumradii of
      a box line is moved onto it, and the box itself is kept.
    * ``kershaw``: 2^(n+2) x 2^(n+2) quadrilaterals from a grid under a smooth
      vertical shear of fixed amplitude KERSHAW_AMPLITUDE = 0.21, below the
      0.25 at which it would fold a cell; the metadata records it.
    """
    if family not in MESH_FAMILIES:
        raise MeshGenerationError(
            f"unknown mesh family {family!r}, expected one of {MESH_FAMILIES}")
    if not 1 <= n <= MAX_LEVEL:
        raise MeshGenerationError(f"refinement level must be 1 to {MAX_LEVEL}, got {n}")
    xmin, xmax, ymin, ymax = bbox
    if not (0.0 < xmax - xmin < math.inf and 0.0 < ymax - ymin < math.inf):
        raise MeshGenerationError(f"degenerate bounding box {bbox!r}")

    if family == "hexagonal":
        m = 0.5 / 2 ** (n - 1)  # the circumradius
        # In a thinner box a point would lie on two parallel box lines.
        limit = 2 * ON_LINE_TOL * m
        if min(xmax - xmin, ymax - ymin) <= limit:
            raise MeshGenerationError(
                f"hexagonal box {bbox!r} must be wider and taller than "
                f"2 * ON_LINE_TOL * circumradius = {limit:.3g} at level {n}")
        # Divided by m twice: m * m underflows to zero from level 538 on.
        estimate = (xmax - xmin) * (ymax - ymin) / (1.5 * math.sqrt(3.0) * m) / m + 1
    else:  # m x m squares, each split in two when triangular
        m = {"cartesian": 2**n, "triangular": n, "kershaw": 2 ** (n + 2)}[family]
        estimate = m * m * (2 if family == "triangular" else 1)
    if estimate > MAX_CELLS:
        raise MeshGenerationError(
            f"level {n} of family {family!r} would create about {estimate:.3g} cells, "
            f"more than the budget of {MAX_CELLS}")

    generate = {"cartesian": _generate_cartesian, "triangular": _generate_triangular,
                "hexagonal": _generate_hexagonal, "kershaw": _generate_kershaw}[family]
    mesh = generate(m, bbox)
    mesh.metadata.setdefault("family", family)
    mesh.metadata["level"] = n
    mesh.metadata["bbox"] = list(bbox)
    validate(mesh)
    return mesh


# -- file formats -----------------------------------------------------------


def save_mesh(mesh: PolytopalMesh, path) -> None:
    """Write the mesh in the native JSON format (see docs/formats.md)."""
    ids, bounds = mesh.corner_vertices.tolist(), mesh.cell_offsets.tolist()
    doc = {
        "format": "polytopal-mesh",
        "version": 1,
        "vertices": mesh.vertices.tolist(),
        "cells": [ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])],
        "cell_points": mesh.cell_points.tolist(),
        "metadata": mesh.metadata,
    }
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def _clip(text: str) -> str:
    """An echo of file content for an error message, cut after ``ECHO_CHARS``."""
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS] + "..."


def _load_native_json(path, text: str) -> PolytopalMesh:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a too long integer, deep nesting
        raise MeshFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != "polytopal-mesh":
        raise MeshFormatError(f"{path}: missing 'format': 'polytopal-mesh' marker")
    for key in ("vertices", "cells"):
        if key not in doc:
            raise MeshFormatError(f"{path}: missing required field {key!r}")
    cells = doc["cells"]
    if not isinstance(cells, list):
        raise MeshFormatError(f"{path}: 'cells' must be a list of vertex id lists")
    for k, ids in enumerate(cells):
        if not isinstance(ids, list):
            raise MeshFormatError(f"{path}: cell {k} is not a list of vertex ids")
        for v in ids:
            if type(v) is not int:
                raise MeshFormatError(
                    f"{path}: cell {k} has vertex id {_clip(repr(v))}, expected an integer")
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise MeshFormatError(f"{path}: 'metadata' must be a JSON object")
    vertices = _native_points(path, doc["vertices"], "vertices")
    points = doc.get("cell_points")
    if points is not None:
        points = _native_points(path, points, "cell_points")
        if points.shape[0] != len(cells):
            raise MeshFormatError(
                f"{path}: 'cell_points' has {points.shape[0]} points for {len(cells)} cells")
    return PolytopalMesh(vertices, cells, cell_points=points, metadata=metadata)


def _native_points(path, value, name: str) -> np.ndarray:
    try:
        pts = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeshFormatError(
            f"{path}: {name!r} must be a list of [x, y] pairs ({_clip(str(exc))})") from exc
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise MeshFormatError(f"{path}: {name!r} must be a list of [x, y] pairs")
    return pts


def _load_fvca_text(path, text: str) -> PolytopalMesh:
    # split at "\n" only, so that the line numbers are the file's; a final
    # newline does not start a line of its own
    lines = text.removesuffix("\n").split("\n")
    pos = 0

    def next_tokens():
        nonlocal pos
        while pos < len(lines):
            stripped = lines[pos].split("#", 1)[0].strip()
            pos += 1
            if stripped:
                return stripped.split(), pos
        raise MeshFormatError(f"{path}: unexpected end of file at line {pos}")

    def next_count(what):
        tokens, ln = next_tokens()
        try:
            if tokens[0].isdecimal():
                return int(tokens[0])
        except ValueError:  # more digits than int() converts
            pass
        raise MeshFormatError(
            f"{path}:{ln}: expected {what} count, got {_clip(repr(tokens[0]))}")

    nv = next_count("vertex")
    verts = []  # grown line by line: a count beyond the file is an end-of-file error
    for _ in range(nv):
        tokens, ln = next_tokens()
        if len(tokens) < 2:
            raise MeshFormatError(f"{path}:{ln}: expected two coordinates")
        try:
            verts.append((float(tokens[0]), float(tokens[1])))
        except ValueError:
            raise MeshFormatError(
                f"{path}:{ln}: bad vertex coordinates {_clip(repr(tokens))}")
    nc = next_count("cell")
    cells = []
    for k in range(nc):
        tokens, ln = next_tokens()
        try:
            count = int(tokens[0])
            ids = [int(t) - 1 for t in tokens[1:1 + count]]
        except ValueError:
            raise MeshFormatError(
                f"{path}:{ln}: bad cell connectivity {_clip(repr(tokens))}")
        if len(ids) != count:
            raise MeshFormatError(
                f"{path}:{ln}: cell {k} announces {count} vertices, lists {len(ids)}")
        cells.append(ids)
    return PolytopalMesh(np.array(verts, dtype=float).reshape(nv, 2), cells)


def read_mesh(path) -> PolytopalMesh:
    """Read a mesh file without validating it; its content names its format.

    Text whose first non-blank character is ``{`` is native JSON, any other
    text the vertex/cell text format.
    """
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(f"cannot read mesh file {path}: {exc}") from exc
    load = _load_native_json if text.lstrip().startswith("{") else _load_fvca_text
    return load(path, text)


def load_mesh(path) -> PolytopalMesh:
    """Read a mesh file and validate it as generated meshes are validated."""
    mesh = read_mesh(path)
    validate(mesh)
    return mesh
