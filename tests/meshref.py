"""Per-cell reference construction and validation of polytopal meshes.

This is the cell-by-cell code the batched construction in ``hmmvi.mesh``
replaced, kept frozen so the array version can be checked against it: a
Python loop over cells for the orientation, area, centroid and diameter, a
dict of sorted vertex pairs for the edge numbering and owners, and loops over
cells and boundary edges in ``validate``.  It has no non-finite checks; those
came with the batched code.

``_generate_hexagonal`` is the hexagonal generator that clipped every
hexagon of the lattice in Python and merged vertices through a dict of
rounded coordinates; the array generator must give the same mesh bit for bit.
"""

import math

import numpy as np

from hmmvi.mesh import GEOM_TOL, MeshValidationError, PolytopalMesh


def _polygon_signed_area(pts: np.ndarray) -> float:
    x = pts[:, 0]
    y = pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _polygon_centroid(pts: np.ndarray, area: float) -> np.ndarray:
    # Computed relative to the first vertex to limit cancellation.
    rel = pts - pts[0]
    x = rel[:, 0]
    y = rel[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    cx = float(np.sum((x + np.roll(x, -1)) * cross)) / (6.0 * area)
    cy = float(np.sum((y + np.roll(y, -1)) * cross)) / (6.0 * area)
    return pts[0] + np.array([cx, cy])


class ReferenceMesh:
    """The attributes of ``PolytopalMesh``, built one cell at a time."""

    def __init__(self, vertices, cell_vertices, cell_points=None):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshValidationError("vertex array must have shape (nv, 2)")
        self.n_vertices = self.vertices.shape[0]
        self.n_cells = len(cell_vertices)
        if self.n_cells == 0:
            raise MeshValidationError("mesh has no cells")

        self.cell_vertices = []
        self.cell_areas = np.empty(self.n_cells)
        self.cell_diameters = np.empty(self.n_cells)
        centroids = np.empty((self.n_cells, 2))

        for k, idx in enumerate(cell_vertices):
            loc = np.asarray(idx, dtype=int)
            if loc.size < 3:
                raise MeshValidationError(f"cell {k} has fewer than 3 vertices")
            if np.any(loc < 0) or np.any(loc >= self.n_vertices):
                raise MeshValidationError(f"cell {k} references an unknown vertex")
            if len(set(loc.tolist())) != loc.size:
                raise MeshValidationError(f"cell {k} repeats a vertex")
            pts = self.vertices[loc]
            # Relative to the first vertex, as the centroid below; the
            # absolute form stays only in the generator's sliver floor.
            area = _polygon_signed_area(pts - pts[0])
            if area < 0.0:
                loc = loc[::-1].copy()
                pts = self.vertices[loc]
                area = -area
            if area <= 0.0:
                raise MeshValidationError(f"cell {k} has zero area")
            self.cell_vertices.append(loc)
            self.cell_areas[k] = area
            centroids[k] = _polygon_centroid(pts, area)
            diff = pts[:, None, :] - pts[None, :, :]
            self.cell_diameters[k] = math.sqrt(float(np.max(np.sum(diff**2, axis=2))))

        if cell_points is None:
            self.cell_points = centroids
        else:
            self.cell_points = np.asarray(cell_points, dtype=float).reshape(self.n_cells, 2)

        self._build_edges()
        self._build_cell_geometry()

        xmin, ymin = self.vertices.min(axis=0)
        xmax, ymax = self.vertices.max(axis=0)
        self.bbox = (float(xmin), float(xmax), float(ymin), float(ymax))

    def _build_edges(self):
        edge_ids = {}
        edge_verts = []
        owners = []
        self.cell_edges = []
        for k, loc in enumerate(self.cell_vertices):
            m = loc.size
            eids = np.empty(m, dtype=int)
            for j in range(m):
                a = int(loc[j])
                b = int(loc[(j + 1) % m])
                key = (a, b) if a < b else (b, a)
                e = edge_ids.get(key)
                if e is None:
                    e = len(edge_verts)
                    edge_ids[key] = e
                    edge_verts.append(key)
                    owners.append([])
                if len(owners[e]) >= 2:
                    raise MeshValidationError(
                        f"edge {e} between vertices {key} has more than two cells")
                owners[e].append(k)
                eids[j] = e
            self.cell_edges.append(eids)

        self.n_edges = len(edge_verts)
        self.edge_vertices = np.array(edge_verts, dtype=int)
        self.edge_cells = np.full((self.n_edges, 2), -1, dtype=int)
        for e, cells in enumerate(owners):
            for slot, k in enumerate(cells):
                self.edge_cells[e, slot] = k
        pa = self.vertices[self.edge_vertices[:, 0]]
        pb = self.vertices[self.edge_vertices[:, 1]]
        self.edge_centers = 0.5 * (pa + pb)
        self.edge_lengths = np.sqrt(np.sum((pb - pa) ** 2, axis=1))
        if np.any(self.edge_lengths <= 0.0):
            e = int(np.argmin(self.edge_lengths))
            raise MeshValidationError(f"edge {e} has zero length")
        self.is_boundary_edge = self.edge_cells[:, 1] < 0

    def _build_cell_geometry(self):
        self.cell_normals = []
        self.cell_edge_dists = []
        for k, loc in enumerate(self.cell_vertices):
            pts = self.vertices[loc]
            d = np.roll(pts, -1, axis=0) - pts
            lengths = np.sqrt(np.sum(d**2, axis=1))
            normals = np.column_stack((d[:, 1], -d[:, 0])) / lengths[:, None]
            mids = 0.5 * (pts + np.roll(pts, -1, axis=0))
            dists = np.sum((mids - self.cell_points[k]) * normals, axis=1)
            self.cell_normals.append(normals)
            self.cell_edge_dists.append(dists)

    @property
    def boundary_edges(self) -> np.ndarray:
        return np.nonzero(self.is_boundary_edge)[0]


def validate(mesh, require_bbox_cover: bool = True, tol: float = GEOM_TOL) -> dict:
    """The per-cell ``hmmvi.mesh.validate``, for a ReferenceMesh."""
    xmin, xmax, ymin, ymax = mesh.bbox
    scale = max(xmax - xmin, ymax - ymin)

    worst_closure = 0.0
    min_dist = math.inf
    for k in range(mesh.n_cells):
        lengths = mesh.edge_lengths[mesh.cell_edges[k]]
        closure = np.linalg.norm(mesh.cell_normals[k].T @ lengths)
        perimeter = float(np.sum(lengths))
        worst_closure = max(worst_closure, closure / perimeter)
        if closure > tol * max(1.0, perimeter):
            raise MeshValidationError(
                f"cell {k}: edge normals do not close up (defect {closure:.3e})")
        dmin = float(np.min(mesh.cell_edge_dists[k]))
        min_dist = min(min_dist, dmin)
        if dmin <= 0.0:
            j = int(np.argmin(mesh.cell_edge_dists[k]))
            raise MeshValidationError(
                f"cell {k}: point x_K does not see edge {int(mesh.cell_edges[k][j])} "
                f"from inside (d = {dmin:.3e})")

    counts = np.sum(mesh.edge_cells >= 0, axis=1)
    if np.any(counts < 1):
        e = int(np.nonzero(counts < 1)[0][0])
        raise MeshValidationError(f"edge {e} has no owning cell")

    area_sum = float(np.sum(mesh.cell_areas))
    bbox_area = (xmax - xmin) * (ymax - ymin)
    area_defect = abs(area_sum - bbox_area) / bbox_area
    euler = mesh.n_vertices - mesh.n_edges + mesh.n_cells

    if require_bbox_cover:
        if area_defect > tol:
            raise MeshValidationError(
                f"cell areas sum to {area_sum!r}, bounding box area is {bbox_area!r}")
        if euler != 1:
            raise MeshValidationError(
                f"Euler characteristic V - E + F = {euler}, expected 1")
        for e in mesh.boundary_edges:
            c = mesh.edge_centers[e]
            on_box = (min(abs(c[0] - xmin), abs(c[0] - xmax)) <= tol * scale
                      or min(abs(c[1] - ymin), abs(c[1] - ymax)) <= tol * scale)
            if not on_box:
                raise MeshValidationError(
                    f"edge {int(e)} has one owning cell but does not lie on the "
                    f"domain boundary (possible hanging node or crack)")

    return {
        "n_cells": mesh.n_cells,
        "n_edges": mesh.n_edges,
        "n_vertices": mesh.n_vertices,
        "h": float(np.max(mesh.cell_diameters)),
        "max_closure_defect": worst_closure,
        "min_edge_distance": min_dist,
        "area_defect": area_defect,
        "euler_characteristic": euler,
    }


def _clip_to_box(pts: np.ndarray, bbox) -> np.ndarray:
    """Sutherland-Hodgman clipping of a convex polygon against a box."""
    xmin, xmax, ymin, ymax = bbox
    halfplanes = (
        lambda p: p[0] - xmin,
        lambda p: xmax - p[0],
        lambda p: p[1] - ymin,
        lambda p: ymax - p[1],
    )
    poly = [p for p in pts]
    for inside in halfplanes:
        if not poly:
            return np.empty((0, 2))
        out = []
        n = len(poly)
        for i in range(n):
            a, b = poly[i], poly[(i + 1) % n]
            da, db = inside(a), inside(b)
            if da >= 0.0:
                out.append(a)
                if db < 0.0:
                    out.append(a + (b - a) * (da / (da - db)))
            elif db >= 0.0:
                out.append(a + (b - a) * (da / (da - db)))
        poly = out
    return np.array(poly) if poly else np.empty((0, 2))


def _generate_hexagonal(circumradius: float, bbox) -> PolytopalMesh:
    """Flat-top hexagon tiling clipped to the box.

    Boundary hexagons are cut to pentagons, quadrilaterals or triangles; the
    cut keeps the tiling conforming because neighbouring cells are clipped
    against the same box lines.
    """
    xmin, xmax, ymin, ymax = bbox
    a = circumradius
    dy = math.sqrt(3.0) * a
    offsets = np.array([(math.cos(t), math.sin(t))
                        for t in np.arange(6) * math.pi / 3.0]) * a
    cx0 = 0.5 * (xmin + xmax)
    cy0 = 0.5 * (ymin + ymax)

    key_of: dict[tuple, int] = {}
    verts: list = []
    cells: list = []

    def vertex_id(p) -> int:
        key = (round(float(p[0]), 10), round(float(p[1]), 10))
        v = key_of.get(key)
        if v is None:
            v = len(verts)
            key_of[key] = v
            verts.append(np.array(key))
        return v

    ni = int(math.ceil((xmax - xmin) / (3.0 * a))) + 2
    nj = int(math.ceil((ymax - ymin) / dy)) + 2
    for i in range(-ni, ni + 1):
        for j in range(-nj, nj + 1):
            center = np.array([cx0 + 1.5 * a * i,
                               cy0 + dy * j + (0.5 * dy if i % 2 else 0.0)])
            clipped = _clip_to_box(center + offsets, bbox)
            if clipped.shape[0] < 3:
                continue
            ids = []
            for p in clipped:
                v = vertex_id(p)
                if not ids or (v != ids[-1] and v != ids[0]):
                    ids.append(v)
            if len(ids) < 3:
                continue
            pts = np.array([verts[v] for v in ids])
            if abs(_polygon_signed_area(pts)) < 1e-12 * a * a:
                continue
            cells.append(ids)

    return PolytopalMesh(np.array(verts), cells)
