"""Polytopal meshes of planar box domains.

A mesh is a conforming partition of an axis-aligned box into simple polygonal
cells.  Every cell carries a distinguished point x_K (the centroid unless a
mesh file declares otherwise) that must see all edges of the cell from the
inside: the orthogonal distance d from x_K to each edge line is required to be
strictly positive.  That star-shapedness condition is what the discretisation
needs to split cells into well-defined edge subcells.

All geometric quantities (areas, centroids, normals, edge lengths) are
recomputed from the vertex coordinates; files are never trusted for derived
geometry.  Cell vertex lists are normalised to counterclockwise order on
construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

GEOM_TOL = 1e-12

MESH_FAMILIES = ("cartesian", "triangular", "hexagonal", "kershaw")


class MeshError(Exception):
    """Base class for mesh construction and validation problems."""


class MeshFormatError(MeshError):
    """A mesh file could not be parsed."""


class MeshValidationError(MeshError):
    """A mesh violates one of the documented invariants."""


class MeshGenerationError(MeshError):
    """A generator was asked for something it cannot produce."""


@dataclass(frozen=True)
class Cell:
    """Read-only view of one polygonal cell."""

    index: int
    vertices: tuple
    edges: tuple
    point: np.ndarray
    area: float
    diameter: float


@dataclass(frozen=True)
class Edge:
    """Read-only view of one edge, with per-owner normals and distances."""

    index: int
    vertices: tuple
    center: np.ndarray
    length: float
    cells: tuple
    is_boundary: bool


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


class PolytopalMesh:
    """Conforming polygonal mesh with per-cell star points.

    Parameters
    ----------
    vertices : (nv, 2) array of vertex coordinates.
    cell_vertices : sequence of integer index sequences, one per cell.  Any
        consistent orientation is accepted; clockwise cells are reversed.
    cell_points : optional (nc, 2) array of declared cell points x_K.  When
        omitted the centroid is used.
    metadata : optional dict recorded verbatim (generator family, level,
        distortion caps and similar provenance of the construction).
    """

    def __init__(self, vertices, cell_vertices, cell_points=None, metadata=None):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshValidationError("vertex array must have shape (nv, 2)")
        self.n_vertices = self.vertices.shape[0]
        self.n_cells = len(cell_vertices)
        if self.n_cells == 0:
            raise MeshValidationError("mesh has no cells")

        self.cell_vertices: list[np.ndarray] = []
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
            area = _polygon_signed_area(pts)
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
        self.metadata = dict(metadata) if metadata else {}

        for arr in (self.vertices, self.cell_points, self.cell_areas,
                    self.cell_diameters, self.edge_vertices, self.edge_cells,
                    self.edge_centers, self.edge_lengths, self.is_boundary_edge):
            arr.setflags(write=False)

    def _build_edges(self):
        edge_ids: dict[tuple, int] = {}
        edge_verts: list[tuple] = []
        owners: list[list[int]] = []
        self.cell_edges: list[np.ndarray] = []
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
        # Outward unit normals and orthogonal distances from x_K, in the
        # per-cell edge order (edge j joins local vertices j and j+1).
        self.cell_normals: list[np.ndarray] = []
        self.cell_edge_dists: list[np.ndarray] = []
        for k, loc in enumerate(self.cell_vertices):
            pts = self.vertices[loc]
            d = np.roll(pts, -1, axis=0) - pts
            lengths = np.sqrt(np.sum(d**2, axis=1))
            # For a counterclockwise polygon (dy, -dx) points outward.
            normals = np.column_stack((d[:, 1], -d[:, 0])) / lengths[:, None]
            mids = 0.5 * (pts + np.roll(pts, -1, axis=0))
            dists = np.sum((mids - self.cell_points[k]) * normals, axis=1)
            normals.setflags(write=False)
            dists.setflags(write=False)
            self.cell_normals.append(normals)
            self.cell_edge_dists.append(dists)

    # -- convenience views -------------------------------------------------

    def cell(self, k: int) -> Cell:
        return Cell(
            index=k,
            vertices=tuple(int(v) for v in self.cell_vertices[k]),
            edges=tuple(int(e) for e in self.cell_edges[k]),
            point=self.cell_points[k],
            area=float(self.cell_areas[k]),
            diameter=float(self.cell_diameters[k]),
        )

    def edge(self, e: int) -> Edge:
        cells = tuple(int(c) for c in self.edge_cells[e] if c >= 0)
        return Edge(
            index=e,
            vertices=tuple(int(v) for v in self.edge_vertices[e]),
            center=self.edge_centers[e],
            length=float(self.edge_lengths[e]),
            cells=cells,
            is_boundary=bool(self.is_boundary_edge[e]),
        )

    @property
    def boundary_edges(self) -> np.ndarray:
        return np.nonzero(self.is_boundary_edge)[0]

    @property
    def interior_edges(self) -> np.ndarray:
        return np.nonzero(~self.is_boundary_edge)[0]

    def __repr__(self):
        return (f"PolytopalMesh({self.n_cells} cells, {self.n_edges} edges, "
                f"{self.n_vertices} vertices, h={mesh_size(self):.4g})")


def mesh_size(mesh: PolytopalMesh) -> float:
    """Largest cell diameter."""
    return float(np.max(mesh.cell_diameters))


def validate(mesh: PolytopalMesh, require_bbox_cover: bool = True,
             tol: float = GEOM_TOL) -> dict:
    """Check the mesh invariants and return a report of the worst defects.

    Raises MeshValidationError naming the offending cell or edge on the first
    violated invariant.  With ``require_bbox_cover`` the cells must tile the
    bounding box exactly: total area, Euler characteristic and the position of
    boundary edges are all checked, which catches cracks and hanging nodes.
    """
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
        "h": mesh_size(mesh),
        "max_closure_defect": worst_closure,
        "min_edge_distance": min_dist,
        "area_defect": area_defect,
        "euler_characteristic": euler,
    }


# -- generators -------------------------------------------------------------


def _grid_vertices(m_x: int, m_y: int, bbox) -> np.ndarray:
    xmin, xmax, ymin, ymax = bbox
    xs = np.linspace(xmin, xmax, m_x + 1)
    ys = np.linspace(ymin, ymax, m_y + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack((X.ravel(), Y.ravel()))


def _cartesian_cells(m: int) -> list:
    def vid(i, j):
        return i * (m + 1) + j

    cells = []
    for i in range(m):
        for j in range(m):
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return cells


def _generate_cartesian(m: int, bbox) -> PolytopalMesh:
    return PolytopalMesh(_grid_vertices(m, m, bbox), _cartesian_cells(m))


def _generate_triangular(m: int, bbox) -> PolytopalMesh:
    def vid(i, j):
        return i * (m + 1) + j

    cells = []
    for i in range(m):
        for j in range(m):
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            cells.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return PolytopalMesh(_grid_vertices(m, m, bbox), cells)


def _generate_kershaw(m: int, bbox, target_amplitude: float = 0.3,
                      waves: int = 2) -> PolytopalMesh:
    """Cartesian grid with a smooth sinusoidal vertical shear.

    The vertical displacement is amplitude * height * 4 ty (1 - ty) *
    sin(2 pi waves tx) in normalised coordinates, so it vanishes on the whole
    boundary.  The amplitude is reduced geometrically until every cell sees
    all of its edges from the centroid; the value actually used is recorded in
    the metadata.
    """
    xmin, xmax, ymin, ymax = bbox
    height = ymax - ymin
    base = _grid_vertices(m, m, bbox)
    tx = (base[:, 0] - xmin) / (xmax - xmin)
    ty = (base[:, 1] - ymin) / height
    shape = 4.0 * ty * (1.0 - ty) * np.sin(2.0 * math.pi * waves * tx)
    cells = _cartesian_cells(m)

    amplitude = target_amplitude
    while amplitude > 1e-3:
        verts = base.copy()
        verts[:, 1] += amplitude * height * shape
        try:
            mesh = PolytopalMesh(verts, cells,
                                 metadata={"family": "kershaw",
                                           "distortion_amplitude": amplitude,
                                           "distortion_waves": waves,
                                           "target_amplitude": target_amplitude})
            validate(mesh)
            return mesh
        except MeshValidationError:
            amplitude *= 0.7
    raise MeshGenerationError(
        f"no valid distortion amplitude found for kershaw mesh with m={m}")


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


def generate_mesh(family: str, n: int, bbox=(-1.0, 1.0, -1.0, 1.0),
                  max_cells: int = 2_000_000) -> PolytopalMesh:
    """Generate one mesh of the requested family at refinement level n.

    Level semantics per family (documented in docs/formats.md):

    * ``cartesian``: 2^n x 2^n squares.
    * ``triangular``: n x n squares each split into two right triangles, so
      the level is the subdivision count and the size can be tuned finely.
    * ``hexagonal``: hexagons of circumradius 0.5 / 2^(n-1), boundary cells
      clipped to the box.
    * ``kershaw``: 2^(n+2) x 2^(n+2) quadrilaterals from a smoothly sheared
      grid; the shear amplitude actually used is recorded in the metadata.
    """
    if family not in MESH_FAMILIES:
        raise MeshGenerationError(
            f"unknown mesh family {family!r}, expected one of {MESH_FAMILIES}")
    if n < 1:
        raise MeshGenerationError("refinement level must be >= 1")
    xmin, xmax, ymin, ymax = bbox
    if not (xmax > xmin and ymax > ymin):
        raise MeshGenerationError(f"degenerate bounding box {bbox!r}")

    if family == "cartesian":
        m = 2**n
        estimate = m * m
    elif family == "triangular":
        m = n
        estimate = 2 * m * m
    elif family == "kershaw":
        m = 2 ** (n + 2)
        estimate = m * m
    else:
        a = 0.5 / 2 ** (n - 1)
        estimate = int((xmax - xmin) * (ymax - ymin) / (1.5 * math.sqrt(3.0) * a * a)) + 1
    if estimate > max_cells:
        raise MeshGenerationError(
            f"level {n} of family {family!r} would create about {estimate} cells, "
            f"more than the budget of {max_cells}")

    if family == "cartesian":
        mesh = _generate_cartesian(m, bbox)
    elif family == "triangular":
        mesh = _generate_triangular(m, bbox)
    elif family == "kershaw":
        mesh = _generate_kershaw(m, bbox)
    else:
        mesh = _generate_hexagonal(a, bbox)

    mesh.metadata.setdefault("family", family)
    mesh.metadata["level"] = n
    mesh.metadata["bbox"] = list(bbox)
    validate(mesh)
    return mesh


# -- file formats -----------------------------------------------------------


def save_mesh(mesh: PolytopalMesh, path) -> None:
    """Write the mesh in the native JSON format (see docs/formats.md)."""
    doc = {
        "format": "polytopal-mesh",
        "version": 1,
        "vertices": mesh.vertices.tolist(),
        "cells": [loc.tolist() for loc in mesh.cell_vertices],
        "cell_points": mesh.cell_points.tolist(),
        "metadata": mesh.metadata,
    }
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def _load_native_json(path) -> PolytopalMesh:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise MeshFormatError(f"cannot read mesh file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
                    f"{path}: cell {k} has vertex id {v!r}, expected an integer")
    vertices = _native_points(path, doc["vertices"], "vertices")
    points = doc.get("cell_points")
    if points is not None:
        points = _native_points(path, points, "cell_points")
        if points.shape[0] != len(cells):
            raise MeshFormatError(
                f"{path}: 'cell_points' has {points.shape[0]} points for {len(cells)} cells")
    return PolytopalMesh(vertices, cells, cell_points=points, metadata=doc.get("metadata"))


def _native_points(path, value, name: str) -> np.ndarray:
    try:
        pts = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeshFormatError(f"{path}: {name!r} must be a list of [x, y] pairs ({exc})") from exc
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise MeshFormatError(f"{path}: {name!r} must be a list of [x, y] pairs")
    return pts


def _load_fvca_text(path) -> PolytopalMesh:
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise MeshFormatError(f"cannot read mesh file {path}: {exc}") from exc
    pos = 0

    def next_tokens():
        nonlocal pos
        while pos < len(lines):
            stripped = lines[pos].split("#", 1)[0].strip()
            pos += 1
            if stripped:
                return stripped.split(), pos
        raise MeshFormatError(f"{path}: unexpected end of file at line {pos}")

    tokens, ln = next_tokens()
    try:
        nv = int(tokens[0])
    except ValueError:
        raise MeshFormatError(f"{path}:{ln}: expected vertex count, got {tokens[0]!r}")
    verts = np.empty((nv, 2))
    for i in range(nv):
        tokens, ln = next_tokens()
        if len(tokens) < 2:
            raise MeshFormatError(f"{path}:{ln}: expected two coordinates")
        try:
            verts[i] = (float(tokens[0]), float(tokens[1]))
        except ValueError:
            raise MeshFormatError(f"{path}:{ln}: bad vertex coordinates {tokens!r}")
    tokens, ln = next_tokens()
    try:
        nc = int(tokens[0])
    except ValueError:
        raise MeshFormatError(f"{path}:{ln}: expected cell count, got {tokens[0]!r}")
    cells = []
    for k in range(nc):
        tokens, ln = next_tokens()
        try:
            count = int(tokens[0])
            ids = [int(t) - 1 for t in tokens[1:1 + count]]
        except ValueError:
            raise MeshFormatError(f"{path}:{ln}: bad cell connectivity {tokens!r}")
        if len(ids) != count:
            raise MeshFormatError(
                f"{path}:{ln}: cell {k} announces {count} vertices, lists {len(ids)}")
        cells.append(ids)
    return PolytopalMesh(verts, cells)


def load_mesh(path, fmt: Optional[str] = None) -> PolytopalMesh:
    """Load a mesh file in ``native_json`` or ``fvca_text`` format.

    When ``fmt`` is omitted it is inferred from the extension (.json means
    native JSON, anything else the text format).  The loaded mesh goes
    through the same validation as generated meshes.
    """
    if fmt is None:
        fmt = "native_json" if str(path).endswith(".json") else "fvca_text"
    if fmt == "native_json":
        mesh = _load_native_json(path)
    elif fmt == "fvca_text":
        mesh = _load_fvca_text(path)
    else:
        raise MeshFormatError(f"unknown mesh format {fmt!r}")
    validate(mesh)
    return mesh
