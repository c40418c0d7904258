"""Hybrid mimetic mixed discretisation on polytopal meshes.

Degrees of freedom are one value per cell and one value per edge.  The
reconstructed function is piecewise constant, equal to the cell value on each
cell.  The reconstructed gradient is piecewise constant on the edge subcells
D_{K,sigma} (the triangles spanned by an edge and the cell point x_K):

    grad_K v   = (1/|K|) sum_sigma |sigma| v_sigma n_{K,sigma}
    R_K(v)_s   = v_sigma - v_K - grad_K v . (x_sigma - x_K)
    grad_D v   = grad_K v + (sqrt(2)/d_{K,sigma}) R_K(v)_s n_{K,sigma}

The stabilised gradient is exact for affine functions sampled at cell points
and edge midpoints.  On each subcell it is a small linear map L_s of the
cell's own unknowns, and these maps are the scheme's one gradient
representation.  The stiffness is the sum over the cells of the local forms
A_K = sum_s |D_s| L_s^T Lambda_K L_s.  The maps do not depend on Lambda, so
with Lambda = I the stiffness is the unweighted gradient form in which the
quality measures are taken.

The cells are grouped by corner count, and ``_gradient_groups`` computes
each group's maps in one pass over contiguous arrays, one per vector
component, with the cells on the last axis.  Nothing holds them between
calls: the stiffness is built from one pass, one batched block A_K per cell,
each symmetrised, and the blocks are summed once into CSR.  A gradient
reconstruction applies one pass's maps to the local unknowns.

Homogeneous Dirichlet conditions eliminate the boundary edge unknowns; with
non-homogeneous data the same unknowns are pinned to the boundary values
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .mesh import PolytopalMesh

# Every diffusion tensor must have its eigenvalues in this closed interval.
EIG_BOUNDS = (1e-12, 1e12)


class DiscretisationError(Exception):
    """Invalid diffusion data or mismatched vector sizes."""


@dataclass
class DofVector:
    """Values for every cell followed by values for every edge."""

    values: np.ndarray
    n_cells: int

    @property
    def cells(self) -> np.ndarray:
        return self.values[:self.n_cells]

    @property
    def edges(self) -> np.ndarray:
        return self.values[self.n_cells:]


@dataclass(eq=False)
class AssembledForms:
    """Global sparse forms over the full cell+edge unknown set.

    One object serves every time step of a run; the mass is kept as its
    diagonal.  Forms compare by identity: the solver and the diagnostics keep
    what they derive from them in their own modules, per forms object.
    """

    gd: GradientDiscretisation = field(repr=False)
    stiffness: sp.csr_matrix        # diffusion-weighted gradient form
    mass_diag: np.ndarray           # |K| on cell entries, zero on edges


def _as_diffusion_field(mesh: PolytopalMesh, diffusion) -> np.ndarray:
    nc = mesh.n_cells
    try:
        arr = np.asarray(np.eye(2) if diffusion is None else diffusion, dtype=float)
    except (TypeError, ValueError):
        got = f"a {type(diffusion).__name__}"
    else:
        if arr.shape == (2, 2):
            return np.broadcast_to(arr, (nc, 2, 2)).copy()
        if arr.shape == (nc, 2, 2):
            return arr.copy()
        got = f"shape {arr.shape}"
    raise DiscretisationError(f"diffusion must be None, a 2x2 array or a "
                              f"({nc}, 2, 2) array of numbers, got {got}")


def _check_diffusion(field: np.ndarray) -> None:
    lo, hi = EIG_BOUNDS
    # One contiguous array per entry: a = L_00, b = L_01, c = L_10, d = L_11.
    a, b, c, d = field.reshape(-1, 4).T.copy()
    bad = np.flatnonzero(~(np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d)))
    if bad.size:
        k = int(bad[0])
        raise DiscretisationError(
            f"diffusion tensor on cell {k} is not finite: {field[k].tolist()}")
    sym_defect = np.abs(b - c)
    scale = np.maximum(1.0, np.maximum(np.maximum(np.abs(a), np.abs(b)),
                                       np.maximum(np.abs(c), np.abs(d))))
    bad = np.nonzero(sym_defect > 1e-12 * scale)[0]
    if bad.size:
        raise DiscretisationError(f"diffusion tensor on cell {int(bad[0])} is not symmetric")
    # Closed-form eigenvalues of a symmetric 2x2 matrix.
    tr = a + d
    det = a * d - b * c
    disc = np.sqrt(np.maximum(0.0, 0.25 * tr * tr - det))
    lam_min = 0.5 * tr - disc
    lam_max = 0.5 * tr + disc
    bad = np.nonzero((lam_min < lo) | (lam_max > hi))[0]
    if bad.size:
        k = int(bad[0])
        raise DiscretisationError(
            f"diffusion eigenvalues on cell {k} are [{lam_min[k]:.3e}, {lam_max[k]:.3e}], "
            f"outside the allowed bounds [{lo:.3e}, {hi:.3e}]")


class GradientDiscretisation:
    """Diffusion field, subcell volumes and unknown layout.

    Unknown ordering is all cells first, then all edges: edge e is unknown
    n_cells + e.  Subcell s is the mesh's corner s: it belongs to cell
    ``subcell_cell[s]`` and to edge ``mesh.corner_edges[s]``.  Instances are
    immutable and can be shared between solves: every array is read-only.
    """

    def __init__(self, mesh: PolytopalMesh, diffusion=None):
        self.mesh = mesh
        self.diffusion = _as_diffusion_field(mesh, diffusion)
        _check_diffusion(self.diffusion)
        self.n_cells = mesh.n_cells
        self.n_edges = mesh.n_edges
        self.n_dofs = self.n_cells + self.n_edges

        counts = np.diff(mesh.cell_offsets)
        self.subcell_cell = np.repeat(np.arange(self.n_cells), counts)
        self.subcell_volumes = 0.5 * mesh.edge_lengths[mesh.corner_edges] * mesh.corner_edge_dists
        self.n_subcells = self.subcell_cell.size

        bdofs = self.n_cells + mesh.boundary_edges
        self.boundary_edge_dofs = bdofs
        free = np.ones(self.n_dofs, dtype=bool)
        free[bdofs] = False
        self.free_dofs = np.nonzero(free)[0]

        for arr in (self.diffusion, self.subcell_cell, self.subcell_volumes,
                    self.boundary_edge_dofs, self.free_dofs):
            arr.setflags(write=False)

    # -- unknown layout ------------------------------------------------------

    def zeros(self) -> DofVector:
        return DofVector(np.zeros(self.n_dofs), self.n_cells)

    def check_vector(self, v: DofVector) -> None:
        if v.values.shape != (self.n_dofs,) or v.n_cells != self.n_cells:
            raise DiscretisationError(
                f"vector has {v.values.shape[0]} entries for {v.n_cells} cells, "
                f"expected {self.n_dofs} and {self.n_cells}")


def _index_type(n_entries: int, n_dofs: int) -> type:
    """The index type scipy picks for the stiffness: int32 while its
    Sigma (m + 1)^2 block entries and the unknown count both fit in it."""
    return np.int32 if max(n_entries, n_dofs) < 2**31 else np.int64


def _gradient_groups(gd: GradientDiscretisation):
    """Each corner-count group's subcell gradient maps, cells on the last axis.

    For subcells s and t of cell K, with g_t = |sigma_t| n_t / |K| and
    c_s = sqrt(2) / d_s n_s, the edge-t column is
    g_t + c_s (delta_st - (x_sigma_s - x_K) . g_t) and the cell column is
    -c_s.  Yields ``(cells, corners, vals, cols)`` per corner count m:
    ``corners[s, k]`` is subcell s of ``cells[k]``, and ``vals[s, i, j, k]``
    component i of its gradient per unit of the local unknown ``cols[j, k]``,
    the cell first, then its edges by ascending number.
    """
    mesh, n, cell, edges = gd.mesh, gd.n_cells, gd.subcell_cell, gd.mesh.corner_edges
    counts = np.diff(mesh.cell_offsets)
    lengths = mesh.edge_lengths[edges]
    nx, ny = mesh.corner_normals.T
    area = mesh.cell_areas[cell]
    gx, gy = nx * lengths / area, ny * lengths / area
    scale = math.sqrt(2.0) / mesh.corner_edge_dists
    cx, cy = scale * nx, scale * ny
    (ex, ey), (px, py) = mesh.edge_centers.T, mesh.cell_points.T
    dx, dy = ex[edges] - px[cell], ey[edges] - py[cell]
    for m in np.unique(counts):
        cells = np.flatnonzero(counts == m)
        corners = mesh.cell_offsets[cells] + np.arange(m)[:, None]  # [s, k]: subcell s
        e = edges[corners]
        rank = np.count_nonzero(e < e[:, None], axis=1)  # column of subcell s's edge
        ranked = np.empty_like(corners)  # [t, k]: the subcell of column t
        np.put_along_axis(ranked, rank, corners, axis=0)
        stab = (rank[:, None] == np.arange(m)[:, None]) - (
            dx[corners][:, None] * gx[ranked] + dy[corners][:, None] * gy[ranked])
        vals = np.empty((m, 2, m + 1, cells.size))  # [s, component, column, k]
        for i, (c, g) in enumerate(((cx[corners], gx[ranked]), (cy[corners], gy[ranked]))):
            np.negative(c, out=vals[:, i, 0])
            np.multiply(c[:, None], stab, out=vals[:, i, 1:])
            vals[:, i, 1:] += g
        del stab
        yield cells, corners, vals, np.concatenate((cells[None], n + edges[ranked]))
        del vals


def build_gd(mesh: PolytopalMesh, diffusion=None) -> GradientDiscretisation:
    """Build the discretisation for a mesh and an optional diffusion field.

    ``diffusion`` is None (identity), a constant 2x2 array or a per-cell
    (n_cells, 2, 2) array; for a field ``f`` of the position, pass
    ``f(mesh.cell_points)``.  Each tensor must be symmetric with eigenvalues
    inside ``EIG_BOUNDS``.
    """
    return GradientDiscretisation(mesh, diffusion)


# -- reconstructions ---------------------------------------------------------


def reconstruct_gradient_flat(gd: GradientDiscretisation, v: DofVector) -> np.ndarray:
    """Per-subcell gradients as an (n_subcells, 2) array.

    Subcells are ordered cell by cell, matching ``gd.subcell_cell`` and
    ``gd.subcell_volumes``.
    """
    return _apply_gradient_maps(gd, _gradient_groups(gd), v)


def _apply_gradient_maps(gd: GradientDiscretisation, groups, v: DofVector) -> np.ndarray:
    """``reconstruct_gradient_flat`` with the maps of ``_gradient_groups`` given.

    Each subcell's sum starts at +0 and adds the terms of its local unknowns
    in their column order, the cell first, then the edges by ascending
    number, as the product with the CSR matrix of the maps would.
    """
    gd.check_vector(v)
    out = np.empty((gd.n_subcells, 2))
    for _, corners, vals, cols in groups:
        x = v.values[cols]
        g = np.zeros(vals.shape[:2] + x.shape[1:])  # [s, component, k]
        for j, xj in enumerate(x):
            g += vals[:, :, j] * xj
        out[corners] = g.transpose(0, 2, 1)
    return out


def assemble_forms(gd: GradientDiscretisation) -> AssembledForms:
    """Assemble the global stiffness and the diagonal cell mass.

    The stiffness sums the local forms A_K of the module docstring, one
    batched pass per corner-count group.  Each A_K is symmetrised, so every
    entry, held by one cell (all off-diagonal ones) or by two, is exactly
    symmetric.  The blocks go once into canonical CSR without exact zeros.
    """
    vols, lam, counts = gd.subcell_volumes, gd.diffusion, np.diff(gd.mesh.cell_offsets)
    # Cell K's block takes (m_K + 1)^2 entries, its group's in [j, l, k] order.
    size = int(np.sum((counts + 1) ** 2))
    index = _index_type(size, gd.n_dofs)
    data, rows, cols = np.empty(size), np.empty(size, dtype=index), np.empty(size, dtype=index)
    start = 0
    for cells, corners, vals, dofs in _gradient_groups(gd):
        block = (vals.shape[2], vals.shape[2], cells.size)
        stop = start + math.prod(block)
        w = vols[corners][:, None]
        weighted = np.empty_like(vals)  # |D_s| Lambda_K applied to each map
        for i in range(2):
            np.multiply(w * lam[cells, i, 0], vals[:, 0], out=weighted[:, i])
            weighted[:, i] += w * lam[cells, i, 1] * vals[:, 1]
        flat = (-1,) + block[1:]
        A = data[start:stop].reshape(block)
        np.einsum("sjk,slk->jlk", vals.reshape(flat), weighted.reshape(flat), out=A)
        del vals, weighted
        A += A.transpose(1, 0, 2)
        A *= 0.5
        rows[start:stop].reshape(block)[...] = dofs[:, None]
        cols[start:stop].reshape(block)[...] = dofs
        start = stop
    shape = (gd.n_dofs, gd.n_dofs)
    S = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
    S.eliminate_zeros()
    # Copies of the kept entries alone, so that S holds no empty slots.
    stiffness = sp.csr_matrix((S.data.copy(), S.indices.copy(), S.indptr), shape=shape)
    mass = np.zeros(gd.n_dofs)
    mass[:gd.n_cells] = gd.mesh.cell_areas
    return AssembledForms(gd=gd, stiffness=stiffness, mass_diag=mass)


def flux_conservation_defect(forms: AssembledForms, v: DofVector) -> float:
    """Largest interior-edge defect |F_K + F_L| of the two-sided fluxes."""
    gd = forms.gd
    gd.check_vector(v)
    resid = forms.stiffness @ v.values
    interior = gd.n_cells + gd.mesh.interior_edges
    if interior.size == 0:
        return 0.0
    return float(np.max(np.abs(resid[interior]) / gd.mesh.edge_lengths[gd.mesh.interior_edges]))


# -- interpolants ------------------------------------------------------------


def interpolate_exact(gd: GradientDiscretisation, fn: Callable,
                      psi: Optional[np.ndarray] = None) -> DofVector:
    """Sampling interpolant: cell values fn(x_K), edge values fn(x_sigma).

    With per-cell obstacle values psi the cell values are clipped from below
    so the result is admissible; edge values are never constrained.
    """
    v = gd.zeros()
    v.cells[:] = fn(gd.mesh.cell_points)
    v.edges[:] = fn(gd.mesh.edge_centers)
    if psi is not None:
        np.maximum(v.cells, psi, out=v.cells)
    return v
