"""Hybrid mimetic mixed discretisation on polytopal meshes.

Degrees of freedom are one value per cell and one value per edge.  The
reconstructed function is piecewise constant, equal to the cell value on each
cell.  The reconstructed gradient is piecewise constant on the edge subcells
D_{K,sigma} (the triangles spanned by an edge and the cell point x_K):

    grad_K v   = (1/|K|) sum_sigma |sigma| v_sigma n_{K,sigma}
    R_K(v)_s   = v_sigma - v_K - grad_K v . (x_sigma - x_K)
    grad_D v   = grad_K v + (sqrt(2)/d_{K,sigma}) R_K(v)_s n_{K,sigma}

The stabilised gradient is exact for affine functions sampled at cell points
and edge midpoints.  It is one linear map, stored as a sparse matrix G with
two rows per subcell and one column per unknown.  The stiffness is that map
weighted and squared, G^T W G with W = |D| Lambda_K on each subcell.  G does
not depend on Lambda, so with Lambda = I the stiffness is the unweighted
gradient form in which the quality measures are taken.

G is written straight into CSR arrays.  The cells are grouped by corner
count, and each group is one pass over contiguous arrays, one per vector
component, that writes the group's rows into their slots in subcell order:
rows 2s and 2s+1 of subcell s hold the cell column first, then the cell's
edge columns by ascending edge number.  Exact zeros are then dropped.  That
is scipy's canonical order, so G is bit for bit the matrix a COO build and
``tocsr`` would give.

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
    """Subcell gradient matrix, subcell volumes and unknown layout.

    Unknown ordering is all cells first, then all edges: edge e is unknown
    n_cells + e.  Subcell s is the mesh's corner s: it belongs to cell
    ``subcell_cell[s]`` and to edge ``mesh.corner_edges[s]``.  Instances are
    immutable after construction and can be shared between solves: every
    array, the gradient matrix's included, is read-only.
    """

    def __init__(self, mesh: PolytopalMesh, diffusion=None):
        self.mesh = mesh
        self.diffusion = _as_diffusion_field(mesh, diffusion)
        _check_diffusion(self.diffusion)
        self.n_cells = mesh.n_cells
        self.n_edges = mesh.n_edges
        self.n_dofs = self.n_cells + self.n_edges

        counts = np.diff(mesh.cell_offsets)
        lengths = mesh.edge_lengths[mesh.corner_edges]
        self.subcell_cell = np.repeat(np.arange(self.n_cells), counts)
        self.subcell_volumes = 0.5 * lengths * mesh.corner_edge_dists
        self.n_subcells = self.subcell_cell.size

        self._grad_matrix = G = self._build_gradient_matrix(counts, lengths)

        bdofs = self.n_cells + mesh.boundary_edges
        self.boundary_edge_dofs = bdofs
        free = np.ones(self.n_dofs, dtype=bool)
        free[bdofs] = False
        self.free_dofs = np.nonzero(free)[0]

        for arr in (self.diffusion, self.subcell_cell, self.subcell_volumes,
                    self.boundary_edge_dofs, self.free_dofs, G.data, G.indices, G.indptr):
            arr.setflags(write=False)

    def _build_gradient_matrix(self, counts, lengths) -> sp.csr_matrix:
        """Rows 2s, 2s+1 hold the gradient on subcell s as a map of the dofs.

        For subcells s and t of cell K, with g_t = |sigma_t| n_t / |K| and
        c_s = sqrt(2) / d_s n_s, the edge-t column is
        g_t + c_s (delta_st - (x_sigma_s - x_K) . g_t) and the cell column
        is -c_s.

        The CSR arrays are written directly, one pass per corner count m.
        The pass keeps the cells with m corners on the last axis, so every
        operation runs over them as one contiguous 1-D array per component.
        Each cell's 2m rows have m + 1 slots each: the cell column first,
        then the cell's edges by ascending number (scipy's canonical order).
        The rows go straight into their slots in subcell order, and the
        exact zeros are then dropped in place.
        """
        mesh = self.mesh
        n, cell, edges = self.n_cells, self.subcell_cell, mesh.corner_edges
        nx, ny = mesh.corner_normals.T
        area = mesh.cell_areas[cell]
        gx, gy = nx * lengths / area, ny * lengths / area
        scale = math.sqrt(2.0) / mesh.corner_edge_dists
        cx, cy = scale * nx, scale * ny
        (ex, ey), (px, py) = mesh.edge_centers.T, mesh.cell_points.T
        dx, dy = ex[edges] - px[cell], ey[edges] - py[cell]

        # Cell k's rows take the 2 m (m + 1) slots from at[k] on.
        at = np.zeros(n + 1, dtype=int)
        np.cumsum(2 * counts * (counts + 1), out=at[1:])
        # The index type scipy picks for G: int32 while the slots fit in it.
        index = np.int32 if max(at[-1], self.n_dofs) < 2**31 else np.int64
        data, indices = np.empty(at[-1]), np.empty(at[-1], dtype=index)
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
            cols = np.concatenate((cells[None], n + edges[ranked]))
            if cells.size == n:  # one cell size: the slots hold the cells in order
                shape = (n, m, 2, m + 1)
                np.copyto(data.reshape(shape), vals.transpose(3, 0, 1, 2))
                np.copyto(indices.reshape(shape), cols.T[:, None, None])
            else:
                slots = np.arange(2 * m * (m + 1)).reshape(m, 2, m + 1, 1) + at[cells]
                data[slots] = vals
                indices[slots] = cols
                del slots
            del vals

        indptr = np.zeros(2 * self.n_subcells + 1, dtype=index)
        np.cumsum(np.repeat(counts + 1, 2 * counts), out=indptr[1:])
        shape = (2 * self.n_subcells, self.n_dofs)
        mat = sp.csr_matrix((data, indices, indptr), shape=shape)
        mat.eliminate_zeros()
        # Copies of the kept entries alone, so that G holds no empty slots.
        return sp.csr_matrix((mat.data.copy(), mat.indices.copy(), mat.indptr), shape=shape)

    # -- unknown layout ------------------------------------------------------

    def zeros(self) -> DofVector:
        return DofVector(np.zeros(self.n_dofs), self.n_cells)

    def check_vector(self, v: DofVector) -> None:
        if v.values.shape != (self.n_dofs,) or v.n_cells != self.n_cells:
            raise DiscretisationError(
                f"vector has {v.values.shape[0]} entries for {v.n_cells} cells, "
                f"expected {self.n_dofs} and {self.n_cells}")


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
    gd.check_vector(v)
    return (gd._grad_matrix @ v.values).reshape(gd.n_subcells, 2)


def assemble_forms(gd: GradientDiscretisation) -> AssembledForms:
    """Assemble the global stiffness and the diagonal cell mass.

    The stiffness is G^T W G of the subcell gradient matrix G, with W holding
    |D| Lambda_K on each subcell, symmetrised.
    """
    G = gd._grad_matrix
    n = gd.n_subcells
    blocks = gd.subcell_volumes[:, None, None] * gd.diffusion[gd.subcell_cell]
    W = sp.bsr_matrix((blocks, np.arange(n), np.arange(n + 1)), shape=(2 * n, 2 * n))
    stiffness = (G.T @ (W @ G)).tocsr()
    mass = np.zeros(gd.n_dofs)
    mass[:gd.n_cells] = gd.mesh.cell_areas
    return AssembledForms(gd=gd, stiffness=0.5 * (stiffness + stiffness.T), mass_diag=mass)


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
