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
two rows per subcell and one column per unknown.  Every form of the scheme is
that map weighted and squared: the stiffness is G^T W G with W = |D| Lambda_K
on each subcell, and the plain stiffness uses W = |D|.

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


@dataclass
class ObstacleVector:
    """Per-cell obstacle values psi_K = psi(x_K)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise DiscretisationError("obstacle values must be finite")


@dataclass
class AssembledForms:
    """Global sparse forms over the full cell+edge unknown set.

    One object serves every time step of a run; the mass is kept as its
    diagonal.  ``split`` and ``plain_stiffness`` (only the quality
    diagnostics use it, and keep its factorisation in ``_plain_factor``) are
    built when first read.
    """

    gd: GradientDiscretisation = field(repr=False, compare=False)
    stiffness: sp.csr_matrix        # diffusion-weighted gradient form
    mass_diag: np.ndarray           # |K| on cell entries, zero on edges
    _plain: Optional[sp.csr_matrix] = field(default=None, init=False, repr=False)
    _plain_factor: Optional[tuple] = field(default=None, init=False, repr=False)
    _split: Optional[tuple] = field(default=None, init=False, repr=False)

    @property
    def split(self) -> tuple:
        """(s_cc, B, Aee, edofs, Bt): the stiffness blocks of the condensed solve.

        s_cc is the diagonal of the cell-cell block (diagonal in HMM), B the
        cell x interior-edge block, Aee the interior-edge block, edofs the
        interior-edge unknowns and Bt the transpose of B, stored as CSR so
        that each solve scales its columns in place of a diagonal product.
        None of them depends on alpha.
        """
        if self._split is None:
            nc = self.gd.n_cells
            edofs = self.gd.free_dofs[nc:]
            cell_rows = self.stiffness[:nc]
            B = cell_rows[:, edofs]
            self._split = (cell_rows.diagonal(), B, self.stiffness[edofs][:, edofs],
                           edofs, B.T.tocsr())
        return self._split

    @property
    def plain_stiffness(self) -> sp.csr_matrix:
        """The gradient form with identity diffusion."""
        if self._plain is None:
            G = self.gd._grad_matrix
            plain = (G.T @ sp.diags(np.repeat(self.gd.subcell_volumes, 2)) @ G).tocsr()
            self._plain = 0.5 * (plain + plain.T)
        return self._plain


def _as_diffusion_field(mesh: PolytopalMesh, diffusion) -> np.ndarray:
    nc = mesh.n_cells
    if diffusion is None:
        out = np.zeros((nc, 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        return out
    if callable(diffusion):
        out = np.asarray(diffusion(mesh.cell_points), dtype=float)
        if out.shape != (nc, 2, 2):
            raise DiscretisationError(
                f"diffusion callable returned shape {out.shape}, expected {(nc, 2, 2)}")
        return out
    arr = np.asarray(diffusion, dtype=float)
    if arr.shape == (2, 2):
        return np.broadcast_to(arr, (nc, 2, 2)).copy()
    if arr.shape == (nc, 2, 2):
        return arr.copy()
    raise DiscretisationError(f"diffusion array has shape {arr.shape}")


def _check_diffusion(field: np.ndarray) -> None:
    lo, hi = EIG_BOUNDS
    bad = np.flatnonzero(~np.isfinite(field).all(axis=(1, 2)))
    if bad.size:
        k = int(bad[0])
        raise DiscretisationError(
            f"diffusion tensor on cell {k} is not finite: {field[k].tolist()}")
    sym_defect = np.abs(field[:, 0, 1] - field[:, 1, 0])
    scale = np.maximum(1.0, np.max(np.abs(field), axis=(1, 2)))
    bad = np.nonzero(sym_defect > 1e-12 * scale)[0]
    if bad.size:
        raise DiscretisationError(f"diffusion tensor on cell {int(bad[0])} is not symmetric")
    # Closed-form eigenvalues of a symmetric 2x2 matrix.
    tr = field[:, 0, 0] + field[:, 1, 1]
    det = field[:, 0, 0] * field[:, 1, 1] - field[:, 0, 1] * field[:, 1, 0]
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
    """Subcell gradient matrix, subcell geometry and unknown layout.

    Unknown ordering is all cells first, then all edges: edge e is unknown
    n_cells + e.  Instances are immutable after construction and can be
    shared between solves.
    """

    def __init__(self, mesh: PolytopalMesh, diffusion=None):
        self.mesh = mesh
        self.diffusion = _as_diffusion_field(mesh, diffusion)
        _check_diffusion(self.diffusion)
        self.n_cells = mesh.n_cells
        self.n_edges = mesh.n_edges
        self.n_dofs = self.n_cells + self.n_edges

        counts = np.diff(mesh.cell_offsets)
        first = mesh.cell_offsets[:-1]
        cell = np.repeat(np.arange(self.n_cells), counts)
        local = np.arange(cell.size) - first[cell]
        edges = mesh.corner_edges
        normals = mesh.corner_normals
        dists = mesh.corner_edge_dists
        lengths = mesh.edge_lengths[edges]
        xk = mesh.cell_points[cell]
        verts = mesh.vertices[mesh.corner_vertices]
        nxt = verts[first[cell] + (local + 1) % counts[cell]]

        self.subcell_cell = cell
        self.subcell_edge = edges
        self.subcell_volumes = 0.5 * lengths * dists
        self.subcell_centroids = (xk + verts + nxt) / 3.0
        self.subcell_triangles = np.stack((xk, verts, nxt), axis=1)
        self.n_subcells = cell.size

        self._grad_matrix = self._build_gradient_matrix(first, normals, dists, lengths)

        bdofs = self.n_cells + mesh.boundary_edges
        self.boundary_edge_dofs = bdofs
        free = np.ones(self.n_dofs, dtype=bool)
        free[bdofs] = False
        self.free_dofs = np.nonzero(free)[0]

    def _build_gradient_matrix(self, first, normals, dists, lengths) -> sp.csr_matrix:
        """Rows 2s, 2s+1 hold the gradient on subcell s as a map of the dofs.

        For subcells s and t of cell K, with g_t = |sigma_t| n_t / |K| and
        c_s = sqrt(2) / d_s n_s, the edge-t column is
        g_t + c_s (delta_st - (x_sigma_s - x_K) . g_t) and the cell column
        is -c_s.
        """
        mesh = self.mesh
        cell = self.subcell_cell
        counts = np.bincount(cell, minlength=self.n_cells)[cell]
        s = np.repeat(np.arange(self.n_subcells), counts)
        pair_first = np.cumsum(counts) - counts
        t = first[cell[s]] + np.arange(s.size) - pair_first[s]

        g = normals * lengths[:, None] / mesh.cell_areas[cell][:, None]
        c = (math.sqrt(2.0) / dists)[:, None] * normals
        dx = mesh.edge_centers[self.subcell_edge] - mesh.cell_points[cell]
        stab = (s == t) - (dx[s, 0] * g[t, 0] + dx[s, 1] * g[t, 1])
        edge_vals = g[t] + c[s] * stab[:, None]

        rows = np.concatenate((2 * s[:, None] + np.arange(2),
                               2 * np.arange(self.n_subcells)[:, None] + np.arange(2)))
        cols = np.concatenate((np.repeat(self.n_cells + self.subcell_edge[t], 2),
                               np.repeat(cell, 2)))
        vals = np.concatenate((edge_vals, -c)).ravel()
        keep = vals != 0.0
        mat = sp.coo_matrix((vals[keep], (rows.ravel()[keep], cols[keep])),
                            shape=(2 * self.n_subcells, self.n_dofs))
        return mat.tocsr()

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

    ``diffusion`` may be None (identity), a constant 2x2 array, a per-cell
    (n_cells, 2, 2) array, or a callable evaluated at the cell points.  Each
    tensor must be symmetric with eigenvalues inside ``EIG_BOUNDS``.
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
    """Assemble the global stiffness forms and the diagonal cell mass.

    Both forms are G^T W G of the subcell gradient matrix G, with W holding
    |D| Lambda_K (or |D| alone for the plain form) on each subcell.  The
    plain form is assembled on its first read.
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


def interpolate_obstacle(gd: GradientDiscretisation, psi: Callable) -> ObstacleVector:
    """Per-cell obstacle values psi(x_K)."""
    return ObstacleVector(np.asarray(psi(gd.mesh.cell_points), dtype=float))


def interpolate_initial(gd: GradientDiscretisation, u_ini: Callable,
                        psi: ObstacleVector) -> DofVector:
    """Admissible initial vector: cell values u_ini(x_K) clipped at the obstacle.

    Edge values are zero, which is harmless because only cell values of the
    previous step enter the scheme.
    """
    v = gd.zeros()
    v.cells[:] = u_ini(gd.mesh.cell_points)
    np.maximum(v.cells, psi.values, out=v.cells)
    return v


def interpolate_exact(gd: GradientDiscretisation, fn: Callable,
                      psi: Optional[ObstacleVector] = None) -> DofVector:
    """Sampling interpolant: cell values fn(x_K), edge values fn(x_sigma).

    With an obstacle the cell values are clipped from below so the result is
    admissible; edge values are never constrained.
    """
    v = gd.zeros()
    v.cells[:] = fn(gd.mesh.cell_points)
    v.edges[:] = fn(gd.mesh.edge_centers)
    if psi is not None:
        np.maximum(v.cells, psi.values, out=v.cells)
    return v
