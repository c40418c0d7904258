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
count, and each group is one broadcast pass: rows 2s and 2s+1 of subcell s
hold the cell column first, then the cell's edge columns by ascending edge
number, with exact zeros dropped.  That is scipy's canonical order, so G is
bit for bit the matrix a COO build and ``tocsr`` would give.

Homogeneous Dirichlet conditions eliminate the boundary edge unknowns; with
non-homogeneous data the same unknowns are pinned to the boundary values
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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


@dataclass(frozen=True)
class SchurPlan:
    """A_ee - B^T diag(w) B as one sparse product on a fixed union pattern.

    The pattern holds every stored entry of A_ee and every coupling of two
    interior edges of one cell, in sorted CSC order: entry p = (i, j) is row
    i of column j.  ``aee`` holds A_ee on it, 0.0 where A_ee stores nothing.
    Row p of ``q`` holds B[K,j] at column t for each entry t = (K, i) of B
    whose cell K also holds edge j.  With v_t = w_K B[K,i], entry p of q v is
    sum_K (w_K B[K,i]) B[K,j], the cells in increasing order: the multiplies
    and the sums of scipy's product of the column-scaled B^T with B.  So
    ``complement`` returns scipy's matrix bit for bit, exact zeros dropped,
    on every mesh.
    """

    aee: np.ndarray
    q: sp.csr_matrix
    cell: np.ndarray
    b: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @classmethod
    def build(cls, B: sp.csr_matrix, Aee: sp.spmatrix) -> "SchurPlan":
        """The plan of the cell x interior-edge block B and the edge block A_ee."""
        n = B.shape[1]
        m = np.diff(B.indptr)
        cell = np.repeat(np.arange(B.shape[0]), m)
        # One pair (t, s) of entries of B per cell K and pair (i, j) of its
        # edges: t = (K, i), s = (K, j), t in increasing order.
        reps = m[cell]
        t = np.repeat(np.arange(B.nnz), reps)
        s = B.indptr[cell[t]] + np.arange(t.size) - np.repeat(np.cumsum(reps) - reps, reps)
        # The union's keys column * n + row, sorted, and each key's position.
        A = Aee.tocsc()
        akey = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr)) * n + A.indices
        keys = np.concatenate((akey, B.indices[s].astype(np.int64) * n + B.indices[t]))
        order = np.argsort(keys)
        keys = keys[order]
        new = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        union = keys[new]
        pos = np.empty_like(order)
        pos[order] = np.cumsum(new) - 1
        aee = np.zeros(union.size)
        aee[pos[:A.nnz]] = A.data
        # COO to CSR keeps the input order within a row: t increasing.
        q = sp.csr_matrix((B.data[s], (pos[A.nnz:], t)), shape=(union.size, B.nnz))
        indptr = np.searchsorted(union, np.arange(n + 1, dtype=np.int64) * n)
        return cls(aee, q, cell, B.data, (union % n).astype(A.indices.dtype),
                   indptr.astype(A.indptr.dtype))

    def complement(self, w: np.ndarray) -> sp.csc_matrix:
        """A_ee - B^T diag(w) B as CSC, sorted, with exact zeros dropped.

        Only a complement with no zero to drop holds the plan's own
        ``indptr``, and with it the plan's whole pattern.
        """
        v = w[self.cell]
        v *= self.b
        data = self.q @ v
        np.subtract(self.aee, data, out=data)
        n = self.indptr.size - 1
        if data.all():
            return sp.csc_matrix((data, self.indices, self.indptr), shape=(n, n))
        # eliminate_zeros compacts the arrays in place: the plan's own stay.
        S = sp.csc_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))
        S.eliminate_zeros()
        return S


@dataclass
class AssembledForms:
    """Global sparse forms over the full cell+edge unknown set.

    One object serves every time step of a run; the mass is kept as its
    diagonal.  ``split`` and ``schur_plan`` are built when first read.  The
    quality diagnostics keep their factorisation of the identity scheme's
    stiffness in ``_plain_factor``, and the solver keeps the fill-reducing
    ordering of the last Schur complement it factorised in ``_ordering``.
    """

    gd: GradientDiscretisation = field(repr=False, compare=False)
    stiffness: sp.csr_matrix        # diffusion-weighted gradient form
    mass_diag: np.ndarray           # |K| on cell entries, zero on edges
    _plain_factor: Optional[tuple] = field(default=None, init=False, repr=False)
    _ordering: Optional[tuple] = field(default=None, init=False, repr=False)

    @cached_property
    def split(self) -> tuple:
        """(s_cc, B, edofs): the stiffness blocks of the condensed solve.

        s_cc is the diagonal of the cell-cell block (diagonal in HMM), B the
        cell x interior-edge block and edofs the interior-edge unknowns.
        None of them depends on alpha.
        """
        nc = self.gd.n_cells
        edofs = self.gd.free_dofs[nc:]
        cell_rows = self.stiffness[:nc]
        return cell_rows.diagonal(), cell_rows[:, edofs], edofs

    @cached_property
    def schur_plan(self) -> SchurPlan:
        """The Schur complement build of B and the interior-edge block A_ee."""
        _, B, edofs = self.split
        return SchurPlan.build(B, self.stiffness[edofs][:, edofs])


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
    shared between solves: every array, the gradient matrix's included, is
    read-only.  ``subcell_triangles`` and ``subcell_centroids`` are built on
    first read; only the diagnostics use them.
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
        self.subcell_edge = mesh.corner_edges
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

        The CSR arrays are written directly, one broadcast pass per corner
        count m: the cells with m corners give an (n_m, m, 2, m+1) block of
        rows, the columns of each row being the cell first, then the cell's
        edges by ascending number (scipy's canonical order).  Exact zeros are
        dropped, and the row lengths give ``indptr``.  With more than one
        cell size the rows are put back in subcell order at the end.
        """
        mesh = self.mesh
        cell, edges, first = self.subcell_cell, self.subcell_edge, mesh.cell_offsets[:-1]
        g = mesh.corner_normals * lengths[:, None] / mesh.cell_areas[cell][:, None]
        c = (math.sqrt(2.0) / mesh.corner_edge_dists)[:, None] * mesh.corner_normals
        dx = mesh.edge_centers[edges] - mesh.cell_points[cell]

        data, indices, row_nnz, rows = [], [], [], []
        for m in np.unique(counts):
            cells = np.flatnonzero(counts == m)
            corners = first[cells][:, None] + np.arange(m)     # subcell s, row order
            order = np.argsort(edges[corners], axis=1)
            ranked = np.take_along_axis(corners, order, axis=1)  # subcell t, column order
            gt, ds, cs = g[ranked], dx[corners], c[corners]
            stab = (np.arange(m)[:, None] == order[:, None, :]) - (
                ds[:, :, None, 0] * gt[:, None, :, 0] + ds[:, :, None, 1] * gt[:, None, :, 1])
            vals = np.empty((cells.size, m, 2, m + 1))
            vals[..., 0] = -cs
            vals[..., 1:] = gt.transpose(0, 2, 1)[:, None] + cs[..., None] * stab[:, :, None]
            cols = np.column_stack((cells, self.n_cells + edges[ranked]))[:, None, None]
            keep = vals != 0.0
            data.append(vals[keep])
            indices.append(np.broadcast_to(cols, vals.shape)[keep])
            row_nnz.append(keep.sum(axis=3).ravel())
            rows.append((2 * corners[..., None] + np.arange(2)).ravel())

        row_nnz = np.concatenate(row_nnz)
        indptr = np.zeros(row_nnz.size + 1, dtype=row_nnz.dtype)
        np.cumsum(row_nnz, out=indptr[1:])
        mat = sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                            shape=(2 * self.n_subcells, self.n_dofs))
        if len(rows) > 1:
            mat = mat[np.argsort(np.concatenate(rows))]
        return mat

    @cached_property
    def subcell_triangles(self) -> np.ndarray:
        """(n_subcells, 3, 2): x_K, then the two ends of the subcell's edge."""
        mesh = self.mesh
        counts = np.diff(mesh.cell_offsets)[self.subcell_cell]
        first = mesh.cell_offsets[:-1][self.subcell_cell]
        nxt = first + (np.arange(self.n_subcells) - first + 1) % counts
        verts = mesh.vertices[mesh.corner_vertices]
        tri = np.stack((mesh.cell_points[self.subcell_cell], verts, verts[nxt]), axis=1)
        tri.setflags(write=False)
        return tri

    @cached_property
    def subcell_centroids(self) -> np.ndarray:
        """(n_subcells, 2): the centroids of ``subcell_triangles``."""
        tri = self.subcell_triangles
        centroids = (tri[:, 0] + tri[:, 1] + tri[:, 2]) / 3.0
        centroids.setflags(write=False)
        return centroids

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
