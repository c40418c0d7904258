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
each group's maps in one pass over slices of a bounded size, one contiguous
array per vector component, with the cells on the last axis.  Nothing holds
them between calls: the stiffness is built from one pass, one batched block
A_K per cell, each symmetrised, and its rows are then summed from the
blocks, again in slices, into CSR.  A gradient reconstruction applies one
pass's maps to the local unknowns.

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
# Entries per slice of the set-up passes: block entries of a slice of cells
# and entries of a slice of rows in the assembly, keys of a slice of the
# Schur plan's union.  A slice holds about 1 MiB of temporaries.  On
# Cartesian 7, 2^13, 2^14, 2^15 and 2^16 took the assembly's tracemalloc
# peak to 8.6, 8.9, 9.8 and 10.6 MiB and the plan build's to 9.9, 10.2, 10.7
# and 11.8 MiB; each halving from 2^16 to 2^13 added 1.5 to 4 ms to the
# assembly on Cartesian 7 and hexagonal 6 (minima of 12 calls, 2-vCPU Xeon).
SLICE = 1 << 14


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
    """The subcell gradient maps of slices of cells with one corner count.

    For subcells s and t of cell K, with g_t = |sigma_t| n_t / |K| and
    c_s = sqrt(2) / d_s n_s, the edge-t column is
    g_t + c_s (delta_st - (x_sigma_s - x_K) . g_t) and the cell column is
    -c_s.  Yields ``(cells, corners, vals, cols)`` per slice of the cells
    with m corners, at most ``SLICE`` (m + 1)^2 block entries and at least
    one cell: ``corners[s, k]`` is subcell s of ``cells[k]``, and
    ``vals[s, i, j, k]`` component i of its gradient per unit of the local
    unknown ``cols[j, k]``, the cell first, then its edges by ascending
    number.  Each slice reads the mesh for its own corners alone.
    """
    mesh, n = gd.mesh, gd.n_cells
    counts = np.diff(mesh.cell_offsets)
    normals, dists = mesh.corner_normals, mesh.corner_edge_dists
    (ex, ey), (px, py) = mesh.edge_centers.T, mesh.cell_points.T
    for m in np.unique(counts):
        group = np.flatnonzero(counts == m)
        step = max(1, SLICE // int(m + 1) ** 2)
        for cells in np.split(group, range(step, group.size, step)):
            corners = mesh.cell_offsets[cells] + np.arange(m)[:, None]  # [s, k]: subcell s
            e = mesh.corner_edges[corners]
            rank = np.count_nonzero(e < e[:, None], axis=1)  # column of subcell s's edge
            ranked = np.empty_like(corners)  # [t, k]: the subcell of column t
            ranked[rank, np.arange(cells.size)] = corners
            edges = np.sort(e, axis=0)  # [t, k]: the edge of column t
            lengths, area = mesh.edge_lengths[edges], mesh.cell_areas[cells]
            gx, gy = normals[ranked, 0] * lengths / area, normals[ranked, 1] * lengths / area
            scale = math.sqrt(2.0) / dists[corners]
            dx, dy = ex[e] - px[cells], ey[e] - py[cells]
            stab = (rank[:, None] == np.arange(m)[:, None]) - (
                dx[:, None] * gx + dy[:, None] * gy)
            vals = np.empty((m, 2, m + 1, cells.size))  # [s, component, column, k]
            for i, g in enumerate((gx, gy)):
                c = scale * normals[corners, i]
                np.negative(c, out=vals[:, i, 0])
                np.multiply(c[:, None], stab, out=vals[:, i, 1:])
                vals[:, i, 1:] += g
            del stab
            yield cells, corners, vals, np.concatenate((cells[None], n + edges))
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
    batched block per cell from each slice of ``_gradient_groups``.  Each
    A_K is symmetrised, so every entry, held by one cell (all off-diagonal
    ones) or by two, is exactly symmetric.  The blocks are kept, each cell's
    rows together, and the rows of the stiffness are then summed from them
    in slices of at most ``SLICE`` entries, each into canonical CSR without
    exact zeros.  While it runs it holds at most the blocks, 8 bytes for
    each of their Sigma (m_K + 1)^2 entries, 16 bytes per local unknown
    (Sigma (m_K + 1)), 24 per cell and 12 per unknown to find the rows, one
    slice, and the rows summed so far, which it joins into the stiffness
    once the blocks are gone.  On Cartesian 7 that peaks 8.9 MiB above its
    start, for a 3.4 MiB result.
    """
    mesh, n, shape = gd.mesh, gd.n_cells, (gd.n_dofs, gd.n_dofs)
    size = np.diff(mesh.cell_offsets) + 1  # unknowns of each cell
    # Cell K's block is blocks[first[K]:first[K + 1]], row by row, and its
    # unknowns, the cell first, then its edges by ascending number, are
    # dofs[home[K]:home[K] + size[K]].
    first = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(size * size, out=first[1:])
    index = _index_type(int(first[-1]), gd.n_dofs)
    home = mesh.cell_offsets[:-1] + np.arange(n)
    blocks, dofs = np.empty(int(first[-1])), np.empty(home[-1] + size[-1], dtype=index)
    vols, lam = gd.subcell_volumes, gd.diffusion
    for cells, corners, vals, cols in _gradient_groups(gd):
        m1 = vals.shape[2]
        w = vols[corners][:, None]
        weighted = np.empty_like(vals)  # |D_s| Lambda_K applied to each map
        for i in range(2):
            np.multiply(w * lam[cells, i, 0], vals[:, 0], out=weighted[:, i])
            weighted[:, i] += w * lam[cells, i, 1] * vals[:, 1]
        flat = (-1, m1, cells.size)
        A = np.einsum("sjk,slk->jlk", vals.reshape(flat), weighted.reshape(flat))
        del vals, weighted
        A += A.transpose(1, 0, 2)
        A *= 0.5
        blocks[first[cells] + np.arange(m1 * m1)[:, None]] = A.reshape(m1 * m1, -1)
        dofs[home[cells] + np.arange(m1)[:, None]] = cols

    # Row r sums row j of each block whose unknown j is r: a cell's row 0,
    # or the rows of an edge's one or two cells.  Two entries at most meet
    # in one place, and their sum does not depend on their order.
    holders = np.argsort(dofs)  # positions in dofs, row by row
    owner = np.repeat(np.arange(n, dtype=index), size)  # the cell of each position
    bounds = np.zeros(gd.n_dofs + 1, dtype=np.int64)
    np.cumsum(np.bincount(dofs, minlength=gd.n_dofs), out=bounds[1:])
    data, indices = [], []
    counts = np.empty(gd.n_dofs, dtype=index)
    step = max(1, SLICE // (2 * int(size.max())))
    for r in range(0, gd.n_dofs, step):
        stop = min(r + step, gd.n_dofs)
        p = holders[bounds[r]:bounds[stop]]
        K = owner[p]
        m1 = size[K]
        ends = np.cumsum(m1)
        local = np.arange(ends[-1]) - np.repeat(ends - m1, m1)
        # Each row's block rows one after the other, then sorted and summed.
        S = sp.csr_matrix((blocks[np.repeat(first[K] + (p - home[K]) * m1, m1) + local],
                           dofs[np.repeat(home[K], m1) + local],
                           np.concatenate(([0], ends))[bounds[r:stop + 1] - bounds[r]]),
                          shape=(stop - r, gd.n_dofs))
        S.sum_duplicates()
        S.eliminate_zeros()
        # Copies of the kept entries alone: the arrays hold the dropped too.
        data.append(S.data.copy())
        indices.append(S.indices.copy())
        counts[r:stop] = np.diff(S.indptr)
    del blocks, dofs, holders, owner, bounds
    indptr = np.zeros(gd.n_dofs + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    data = np.concatenate(data)  # its slices go before the indices are joined
    stiffness = sp.csr_matrix((data, np.concatenate(indices, dtype=index), indptr), shape=shape)
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
