"""Per-cell reference assembly of the HMM gradient matrix and forms.

This is the cell-by-cell construction the vectorised code in
``hmmvi.discretisation`` replaced, kept frozen so the batched operators can be
checked against it: one dense (m, 2, m+1) gradient map per cell, a sparse
matrix stacked from them, and local forms summed over the subcells with
einsum before being scattered into the global matrices.  The library holds
no gradient matrix; the subcell gradient matrix G is built here alone, by
COO triplets, as the oracle of the library's reconstruction (G v, bit for
bit) and, through the global triple product G^T W G the per-cell stiffness
blocks replaced, of the stiffness pattern.
"""

import math

import numpy as np
import scipy.sparse as sp

from cellref import cell_slice


def cell_gradient_maps(mesh, k):
    """Gradient maps (m, 2, m+1) and subcell volumes (m,) of cell k.

    ``maps[j]`` takes the local vector (v_K, v_sigma1, ..., v_sigmam) to the
    reconstructed gradient on subcell j.
    """
    eids = cell_slice(mesh, mesh.corner_edges, k)
    m = eids.size
    lengths = mesh.edge_lengths[eids]
    normals = cell_slice(mesh, mesh.corner_normals, k)
    dists = cell_slice(mesh, mesh.corner_edge_dists, k)
    xk = mesh.cell_points[k]
    mids = mesh.edge_centers[eids]

    grad_coeffs = (normals * lengths[:, None]).T / mesh.cell_areas[k]
    stab = np.zeros((m, m + 1))
    stab[:, 0] = -1.0
    stab[np.arange(m), 1 + np.arange(m)] += 1.0
    stab[:, 1:] -= (mids - xk) @ grad_coeffs

    maps = np.zeros((m, 2, m + 1))
    maps[:, :, 1:] = grad_coeffs[None, :, :]
    maps += (math.sqrt(2.0) / dists)[:, None, None] * normals[:, :, None] * stab[:, None, :]
    return maps, 0.5 * lengths * dists


def local_dofs(mesh, k):
    return np.concatenate(([k], mesh.n_cells + cell_slice(mesh, mesh.corner_edges, k)))


def gradient_matrix(mesh):
    """Subcell gradients stacked cell by cell, two rows per subcell."""
    n_dofs = mesh.n_cells + mesh.n_edges
    rows, cols, vals = [], [], []
    row0 = 0
    for k in range(mesh.n_cells):
        maps, _ = cell_gradient_maps(mesh, k)
        m = maps.shape[0]
        maps = maps.reshape(2 * m, m + 1)
        r, c = np.nonzero(maps)
        rows.append(row0 + r)
        cols.append(local_dofs(mesh, k)[c])
        vals.append(maps[r, c])
        row0 += 2 * m
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row0, n_dofs))
    return mat.tocsr()


def local_forms(mesh, diffusion, k):
    """Diffusion-weighted and plain local forms of cell k, symmetrised."""
    maps, vols = cell_gradient_maps(mesh, k)
    A = np.einsum("jai,ab,jbl,j->il", maps, diffusion[k], maps, vols, optimize=True)
    A0 = np.einsum("jai,jal,j->il", maps, maps, vols, optimize=True)
    return 0.5 * (A + A.T), 0.5 * (A0 + A0.T)


def assemble(mesh, diffusion):
    """Global stiffness and plain stiffness scattered from the local forms."""
    n_dofs = mesh.n_cells + mesh.n_edges
    rows, cols, vals, vals0 = [], [], [], []
    for k in range(mesh.n_cells):
        dofs = local_dofs(mesh, k)
        A, A0 = local_forms(mesh, diffusion, k)
        rows.append(np.repeat(dofs, dofs.size))
        cols.append(np.tile(dofs, dofs.size))
        vals.append(A.ravel())
        vals0.append(A0.ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    shape = (n_dofs, n_dofs)
    stiffness = sp.coo_matrix((np.concatenate(vals), (rows, cols)), shape=shape).tocsr()
    plain = sp.coo_matrix((np.concatenate(vals0), (rows, cols)), shape=shape).tocsr()
    return stiffness, plain


def triple_product_stiffness(gd):
    """G^T (W G), W = |D| Lambda_K per subcell, symmetrised, G the COO one.

    Built through a block-diagonal BSR W, two scipy products and a global
    0.5 (S + S^T), as the library assembled the stiffness before.
    """
    G = coo_gradient_matrix(gd.mesh)
    n = gd.n_subcells
    blocks = gd.subcell_volumes[:, None, None] * gd.diffusion[gd.subcell_cell]
    W = sp.bsr_matrix((blocks, np.arange(n), np.arange(n + 1)), shape=(2 * n, 2 * n))
    stiffness = (G.T @ (W @ G)).tocsr()
    return 0.5 * (stiffness + stiffness.T)


# -- the pair-index COO construction -----------------------------------------
#
# The batched construction of G the library once held, frozen as it was:
# pair indices (s, t) over every two subcells of a cell, COO triplets with
# exact zeros dropped, then ``tocsr``.  The subcell geometry is the eager
# formula of the same code.


def _subcell_inputs(mesh):
    n_cells = mesh.n_cells
    counts = np.diff(mesh.cell_offsets)
    first = mesh.cell_offsets[:-1]
    cell = np.repeat(np.arange(n_cells), counts)
    local = np.arange(cell.size) - first[cell]
    verts = mesh.vertices[mesh.corner_vertices]
    nxt = verts[first[cell] + (local + 1) % counts[cell]]
    return first, cell, verts, nxt


def coo_gradient_matrix(mesh):
    """The subcell gradient matrix G, built from COO triplets by ``tocsr``."""
    n_cells = mesh.n_cells
    n_dofs = n_cells + mesh.n_edges
    first, cell, _, _ = _subcell_inputs(mesh)
    n_subcells = cell.size
    subcell_edge = mesh.corner_edges
    normals = mesh.corner_normals
    dists = mesh.corner_edge_dists
    lengths = mesh.edge_lengths[subcell_edge]

    counts = np.bincount(cell, minlength=n_cells)[cell]
    s = np.repeat(np.arange(n_subcells), counts)
    pair_first = np.cumsum(counts) - counts
    t = first[cell[s]] + np.arange(s.size) - pair_first[s]

    g = normals * lengths[:, None] / mesh.cell_areas[cell][:, None]
    c = (math.sqrt(2.0) / dists)[:, None] * normals
    dx = mesh.edge_centers[subcell_edge] - mesh.cell_points[cell]
    stab = (s == t) - (dx[s, 0] * g[t, 0] + dx[s, 1] * g[t, 1])
    edge_vals = g[t] + c[s] * stab[:, None]

    rows = np.concatenate((2 * s[:, None] + np.arange(2),
                           2 * np.arange(n_subcells)[:, None] + np.arange(2)))
    cols = np.concatenate((np.repeat(n_cells + subcell_edge[t], 2),
                           np.repeat(cell, 2)))
    vals = np.concatenate((edge_vals, -c)).ravel()
    keep = vals != 0.0
    mat = sp.coo_matrix((vals[keep], (rows.ravel()[keep], cols[keep])),
                        shape=(2 * n_subcells, n_dofs))
    return mat.tocsr()


def eager_subcell_geometry(mesh):
    """(subcell_triangles, subcell_centroids) by the eager formulas."""
    _, cell, verts, nxt = _subcell_inputs(mesh)
    xk = mesh.cell_points[cell]
    return np.stack((xk, verts, nxt), axis=1), (xk + verts + nxt) / 3.0
