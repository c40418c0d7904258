"""One cell at a time, read from the library's flat arrays.

The mesh holds its cells only as per-corner arrays cut by ``cell_offsets``,
and the scheme is one subcell gradient matrix ``gd._grad_matrix``.  The tests
that check a single cell cut it out here: its slice of a corner array, and
its local form and fluxes taken from the rows of the library's own matrix
that belong to its subcells, so the library stays under test.
"""

import numpy as np

from hmmvi.discretisation import DofVector


def cell_slice(mesh, flat, k):
    """Cell k's entries of a per-corner array such as ``mesh.corner_edges``."""
    return flat[mesh.cell_offsets[k]:mesh.cell_offsets[k + 1]]


def cell_slices(mesh, flat):
    """Every cell's slice of a per-corner array, in cell order."""
    return np.split(flat, mesh.cell_offsets[1:-1])


def vector(gd, cells=None, edges=None):
    """A dof vector with the given cell and edge values, zero elsewhere."""
    v = gd.zeros()
    if cells is not None:
        v.cells[:] = cells
    if edges is not None:
        v.edges[:] = edges
    return v


def local_stiffness(gd, k):
    """Dense local form on (v_K, v_sigma1, ..., v_sigmam) of cell k."""
    eids = cell_slice(gd.mesh, gd.mesh.corner_edges, k)
    first, m = gd.mesh.cell_offsets[k], eids.size
    dofs = np.concatenate(([k], gd.n_cells + eids))
    maps = gd._grad_matrix[2 * first:2 * (first + m)][:, dofs].toarray()
    W = np.kron(np.diag(gd.subcell_volumes[first:first + m]), gd.diffusion[k])
    A = maps.T @ W @ maps
    return 0.5 * (A + A.T)


def fluxes(gd, v: DofVector, k):
    """Numerical normal fluxes F_{K,sigma}(v) across the edges of cell k.

    They are defined through the local gradient form by
    sum_sigma |sigma| F_{K,sigma}(v) (w_K - w_sigma) = int_K Lambda grad_D v . grad_D w
    for every test vector w, which pins them down uniquely.
    """
    gd.check_vector(v)
    eids = cell_slice(gd.mesh, gd.mesh.corner_edges, k)
    loc = np.concatenate(([v.cells[k]], v.edges[eids]))
    Av = local_stiffness(gd, k) @ loc
    return -Av[1:] / gd.mesh.edge_lengths[eids]
