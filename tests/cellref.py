"""One cell at a time, read from the library's flat arrays.

The mesh holds its cells only as per-corner arrays cut by ``cell_offsets``,
and the scheme reconstructs the gradient from per-cell maps it does not hold.
The tests that check a single cell cut it out here: its slice of a corner
array, and its local form and fluxes taken from the library's own
reconstructed gradients of the cell's local unit vectors, so the library
stays under test.
"""

import numpy as np

from hmmvi.discretisation import DofVector, reconstruct_gradient_flat


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
    """Dense local form on (v_K, v_sigma1, ..., v_sigmam) of cell k.

    Column j of its maps is the library's gradient on the cell's subcells of
    the unit vector of local unknown j.
    """
    eids = cell_slice(gd.mesh, gd.mesh.corner_edges, k)
    first, m = gd.mesh.cell_offsets[k], eids.size
    maps = np.empty((2 * m, m + 1))
    for j, dof in enumerate(np.concatenate(([k], gd.n_cells + eids))):
        unit = gd.zeros()
        unit.values[dof] = 1.0
        maps[:, j] = reconstruct_gradient_flat(gd, unit)[first:first + m].ravel()
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
