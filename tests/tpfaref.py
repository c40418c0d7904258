"""An independent two-point flux (5-point) oracle for Cartesian marches.

On a Cartesian grid with a diagonal Lambda, eliminating the edge unknowns
from the HMM stiffness leaves the classical 5-point matrix on the cells.
Its coefficient is |sigma| n.Lambda n / d_KL across an interior edge and
|sigma| n.Lambda n / d_Ksigma on a boundary edge, whose Dirichlet value
g(x_sigma) then adds the same coefficient times g to the cell's right-hand
side.  This module builds that matrix and that load from the grid's size and
box alone, with numpy, and marches implicit Euler with its own primal-dual
active set and ``spsolve``.  It reads no library code: of a mesh it takes
only the cell points, to match its cells to the mesh's by coordinates.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve


def centres(nx, ny, box):
    """The cell centres of the nx x ny grid on box, cell (i, j) at row i + nx j."""
    xmin, xmax, ymin, ymax = box
    hx, hy = (xmax - xmin) / nx, (ymax - ymin) / ny
    X, Y = np.meshgrid(xmin + (np.arange(nx) + 0.5) * hx, ymin + (np.arange(ny) + 0.5) * hy)
    return np.column_stack((X.ravel(), Y.ravel()))


def five_point(nx, ny, box, lam):
    """The 5-point matrix of -div(Lambda grad u) with Lambda = diag(lam),
    integrated over the cells, and the cell area."""
    xmin, xmax, ymin, ymax = box
    hx, hy = (xmax - xmin) / nx, (ymax - ymin) / ny
    # Vertical edges: |sigma| = hy, n = e_x, d_KL = hx and d_Ksigma = hx / 2;
    # horizontal edges likewise with x and y exchanged.
    tx, ty = hy * lam[0] / hx, hx * lam[1] / hy
    cell = np.arange(nx * ny).reshape(ny, nx)  # [j, i]
    diag = np.zeros((ny, nx))
    rows, cols, vals = [], [], []
    for a, b, t in ((cell[:, :-1], cell[:, 1:], tx), (cell[:-1, :], cell[1:, :], ty)):
        rows += [a.ravel(), b.ravel()]
        cols += [b.ravel(), a.ravel()]
        vals += [np.full(2 * a.size, -t)]
    diag[:, :-1] += tx
    diag[:, 1:] += tx
    diag[:-1, :] += ty
    diag[1:, :] += ty
    diag[:, 0] += 2.0 * tx
    diag[:, -1] += 2.0 * tx
    diag[0, :] += 2.0 * ty
    diag[-1, :] += 2.0 * ty
    rows.append(cell.ravel())
    cols.append(cell.ravel())
    vals.append(diag.ravel())
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(nx * ny, nx * ny)).tocsr()
    return A, hx * hy


def dirichlet_load(nx, ny, box, lam, g):
    """t -> the boundary edges' part of each cell's right-hand side.

    Each boundary edge sigma of cell K adds |sigma| n.Lambda n / d_Ksigma
    g(x_sigma, t), the coefficient ``five_point`` puts on K's diagonal.
    """
    xmin, xmax, ymin, ymax = box
    hx, hy = (xmax - xmin) / nx, (ymax - ymin) / ny
    tx, ty = 2.0 * (hy * lam[0] / hx), 2.0 * (hx * lam[1] / hy)
    xs, ys = xmin + (np.arange(nx) + 0.5) * hx, ymin + (np.arange(ny) + 0.5) * hy
    cell = np.arange(nx * ny).reshape(ny, nx)  # [j, i]
    cells = np.concatenate((cell[:, 0], cell[:, -1], cell[0, :], cell[-1, :]))
    points = np.concatenate((np.column_stack((np.full(ny, xmin), ys)),
                             np.column_stack((np.full(ny, xmax), ys)),
                             np.column_stack((xs, np.full(nx, ymin))),
                             np.column_stack((xs, np.full(nx, ymax)))))
    coef = np.repeat([tx, tx, ty, ty], [ny, ny, nx, nx])
    return lambda t: np.bincount(cells, coef * np.asarray(g(points, t), dtype=float),
                                 minlength=nx * ny)


def match(points, nx, ny, box):
    """The mesh cell at each grid cell, from the mesh's cell points."""
    xmin, xmax, ymin, ymax = box
    hx, hy = (xmax - xmin) / nx, (ymax - ymin) / ny
    i = np.floor((points[:, 0] - xmin) / hx).astype(int)
    j = np.floor((points[:, 1] - ymin) / hy).astype(int)
    order = np.full(nx * ny, -1)
    order[i + nx * j] = np.arange(len(points))
    assert points.shape == (nx * ny, 2) and np.all(order >= 0), "not the grid's cells"
    scale = max(abs(xmin), abs(xmax), abs(ymin), abs(ymax))
    assert np.abs(points[order] - centres(nx, ny, box)).max() <= 1e-13 * scale
    return order


def march(A, area, points, nodes, source, obstacle, initial, load=None):
    """Implicit Euler with a primal-dual active set per step.

    Each step solves (area/dt) u + A u - rhs - load(t_end) >= 0, u >= psi,
    with their product zero, rhs = area f(t_mid) + (area/dt) u_prev, and no
    load when ``load`` is None (homogeneous Dirichlet data).  The active set
    moves a cell to contact where u <= psi + gap and releases one where its
    multiplier falls below -tau or u below psi - gap, with
    gap = 1e-10 max(1, max|psi|) and tau = 1e-10 max(1, max|rhs|); it stops
    when the set repeats, warm-started from the last step's set.  Returns
    each step's solve count, contact mask and cell values.
    """
    n = len(points)
    psi = np.asarray(obstacle(points), dtype=float)
    u = np.maximum(np.asarray(initial(points), dtype=float), psi)
    gap = 1e-10 * max(1.0, np.abs(psi).max())
    contact = np.zeros(n, dtype=bool)
    iterations, contacts, values = [], [], []
    for t_a, t_b in zip(nodes[:-1], nodes[1:]):
        mass = area / (t_b - t_a)
        K = (A + mass * sp.eye(n)).tocsr()
        rhs = area * np.asarray(source(points, 0.5 * (t_a + t_b)), dtype=float) + mass * u
        tau = 1e-10 * max(1.0, np.abs(rhs).max())
        if load is not None:
            rhs = rhs + load(t_b)
        for it in range(1, n + 2):
            free = ~contact
            x = np.where(contact, psi, 0.0)
            if free.any():
                x[free] = spsolve(K[free][:, free].tocsc(), (rhs - K @ x)[free])
            r = K @ x - rhs
            new = np.where(contact, (r >= -tau) & (x - psi >= -gap), x - psi <= gap)
            if np.array_equal(new, contact):
                break
            contact = new
        else:
            raise RuntimeError("active set did not settle")
        u = x
        iterations.append(it)
        contacts.append(contact.copy())
        values.append(u)
    return iterations, contacts, values
