"""Slow reference solvers for the obstacle sub-problem.

The two obstacle solvers here are written for transparency, not speed, so the
fast active-set solver can be checked against them on small meshes.  They
work on dense copies of the system matrix.  ``full_linear_solve`` is the
former fixed-partition solve on the whole free system, kept to check the
condensed solve of ``hmmvi.solver``.
"""

import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hmmvi.discretisation import DofVector
from hmmvi.solver import SingularSystemError, SolverError


def _dense_system(gd, problem):
    S = problem.system_matrix.toarray()
    b = np.zeros(gd.n_dofs)
    b[:gd.n_cells] = problem.rhs
    bdofs = np.asarray(gd.boundary_edge_dofs)
    if problem.boundary_values is None:
        bvals = np.zeros(len(bdofs))
    else:
        bvals = np.asarray(problem.boundary_values, dtype=float)
    return S, b, bdofs, bvals


def enumerate_lvi(gd, problem, tol=1e-10):
    """Solve by trying every contact set and checking the sign conditions.

    Returns the first vector that is feasible on free cells and has a
    nonnegative multiplier on contact cells.  Exponential in the cell count.
    """
    S, b, bdofs, bvals = _dense_system(gd, problem)
    nc = gd.n_cells
    psi = problem.psi.values
    scale = tol * max(1.0, np.abs(problem.rhs).max())
    for mask in itertools.product((False, True), repeat=nc):
        contact = np.array(mask)
        pinned = np.concatenate([np.flatnonzero(contact), bdofs])
        pvals = np.concatenate([psi[contact], bvals])
        free = np.setdiff1d(np.arange(gd.n_dofs), pinned)
        u = np.zeros(gd.n_dofs)
        u[pinned] = pvals
        if len(free):
            u[free] = np.linalg.solve(
                S[np.ix_(free, free)],
                b[free] - S[np.ix_(free, pinned)] @ pvals)
        feasible = np.all(u[:nc] - psi >= -scale)
        multiplier = S[:nc] @ u - problem.rhs
        if feasible and np.all(multiplier[contact] >= -scale):
            return u
    return None


def projected_gauss_seidel(gd, problem, tol=1e-12, max_sweeps=100_000):
    """Lexicographic Gauss-Seidel with projection onto the cell constraints."""
    S, b, bdofs, bvals = _dense_system(gd, problem)
    nc = gd.n_cells
    psi = problem.psi.values
    u = np.zeros(gd.n_dofs)
    u[bdofs] = bvals
    fixed = np.zeros(gd.n_dofs, dtype=bool)
    fixed[bdofs] = True
    diag = np.diag(S)
    for _ in range(max_sweeps):
        delta = 0.0
        for i in range(gd.n_dofs):
            if fixed[i]:
                continue
            new = (b[i] - S[i] @ u + diag[i] * u[i]) / diag[i]
            if i < nc:
                new = max(new, psi[i])
            delta = max(delta, abs(new - u[i]))
            u[i] = new
        if delta < tol:
            return u
    raise RuntimeError(f"projected Gauss-Seidel stalled above {tol}")


def full_linear_solve(gd, problem, partition):
    """Solve the linear system for a fixed partition; returns (u, residual).

    Factorises the whole free system (balance cells and interior edges).
    """
    S = problem.system_matrix
    n = gd.n_dofs
    pinned_vals = np.empty(0)
    bdofs = gd.boundary_edge_dofs
    if problem.boundary_values is not None:
        bvals = np.asarray(problem.boundary_values, dtype=float)
        if bvals.shape != (bdofs.size,):
            raise SolverError(
                f"{bvals.size} boundary values for {bdofs.size} boundary edges")
    else:
        bvals = np.zeros(bdofs.size)

    contact_ids = partition.contact_cells
    pinned = np.concatenate((contact_ids, bdofs))
    pinned_vals = np.concatenate((problem.psi.values[contact_ids], bvals))

    u = np.zeros(n)
    u[pinned] = pinned_vals

    free = np.ones(n, dtype=bool)
    free[pinned] = False
    free_ids = np.nonzero(free)[0]
    if free_ids.size == 0:
        return DofVector(u, gd.n_cells), 0.0

    b = np.zeros(n)
    b[:gd.n_cells] = problem.rhs
    rhs = b[free_ids] - S[free_ids][:, pinned] @ pinned_vals
    Sff = S[free_ids][:, free_ids].tocsc()

    try:
        if free_ids.size <= problem.direct_limit:
            x = spla.splu(Sff).solve(rhs)
        else:
            precond = sp.diags(1.0 / Sff.diagonal())
            x, info = spla.cg(Sff, rhs, M=precond, rtol=problem.linear_tol,
                              atol=0.0, maxiter=20 * free_ids.size)
            if info != 0:
                raise SingularSystemError(
                    f"conjugate gradients did not converge (info={info}) for the "
                    f"partition with {partition.n_contact} contact cells",
                    partition=partition)
    except RuntimeError as exc:
        raise SingularSystemError(
            f"linear sub-system is singular for the partition with "
            f"{partition.n_contact} contact cells: {exc}",
            partition=partition) from exc

    resid = float(np.linalg.norm(Sff @ x - rhs) / max(1.0, np.linalg.norm(rhs)))
    if not np.isfinite(resid) or resid > 1e3 * problem.linear_tol:
        raise SingularSystemError(
            f"linear solve residual {resid:.3e} for the partition with "
            f"{partition.n_contact} contact cells", partition=partition)
    u[free_ids] = x
    return DofVector(u, gd.n_cells), resid
