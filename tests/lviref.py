"""Slow reference solvers for the obstacle sub-problem.

The two obstacle solvers here are written for transparency, not speed, so the
fast active-set solver can be checked against them on small meshes.  They
work on dense copies of the system matrix.  ``full_linear_solve`` is the
former fixed-partition solve on the whole free system, kept to check the
condensed solve of ``hmmvi.solver``.  ``reference_march`` is the implicit
Euler march with every step solved by projected Gauss-Seidel.
"""

import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hmmvi import solver
from hmmvi.discretisation import DofVector, assemble_forms
from hmmvi.solver import LviProblem, SingularSystemError, SolverError


def _system_matrix(problem):
    S = problem.forms.stiffness
    if problem.alpha != 0.0:
        gd = problem.forms.gd
        mass = np.zeros(gd.n_dofs)  # |K| on the cells, zero on the edges
        mass[:gd.n_cells] = gd.mesh.cell_areas
        S = S + sp.diags(problem.alpha * mass)
    return S.tocsr()


def _dense_system(gd, problem):
    S = _system_matrix(problem).toarray()
    b = np.zeros(gd.n_dofs)
    b[:gd.n_cells] = problem.rhs
    bdofs = np.asarray(gd.boundary_edge_dofs)
    if problem.boundary_values is None:
        bvals = np.zeros(len(bdofs))
    else:
        bvals = np.asarray(problem.boundary_values, dtype=float)
    return S, b, bdofs, bvals


def balance_residual(gd, problem, v):
    """(S + alpha M) v - b over all unknowns, from the dense system.

    Its cell part is the multiplier of the obstacle conditions.
    """
    S, b, _, _ = _dense_system(gd, problem)
    return S @ v - b


def enumerate_lvi(gd, problem, tol=1e-10):
    """Solve by trying every contact set and checking the sign conditions.

    Returns the first vector that is feasible on free cells and has a
    nonnegative multiplier on contact cells.  Exponential in the cell count.
    """
    S, b, bdofs, bvals = _dense_system(gd, problem)
    nc = gd.n_cells
    psi = problem.psi
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
    psi = problem.psi
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
    S = _system_matrix(problem)
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

    contact_ids = np.flatnonzero(partition.contact)
    pinned = np.concatenate((contact_ids, bdofs))
    pinned_vals = np.concatenate((problem.psi[contact_ids], bvals))

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
        if free_ids.size <= solver.DIRECT_LIMIT:
            x = spla.splu(Sff).solve(rhs)
        else:
            precond = sp.diags(1.0 / Sff.diagonal())
            x, info = spla.cg(Sff, rhs, M=precond, rtol=solver.LINEAR_TOL,
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
    if not np.isfinite(resid) or resid > 1e3 * solver.LINEAR_TOL:
        raise SingularSystemError(
            f"linear solve residual {resid:.3e} for the partition with "
            f"{partition.n_contact} contact cells", partition=partition)
    u[free_ids] = x
    return DofVector(u, gd.n_cells), resid


def reference_march(gd, spec, grid):
    """Implicit Euler march with every step solved by projected Gauss-Seidel.

    Each step builds its own right-hand side |K| f(x_K, t_mid) + alpha |K|
    u_prev, with alpha = 1 / grid.step, the Dirichlet data at the boundary
    edge centres at the step's end, and solves on dense copies of its own
    forms.  The initial cell values are u0(x_K) clipped at the obstacle, with
    zero edge values.  Returns (psi, vectors, multipliers): the obstacle's
    cell values, the N + 1 node vectors and, per step, the cell part of the
    balance residual of the step's solution.
    """
    mesh, nc = gd.mesh, gd.n_cells
    forms = assemble_forms(gd)
    psi = np.asarray(spec.obstacle(mesh.cell_points), dtype=float)
    u = np.zeros(gd.n_dofs)
    u[:nc] = np.maximum(spec.initial(mesh.cell_points), psi)
    alpha = 1.0 / grid.step
    vectors, multipliers = [u], []
    for t_a, t_b in zip(grid.nodes[:-1], grid.nodes[1:]):
        f = np.asarray(spec.source(mesh.cell_points, 0.5 * (t_a + t_b)), dtype=float)
        bvals = None
        if spec.dirichlet is not None:
            bvals = spec.dirichlet(mesh.edge_centers[mesh.boundary_edges], t_b)
        problem = LviProblem(forms=forms, rhs=mesh.cell_areas * f + alpha * mesh.cell_areas * u[:nc],
                             alpha=alpha, psi=psi, boundary_values=bvals)
        u = projected_gauss_seidel(gd, problem)
        vectors.append(u)
        multipliers.append(balance_residual(gd, problem, u)[:nc])
    return psi, vectors, multipliers
