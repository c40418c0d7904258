"""Active-set solution of the per-step elliptic variational inequality.

Each implicit Euler step requires the vector u with cell values above the
obstacle that satisfies, for every cell K,

    residual_K(u) := (|K|/dt) u_K + sum_sigma |sigma| F_{K,sigma}(u)
                     - rhs_K  >= 0,
    u_K >= psi_K,   residual_K(u) * (u_K - psi_K) = 0,

together with flux conservation across interior edges and the Dirichlet data
on boundary edges.  The monotone active-set iteration partitions the cells
into a set A where the balance equation is enforced and a set B where the
solution is pinned to the obstacle, solves the resulting linear system, and
exchanges cells between the sets: an A-cell at or below the obstacle becomes
contact, a B-cell whose multiplier (the balance residual) turns strictly
negative, or that falls strictly below the obstacle, is released.  Ties at
exact equality are assigned to the contact set.  A fixed partition means the
complementarity conditions hold and the iteration stops; the iteration count
is bounded by the number of cells, with a safeguard one step above that and
detection of revisited partitions.

Each linear solve condenses the cell unknowns out.  An HMM cell unknown
couples only to its own edges, so the cell-cell block of S + alpha M is the
diagonal d.  With w = 1/d on balance cells and 0 on contact cells, B the
cell x interior-edge block and g = b - S u_pinned (u_pinned holding the
obstacle on contact cells and the Dirichlet values), the interior edges solve

    (A_ee - B^T diag(w) B) u_e = g_e - B^T (w g_cells),

and the cells follow as u_K = w_K (g_K - B_K u_e).  The Schur complement is
SPD because S is SPD on the free unknowns, so it is factorised with a
symmetric minimum-degree ordering of A^T + A and diagonal pivots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretisation import (AssembledForms, DofVector, GradientDiscretisation,
                             ObstacleVector, flux_conservation_defect)


class SolverError(Exception):
    """Base class for failures of the variational inequality solver."""


class SingularSystemError(SolverError):
    """The linear sub-system for a partition could not be solved."""

    def __init__(self, message, partition=None):
        super().__init__(message)
        self.partition = partition


class IterationLimitError(SolverError):
    """The active-set iteration cycled or exceeded its safeguard."""

    def __init__(self, message, last_partitions=()):
        super().__init__(message)
        self.last_partitions = tuple(last_partitions)


class ActiveSetPartition:
    """Disjoint split of the cells into balance (A) and contact (B) sets."""

    __slots__ = ("contact",)

    def __init__(self, contact: np.ndarray):
        self.contact = np.asarray(contact, dtype=bool)

    @classmethod
    def all_pde(cls, n_cells: int) -> "ActiveSetPartition":
        return cls(np.zeros(n_cells, dtype=bool))

    @classmethod
    def from_contact(cls, n_cells: int, ids) -> "ActiveSetPartition":
        contact = np.zeros(n_cells, dtype=bool)
        contact[np.asarray(ids, dtype=int)] = True
        return cls(contact)

    @property
    def n_cells(self) -> int:
        return self.contact.size

    @property
    def pde_cells(self) -> np.ndarray:
        return np.nonzero(~self.contact)[0]

    @property
    def contact_cells(self) -> np.ndarray:
        return np.nonzero(self.contact)[0]

    @property
    def n_contact(self) -> int:
        return int(np.count_nonzero(self.contact))

    def key(self) -> bytes:
        return np.packbits(self.contact).tobytes()

    def copy(self) -> "ActiveSetPartition":
        return ActiveSetPartition(self.contact.copy())

    def __eq__(self, other):
        return (isinstance(other, ActiveSetPartition)
                and np.array_equal(self.contact, other.contact))

    def __repr__(self):
        return f"ActiveSetPartition({self.n_contact}/{self.n_cells} contact cells)"


@dataclass
class LviProblem:
    """One elliptic variational inequality in assembled form.

    ``rhs`` is the combined per-cell right-hand side (source plus previous
    step weighted by alpha |K|), ``alpha`` the reciprocal time step (zero for
    a steady problem), and ``boundary_values`` the Dirichlet values on
    boundary edges in ``mesh.boundary_edges`` order (None means homogeneous).
    """

    forms: AssembledForms
    rhs: np.ndarray
    alpha: float
    psi: ObstacleVector
    boundary_values: Optional[np.ndarray] = None
    linear_tol: float = 1e-12
    direct_limit: int = 200_000
    _system: Optional[sp.csr_matrix] = field(default=None, init=False, repr=False)
    _condensed: Optional[tuple] = field(default=None, init=False, repr=False)

    @property
    def system_matrix(self) -> sp.csr_matrix:
        if self._system is None:
            S = self.forms.stiffness
            if self.alpha != 0.0:
                S = S + sp.diags(self.alpha * self.forms.mass_diag)
            self._system = S.tocsr()
        return self._system


# Seconds summed over the iterations of one solve: the factorisation alone,
# the whole linear solve including it, and the partition updates.
TIMING_KEYS = ("factor_s", "linear_s", "update_s")


@dataclass
class SolveStats:
    """Record of one active-set solve."""

    iterations: int = 0
    set_changes: list = field(default_factory=list)
    contact_sizes: list = field(default_factory=list)
    linear_residuals: list = field(default_factory=list)
    complementarity_max: float = 0.0
    conservation_defect: float = 0.0
    timings: dict = field(default_factory=lambda: dict.fromkeys(TIMING_KEYS, 0.0))

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "set_changes": list(self.set_changes),
            "contact_sizes": list(self.contact_sizes),
            "linear_residuals": list(self.linear_residuals),
            "complementarity_max": self.complementarity_max,
            "conservation_defect": self.conservation_defect,
            "timings": dict(self.timings),
        }


@dataclass
class ComplementarityReport:
    """Per-cell complementarity measure min(u_K - psi_K, residual_K)."""

    per_cell: np.ndarray
    max_abs: float
    worst_cell: int


def contact_tolerance(problem: LviProblem) -> float:
    """Comparison tolerance for the set updates, scaled by the data."""
    scale = 1.0
    if problem.rhs.size:
        scale = max(1.0, float(np.max(np.abs(problem.rhs))))
    return 1e-10 * scale


def _cell_residuals(gd, problem, u):
    feas = u.cells - problem.psi.values
    mult = (problem.system_matrix @ u.values)[:gd.n_cells] - problem.rhs
    return feas, mult


def update_partition(gd: GradientDiscretisation, problem: LviProblem,
                     u: DofVector, current: ActiveSetPartition) -> ActiveSetPartition:
    """One exchange of cells between the balance and contact sets.

    Balance cells at or below the obstacle move to contact (ties go to
    contact); contact cells move back when their multiplier turns strictly
    negative or their value falls strictly below the obstacle.  The function
    is a pure map of (u, partition) and is idempotent at the solution.
    """
    if current.n_cells != gd.n_cells:
        raise SolverError(
            f"partition covers {current.n_cells} cells, mesh has {gd.n_cells}")
    tau = contact_tolerance(problem)
    feas, mult = _cell_residuals(gd, problem, u)
    keep_contact = ~((mult < -tau) | (feas < -tau))
    enter_contact = feas <= tau
    return ActiveSetPartition(np.where(current.contact, keep_contact, enter_contact))


def complementarity_residual(gd: GradientDiscretisation, problem: LviProblem,
                             u: DofVector) -> ComplementarityReport:
    """How far u is from satisfying the discrete complementarity system."""
    feas, mult = _cell_residuals(gd, problem, u)
    per_cell = np.minimum(feas, mult)
    worst = int(np.argmax(np.abs(per_cell))) if per_cell.size else 0
    return ComplementarityReport(per_cell=per_cell,
                                 max_abs=float(np.max(np.abs(per_cell))) if per_cell.size else 0.0,
                                 worst_cell=worst)


def _condensed_blocks(gd, problem):
    """(d, B, Aee, edge dofs) of the system matrix, built once per problem.

    d is the cell diagonal (the cell-cell block is diagonal in HMM), B the
    cell x interior-edge block and Aee the interior-edge block.
    """
    if problem._condensed is None:
        S = problem.system_matrix
        nc = gd.n_cells
        edofs = gd.free_dofs[nc:]
        cell_rows = S[:nc]
        problem._condensed = (cell_rows.diagonal(), cell_rows[:, edofs],
                              S[edofs][:, edofs], edofs)
    return problem._condensed


def _linear_solve(gd, problem, partition):
    """Solve the linear system for a fixed partition.

    The balance cells are condensed out and only the interior-edge Schur
    complement is factorised.  Returns (u, residual, factorisation seconds),
    the residual measured on the uncondensed free system.
    """
    S = problem.system_matrix
    nc = gd.n_cells
    bdofs = gd.boundary_edge_dofs
    if problem.boundary_values is not None:
        bvals = np.asarray(problem.boundary_values, dtype=float)
        if bvals.shape != (bdofs.size,):
            raise SolverError(
                f"{bvals.size} boundary values for {bdofs.size} boundary edges")
    else:
        bvals = np.zeros(bdofs.size)

    d, B, Aee, edofs = _condensed_blocks(gd, problem)
    contact = partition.contact
    balance = ~contact
    u = np.zeros(gd.n_dofs)
    u[:nc][contact] = problem.psi.values[contact]
    u[bdofs] = bvals
    free_ids = np.concatenate((np.nonzero(balance)[0], edofs))
    if free_ids.size == 0:
        return DofVector(u, nc), 0.0, 0.0

    b = np.zeros(gd.n_dofs)
    b[:nc] = problem.rhs
    g = b - S @ u
    w = np.zeros(nc)
    w[balance] = 1.0 / d[balance]
    wg = w * g[:nc]
    Bt = B.T
    schur = (Aee - Bt @ sp.diags(w) @ B).tocsc()
    rhs_e = g[edofs] - Bt @ wg

    factor_s = 0.0
    try:
        if edofs.size == 0:
            x = np.zeros(0)
        elif free_ids.size <= problem.direct_limit:
            start = time.perf_counter()
            lu = spla.splu(schur, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
            factor_s = time.perf_counter() - start
            x = lu.solve(rhs_e)
        else:
            precond = sp.diags(1.0 / schur.diagonal())
            x, info = spla.cg(schur, rhs_e, M=precond, rtol=problem.linear_tol,
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

    u[edofs] = x
    u[:nc] = np.where(contact, u[:nc], wg - w * (B @ x))
    rhs = g[free_ids]
    r = (S @ u - b)[free_ids]
    resid = float(np.linalg.norm(r) / max(1.0, np.linalg.norm(rhs)))
    if not np.isfinite(resid) or resid > 1e3 * problem.linear_tol:
        raise SingularSystemError(
            f"linear solve residual {resid:.3e} for the partition with "
            f"{partition.n_contact} contact cells", partition=partition)
    return DofVector(u, nc), resid, factor_s


def solve_lvi(gd: GradientDiscretisation, problem: LviProblem,
              warm: Optional[ActiveSetPartition] = None):
    """Solve one variational inequality by the monotone active-set iteration.

    Starts from the warm-start partition when given (all cells in the balance
    set otherwise), and returns (u, partition, stats) where the partition is
    a fixed point of the set-update rule.
    """
    nc = gd.n_cells
    partition = warm.copy() if warm is not None else ActiveSetPartition.all_pde(nc)
    if partition.n_cells != nc:
        raise SolverError(
            f"warm-start partition covers {partition.n_cells} cells, mesh has {nc}")
    if problem.psi.values.shape != (nc,):
        raise SolverError(
            f"obstacle vector has {problem.psi.values.shape} values for {nc} cells")

    stats = SolveStats()
    seen = {partition.key()}
    previous = partition
    timings = stats.timings
    for it in range(1, nc + 2):
        start = time.perf_counter()
        u, lin_resid, factor_s = _linear_solve(gd, problem, partition)
        mid = time.perf_counter()
        timings["factor_s"] += factor_s
        timings["linear_s"] += mid - start
        stats.iterations = it
        stats.linear_residuals.append(lin_resid)
        stats.contact_sizes.append(partition.n_contact)
        new = update_partition(gd, problem, u, partition)
        timings["update_s"] += time.perf_counter() - mid
        changed = int(np.count_nonzero(new.contact != partition.contact))
        stats.set_changes.append(changed)
        if changed == 0:
            report = complementarity_residual(gd, problem, u)
            stats.complementarity_max = report.max_abs
            stats.conservation_defect = flux_conservation_defect(gd, problem.forms, u)
            return u, partition, stats
        if new.key() in seen:
            raise IterationLimitError(
                f"active-set iteration revisited a partition after {it} solves",
                last_partitions=(partition, new))
        seen.add(new.key())
        previous, partition = partition, new
    raise IterationLimitError(
        f"active-set iteration exceeded the safeguard of {nc + 1} solves",
        last_partitions=(previous, partition))
