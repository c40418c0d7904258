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
diagonal d = s_cc + alpha |K|; the mass enters nowhere else.  The stiffness
diagonal s_cc, the cell x interior-edge block B and the interior-edge block
A_ee are split off the stiffness once per forms object
(``AssembledForms.split``) and serve every step of a run, so S + alpha M is
never formed.  With w = 1/d on balance cells and 0 on contact cells and
g = b - (S + alpha M) u_pinned (u_pinned holding the obstacle on contact
cells and the Dirichlet values), the interior edges solve

    (A_ee - B^T diag(w) B) u_e = g_e - B^T (w g_cells),

and the cells follow as u_K = w_K (g_K - B_K u_e).  B^T is kept as CSR with
the split, and diag(w) is applied by scaling its entries column by column.

The Schur complement is SPD because S is SPD on the free unknowns.  Every SPD
factorisation of the package, this one and the plain form of the quality
measures, goes through ``factorise_spd``: SuperLU with a symmetric
minimum-degree ordering of A^T + A, diagonal pivots, and relaxed supernodes
and panels switched off, which on these 2-D mesh graphs cost more than they
save.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretisation import (AssembledForms, DofVector, ObstacleVector,
                             flux_conservation_defect)

# CG's relative tolerance; a linear residual above 1e3 times it is refused.
LINEAR_TOL = 1e-12
# Free unknowns up to which a system is factorised rather than solved by CG.
DIRECT_LIMIT = 200_000
# SuperLU's relaxed supernodes and panels, both off.  With them off, a
# factorisation of the solver's Schur complements (6,816 to 32,512 unknowns:
# triangular 48, 64 and 96, Cartesian 6 and 7, kershaw 4, hexagonal 6) takes
# 0.61-0.79 of the time it takes with scipy's defaults, for the same fill, and
# breaks even on Cartesian 8 (130,560 unknowns); median ratios, scipy 1.17 on
# a 2-vCPU Xeon.  Try other values on every mesh family before changing them:
# relax 100 with panel 30 aborted the process inside SuperLU.
RELAX = 1
PANEL_SIZE = 1


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

    @property
    def n_cells(self) -> int:
        return self.contact.size

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
    """One elliptic variational inequality: the data of one time step.

    ``forms`` holds the operator, shared by every step of a run and free of
    alpha; ``rhs`` is the combined per-cell right-hand side (source plus previous
    step weighted by alpha |K|), ``alpha`` the reciprocal time step (zero for
    a steady problem), and ``boundary_values`` the Dirichlet values on
    boundary edges in ``mesh.boundary_edges`` order (None means homogeneous).
    """

    forms: AssembledForms
    rhs: np.ndarray
    alpha: float
    psi: ObstacleVector
    boundary_values: Optional[np.ndarray] = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(S + alpha M) v, with the mass applied as its diagonal."""
        return self.forms.stiffness @ v + self.alpha * self.forms.mass_diag * v


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


def contact_tolerance(problem: LviProblem) -> float:
    """Comparison tolerance for the set updates, scaled by the data."""
    scale = 1.0
    if problem.rhs.size:
        scale = max(1.0, float(np.max(np.abs(problem.rhs))))
    return 1e-10 * scale


def _cell_residuals(problem, u):
    feas = u.cells - problem.psi.values
    mult = problem.apply(u.values)[:problem.forms.gd.n_cells] - problem.rhs
    return feas, mult


def update_partition(problem: LviProblem, u: DofVector,
                     current: ActiveSetPartition) -> ActiveSetPartition:
    """One exchange of cells between the balance and contact sets.

    Balance cells at or below the obstacle move to contact (ties go to
    contact); contact cells move back when their multiplier turns strictly
    negative or their value falls strictly below the obstacle.  The function
    is a pure map of (u, partition) and is idempotent at the solution.
    """
    n_cells = problem.forms.gd.n_cells
    if current.n_cells != n_cells:
        raise SolverError(
            f"partition covers {current.n_cells} cells, mesh has {n_cells}")
    tau = contact_tolerance(problem)
    feas, mult = _cell_residuals(problem, u)
    keep_contact = ~((mult < -tau) | (feas < -tau))
    enter_contact = feas <= tau
    return ActiveSetPartition(np.where(current.contact, keep_contact, enter_contact))


def complementarity_residual(problem: LviProblem, u: DofVector) -> float:
    """Largest |min(u_K - psi_K, residual_K)| over the cells.

    Zero exactly when u satisfies the discrete complementarity system.
    """
    feas, mult = _cell_residuals(problem, u)
    per_cell = np.minimum(feas, mult)
    return float(np.max(np.abs(per_cell))) if per_cell.size else 0.0


def factorise_spd(A: sp.csc_matrix):
    """SuperLU factors of a sparse SPD matrix: the package's one splu call."""
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     relax=RELAX, panel_size=PANEL_SIZE,
                     options=dict(SymmetricMode=True))


def _linear_solve(problem, partition):
    """Solve the linear system for a fixed partition.

    The balance cells are condensed out and only the interior-edge Schur
    complement is factorised.  Returns (u, residual, factorisation seconds),
    the residual measured on the uncondensed free system.
    """
    gd = problem.forms.gd
    nc = gd.n_cells
    bdofs = gd.boundary_edge_dofs
    if problem.boundary_values is not None:
        bvals = np.asarray(problem.boundary_values, dtype=float)
        if bvals.shape != (bdofs.size,):
            raise SolverError(
                f"{bvals.size} boundary values for {bdofs.size} boundary edges")
    else:
        bvals = np.zeros(bdofs.size)

    s_cc, B, Aee, edofs, Bt = problem.forms.split
    d = s_cc + problem.alpha * problem.forms.mass_diag[:nc]
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
    g = b - problem.apply(u)
    w = np.zeros(nc)
    w[balance] = 1.0 / d[balance]
    wg = w * g[:nc]
    # B^T diag(w) B with the diagonal applied to B^T's column entries: the
    # same products and sums as the triple product, without forming diag(w).
    BtW = Bt.copy()
    BtW.data *= w[Bt.indices]
    schur = (Aee - BtW @ B).tocsc()
    rhs_e = g[edofs] - Bt @ wg

    factor_s = 0.0
    try:
        if edofs.size == 0:
            x = np.zeros(0)
        elif free_ids.size <= DIRECT_LIMIT:
            start = time.perf_counter()
            lu = factorise_spd(schur)
            factor_s = time.perf_counter() - start
            x = lu.solve(rhs_e)
        else:
            precond = sp.diags(1.0 / schur.diagonal())
            x, info = spla.cg(schur, rhs_e, M=precond, rtol=LINEAR_TOL,
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
    r = (problem.apply(u) - b)[free_ids]
    with np.errstate(all="ignore"):  # the check below refuses a non-finite residual
        resid = float(np.linalg.norm(r) / max(1.0, np.linalg.norm(rhs)))
    if not np.isfinite(resid) or resid > 1e3 * LINEAR_TOL:
        raise SingularSystemError(
            f"linear solve residual {resid:.3e} for the partition with "
            f"{partition.n_contact} contact cells", partition=partition)
    return DofVector(u, nc), resid, factor_s


def solve_lvi(problem: LviProblem, warm: Optional[ActiveSetPartition] = None):
    """Solve one variational inequality by the monotone active-set iteration.

    Starts from the warm-start partition when given (all cells in the balance
    set otherwise), and returns (u, partition, stats) where the partition is
    a fixed point of the set-update rule.
    """
    nc = problem.forms.gd.n_cells
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
        u, lin_resid, factor_s = _linear_solve(problem, partition)
        mid = time.perf_counter()
        timings["factor_s"] += factor_s
        timings["linear_s"] += mid - start
        stats.iterations = it
        stats.linear_residuals.append(lin_resid)
        stats.contact_sizes.append(partition.n_contact)
        new = update_partition(problem, u, partition)
        timings["update_s"] += time.perf_counter() - mid
        changed = int(np.count_nonzero(new.contact != partition.contact))
        stats.set_changes.append(changed)
        if changed == 0:
            stats.complementarity_max = complementarity_residual(problem, u)
            stats.conservation_defect = flux_conservation_defect(problem.forms, u)
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
