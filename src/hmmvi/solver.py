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
negative, or that falls strictly below the obstacle, is released.  Ties within
the tolerances go to contact.  A fixed partition means the complementarity
conditions hold and the iteration stops; the iteration count is bounded by
the number of cells, with a safeguard one step above that and detection of
revisited partitions.

A partition is a read-only boolean contact mask with its count of contact
cells.  Each linear solve returns u and the balance residual
r = (S + alpha M) u - b over all unknowns that it forms for its own residual
check, and writes its contact size, relative residual and timings into the
step's ``SolveStats``.  The cell part of r is the multiplier: the set update
and the complementarity measure read it from r and form no product of their
own.

Each linear solve condenses the cell unknowns out.  An HMM cell unknown
couples only to its own edges, so the cell-cell block of S + alpha M is the
diagonal d = s_cc + alpha |K|; the mass enters nowhere else.  With w = 1/d on
balance cells and 0 on contact cells and g = b - (S + alpha M) u_pinned
(u_pinned holds the obstacle on contact cells and the Dirichlet values), the
interior edges solve

    (A_ee - B^T diag(w) B) u_e = g_e - B^T (w g_cells),

and the cells follow as u_K = w_K (g_K - B_K u_e), B being the cell x
interior-edge block of S.  The solver keeps a ``SchurPlan`` per forms object,
built on the first solve and dropped with the forms: the alpha-free blocks,
so S + alpha M is never formed, and the held ordering below.

The Schur complement is SPD because S is SPD on the free unknowns.  Every SPD
factorisation of the package, this one and the interior-edge complement of
the quality measures' plain form, goes through ``factorise_spd``: SuperLU
with a symmetric minimum-degree ordering of A^T + A, diagonal pivots, and
relaxed supernodes and panels switched off, which on these 2-D mesh graphs
cost more than they save.

On triangular, hexagonal and Kershaw meshes A_ee stores every coupling, so
the Schur complement has the plan's whole pattern whatever the partition
and shares the plan's index arrays.  On Cartesian meshes some couplings are
exact zeros of A_ee that B^T diag(w) B fills in, so there the pattern
follows the partition.  The plan holds the CSC pattern of the last Schur
complement ordered by minimum degree, and that ordering perm_c.  A Schur
complement with exactly that pattern is factorised in natural order after
the held ordering is applied by one gather: column perm_c[j] of the permuted
matrix is column j, with its rows renamed by perm_c.  Each permuted column
keeps its entries in their original order, unsorted in the new row
numbering.  SuperLU's symbolic factorisation visits a column's entries in
stored order, and in symmetric mode it does not postorder the elimination
tree, so it then repeats the operations of the minimum-degree factorisation
exactly: the factors and the solutions are bit for bit the same, only the
ordering is not recomputed.  With the rows sorted, the solutions differ in
the last bits.  A new pattern is ordered afresh and becomes the held one.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretisation import AssembledForms, DofVector, flux_conservation_defect

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
    """Disjoint split of the cells into balance (A) and contact (B) sets.

    ``contact`` is a read-only copy of the given mask, True on contact cells,
    and ``n_contact`` the number of contact cells.
    """

    __slots__ = ("contact", "n_contact")

    def __init__(self, contact: np.ndarray):
        self.contact = np.array(contact, dtype=bool)
        self.contact.setflags(write=False)
        self.n_contact = int(np.count_nonzero(self.contact))


@dataclass
class LviProblem:
    """One elliptic variational inequality: the data of one time step.

    ``forms`` holds the operator, shared by every step of a run and free of
    alpha; ``rhs`` is the combined per-cell right-hand side (source plus previous
    step weighted by alpha |K|), ``alpha`` the reciprocal time step (zero for
    a steady problem), ``psi`` the obstacle values psi(x_K), one per cell, and
    ``boundary_values`` the Dirichlet values on boundary edges in
    ``mesh.boundary_edges`` order (None means homogeneous).
    """

    forms: AssembledForms
    rhs: np.ndarray
    alpha: float
    psi: np.ndarray
    boundary_values: Optional[np.ndarray] = None

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=float)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """(S + alpha M) v, with the mass applied as its diagonal."""
        return self.forms.stiffness @ v + self.alpha * self.forms.mass_diag * v


# Seconds summed over the iterations of one solve: the Schur complement
# build and the factorisation alone, the whole linear solve including both,
# and the partition updates.
TIMING_KEYS = ("schur_s", "factor_s", "linear_s", "update_s")


@dataclass
class SolveStats:
    """Record of one active-set solve."""

    iterations: int = 0
    orderings: int = 0
    set_changes: list = field(default_factory=list)
    contact_sizes: list = field(default_factory=list)
    linear_residuals: list = field(default_factory=list)
    complementarity_max: float = 0.0
    conservation_defect: float = 0.0
    timings: dict = field(default_factory=lambda: dict.fromkeys(TIMING_KEYS, 0.0))


def contact_tolerance(problem: LviProblem) -> float:
    """The multiplier's tolerance in the set updates, scaled by the right-hand side.

    tau = 1e-10 max(1, max|rhs|), in the units of the balance residual.
    """
    return 1e-10 * float(np.max(np.abs(problem.rhs), initial=1.0))


def update_partition(problem: LviProblem, u: DofVector, r: np.ndarray,
                     current: ActiveSetPartition) -> ActiveSetPartition:
    """One exchange of cells between the balance and contact sets.

    ``r`` is the balance residual (S + alpha M) u - b over all unknowns, as
    ``_linear_solve`` returns it with u; its cell part is the multiplier.
    Balance cells at or below the obstacle move to contact (ties go to
    contact); contact cells move back when their multiplier turns strictly
    negative or their value falls strictly below the obstacle.  The gap
    u_K - psi_K is compared with 1e-10 max(1, max|psi|), the multiplier with
    ``contact_tolerance``.  A pure map of (u, r, partition), idempotent at
    the solution.
    """
    n_cells = problem.forms.gd.n_cells
    if current.contact.size != n_cells:
        raise SolverError(
            f"partition covers {current.contact.size} cells, mesh has {n_cells}")
    gap_tol = 1e-10 * float(np.max(np.abs(problem.psi), initial=1.0))
    feas = u.cells - problem.psi
    keep_contact = ~((r[:n_cells] < -contact_tolerance(problem)) | (feas < -gap_tol))
    enter_contact = feas <= gap_tol
    return ActiveSetPartition(np.where(current.contact, keep_contact, enter_contact))


def complementarity_residual(problem: LviProblem, u: DofVector, r: np.ndarray) -> float:
    """Largest |min(u_K - psi_K, r_K)| over the cells, r the balance residual.

    Zero exactly when u satisfies the discrete complementarity system.
    """
    per_cell = np.minimum(u.cells - problem.psi, r[:problem.forms.gd.n_cells])
    return float(np.max(np.abs(per_cell))) if per_cell.size else 0.0


def factorise_spd(A: sp.csc_matrix, permc_spec: str = "MMD_AT_PLUS_A"):
    """SuperLU factors of a sparse SPD matrix: the package's one splu call.

    ``permc_spec="NATURAL"`` is for a matrix already in a fill-reducing order.
    """
    return spla.splu(A, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                     relax=RELAX, panel_size=PANEL_SIZE,
                     options=dict(SymmetricMode=True))


@dataclass(eq=False)
class SchurPlan:
    """The solver's state for one forms object: split, union plan, held ordering.

    ``s_cc`` is the diagonal of the stiffness's cell-cell block, ``B`` (with
    the cell of each entry in ``cell``) its cell x interior-edge block and
    ``edofs`` the interior-edge unknowns.  The union pattern (``indices``,
    ``indptr``) holds every stored entry of A_ee, whose values ``aee`` holds
    (0.0 elsewhere), and every coupling of two interior edges of one cell, in
    sorted CSC order.  Row p = (i, j) of ``q`` holds B[K,j] at column t for
    each entry t = (K, i) of B whose cell K also holds edge j.  With v_t =
    w_K B[K,i], entry p of q v is sum_K (w_K B[K,i]) B[K,j], the cells in
    increasing order: the multiplies and sums of scipy's product of the
    column-scaled B^T with B, so ``complement`` is scipy's matrix bit for bit,
    exact zeros dropped, on every mesh.  The held ordering is ``held_indptr``,
    ``held_indices`` and ``perm_c``; ``gather``, ``inverse`` = argsort(perm_c)
    and the permuted pattern are built when that pattern comes back.
    """

    s_cc: np.ndarray
    B: sp.csr_matrix
    edofs: np.ndarray
    aee: np.ndarray
    q: sp.csr_matrix
    cell: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    held_indptr: Optional[np.ndarray] = None
    held_indices: Optional[np.ndarray] = None
    perm_c: Optional[np.ndarray] = None
    gather: Optional[np.ndarray] = None
    inverse: Optional[np.ndarray] = None
    permuted_indptr: Optional[np.ndarray] = None
    permuted_indices: Optional[np.ndarray] = None

    @classmethod
    def build(cls, stiffness: sp.csr_matrix, n_cells: int, edofs: np.ndarray) -> "SchurPlan":
        """The plan of a stiffness with ``n_cells`` cell unknowns first."""
        cell_rows = stiffness[:n_cells]
        B = cell_rows[:, edofs]
        n = B.shape[1]
        m = np.diff(B.indptr)
        cell = np.repeat(np.arange(B.shape[0]), m)
        # One pair (t, s) of entries of B per cell K and pair (i, j) of its
        # edges: t = (K, i), s = (K, j), t in increasing order.
        reps = m[cell]
        t = np.repeat(np.arange(B.nnz), reps)
        s = B.indptr[cell[t]] + np.arange(t.size) - np.repeat(np.cumsum(reps) - reps, reps)
        # The union's keys column * n + row, sorted, and each key's position.
        A = stiffness[edofs][:, edofs].tocsc()
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
        return cls(cell_rows.diagonal(), B, edofs, aee, q, cell,
                   (union % n).astype(A.indices.dtype), indptr.astype(A.indptr.dtype))

    def complement(self, w: np.ndarray) -> sp.csc_matrix:
        """A_ee - B^T diag(w) B as CSC, sorted, with exact zeros dropped.

        Only a complement with no zero to drop holds the plan's own
        ``indptr``, and with it the plan's whole pattern.
        """
        v = w[self.cell]
        v *= self.B.data
        data = self.q @ v
        np.subtract(self.aee, data, out=data)
        n = self.indptr.size - 1
        if data.all():
            return sp.csc_matrix((data, self.indices, self.indptr), shape=(n, n))
        # eliminate_zeros compacts the arrays in place: the plan's own stay.
        S = sp.csc_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(n, n))
        S.eliminate_zeros()
        return S


# forms -> its SchurPlan, dropped with the forms.
_plans = weakref.WeakKeyDictionary()


def _schur_plan(forms: AssembledForms) -> SchurPlan:
    """The solver's state for ``forms``, built on its first solve."""
    if forms not in _plans:
        nc = forms.gd.n_cells
        _plans[forms] = SchurPlan.build(forms.stiffness, nc, forms.gd.free_dofs[nc:])
    return _plans[forms]


def _factorise_schur(plan: SchurPlan, A: sp.csc_matrix, stats: SolveStats):
    """Factorise a Schur complement in the held ordering when its pattern is held.

    Returns a function solving with A, and adds the factorisation's seconds
    and any minimum-degree ordering it computed to ``stats``.
    """
    start = time.perf_counter()
    # Complements that share the plan's indptr share its whole pattern.
    if plan.perm_c is None or not (plan.held_indptr is A.indptr or (
            np.array_equal(plan.held_indptr, A.indptr)
            and np.array_equal(plan.held_indices, A.indices))):
        lu = factorise_spd(A)
        # perm_c is a view into the factor object: a copy lets the factors go.
        plan.held_indptr, plan.held_indices, plan.perm_c, plan.gather = (
            A.indptr, A.indices, lu.perm_c.copy(), None)
        stats.orderings += 1
        stats.timings["factor_s"] += time.perf_counter() - start
        return lu.solve
    if plan.gather is None:
        # The pattern came back: build the gather once.  Column k of the
        # permuted matrix is column inverse[k] of A, its entries in A's order.
        indptr, indices = plan.held_indptr, plan.held_indices
        plan.inverse = np.argsort(plan.perm_c)
        counts = np.diff(indptr)[plan.inverse]
        plan.permuted_indptr = np.zeros_like(indptr)
        np.cumsum(counts, out=plan.permuted_indptr[1:])
        plan.gather = (np.repeat(indptr[plan.inverse] - plan.permuted_indptr[:-1], counts)
                       + np.arange(indices.size, dtype=indptr.dtype))
        plan.permuted_indices = plan.perm_c[indices[plan.gather]]
    P = sp.csc_matrix((A.data[plan.gather], plan.permuted_indices, plan.permuted_indptr),
                      shape=A.shape)
    # splu sorts the rows of a matrix not marked canonical, and sorted rows
    # change SuperLU's order of operations.  P has no duplicate entries, only
    # rows out of order, which SuperLU accepts.
    P.has_canonical_format = True
    lu = factorise_spd(P, "NATURAL")
    inverse = plan.inverse
    stats.timings["factor_s"] += time.perf_counter() - start

    def solve(b):
        x = np.empty_like(b)
        x[inverse] = lu.solve(b[inverse])
        return x

    return solve


def _linear_solve(problem, partition, stats: SolveStats):
    """Solve the linear system for a fixed partition, the cells condensed out.

    Returns (u, r) and appends the partition's contact size and the relative
    residual to ``stats``, adding the Schur complement build's seconds.
    r = (S + alpha M) u - b is the balance residual over all unknowns; its
    norm on the free unknowns, relative to the pinned right-hand side's, is
    the relative residual, and its cell part is the multiplier of the set
    update.  ``solve_lvi`` has checked the boundary values once for all its
    iterations.
    """
    gd = problem.forms.gd
    nc = gd.n_cells
    plan = _schur_plan(problem.forms)  # built on the first solve, outside schur_s
    B, edofs = plan.B, plan.edofs
    d = plan.s_cc + problem.alpha * problem.forms.mass_diag[:nc]
    contact = partition.contact
    balance = ~contact
    u = np.zeros(gd.n_dofs)
    u[:nc][contact] = problem.psi[contact]
    if problem.boundary_values is not None:
        u[gd.boundary_edge_dofs] = problem.boundary_values
    free_ids = np.concatenate((np.nonzero(balance)[0], edofs))

    b = np.zeros(gd.n_dofs)
    b[:nc] = problem.rhs
    g = b - problem.apply(u)
    w = np.zeros(nc)
    w[balance] = 1.0 / d[balance]
    wg = w * g[:nc]
    start = time.perf_counter()
    schur = plan.complement(w)  # A_ee - B^T diag(w) B as CSC
    stats.timings["schur_s"] += time.perf_counter() - start
    rhs_e = g[edofs] - B.T @ wg

    try:
        if edofs.size == 0:
            x = np.zeros(0)
        elif free_ids.size <= DIRECT_LIMIT:
            x = _factorise_schur(plan, schur, stats)(rhs_e)
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
    r = problem.apply(u) - b
    with np.errstate(all="ignore"):  # the check below refuses a non-finite residual
        resid = float(np.linalg.norm(r[free_ids])
                      / max(1.0, np.linalg.norm(g[free_ids])))
    if not np.isfinite(resid) or resid > 1e3 * LINEAR_TOL:
        raise SingularSystemError(
            f"linear solve residual {resid:.3e} for the partition with "
            f"{partition.n_contact} contact cells", partition=partition)
    stats.contact_sizes.append(partition.n_contact)
    stats.linear_residuals.append(resid)
    return DofVector(u, nc), r


def solve_lvi(problem: LviProblem, warm: Optional[ActiveSetPartition] = None):
    """Solve one variational inequality by the monotone active-set iteration.

    Starts from the warm-start partition when given (all cells in the balance
    set otherwise), and returns (u, partition, stats) where the partition is
    a fixed point of the set-update rule.
    """
    nc = problem.forms.gd.n_cells
    partition = warm if warm is not None else ActiveSetPartition(np.zeros(nc, dtype=bool))
    if partition.contact.size != nc:
        raise SolverError(
            f"warm-start partition covers {partition.contact.size} cells, mesh has {nc}")
    if problem.psi.shape != (nc,):
        raise SolverError(
            f"obstacle vector has {problem.psi.shape} values for {nc} cells")
    rhs = np.asarray(problem.rhs)
    if rhs.shape != (nc,):
        raise SolverError(f"rhs has shape {rhs.shape}, expected ({nc},) for {nc} cells")
    if not np.all(np.isfinite(rhs)):
        raise SolverError("rhs has non-finite values")
    if not np.all(np.isfinite(problem.psi)):
        raise SolverError("obstacle has non-finite values")
    if not (np.isfinite(problem.alpha) and problem.alpha >= 0.0):
        raise SolverError(f"alpha must be finite and non-negative, got {problem.alpha}")
    if problem.boundary_values is not None:
        bvals = np.asarray(problem.boundary_values, dtype=float)
        nb = problem.forms.gd.boundary_edge_dofs.size
        if bvals.shape != (nb,):
            raise SolverError(f"{bvals.size} boundary values for {nb} boundary edges")
        if not np.all(np.isfinite(bvals)):
            raise SolverError("boundary values have non-finite entries")

    stats = SolveStats()
    seen = {np.packbits(partition.contact).tobytes()}
    previous = partition
    for it in range(1, nc + 2):
        start = time.perf_counter()
        u, r = _linear_solve(problem, partition, stats)
        mid = time.perf_counter()
        stats.timings["linear_s"] += mid - start
        stats.iterations = it
        new = update_partition(problem, u, r, partition)
        stats.timings["update_s"] += time.perf_counter() - mid
        changed = int(np.count_nonzero(new.contact != partition.contact))
        stats.set_changes.append(changed)
        if changed == 0:
            stats.complementarity_max = complementarity_residual(problem, u, r)
            stats.conservation_defect = flux_conservation_defect(problem.forms, u)
            return u, partition, stats
        key = np.packbits(new.contact).tobytes()
        if key in seen:
            raise IterationLimitError(
                f"active-set iteration revisited a partition after {it} solves: the partitions "
                f"with {partition.n_contact} and {new.n_contact} contact cells differ in "
                f"{changed} cells", last_partitions=(partition, new))
        seen.add(key)
        previous, partition = partition, new
    raise IterationLimitError(
        f"active-set iteration exceeded the safeguard of {nc + 1} solves",
        last_partitions=(previous, partition))
