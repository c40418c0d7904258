"""Implicit Euler time stepping for the parabolic obstacle problem.

The time grid is uniform: N steps of the one length dt = T/N.  Each step
solves one elliptic variational inequality with the run's one reciprocal time
step alpha = 1/dt: the bilinear part is alpha (Pi u, Pi v) + (Lambda grad u,
grad v) and the right-hand side combines the time-averaged source with the
previous cell values.  The active-set partition of a converged step is the
warm start of the next one; the first step starts with every cell in the
balance set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .discretisation import (DiscretisationError, GradientDiscretisation,
                             DofVector, ObstacleVector, assemble_forms,
                             interpolate_initial, interpolate_obstacle)
from .solver import (TIMING_KEYS, ActiveSetPartition, LviProblem, SolveStats,
                     SolverError, solve_lvi)

# Largest step count a uniform grid accepts.
MAX_STEPS = 1_000_000


class TimeGridError(Exception):
    """Invalid time grid data."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: ``n_steps`` steps of length ``step`` up to ``final_time``.

    ``step`` is final_time / n_steps, the one step length of the scheme;
    ``nodes`` are the n_steps + 1 points of ``np.linspace(0, final_time,
    n_steps + 1)``, the times at which data are sampled.
    """

    final_time: float
    n_steps: int
    step: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_horizon(self.final_time)
        n = self.n_steps
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_STEPS:
            raise TimeGridError(f"need an integer count of 1 to {MAX_STEPS} steps, got n={n!r}")
        object.__setattr__(self, "step", self.final_time / n)
        object.__setattr__(self, "nodes", np.linspace(0.0, self.final_time, n + 1))

    @classmethod
    def uniform_from_dt(cls, final_time: float, dt: float) -> "TimeGrid":
        """Uniform grid with the largest step not exceeding dt.

        A dt within 1e-12 relative of dividing final_time gives exactly
        final_time / dt steps."""
        _check_horizon(final_time)
        if not 0.0 < dt < math.inf:
            raise TimeGridError(f"time step must be positive and finite, got {dt!r}")
        steps = final_time / dt * (1.0 - 1e-12)
        if not steps <= MAX_STEPS:
            raise TimeGridError(f"T={final_time!r} in steps of dt={dt!r} takes more "
                                f"than {MAX_STEPS} steps")
        return cls(final_time, max(1, math.ceil(steps)))


def _check_horizon(final_time: float) -> None:
    if not 0.0 < final_time < math.inf:
        raise TimeGridError(f"need a positive finite horizon, got T={final_time!r}")


@dataclass
class ProblemSpec:
    """Continuous data of one parabolic obstacle problem.

    All callables are vectorised: ``source(points, t)``, ``obstacle(points)``,
    ``initial(points)`` and ``dirichlet(points, t)`` take an (n, 2) array and
    return an (n,) array.  ``diffusion`` is not a callable: it is None
    (identity), a 2x2 array or an (n_cells, 2, 2) array, as ``build_gd``
    takes it.  ``dirichlet=None`` means homogeneous boundary data.
    """

    source: Callable
    obstacle: Callable
    initial: Callable
    final_time: float
    diffusion: object = None
    dirichlet: Optional[Callable] = None

    def __post_init__(self):
        _check_horizon(self.final_time)


@dataclass
class TransientSolution:
    """All time-node vectors of one run plus per-step solver records."""

    grid: TimeGrid
    psi: ObstacleVector
    vectors: list
    stats: list
    partitions: list

    @property
    def iterations(self) -> list:
        return [s.iterations for s in self.stats]

    @property
    def final(self) -> DofVector:
        return self.vectors[-1]

    @property
    def solver_timings(self) -> dict:
        """Solver phase seconds summed over all steps."""
        return {key: sum(s.timings[key] for s in self.stats) for key in TIMING_KEYS}


def time_average_source(source: Callable, t_a: float, t_b: float,
                        points: np.ndarray) -> np.ndarray:
    """Midpoint-in-time evaluation of the source over one step."""
    return np.asarray(source(points, 0.5 * (t_a + t_b)), dtype=float)


def _check_finite(values: np.ndarray, name: str, t: float) -> None:
    if not np.all(np.isfinite(values)):
        raise DiscretisationError(f"{name} values are not finite at t = {t:.6g}")


def run_transient(gd: GradientDiscretisation, spec: ProblemSpec, grid: TimeGrid,
                  on_step: Optional[Callable] = None) -> TransientSolution:
    """March the obstacle problem over the time grid.

    ``on_step(step, t, u, partition, stats)`` is called after every accepted
    step (used by the command line driver to export snapshots).  A
    SolverError leaves with its step number, t and dt in front of its message.
    """
    forms = assemble_forms(gd)
    # Case data is checked where it is evaluated; non-finite values raise
    # DiscretisationError instead of printing numpy warnings.
    with np.errstate(all="ignore"):
        psi = interpolate_obstacle(gd, spec.obstacle)
        u = interpolate_initial(gd, spec.initial, psi)
    _check_finite(u.cells, "initial", 0.0)

    areas = gd.mesh.cell_areas
    cell_pts = gd.mesh.cell_points
    bedges = gd.mesh.boundary_edges
    bcenters = gd.mesh.edge_centers[bedges]

    vectors = [u]
    all_stats: list[SolveStats] = []
    partitions: list[ActiveSetPartition] = []
    warm = None
    alpha = 1.0 / grid.step

    for n in range(grid.n_steps):
        t_a = float(grid.nodes[n])
        t_b = float(grid.nodes[n + 1])
        with np.errstate(all="ignore"):
            f_cells = time_average_source(spec.source, t_a, t_b, cell_pts)
            bvals = None
            if spec.dirichlet is not None:
                bvals = np.asarray(spec.dirichlet(bcenters, t_b), dtype=float)
        _check_finite(f_cells, "source", 0.5 * (t_a + t_b))
        if bvals is not None:
            _check_finite(bvals, "dirichlet", t_b)
        rhs = areas * f_cells + alpha * areas * u.cells
        problem = LviProblem(forms=forms, rhs=rhs, alpha=alpha, psi=psi,
                             boundary_values=bvals)
        try:
            u, partition, stats = solve_lvi(problem, warm=warm)
        except SolverError as exc:  # same error, its message names the step
            exc.args = (f"step {n + 1} of {grid.n_steps} "
                        f"(t = {t_b!r}, dt = {grid.step!r}): {exc}",)
            raise
        vectors.append(u)
        all_stats.append(stats)
        partitions.append(partition)
        warm = partition
        if on_step is not None:
            on_step(n + 1, t_b, u, partition, stats)

    return TransientSolution(grid=grid, psi=psi, vectors=vectors,
                             stats=all_stats, partitions=partitions)
