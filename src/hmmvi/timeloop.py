"""Implicit Euler time stepping for the parabolic obstacle problem.

Each step solves one elliptic variational inequality with reciprocal time
step alpha = 1/dt: the bilinear part is alpha (Pi u, Pi v) + (Lambda grad u,
grad v) and the right-hand side combines the time-averaged source with the
previous cell values.  The active-set partition of a converged step is the
warm start of the next one; the first step starts with every cell in the
balance set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Strictly increasing time nodes starting at zero."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise TimeGridError("a time grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise TimeGridError(f"time grid must start at 0, got {nodes[0]!r}")
        if not np.all(np.diff(nodes) > 0.0):
            raise TimeGridError("time nodes must be strictly increasing")

    @classmethod
    def uniform(cls, final_time: float, n_steps: int) -> "TimeGrid":
        if not 1 <= n_steps <= MAX_STEPS or final_time <= 0.0:
            raise TimeGridError(
                f"need a positive horizon and 1 to {MAX_STEPS} steps, "
                f"got T={final_time!r}, n={n_steps!r}")
        return cls(np.linspace(0.0, final_time, n_steps + 1))

    @classmethod
    def uniform_from_dt(cls, final_time: float, dt: float) -> "TimeGrid":
        """Uniform grid with the largest step not exceeding dt."""
        if not 0.0 < dt < math.inf:
            raise TimeGridError(f"time step must be positive and finite, got {dt!r}")
        steps = final_time / dt - 1e-12
        if not steps <= MAX_STEPS:
            raise TimeGridError(f"T={final_time!r} in steps of dt={dt!r} takes more "
                                f"than {MAX_STEPS} steps")
        return cls.uniform(final_time, max(1, math.ceil(steps)))

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def n_steps(self) -> int:
        return self.nodes.size - 1


@dataclass
class ProblemSpec:
    """Continuous data of one parabolic obstacle problem.

    All callables are vectorised: ``source(points, t)``, ``obstacle(points)``,
    ``initial(points)`` and ``dirichlet(points, t)`` take an (n, 2) array and
    return an (n,) array.  ``diffusion`` follows the conventions of
    ``build_gd``; ``dirichlet=None`` means homogeneous boundary data.
    """

    source: Callable
    obstacle: Callable
    initial: Callable
    final_time: float
    diffusion: object = None
    dirichlet: Optional[Callable] = None

    def __post_init__(self):
        if self.final_time <= 0.0:
            raise ValueError(f"final time must be positive, got {self.final_time!r}")


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

    for n in range(grid.n_steps):
        t_a = float(grid.nodes[n])
        t_b = float(grid.nodes[n + 1])
        dt = t_b - t_a
        alpha = 1.0 / dt
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
            exc.args = (f"step {n + 1} of {grid.n_steps} (t = {t_b!r}, dt = {dt!r}): {exc}",)
            raise
        vectors.append(u)
        all_stats.append(stats)
        partitions.append(partition)
        warm = partition
        if on_step is not None:
            on_step(n + 1, t_b, u, partition, stats)

    return TransientSolution(grid=grid, psi=psi, vectors=vectors,
                             stats=all_stats, partitions=partitions)
