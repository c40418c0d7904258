"""The benchmark's workloads: each is one job a user runs with hmmvi.

A workload function takes its size, a directory for the files it writes and
a seeded ``random.Random``, runs the job through hmmvi's public functions and
returns one sample: phase times with the start and end of each phase,
per-step wall times, the outputs the correctness gate compares with
``reference.json``, and work counts.  hmmvi is
reached through module attributes looked up at call time, so the spans of
``tracing.Tracer`` see every call.

Why these three, and which layer each one loads, is in README.md.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import hmmvi.cases as cases
import hmmvi.diagnostics as diagnostics
import hmmvi.discretisation as discretisation
import hmmvi.export as export
import hmmvi.mesh as meshes
import hmmvi.timeloop as timeloop

# Relative tolerance of the gate on floating-point outputs.
REL_TOL = 1e-9


class PhaseClock:
    """Start and end of every phase of one sample, on perf_counter's clock.

    run.py scales each phase by the machine's speed during that phase.
    """

    def __init__(self):
        self.spans: dict = {}

    @contextmanager
    def __call__(self, phase: str):
        start = perf_counter()
        yield
        self.spans.setdefault(phase, []).append((start, perf_counter()))

    def times(self) -> dict:
        return {phase: sum(end - start for start, end in spans)
                for phase, spans in self.spans.items()}


def _setup(clock, family: str, level: int, diffusion=None):
    """generate_mesh + build_gd, the set-up a user pays for every mesh."""
    with clock("setup_s"):
        mesh = meshes.generate_mesh(family, level)
        gd = discretisation.build_gd(mesh, diffusion)
    return mesh, gd


def _march(clock, gd, case, grid, on_step=None):
    """run_transient with one time stamp per accepted step."""
    stamps = []

    def stamp(*args):
        stamps.append(perf_counter())
        if on_step is not None:
            on_step(*args)

    with clock("march_s"):
        solution = timeloop.run_transient(gd, case.spec, grid, on_step=stamp)
    intervals = [b - a for a, b in zip(stamps, stamps[1:])]
    return solution, intervals


def _solver_counts(solution) -> dict:
    return {
        "timeloop.steps": solution.grid.n_steps,
        "solver.iterations": sum(s.iterations for s in solution.stats),
        "solver.set_changes": sum(sum(s.set_changes) for s in solution.stats),
    }


def _march_outputs(solution) -> dict:
    return {
        "iterations": solution.iterations,
        "contact_cells": [p.n_contact for p in solution.partitions],
    }


def t1_tri_march(level: int, out_dir, rng) -> dict:
    """test1 (derived source) with dt = h^2, then fan3 error norms."""
    clock = PhaseClock()
    with clock("total_s"):
        case = cases.builtin_case("test1", "derived_f")
        mesh, gd = _setup(clock, "triangular", level, case.spec.diffusion)
        grid = timeloop.TimeGrid.uniform_from_dt(case.spec.final_time,
                                                 meshes.mesh_size(mesh) ** 2)
        solution, intervals = _march(clock, gd, case, grid)
        with clock("post_s"):
            report = diagnostics.error_norms(gd, solution, case.u_exact,
                                             case.grad_exact, rule="fan3")
    return {
        "times": clock.times(),
        "phase_spans": clock.spans,
        "step_s": intervals,
        "outputs": {**_march_outputs(solution),
                    "rel_l2_final": report.rel_l2_final,
                    "rel_grad_final": report.rel_grad_final},
        "counts": {**_solver_counts(solution), "mesh.cells": mesh.n_cells,
                   "mesh.edges": mesh.n_edges, "export.bytes_written": 0},
    }


def t2_cart_snapshots(level: int, out_dir, rng) -> dict:
    """test2 with dt = 0.01 and a VTK snapshot every step, as `hmmvi solve`."""
    clock = PhaseClock()
    paths = []
    with clock("total_s"):
        case = cases.builtin_case("test2")
        mesh, gd = _setup(clock, "cartesian", level, case.spec.diffusion)
        grid = timeloop.TimeGrid.uniform_from_dt(case.spec.final_time, 0.01)
        psi = case.spec.obstacle(mesh.cell_points)

        def snapshot(step, t, u, partition, stats):
            path = out_dir / f"snapshot_{step:04d}.vtk"
            export.write_vtk(path, mesh, {
                "u": u.cells,
                "gap": u.cells - psi,
                "contact": partition.contact.astype(float),
            }, title=f"{case.name} t={t:.6g}")
            paths.append(path)

        solution, intervals = _march(clock, gd, case, grid, snapshot)
    return {
        "times": clock.times(),
        "phase_spans": clock.spans,
        "step_s": intervals,
        "outputs": {**_march_outputs(solution), "snapshots": len(paths)},
        "counts": {**_solver_counts(solution), "mesh.cells": mesh.n_cells,
                   "mesh.edges": mesh.n_edges,
                   "export.bytes_written": sum(p.stat().st_size for p in paths)},
    }


def hex_diagnose(levels, out_dir, rng) -> dict:
    """gd_quality_report per hexagonal level, as `hmmvi diagnose`.

    The seed fixes the order in which the levels run.
    """
    order = list(levels)
    rng.shuffle(order)
    clock = PhaseClock()
    cells = edges = 0
    outputs = {}
    with clock("total_s"):
        for level in order:
            mesh, gd = _setup(clock, "hexagonal", level)
            with clock("post_s"):
                report = diagnostics.gd_quality_report(gd)
            cells += mesh.n_cells
            edges += mesh.n_edges
            outputs[str(level)] = {
                "n_cells": report.n_cells,
                "n_edges": report.n_edges,
                "c_d": report.c_d,
                "w_d": report.w_d["sinusoidal_field"],
                "s_d": report.s_d["polynomial_bump"],
                "i_d0": report.i_d0["polynomial_bump"],
            }
    return {
        "times": clock.times(),
        "phase_spans": clock.spans,
        "step_s": [],
        "outputs": outputs,
        "counts": {"timeloop.steps": 0, "solver.iterations": 0, "solver.set_changes": 0,
                   "mesh.cells": cells, "mesh.edges": edges, "export.bytes_written": 0},
    }


@dataclass(frozen=True)
class Workload:
    run: Callable
    size: object
    warm_size: object


WORKLOADS = {
    "t1-tri48-march": Workload(t1_tri_march, 48, 4),
    "t2-cart7-snapshots": Workload(t2_cart_snapshots, 7, 2),
    "hex-diagnose": Workload(hex_diagnose, (5, 6), (1, 2)),
}


def mismatches(got, want, where: str = "") -> list:
    """Differences between a sample's outputs and the frozen reference.

    Integers and lists compare exactly, floats within REL_TOL relative.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where or 'outputs'}: {got!r} does not have the keys {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, float):
        if not abs(got - want) <= REL_TOL * abs(want):
            return [f"{where}: {got!r} != {want!r}"]
        return []
    if got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []
