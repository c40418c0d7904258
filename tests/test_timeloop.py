"""Time grids and the implicit Euler outer loop."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

import hmmvi.diagnostics
import hmmvi.timeloop
from hmmvi import (AssembledForms, LviProblem, ProblemSpec, TimeGrid, TimeGridError,
                   assemble_forms, build_gd, builtin_case, generate_mesh,
                   gd_quality_report, run_transient, solve_lvi, time_average_source)
from hmmvi.solver import IterationLimitError, SchurPlan, _plans

from lviref import reference_march


def test_uniform_grid():
    g = TimeGrid(1.0, 4)
    assert g.n_steps == 4
    assert g.nodes[-1] == 1.0
    assert g.step == 0.25
    # the nodes are linspace's, bit for bit, and the step is T / N
    g = TimeGrid(0.1, 7)
    assert g.step == 0.1 / 7
    assert np.array_equal(g.nodes, np.linspace(0.0, 0.1, 8))
    # a numpy integer is a step count too
    assert TimeGrid(0.1, np.int64(7)) == g


def test_step_budget_is_checked_before_the_grid_is_built():
    with pytest.raises(TimeGridError, match="1 to 1000000 steps"):
        TimeGrid(1.0, hmmvi.timeloop.MAX_STEPS + 1)
    # T / dt overflows to inf here
    with pytest.raises(TimeGridError, match="more than 1000000 steps"):
        TimeGrid.uniform_from_dt(1e300, 1e-300)
    assert TimeGrid.uniform_from_dt(1.0, 1e-6).n_steps == hmmvi.timeloop.MAX_STEPS


@pytest.mark.parametrize("dt", [0.0, -0.01, math.inf, math.nan])
def test_uniform_from_dt_refuses_a_step_that_is_not_positive_and_finite(dt):
    with pytest.raises(TimeGridError) as info:
        TimeGrid.uniform_from_dt(0.1, dt)
    assert str(info.value) == f"time step must be positive and finite, got {dt!r}"


def test_uniform_from_dt_rounds_up():
    g = TimeGrid.uniform_from_dt(0.1, 0.03)
    assert g.n_steps == 4
    assert g.nodes[-1] == pytest.approx(0.1)
    # a step larger than the horizon still gives one step
    assert TimeGrid.uniform_from_dt(0.1, 0.5).n_steps == 1
    # dt that divides T exactly must not gain a spurious extra step
    assert TimeGrid.uniform_from_dt(0.1, 0.025).n_steps == 4
    # ... nor when T / dt lands one ulp above an integer of many steps
    assert TimeGrid.uniform_from_dt(0.1, 4e-6).n_steps == 25_000
    assert TimeGrid.uniform_from_dt(0.1, 1e-6).n_steps == 100_000


@pytest.mark.parametrize("final_time, n_steps", [
    (0.0, 4), (-1.0, 4), (float("inf"), 4), (float("nan"), 4),
    (1.0, 0), (1.0, hmmvi.timeloop.MAX_STEPS + 1), (1.0, 2.5), (1.0, 3.0), (1.0, True)])
def test_bad_grids_are_rejected(final_time, n_steps):
    with pytest.raises(TimeGridError):
        TimeGrid(final_time, n_steps)


@pytest.mark.parametrize("final_time", [float("nan"), float("inf"), 0.0, -1.0])
def test_bad_horizon_is_not_reported_as_a_step_budget(final_time):
    with pytest.raises(TimeGridError, match="positive finite horizon"):
        TimeGrid.uniform_from_dt(final_time, 0.1)
    with pytest.raises(TimeGridError, match="positive finite horizon"):
        ProblemSpec(source=None, obstacle=None, initial=None, final_time=final_time)


def test_source_is_sampled_at_midpoint():
    seen = []

    def f(points, t):
        seen.append(t)
        return np.zeros(len(points))

    grid = TimeGrid(1.0, 2)
    m = generate_mesh("cartesian", 1)
    gd = build_gd(m)
    spec = ProblemSpec(source=f, obstacle=lambda p: np.full(len(p), -1e9),
                       initial=lambda p: np.zeros(len(p)), final_time=1.0)
    run_transient(gd, spec, grid)
    assert seen == pytest.approx([0.25, 0.75])


def test_time_average_source_helper():
    m = generate_mesh("cartesian", 1)
    vals = time_average_source(lambda p, t: np.full(len(p), t),
                               0.0, 0.5, m.cell_points)
    assert vals == pytest.approx([0.25] * 4)


def test_every_step_is_feasible():
    case = builtin_case("test2")
    m = generate_mesh("cartesian", 4)
    gd = build_gd(m)
    psi = case.spec.obstacle(m.cell_points)
    grid = TimeGrid.uniform_from_dt(case.spec.final_time, 0.02)
    sol = run_transient(gd, case.spec, grid)
    assert len(sol.vectors) == grid.n_steps + 1
    for u in sol.vectors:
        assert np.all(u.cells >= psi - 1e-10)


def test_warm_start_reduces_iterations_after_the_first_step(monkeypatch):
    case = builtin_case("test2")
    m = generate_mesh("cartesian", 5)
    gd = build_gd(m)
    grid = TimeGrid.uniform_from_dt(case.spec.final_time, 0.01)
    # Each step's problem is also solved cold, from the all-balance partition.
    cold = []

    def solve_both(problem, warm=None):
        cold.append(solve_lvi(problem)[2].iterations)
        return solve_lvi(problem, warm=warm)

    monkeypatch.setattr(hmmvi.timeloop, "solve_lvi", solve_both)
    warm = run_transient(gd, case.spec, grid)
    assert len(cold) == grid.n_steps
    assert warm.iterations[0] == cold[0]
    assert sum(warm.iterations[1:]) <= sum(cold[1:])
    # the interesting transient: the first step works, later steps coast
    assert warm.iterations[0] > warm.iterations[-1]


def test_solver_error_names_the_step_and_keeps_its_class(monkeypatch):
    case = builtin_case("test2")
    gd = build_gd(generate_mesh("cartesian", 2))
    grid = TimeGrid(case.spec.final_time, 4)
    raised = IterationLimitError("cycled", last_partitions=["p", "q"])
    calls = []

    def fail_third(problem, warm=None):
        calls.append(1)
        if len(calls) == 3:
            raise raised
        return solve_lvi(problem, warm=warm)

    monkeypatch.setattr(hmmvi.timeloop, "solve_lvi", fail_third)
    with pytest.raises(IterationLimitError) as info:
        run_transient(gd, case.spec, grid)
    assert info.value is raised
    assert info.value.last_partitions == ("p", "q")
    t = float(grid.nodes[3])
    assert grid.step == 0.025
    assert str(info.value) == f"step 3 of 4 (t = {t!r}, dt = {grid.step!r}): cycled"


def test_every_step_solves_with_the_runs_one_alpha(monkeypatch):
    alphas = []

    def spy(problem, warm=None):
        alphas.append(problem.alpha)
        return solve_lvi(problem, warm=warm)

    monkeypatch.setattr(hmmvi.timeloop, "solve_lvi", spy)
    case = builtin_case("test2")
    gd = build_gd(generate_mesh("cartesian", 3))
    grid = TimeGrid.uniform_from_dt(case.spec.final_time, 0.01)
    run_transient(gd, case.spec, grid)
    # the node differences of linspace take 5 distinct values here
    assert len(alphas) == grid.n_steps == 10
    assert all(alpha == 1.0 / grid.step for alpha in alphas)


def test_unconstrained_case_needs_one_iteration_per_step():
    case = builtin_case("smooth_baseline")
    m = generate_mesh("triangular", 6)
    gd = build_gd(m)
    sol = run_transient(gd, case.spec, TimeGrid(case.spec.final_time, 5))
    assert sol.iterations == [1] * 5
    assert all(p.n_contact == 0 for p in sol.partitions)


def test_dirichlet_values_enter_the_boundary_edges():
    case = builtin_case("test1")
    m = generate_mesh("cartesian", 3)
    gd = build_gd(m)
    grid = TimeGrid(case.spec.final_time, 3)
    sol = run_transient(gd, case.spec, grid)
    bdofs = gd.boundary_edge_dofs
    centers = m.edge_centers[m.boundary_edges]
    expected = case.u_exact(centers, grid.nodes[-1])
    assert sol.final.values[bdofs] == pytest.approx(expected)
    assert np.abs(expected).max() > 0.1, "case should have nonzero boundary data"


def test_on_step_callback_sees_every_step():
    case = builtin_case("smooth_baseline")
    m = generate_mesh("cartesian", 2)
    gd = build_gd(m)
    grid = TimeGrid(case.spec.final_time, 4)
    log = []
    run_transient(gd, case.spec, grid,
                  on_step=lambda step, t, u, part, stats: log.append((step, t)))
    assert [s for s, _ in log] == [1, 2, 3, 4]
    assert log[-1][1] == pytest.approx(case.spec.final_time)


def test_solution_exposes_final_state():
    case = builtin_case("smooth_baseline")
    m = generate_mesh("cartesian", 2)
    gd = build_gd(m)
    sol = run_transient(gd, case.spec, TimeGrid(case.spec.final_time, 2))
    assert sol.final is sol.vectors[-1]
    assert sol.grid.n_steps == 2
    assert len(sol.stats) == 2


def test_spec_validates_final_time():
    for final_time in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(TimeGridError, match="positive finite horizon"):
            ProblemSpec(source=lambda p, t: np.zeros(len(p)),
                        obstacle=lambda p: np.zeros(len(p)),
                        initial=lambda p: np.zeros(len(p)),
                        final_time=final_time)


def test_run_transient_leaves_the_plain_form_unassembled(monkeypatch):
    built = []
    assemble = hmmvi.timeloop.assemble_forms

    def keep(gd):
        built.append(assemble(gd))
        return built[-1]

    monkeypatch.setattr(hmmvi.timeloop, "assemble_forms", keep)
    case = builtin_case("test2")
    gd = build_gd(generate_mesh("cartesian", 2))
    run_transient(gd, case.spec, TimeGrid.uniform_from_dt(case.spec.final_time, 0.05))
    assert len(built) == 1
    assert built[0] not in hmmvi.diagnostics._plain_factors


def test_forms_hold_only_the_forms():
    fields = [f.name for f in dataclasses.fields(AssembledForms)]
    assert fields == ["gd", "stiffness", "mass_diag"]


def test_derived_state_goes_with_its_forms(monkeypatch):
    # A run and a quality report on one forms object: the solver's plan and
    # the diagnostics' plain factor are both dropped with the forms.
    gc.collect()
    plans, factors = len(_plans), len(hmmvi.diagnostics._plain_factors)
    gd = build_gd(generate_mesh("cartesian", 3))
    shared = [assemble_forms(gd)]
    for module in (hmmvi.timeloop, hmmvi.diagnostics):
        monkeypatch.setattr(module, "assemble_forms", lambda gd: shared[0])
    case = builtin_case("test2")
    run_transient(gd, case.spec, TimeGrid(case.spec.final_time, 3))
    gd_quality_report(gd)
    alive = weakref.ref(shared[0])
    assert alive() in _plans and alive() in hmmvi.diagnostics._plain_factors
    shared.clear()
    gc.collect()
    assert alive() is None
    assert (len(_plans), len(hmmvi.diagnostics._plain_factors)) == (plans, factors)


def test_run_builds_the_operator_split_once(monkeypatch):
    # Problems with different alpha share one forms object, as the steps of a
    # run do: the solver's alpha-free plan is built on the first solve only.
    build = SchurPlan.build.__func__
    builds = []

    def counting(cls, *args):
        builds.append(build(cls, *args))
        return builds[-1]

    monkeypatch.setattr(SchurPlan, "build", classmethod(counting))
    case = builtin_case("test2")
    gd = build_gd(generate_mesh("cartesian", 3))
    forms = assemble_forms(gd)
    psi = case.spec.obstacle(gd.mesh.cell_points)
    u0 = np.maximum(case.spec.initial(gd.mesh.cell_points), psi)
    iterations = []
    for alpha in (10.0, 25.0):
        problem = LviProblem(forms=forms, rhs=alpha * gd.mesh.cell_areas * u0,
                             alpha=alpha, psi=psi)
        iterations.append(solve_lvi(problem)[2].iterations)
    assert sum(iterations) > 2
    assert len(builds) == 1 and _plans[forms] is builds[0]


def _rotated_anisotropy(angle, ratio):
    """R(angle) diag(1, ratio) R(angle)^T."""
    c, s = math.cos(angle), math.sin(angle)
    rotation = np.array([[c, -s], [s, c]])
    return rotation @ np.diag([1.0, ratio]) @ rotation.T


def _march_cases(runs, diffusion=None, suffix=""):
    return [pytest.param(*run, diffusion, id="-".join(map(str, run)) + suffix)
            for run in runs]


# Every time-node vector and every final partition of the march against a
# march that builds each step on its own and solves it by projected
# Gauss-Seidel.  A factorisation held across alpha, partitions or forms
# objects would show here.  test1 has Dirichlet data and a moving contact
# set; triangular 7 runs at two step lengths.  The anisotropic runs take
# Lambda = R(pi/6) diag(1, 1e-2) R(pi/6)^T in place of the case's diffusion.
@pytest.mark.parametrize("family, level, case_name, n_steps, diffusion", [
    *_march_cases([
        ("triangular", 7, "test1", 4), ("triangular", 7, "test1", 9),
        ("cartesian", 3, "test1", 4), ("hexagonal", 3, "test1", 4),
        ("kershaw", 1, "test1", 4), ("triangular", 7, "test2", 10),
        ("cartesian", 3, "test2", 10), ("hexagonal", 2, "test2", 10),
        ("kershaw", 1, "test2", 10)]),
    *_march_cases([
        ("kershaw", 1, "test1", 4), ("kershaw", 1, "test2", 10),
        ("hexagonal", 2, "test2", 10), ("hexagonal", 3, "test1", 4)],
        _rotated_anisotropy(math.pi / 6, 1e-2), "-anisotropic")])
def test_march_matches_the_reference_march(family, level, case_name, n_steps, diffusion):
    spec = builtin_case(case_name).spec
    if diffusion is not None:
        spec = dataclasses.replace(spec, diffusion=diffusion)
    gd = build_gd(generate_mesh(family, level), spec.diffusion)
    grid = TimeGrid(spec.final_time, n_steps)
    sol = run_transient(gd, spec, grid)
    psi, vectors, multipliers = reference_march(gd, spec, grid)
    assert len(sol.vectors) == len(vectors) == n_steps + 1
    for got, want in zip(sol.vectors, vectors):
        assert np.abs(got.values - want).max() <= 1e-9 * max(1.0, np.abs(want).max())
    # The reference's contact cells sit on the obstacle; a cell both on the
    # obstacle and with a vanishing multiplier could go either way.
    tol = 1e-8
    for part, want, mult in zip(sol.partitions, vectors[1:], multipliers):
        gap = want[:gd.n_cells] - psi
        clear = (np.abs(gap) > tol) | (np.abs(mult) > tol)
        assert np.array_equal(part.contact[clear], (gap <= tol)[clear])
