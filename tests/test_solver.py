"""Active-set solver for the per-step obstacle problem."""

import itertools
import time
from dataclasses import asdict

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmvi.timeloop
from hmmvi import (MESH_FAMILIES, ActiveSetPartition, IterationLimitError,
                   LviProblem, ProblemSpec, SingularSystemError, SolveStats,
                   SolverError, TimeGrid, assemble_forms, build_gd, builtin_case,
                   complementarity_residual, contact_tolerance, generate_mesh,
                   run_transient, solve_lvi, update_partition)
from hmmvi import solver
from hmmvi.solver import SchurPlan, _linear_solve, _schur_plan

from cellref import local_stiffness, vector
from lviref import (balance_residual, enumerate_lvi, full_linear_solve,
                    projected_gauss_seidel)


def _problem(gd, rhs, psi, alpha=1.0, bvals=None):
    # psi goes in as given: LviProblem makes a float array of a list too.
    return LviProblem(forms=assemble_forms(gd), rhs=np.asarray(rhs, dtype=float),
                      alpha=alpha, psi=psi, boundary_values=bvals)


def test_inactive_obstacle_is_one_unconstrained_solve(unit_square_gd):
    gd = unit_square_gd
    prob = _problem(gd, rhs=[1.0], psi=[-1e9])
    u, part, stats = solve_lvi(prob)
    assert stats.iterations == 1
    assert part.n_contact == 0
    # sanity: the single free equation is (alpha*|K| + A_KK) u_K = f_K
    A = local_stiffness(gd, 0)
    assert u.cells[0] == pytest.approx(1.0 / (1.0 + A[0, 0]))


def test_single_cell_pulled_onto_obstacle(unit_square_gd):
    gd = unit_square_gd
    prob = _problem(gd, rhs=[-4.0], psi=[0.0])
    u, part, stats = solve_lvi(prob)
    assert part.contact.tolist() == [True]
    assert u.values == pytest.approx(np.zeros(5))
    assert complementarity_residual(prob, u, balance_residual(gd, prob, u.values)) < 1e-14


def test_solution_is_feasible_and_complementary():
    m = generate_mesh("cartesian", 3)
    gd = build_gd(m)
    rng = np.random.default_rng(11)
    prob = _problem(gd, rhs=rng.standard_normal(m.n_cells),
                    psi=rng.standard_normal(m.n_cells) * 0.2, alpha=2.0)
    u, part, stats = solve_lvi(prob)
    # The gap is held to psi's scale, the multiplier to the right-hand side's.
    tau = contact_tolerance(prob)
    assert tau == 1e-10 * max(1.0, np.max(np.abs(prob.rhs)))
    r = balance_residual(gd, prob, u.values)
    assert np.all(u.cells - prob.psi >= -1e-10 * max(1.0, np.max(np.abs(prob.psi))))
    assert np.all(r[:m.n_cells][part.contact] >= -tau)
    assert complementarity_residual(prob, u, r) <= 1e-10
    assert stats.complementarity_max <= 1e-10
    assert stats.conservation_defect < 1e-10


@pytest.mark.parametrize("family, level, n_steps", [("kershaw", 2, 256),
                                                    ("hexagonal", 3, 1024)])
def test_small_steps_of_test1_do_not_cycle(family, level, n_steps):
    # The gap's tolerance does not grow like 1/dt: a released cell a few
    # 1e-9 above psi stays released, where it used to re-enter contact and
    # revisit a partition (kershaw at step 51, hexagonal at step 825).
    case = builtin_case("test1")
    gd = build_gd(generate_mesh(family, level), case.spec.diffusion)
    sol = run_transient(gd, case.spec, TimeGrid(case.spec.final_time, n_steps))
    assert len(sol.stats) == n_steps and any(p.n_contact for p in sol.partitions)
    assert max(s.complementarity_max for s in sol.stats) <= 1e-8


@pytest.mark.parametrize("obstacle", [0.0, -10.0])
def test_tiny_step_puts_no_cell_above_the_obstacle_in_contact(obstacle):
    # alpha = 1e300 scales the right-hand side, not the gap's tolerance.
    spec = ProblemSpec(source=lambda p, t: 1.0 + p[:, 0] ** 2,
                       obstacle=lambda p: np.full(len(p), obstacle),
                       initial=lambda p: 1.0 - p[:, 0] ** 2, final_time=1e-300)
    gd = build_gd(generate_mesh("cartesian", 2))
    sol = run_transient(gd, spec, TimeGrid(spec.final_time, 1))
    assert [p.n_contact for p in sol.partitions] == [0]
    assert sol.iterations == [1]


def test_cycle_error_names_both_partitions(monkeypatch):
    # A forced 2-cycle between the contact sets {0, 1, 2, 3} and {3, 4, 5}.
    gd = build_gd(generate_mesh("cartesian", 2))
    nc = gd.n_cells
    first, second = np.zeros(nc, dtype=bool), np.zeros(nc, dtype=bool)
    first[:4] = second[3:6] = True

    def flip(problem, u, r, current):
        return ActiveSetPartition(second if current.contact[0] else first)

    monkeypatch.setattr(solver, "update_partition", flip)
    prob = _problem(gd, rhs=np.ones(nc), psi=np.full(nc, -1.0))
    with pytest.raises(IterationLimitError) as info:
        solve_lvi(prob, warm=ActiveSetPartition(first))
    assert str(info.value) == (
        "active-set iteration revisited a partition after 2 solves: the partitions "
        "with 3 and 4 contact cells differ in 5 cells")
    assert [p.n_contact for p in info.value.last_partitions] == [3, 4]


def test_safeguard_error_names_the_solve_count(monkeypatch):
    # Every update returns a partition not seen before: contact set i is
    # the cells of the set bits of i.
    gd = build_gd(generate_mesh("cartesian", 2))
    nc = gd.n_cells

    def contact(i):
        return (i >> np.arange(nc)) % 2 == 1

    made = itertools.count(1)
    monkeypatch.setattr(solver, "update_partition",
                        lambda problem, u, r, current: ActiveSetPartition(contact(next(made))))
    prob = _problem(gd, rhs=np.ones(nc), psi=np.full(nc, -1.0))
    with pytest.raises(IterationLimitError) as info:
        solve_lvi(prob)
    assert str(info.value) == f"active-set iteration exceeded the safeguard of {nc + 1} solves"
    # the solve count nc + 1 made the last partition
    previous, last = info.value.last_partitions
    assert np.array_equal(previous.contact, contact(nc))
    assert np.array_equal(last.contact, contact(nc + 1))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_reference_solvers(seed):
    m = generate_mesh("triangular", 2)
    gd = build_gd(m)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(m.n_cells) * 2.0
    psi = rng.standard_normal(m.n_cells) * 0.5
    bvals = rng.standard_normal(len(gd.boundary_edge_dofs)) * 0.3
    prob = _problem(gd, rhs, psi, alpha=float(rng.uniform(0.5, 4.0)), bvals=bvals)
    u, part, stats = solve_lvi(prob)
    ue = enumerate_lvi(gd, prob)
    assert ue is not None
    assert np.abs(u.values - ue).max() < 1e-9
    up = projected_gauss_seidel(gd, prob)
    assert np.abs(u.values - up).max() < 1e-9


def test_warm_start_from_converged_partition_takes_one_iteration():
    m = generate_mesh("cartesian", 2)
    gd = build_gd(m)
    rng = np.random.default_rng(4)
    prob = _problem(gd, rhs=rng.standard_normal(m.n_cells) * 3.0,
                    psi=np.zeros(m.n_cells))
    u, part, stats = solve_lvi(prob)
    u2, part2, stats2 = solve_lvi(prob, warm=part)
    assert stats2.iterations == 1
    assert np.array_equal(part2.contact, part.contact)
    assert np.array_equal(u2.values, u.values)


def test_update_rule_moves_infeasible_cells_to_contact(unit_square_gd):
    gd = unit_square_gd
    prob = _problem(gd, rhs=[-4.0], psi=[0.0])
    part = ActiveSetPartition(np.zeros(1, dtype=bool))
    # state a vector that dips below the obstacle
    bad = vector(gd, cells=[-1.0])
    new = update_partition(prob, bad, balance_residual(gd, prob, bad.values), part)
    assert new.contact.tolist() == [True]


def test_update_rule_releases_negative_multipliers(unit_square_gd):
    gd = unit_square_gd
    # positive load wants the solution above the obstacle
    prob = _problem(gd, rhs=[4.0], psi=[0.0])
    part = ActiveSetPartition(np.array([True]))
    pinned = vector(gd, cells=[0.0])
    new = update_partition(prob, pinned, balance_residual(gd, prob, pinned.values), part)
    assert new.contact.tolist() == [False]


def test_update_is_a_fixed_point_at_the_solution():
    m = generate_mesh("triangular", 2)
    gd = build_gd(m)
    rng = np.random.default_rng(9)
    prob = _problem(gd, rhs=rng.standard_normal(m.n_cells) * 2.0,
                    psi=rng.standard_normal(m.n_cells) * 0.5)
    u, part, _ = solve_lvi(prob)
    again = update_partition(prob, u, balance_residual(gd, prob, u.values), part)
    assert np.array_equal(again.contact, part.contact)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**8 - 1),
       st.integers(min_value=0, max_value=2**8 - 1))
def test_update_depends_only_on_inputs(bits_contact, bits_vector):
    # pure function: same partition and vector always give the same update,
    # and the update never reads hidden state between calls
    m = generate_mesh("triangular", 2)
    gd = build_gd(m)
    rhs = np.linspace(-2.0, 2.0, m.n_cells)
    prob = _problem(gd, rhs, psi=np.zeros(m.n_cells))
    contact = np.array([(bits_contact >> i) & 1 == 1 for i in range(m.n_cells)])
    cells = np.array([1.0 if (bits_vector >> i) & 1 else -1.0
                      for i in range(m.n_cells)])
    part = ActiveSetPartition(contact)
    v = vector(gd, cells=cells)
    r = balance_residual(gd, prob, v.values)
    first = update_partition(prob, v, r, part)
    second = update_partition(prob, v, r, part)
    assert np.array_equal(first.contact, second.contact)
    assert np.array_equal(part.contact, contact), "input partition mutated"


def test_partition_is_a_read_only_contact_mask_with_its_count():
    mask = np.array([True, False, True])
    part = ActiveSetPartition(mask)
    assert [name for name in dir(part) if not name.startswith("_")] == ["contact", "n_contact"]
    assert part.n_contact == 2
    # a copy of the given mask: changing the mask leaves the partition as it was
    mask[1] = True
    assert part.contact.tolist() == [True, False, True]
    with pytest.raises(ValueError):
        part.contact[0] = False


class CountingMatrix:
    """A matrix that counts its products."""

    def __init__(self, A):
        self.A, self.products = A, 0

    def __matmul__(self, v):
        self.products += 1
        return self.A @ v


def test_one_balance_residual_per_iteration(monkeypatch):
    # Each iteration multiplies by the stiffness twice: for the pinned
    # right-hand side and for the balance residual r, which the set update and
    # the complementarity measure read.  The flux defect adds one per solve.
    counters = []

    def counting_forms(gd):
        forms = assemble_forms(gd)
        _schur_plan(forms)  # the plan slices the stiffness before counting
        forms.stiffness = CountingMatrix(forms.stiffness)
        counters.append(forms.stiffness)
        return forms

    monkeypatch.setattr(hmmvi.timeloop, "assemble_forms", counting_forms)
    case = builtin_case("test1")
    grid = TimeGrid(case.spec.final_time, 6)
    sol = run_transient(build_gd(generate_mesh("triangular", 6)), case.spec, grid)
    assert sum(sol.iterations) > grid.n_steps
    assert [c.products for c in counters] == [2 * sum(sol.iterations) + grid.n_steps]


def test_stats_record_the_iteration_history():
    m = generate_mesh("cartesian", 2)
    gd = build_gd(m)
    prob = _problem(gd, rhs=np.full(m.n_cells, -4.0), psi=np.zeros(m.n_cells))
    u, part, stats = solve_lvi(prob)
    assert stats.iterations == len(stats.set_changes) == len(stats.contact_sizes)
    assert stats.set_changes[-1] == 0
    assert stats.contact_sizes[-1] == part.n_contact
    assert len(stats.linear_residuals) == stats.iterations
    d = asdict(stats)
    assert d["iterations"] == stats.iterations
    assert set(d["timings"]) == {"schur_s", "factor_s", "linear_s", "update_s"}
    assert all(v >= 0.0 for v in d["timings"].values())
    assert 0.0 < d["timings"]["factor_s"] <= d["timings"]["linear_s"]
    assert 0.0 < d["timings"]["schur_s"] <= d["timings"]["linear_s"]


def test_unreachable_linear_tolerance_is_reported(monkeypatch):
    # a tolerance below machine precision cannot be certified, and the solver
    # must refuse rather than return a silently unverified solution
    m = generate_mesh("cartesian", 2)
    gd = build_gd(m)
    rng = np.random.default_rng(8)
    prob = LviProblem(forms=assemble_forms(gd),
                      rhs=rng.standard_normal(m.n_cells),
                      alpha=1.0, psi=np.full(m.n_cells, -1e9))
    monkeypatch.setattr(solver, "LINEAR_TOL", 1e-30)
    with pytest.raises(SingularSystemError):
        solve_lvi(prob)


def _singular_factorisation(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


# Both failures of the linear solve leave the march naming the step and the
# partition; test2 on Cartesian level 2 starts with 16 balance cells.
@pytest.mark.parametrize("limit, target, name, replacement", [
    (solver.DIRECT_LIMIT, solver, "factorise_spd", _singular_factorisation),
    (0, spla, "cg", lambda A, b, **kwargs: (np.zeros_like(b), 7)),
], ids=["singular-factorisation", "cg-not-converged"])
def test_linear_solve_failure_names_the_step_and_the_partition(
        monkeypatch, limit, target, name, replacement):
    case = builtin_case("test2")
    gd = build_gd(generate_mesh("cartesian", 2))
    monkeypatch.setattr(solver, "DIRECT_LIMIT", limit)
    monkeypatch.setattr(target, name, replacement)
    with pytest.raises(SingularSystemError) as caught:
        run_transient(gd, case.spec, TimeGrid(case.spec.final_time, 2))
    assert str(caught.value).startswith("step 1 of 2 (t = 0.05, dt = 0.05): ")
    assert "for the partition with 0 contact cells" in str(caught.value)
    assert isinstance(caught.value.partition, ActiveSetPartition)
    assert caught.value.partition.contact.shape == (gd.n_cells,)


@pytest.mark.parametrize("rhs", [np.zeros(3), np.zeros((4, 1)),
                                 np.array([0.0, np.nan, 0.0, 0.0]),
                                 np.array([0.0, 0.0, -np.inf, 0.0])])
def test_rhs_must_be_one_finite_value_per_cell(rhs):
    gd = build_gd(generate_mesh("cartesian", 1))
    assert gd.n_cells == 4
    prob = _problem(gd, rhs=np.zeros(4), psi=np.zeros(4))
    prob.rhs = rhs
    with pytest.raises(SolverError, match="rhs"):
        solve_lvi(prob)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
def test_alpha_must_be_finite_and_non_negative(alpha):
    gd = build_gd(generate_mesh("cartesian", 1))
    with pytest.raises(SolverError, match="alpha"):
        solve_lvi(_problem(gd, rhs=np.ones(4), psi=np.full(4, -1.0), alpha=alpha))


# Boundary values are checked once per solve, before the first factorisation.
def test_boundary_values_must_be_finite(monkeypatch):
    calls = _recording_splu(monkeypatch)
    gd = build_gd(generate_mesh("cartesian", 1))
    bvals = np.zeros(gd.boundary_edge_dofs.size)
    bvals[0] = np.nan
    with pytest.raises(SolverError, match="^boundary values have non-finite entries$"):
        solve_lvi(_problem(gd, rhs=np.ones(4), psi=np.full(4, -1.0), bvals=bvals))
    assert calls == []


def test_boundary_values_must_match_the_boundary_edges(monkeypatch):
    calls = _recording_splu(monkeypatch)
    gd = build_gd(generate_mesh("cartesian", 1))
    nb = gd.boundary_edge_dofs.size
    with pytest.raises(SolverError, match=f"^{nb + 1} boundary values for {nb} boundary edges$"):
        solve_lvi(_problem(gd, rhs=np.ones(4), psi=np.full(4, -1.0), bvals=np.zeros(nb + 1)))
    assert calls == []


# Cartesian level 2 has 16 cells; sizes are checked before any factorisation.
def test_obstacle_vector_must_have_one_value_per_cell(monkeypatch):
    calls = _recording_splu(monkeypatch)
    gd = build_gd(generate_mesh("cartesian", 2))
    with pytest.raises(SolverError,
                       match=r"^obstacle vector has \(17,\) values for 16 cells$"):
        solve_lvi(_problem(gd, rhs=np.ones(16), psi=np.full(17, -1.0)))
    assert calls == []


def test_warm_start_must_cover_the_mesh(monkeypatch):
    calls = _recording_splu(monkeypatch)
    gd = build_gd(generate_mesh("cartesian", 2))
    warm = ActiveSetPartition(np.zeros(15, dtype=bool))
    with pytest.raises(SolverError,
                       match="^warm-start partition covers 15 cells, mesh has 16$"):
        solve_lvi(_problem(gd, rhs=np.ones(16), psi=np.full(16, -1.0)), warm)
    assert calls == []


def test_update_refuses_a_partition_of_another_size():
    gd = build_gd(generate_mesh("cartesian", 2))
    prob = _problem(gd, rhs=np.ones(16), psi=np.full(16, -1.0))
    u = gd.zeros()
    with pytest.raises(SolverError, match="^partition covers 18 cells, mesh has 16$"):
        update_partition(prob, u, balance_residual(gd, prob, u.values),
                         ActiveSetPartition(np.zeros(18, dtype=bool)))


def test_steady_problem_alpha_zero_is_allowed():
    gd = build_gd(generate_mesh("cartesian", 2))
    nc = gd.n_cells
    u, _, stats = solve_lvi(_problem(gd, rhs=np.ones(nc), psi=np.full(nc, -1e9), alpha=0.0))
    assert stats.iterations == 1 and np.all(u.cells > 0.0)


# A non-finite obstacle is refused before the first factorisation.
def test_obstacle_must_be_finite(monkeypatch):
    calls = _recording_splu(monkeypatch)
    gd = build_gd(generate_mesh("cartesian", 1))
    psi = np.full(4, -1.0)
    psi[2] = np.nan
    with pytest.raises(SolverError, match="^obstacle has non-finite values$"):
        solve_lvi(_problem(gd, rhs=np.ones(4), psi=psi))
    assert calls == []


def test_iterative_path_matches_direct(monkeypatch):
    m = generate_mesh("cartesian", 3)
    gd = build_gd(m)
    rng = np.random.default_rng(21)
    rhs = rng.standard_normal(m.n_cells)
    psi = np.zeros(m.n_cells)
    prob = LviProblem(forms=assemble_forms(gd), rhs=rhs, alpha=1.0, psi=psi)
    ud, _, _ = solve_lvi(prob)
    monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
    ui, _, _ = solve_lvi(prob)
    assert np.abs(ud.values - ui.values).max() < 1e-8


@pytest.mark.parametrize("family", MESH_FAMILIES)
@pytest.mark.parametrize("level", [1, 2])
def test_condensed_solve_matches_full_system_reference(monkeypatch, family, level):
    m = generate_mesh(family, level)
    gd = build_gd(m)
    nc = m.n_cells
    rng = np.random.default_rng(31 * level + len(family))
    partitions = [ActiveSetPartition(np.zeros(nc, dtype=bool)),
                  ActiveSetPartition(np.ones(nc, dtype=bool)),
                  ActiveSetPartition(rng.random(nc) < 0.3)]
    rhs = rng.standard_normal(nc)
    psi = rng.standard_normal(nc) * 0.5
    boundary = (None, rng.standard_normal(gd.boundary_edge_dofs.size))
    # One forms object, and so one cached split, serves every alpha of an
    # order; the first alpha read must not leak into the later ones.
    for alphas in ((0.0, 5.0, 288.0), (288.0, 0.0, 5.0)):
        forms = assemble_forms(gd)
        for alpha, bvals, part in itertools.product(alphas, boundary, partitions):
            kw = dict(forms=forms, rhs=rhs, alpha=alpha, psi=psi,
                      boundary_values=bvals)
            want, _ = full_linear_solve(gd, LviProblem(**kw), part)
            scale = max(np.linalg.norm(want.values), 1e-300)
            stats = SolveStats()
            got, r = _linear_solve(LviProblem(**kw), part, stats)
            assert np.linalg.norm(got.values - want.values) <= 1e-12 * scale
            (resid,) = stats.linear_residuals
            assert resid <= 1e-12
            # r is the balance residual of the returned vector
            dense_r = balance_residual(gd, LviProblem(**kw), got.values)
            assert np.linalg.norm(r - dense_r) <= 1e-12 * max(1.0, np.linalg.norm(dense_r))
            with monkeypatch.context() as patch:
                patch.setattr(solver, "DIRECT_LIMIT", 0)
                cg_stats = SolveStats()
                cg, _ = _linear_solve(LviProblem(**kw), part, cg_stats)
            assert cg_stats.timings["factor_s"] == 0.0
            assert np.linalg.norm(cg.values - want.values) <= 1e-8 * scale


def _recording_splu(monkeypatch):
    calls = []
    splu = spla.splu

    def recording(A, **kwargs):
        lu = splu(A, **kwargs)
        calls.append((A, kwargs, lu))
        return lu

    monkeypatch.setattr(spla, "splu", recording)
    return calls


# SuperLU's settings for every SPD factorisation: relaxed supernodes and
# panels are off, measured faster on these meshes.
SPD_SETTINGS = dict(diag_pivot_thresh=0.0, relax=1, panel_size=1,
                    options=dict(SymmetricMode=True))


def test_solver_factorises_through_the_spd_path(monkeypatch):
    calls = _recording_splu(monkeypatch)
    gd = build_gd(generate_mesh("hexagonal", 2))
    rng = np.random.default_rng(5)
    _, _, stats = solve_lvi(_problem(gd, rhs=rng.standard_normal(gd.n_cells) - 2.0,
                                     psi=np.zeros(gd.n_cells)))
    assert stats.iterations > 1
    assert len(calls) == stats.iterations
    # The first Schur complement is ordered by minimum degree; one with the
    # held pattern comes in that order and is factorised in natural order.
    held = None
    for A, kw, lu in calls:
        if kw["permc_spec"] == "MMD_AT_PLUS_A":
            held = (A, lu.perm_c)
        else:
            back = _unpermute(A, held[1])
            assert back.indptr.tobytes() == held[0].indptr.tobytes()
            assert back.indices.tobytes() == held[0].indices.tobytes()
        assert kw == dict(permc_spec=kw["permc_spec"], **SPD_SETTINGS)
    kinds = [kw["permc_spec"] for _, kw, _ in calls]
    assert kinds[0] == "MMD_AT_PLUS_A" and "NATURAL" in kinds
    assert stats.orderings == kinds.count("MMD_AT_PLUS_A")
    assert asdict(stats)["orderings"] == stats.orderings


def _unpermute(P, perm_c):
    """The matrix whose column perm_c[j] with rows renamed by perm_c is P's."""
    q = np.argsort(perm_c)
    cols = [slice(P.indptr[k], P.indptr[k + 1]) for k in perm_c]
    indptr = np.zeros_like(P.indptr)
    np.cumsum([c.stop - c.start for c in cols], out=indptr[1:])
    data = np.concatenate([P.data[c] for c in cols])
    indices = np.concatenate([q[P.indices[c]] for c in cols]).astype(P.indices.dtype)
    return sp.csc_matrix((data, indices, indptr), shape=P.shape)


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_schur_complement_equals_the_triple_product_bitwise(monkeypatch, family):
    # The plan's product does the triple product's multiplies and sums;
    # exact zeros (contact cells, cancellation on Cartesian meshes) are
    # dropped by both.  A matrix factorised in the held order is mapped back
    # through it: its columns keep their entry order.
    calls = _recording_splu(monkeypatch)
    gd = build_gd(generate_mesh(family, 3))
    nc = gd.n_cells
    rng = np.random.default_rng(11)
    prob = _problem(gd, rhs=rng.standard_normal(nc), psi=np.zeros(nc), alpha=7.0)
    B, Aee = _edge_blocks(prob.forms)
    d = _schur_plan(prob.forms).s_cc + prob.alpha * prob.forms.mass_diag[:nc]
    kinds = []
    some = rng.random(nc) < 0.3
    for contact in (np.zeros(nc, dtype=bool), some, some, np.ones(nc, dtype=bool)):
        _linear_solve(prob, ActiveSetPartition(contact), SolveStats())
        got, kw, _ = calls.pop()
        kinds.append(kw["permc_spec"])
        if kinds[-1] == "NATURAL":
            got = _unpermute(got, _schur_plan(prob.forms).perm_c)
        want = (Aee - B.T @ sp.diags(np.where(contact, 0.0, 1.0 / d)) @ B).tocsc()
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert kinds[0] == "MMD_AT_PLUS_A" and "NATURAL" in kinds


def _problem_on(forms, rhs, psi, alpha):
    return LviProblem(forms=forms, rhs=rhs, alpha=alpha, psi=psi)


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_held_ordering_solves_bitwise_as_a_fresh_ordering(family):
    # One forms object orders the Schur complement at alpha = 3 and solves at
    # alpha = 7, same pattern, in the held ordering; a fresh forms object
    # orders the alpha = 7 complement itself.
    gd = build_gd(generate_mesh(family, 4))
    nc = gd.n_cells
    rng = np.random.default_rng(17)
    partition = ActiveSetPartition(rng.random(nc) < 0.3)
    rhs, psi = rng.standard_normal(nc), np.zeros(nc)
    held = assemble_forms(gd)
    stats = [SolveStats() for _ in range(3)]
    solves = [_linear_solve(_problem_on(forms, rhs, psi, alpha), partition, s)
              for (forms, alpha), s in zip(
                  ((held, 3.0), (held, 7.0), (assemble_forms(gd), 7.0)), stats)]
    assert [s.orderings for s in stats] == [1, 0, 1]
    assert solves[1][0].values.tobytes() == solves[2][0].values.tobytes()


def test_plan_pattern_is_held_without_comparing_arrays(monkeypatch):
    # On a triangular mesh every complement is the plan's whole pattern and
    # shares its indptr, so the held ordering is found without comparing
    # index arrays.
    compared = []
    equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda *a: compared.append(a) or equal(*a))
    case = builtin_case("test1")
    gd = build_gd(generate_mesh("triangular", 7), case.spec.diffusion)
    sol = run_transient(gd, case.spec, TimeGrid(case.spec.final_time, 6))
    assert sum(sol.iterations) > 6 and sum(s.orderings for s in sol.stats) == 1
    assert compared == []


def test_new_pattern_is_ordered_and_becomes_the_held_one(monkeypatch):
    # On Cartesian meshes the Schur complement's pattern depends on the
    # partition: with every cell in contact it is A_ee, some of whose edge
    # couplings are exact zeros, and with none B^T diag(w) B fills them in.
    calls = _recording_splu(monkeypatch)
    gd = build_gd(generate_mesh("cartesian", 4))
    nc = gd.n_cells
    rng = np.random.default_rng(23)
    rhs, psi = rng.standard_normal(nc), np.zeros(nc)
    forms = assemble_forms(gd)
    none, every = (ActiveSetPartition(np.full(nc, flag)) for flag in (False, True))
    ordered = []
    for partition in (none, every, every, none):
        stats = SolveStats()
        u, _ = _linear_solve(_problem_on(forms, rhs, psi, 5.0), partition, stats)
        ordered.append(stats.orderings)
        plan = _schur_plan(forms)
        if stats.orderings:
            A = calls[-1][0]
            assert plan.held_indptr is A.indptr and plan.held_indices is A.indices
            assert plan.gather is None
        # The held state owns its arrays: a view of the factor object's
        # perm_c would keep the factors alive.
        held = (plan.held_indptr, plan.held_indices, plan.perm_c, plan.gather,
                plan.inverse, plan.permuted_indptr, plan.permuted_indices)
        assert all(a is None or a.base is None or type(a.base) is np.ndarray for a in held)
        fresh, _ = _linear_solve(
            _problem_on(assemble_forms(gd), rhs, psi, 5.0), partition, SolveStats())
        assert u.values.tobytes() == fresh.values.tobytes()
    assert ordered == [1, 1, 0, 1]
    assert [kw["permc_spec"] for _, kw, _ in calls].count("NATURAL") == 1


def _edge_blocks(forms):
    """B and A_ee, sliced from the stiffness as the solver's plan does."""
    plan = _schur_plan(forms)
    return plan.B, forms.stiffness[plan.edofs][:, plan.edofs]


def _scipy_schur(B, Aee, w):
    """A_ee - B^T diag(w) B by scipy: the column-scaled B^T times B."""
    BtW = B.T.tocsr()
    BtW.data *= w[BtW.indices]
    return (Aee - BtW @ B).tocsc()


def _assert_same_csc(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("family, level", [("triangular", 7), ("hexagonal", 3),
                                           ("kershaw", 2), ("cartesian", 3)])
@pytest.mark.parametrize("case_name", ["test1", "test2"])
def test_one_pass_schur_complement_is_scipys_bitwise(monkeypatch, family, level, case_name):
    # Every solve of a march builds its Schur complement from the solver's
    # plan of the run's forms; each must be scipy's matrix, exact zeros dropped, bit for bit.
    built, runs = [], []
    complement = SchurPlan.complement

    def recording_forms(gd):
        runs.append(assemble_forms(gd))
        return runs[-1]

    def checked(plan, w):
        got = complement(plan, w)
        built.append(got.nnz)
        _assert_same_csc(got, _scipy_schur(*_edge_blocks(runs[-1]), w))
        return got

    monkeypatch.setattr(hmmvi.timeloop, "assemble_forms", recording_forms)
    monkeypatch.setattr(SchurPlan, "complement", checked)
    case = builtin_case(case_name)
    gd = build_gd(generate_mesh(family, level), case.spec.diffusion)
    sol = run_transient(gd, case.spec, TimeGrid(case.spec.final_time, 6))
    assert len(built) == sum(sol.iterations) > 6
    assert any(p.n_contact for p in sol.partitions)


def test_one_pass_schur_complement_drops_an_entry_that_cancels():
    # Three cells in a row, two interior edges: the middle cell holds both
    # edges, the outer cells one each.  With w = 1 on the middle cell only,
    # the off-diagonal coupling 1 - 1*1*1 is exactly 0.0 and is dropped.
    B = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    Aee = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 4.0]]))
    stiffness = sp.bmat([[sp.diags([2.0, 3.0, 2.0]), B], [B.T, Aee]], format="csr")
    plan = SchurPlan.build(stiffness, 3, np.array([3, 4]))
    assert plan.s_cc.tolist() == [2.0, 3.0, 2.0]
    for w, nnz in ((np.array([0.0, 1.0, 0.0]), 2), (np.array([0.5, 0.25, 3.0]), 4)):
        got = plan.complement(w)
        _assert_same_csc(got, _scipy_schur(B, Aee, w))
        assert got.nnz == nnz
    assert got.toarray().tolist() == [[4.0 - 0.5 - 0.25, 1.0 - 0.25],
                                      [1.0 - 0.25, 4.0 - 0.25 - 3.0]]


def _pattern(A):
    A = A.tocoo()
    return set(zip(A.row.tolist(), A.col.tolist()))


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_every_family_builds_one_schur_plan(family):
    # The plan's pattern is A_ee's plus every coupling of two edges of one
    # cell.  On Cartesian meshes some couplings are exact zeros of A_ee: with
    # every cell in contact the complement is A_ee, and with none it holds
    # every coupling.
    gd = build_gd(generate_mesh(family, 3))
    forms = assemble_forms(gd)
    plan = _schur_plan(forms)
    assert isinstance(plan, SchurPlan) and _schur_plan(forms) is plan
    B, Aee = _edge_blocks(forms)
    couplings = _pattern(abs(B).T @ abs(B))
    every = plan.complement(np.zeros(gd.n_cells))
    none = plan.complement(1.0 / (plan.s_cc + 5.0 * gd.mesh.cell_areas))
    assert every.nnz == Aee.nnz and _pattern(every) == _pattern(Aee)
    assert _pattern(none) == couplings | _pattern(Aee)
    assert (couplings <= _pattern(Aee)) == (family != "cartesian")


def test_schur_plan_build_is_not_timed_as_a_schur_complement(monkeypatch):
    # The plan is built on the first solve of a march; that one-time build
    # counts in linear_s, never in the per-solve schur_s.
    build = SchurPlan.build.__func__

    def slow_build(cls, *args):
        time.sleep(0.2)
        return build(cls, *args)

    monkeypatch.setattr(SchurPlan, "build", classmethod(slow_build))
    case = builtin_case("test2")
    gd = build_gd(generate_mesh("cartesian", 3))
    sol = run_transient(gd, case.spec, TimeGrid(case.spec.final_time, 3))
    timings = sol.solver_timings
    assert 0.0 < timings["schur_s"] < 0.2 <= timings["linear_s"]
