"""Active-set solver for the per-step obstacle problem."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmvi import (MESH_FAMILIES, ActiveSetPartition, LviProblem,
                   SingularSystemError, assemble_forms, build_gd,
                   complementarity_residual, contact_tolerance, generate_mesh,
                   solve_lvi, update_partition)
from hmmvi import solver
from hmmvi.discretisation import ObstacleVector
from hmmvi.solver import _linear_solve

from lviref import enumerate_lvi, full_linear_solve, projected_gauss_seidel


def _problem(gd, rhs, psi, alpha=1.0, bvals=None):
    return LviProblem(forms=assemble_forms(gd), rhs=np.asarray(rhs, dtype=float),
                      alpha=alpha, psi=ObstacleVector(np.asarray(psi, dtype=float)),
                      boundary_values=bvals)


def test_inactive_obstacle_is_one_unconstrained_solve(unit_square_gd):
    gd = unit_square_gd
    prob = _problem(gd, rhs=[1.0], psi=[-1e9])
    u, part, stats = solve_lvi(prob)
    assert stats.iterations == 1
    assert part.n_contact == 0
    # sanity: the single free equation is (alpha*|K| + A_KK) u_K = f_K
    A = gd.local_stiffness(0)
    assert u.cells[0] == pytest.approx(1.0 / (1.0 + A[0, 0]))


def test_single_cell_pulled_onto_obstacle(unit_square_gd):
    gd = unit_square_gd
    prob = _problem(gd, rhs=[-4.0], psi=[0.0])
    u, part, stats = solve_lvi(prob)
    assert part.contact.tolist() == [True]
    assert u.values == pytest.approx(np.zeros(5))
    assert complementarity_residual(prob, u) < 1e-14


def test_solution_is_feasible_and_complementary():
    m = generate_mesh("cartesian", 3)
    gd = build_gd(m)
    rng = np.random.default_rng(11)
    prob = _problem(gd, rhs=rng.standard_normal(m.n_cells),
                    psi=rng.standard_normal(m.n_cells) * 0.2, alpha=2.0)
    u, part, stats = solve_lvi(prob)
    tau = contact_tolerance(prob)
    assert np.all(u.cells - prob.psi.values >= -tau)
    assert complementarity_residual(prob, u) <= 1e-10
    assert stats.conservation_defect < 1e-10


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
    assert part2 == part
    assert np.array_equal(u2.values, u.values)


def test_update_rule_moves_infeasible_cells_to_contact(unit_square_gd):
    gd = unit_square_gd
    prob = _problem(gd, rhs=[-4.0], psi=[0.0])
    part = ActiveSetPartition.all_pde(1)
    u, _, _ = solve_lvi(prob)  # converged vector, contact everywhere
    # state a vector that dips below the obstacle
    bad = gd.vector(cells=[-1.0])
    new = update_partition(prob, bad, part)
    assert new.contact.tolist() == [True]


def test_update_rule_releases_negative_multipliers(unit_square_gd):
    gd = unit_square_gd
    # positive load wants the solution above the obstacle
    prob = _problem(gd, rhs=[4.0], psi=[0.0])
    part = ActiveSetPartition(np.array([True]))
    pinned = gd.vector(cells=[0.0])
    new = update_partition(prob, pinned, part)
    assert new.contact.tolist() == [False]


def test_update_is_a_fixed_point_at_the_solution():
    m = generate_mesh("triangular", 2)
    gd = build_gd(m)
    rng = np.random.default_rng(9)
    prob = _problem(gd, rhs=rng.standard_normal(m.n_cells) * 2.0,
                    psi=rng.standard_normal(m.n_cells) * 0.5)
    u, part, _ = solve_lvi(prob)
    again = update_partition(prob, u, part)
    assert again == part


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
    v = gd.vector(cells=cells)
    first = update_partition(prob, v, part)
    second = update_partition(prob, v, part)
    assert first == second
    assert np.array_equal(part.contact, contact), "input partition mutated"


def test_partition_key_distinguishes_partitions():
    a = ActiveSetPartition(np.array([True, False, True]))
    b = ActiveSetPartition(np.array([True, True, True]))
    assert a.key() != b.key()
    assert a.key() == a.copy().key()
    c = ActiveSetPartition.from_contact(3, [0, 2])
    assert c == a


def test_stats_record_the_iteration_history():
    m = generate_mesh("cartesian", 2)
    gd = build_gd(m)
    prob = _problem(gd, rhs=np.full(m.n_cells, -4.0), psi=np.zeros(m.n_cells))
    u, part, stats = solve_lvi(prob)
    assert stats.iterations == len(stats.set_changes) == len(stats.contact_sizes)
    assert stats.set_changes[-1] == 0
    assert stats.contact_sizes[-1] == part.n_contact
    assert len(stats.linear_residuals) == stats.iterations
    d = stats.to_dict()
    assert d["iterations"] == stats.iterations
    assert set(d["timings"]) == {"factor_s", "linear_s", "update_s"}
    assert all(v >= 0.0 for v in d["timings"].values())
    assert 0.0 < d["timings"]["factor_s"] <= d["timings"]["linear_s"]


def test_unreachable_linear_tolerance_is_reported(monkeypatch):
    # a tolerance below machine precision cannot be certified, and the solver
    # must refuse rather than return a silently unverified solution
    m = generate_mesh("cartesian", 2)
    gd = build_gd(m)
    rng = np.random.default_rng(8)
    prob = LviProblem(forms=assemble_forms(gd),
                      rhs=rng.standard_normal(m.n_cells),
                      alpha=1.0, psi=ObstacleVector(np.full(m.n_cells, -1e9)))
    monkeypatch.setattr(solver, "LINEAR_TOL", 1e-30)
    with pytest.raises(SingularSystemError):
        solve_lvi(prob)


def test_obstacle_must_be_finite():
    with pytest.raises(Exception):
        ObstacleVector(np.array([np.nan]))


def test_iterative_path_matches_direct(monkeypatch):
    m = generate_mesh("cartesian", 3)
    gd = build_gd(m)
    rng = np.random.default_rng(21)
    rhs = rng.standard_normal(m.n_cells)
    psi = np.zeros(m.n_cells)
    prob = LviProblem(forms=assemble_forms(gd), rhs=rhs, alpha=1.0,
                      psi=ObstacleVector(psi))
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
    partitions = [ActiveSetPartition.all_pde(nc),
                  ActiveSetPartition(np.ones(nc, dtype=bool)),
                  ActiveSetPartition(rng.random(nc) < 0.3)]
    rhs = rng.standard_normal(nc)
    psi = ObstacleVector(rng.standard_normal(nc) * 0.5)
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
            got, resid, _ = _linear_solve(LviProblem(**kw), part)
            assert np.linalg.norm(got.values - want.values) <= 1e-12 * scale
            assert resid <= 1e-12
            with monkeypatch.context() as patch:
                patch.setattr(solver, "DIRECT_LIMIT", 0)
                cg, _, factor_s = _linear_solve(LviProblem(**kw), part)
            assert factor_s == 0.0
            assert np.linalg.norm(cg.values - want.values) <= 1e-8 * scale

