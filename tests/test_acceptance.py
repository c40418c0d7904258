"""Acceptance suite: nine end-to-end checks with one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Each criterion states its tolerance inline; the frozen reference numbers for
the moving-disk study are regression targets with a factor-2 window, since
mesh-by-mesh agreement with other implementations is not claimed.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from hmmvi import (LviProblem, TimeGrid, assemble_forms, build_gd, builtin_case,
                   eoc, error_norms, estimate_CD, estimate_WD,
                   gd_quality_report, generate_mesh, interpolate_exact, mesh_size,
                   reconstruct_gradient_flat, run_transient, solve_lvi,
                   PolytopalMesh)
from hmmvi.discretisation import ObstacleVector

from cellref import fluxes, local_stiffness, vector
from lviref import enumerate_lvi, projected_gauss_seidel


@contextmanager
def report(criterion, description):
    try:
        yield
    except BaseException:
        print(f"criterion {criterion}: FAIL - {description}")
        raise
    print(f"criterion {criterion}: PASS - {description}")


def run_case(name, family, level, dt_fn):
    case = builtin_case(name)
    mesh = generate_mesh(family, level)
    gd = build_gd(mesh, case.spec.diffusion)
    h = mesh_size(mesh)
    grid = TimeGrid.uniform_from_dt(case.spec.final_time, dt_fn(h))
    solution = run_transient(gd, case.spec, grid)
    return case, gd, h, solution


def check_step_residuals(solution, tol=1e-8):
    # all built-in cases carry order-one data, so the unit scale applies
    worst = max(s.complementarity_max for s in solution.stats)
    assert worst <= tol, f"complementarity residual {worst:.3e}"
    return worst


def test_a1_affine_exactness_everywhere():
    start = time.perf_counter()
    with report(1, "affine fields reconstructed exactly on every family"):
        worst = 0.0
        for family in ("cartesian", "triangular", "hexagonal", "kershaw"):
            for level in (1, 2, 3):
                gd = build_gd(generate_mesh(family, level))
                v = interpolate_exact(
                    gd, lambda p: 0.37 - 1.21 * p[:, 0] + 0.73 * p[:, 1])
                g = reconstruct_gradient_flat(gd, v)
                worst = max(worst,
                            np.abs(g[:, 0] + 1.21).max(),
                            np.abs(g[:, 1] - 0.73).max())
        elapsed = time.perf_counter() - start
        assert worst < 1e-11, f"gradient defect {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_a2_unit_cell_hand_values():
    with report(2, "unit-cell energy, fluxes and quality constants"):
        mesh = PolytopalMesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
            [[0, 1, 2, 3]])
        gd = build_gd(mesh)
        A = local_stiffness(gd, 0)
        v = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert abs(v @ A @ v - 8.0) < 1e-12
        F = fluxes(gd, vector(gd, cells=[1.0]), 0)
        assert np.abs(F - 2.0).max() < 1e-12
        forms = assemble_forms(gd)
        assert abs(estimate_CD(gd, forms) - 1.0 / np.sqrt(8.0)) < 1e-12
        wd = estimate_WD(
            gd, lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]),
            lambda p: np.zeros(len(p)), forms)
        assert abs(wd) < 1e-12


def test_a3_active_set_matches_references():
    start = time.perf_counter()
    with report(3, "active-set solver matches enumeration and projected "
                   "Gauss-Seidel on small meshes"):
        meshes = [generate_mesh("cartesian", 1), generate_mesh("triangular", 1),
                  generate_mesh("triangular", 2)]
        assert all(m.n_cells <= 8 for m in meshes)
        rng = np.random.default_rng(20250816)
        worst_mismatch = 0.0
        for mesh in meshes:
            gd = build_gd(mesh)
            forms = assemble_forms(gd)
            for _ in range(50):
                rhs = rng.standard_normal(mesh.n_cells) * 2.0
                psi = rng.standard_normal(mesh.n_cells) * 0.5
                # keep at least one cell slack so the monotone iteration has
                # room; an everywhere-binding obstacle is a degenerate draw
                psi[rng.integers(mesh.n_cells)] = -10.0
                problem = LviProblem(
                    forms=forms, rhs=rhs, alpha=float(rng.uniform(0.1, 10.0)),
                    psi=ObstacleVector(psi),
                    boundary_values=rng.standard_normal(
                        len(gd.boundary_edge_dofs)) * 0.3)
                u, partition, stats = solve_lvi(problem)
                reference = enumerate_lvi(gd, problem)
                assert reference is not None
                gauss = projected_gauss_seidel(gd, problem)
                worst_mismatch = max(worst_mismatch,
                                     np.abs(u.values - reference).max(),
                                     np.abs(u.values - gauss).max())
                assert worst_mismatch < 1e-9
                assert stats.iterations <= mesh.n_cells
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_a4_complementarity_on_shipped_runs():
    with report(4, "every transient run keeps per-step complementarity below "
                   "1e-8"):
        worst = 0.0
        for name, family, level, dt_fn in [
                ("test1", "triangular", 8, lambda h: h * h),
                ("test2", "cartesian", 4, lambda h: 0.02),
                ("smooth_baseline", "triangular", 8, lambda h: h * h / 8)]:
            _, _, _, solution = run_case(name, family, level, dt_fn)
            worst = max(worst, check_step_residuals(solution))
        assert worst <= 1e-8


def test_a5_moving_disk_error_study():
    start = time.perf_counter()
    with report(5, "moving-disk study hits the frozen gradient targets within "
                   "a factor 2 and the expected orders"):
        targets = [0.25249, 0.13138, 0.06942]
        grad_errors, value_errors, sizes = [], [], []
        for level, target in zip((11, 16, 32), targets):
            case, gd, h, solution = run_case(
                "test1", "triangular", level, lambda h: h * h)
            check_step_residuals(solution)
            # values superconverge at the cell points, so the value error is
            # measured with the centroid rule; the gradient misfit against
            # the smooth exact field uses the quadratic-exact rule
            values = error_norms(gd, solution, case.u_exact, case.grad_exact,
                                 rule="centroid")
            grads = error_norms(gd, solution, case.u_exact, case.grad_exact,
                                rule="fan3")
            ratio = grads.rel_grad_final / target
            assert 0.5 <= ratio <= 2.0, (
                f"h={h:.3f}: gradient error {grads.rel_grad_final:.5f} "
                f"vs target {target} (ratio {ratio:.2f})")
            grad_errors.append(grads.rel_grad_final)
            value_errors.append(values.rel_l2_final)
            sizes.append(h)
        grad_orders = eoc(grad_errors, sizes)
        value_orders = eoc(value_errors, sizes)
        assert 0.7 <= grad_orders[-1] <= 1.3, f"gradient order {grad_orders[-1]:.2f}"
        assert value_orders[-1] >= 1.5, f"value order {value_orders[-1]:.2f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_a6_quality_measures_scale_first_order():
    with report(6, "dual-norm and interpolation quality measures decay at "
                   "first order"):
        sizes, wd, sd = [], [], []
        for level in (8, 16, 32):
            rep = gd_quality_report(build_gd(generate_mesh("triangular", level)))
            sizes.append(rep.h)
            wd.append(rep.w_d["sinusoidal_field"])
            sd.append(rep.s_d["polynomial_bump"])
        for series in (wd, sd):
            orders = eoc(series, sizes)
            assert np.all(orders >= 0.8) and np.all(orders <= 1.2), orders


def test_a7_contact_blob_qualitative():
    with report(7, "obstacle run shows the expected contact region and "
                   "warm-start decay"):
        case, gd, h, solution = run_case("test2", "cartesian", 6,
                                         lambda h: 0.01)
        mesh = gd.mesh
        assert mesh.n_cells >= 50 * 50
        check_step_residuals(solution)
        contact = solution.partitions[-1].contact
        assert contact.any(), "contact region is empty at the final time"
        interior = mesh.edge_cells[mesh.edge_cells[:, 1] >= 0]
        front_y = [mesh.cell_points[b if contact[a] else a, 1]
                   for a, b in interior if contact[a] != contact[b]]
        top = max(front_y)
        assert 0.5 <= top <= 0.7, f"free boundary top at y={top:.3f}"
        iterations = solution.iterations
        assert iterations[0] >= 5, f"first step took {iterations[0]} iterations"
        assert iterations[3] <= 3, f"fourth step took {iterations[3]} iterations"
        assert all(a >= b for a, b in zip(iterations, iterations[1:])), iterations


def test_a8_smooth_baseline_orders():
    with report(8, "unconstrained baseline shows second-order values and "
                   "first-order gradients"):
        case = builtin_case("smooth_baseline")
        rec = case.recommended
        coef = rec["dt_rule"]["coefficient"]
        expo = rec["dt_rule"]["exponent"]
        value_errors, grad_errors, sizes = [], [], []
        for level in rec["levels"]:
            case, gd, h, solution = run_case(
                "smooth_baseline", rec["mesh_family"], level,
                lambda h: coef * h ** expo)
            check_step_residuals(solution)
            rep = error_norms(gd, solution, case.u_exact, case.grad_exact)
            value_errors.append(rep.rel_l2_final)
            grad_errors.append(rep.rel_grad_final)
            sizes.append(h)
        value_orders = eoc(value_errors, sizes)
        grad_orders = eoc(grad_errors, sizes)
        assert np.all(np.abs(value_orders - 2.0) <= 0.2), value_orders
        assert np.all(np.abs(grad_orders - 1.0) <= 0.2), grad_orders


def test_a9_distorted_mesh_robustness():
    with report(9, "moving-disk run on the distorted quadrilateral mesh stays "
                   "below 5% error"):
        case, gd, h, solution = run_case("test1", "kershaw", 4,
                                         lambda h: h * h)
        check_step_residuals(solution)
        values = error_norms(gd, solution, case.u_exact, case.grad_exact,
                             rule="centroid")
        grads = error_norms(gd, solution, case.u_exact, case.grad_exact,
                            rule="fan3")
        assert values.rel_l2_final < 0.05, values.rel_l2_final
        assert grads.rel_grad_final < 0.05, grads.rel_grad_final
