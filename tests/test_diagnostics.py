"""Quality measures, error norms and observed convergence orders."""

from dataclasses import MISSING, asdict, fields

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmvi.diagnostics
import hmmvi.quadrature
from hmmvi import (MESH_FAMILIES, DiagnosticsError, GdQualityReport, TimeGrid,
                   assemble_forms, bound_SD, build_gd, builtin_case, eoc, error_norms,
                   estimate_CD, estimate_WD, gd_quality_report, generate_mesh,
                   initial_interp_error, interpolate_exact, run_transient,
                   standard_probes)
from hmmvi.diagnostics import _cell_quad_flat, _plain_solve, _subcell_quad_flat
from hmmvi.discretisation import DofVector, reconstruct_gradient_flat
from hmmvi.timeloop import TransientSolution

import diagref


def test_unit_square_poincare_constant(unit_square_gd):
    forms = assemble_forms(unit_square_gd)
    cd = estimate_CD(forms)
    assert cd == pytest.approx(1.0 / np.sqrt(8.0), abs=1e-12)


def test_constant_field_has_zero_dual_norm(unit_square_gd):
    wd = estimate_WD(assemble_forms(unit_square_gd),
                     lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]),
                     lambda p: np.zeros(len(p)))
    assert wd == pytest.approx(0.0, abs=1e-13)


def test_poincare_constant_stays_bounded_under_refinement():
    values = []
    for n in (2, 3, 4, 5):
        gd = build_gd(generate_mesh("cartesian", n))
        values.append(estimate_CD(assemble_forms(gd)))
    assert max(values) < 1.0
    # refinement changes the constant less and less
    diffs = np.abs(np.diff(values))
    assert diffs[-1] < diffs[0]


def test_dual_norm_dominates_sampled_ratios_and_is_attained():
    m = generate_mesh("hexagonal", 2)
    gd = build_gd(m)
    forms = assemble_forms(gd)
    omega, div_omega = standard_probes(m.bbox)["sinusoidal_field"]
    wd = estimate_WD(forms, omega, div_omega)

    # rebuild the linear functional v -> int(omega . grad v + div omega v)
    spts, sw, sidx = _subcell_quad_flat(gd, "fan3")
    om = omega(spts)
    cpts, cw, cidx = _cell_quad_flat(m, "fan3")
    dv = div_omega(cpts)

    def functional(values):
        v = DofVector(values, m.n_cells)
        g = reconstruct_gradient_flat(gd, v)
        return ((sw[:, None] * om * g[sidx]).sum()
                + (cw * dv * v.cells[cidx]).sum())

    A0 = forms.stiffness  # gd has identity diffusion: the plain gradient form
    free = gd.free_dofs
    rng = np.random.default_rng(17)
    for _ in range(300):
        v = np.zeros(gd.n_dofs)
        v[free] = rng.standard_normal(free.size)
        ratio = abs(functional(v)) / np.sqrt(v @ (A0 @ v))
        assert ratio <= wd * (1.0 + 1e-10)

    # the Riesz representer attains the supremum
    ell = np.zeros(gd.n_dofs)
    for i in free:
        e = np.zeros(gd.n_dofs)
        e[i] = 1.0
        ell[i] = functional(e)
    A0ff = A0.tocsc()[free][:, free]
    vstar = np.zeros(gd.n_dofs)
    vstar[free] = spla.spsolve(A0ff, ell[free])
    best = abs(functional(vstar)) / np.sqrt(vstar @ (A0 @ vstar))
    assert best == pytest.approx(wd, rel=1e-8)


def test_quality_measures_decay_first_order():
    h, wd, sd, id0 = [], [], [], []
    for n in (8, 16, 32):
        gd = build_gd(generate_mesh("triangular", n))
        rep = gd_quality_report(gd)
        h.append(rep.h)
        wd.append(rep.w_d["sinusoidal_field"])
        sd.append(rep.s_d["polynomial_bump"])
        id0.append(rep.i_d0["polynomial_bump"])
    for series in (wd, sd, id0):
        orders = eoc(series, h)
        assert np.all(orders > 0.8) and np.all(orders < 1.2)


def test_sd_bound_splits_into_parts(unit_square_gd):
    probe, grad = standard_probes(unit_square_gd.mesh.bbox)["polynomial_bump"]
    sd = bound_SD(unit_square_gd, probe, grad, np.zeros(unit_square_gd.n_cells))
    assert sd.total == pytest.approx(sd.function_part + sd.gradient_part)
    assert sd.total > 0


def test_initial_interp_error_decays():
    case = builtin_case("test2")
    errs, hs = [], []
    for n in (2, 3, 4):
        m = generate_mesh("cartesian", n)
        gd = build_gd(m)
        psi = case.spec.obstacle(m.cell_points)
        errs.append(initial_interp_error(gd, case.spec.initial, psi))
        hs.append(2.0 * np.sqrt(2.0) / 2 ** n)
    orders = eoc(errs, hs)
    assert np.all(orders > 0.7)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=0.25, max_value=3.5),
       st.floats(min_value=0.05, max_value=10.0))
def test_eoc_recovers_synthetic_order(p, c):
    sizes = [0.4, 0.2, 0.1, 0.05]
    errors = [c * h ** p for h in sizes]
    assert eoc(errors, sizes) == pytest.approx([p, p, p], abs=1e-10)


def test_eoc_rejects_bad_input():
    with pytest.raises(DiagnosticsError):
        eoc([1.0], [0.5])
    with pytest.raises(DiagnosticsError):
        eoc([1.0, -0.5], [0.5, 0.25])
    with pytest.raises(DiagnosticsError):
        eoc([1.0, 0.5], [0.25, 0.5])


def test_error_norms_on_known_fields():
    # the relative norms divide the last node's errors by the exact norms at
    # T under the same (centroid) quadrature, computed here independently
    case = builtin_case("smooth_baseline")
    m = generate_mesh("triangular", 8)
    gd = build_gd(m)
    grid = TimeGrid(case.spec.final_time, 2)
    sol = run_transient(gd, case.spec, grid)
    rep = error_norms(gd, sol, case.u_exact, case.grad_exact)
    assert rep.quadrature == "centroid"
    assert len(rep.l2_per_node) == grid.n_steps + 1
    assert len(rep.grad_per_step) == grid.n_steps
    t_final = float(grid.nodes[-1])
    exact_l2 = np.sqrt(m.cell_areas @ case.u_exact(m.cell_points, t_final) ** 2)
    ge = case.grad_exact(_subcell_quad_flat(gd, "centroid")[0], t_final)
    exact_grad = np.sqrt(gd.subcell_volumes @ np.sum(ge**2, axis=1))
    assert exact_l2 > 0.5
    assert exact_grad > 1.0
    assert rep.linf_l2 >= rep.l2_per_node[-1] - 1e-15
    assert rep.rel_l2_final == pytest.approx(rep.l2_per_node[-1] / exact_l2)
    assert rep.rel_grad_final == pytest.approx(rep.grad_per_step[-1] / exact_grad)


def test_error_norms_reject_zero_exact_solution():
    case = builtin_case("smooth_baseline")
    m = generate_mesh("cartesian", 2)
    gd = build_gd(m)
    sol = run_transient(gd, case.spec, TimeGrid(case.spec.final_time, 1))
    with pytest.raises(DiagnosticsError, match="vanishes"):
        error_norms(gd, sol,
                    lambda p, t: np.zeros(len(p)),
                    lambda p, t: np.zeros((len(p), 2)))


def test_error_norms_reject_an_unknown_rule():
    case = builtin_case("smooth_baseline")
    gd = build_gd(generate_mesh("cartesian", 2))
    sol = run_transient(gd, case.spec, TimeGrid(case.spec.final_time, 1))
    with pytest.raises(DiagnosticsError, match="^unknown quadrature rule 'gauss'$"):
        error_norms(gd, sol, case.u_exact, case.grad_exact, rule="gauss")


@pytest.mark.parametrize("missing", ["u_exact", "grad_exact"])
def test_error_norms_need_both_exact_callables(missing):
    case = builtin_case("smooth_baseline")
    gd = build_gd(generate_mesh("cartesian", 2))
    sol = run_transient(gd, case.spec, TimeGrid(case.spec.final_time, 1))
    exact = {"u_exact": case.u_exact, "grad_exact": case.grad_exact, missing: None}
    with pytest.raises(DiagnosticsError) as info:
        error_norms(gd, sol, **exact)
    assert str(info.value) == "error norms need both exact callables"


def test_error_norms_refuse_a_vector_count_off_the_node_count():
    case = builtin_case("smooth_baseline")
    gd = build_gd(generate_mesh("cartesian", 2))
    sol = run_transient(gd, case.spec, TimeGrid(case.spec.final_time, 2))
    short = TransientSolution(grid=sol.grid, psi=sol.psi, vectors=sol.vectors[:-1],
                              stats=sol.stats, partitions=sol.partitions)
    with pytest.raises(DiagnosticsError) as info:
        error_norms(gd, short, case.u_exact, case.grad_exact)
    assert str(info.value) == "2 vectors for 3 time nodes"


def test_spacetime_norms_accumulate_steps():
    case = builtin_case("smooth_baseline")
    m = generate_mesh("triangular", 6)
    gd = build_gd(m)
    grid = TimeGrid(case.spec.final_time, 4)
    sol = run_transient(gd, case.spec, grid)
    rep = error_norms(gd, sol, case.u_exact, case.grad_exact)
    by_hand = np.sqrt(np.sum(np.diff(grid.nodes) * np.asarray(rep.grad_per_step) ** 2))
    assert rep.spacetime_grad == pytest.approx(by_hand)


def test_quality_report_serializes():
    gd = build_gd(generate_mesh("cartesian", 3))
    rep = gd_quality_report(gd)
    d = asdict(rep)
    assert set(d) >= {"h", "n_cells", "n_edges", "c_d", "w_d", "s_d", "i_d0"}
    assert d["n_cells"] == 64
    assert d["c_d"] == pytest.approx(rep.c_d)
    assert all(f.default is MISSING and f.default_factory is MISSING
               for f in fields(GdQualityReport))


def test_estimators_take_the_discretisation_from_the_forms(monkeypatch):
    gd = build_gd(generate_mesh("hexagonal", 2))
    forms = assemble_forms(gd)
    omega, div_omega = standard_probes(gd.mesh.bbox)["sinusoidal_field"]
    want = gd_quality_report(gd)
    # Identity diffusion: neither estimator assembles anything of its own.
    monkeypatch.setattr(hmmvi.diagnostics, "assemble_forms", None)
    assert estimate_CD(forms).hex() == want.c_d.hex()
    assert (estimate_WD(forms, omega, div_omega).hex()
            == want.w_d["sinusoidal_field"].hex())


@pytest.mark.parametrize("family", MESH_FAMILIES)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_shared_factorisation_matches_two_factorisation_reference(family, level):
    gd = build_gd(generate_mesh(family, level))
    forms = assemble_forms(gd)
    omega, div_omega = standard_probes(gd.mesh.bbox)["sinusoidal_field"]
    cd = estimate_CD(forms)
    wd = estimate_WD(forms, omega, div_omega)
    ref_forms = assemble_forms(gd)
    ref_cd = diagref.estimate_CD(gd, ref_forms)
    ref_wd = diagref.estimate_WD(gd, omega, div_omega, ref_forms)
    assert abs(cd - ref_cd) <= 1e-12 * ref_cd
    assert abs(wd - ref_wd) <= 1e-12 * ref_wd


def test_singular_plain_form_is_a_diagnostics_error(monkeypatch):
    def singular(A):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(hmmvi.diagnostics, "factorise_spd", singular)
    forms = assemble_forms(build_gd(generate_mesh("cartesian", 2)))
    with pytest.raises(DiagnosticsError,
                       match="^gradient form is singular: Factor is exactly singular$"):
        estimate_CD(forms)


def test_power_iteration_that_reaches_zero_is_a_diagnostics_error(monkeypatch):
    # A plain solve that returns zero makes the iterate A0^{-1} M x vanish;
    # cell areas cannot, so the solve is replaced.
    monkeypatch.setattr(hmmvi.diagnostics, "_plain_solve", lambda forms: np.zeros_like)
    forms = assemble_forms(build_gd(generate_mesh("cartesian", 2)))
    with pytest.raises(DiagnosticsError,
                       match="^power iteration collapsed to the null space$"):
        estimate_CD(forms)


def test_power_iteration_out_of_iterations_is_a_diagnostics_error(monkeypatch):
    monkeypatch.setattr(hmmvi.diagnostics, "CD_MAX_ITER", 1)
    forms = assemble_forms(build_gd(generate_mesh("cartesian", 2)))
    with pytest.raises(DiagnosticsError,
                       match="^power iteration did not stabilise within 1 iterations$"):
        estimate_CD(forms)


def test_quality_report_factorises_the_plain_form_once(monkeypatch):
    calls, built = [], []
    splu = spla.splu
    assemble = hmmvi.diagnostics.assemble_forms

    def counting_splu(A, **kwargs):
        calls.append((A, kwargs))
        return splu(A, **kwargs)

    def counting_assemble(gd):
        built.append(assemble(gd))
        return built[-1]

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(hmmvi.diagnostics, "assemble_forms", counting_assemble)
    gd = build_gd(generate_mesh("hexagonal", 2))
    gd_quality_report(gd)
    # With identity diffusion the plain form is the stiffness itself: no
    # second assembly, and exactly the interior-edge complement of its free
    # block, the cells condensed out, is factorised.
    assert len(built) == 1 and len(calls) == 1
    A, kwargs = calls[0]
    nc, free = gd.n_cells, gd.free_dofs
    A0 = built[0].stiffness[free][:, free]
    B = A0[:nc, nc:]
    want = (A0[nc:, nc:] - (B.T @ sp.diags(1.0 / A0.diagonal()[:nc])) @ B).tocsc()
    for a, b in ((A.data, want.data), (A.indices, want.indices), (A.indptr, want.indptr)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # The solver's SPD factorisation: the same options reach SuperLU.
    assert kwargs == dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          relax=1, panel_size=1, options=dict(SymmetricMode=True))


def test_quality_report_passes_the_gradient_maps_before_factorising(
        monkeypatch, gradient_passes):
    # assembly and W_D before the plain factorisation, then S_D's reconstruction
    passes_at_factorisation = []
    factorise = hmmvi.diagnostics.factorise_spd

    def counting(S):
        passes_at_factorisation.append(len(gradient_passes))
        return factorise(S)

    monkeypatch.setattr(hmmvi.diagnostics, "factorise_spd", counting)
    gd = build_gd(generate_mesh("hexagonal", 2))
    gd_quality_report(gd)
    assert gradient_passes == [gd] * 3 and passes_at_factorisation == [2]


def test_plain_solve_makes_one_gradient_pass_for_its_identity_scheme(gradient_passes):
    gd = build_gd(generate_mesh("hexagonal", 2), np.array([[1.5, 0.2], [0.2, 3.0]]))
    forms = assemble_forms(gd)
    _plain_solve(forms)
    (plain,) = gradient_passes[1:]
    assert gradient_passes[0] is gd and plain is not gd and plain.mesh is gd.mesh


@pytest.mark.parametrize("rule", ["centroid", "fan3"])
def test_error_norms_make_one_gradient_pass_whatever_the_node_count(rule, gradient_passes):
    case = builtin_case("smooth_baseline")
    gd = build_gd(generate_mesh("hexagonal", 2))
    for n_steps in (1, 4):
        sol = run_transient(gd, case.spec, TimeGrid(case.spec.final_time, n_steps))
        gradient_passes.clear()
        error_norms(gd, sol, case.u_exact, case.grad_exact, rule=rule)
        assert gradient_passes == [gd]


def _per_cell_diffusion(mesh):
    rng = np.random.default_rng(3)
    per_cell = np.zeros((mesh.n_cells, 2, 2))
    per_cell[:, 0, 0] = rng.uniform(0.5, 2.0, mesh.n_cells)
    per_cell[:, 1, 1] = rng.uniform(0.5, 2.0, mesh.n_cells)
    per_cell[:, 0, 1] = per_cell[:, 1, 0] = rng.uniform(-0.3, 0.3, mesh.n_cells)
    return per_cell


@pytest.mark.parametrize("family", MESH_FAMILIES)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_condensed_plain_solve_matches_the_full_free_block(family, level):
    # The plain form does not depend on Lambda: every scheme's solve is the
    # identity stiffness's free block solved in full.
    mesh = generate_mesh(family, level)
    gd = build_gd(mesh)
    free = gd.free_dofs
    A0 = assemble_forms(gd).stiffness[free][:, free].tocsc()
    ell = np.random.default_rng(level).standard_normal(free.size)
    want = spla.spsolve(A0, ell)
    for diffusion in (None, np.array([[1.5, 0.2], [0.2, 3.0]]), _per_cell_diffusion(mesh)):
        got = _plain_solve(assemble_forms(build_gd(mesh, diffusion)))(ell)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_quality_constants_are_taken_in_the_plain_form(family):
    # C_D and W_D use the unweighted gradient norm whatever the scheme's
    # diffusion: a gd with another Lambda gives the identity gd's bits.
    mesh = generate_mesh(family, 2)
    omega, div_omega = standard_probes(mesh.bbox)["sinusoidal_field"]
    identity = assemble_forms(build_gd(mesh))
    want = (estimate_CD(identity), estimate_WD(identity, omega, div_omega))
    for diffusion in (np.array([[1.5, 0.2], [0.2, 3.0]]), _per_cell_diffusion(mesh)):
        forms = assemble_forms(build_gd(mesh, diffusion))
        got = (estimate_CD(forms), estimate_WD(forms, omega, div_omega))
        assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_initial_interp_error_is_the_sd_function_part(family):
    # The quality report's I_D0 repeats the function part of its S_D bound:
    # both sample the bump at the cell points, clip at psi = 0 and integrate
    # by fan3.
    gd = build_gd(generate_mesh(family, 2))
    bump, grad_bump = standard_probes(gd.mesh.bbox)["polynomial_bump"]
    zero_psi = np.zeros(gd.n_cells)
    sd = bound_SD(gd, bump, grad_bump, zero_psi)
    assert initial_interp_error(gd, bump, zero_psi).hex() == sd.function_part.hex()


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_sd_bound_is_the_fan3_error_of_the_interpolants(family):
    # S_D at t_n is error_norms of the admissible interpolants of u(., t_n):
    # one fan3 sweep gives the function part at every node and the gradient
    # part at every node after the first.
    case = builtin_case("test1")
    gd = build_gd(generate_mesh(family, 2), case.spec.diffusion)
    psi = case.spec.obstacle(gd.mesh.cell_points)
    grid = TimeGrid(case.spec.final_time, 4)
    at = [(lambda p, t=float(t): case.u_exact(p, t),
           lambda p, t=float(t): case.grad_exact(p, t)) for t in grid.nodes]
    vectors = [interpolate_exact(gd, u, psi) for u, _ in at]
    sol = TransientSolution(grid=grid, psi=psi, vectors=vectors, stats=[], partitions=[])
    rep = error_norms(gd, sol, case.u_exact, case.grad_exact, rule="fan3")
    for n, (u, grad) in enumerate(at):
        sd = bound_SD(gd, u, grad, psi)
        assert rep.l2_per_node[n].hex() == sd.function_part.hex()
        if n > 0:
            assert rep.grad_per_step[n - 1].hex() == sd.gradient_part.hex()


def test_fan3_flattening_calls_cell_rule_once_per_cell(monkeypatch):
    mesh = generate_mesh("hexagonal", 2)
    want = _cell_quad_flat(mesh, "fan3")
    seen = []
    cell_rule = hmmvi.quadrature.cell_rule

    def counting_rule(m, k):
        seen.append(k)
        return cell_rule(m, k)

    monkeypatch.setattr(hmmvi.quadrature, "cell_rule", counting_rule)
    got = _cell_quad_flat(mesh, "fan3")
    assert seen == list(range(mesh.n_cells))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert np.array_equal(got[2], np.repeat(np.arange(mesh.n_cells),
                                            3 * np.diff(mesh.cell_offsets)))
