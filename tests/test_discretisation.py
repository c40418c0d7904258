"""Gradient reconstruction, local forms, fluxes and interpolants.

The single-cell numbers asserted here were worked out by hand for the unit
square with identity diffusion: putting 1 at the cell unknown and 0 on the
four edge unknowns gives a zero consistent gradient, stabilisation residual
-1 on each edge, a reconstructed gradient of magnitude 2*sqrt(2) on each
quarter, energy v'Av = 8 and an outward flux of exactly 2 through each edge.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from hmmvi import (DiscretisationError, MESH_FAMILIES, assemble_forms, build_gd,
                   flux_conservation_defect, fluxes, generate_mesh,
                   interpolate_exact, interpolate_initial, interpolate_obstacle,
                   reconstruct_function, reconstruct_gradient_flat)
from hmmvi.discretisation import DofVector

import gdref


def test_unit_square_energy_and_fluxes(unit_square_gd):
    gd = unit_square_gd
    A = gd.local_stiffness(0)
    v = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert v @ A @ v == pytest.approx(8.0, abs=1e-12)
    u = gd.vector(cells=[1.0])
    assert fluxes(gd, u, 0) == pytest.approx([2.0] * 4, abs=1e-12)


def test_unit_square_subcell_gradient(unit_square_gd):
    gd = unit_square_gd
    u = gd.vector(cells=[1.0])
    g = reconstruct_gradient_flat(gd, u)
    assert np.allclose(np.linalg.norm(g, axis=1), 2.0 * np.sqrt(2.0))
    # each reconstructed gradient points back toward the cell centre
    for j in range(4):
        assert g[j] @ gd.mesh.cell_normals[0][j] == pytest.approx(-2.0 * np.sqrt(2.0))


@pytest.mark.parametrize("family", MESH_FAMILIES)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_affine_fields_are_reconstructed_exactly(family, level):
    m = generate_mesh(family, level)
    gd = build_gd(m)
    a, b, c = 0.37, -1.21, 0.73
    v = interpolate_exact(gd, lambda p: a + b * p[:, 0] + c * p[:, 1])
    g = reconstruct_gradient_flat(gd, v)
    assert np.abs(g[:, 0] - b).max() < 1e-11
    assert np.abs(g[:, 1] - c).max() < 1e-11


def test_constants_have_zero_gradient_and_energy():
    m = generate_mesh("hexagonal", 2)
    gd = build_gd(m)
    v = gd.vector(cells=np.ones(m.n_cells), edges=np.ones(m.n_edges))
    g = reconstruct_gradient_flat(gd, v)
    assert np.abs(g).max() < 1e-12
    forms = assemble_forms(gd)
    assert abs(v.values @ (forms.stiffness @ v.values)) < 1e-12


def test_subcell_volumes_partition_each_cell():
    m = generate_mesh("kershaw", 2)
    gd = build_gd(m)
    per_cell = np.zeros(m.n_cells)
    np.add.at(per_cell, gd.subcell_cell, gd.subcell_volumes)
    assert np.allclose(per_cell, m.cell_areas, rtol=1e-13, atol=0)


def test_flux_defining_identity_random_vectors():
    m = generate_mesh("hexagonal", 2)
    lam = np.array([[1.5, 0.2], [0.2, 3.0]])
    gd = build_gd(m, diffusion=lam)
    rng = np.random.default_rng(42)
    for k in range(m.n_cells):
        A = gd.local_stiffness(k)
        edges = gd.mesh.cell_edges[k]
        lengths = gd.mesh.edge_lengths[edges]
        for _ in range(3):
            uloc = rng.standard_normal(A.shape[0])
            vloc = rng.standard_normal(A.shape[0])
            u = gd.zeros()
            u.cells[k] = uloc[0]
            u.edges[edges] = uloc[1:]
            F = fluxes(gd, u, k)
            bilinear = vloc @ A @ uloc
            balance = np.sum(lengths * F * (vloc[0] - vloc[1:]))
            assert balance == pytest.approx(bilinear, rel=1e-11, abs=1e-12)


def _diffusion(kind, mesh):
    if kind == "identity":
        return None
    if kind == "anisotropic":
        return np.array([[1.5, 0.2], [0.2, 3.0]])
    rng = np.random.default_rng(7)
    field = np.zeros((mesh.n_cells, 2, 2))
    field[:, 0, 0] = rng.uniform(0.5, 2.0, mesh.n_cells)
    field[:, 1, 1] = rng.uniform(0.5, 2.0, mesh.n_cells)
    field[:, 0, 1] = field[:, 1, 0] = rng.uniform(-0.3, 0.3, mesh.n_cells)
    return field


def _rel_diff(A, B):
    A, B = sp.csr_matrix(A), sp.csr_matrix(B)
    return abs(A - B).max() / abs(B).max()


@pytest.mark.parametrize("diffusion", ["identity", "anisotropic", "per_cell"])
@pytest.mark.parametrize("family", MESH_FAMILIES)
@pytest.mark.parametrize("level", [1, 2])
def test_operators_match_per_cell_reference(level, family, diffusion):
    m = generate_mesh(family, level)
    gd = build_gd(m, diffusion=_diffusion(diffusion, m))
    forms = assemble_forms(gd)
    stiffness, plain = gdref.assemble(m, gd.diffusion)
    assert _rel_diff(gd._grad_matrix, gdref.gradient_matrix(m)) <= 1e-14
    assert _rel_diff(forms.stiffness, stiffness) <= 1e-14
    assert _rel_diff(forms.plain_stiffness, plain) <= 1e-14
    for k in range(m.n_cells):
        A, _ = gdref.local_forms(m, gd.diffusion, k)
        assert np.abs(gd.local_stiffness(k) - A).max() <= 1e-14 * np.abs(A).max()


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_cell_cell_block_is_diagonal(family):
    # the active-set solve condenses the cell unknowns out on this structure
    m = generate_mesh(family, 2)
    gd = build_gd(m, diffusion=_diffusion("per_cell", m))
    block = assemble_forms(gd).stiffness[:m.n_cells, :m.n_cells].tocoo()
    assert not np.any(block.data[block.row != block.col])
    assert np.all(block.diagonal() > 0.0)


def test_stiffness_is_symmetric_and_psd():
    m = generate_mesh("triangular", 3)
    gd = build_gd(m, diffusion=lambda p: np.broadcast_to(
        np.array([[2.0, -0.3], [-0.3, 0.8]]), (len(p), 2, 2)))
    forms = assemble_forms(gd)
    S = forms.stiffness.toarray()
    assert np.abs(S - S.T).max() < 1e-12 * np.abs(S).max()
    eigs = np.linalg.eigvalsh(S)
    assert eigs.min() > -1e-11 * eigs.max()


def test_mass_weights_are_cell_areas():
    m = generate_mesh("cartesian", 2)
    gd = build_gd(m)
    forms = assemble_forms(gd)
    assert np.allclose(forms.mass_diag[:m.n_cells], m.cell_areas)
    assert np.all(forms.mass_diag[m.n_cells:] == 0.0)


def test_conservation_defect_vanishes_at_discrete_solutions():
    import scipy.sparse.linalg as spla

    m = generate_mesh("cartesian", 3)
    gd = build_gd(m)
    forms = assemble_forms(gd)
    # solve a plain diffusion problem: unit load, zero boundary edges
    b = np.zeros(gd.n_dofs)
    b[:m.n_cells] = m.cell_areas
    free = gd.free_dofs
    S = forms.stiffness.tocsc()
    u = np.zeros(gd.n_dofs)
    u[free] = spla.spsolve(S[free][:, free], b[free])
    defect = flux_conservation_defect(forms, DofVector(u, m.n_cells))
    assert defect < 1e-12


def test_function_reconstruction_is_cellwise_constant():
    m = generate_mesh("cartesian", 2)
    gd = build_gd(m)
    v = gd.vector(cells=np.arange(m.n_cells, dtype=float))
    vals = reconstruct_function(gd, v)
    assert np.array_equal(vals, np.arange(m.n_cells, dtype=float))
    vals[0] = 99.0
    assert v.cells[0] == 0.0, "reconstruction must hand out a copy"


def test_obstacle_interpolation_and_clipping():
    m = generate_mesh("cartesian", 3)
    gd = build_gd(m)
    psi = interpolate_obstacle(gd, lambda p: p[:, 0])
    assert np.allclose(psi.values, m.cell_points[:, 0])
    # initial data below the obstacle must be lifted onto it
    u0 = interpolate_initial(gd, lambda p: np.full(len(p), -5.0), psi)
    assert np.allclose(u0.cells, psi.values)
    assert np.all(u0.edges == 0.0)


def test_exact_interpolation_clips_against_obstacle():
    m = generate_mesh("cartesian", 2)
    gd = build_gd(m)
    psi = interpolate_obstacle(gd, lambda p: np.full(len(p), 0.25))
    v = interpolate_exact(gd, lambda p: p[:, 0], psi=psi)
    assert np.all(v.cells >= 0.25 - 1e-15)
    # edge values are not constrained
    assert v.edges.min() < 0.25


def test_nonfinite_obstacle_is_rejected():
    m = generate_mesh("cartesian", 1)
    gd = build_gd(m)
    with pytest.raises(DiscretisationError):
        interpolate_obstacle(gd, lambda p: np.full(len(p), np.inf))


def test_asymmetric_diffusion_is_rejected():
    m = generate_mesh("cartesian", 1)
    with pytest.raises(DiscretisationError, match="symmetric"):
        build_gd(m, diffusion=np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_indefinite_diffusion_is_rejected():
    m = generate_mesh("cartesian", 1)
    with pytest.raises(DiscretisationError):
        build_gd(m, diffusion=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_vector_shape_mismatch_is_reported():
    m = generate_mesh("cartesian", 1)
    gd = build_gd(m)
    small = DofVector(np.zeros(3), 1)
    with pytest.raises(DiscretisationError):
        gd.check_vector(small)
