"""Gradient reconstruction, local forms, fluxes and interpolants.

The library reconstructs the gradient from per-cell maps it does not hold;
the local form and fluxes of one cell are taken from its reconstructed
gradients by ``cellref``.

The single-cell numbers asserted here were worked out by hand for the unit
square with identity diffusion: putting 1 at the cell unknown and 0 on the
four edge unknowns gives a zero consistent gradient, stabilisation residual
-1 on each edge, a reconstructed gradient of magnitude 2*sqrt(2) on each
quarter, energy v'Av = 8 and an outward flux of exactly 2 through each edge.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from hmmvi import (DiscretisationError, MESH_FAMILIES, PolytopalMesh, ProblemSpec,
                   TimeGrid, assemble_forms, build_gd, flux_conservation_defect,
                   generate_mesh, interpolate_exact, reconstruct_gradient_flat,
                   run_transient, validate)
from hmmvi.diagnostics import _subcell_quad_flat
from hmmvi.discretisation import DofVector, _index_type

import gdref
from cellref import cell_slice, fluxes, local_stiffness, vector


def test_unit_square_energy_and_fluxes(unit_square_gd):
    gd = unit_square_gd
    A = local_stiffness(gd, 0)
    v = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert v @ A @ v == pytest.approx(8.0, abs=1e-12)
    u = vector(gd, cells=[1.0])
    assert fluxes(gd, u, 0) == pytest.approx([2.0] * 4, abs=1e-12)


def test_unit_square_subcell_gradient(unit_square_gd):
    gd = unit_square_gd
    u = vector(gd, cells=[1.0])
    g = reconstruct_gradient_flat(gd, u)
    assert np.allclose(np.linalg.norm(g, axis=1), 2.0 * np.sqrt(2.0))
    # each reconstructed gradient points back toward the cell centre
    for j in range(4):
        assert g[j] @ cell_slice(gd.mesh, gd.mesh.corner_normals, 0)[j] == pytest.approx(-2.0 * np.sqrt(2.0))


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
    v = vector(gd, cells=np.ones(m.n_cells), edges=np.ones(m.n_edges))
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
        A = local_stiffness(gd, k)
        edges = cell_slice(gd.mesh, gd.mesh.corner_edges, k)
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


def _gradient_columns(gd):
    """The library's gradient as a dense matrix, column j the reconstruction
    of unit vector j, two rows per subcell."""
    columns = []
    for j in range(gd.n_dofs):
        unit = gd.zeros()
        unit.values[j] = 1.0
        columns.append(reconstruct_gradient_flat(gd, unit).ravel())
    return np.column_stack(columns)


@pytest.mark.parametrize("diffusion", ["identity", "anisotropic", "per_cell"])
@pytest.mark.parametrize("family", MESH_FAMILIES)
@pytest.mark.parametrize("level", [1, 2])
def test_operators_match_per_cell_reference(level, family, diffusion):
    m = generate_mesh(family, level)
    gd = build_gd(m, diffusion=_diffusion(diffusion, m))
    forms = assemble_forms(gd)
    stiffness, plain = gdref.assemble(m, gd.diffusion)
    assert _rel_diff(_gradient_columns(gd), gdref.gradient_matrix(m)) <= 1e-14
    assert _rel_diff(forms.stiffness, stiffness) <= 1e-14
    assert _rel_diff(assemble_forms(build_gd(m)).stiffness, plain) <= 1e-14
    for k in range(m.n_cells):
        A, _ = gdref.local_forms(m, gd.diffusion, k)
        assert np.abs(local_stiffness(gd, k) - A).max() <= 1e-14 * np.abs(A).max()


def _mixed_cell_mesh():
    """A quad, a pentagon and a triangle on [0, 2] x [0, 1], in that order.

    The pentagon's corner edges are (4, 3, 5, 6, 7) and the triangle's
    (2, 8, 5), so neither cell meets its edges in increasing order, and
    grouping the cells by size reorders them.
    """
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0],
                         [1.0, 1.0], [0.0, 1.0], [1.0, 0.5]])
    return PolytopalMesh(vertices, [[1, 2, 3, 6], [0, 1, 6, 4, 5], [6, 3, 4]])


def _assert_gradient_is_the_coo_product(m, gd):
    # G v with the COO-built G, bit for bit, for random vectors and zero
    G = gdref.coo_gradient_matrix(m)
    rng = np.random.default_rng(m.n_cells)
    for values in (*rng.standard_normal((3, gd.n_dofs)), np.zeros(gd.n_dofs)):
        got = reconstruct_gradient_flat(gd, DofVector(values, gd.n_cells))
        want = (G @ values).reshape(-1, 2)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # both subcell quadratures, points, weights and owners, bit for bit
    triangles, centroids = gdref.eager_subcell_geometry(m)
    volumes = 0.5 * m.edge_lengths[m.corner_edges] * m.corner_edge_dists
    owners = np.arange(len(centroids))
    side_midpoints = 0.5 * (triangles + np.roll(triangles, -1, axis=1))
    for rule, expected in (
            ("centroid", (centroids, volumes, owners)),
            ("fan3", (side_midpoints.reshape(-1, 2), np.repeat(volumes / 3.0, 3),
                      np.repeat(owners, 3)))):
        for got, want in zip(_subcell_quad_flat(gd, rule), expected, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape, rule
            assert got.tobytes() == want.tobytes(), rule


# Levels 1 to 3 of every family, and one larger level each, so that the
# array passes of the maps are pinned beyond the smallest meshes.
COO_LEVELS = [(level, family) for family in MESH_FAMILIES for level in (1, 2, 3)] + [
    (4, "cartesian"), (16, "triangular"), (4, "hexagonal"), (4, "kershaw")]


@pytest.mark.parametrize("diffusion", ["identity", "per_cell"])
@pytest.mark.parametrize("level, family", COO_LEVELS)
def test_gradient_is_bitwise_the_coo_product(level, family, diffusion):
    m = generate_mesh(family, level)
    _assert_gradient_is_the_coo_product(m, build_gd(m, diffusion=_diffusion(diffusion, m)))


def test_gradient_of_mixed_cells_is_bitwise_the_coo_product():
    m = _mixed_cell_mesh()
    validate(m)
    assert np.diff(m.cell_offsets).tolist() == [4, 5, 3]
    assert cell_slice(m, m.corner_edges, 1).tolist() == [4, 3, 5, 6, 7]
    assert cell_slice(m, m.corner_edges, 2).tolist() == [2, 8, 5]
    gd = build_gd(m, diffusion=_diffusion("per_cell", m))
    _assert_gradient_is_the_coo_product(m, gd)
    v = vector(gd, cells=m.cell_points[:, 0] - 2 * m.cell_points[:, 1],
               edges=m.edge_centers[:, 0] - 2 * m.edge_centers[:, 1])
    assert np.allclose(reconstruct_gradient_flat(gd, v), [1.0, -2.0], rtol=0, atol=1e-13)


def test_discretisation_arrays_are_read_only():
    m = _mixed_cell_mesh()
    gd = build_gd(m, diffusion=_diffusion("per_cell", m))
    arrays = {"diffusion": gd.diffusion, "subcell_cell": gd.subcell_cell,
              "mesh.corner_edges": m.corner_edges, "subcell_volumes": gd.subcell_volumes,
              "boundary_edge_dofs": gd.boundary_edge_dofs, "free_dofs": gd.free_dofs}
    for name, arr in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0
    # a diffusion array, per cell or constant, stays the caller's to change
    field = _diffusion("per_cell", m)
    build_gd(m, diffusion=field)
    build_gd(m, diffusion=field[0])
    field[0, 0, 0] = 2.0


def test_index_type_is_int32_while_the_sizes_fit():
    below, at = 2**31 - 1, 2**31
    assert _index_type(below, below) is np.int32
    assert _index_type(at, 1) is np.int64
    assert _index_type(1, at) is np.int64


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_a_march_makes_one_gradient_pass(family, gradient_passes):
    # the assembly's: the time loop itself reconstructs no gradient
    m = generate_mesh(family, 2)
    gd = build_gd(m, diffusion=_diffusion("anisotropic", m))
    assert gradient_passes == []
    spec = _obstacle_spec(lambda p: np.zeros(len(p)),
                          lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]))
    run_transient(gd, spec, TimeGrid(0.1, 2))
    assert gradient_passes == [gd]


def test_each_reconstruction_makes_one_gradient_pass(gradient_passes):
    gd = build_gd(generate_mesh("hexagonal", 2))
    v = interpolate_exact(gd, lambda p: p[:, 0] - 2 * p[:, 1])
    first = reconstruct_gradient_flat(gd, v)
    second = reconstruct_gradient_flat(gd, v)
    assert gradient_passes == [gd, gd]
    assert first.tobytes() == second.tobytes()


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
    gd = build_gd(m, diffusion=np.broadcast_to(
        np.array([[2.0, -0.3], [-0.3, 0.8]]), (m.n_cells, 2, 2)))
    forms = assemble_forms(gd)
    S = forms.stiffness.toarray()
    assert np.array_equal(S, S.T)
    eigs = np.linalg.eigvalsh(S)
    assert eigs.min() > -1e-11 * eigs.max()


def _owned(a):
    """The array that holds a's memory: a itself, or the buffer it views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


@pytest.mark.parametrize("diffusion", ["identity", "anisotropic", "per_cell"])
@pytest.mark.parametrize("family", MESH_FAMILIES)
@pytest.mark.parametrize("level", [1, 2, 3])
def test_stiffness_is_exactly_symmetric_with_the_triple_product_pattern(level, family, diffusion):
    m = generate_mesh(family, level)
    gd = build_gd(m, diffusion=_diffusion(diffusion, m))
    S = assemble_forms(gd).stiffness
    T = S.transpose().tocsr()
    assert np.array_equal(S.indptr, T.indptr) and np.array_equal(S.indices, T.indices)
    assert S.data.tobytes() == T.data.tobytes()
    # canonical CSR: sorted, no duplicates, no stored zeros, scipy's int32
    row = np.repeat(np.arange(gd.n_dofs), np.diff(S.indptr))
    assert np.all((np.diff(S.indices) > 0) | (np.diff(row) > 0))
    assert np.all(S.data != 0.0)
    assert S.indices.dtype == S.indptr.dtype == np.int32
    # the arrays hold the kept entries alone, not views of larger buffers
    assert _owned(S.data).size == _owned(S.indices).size == S.nnz
    ref = gdref.triple_product_stiffness(gd)
    assert np.array_equal(S.indptr, ref.indptr) and np.array_equal(S.indices, ref.indices)
    assert S.indptr.dtype == ref.indptr.dtype and S.indices.dtype == ref.indices.dtype
    assert np.abs(S.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


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


def _obstacle_spec(obstacle, initial):
    return ProblemSpec(source=lambda p, t: np.zeros(len(p)), obstacle=obstacle,
                       initial=initial, final_time=0.1)


def test_obstacle_interpolation_and_clipping():
    # run_transient samples psi at the cell points and lifts initial data
    # below the obstacle onto it, with zero edge values.
    m = generate_mesh("cartesian", 3)
    spec = _obstacle_spec(lambda p: p[:, 0], lambda p: np.full(len(p), -5.0))
    sol = run_transient(build_gd(m), spec, TimeGrid(0.1, 1))
    assert np.array_equal(sol.psi, m.cell_points[:, 0])
    u0 = sol.vectors[0]
    assert np.array_equal(u0.cells, sol.psi)
    assert np.all(u0.edges == 0.0)


def test_exact_interpolation_clips_against_obstacle():
    m = generate_mesh("cartesian", 2)
    gd = build_gd(m)
    v = interpolate_exact(gd, lambda p: p[:, 0], psi=np.full(m.n_cells, 0.25))
    assert np.all(v.cells >= 0.25 - 1e-15)
    # edge values are not constrained
    assert v.edges.min() < 0.25


def test_nonfinite_obstacle_is_rejected():
    spec = _obstacle_spec(lambda p: np.full(len(p), np.inf), lambda p: np.zeros(len(p)))
    with pytest.raises(DiscretisationError, match="^obstacle values are not finite at t = 0$"):
        run_transient(build_gd(generate_mesh("cartesian", 1)), spec, TimeGrid(0.1, 1))


def test_nonfinite_diffusion_names_the_first_cell():
    m = generate_mesh("cartesian", 1)
    field = np.broadcast_to(np.eye(2), (m.n_cells, 2, 2)).copy()
    field[2, 0, 1] = field[2, 1, 0] = np.nan
    field[3, 1, 1] = np.inf
    with pytest.raises(DiscretisationError) as info:
        build_gd(m, diffusion=field)
    assert str(info.value) == "diffusion tensor on cell 2 is not finite: [[1.0, nan], [nan, 1.0]]"


def test_asymmetric_diffusion_is_rejected():
    m = generate_mesh("cartesian", 1)
    with pytest.raises(DiscretisationError, match="symmetric"):
        build_gd(m, diffusion=np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_indefinite_diffusion_is_rejected():
    m = generate_mesh("cartesian", 1)
    with pytest.raises(DiscretisationError):
        build_gd(m, diffusion=np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("diffusion, got", [
    pytest.param(lambda p: np.broadcast_to(np.eye(2), (len(p), 2, 2)), "a function",
                 id="callable"),
    pytest.param("identity", "a str", id="string"),
    pytest.param([[1.0, 0.0], [0.0]], "a list", id="ragged-list"),
    pytest.param(np.eye(3), "shape (3, 3)", id="3x3"),
])
def test_diffusion_that_is_not_an_accepted_array_is_refused(diffusion, got):
    m = generate_mesh("cartesian", 1)
    with pytest.raises(DiscretisationError) as info:
        build_gd(m, diffusion=diffusion)
    assert str(info.value) == ("diffusion must be None, a 2x2 array or a (4, 2, 2) "
                               f"array of numbers, got {got}")


def test_vector_shape_mismatch_is_reported():
    m = generate_mesh("cartesian", 1)
    gd = build_gd(m)
    small = DofVector(np.zeros(3), 1)
    with pytest.raises(DiscretisationError):
        gd.check_vector(small)
