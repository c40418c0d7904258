"""The scheme does not depend on how the mesh is numbered or turned.

Permuting the cells and the vertices, and starting each cell at another
corner, renumbers the unknowns.  The stiffness and the solver's Schur
complements follow that renumbering to rounding, and the complement of the
solver's plan is still scipy's product bit for bit, so neither the
assembly nor the plan relies on the numbering the generators produce.

A march follows a renumbering, a quarter turn and a move of the mesh with
its data: the same iterations and contact sets at every step, and the same
cell values to rounding.  A move by (s, s) rounds every coordinate to the
floats near s, about s 2^-53 apart, so the cell values then agree to a few
s 2^-53 / h.
"""

import dataclasses
import functools

import numpy as np
import pytest

from hmmvi import (MESH_FAMILIES, PolytopalMesh, TimeGrid, assemble_forms, build_gd,
                   builtin_case, error_norms, generate_mesh, mesh_size, run_transient,
                   validate)
from hmmvi.solver import _schur_plan

import meshref

ALPHA = 5.0


def _renumbered(mesh, seed):
    """The mesh renumbered, and the old unknown of each new one.

    New cell k is old cell ``cells[k]`` with the same point x_K, new vertex
    i is old vertex ``verts[i]``, and each cell starts one to m - 1 corners
    later than before.
    """
    rng = np.random.default_rng(seed)
    cells, verts = rng.permutation(mesh.n_cells), rng.permutation(mesh.n_vertices)
    new_vertex = np.argsort(verts)
    corners = []
    for k in cells:
        a, b = mesh.cell_offsets[k:k + 2]
        corners.append(np.roll(new_vertex[mesh.corner_vertices[a:b]],
                               -int(rng.integers(1, b - a))).tolist())
    new = PolytopalMesh(mesh.vertices[verts], corners, mesh.cell_points[cells])
    # An edge is its pair of old vertices in both meshes.
    old_pairs, _ = meshref.edge_table(mesh)
    old_edge = {tuple(p): e for e, p in enumerate(old_pairs.tolist())}
    new_pairs, _ = meshref.edge_table(new)
    edges = [old_edge[tuple(sorted(verts[p].tolist()))] for p in new_pairs]
    return new, np.concatenate((cells, mesh.n_cells + np.array(edges)))


def _schur_complements(forms):
    """A_ee - B^T diag(w) B by the solver's plan, all cells in balance and
    the even-numbered ones in contact, with their weights w."""
    gd = forms.gd
    plan = _schur_plan(forms)
    w = 1.0 / (plan.s_cc + ALPHA * gd.mesh.cell_areas)
    half = w.copy()
    half[::2] = 0.0
    return plan, [(w, plan.complement(w)), (half, plan.complement(half))]


def _scipy_schur(stiffness, n_cells, edofs, w):
    """The complement by scipy: A_ee minus the column-scaled B^T times B."""
    B = stiffness[:n_cells][:, edofs]
    BtW = B.T.tocsr()
    BtW.data *= w[BtW.indices]
    return (stiffness[edofs][:, edofs] - BtW @ B).tocsc()


@pytest.mark.parametrize("family", MESH_FAMILIES)
def test_renumbered_mesh_gives_the_renumbered_operator(family):
    mesh = generate_mesh(family, 2)
    new, old_of_new = _renumbered(mesh, seed=43)
    validate(new)
    forms, new_forms = assemble_forms(build_gd(mesh)), assemble_forms(build_gd(new))
    S, T = forms.stiffness.toarray(), new_forms.stiffness.toarray()
    assert np.abs(T - S[np.ix_(old_of_new, old_of_new)]).max() <= 1e-14 * np.abs(S).max()

    nc = mesh.n_cells
    plan, old = _schur_complements(forms)
    new_plan = _schur_plan(new_forms)
    # Interior edge i of the new mesh is interior edge inner[i] of the old
    # one; each plan numbers its edges in its own order.
    position = np.full(forms.stiffness.shape[0], -1)
    position[plan.edofs] = np.arange(plan.edofs.size)
    inner = position[old_of_new[new_plan.edofs]]
    assert np.array_equal(plan.edofs[inner], old_of_new[new_plan.edofs])
    for w, C in old:
        new_w = w[old_of_new[:nc]]
        got = new_plan.complement(new_w)
        want = C.toarray()
        assert np.abs(got.toarray() - want[np.ix_(inner, inner)]).max() <= (
            1e-14 * np.abs(want).max())
        ref = _scipy_schur(new_forms.stiffness, nc, new_plan.edofs, new_w)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


MARCH_MESHES = [("cartesian", 4), ("triangular", 8), ("hexagonal", 4), ("kershaw", 3)]
GRID = TimeGrid(0.1, 5)  # five steps of dt = 0.02


def _march(mesh, spec):
    return run_transient(build_gd(mesh, spec.diffusion), spec, GRID)


@functools.lru_cache(maxsize=None)
def _generated_march(case_name, family, level):
    """The case, the generated mesh and its march."""
    case = builtin_case(case_name)
    mesh = generate_mesh(family, level)
    return case, mesh, _march(mesh, case.spec)


def _assert_same_march(solution, new_solution, cells, rtol=1e-13):
    """The new march is the old one with new cell k old cell ``cells[k]``."""
    assert new_solution.iterations == solution.iterations
    for old, new in zip(solution.partitions, new_solution.partitions, strict=True):
        assert np.array_equal(new.contact, old.contact[cells])
    for old, new in zip(solution.vectors, new_solution.vectors, strict=True):
        want = old.cells[cells]
        assert np.abs(new.cells - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("family, level", MARCH_MESHES)
@pytest.mark.parametrize("case_name", ["test1", "test2"])
def test_renumbered_mesh_gives_the_renumbered_march(case_name, family, level):
    case, mesh, solution = _generated_march(case_name, family, level)
    new, old_of_new = _renumbered(mesh, seed=44)
    validate(new)
    new_solution = _march(new, case.spec)
    _assert_same_march(solution, new_solution, old_of_new[:mesh.n_cells])
    if case.has_exact:
        # The fan3 rules sum over each corner's triangle, wherever a cell starts.
        for rule in ("centroid", "fan3"):
            old, got = (error_norms(gd, run, case.u_exact, case.grad_exact, rule)
                        for gd, run in ((build_gd(mesh), solution), (build_gd(new), new_solution)))
            for name in ("l2_per_node", "grad_per_step"):
                want = getattr(old, name)
                assert np.abs(getattr(got, name) - want).max() <= 1e-13 * want.max(), name


def _turn(points):
    """A quarter turn about the origin, exact in floating point."""
    return np.column_stack((-points[:, 1], points[:, 0]))


def _unturn(points):
    return np.column_stack((points[:, 1], -points[:, 0]))


@pytest.mark.parametrize("family, level", MARCH_MESHES)
@pytest.mark.parametrize("case_name", ["test1", "test2"])
def test_turned_mesh_and_data_give_the_same_march(case_name, family, level):
    case, mesh, solution = _generated_march(case_name, family, level)
    spec = case.spec
    assert spec.diffusion is None  # the identity needs no turning
    offsets = mesh.cell_offsets
    turned = PolytopalMesh(_turn(mesh.vertices),
                           [mesh.corner_vertices[a:b] for a, b in zip(offsets, offsets[1:])],
                           _turn(mesh.cell_points))
    validate(turned)
    dirichlet = spec.dirichlet
    turned_spec = dataclasses.replace(
        spec,
        source=lambda p, t: spec.source(_unturn(p), t),
        obstacle=lambda p: spec.obstacle(_unturn(p)),
        initial=lambda p: spec.initial(_unturn(p)),
        dirichlet=None if dirichlet is None else lambda p, t: dirichlet(_unturn(p), t))
    _assert_same_march(solution, _march(turned, turned_spec), np.arange(mesh.n_cells))


# Measured: at most 0.80 s 2^-53 / h relative, and bit for bit on Cartesian
# meshes, whose coordinates the move keeps exact.
@pytest.mark.parametrize("s", [1e4, 1e6])
@pytest.mark.parametrize("family, level", MARCH_MESHES)
@pytest.mark.parametrize("case_name", ["test1", "test2"])
def test_moved_mesh_and_data_give_the_same_march(case_name, family, level, s):
    case, mesh, solution = _generated_march(case_name, family, level)
    spec = case.spec
    offsets = mesh.cell_offsets
    moved = PolytopalMesh(mesh.vertices + s,
                          [mesh.corner_vertices[a:b] for a, b in zip(offsets, offsets[1:])],
                          mesh.cell_points + s)
    validate(moved)
    dirichlet = spec.dirichlet
    moved_spec = dataclasses.replace(
        spec,
        source=lambda p, t: spec.source(p - s, t),
        obstacle=lambda p: spec.obstacle(p - s),
        initial=lambda p: spec.initial(p - s),
        dirichlet=None if dirichlet is None else lambda p, t: dirichlet(p - s, t))
    _assert_same_march(solution, _march(moved, moved_spec), np.arange(mesh.n_cells),
                       rtol=4.0 * s * 2.0**-53 / mesh_size(mesh))
