"""The operator does not depend on how the mesh is numbered.

Permuting the cells and the vertices, and starting each cell at another
corner, renumbers the unknowns.  The stiffness and the solver's Schur
complements follow that renumbering to rounding, and the complement of the
solver's plan is still scipy's product bit for bit, so neither the
assembly nor the plan relies on the numbering the generators produce.
"""

import numpy as np
import pytest

from hmmvi import MESH_FAMILIES, PolytopalMesh, assemble_forms, build_gd, generate_mesh, validate
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
    w = 1.0 / (plan.s_cc + ALPHA * forms.mass_diag[:gd.n_cells])
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
    # Interior edge i of the new mesh is interior edge inner[i] of the old one.
    inner = np.searchsorted(plan.edofs, old_of_new[new_plan.edofs])
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
