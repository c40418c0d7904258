"""The quality constants as computed before the plain form was shared.

``estimate_CD`` and ``estimate_WD`` each factorised the plain gradient form
on the free unknowns with ``splu``'s default column ordering and partial
pivoting.  Kept frozen so the shared SPD factorisation in
``hmmvi.diagnostics`` can be checked against them.  A0 is read from
``forms.stiffness``, the plain gradient form when the gd has identity
diffusion, as every caller's has.
"""

import math
from typing import Callable, Optional

import numpy as np
import scipy.sparse.linalg as spla

from hmmvi.diagnostics import (DiagnosticsError, _cell_quad_flat,
                               _subcell_quad_flat)
from hmmvi.discretisation import (AssembledForms, GradientDiscretisation,
                                  assemble_forms)

from gdref import coo_gradient_matrix


def estimate_CD(gd: GradientDiscretisation, forms: Optional[AssembledForms] = None,
                tol: float = 1e-8, max_iter: int = 10_000) -> float:
    """Largest ratio of function to gradient reconstruction norms.

    Power iteration on the pencil (M, A0) restricted to the homogeneous
    unknowns, stopped when the eigenvalue is stable to ``tol`` relative.
    """
    if forms is None:
        forms = assemble_forms(gd)
    free = gd.free_dofs
    A0 = forms.stiffness[free][:, free].tocsc()
    mass = forms.mass_diag[free]
    try:
        lu = spla.splu(A0)
    except RuntimeError as exc:
        raise DiagnosticsError(f"gradient form is singular: {exc}") from exc

    x = np.ones(free.size)
    x /= math.sqrt(float(x @ (A0 @ x)))
    lam = 0.0
    for _ in range(max_iter):
        z = lu.solve(mass * x)
        nrm = math.sqrt(float(z @ (A0 @ z)))
        if nrm == 0.0:
            raise DiagnosticsError("power iteration collapsed to the null space")
        x = z / nrm
        lam_new = float(x @ (mass * x))
        if abs(lam_new - lam) <= tol * max(lam_new, 1e-300):
            return math.sqrt(lam_new)
        lam = lam_new
    raise DiagnosticsError(
        f"power iteration did not stabilise within {max_iter} iterations")


def estimate_WD(gd: GradientDiscretisation, omega: Callable, div_omega: Callable,
                forms: Optional[AssembledForms] = None,
                rule: str = "fan3") -> float:
    """Dual norm of the discrete Stokes defect for the field omega.

    ``omega(points)`` returns an (n, 2) array and ``div_omega(points)`` its
    divergence.  The supremum over homogeneous vectors is reached by the
    Riesz representative, so the value is sqrt(l^T A0^{-1} l).
    """
    if forms is None:
        forms = assemble_forms(gd)
    mesh = gd.mesh

    ell = np.zeros(gd.n_dofs)
    pts, w, cidx = _cell_quad_flat(mesh, rule)
    np.add.at(ell, cidx, w * np.asarray(div_omega(pts), dtype=float))

    spts, sw, sidx = _subcell_quad_flat(gd, rule)
    vals = np.asarray(omega(spts), dtype=float)
    moments = np.zeros((gd.n_subcells, 2))
    np.add.at(moments, sidx, sw[:, None] * vals)
    ell += coo_gradient_matrix(gd.mesh).T @ moments.ravel()

    free = gd.free_dofs
    ell_f = ell[free]
    A0 = forms.stiffness[free][:, free].tocsc()
    try:
        x = spla.splu(A0).solve(ell_f)
    except RuntimeError as exc:
        raise DiagnosticsError(f"gradient form is singular: {exc}") from exc
    return math.sqrt(max(0.0, float(ell_f @ x)))
