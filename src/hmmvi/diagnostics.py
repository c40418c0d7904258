"""Quality measures of a discretisation and error norms of computed runs.

The three quantities controlling the error bound of the scheme are estimated
directly from the assembled forms, with A0 the stiffness of the identity
scheme (Lambda = I) on the homogeneous unknowns:

* C_D, the norm of the function reconstruction relative to the gradient
  reconstruction, is the square root of the largest eigenvalue of the pencil
  (M, A0) on the homogeneous unknowns, computed by inverse power iteration.
* W_D(omega), the defect of the discrete Stokes formula for a smooth field
  omega, is the A0-dual norm of the assembled linear functional, so it equals
  sqrt(l^T A0^{-1} l).
* The interpolation bound for S_D evaluates the sampling interpolant of a
  smooth admissible function and adds the two reconstruction errors.

C_D and W_D solve with A0 with the cells condensed out, as the solver does:
a cell unknown couples only to its own edges, so the cell block of A0 is the
diagonal s_cc.  With B the cell x interior-edge block, the interior edges
solve S z_e = l_e - B^T (l_c / s_cc) with S = A_ee - B^T diag(1/s_cc) B, and
the cells follow as z_c = (l_c - B z_e) / s_cc.  S is factorised once per
forms object; A0 itself is neither held nor applied.

Error norms of transient runs are evaluated by cell quadrature.  The default
centroid rule measures the cell-value error, which is the quantity that
superconverges for this scheme; the fan rule measures the full piecewise
constant reconstruction error instead and is first order no matter how
accurate the cell values are.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .discretisation import (AssembledForms, GradientDiscretisation, _apply_gradient_maps,
                             _gradient_groups, assemble_forms, build_gd, interpolate_exact,
                             reconstruct_gradient_flat)
from .solver import factorise_spd
from .timeloop import TransientSolution


# The C_D power iteration stops at this relative change, or fails after CD_MAX_ITER.
CD_TOL = 1e-8
CD_MAX_ITER = 10_000

# forms -> the solve with A0, see _plain_solve; dropped with the forms.
_plain_factors = weakref.WeakKeyDictionary()


class DiagnosticsError(Exception):
    """Missing exact data, degenerate norms or non-converged estimates."""


# -- quadrature flattenings --------------------------------------------------


def _cell_quad_flat(mesh, rule: str):
    """Points, weights and owning cell for the "centroid" or "fan3" cell rule."""
    if rule == "centroid":
        return mesh.cell_points, mesh.cell_areas, np.arange(mesh.n_cells)
    from .quadrature import cell_rule

    rules = [cell_rule(mesh, k) for k in range(mesh.n_cells)]
    owner = np.repeat(np.arange(mesh.n_cells), 3 * np.diff(mesh.cell_offsets))
    return (np.concatenate([p for p, _ in rules]), np.concatenate([w for _, w in rules]),
            owner)


def _subcell_quad_flat(gd, rule: str):
    """Points, weights and owning subcell for the "centroid" or "fan3" rule.

    Subcell s is the triangle (x_K, a, b) of corner s, whose edge runs from
    vertex a to b; "fan3" takes the midpoints of its sides x_K a, a b, b x_K.
    """
    mesh, cell = gd.mesh, gd.subcell_cell
    first = mesh.cell_offsets[:-1][cell]
    nxt = first + (np.arange(gd.n_subcells) - first + 1) % np.diff(mesh.cell_offsets)[cell]
    xk, a = mesh.cell_points[cell], mesh.vertices[mesh.corner_vertices]
    b = a[nxt]
    if rule == "centroid":
        return (xk + a + b) / 3.0, gd.subcell_volumes, np.arange(gd.n_subcells)
    pts = (0.5 * np.stack((xk + a, a + b, b + xk), axis=1)).reshape(-1, 2)
    return pts, np.repeat(gd.subcell_volumes / 3.0, 3), np.repeat(np.arange(gd.n_subcells), 3)


def _value_error(quad, cells, value: Callable) -> float:
    """L2 norm of cell values minus ``value`` by a cell rule's flattening."""
    pts, w, cidx = quad
    diff = cells[cidx] - np.asarray(value(pts), dtype=float)
    return math.sqrt(float(w @ diff**2))


def _gradient_error(quad, grads, grad: Callable) -> float:
    """L2 norm of per-subcell gradients minus ``grad`` by a subcell rule's flattening."""
    pts, w, sidx = quad
    dx, dy = (grads[sidx] - np.asarray(grad(pts), dtype=float)).T
    return math.sqrt(float(w @ (dx * dx + dy * dy)))


# -- error norms -------------------------------------------------------------


@dataclass
class ErrorReport:
    """Discrete error norms of one transient run against an exact solution."""

    l2_per_node: np.ndarray
    grad_per_step: np.ndarray
    linf_l2: float
    spacetime_grad: float
    rel_l2_final: float
    rel_grad_final: float
    quadrature: str


def error_norms(gd: GradientDiscretisation, solution: TransientSolution,
                u_exact: Callable, grad_exact: Callable,
                rule: str = "centroid") -> ErrorReport:
    """Compare a run against an exact solution.

    ``u_exact(points, t)`` returns values, ``grad_exact(points, t)`` returns
    an (n, 2) array.  Relative norms divide by the exact-solution norms at
    the final time under the same quadrature; a zero exact norm is an error.
    """
    if u_exact is None or grad_exact is None:
        raise DiagnosticsError("error norms need both exact callables")
    if rule not in ("centroid", "fan3"):
        raise DiagnosticsError(f"unknown quadrature rule {rule!r}")
    times = solution.grid.nodes
    n_nodes = times.size
    if len(solution.vectors) != n_nodes:
        raise DiagnosticsError(
            f"{len(solution.vectors)} vectors for {n_nodes} time nodes")

    cells, subcells = _cell_quad_flat(gd.mesh, rule), _subcell_quad_flat(gd, rule)
    maps = list(_gradient_groups(gd))  # one pass, applied to every node
    nodes = [(float(t), u) for t, u in zip(times, solution.vectors)]
    l2 = np.array([_value_error(cells, u.cells, lambda p: u_exact(p, t)) for t, u in nodes])
    grad = np.array([_gradient_error(subcells, _apply_gradient_maps(gd, maps, u),
                                     lambda p: grad_exact(p, t)) for t, u in nodes[1:]])
    # The exact norms at T are the errors of the zero vector: (0 - x)^2 = x^2.
    T = nodes[-1][0]
    exact_l2 = _value_error(cells, np.zeros(gd.n_cells), lambda p: u_exact(p, T))
    exact_grad = _gradient_error(subcells, np.zeros((gd.n_subcells, 2)),
                                 lambda p: grad_exact(p, T))
    if exact_l2 <= 0.0 or exact_grad <= 0.0:
        raise DiagnosticsError(
            "exact solution norm vanishes at the final time; "
            "relative errors are undefined")

    return ErrorReport(
        l2_per_node=l2,
        grad_per_step=grad,
        linf_l2=float(np.max(l2)),
        spacetime_grad=math.sqrt(solution.grid.step * float(np.sum(grad**2))),
        rel_l2_final=float(l2[-1]) / exact_l2,
        rel_grad_final=float(grad[-1]) / exact_grad,
        quadrature=rule,
    )


def eoc(errors, sizes) -> np.ndarray:
    """Experimental orders of convergence between consecutive levels."""
    e = np.asarray(errors, dtype=float)
    h = np.asarray(sizes, dtype=float)
    if e.shape != h.shape or e.ndim != 1 or e.size < 2:
        raise DiagnosticsError(
            f"need matching 1-d arrays of at least two levels, "
            f"got shapes {e.shape} and {h.shape}")
    if np.any(e <= 0.0):
        raise DiagnosticsError("errors must be positive to take orders")
    if np.any(np.diff(h) >= 0.0) or np.any(h <= 0.0):
        raise DiagnosticsError("mesh sizes must be positive and strictly decreasing")
    return np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])


# -- quality measures --------------------------------------------------------


def _plain_solve(forms: AssembledForms):
    """l -> A0^{-1} l on the free unknowns (cells first), A0 the plain gradient form.

    The quality constants are taken in the unweighted gradient norm, whose
    form is the stiffness of the identity scheme.  When every Lambda_K of
    ``forms.gd`` is the identity that is ``forms.stiffness``; otherwise it is
    assembled from the same mesh with identity diffusion.  Its interior-edge
    complement S (see the module docstring) is SPD as A0 is, and goes through
    the solver's SPD factorisation, once per forms object.
    """
    if forms not in _plain_factors:
        gd = forms.gd
        stiffness = forms.stiffness
        if not np.all(gd.diffusion == np.eye(2)):
            stiffness = assemble_forms(build_gd(gd.mesh)).stiffness
        nc, edofs = gd.n_cells, gd.free_dofs[gd.n_cells:]
        cell_rows = stiffness[:nc]
        s_cc = cell_rows.diagonal()
        B = cell_rows[:, edofs]
        S = (stiffness[edofs][:, edofs] - (B.T @ sp.diags(1.0 / s_cc)) @ B).tocsc()
        try:
            lu = factorise_spd(S)
        except RuntimeError as exc:
            raise DiagnosticsError(f"gradient form is singular: {exc}") from exc

        def solve(ell: np.ndarray) -> np.ndarray:
            z = np.empty_like(ell)
            z[nc:] = lu.solve(ell[nc:] - B.T @ (ell[:nc] / s_cc))
            z[:nc] = (ell[:nc] - B @ z[nc:]) / s_cc
            return z

        _plain_factors[forms] = solve
    return _plain_factors[forms]


def estimate_CD(forms: AssembledForms) -> float:
    """Largest ratio of function to gradient reconstruction norms.

    Power iteration on the pencil (M, A0) restricted to the homogeneous
    unknowns of ``forms.gd``, stopped when the eigenvalue is stable to
    ``CD_TOL`` relative.  Each iterate z = A0^{-1} M x is scaled to unit A0
    norm, z^T A0 z being z^T M x; no iterate depends on the start's scale.
    """
    solve = _plain_solve(forms)
    mass = forms.mass_diag[forms.gd.free_dofs]

    mx = mass  # M x for the start x = 1
    lam = 0.0
    for _ in range(CD_MAX_ITER):
        z = solve(mx)
        zz = float(z @ mx)
        if zz <= 0.0:
            raise DiagnosticsError("power iteration collapsed to the null space")
        x = z / math.sqrt(zz)
        mx = mass * x
        lam_new = float(x @ mx)
        if abs(lam_new - lam) <= CD_TOL * max(lam_new, 1e-300):
            return math.sqrt(lam_new)
        lam = lam_new
    raise DiagnosticsError(
        f"power iteration did not stabilise within {CD_MAX_ITER} iterations")


def estimate_WD(forms: AssembledForms, omega: Callable, div_omega: Callable) -> float:
    """Dual norm of the discrete Stokes defect for the field omega on ``forms.gd``.

    ``omega(points)`` returns an (n, 2) array and ``div_omega(points)`` its
    divergence.  The supremum over homogeneous vectors is reached by the
    Riesz representative, so the value is sqrt(l^T A0^{-1} l).
    """
    gd = forms.gd
    pts, w, cidx = _cell_quad_flat(gd.mesh, "fan3")
    ell = np.bincount(cidx, w * np.asarray(div_omega(pts), dtype=float), minlength=gd.n_dofs)

    spts, sw, _ = _subcell_quad_flat(gd, "fan3")
    flux = sw[:, None] * np.asarray(omega(spts), dtype=float)
    moments = flux.reshape(gd.n_subcells, 3, 2).sum(axis=1)  # the rule's 3 points per subcell
    # The adjoint of the reconstruction: each local unknown takes its maps'
    # products with the moments of the cell's subcells.
    for _, corners, vals, cols in _gradient_groups(gd):
        products = np.einsum("sijk,ski->jk", vals, moments[corners])
        ell += np.bincount(cols.ravel(), products.ravel(), minlength=gd.n_dofs)

    ell_f = ell[gd.free_dofs]
    x = _plain_solve(forms)(ell_f)
    return math.sqrt(max(0.0, float(ell_f @ x)))


@dataclass
class SdBound:
    """Interpolation-based upper bound for the scheme consistency error."""

    total: float
    function_part: float
    gradient_part: float


def bound_SD(gd: GradientDiscretisation, phi: Callable, grad_phi: Callable,
             psi: np.ndarray) -> SdBound:
    """Reconstruction errors of the admissible sampling interpolant of phi,
    its cell values clipped from below at the per-cell obstacle values psi."""
    v = interpolate_exact(gd, phi, psi)
    func = _value_error(_cell_quad_flat(gd.mesh, "fan3"), v.cells, phi)
    grad = _gradient_error(_subcell_quad_flat(gd, "fan3"), reconstruct_gradient_flat(gd, v),
                           grad_phi)
    return SdBound(total=func + grad, function_part=func, gradient_part=grad)


def initial_interp_error(gd: GradientDiscretisation, u_ini: Callable,
                         psi: np.ndarray) -> float:
    """Distance between the initial datum and its admissible interpolant, the
    cell values max(u_ini(x_K), psi_K)."""
    cells = np.maximum(np.asarray(u_ini(gd.mesh.cell_points), dtype=float), psi)
    return _value_error(_cell_quad_flat(gd.mesh, "fan3"), cells, u_ini)


@dataclass
class GdQualityReport:
    """Stability and consistency indicators of one discretisation."""

    h: float
    n_cells: int
    n_edges: int
    c_d: float
    w_d: dict
    s_d: dict
    i_d0: dict


def standard_probes(bbox):
    """Built-in smooth probe fields for the quality report, on a given box."""
    xmin, xmax, ymin, ymax = bbox
    sx = 2.0 / (xmax - xmin)
    sy = 2.0 / (ymax - ymin)

    def omega(p):
        return np.column_stack((np.sin(math.pi * p[:, 0]), np.cos(math.pi * p[:, 1])))

    def div_omega(p):
        return math.pi * (np.cos(math.pi * p[:, 0]) - np.sin(math.pi * p[:, 1]))

    def bump(p):
        return (sx * sx * (p[:, 0] - xmin) * (xmax - p[:, 0])
                * sy * sy * (p[:, 1] - ymin) * (ymax - p[:, 1]))

    def grad_bump(p):
        fx = sx * sx * (p[:, 0] - xmin) * (xmax - p[:, 0])
        fy = sy * sy * (p[:, 1] - ymin) * (ymax - p[:, 1])
        dfx = sx * sx * (xmin + xmax - 2.0 * p[:, 0])
        dfy = sy * sy * (ymin + ymax - 2.0 * p[:, 1])
        return np.column_stack((dfx * fy, fx * dfy))

    return {
        "sinusoidal_field": (omega, div_omega),
        "polynomial_bump": (bump, grad_bump),
    }


def gd_quality_report(gd: GradientDiscretisation) -> GdQualityReport:
    """Evaluate all quality measures with the standard probes."""
    from .mesh import mesh_size

    forms = assemble_forms(gd)
    probes = standard_probes(gd.mesh.bbox)
    omega, div_omega = probes["sinusoidal_field"]
    bump, grad_bump = probes["polynomial_bump"]
    zero_psi = np.zeros(gd.n_cells)
    # W_D first: its functional's pass over the gradient maps then runs
    # before the plain factorisation both measures share, not on top of it.
    w_d = estimate_WD(forms, omega, div_omega)

    return GdQualityReport(
        h=mesh_size(gd.mesh),
        n_cells=gd.n_cells,
        n_edges=gd.n_edges,
        c_d=estimate_CD(forms),
        w_d={"sinusoidal_field": w_d},
        s_d={"polynomial_bump": bound_SD(gd, bump, grad_bump, zero_psi).total},
        i_d0={"polynomial_bump": initial_interp_error(gd, bump, zero_psi)},
    )
