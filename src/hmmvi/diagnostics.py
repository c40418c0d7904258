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

from .discretisation import (AssembledForms, GradientDiscretisation, assemble_forms,
                             build_gd, interpolate_exact, reconstruct_gradient_flat)
from .solver import factorise_spd
from .timeloop import TransientSolution


# The C_D power iteration stops at this relative change, or fails after CD_MAX_ITER.
CD_TOL = 1e-8
CD_MAX_ITER = 10_000

# forms -> (A0, its factorisation), see _plain_factorisation; dropped with the forms.
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


def _gradient_error(quad, gd, v, grad: Callable) -> float:
    """L2 norm of v's reconstructed gradient minus ``grad`` by a subcell rule's flattening."""
    pts, w, sidx = quad
    diff = reconstruct_gradient_flat(gd, v)[sidx] - np.asarray(grad(pts), dtype=float)
    return math.sqrt(float(w @ np.sum(diff**2, axis=1)))


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
    nodes = [(float(t), u) for t, u in zip(times, solution.vectors)]
    l2 = np.array([_value_error(cells, u.cells, lambda p: u_exact(p, t)) for t, u in nodes])
    grad = np.array([_gradient_error(subcells, gd, u, lambda p: grad_exact(p, t))
                     for t, u in nodes[1:]])
    # The exact norms at T are the errors of the zero vector: (0 - x)^2 = x^2.
    T, zero = nodes[-1][0], gd.zeros()
    exact_l2 = _value_error(cells, zero.cells, lambda p: u_exact(p, T))
    exact_grad = _gradient_error(subcells, gd, zero, lambda p: grad_exact(p, T))
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


def _plain_factorisation(forms: AssembledForms):
    """(A0, its factorisation), A0 the plain gradient form on the free unknowns.

    The quality constants are taken in the unweighted gradient norm, whose
    form is the stiffness of the identity scheme.  When every Lambda_K of
    ``forms.gd`` is the identity that is ``forms.stiffness``; otherwise it is
    assembled from the same mesh with identity diffusion.  A0 is symmetric
    positive definite, so it goes through the solver's SPD factorisation,
    once per forms object.
    """
    if forms not in _plain_factors:
        gd = forms.gd
        stiffness = forms.stiffness
        if not np.all(gd.diffusion == np.eye(2)):
            stiffness = assemble_forms(build_gd(gd.mesh)).stiffness
        free = gd.free_dofs
        A0 = stiffness[free][:, free].tocsc()
        try:
            lu = factorise_spd(A0)
        except RuntimeError as exc:
            raise DiagnosticsError(f"gradient form is singular: {exc}") from exc
        _plain_factors[forms] = (A0, lu)
    return _plain_factors[forms]


def estimate_CD(forms: AssembledForms) -> float:
    """Largest ratio of function to gradient reconstruction norms.

    Power iteration on the pencil (M, A0) restricted to the homogeneous
    unknowns of ``forms.gd``, stopped when the eigenvalue is stable to
    ``CD_TOL`` relative.
    """
    free = forms.gd.free_dofs
    A0, lu = _plain_factorisation(forms)
    mass = forms.mass_diag[free]

    x = np.ones(free.size)
    x /= math.sqrt(float(x @ (A0 @ x)))
    lam = 0.0
    for _ in range(CD_MAX_ITER):
        z = lu.solve(mass * x)
        nrm = math.sqrt(float(z @ (A0 @ z)))
        if nrm == 0.0:
            raise DiagnosticsError("power iteration collapsed to the null space")
        x = z / nrm
        lam_new = float(x @ (mass * x))
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

    spts, sw, sidx = _subcell_quad_flat(gd, "fan3")
    flux = sw[:, None] * np.asarray(omega(spts), dtype=float)
    moments = np.column_stack([np.bincount(sidx, f, minlength=gd.n_subcells) for f in flux.T])
    ell += gd._grad_matrix.T @ moments.ravel()

    ell_f = ell[gd.free_dofs]
    x = _plain_factorisation(forms)[1].solve(ell_f)
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
    grad = _gradient_error(_subcell_quad_flat(gd, "fan3"), gd, v, grad_phi)
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

    return GdQualityReport(
        h=mesh_size(gd.mesh),
        n_cells=gd.n_cells,
        n_edges=gd.n_edges,
        c_d=estimate_CD(forms),
        w_d={"sinusoidal_field": estimate_WD(forms, omega, div_omega)},
        s_d={"polynomial_bump": bound_SD(gd, bump, grad_bump, zero_psi).total},
        i_d0={"polynomial_bump": initial_interp_error(gd, bump, zero_psi)},
    )
