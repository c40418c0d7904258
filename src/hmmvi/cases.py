"""Built-in benchmark cases and user-defined cases from files.

Three cases ship with the package:

* ``moving_contact`` (test1): a manufactured solution on (-1,1)^2 whose
  contact disk rotates around the origin while its radius oscillates.  The
  obstacle is zero, the boundary data follow the exact solution, and two
  source variants exist: ``printed_f`` uses the closed-form expression the
  benchmark is usually stated with, ``derived_f`` recomputes the source from
  the exact solution by symbolic differentiation.  Both agree on the contact
  region by construction; off it, the test suite compares them.
* ``spreading_contact`` (test2): a compactly supported obstacle bump under a
  uniform sink, homogeneous boundary data, no known closed-form solution.
* ``smooth_baseline``: an unconstrained smooth problem used to check that the
  scheme reaches its textbook orders when the obstacle never binds.

User cases are read from JSON files whose fields are expressions in the
small arithmetic language of :mod:`hmmvi.expressions`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .expressions import ExpressionError, compile_expression
from .timeloop import ProblemSpec


class CaseError(Exception):
    """Unknown case name, bad case file, or missing exact solution."""


BUILTIN_CASES = ("test1", "test2", "smooth_baseline")


@dataclass(frozen=True)
class AnalyticCase:
    """A problem specification plus whatever exact data the case has.

    ``u_exact(points, t)`` and ``grad_exact(points, t)`` are None when the
    case has no closed-form solution.  ``recommended`` carries the settings
    the convergence driver uses by default (mesh family, levels, time step
    rule as dt = coefficient * h**exponent).
    """

    name: str
    spec: ProblemSpec
    bbox: tuple
    u_exact: Optional[Callable] = None
    grad_exact: Optional[Callable] = None
    recommended: dict = field(default_factory=dict)

    @property
    def has_exact(self) -> bool:
        return self.u_exact is not None and self.grad_exact is not None


# -- manufactured case with a moving contact disk ----------------------------

_T1_OMEGA = 4.0 * math.pi       # angular speed of the contact disk center
_T1_PULSE = 16.0 * math.pi      # angular speed of the radius oscillation


def _t1_center(t):
    return np.cos(_T1_OMEGA * t) / 3.0, np.sin(_T1_OMEGA * t) / 3.0


def _t1_center_dot(t):
    return (-_T1_OMEGA / 3.0 * np.sin(_T1_OMEGA * t),
            _T1_OMEGA / 3.0 * np.cos(_T1_OMEGA * t))


def _t1_radius(t):
    return 1.0 / 3.0 + 0.3 * np.sin(_T1_PULSE * t)


def _t1_radius_dot(t):
    return 0.3 * _T1_PULSE * np.cos(_T1_PULSE * t)


def _t1_r2(points, t):
    q1, q2 = _t1_center(t)
    return (points[:, 0] - q1) ** 2 + (points[:, 1] - q2) ** 2


def _t1_u(points, t):
    r2 = _t1_r2(points, t)
    s2 = _t1_radius(t) ** 2
    return np.where(r2 > s2, 0.5 * (r2 - s2) ** 2, 0.0)


def _t1_grad(points, t):
    q1, q2 = _t1_center(t)
    r2 = _t1_r2(points, t)
    s2 = _t1_radius(t) ** 2
    factor = np.where(r2 > s2, 2.0 * (r2 - s2), 0.0)
    return np.column_stack((factor * (points[:, 0] - q1),
                            factor * (points[:, 1] - q2)))


def _t1_f_contact(r2, t):
    s2 = _t1_radius(t) ** 2
    return -4.0 * s2 * (1.0 - r2 + s2)


def _t1_f_printed(points, t):
    q1, q2 = _t1_center(t)
    q1d, q2d = _t1_center_dot(t)
    s = _t1_radius(t)
    s2 = s * s
    r2 = _t1_r2(points, t)
    p = (points[:, 0] - q1) * q1d + (points[:, 1] - q2) * q2d
    outside = 4.0 * (s2 - 2.0 * r2 - 0.5 * (r2 - s2) * (p + s * _t1_radius_dot(t)))
    return np.where(r2 > s2, outside, _t1_f_contact(r2, t))


@lru_cache(maxsize=1)
def _t1_f_derived_outside():
    """Source on the non-contact region, recomputed from the exact solution.

    Differentiates u = (r^2 - s^2)^2 / 2 symbolically and lambdifies
    du/dt - laplace(u), giving an oracle independent of the closed form.
    """
    import sympy

    x, y, t = sympy.symbols("x y t", real=True)
    q1 = sympy.cos(_T1_OMEGA * t) / 3
    q2 = sympy.sin(_T1_OMEGA * t) / 3
    s = sympy.Rational(1, 3) + sympy.Rational(3, 10) * sympy.sin(_T1_PULSE * t)
    r2 = (x - q1) ** 2 + (y - q2) ** 2
    u = (r2 - s ** 2) ** 2 / 2
    f = sympy.diff(u, t) - sympy.diff(u, x, 2) - sympy.diff(u, y, 2)
    return sympy.lambdify((x, y, t), f, modules="numpy")


def _t1_f_derived(points, t):
    fn = _t1_f_derived_outside()
    r2 = _t1_r2(points, t)
    s2 = _t1_radius(t) ** 2
    outside = fn(points[:, 0], points[:, 1], t)
    return np.where(r2 > s2, outside, _t1_f_contact(r2, t))


def test1_case(variant: str = "derived_f") -> AnalyticCase:
    """Manufactured moving-contact problem on (-1,1)^2, horizon T = 0.25."""
    if variant == "printed_f":
        source = lambda points, t: _t1_f_printed(points, t)
    elif variant == "derived_f":
        _t1_f_derived_outside()
        source = lambda points, t: _t1_f_derived(points, t)
    else:
        raise CaseError(f"unknown source variant {variant!r} "
                        f"(expected 'printed_f' or 'derived_f')")
    spec = ProblemSpec(
        source=source,
        obstacle=lambda points: np.zeros(points.shape[0]),
        initial=lambda points: _t1_u(points, 0.0),
        final_time=0.25,
        dirichlet=lambda points, t: _t1_u(points, t),
    )
    return AnalyticCase(
        name="test1",
        spec=spec,
        bbox=(-1.0, 1.0, -1.0, 1.0),
        u_exact=_t1_u,
        grad_exact=_t1_grad,
        recommended={
            "mesh_family": "triangular",
            "levels": [11, 16, 32],
            "dt_rule": {"coefficient": 1.0, "exponent": 2.0},
        },
    )


# -- obstacle bump under a uniform sink ---------------------------------------


def _t2_obstacle(points):
    r = np.sqrt(points[:, 0] ** 2 + points[:, 1] ** 2)
    return np.maximum.reduce([
        np.zeros_like(r),
        -0.1 + 0.6 * np.exp(-10.0 * r ** 2),
        0.5 - r,
    ])


def test2_case() -> AnalyticCase:
    """Compactly supported obstacle, source -4, zero boundary data, T = 0.1.

    The initial datum is the obstacle itself, the smallest admissible start
    compatible with the homogeneous boundary values.  No closed-form
    solution; runs are judged by the shape of the contact region and by the
    active-set iteration counts.
    """
    spec = ProblemSpec(
        source=lambda points, t: np.full(points.shape[0], -4.0),
        obstacle=_t2_obstacle,
        initial=_t2_obstacle,
        final_time=0.1,
    )
    return AnalyticCase(
        name="test2",
        spec=spec,
        bbox=(-1.0, 1.0, -1.0, 1.0),
        recommended={
            "mesh_family": "cartesian",
            "levels": [6],
            "dt_rule": {"fixed": 0.01},
        },
    )


# -- smooth unconstrained baseline --------------------------------------------


def _baseline_u(points, t):
    return (np.sin(math.pi * points[:, 0]) * np.sin(math.pi * points[:, 1])
            * np.exp(-t))


def _baseline_grad(points, t):
    decay = np.exp(-t) * math.pi
    return np.column_stack((
        decay * np.cos(math.pi * points[:, 0]) * np.sin(math.pi * points[:, 1]),
        decay * np.sin(math.pi * points[:, 0]) * np.cos(math.pi * points[:, 1]),
    ))


def smooth_baseline_case() -> AnalyticCase:
    """Unconstrained heat problem with exact solution sin sin exp(-t).

    The obstacle sits at -1e9 so the constraint never binds and the solver
    must reduce to plain implicit Euler in a single iteration per step.
    """
    spec = ProblemSpec(
        source=lambda points, t: (2.0 * math.pi ** 2 - 1.0) * _baseline_u(points, t),
        obstacle=lambda points: np.full(points.shape[0], -1e9),
        initial=lambda points: _baseline_u(points, 0.0),
        final_time=0.1,
    )
    return AnalyticCase(
        name="smooth_baseline",
        spec=spec,
        bbox=(-1.0, 1.0, -1.0, 1.0),
        u_exact=_baseline_u,
        grad_exact=_baseline_grad,
        recommended={
            "mesh_family": "triangular",
            "levels": [8, 16, 32],
            # dt must stay well below the spatial error for clean second-order
            # value convergence; h^2/8 keeps the implicit Euler error subdominant.
            "dt_rule": {"coefficient": 0.125, "exponent": 2.0},
        },
    )


def builtin_case(name: str, variant: str = "derived_f") -> AnalyticCase:
    """Look up a built-in case by name."""
    if name == "test1":
        return test1_case(variant)
    if name == "test2":
        return test2_case()
    if name == "smooth_baseline":
        return smooth_baseline_case()
    raise CaseError(f"unknown case {name!r}, expected one of {BUILTIN_CASES} "
                    f"or a case file path")


# -- user-defined cases -------------------------------------------------------


def _space_env(points):
    return {"x": points[:, 0], "y": points[:, 1],
            "r": np.sqrt(points[:, 0] ** 2 + points[:, 1] ** 2)}


def _space_fn(expr_text, what, variables=("x", "y", "r")):
    """One value per point; an expression that fails, also when evaluated
    (``2**-1``, ``sin()``, ``where(x)``), is a CaseError naming the field."""
    try:
        fn = compile_expression(expr_text, variables)
    except ExpressionError as exc:
        raise CaseError(f"{what}: {exc}") from exc

    def evaluate(points, **time):
        try:
            values = np.asarray(fn(**time, **_space_env(points)), dtype=float)
            return np.broadcast_to(values, (points.shape[0],)).copy()
        except (ExpressionError, ArithmeticError, RecursionError, TypeError,
                ValueError) as exc:
            raise CaseError(f"{what}: cannot evaluate {expr_text!r}: {exc}") from exc
    return evaluate


def _spacetime_fn(expr_text, what):
    evaluate = _space_fn(expr_text, what, ("x", "y", "r", "t"))
    return lambda points, t: evaluate(points, t=t)


def _has_bool_or_str(value) -> bool:
    if isinstance(value, list):
        return any(_has_bool_or_str(item) for item in value)
    return isinstance(value, (bool, str))


def _numbers(value, what) -> np.ndarray:
    # numpy reads true as 1.0 and "0.1" as 0.1, so a mistyped flag or a
    # quoted number would become a number.
    if _has_bool_or_str(value):
        raise CaseError(f"{what} must be numeric, got {value!r}")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CaseError(f"{what} must be numeric, got {value!r}") from exc


def load_case_file(path) -> AnalyticCase:
    """Read a user case from a JSON file (schema in docs/formats.md)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: also bad UTF-8
        raise CaseError(f"cannot read case file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CaseError(f"{path}: case file must hold a JSON object")
    for key in ("name", "final_time", "source", "obstacle", "initial"):
        if key not in doc:
            raise CaseError(f"{path}: missing required field {key!r}")

    final_time = _numbers(doc["final_time"], f"{path}: final_time")
    if final_time.shape != () or not 0.0 < final_time < math.inf:
        raise CaseError(f"{path}: final_time must be a finite positive number, "
                        f"got {doc['final_time']!r}")

    diffusion = doc.get("diffusion")
    if diffusion is not None:
        diffusion = _numbers(diffusion, f"{path}: diffusion")
        if diffusion.shape == ():
            diffusion = np.diag([float(diffusion)] * 2)
        elif diffusion.shape != (2, 2):
            raise CaseError(f"{path}: diffusion must be a scalar or a 2x2 matrix")

    spec = ProblemSpec(
        source=_spacetime_fn(doc["source"], f"{path}: source"),
        obstacle=_space_fn(doc["obstacle"], f"{path}: obstacle"),
        initial=_space_fn(doc["initial"], f"{path}: initial"),
        final_time=float(final_time),
        diffusion=diffusion,
        dirichlet=(_spacetime_fn(doc["dirichlet"], f"{path}: dirichlet")
                   if "dirichlet" in doc else None),
    )

    u_exact = grad_exact = None
    if "exact" in doc:
        exact = doc["exact"]
        if not isinstance(exact, dict) or "u" not in exact or "grad" not in exact:
            raise CaseError(f"{path}: 'exact' needs fields 'u' and 'grad'")
        u_exact = _spacetime_fn(exact["u"], f"{path}: exact u")
        grad = exact["grad"]
        if not isinstance(grad, list) or len(grad) != 2:
            raise CaseError(f"{path}: exact.grad must be a list of two expressions, "
                            f"got {grad!r}")
        gx = _spacetime_fn(grad[0], f"{path}: exact grad x")
        gy = _spacetime_fn(grad[1], f"{path}: exact grad y")
        grad_exact = lambda points, t: np.column_stack((gx(points, t), gy(points, t)))

    bbox = _numbers(doc.get("bbox", (-1.0, 1.0, -1.0, 1.0)), f"{path}: bbox")
    if bbox.shape != (4,) or not np.isfinite(bbox).all():
        raise CaseError(f"{path}: bbox must have four finite entries, got {doc['bbox']!r}")

    recommended = doc.get("recommended", {})
    if not isinstance(recommended, dict):
        raise CaseError(f"{path}: recommended must be an object, got {recommended!r}")
    rule = recommended.get("dt_rule", {})
    if not isinstance(rule, dict):
        raise CaseError(f"{path}: recommended.dt_rule must be an object, got {rule!r}")
    for key in sorted(rule.keys() & {"fixed", "coefficient", "exponent"}):
        number = _numbers(rule[key], f"{path}: recommended.dt_rule.{key}")
        if number.shape != () or not np.isfinite(number):
            raise CaseError(f"{path}: recommended.dt_rule.{key} must be a finite "
                            f"number, got {rule[key]!r}")
        rule[key] = float(number)

    return AnalyticCase(
        name=str(doc["name"]),
        spec=spec,
        bbox=tuple(bbox.tolist()),
        u_exact=u_exact,
        grad_exact=grad_exact,
        recommended=recommended,
    )
