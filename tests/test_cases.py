"""Built-in problem data, user case files and the expression grammar."""

import json
import re

import numpy as np
import pytest

from hmmvi import (BUILTIN_CASES, CaseError, ExpressionError, builtin_case,
                   compile_expression, load_case_file)
from hmmvi.cases import _t1_f_derived, _t1_f_printed, _t1_r2, _t1_radius


def compare_test1_sources() -> dict:
    """Largest discrepancy between the closed-form source and its sympy
    derivation off the contact set.

    Sampled on a 51 x 51 x 11 grid of (-1,1)^2 x [0,T]; the
    maximum of |printed - derived| over the sampled non-contact points is
    returned along with the sample counts.
    """
    xs = np.linspace(-1.0, 1.0, 51)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    points = np.column_stack((X.ravel(), Y.ravel()))
    worst = 0.0
    n_outside = 0
    for t in np.linspace(0.0, 0.25, 11):
        r2 = _t1_r2(points, float(t))
        mask = r2 > _t1_radius(float(t)) ** 2
        n_outside += int(np.count_nonzero(mask))
        d = np.abs(_t1_f_printed(points, float(t)) - _t1_f_derived(points, float(t)))
        if np.any(mask):
            worst = max(worst, float(np.max(d[mask])))
    return {"max_discrepancy": worst, "points_sampled": n_outside}


def admissibility_violation(case) -> float:
    """Largest psi - u_exact on a 101 x 101 x 11 grid of box x [0, T] (0 if admissible)."""
    xmin, xmax, ymin, ymax = case.bbox
    xs = np.linspace(xmin, xmax, 101)
    ys = np.linspace(ymin, ymax, 101)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    points = np.column_stack((X.ravel(), Y.ravel()))
    psi = case.spec.obstacle(points)
    worst = -np.inf
    for t in np.linspace(0.0, case.spec.final_time, 11):
        worst = max(worst, float(np.max(psi - case.u_exact(points, float(t)))))
    return worst


# -- built-in cases -----------------------------------------------------------


def test_builtin_names():
    assert set(BUILTIN_CASES) == {"test1", "test2", "smooth_baseline"}
    for name in BUILTIN_CASES:
        case = builtin_case(name)
        assert case.name == name
        assert case.spec.final_time > 0
    with pytest.raises(CaseError):
        builtin_case("missing")


def test_moving_disk_corner_value():
    # at t = 0 the contact disk has centre (1/3, 0) and radius 1/3, so the
    # corner (1, 1) sits at squared distance 13/9 and u = (13/9 - 1/9)^2 / 2
    case = builtin_case("test1")
    val = case.u_exact(np.array([[1.0, 1.0]]), 0.0)
    assert val[0] == pytest.approx(8.0 / 9.0, abs=1e-14)


def test_moving_disk_vanishes_inside_contact():
    case = builtin_case("test1")
    pts = np.array([[1.0 / 3.0, 0.0], [0.35, 0.05]])
    assert case.u_exact(pts, 0.0) == pytest.approx([0.0, 0.0], abs=1e-15)
    assert np.all(case.grad_exact(pts, 0.0) == 0.0)


def test_moving_disk_gradient_matches_finite_differences():
    case = builtin_case("test1")
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.95, 0.95, size=(200, 2))
    t = 0.13
    eps = 1e-6
    gx = (case.u_exact(pts + [eps, 0.0], t) - case.u_exact(pts - [eps, 0.0], t)) / (2 * eps)
    gy = (case.u_exact(pts + [0.0, eps], t) - case.u_exact(pts - [0.0, eps], t)) / (2 * eps)
    g = case.grad_exact(pts, t)
    # skip points straddling the free boundary where the stencil is one-sided
    smooth = np.abs(case.u_exact(pts, t)) > 1e-3
    assert np.abs(g[smooth, 0] - gx[smooth]).max() < 1e-5
    assert np.abs(g[smooth, 1] - gy[smooth]).max() < 1e-5


def test_source_variants_agree():
    report = compare_test1_sources()
    assert report["points_sampled"] > 10_000
    assert report["max_discrepancy"] < 1e-10


def test_test1_source_is_the_closed_form():
    assert builtin_case("test1").spec.source is _t1_f_printed
    assert builtin_case("test1", "derived_f").spec.source is _t1_f_derived


def test_unknown_variant_is_rejected():
    with pytest.raises(CaseError):
        builtin_case("test1", variant="third_kind")


def test_exact_solutions_stay_above_obstacles():
    for name in ("test1", "smooth_baseline"):
        assert admissibility_violation(builtin_case(name)) <= 1e-12


def test_obstacle_blob_shape():
    case = builtin_case("test2")
    pts = np.array([[0.0, 0.0], [0.0, 0.45], [0.0, 0.8], [1.0, 1.0]])
    psi = case.spec.obstacle(pts)
    assert psi[0] == pytest.approx(0.5)          # cone tip
    assert 0.0 < psi[1] < 0.5                    # inside the bump
    assert psi[2] == pytest.approx(0.0)          # flat plateau
    assert psi[3] == pytest.approx(0.0)          # corner
    # initial state rests on the obstacle
    assert case.spec.initial(pts) == pytest.approx(psi)


def test_recommended_settings_are_complete():
    for name in BUILTIN_CASES:
        rec = builtin_case(name).recommended
        assert rec["mesh_family"] in ("cartesian", "triangular", "hexagonal",
                                      "kershaw")
        assert len(rec["levels"]) >= 1
        assert "dt_rule" in rec


# -- expression grammar --------------------------------------------------------


def test_expressions_evaluate_vectorized():
    f = compile_expression("sin(pi*x)*exp(-t) + max(y, 0)", ("x", "y", "t"))
    x = np.array([0.5, 1.5])
    y = np.array([-2.0, 3.0])
    out = f(x=x, y=y, t=np.zeros(2))
    assert out == pytest.approx([1.0, -1.0 + 3.0])


def test_expression_comparison_and_where():
    f = compile_expression("where(r < 0.5, 1.0, 0.0)", ("r",))
    assert f(r=np.array([0.2, 0.7])) == pytest.approx([1.0, 0.0])


@pytest.mark.parametrize("text", [
    "__import__('os').system('true')",
    "x; y",
    "lambda: 1",
    "x if y else 0",
    "x.real",
    "[1, 2]",
    "{'a': 1}",
    "f'{x}'",
    "x < y < 1",
    "unknown_fn(x)",
    "q + 1",
    # bool is a subclass of int, but True and False are not numbers
    "x + True",
    "False",
    # the parser runs out of stack; ast construction exceeds the recursion limit
    pytest.param("-" * 100_000 + "x", id="deep-unary-minus"),
    pytest.param("x" + "+x" * 100_000, id="deep-sum"),
])
def test_bad_expressions_are_rejected(text):
    with pytest.raises(ExpressionError):
        compile_expression(text, ("x", "y"))


@pytest.mark.parametrize("text, message", [
    ("x // y", "operator FloorDiv not allowed"),
    ("x @ y", "operator MatMult not allowed"),
    ("~x", "operator Invert not allowed"),
    ("not x", "operator Not not allowed"),
    ("sin(x=1)", "keyword arguments are not part of the grammar"),
])
def test_expression_outside_the_grammar_names_what_is_refused(text, message):
    with pytest.raises(ExpressionError, match=f"^{re.escape(message)}$"):
        compile_expression(text, ("x", "y"))


@pytest.mark.parametrize("text, given, message", [
    ("min()", ("x", "y"), "min/max need at least one argument"),
    ("x + y", ("x",), "missing variables ['y']"),
])
def test_expression_evaluation_errors_name_the_cause(text, given, message):
    f = compile_expression(text, ("x", "y"))
    with pytest.raises(ExpressionError, match=f"^{re.escape(message)}$"):
        f(**{name: np.ones(2) for name in given})


# -- case files ----------------------------------------------------------------


def _write_case(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE_DOC = {
    "name": "tilted_plane",
    "final_time": 0.2,
    "source": "0*x",
    "obstacle": "-5 + 0*x",
    "initial": "0.1*x + 0.2*y",
    "dirichlet": "0.1*x + 0.2*y",
}


def test_case_file_roundtrip(tmp_path):
    case = load_case_file(_write_case(tmp_path, BASE_DOC))
    assert case.name == "tilted_plane"
    assert not case.has_exact
    pts = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert case.spec.initial(pts) == pytest.approx([0.3, 0.0])
    assert case.spec.dirichlet(pts, 0.1) == pytest.approx([0.3, 0.0])


def test_case_file_description_is_accepted_and_ignored(tmp_path):
    case = load_case_file(_write_case(tmp_path, dict(BASE_DOC, description="free text")))
    assert case.name == "tilted_plane"
    assert not hasattr(case, "description")


def test_case_file_with_exact_solution(tmp_path):
    doc = dict(BASE_DOC, exact={"u": "0.1*x + 0.2*y + 0*t",
                                "grad": ["0.1 + 0*x", "0.2 + 0*x"]})
    case = load_case_file(_write_case(tmp_path, doc))
    assert case.has_exact
    pts = np.array([[1.0, 2.0]])
    assert case.u_exact(pts, 0.0) == pytest.approx([0.5])
    assert case.grad_exact(pts, 0.0)[0] == pytest.approx([0.1, 0.2])


def test_case_file_missing_field(tmp_path):
    doc = {k: v for k, v in BASE_DOC.items() if k != "obstacle"}
    with pytest.raises(CaseError, match="obstacle"):
        load_case_file(_write_case(tmp_path, doc))


def test_case_file_bad_expression(tmp_path):
    doc = dict(BASE_DOC, source="import os")
    with pytest.raises(CaseError):
        load_case_file(_write_case(tmp_path, doc))


@pytest.mark.parametrize("expr", ["2**-1", "min()", "where(x)", "sin(x, y, t)"])
def test_case_field_that_fails_when_evaluated_is_a_case_error(tmp_path, expr):
    case = load_case_file(_write_case(tmp_path, dict(BASE_DOC, source=expr)))
    with pytest.raises(CaseError, match="source: cannot evaluate"):
        case.spec.source(np.zeros((3, 2)), 0.0)


def test_case_file_bad_diffusion(tmp_path):
    doc = dict(BASE_DOC, diffusion=[[1.0, 2.0, 3.0]])
    with pytest.raises(CaseError):
        load_case_file(_write_case(tmp_path, doc))


@pytest.mark.parametrize("recommended, message", [
    pytest.param([1, 2], "recommended must be an object, got [1, 2]", id="recommended-list"),
    pytest.param({"dt_rule": 0.01}, "recommended.dt_rule must be an object, got 0.01",
                 id="dt-rule-number"),
    pytest.param({"dt_rule": {"fixed": [0.1]}},
                 "recommended.dt_rule.fixed must be a finite number, got [0.1]",
                 id="dt-rule-list"),
    pytest.param({"dt_rule": {"coefficient": 1e400}},
                 "recommended.dt_rule.coefficient must be a finite number, got inf",
                 id="dt-rule-infinite"),
    pytest.param({"dt_rule": {"exponent": "x"}},
                 "recommended.dt_rule.exponent must be numeric, got 'x'", id="dt-rule-string"),
])
def test_case_file_bad_recommendation_names_the_field(tmp_path, recommended, message):
    # json writes inf as Infinity; the JSON number 1e400 reads back as inf.
    text = json.dumps(dict(BASE_DOC, recommended=recommended))
    path = tmp_path / "case.json"
    path.write_text(text.replace("Infinity", "1e400"))
    with pytest.raises(CaseError) as info:
        load_case_file(path)
    assert str(info.value) == f"{path}: {message}"


def test_case_file_dt_rule_numbers_are_kept_as_floats(tmp_path):
    rule = {"fixed": 0.05, "coefficient": 2, "exponent": 1}
    case = load_case_file(_write_case(tmp_path, dict(BASE_DOC, recommended={"dt_rule": rule})))
    got = case.recommended["dt_rule"]
    assert got == {"fixed": 0.05, "coefficient": 2.0, "exponent": 1.0}
    assert all(type(v) is float for v in got.values())


def test_case_file_not_json(tmp_path):
    path = tmp_path / "case.json"
    path.write_text("not json at all {")
    with pytest.raises(CaseError):
        load_case_file(path)
