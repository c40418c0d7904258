"""Command line driver, exercised in-process through main()."""

import importlib
import json
import logging
import logging.handlers
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmvi.cli
import hmmvi.mesh
import hmmvi.solver
import hmmvi.timeloop
from hmmvi import MESH_FAMILIES
from hmmvi.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main, parse_levels

from test_export import parse_vtk


REPO = Path(__file__).resolve().parents[1]


def frozen(workload):
    """The benchmark's frozen numbers of one workload, which tests only read."""
    return json.loads((REPO / "benchmarks" / "reference.json").read_text())[workload]


def run_cli(*argv):
    return main(list(argv))


def test_parse_levels_forms():
    assert parse_levels("3") == [3]
    assert parse_levels("1..4") == [1, 2, 3, 4]
    assert parse_levels("2,5,9") == [2, 5, 9]
    assert parse_levels([1, 2]) == [1, 2]


# A range is checked before it is expanded: the one below would otherwise
# ask for a list of 10**18 levels.
@pytest.mark.parametrize("levels, bad", [("1..1000000000000000000", 10**18),
                                         ("-1000000000000000000..2", -10**18),
                                         ("2,1001", 1001)])
def test_level_no_family_generates_is_one_usage_line(tmp_path, capsys, levels, bad):
    out = tmp_path / "meshes"
    code = run_cli("meshgen", "--family", "cartesian", f"--levels={levels}",
                   "--out", str(out))
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE and len(lines) == 1, lines
    assert f"level {bad} is outside 1..{hmmvi.mesh.MAX_LEVEL}" in lines[0]
    assert not out.exists()


def test_meshgen_writes_levels(tmp_path):
    out = tmp_path / "meshes"
    code = run_cli("meshgen", "--family", "cartesian", "--levels", "1..2",
                   "--out", str(out))
    assert code == EXIT_OK
    files = sorted(p.name for p in out.iterdir())
    assert files == ["cartesian_l01.json", "cartesian_l02.json"]


# meshgen's save and validate's load, on every family: a mesh file's content
# names its format, not its extension, and only kershaw records an amplitude.
@pytest.mark.parametrize("family, level, bbox, name", [
    pytest.param("hexagonal", 2, None, "hexagonal_l02.json", id="hexagonal-2"),
    pytest.param("hexagonal", 2, None, "hexagonal_l02", id="hexagonal-2-without-json"),
    pytest.param("kershaw", 2, None, "kershaw_l02.json", id="kershaw-2"),
    pytest.param("cartesian", 3, None, "cartesian_l03.json", id="cartesian-3"),
    pytest.param("triangular", 8, None, "triangular_l08.json", id="triangular-8"),
    # a top box line 1e-8 above a row of corners: they move onto it
    pytest.param("hexagonal", 3, "0,1,0,0.8660254137844386", "hexagonal_l03.json",
                 id="hexagonal-3-box-near-a-corner-row"),
    # a lattice cut too short in either axis would leave cells out
    pytest.param("hexagonal", 4, "-2.5,3.5,0.2,0.9", "hexagonal_l04.json",
                 id="hexagonal-4-wide-flat-off-centre-box"),
])
def test_validate_accepts_generated_mesh(tmp_path, family, level, bbox, name):
    box = [f"--bbox={bbox}"] if bbox else []
    assert run_cli("meshgen", "--family", family, "--levels", str(level), *box,
                   "--out", str(tmp_path)) == EXIT_OK
    path = (tmp_path / f"{family}_l{level:02d}.json").rename(tmp_path / name)
    assert run_cli("validate", str(path)) == EXIT_OK
    amplitude = json.loads(path.read_text())["metadata"].get("distortion_amplitude")
    assert amplitude == (0.21 if family == "kershaw" else None)


def test_validate_missing_file_is_usage_error(tmp_path):
    assert run_cli("validate", str(tmp_path / "nope.json")) == EXIT_USAGE


@pytest.mark.parametrize("field, value", [
    ("cell_points", [[0.5, 0.5], [0.2, 0.2]]),
    ("cells", [[0, 1, 2, "a"]]),
    ("cells", [[0, 1, 2, [3]]]),
    ("cells", [[0, 1, 2.7, 3]]),
    ("vertices", [[0, 0], [1, "x"], [1, 1], [0, 1]]),
    ("metadata", 5),
])
def test_validate_rejects_malformed_native_json(tmp_path, field, value):
    doc = {"format": "polytopal-mesh", "version": 1,
           "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
           "cells": [[0, 1, 2, 3]], "cell_points": [[0.5, 0.5]]}
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "hmmvi.cli", "validate", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert field in proc.stderr or "cell 0" in proc.stderr


def test_solve_writes_outputs(tmp_path):
    out = tmp_path / "run"
    code = run_cli("solve", "--case", "test2", "--family", "cartesian",
                   "--level", "3", "--dt", "0.02", "--out", str(out),
                   "--vtk-every", "2")
    assert code == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert "run.json" in names
    assert "cells_final.csv" in names
    # every 2nd step plus the forced final snapshot
    assert {n for n in names if n.startswith("snapshot")} == {
        "snapshot_0002.vtk", "snapshot_0004.vtk", "snapshot_0005.vtk"}
    record = json.loads((out / "run.json").read_text())
    assert record["case"] == "test2"
    assert record["mesh"]["cells"] == 64
    assert len(record["iterations"]) == 5
    n_steps = len(record["time_nodes"]) - 1
    assert len(record["steps"]) == n_steps
    assert [s["iterations"] for s in record["steps"]] == record["iterations"]
    # The first step's two Schur complements differ in pattern and are both
    # ordered; every later one has the pattern of the last and reuses it.
    assert [s["orderings"] for s in record["steps"]] == [2, 0, 0, 0, 0]
    assert record["iterations"][0] == 2
    assert record["complementarity_max"] <= 1e-8
    timings = record["solver_timings"]
    assert set(timings) == {"schur_s", "factor_s", "linear_s", "update_s"}
    assert all(v >= 0.0 for v in timings.values())
    assert timings["factor_s"] <= timings["linear_s"]
    assert timings["schur_s"] <= timings["linear_s"]


def test_solve_without_an_exact_solution_makes_one_gradient_pass(tmp_path, gradient_passes):
    # the assembly's: no error norms, so no reconstruction
    code = run_cli("solve", "--case", "test2", "--family", "cartesian", "--level", "3",
                   "--dt", "0.05", "--formats", "json", "--out", str(tmp_path / "run"))
    assert code == EXIT_OK
    assert len(gradient_passes) == 1


@pytest.mark.parametrize("formats, snapshots", [("vtk,json", 2), ("json", 0)])
def test_run_record_has_the_snapshot_time(tmp_path, formats, snapshots):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "solve", "--quiet", "--case", "test2",
         "--family", "cartesian", "--level", "2", "--dt", "0.05",
         "--formats", formats, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    record = json.loads((out / "run.json").read_text())
    assert len(record["snapshots"]) == snapshots
    assert isinstance(record["snapshot_seconds"], float)
    assert record["build_gd_seconds"] > 0.0
    if snapshots:
        assert 0.0 < record["snapshot_seconds"] < record["wall_seconds"]
    else:
        assert record["snapshot_seconds"] == 0.0


def test_run_record_says_what_each_factorisation_cost(tmp_path):
    # Per active-set iteration, the Schur complement's stored entries and
    # its factor's L + U entries, which hold at least the complement's.
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "solve", "--quiet", "--case", "test2",
         "--family", "cartesian", "--level", "3", "--dt", "0.02",
         "--formats", "json", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    steps = json.loads((out / "run.json").read_text())["steps"]
    assert len(steps) == 5 and steps[0]["iterations"] == 2
    for step in steps:
        assert len(step["schur_nnz"]) == len(step["factor_nnz"]) == step["iterations"]
        for schur, factor in zip(step["schur_nnz"], step["factor_nnz"]):
            assert type(schur) is int and type(factor) is int and 0 < schur <= factor


def test_solve_on_a_mixed_cell_mesh_file(tmp_path):
    # Hexagonal cells have 3 to 6 corners, so the stiffness is assembled in
    # one pass per cell size.
    assert run_cli("meshgen", "--family", "hexagonal", "--levels", "2",
                   "--out", str(tmp_path)) == EXIT_OK
    out = tmp_path / "run"
    assert run_cli("solve", "--case", "test2", "--mesh", str(tmp_path / "hexagonal_l02.json"),
                   "--formats", "json", "--out", str(out)) == EXIT_OK
    record = json.loads((out / "run.json").read_text())
    assert record["build_gd_seconds"] > 0
    assert len(record["steps"]) == len(record["time_nodes"]) - 1 >= 1


_ANISOTROPIC = {"name": "anisotropic", "final_time": 0.1, "source": "-4+x*x",
                "obstacle": "-0.05+0*x", "initial": "0*x",
                "diffusion": [[1.5, 0.2], [0.2, 3.0]]}


@pytest.mark.parametrize("argv", [
    pytest.param(["--case", "test1", "--family", "triangular", "--level", "8"],
                 id="test1-triangular-8"),
    pytest.param(["--case", "test2", "--family", "cartesian", "--level", "4"],
                 id="test2-cartesian-4"),
    *(pytest.param(["--case", "test2", "--family", family, "--level", "3"],
                   id=f"test2-{family}-3") for family in MESH_FAMILIES),
    *(pytest.param(["--quiet", "--case-file", "{case}", "--family", family, "--level", "3"],
                   id=f"anisotropic-{family}-3") for family in MESH_FAMILIES),
])
def test_march_is_complementary_and_conservative_and_reuses_orderings(tmp_path, argv):
    # Each solve's balance residual serves its set update and its
    # complementarity measure, and the flux defect comes from one stiffness
    # product per solve: both stay at rounding level, also for a constant
    # anisotropic tensor.  The Schur complement build is timed inside the
    # linear solve, and a complement with the pattern of the last one ordered
    # reuses its ordering.
    (tmp_path / "case.json").write_text(json.dumps(_ANISOTROPIC))
    out = tmp_path / "run"
    assert run_cli("solve", *[a.format(case=tmp_path / "case.json") for a in argv],
                   "--formats", "json", "--out", str(out)) == EXIT_OK
    record = json.loads((out / "run.json").read_text())
    assert record["complementarity_max"] < 1e-10
    assert record["conservation_defect"] < 1e-10
    timings = record["solver_timings"]
    assert 0 < timings["schur_s"] <= timings["linear_s"]
    steps = record["steps"]
    assert sum(s["orderings"] for s in steps) < sum(s["iterations"] for s in steps)


def _cartesian_test2_march(tmp_path, level):
    out = tmp_path / "run"
    assert run_cli("solve", "--case", "test2", "--family", "cartesian", "--level", str(level),
                   "--dt", "0.01", "--formats", "json", "--out", str(out)) == EXIT_OK
    return json.loads((out / "run.json").read_text())


def test_cartesian_5_march_keeps_its_lists(tmp_path):
    # Cartesian meshes are the one family whose Schur complement drops exact
    # zeros, and so gets a new ordering when its pattern changes.
    run = _cartesian_test2_march(tmp_path, 5)
    assert run["iterations"] == [5, 2, 1, 1, 1, 1, 1, 1, 1, 1]
    assert run["contact_cells"] == [912] + [896] * 9
    assert [step["orderings"] for step in run["steps"]] == [5, 1] + [0] * 8


def test_cartesian_7_march_matches_the_benchmarks_frozen_lists(tmp_path):
    # The setup-bound workload's march.  Every iteration records its factor's
    # L + U entries; the count depends on the SuperLU version, so it is not
    # pinned.
    run = _cartesian_test2_march(tmp_path, 7)
    want = frozen("t2-cart7-snapshots")
    assert run["iterations"] == want["iterations"]
    assert run["contact_cells"] == want["contact_cells"]
    for step in run["steps"]:
        assert len(step["factor_nnz"]) == step["iterations"]
        assert all(n > 0 for n in step["factor_nnz"])


@pytest.mark.parametrize("field,expr", [("source", "log(x)"),
                                        ("initial", "log(x)"),
                                        ("obstacle", "log(x)"),
                                        ("dirichlet", "sqrt(x-2)+t")])
def test_nonfinite_case_data_is_named(tmp_path, field, expr):
    # The march refuses the data where they enter, in one line.
    spec = {"name": "bad", "final_time": 0.1, "source": "0*x",
            "obstacle": "-10 + 0*x", "initial": "0.5*x"}
    spec[field] = expr
    case = tmp_path / "bad.json"
    case.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "solve", "--quiet", "--case-file", str(case),
         "--family", "cartesian", "--level", "2", "--dt", "0.05",
         "--out", str(tmp_path / "run"), "--formats", "json"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_NUMERICAL
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert f"{field} values are not finite at t = " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


def test_nonfinite_diffusion_is_named(tmp_path):
    spec = {"name": "bad", "final_time": 0.1, "source": "0*x",
            "obstacle": "-10 + 0*x", "initial": "0.5*x", "dirichlet": "0.5*x",
            "diffusion": [[float("nan"), 0.0], [0.0, 1.0]]}
    case = tmp_path / "bad.json"
    case.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "solve", "--case-file", str(case),
         "--family", "cartesian", "--level", "2", "--dt", "0.05",
         "--out", str(tmp_path / "run"), "--formats", "json"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_NUMERICAL
    assert "diffusion tensor on cell 0 is not finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("field, value", [
    ("final_time", "abc"),
    ("final_time", [1]),
    ("final_time", float("nan")),
    ("final_time", -1),
    ("diffusion", "abc"),
    ("diffusion", [[1, 0], [0, "x"]]),
    ("bbox", ["a", 1, -1, 1]),
])
def test_case_file_bad_numbers_are_usage_errors(tmp_path, field, value):
    spec = {"name": "bad", "final_time": 0.1, "source": "0*x",
            "obstacle": "-10 + 0*x", "initial": "0.5*x"}
    spec[field] = value
    case = tmp_path / "bad.json"
    case.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "solve", "--case-file", str(case),
         "--family", "cartesian", "--level", "2", "--dt", "0.05",
         "--out", str(tmp_path / "run"), "--formats", "json"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
    assert len(proc.stderr.strip().splitlines()) == 1
    assert f"{field} must be" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("grad", [[], 5, ["x"], ["x", "y", "z"]])
def test_case_file_bad_exact_grad_is_a_usage_error(tmp_path, grad):
    spec = {"name": "bad", "final_time": 0.1, "source": "0*x",
            "obstacle": "-10 + 0*x", "initial": "0.5*x",
            "exact": {"u": "0*x", "grad": grad}}
    case = tmp_path / "bad.json"
    case.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "solve", "--case-file", str(case),
         "--family", "cartesian", "--level", "2", "--dt", "0.05",
         "--out", str(tmp_path / "run"), "--formats", "json"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "exact.grad must be a list of two expressions" in proc.stderr
    assert "Traceback" not in proc.stderr


_GOOD_CASE = {"name": "plane", "final_time": 0.1, "source": "0*x",
              "obstacle": "-10 + 0*x", "initial": "0.5*x"}


@pytest.mark.parametrize("argv, files, field", [
    pytest.param(["--case", "test2", "--level", "2", "--dt", "0.05",
                  "--vtk-every", "0"], {}, "vtk_every", id="vtk-every-zero"),
    pytest.param(["--case", "test2", "--level", "2", "--dt", "0.05",
                  "--vtk-every", "-1"], {}, "vtk_every", id="vtk-every-negative"),
    pytest.param(["--case", "test2", "--level", "2", "--dt", "nan"], {},
                 "time step", id="dt-nan"),
    pytest.param(["--case", "test2", "--level", "2", "--dt", "inf"], {},
                 "time step", id="dt-inf"),
    pytest.param(["--case", "test2", "--level", "2", "--dt-coef", "inf"], {},
                 "time step", id="dt-coef-inf"),
    pytest.param(["--case", "test2", "--level", "2", "--config", "config.json"],
                 {"config.json": {"dt": "inf"}}, "time step", id="dt-inf-config"),
    pytest.param(["--case-file", "case.json", "--level", "2"],
                 {"case.json": {**_GOOD_CASE,
                                "recommended": {"dt_rule": {"coefficient": 1e308,
                                                            "exponent": -2}}}},
                 "time step", id="dt-rule-infinite"),
    pytest.param(["--case-file", "case.json", "--level", "2"],
                 {"case.json": {**_GOOD_CASE, "recommended": [1, 2]}},
                 "recommended must be an object", id="recommended-list"),
    pytest.param(["--case-file", "case.json", "--level", "2"],
                 {"case.json": {**_GOOD_CASE, "recommended": {"dt_rule": 0.01}}},
                 "recommended.dt_rule must be an object", id="dt-rule-number"),
    pytest.param(["--case", "test2", "--level", "2", "--dt", "0.05",
                  "--config", "config.json"],
                 {"config.json": {"bbox": ["a", 1, -1, 1]}}, "bbox", id="bbox-list"),
    pytest.param(["--case", "test2", "--dt", "0.05", "--config", "config.json"],
                 {"config.json": {"levels": [2, "a"]}}, "levels", id="levels-list"),
    pytest.param(["--case-file", "case.json", "--level", "2"],
                 {"case.json": {**_GOOD_CASE,
                                "recommended": {"dt_rule": {"coefficient": "abc"}}}},
                 "recommended.dt_rule.coefficient", id="dt-rule-coefficient"),
    pytest.param(["--case-file", "case.json", "--level", "2"],
                 {"case.json": {**_GOOD_CASE,
                                "recommended": {"dt_rule": {"fixed": [0.1]}}}},
                 "recommended.dt_rule.fixed", id="dt-rule-fixed-list"),
    pytest.param(["--case", "test1", "--level", "2", "--dt-exp", "-3000"], {},
                 "dt rule", id="dt-rule-overflow"),
    # These fail in the run, after its first log line, hence --quiet.
    pytest.param(["--case-file", "case.json", "--level", "2", "--quiet"],
                 {"case.json": {**_GOOD_CASE, "source": "2**-1"}},
                 "source: cannot evaluate '2**-1'", id="source-fails-when-evaluated"),
    pytest.param(["--case-file", "case.json", "--level", "2", "--quiet"],
                 {"case.json": {**_GOOD_CASE, "initial": "where(x)"}},
                 "initial: cannot evaluate", id="initial-has-the-wrong-shape"),
    pytest.param(["--case-file", "case.json", "--level", "2"],
                 {"case.json": {**_GOOD_CASE, "final_time": 1e300}},
                 "more than 1000000 steps", id="final-time-too-many-steps"),
    pytest.param(["--case-file", "case.json", "--level", "2"],
                 {"case.json": {**_GOOD_CASE,
                                "recommended": {"dt_rule": {"fixed": 1e-300}}}},
                 "more than 1000000 steps", id="dt-rule-too-many-steps"),
    pytest.param(["--case-file", "case.json", "--level", "2"],
                 {"case.json": {**_GOOD_CASE, "final_time": True}},
                 "final_time must be numeric", id="final-time-boolean"),
    pytest.param(["--case-file", "case.json", "--level", "2"],
                 {"case.json": {**_GOOD_CASE, "final_time": "0.1"}},
                 "final_time must be numeric", id="final-time-string"),
    pytest.param(["--case-file", "case.json", "--level", "2"],
                 {"case.json": {**_GOOD_CASE, "bbox": [0, "1", 0, 1]}},
                 "bbox must be numeric", id="case-bbox-string-entry"),
    pytest.param(["--case-file", "case.json", "--level", "2"],
                 {"case.json": {**_GOOD_CASE,
                                "recommended": {"dt_rule": {"fixed": True}}}},
                 "recommended.dt_rule.fixed must be numeric", id="dt-rule-fixed-boolean"),
    pytest.param(["--case-file", "case.json", "--level", "2", "--dt", "0.05"],
                 {"case.json": {**_GOOD_CASE, "bbox": [0, 1e308, -1e308, 1e308]}},
                 "degenerate bounding box", id="case-bbox-overflows"),
    pytest.param(["--case-file", "case.json", "--level", "2"],
                 {"case.json": {**_GOOD_CASE, "source": "0*x + True"}},
                 "source: constant True is not a number", id="source-boolean-constant"),
])
def test_bad_solve_inputs_are_one_line_usage_errors(tmp_path, argv, files, field):
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "solve", "--family", "cartesian",
         "--out", str(tmp_path / "run"), "--formats", "json", *argv],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
    assert len(proc.stderr.strip().splitlines()) == 1
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, levels", [
    (["converge", "--case", "test1", "--family", "triangular", "--levels", "3,2"], "3,2"),
    (["diagnose", "--family", "cartesian", "--levels", "2,2"], "2,2"),
    (["solve", "--case", "test2", "--family", "cartesian", "--levels", "4,3"], "4,3"),
])
def test_levels_that_do_not_strictly_increase_build_no_mesh(tmp_path, monkeypatch,
                                                            capsys, argv, levels):
    built = []
    monkeypatch.setattr(hmmvi.cli, "generate_mesh", lambda *a: built.append(a))
    code = run_cli(*argv, "--out", str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.splitlines() == [f"levels {levels} must strictly increase"]
    assert "Traceback" not in err
    assert built == []


@pytest.mark.parametrize("argv, count", [
    # test1 recommends triangular levels 11, 16 and 32
    pytest.param(["--case", "test1"], 3, id="recommended-levels"),
    pytest.param(["--case", "test2", "--family", "cartesian", "--levels", "2,3"], 2,
                 id="two-levels"),
    pytest.param(["--case", "test2", "--mesh", "a.json", "--mesh", "b.json"], 2,
                 id="two-files"),
])
def test_solve_on_more_than_one_mesh_builds_none(tmp_path, monkeypatch, capsys, argv,
                                                 count):
    built = []
    monkeypatch.setattr(hmmvi.cli, "generate_mesh", lambda *a: built.append(a))
    monkeypatch.setattr(hmmvi.cli, "load_mesh", lambda *a: built.append(a))
    code = run_cli("solve", *argv, "--out", str(tmp_path / "run"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"solve expects exactly one mesh, got {count}"]
    assert built == []


def test_config_levels_must_strictly_increase(tmp_path, monkeypatch, capsys):
    built = []
    monkeypatch.setattr(hmmvi.cli, "generate_mesh", lambda *a: built.append(a))
    (tmp_path / "config.json").write_text(json.dumps({"levels": [2, 1]}))
    code = run_cli("diagnose", "--family", "cartesian", "--config",
                   str(tmp_path / "config.json"), "--out", str(tmp_path / "run"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["levels 2,1 must strictly increase"]
    assert built == []


def _counted_loads(tmp_path, monkeypatch):
    """Cartesian level 1 and 2 files, and the paths load_mesh is called with."""
    assert run_cli("meshgen", "--family", "cartesian", "--levels", "1,2",
                   "--out", str(tmp_path)) == EXIT_OK
    loaded = []
    load = hmmvi.cli.load_mesh
    monkeypatch.setattr(hmmvi.cli, "load_mesh", lambda path: loaded.append(path) or load(path))
    return [str(tmp_path / f"cartesian_l0{n}.json") for n in (1, 2)], loaded


@pytest.mark.parametrize("command", [["converge", "--case", "test1"], ["diagnose"]],
                         ids=["converge", "diagnose"])
@pytest.mark.parametrize("order", [(1, 0), (0, 0)], ids=["fine-to-coarse", "one-file-twice"])
def test_mesh_files_must_go_coarse_to_fine(tmp_path, monkeypatch, capsys, command, order):
    # The sizes are compared before the first level runs: one usage line
    # naming both files and their h, no output file, each file read once.
    paths, loaded = _counted_loads(tmp_path, monkeypatch)
    built = []
    monkeypatch.setattr(hmmvi.cli, "build_gd", lambda *a: built.append(a))
    files = [paths[i] for i in order]
    sizes = [hmmvi.mesh.mesh_size(hmmvi.mesh.load_mesh(f)) for f in files]
    capsys.readouterr()
    out = tmp_path / "out"
    code = run_cli(*command, "--mesh", files[0], "--mesh", files[1], "--out", str(out))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.splitlines() == [
        f"mesh files must go coarse to fine, with h strictly decreasing: "
        f"{files[0]} has h = {sizes[0]!r}, {files[1]} after it h = {sizes[1]!r}"]
    assert "Traceback" not in err
    assert loaded == files and built == []
    assert not out.exists()


def test_converge_checks_every_mesh_file_box_before_the_first_level(tmp_path, monkeypatch,
                                                                   capsys):
    # The second file lies outside test1's box: refused with one usage line
    # before level 1 marches, and no output file.
    assert run_cli("meshgen", "--family", "cartesian", "--levels", "1",
                   "--out", str(tmp_path / "a")) == EXIT_OK
    assert run_cli("meshgen", "--family", "cartesian", "--levels", "2", "--bbox=-1,3,-1,1",
                   "--out", str(tmp_path / "b")) == EXIT_OK
    built = []
    monkeypatch.setattr(hmmvi.cli, "build_gd", lambda *a: built.append(a))
    capsys.readouterr()
    out = tmp_path / "out"
    code = run_cli("converge", "--case", "test1",
                   "--mesh", str(tmp_path / "a" / "cartesian_l01.json"),
                   "--mesh", str(tmp_path / "b" / "cartesian_l02.json"), "--out", str(out))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.splitlines() == [
        "mesh cartesian_l02 spans the box [-1.0, 3.0, -1.0, 1.0], which is not inside "
        "the box [-1.0, 1.0, -1.0, 1.0] of case test1"]
    assert "case test1 on" not in err and "Traceback" not in err
    assert built == []
    assert not out.exists()


def test_diagnose_reads_each_mesh_file_once(tmp_path, monkeypatch):
    paths, loaded = _counted_loads(tmp_path, monkeypatch)
    out = tmp_path / "out"
    assert run_cli("diagnose", "--mesh", paths[0], "--mesh", paths[1],
                   "--out", str(out)) == EXIT_OK
    assert loaded == paths
    doc = json.loads((out / "quality.json").read_text())
    assert [level["tag"] for level in doc["levels"]] == ["cartesian_l01", "cartesian_l02"]
    assert len(doc["eoc"]["w_d"]) == 1


def test_solve_keeps_its_record_when_the_error_norms_fail(tmp_path, capsys):
    # An exact solution that vanishes at T leaves the relative errors
    # undefined: the run fails after its record and final cells are written.
    case = {**_GOOD_CASE, "initial": "0*x", "obstacle": "-1+0*x",
            "exact": {"u": "0*x", "grad": ["0", "0"]}}
    (tmp_path / "case.json").write_text(json.dumps(case))
    out = tmp_path / "run"
    code = run_cli("solve", "--quiet", "--case-file", str(tmp_path / "case.json"),
                   "--family", "cartesian", "--level", "2", "--dt", "0.05",
                   "--formats", "csv,json", "--out", str(out))
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [
        "exact solution norm vanishes at the final time; relative errors are undefined"]
    record = json.loads((out / "run.json").read_text())
    assert "errors" not in record
    assert record["iterations"] == [1, 1] and record["time_nodes"][-1] == 0.1
    rows = (out / "cells_final.csv").read_text().splitlines()
    assert rows[0] == "cell,x,y,area,u,obstacle,contact" and len(rows) == 17


# int() would read true as level 1, 2.7 as level 2 and "3" as level 3; an
# empty list would run no level at all.
@pytest.mark.parametrize("levels", [[True, 2], [2.7], ["3"], [], 2, {"from": 1}],
                         ids=["boolean", "fraction", "quoted", "empty", "number", "object"])
def test_case_file_recommended_levels_are_a_level_string_or_integers(
        tmp_path, monkeypatch, capsys, levels):
    built = []
    monkeypatch.setattr(hmmvi.cli, "generate_mesh", lambda *a: built.append(a))
    case = {**_GOOD_CASE, "exact": {"u": "0.5*x", "grad": ["0.5", "0"]},
            "recommended": {"mesh_family": "cartesian", "levels": levels}}
    (tmp_path / "case.json").write_text(json.dumps(case))
    code = run_cli("converge", "--case-file", str(tmp_path / "case.json"),
                   "--dt", "0.05", "--out", str(tmp_path / "run"))
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE and len(lines) == 1, lines
    assert "recommended.levels must be a level string" in lines[0]
    assert built == []


@pytest.mark.parametrize("doc, flags, message", [
    pytest.param({"bbox": [1, -1, -1, 1]}, ["--family", "cartesian"],
                 "bbox must be a non-degenerate bounding box [xmin, xmax, ymin, ymax] "
                 "of finite size, got [1, -1, -1, 1]", id="bbox-upside-down"),
    pytest.param({"recommended": {"mesh_family": "hexagon"}}, [],
                 "recommended.mesh_family must be one of ('cartesian', 'triangular', "
                 "'hexagonal', 'kershaw'), got 'hexagon'", id="unknown-family"),
])
def test_case_file_bad_box_or_family_names_the_file_and_the_field(tmp_path, capsys, doc,
                                                                  flags, message):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({**_GOOD_CASE, **doc}))
    code = run_cli("solve", "--case-file", str(path), *flags, "--level", "2", "--dt", "0.05",
                   "--out", str(tmp_path / "run"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [f"{path}: {message}"]
    assert not (tmp_path / "run").exists()


def test_case_file_recommended_level_string_is_read_as_the_flag(tmp_path):
    case = {**_GOOD_CASE, "exact": {"u": "0.5*x", "grad": ["0.5", "0"]},
            "recommended": {"mesh_family": "cartesian", "levels": "1..2"}}
    (tmp_path / "case.json").write_text(json.dumps(case))
    assert run_cli("converge", "--quiet", "--case-file", str(tmp_path / "case.json"),
                   "--dt", "0.05", "--out", str(tmp_path / "run")) == EXIT_OK
    rows = json.loads((tmp_path / "run" / "convergence.json").read_text())["levels"]
    assert [r["tag"] for r in rows] == ["cartesian_l1", "cartesian_l2"]


@pytest.mark.parametrize("levels, message", [
    ("abc", "cannot parse levels 'abc'"),
    ("0..2", "level 0 is outside 1..1000"),
    ("3,2", "levels 3,2 must strictly increase"),
], ids=["unparsable", "out-of-range", "decreasing"])
def test_case_file_recommended_level_error_names_the_field_and_the_file(
        tmp_path, monkeypatch, capsys, levels, message):
    built = []
    monkeypatch.setattr(hmmvi.cli, "generate_mesh", lambda *a: built.append(a))
    case = {**_GOOD_CASE, "exact": {"u": "0.5*x", "grad": ["0.5", "0"]},
            "recommended": {"mesh_family": "cartesian", "levels": levels}}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    code = main(["converge", "--case-file", str(path), "--dt", "0.05",
                 "--out", str(tmp_path / "run")])
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE and len(lines) == 1, lines
    assert lines[0].startswith(f"{path}: recommended.levels: {message}")
    assert built == []


def test_meshgen_takes_levels_in_any_order(tmp_path):
    code = run_cli("meshgen", "--family", "cartesian", "--levels", "2,1,1",
                   "--out", str(tmp_path))
    assert code == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cartesian_l01.json",
                                                          "cartesian_l02.json"]


@pytest.mark.parametrize("flag, text, message", [
    ("--case-file", "[1, 2]", "{path}: case file must hold a JSON object"),
    ("--config", "[1]", "{path}: config must be a JSON object"),
])
def test_json_file_that_is_not_an_object_is_one_usage_line(tmp_path, capsys, flag, text,
                                                           message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    case = ["--case", "test2"] if flag == "--config" else []
    code = run_cli("solve", *case, "--family", "cartesian", "--level", "2",
                   flag, str(path), "--out", str(tmp_path / "run"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [message.format(path=path)]


@pytest.mark.parametrize("data", [
    pytest.param(b"\xff\xfe{}", id="not-utf8"),
    pytest.param(b'{"dt": ' + b"1" * 5000 + b"}", id="integer-beyond-the-digit-limit"),
    pytest.param(b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", id="nested-too-deep"),
])
@pytest.mark.parametrize("flag, kind", [("--case-file", "case"), ("--config", "config")])
def test_unreadable_json_file_is_one_usage_line(tmp_path, capsys, data, flag, kind):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    case = ["--case", "test2"] if flag == "--config" else []
    code = run_cli("solve", *case, "--family", "cartesian", "--level", "2",
                   flag, str(path), "--out", str(tmp_path / "run"))
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE and len(lines) == 1, lines
    assert lines[0].startswith(f"cannot read {kind} file {path}: ")


def test_missing_config_file_is_one_usage_line(tmp_path, capsys):
    path = tmp_path / "missing.json"
    code = run_cli("solve", "--case", "test2", "--family", "cartesian", "--level", "2",
                   "--config", str(path), "--out", str(tmp_path / "run"))
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE and len(lines) == 1
    assert lines[0].startswith(f"cannot read config file {path}: ")


def test_meshgen_box_whose_width_overflows_is_a_usage_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "meshgen", "--family", "cartesian",
         "--levels", "2", "--bbox=0,1e308,-1e308,1e308", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "degenerate bounding box" in proc.stderr


@pytest.mark.parametrize("family, bbox, message", [
    ("cartesian", "0,1e200,0,1", "cell 0: centroid has non-finite coordinates"),
    ("kershaw", "0,1,0,1e-300", "edge 1 has zero length")])
def test_meshgen_box_that_cannot_be_meshed_is_one_numerical_error(tmp_path, family, bbox,
                                                                   message):
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "meshgen", "--family", family,
         "--levels", "1", f"--bbox={bbox}", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_NUMERICAL
    assert len(proc.stderr.strip().splitlines()) == 1
    assert message in proc.stderr


@pytest.mark.parametrize("bbox", ["0,1,0,1e-7", f"0,1,0.1,{0.1 + 1e-7!r}",
                                  f"0.1,{0.1 + 1e-7!r},0,1"])
def test_meshgen_hexagonal_box_thinner_than_the_on_line_tolerance_exits_2(tmp_path, bbox):
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "meshgen", "--family", "hexagonal",
         "--levels", "1", f"--bbox={bbox}", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "hexagonal box" in proc.stderr


def test_meshgen_hexagonal_box_just_above_the_thin_limit_meshes(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "meshgen", "--family", "hexagonal",
         "--levels", "1..3", "--bbox=0,1,0.1,0.100003", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    files = sorted(str(p) for p in tmp_path.glob("hexagonal_l0*.json"))
    assert len(files) == 3
    proc = subprocess.run([sys.executable, "-m", "hmmvi.cli", "validate", *files],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr


@pytest.mark.parametrize("obstacle", ["-10 + 0*x", "0*x"])
def test_solver_failure_names_the_step(tmp_path, obstacle):
    # Initial data of 1e300 overflow the system under any tolerance: the
    # linear solve's residual is nan, and the overflowing norms print no
    # numpy warning.
    case = {**_GOOD_CASE, "final_time": 0.1, "source": "1+x*x", "obstacle": obstacle,
            "initial": "1e300*(1-x*x)"}
    (tmp_path / "case.json").write_text(json.dumps(case))
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "solve", "--quiet", "--case-file",
         str(tmp_path / "case.json"), "--family", "cartesian", "--level", "2",
         "--out", str(tmp_path / "run"), "--formats", "json"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_NUMERICAL
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert "step 1 of 1 (t = 0.1, dt = 0.1): linear solve residual nan" in proc.stderr
    assert "Traceback" not in proc.stderr


def _failing_factorisation(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _unconverged_cg(A, b, **kwargs):
    return np.zeros_like(b), 7


@pytest.mark.parametrize("limit, patch, failure", [
    (hmmvi.solver.DIRECT_LIMIT, (hmmvi.solver, "factorise_spd", _failing_factorisation),
     "linear sub-system is singular for the partition with"),
    (0, (hmmvi.solver.spla, "cg", _unconverged_cg),
     "conjugate gradients did not converge (info=7)"),
], ids=["singular-factorisation", "cg-not-converged"])
def test_linear_solve_failure_is_one_numerical_line(tmp_path, monkeypatch, capsys,
                                                    limit, patch, failure):
    monkeypatch.setattr(hmmvi.solver, "DIRECT_LIMIT", limit)
    monkeypatch.setattr(*patch)
    code = run_cli("solve", "--quiet", "--case", "test2", "--family", "cartesian",
                   "--level", "2", "--dt", "0.05", "--formats", "json",
                   "--out", str(tmp_path / "run"))
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_NUMERICAL and len(lines) == 1, lines
    assert lines[0].startswith("step 1 of 2 (t = 0.05, dt = 0.05): ")
    assert failure in lines[0] and "contact cells" in lines[0]
    assert "Traceback" not in lines[0]


def test_generated_mesh_box_is_flag_or_config_then_case(tmp_path):
    (tmp_path / "case.json").write_text(json.dumps({**_GOOD_CASE, "bbox": [0, 1, 0, 1]}))
    (tmp_path / "config.json").write_text(json.dumps({"bbox": [0, 2, 0, 1]}))
    boxes = {}
    for name, extra in (("case", []), ("flag", ["--bbox=0,3,0,1"]),
                        ("config", ["--config", str(tmp_path / "config.json")])):
        proc = subprocess.run(
            [sys.executable, "-m", "hmmvi.cli", "solve", "--case-file",
             str(tmp_path / "case.json"), "--family", "cartesian", "--level", "2",
             "--dt", "0.05", "--formats", "json", "--out", str(tmp_path / name), *extra],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        run = json.loads((tmp_path / name / "run.json").read_text())
        boxes[name] = run["mesh"]["metadata"]["bbox"]
    assert boxes == {"case": [0.0, 1.0, 0.0, 1.0], "flag": [0.0, 3.0, 0.0, 1.0],
                     "config": [0.0, 2.0, 0.0, 1.0]}


def _solve_case(tmp_path, name, case, *argv):
    (tmp_path / "case.json").write_text(json.dumps(case))
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "solve", "--case-file",
         str(tmp_path / "case.json"), "--dt", "0.05", "--formats", "json",
         "--out", str(tmp_path / name), *argv],
        capture_output=True, text=True)
    box_lines = [line for line in proc.stderr.splitlines() if "is not inside" in line]
    run = tmp_path / name / "run.json"
    return proc, box_lines, json.loads(run.read_text()) if run.exists() else None


def test_mesh_file_outside_the_case_box_is_reported(tmp_path):
    # The case lives on [0, 1]^2, the mesh file covers [-1, 1]^2: refused.
    assert run_cli("meshgen", "--family", "cartesian", "--levels", "2",
                   "--out", str(tmp_path)) == EXIT_OK
    proc, box_lines, run = _solve_case(
        tmp_path, "run", {**_GOOD_CASE, "bbox": [0, 1, 0, 1]},
        "--mesh", str(tmp_path / "cartesian_l02.json"))
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.splitlines() == box_lines
    assert len(box_lines) == 1
    assert "[-1.0, 1.0, -1.0, 1.0]" in box_lines[0]
    assert "[0.0, 1.0, 0.0, 1.0]" in box_lines[0]
    assert run is None


def test_hexagonal_mesh_on_the_case_box_is_not_reported(tmp_path):
    # Hexagonal vertices are rounded to 10 decimals, so on this box the mesh's
    # box lies 3.3e-11 outside the case's on every side: inside the slack.
    box = [-2 / 3, 2 / 3, -2 / 3, 2 / 3]
    proc, box_lines, run = _solve_case(tmp_path, "run", {**_GOOD_CASE, "bbox": box},
                                       "--family", "hexagonal", "--level", "2")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert box_lines == []
    assert run["case_bbox"] == box


def test_converge_reports_a_mesh_outside_the_case_box(tmp_path):
    out = tmp_path / "conv"
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "converge", "--case", "test1",
         "--family", "triangular", "--levels", "2,3", "--bbox=0,2,0,2",
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    box_lines = [line for line in proc.stderr.splitlines() if "is not inside" in line]
    assert len(box_lines) == 2
    doc = json.loads((out / "convergence.json").read_text())
    assert doc["case_bbox"] == [-1.0, 1.0, -1.0, 1.0]


# Each bad option, given once as flags and once as a config key: (config key,
# flag tokens, config value, text the message must hold).
_BAD_OPTIONS = [
    ("formats", ["--formats", "5"], 5, "--formats"),
    ("formats", ["--formats", "pdf"], "pdf", "--formats"),
    ("quadrature", ["--quadrature", "bogus"], "bogus", "--quadrature"),
    ("vtk_every", ["--vtk-every", "0"], 0, "--vtk-every"),
    ("levels", ["--levels", "2,a"], [2, "a"], "--levels"),
    ("bbox", ["--bbox", "a,1,-1,1"], ["a", 1, -1, 1], "--bbox"),
    ("dt", ["--dt", "nan"], float("nan"), "time step"),
]
# Config values with no flag form: a number where a path or a name goes, and
# a misspelt key.
_BAD_CONFIG_ONLY = [("out", 5), ("mesh", 5), ("case_file", 5), ("levles", 2)]


@pytest.mark.parametrize("key, flag, config, fragment", [
    *(pytest.param(key, flag, None, fragment, id=f"flag-{key}-{flag[1]}")
      for key, flag, _, fragment in _BAD_OPTIONS),
    *(pytest.param(key, [], {key: value}, fragment, id=f"config-{key}-{value}")
      for key, _, value, fragment in _BAD_OPTIONS),
    *(pytest.param(key, [], {key: value}, repr(key), id=f"config-{key}-{value}")
      for key, value in _BAD_CONFIG_ONLY),
])
def test_bad_options_exit_2_from_flags_and_config(tmp_path, key, flag, config,
                                                  fragment):
    base = {"case": "test2", "family": "cartesian", "level": "2", "dt": "0.05",
            "out": str(tmp_path / "run")}
    # The base run leaves out the option under test (`level` for `levels`).
    argv = [tok for name, value in base.items() if name not in (key, key[:-1])
            for tok in (f"--{name}", value)] + flag
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    proc = subprocess.run([sys.executable, "-m", "hmmvi.cli", "solve", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert fragment in proc.stderr
    assert "Traceback" not in proc.stderr


# Documented keys other than those the fuzz run fixes by flag.
_FUZZ_KEYS = ["case_file", "levels", "mesh", "bbox", "dt_coefficient",
              "dt_exponent", "formats", "vtk_every", "quadrature", "quiet"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
_NEAR_VALID = st.sampled_from(["vtk", "csv,json", "fan3", "2", "0",
                               "-1,1,-1,1", "", "pdf", 2, 0.5, -1, True,
                               [0, 1, 0, 1], ["json", "csv"]])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(config=st.dictionaries(st.sampled_from(_FUZZ_KEYS), _NEAR_VALID | _JSON_VALUES,
                              max_size=3),
       junk=st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=1))
def test_config_fuzz_ends_in_an_exit_code(config, junk):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**junk, **config}))
        code = run_cli("solve", "--case", "test2", "--family", "cartesian",
                       "--level", "2", "--dt", "0.05", "--out", str(Path(tmp) / "run"),
                       "--config", str(path))
    assert code in (EXIT_OK, EXIT_NUMERICAL, EXIT_USAGE)


# Per case field, values near valid ones (some fail only when evaluated) or
# any JSON.  The fuzz run caps the step count, so that a long horizon ends
# quickly in the budget's usage error.
_EXPRESSIONS = ["0*x", "x*y - t", "sin(pi*x) * exp(-t)", "max(x, r)", "2**-1",
                "min()", "where(x)", "atan2(x)", "log(x)", "1/0", "", "x +"]
_NEAR_VALID_FIELDS = {
    "name": ["plane", 5],
    "final_time": [0.1, 1, 1e-300, 1e300, -1, True, "0.1"],
    **{key: _EXPRESSIONS for key in ("source", "obstacle", "initial", "dirichlet")},
    "diffusion": [2.0, [[1, 0], [0, 2]], [[1, 0], [0, -1]], [[1, 0.5], [0, 1]], [1, 2]],
    "exact": [{"u": "x", "grad": ["1", "0"]}, {"u": "2**-1", "grad": ["0", "0"]},
              {"u": "x", "grad": "1"}, {"u": "x"}],
    "bbox": [[0, 1, 0, 1], [-1, 1, -1, 1], [1, 0, 0, 1], [0, 1e-300, 0, 1], [0, 1]],
    "recommended": [{"dt_rule": {"fixed": 0.05}}, {"dt_rule": {"fixed": 1e-300}},
                    {"dt_rule": {"coefficient": 0.5, "exponent": 1}},
                    {"dt_rule": {"exponent": "x"}}, {"levels": "abc"}],
}


def _case_field(key):
    """A (key, value) pair: a near-valid value three times in four."""
    near = st.sampled_from(_NEAR_VALID_FIELDS[key])
    return st.tuples(st.just(key), st.integers(0, 3).flatmap(
        lambda i: _JSON_VALUES if i == 0 else near))


# Each example goes through one of the subcommands that read a case file; the
# plane case has an exact solution, so that converge runs.
@settings(max_examples=60, derandomize=True, deadline=None)
@given(fields=st.lists(st.sampled_from(sorted(_NEAR_VALID_FIELDS)).flatmap(_case_field),
                       max_size=3),
       command=st.sampled_from([["solve", "--formats", "json"], ["converge"]]))
def test_case_file_fuzz_ends_in_an_exit_code(fields, command):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(hmmvi.timeloop, "MAX_STEPS", 100):
        path = Path(tmp) / "case.json"
        path.write_text(json.dumps({**_GOOD_CASE,
                                    "exact": {"u": "0.5*x", "grad": ["0.5", "0"]},
                                    **dict(fields)}))
        code = run_cli(*command, "--case-file", str(path), "--family", "cartesian",
                       "--level", "2", "--out", str(Path(tmp) / "run"))
    assert code in (EXIT_OK, EXIT_NUMERICAL, EXIT_USAGE)


def test_config_mesh_list_and_mesh_flag_wins(tmp_path):
    run_cli("meshgen", "--family", "cartesian", "--levels", "1..2",
            "--out", str(tmp_path))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "case": "test2", "dt_coefficient": 0.05, "dt_exponent": 0,
        "mesh": [str(tmp_path / "cartesian_l01.json")]}))
    assert run_cli("solve", "--config", str(config), "--out", str(tmp_path / "a"),
                   "--formats", "json") == EXIT_OK
    rec = json.loads((tmp_path / "a" / "run.json").read_text())
    assert (rec["mesh"]["cells"], len(rec["iterations"])) == (4, 2)

    assert run_cli("solve", "--config", str(config), "--out", str(tmp_path / "b"),
                   "--formats", "json",
                   "--mesh", str(tmp_path / "cartesian_l02.json")) == EXIT_OK
    rec = json.loads((tmp_path / "b" / "run.json").read_text())
    assert rec["mesh"]["cells"] == 16


@pytest.mark.parametrize("field, value, culprit", [
    ("cell_points", [[float("nan"), 0.5]], "cell 0: point x_K"),
    ("vertices", [[0, 0], [1, 0], [1, float("inf")], [0, 1]], "vertex 2"),
])
def test_validate_rejects_nonfinite_mesh_data(tmp_path, field, value, culprit):
    doc = {"format": "polytopal-mesh", "version": 1,
           "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
           "cells": [[0, 1, 2, 3]], "cell_points": [[0.5, 0.5]]}
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "hmmvi.cli", "validate", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_NUMERICAL
    assert f"{culprit} has non-finite coordinates" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


# Two unit squares, in both mesh formats.
_MESH_DOC = {"format": "polytopal-mesh", "version": 1,
             "vertices": [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]],
             "cells": [[0, 1, 4, 3], [1, 2, 5, 4]],
             "cell_points": [[0.5, 0.5], [1.5, 0.5]],
             "metadata": {"family": "cartesian", "level": 1}}
_MESH_TEXT = "6\n0 0\n1 0\n2 0\n0 1\n1 1\n2 1\n2\n4 1 2 5 4\n4 2 3 6 5\n"


@pytest.mark.parametrize("name, text, code, message", [
    pytest.param("m.txt", "-1\n0 0\n", EXIT_USAGE, "expected vertex count, got '-1'",
                 id="fvca-negative-vertex-count"),
    pytest.param("m.txt", _MESH_TEXT.replace("\n2\n", "\n-2\n"), EXIT_USAGE,
                 "expected cell count, got '-2'", id="fvca-negative-cell-count"),
    pytest.param("m.txt", _MESH_TEXT.replace("6 5\n", "6 99999999999999999999\n"),
                 EXIT_NUMERICAL, "cell 1 references an unknown vertex",
                 id="fvca-id-beyond-int64"),
    pytest.param("m.json", json.dumps({**_MESH_DOC, "cells": [[0, 1, 4, 3],
                                                               [1, 2, 5, 2**70]]}),
                 EXIT_NUMERICAL, "cell 1 references an unknown vertex",
                 id="json-id-beyond-int64"),
])
def test_validate_bad_mesh_file_is_one_line(tmp_path, name, text, code, message):
    path = tmp_path / name
    path.write_text(text)
    proc = subprocess.run([sys.executable, "-m", "hmmvi.cli", "validate", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert message in proc.stderr


def test_edge_with_three_cells_is_one_numerical_line(tmp_path, capsys):
    path = tmp_path / "three_owners.json"
    path.write_text(json.dumps({
        "format": "polytopal-mesh", "version": 1,
        "vertices": [[0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.5, 0.5]],
        "cells": [[0, 1, 2], [1, 0, 3], [0, 1, 4]]}))
    assert run_cli("validate", str(path)) == EXIT_NUMERICAL
    assert capsys.readouterr().err.splitlines() == [
        "edge 0 between vertices (0, 1) has more than two cells"]


@pytest.mark.parametrize("name, text", [
    pytest.param("m.txt", json.dumps(_MESH_DOC), id="native-named-txt"),
    pytest.param("mesh", json.dumps(_MESH_DOC), id="native-without-extension"),
    pytest.param("m.json", _MESH_TEXT, id="text-named-json"),
    pytest.param("m.json", "\n# two squares\n" + _MESH_TEXT, id="text-with-comment"),
])
def test_mesh_file_content_names_its_format(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert run_cli("validate", str(path)) == EXIT_OK


@pytest.mark.parametrize("name, data, message", [
    pytest.param("m.json", b'{"format": ', "{path}: not valid JSON", id="truncated-json"),
    pytest.param("m.json", b"[1, 2]", "{path}:1: expected vertex count, got '[1,'",
                 id="json-list"),
    pytest.param("m.txt", b"\xff\xfe6\n", "cannot read mesh file {path}: ", id="not-utf8"),
    pytest.param("m.json", b'{"cells": [[' + b"1" * 5000 + b"]]}",
                 "{path}: not valid JSON", id="json-integer-beyond-the-digit-limit"),
    pytest.param("m.json", b'{"cells": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                 "{path}: not valid JSON", id="json-nested-too-deep"),
    pytest.param("m.txt", b"1" * 5000 + b"\n", "{path}:1: expected vertex count",
                 id="text-count-beyond-the-digit-limit"),
    pytest.param("m.json", json.dumps({k: v for k, v in _MESH_DOC.items()
                                       if k != "vertices"}).encode(),
                 "{path}: missing required field 'vertices'", id="native-without-vertices"),
    pytest.param("m.json", json.dumps({**_MESH_DOC, "cells": 5}).encode(),
                 "{path}: 'cells' must be a list of vertex id lists", id="native-cells-number"),
    pytest.param("m.json", json.dumps({**_MESH_DOC, "cells": [5]}).encode(),
                 "{path}: cell 0 is not a list of vertex ids", id="native-cell-number"),
    pytest.param("m.json", json.dumps({**_MESH_DOC, "vertices": [
        [0, 0, 1], [1, 0, 1], [2, 0, 1], [0, 1, 1], [1, 1, 1], [2, 1, 1]]}).encode(),
                 "{path}: 'vertices' must be a list of [x, y] pairs",
                 id="native-three-coordinates"),
    pytest.param("m.txt", _MESH_TEXT.replace("\n1 0\n", "\n1\n").encode(),
                 "{path}:3: expected two coordinates", id="text-one-coordinate"),
])
def test_unreadable_mesh_file_is_one_usage_line(tmp_path, capsys, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    code = run_cli("validate", str(path))
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE and len(lines) == 1, lines
    assert lines[0].startswith(message.format(path=path))


def test_validate_checks_each_mesh_file_once(tmp_path, monkeypatch):
    (tmp_path / "a.json").write_text(json.dumps(_MESH_DOC))
    (tmp_path / "b.txt").write_text(_MESH_TEXT)
    checked = []
    check = hmmvi.mesh.validate

    def counting(mesh):
        checked.append(mesh)
        return check(mesh)

    monkeypatch.setattr(hmmvi.mesh, "validate", counting)
    monkeypatch.setattr(hmmvi.cli, "validate", counting)
    assert run_cli("validate", str(tmp_path / "a.json"), str(tmp_path / "b.txt")) == EXIT_OK
    assert len(checked) == 2 and checked[0] is not checked[1]


_LONG = "[" * 100_000


@pytest.mark.parametrize("name, text, message", [
    pytest.param("m.txt", _LONG, "{path}:1: expected vertex count, got '[[[", id="count"),
    pytest.param("m.txt", f"1\n0 {_LONG}\n", "{path}:2: bad vertex coordinates ['0', '[[",
                 id="vertex"),
    pytest.param("m.txt", f"1\n0 0\n1\n3 {' x' * 50_000}\n",
                 "{path}:4: bad cell connectivity ['3', 'x', 'x'", id="cell"),
    pytest.param("m.json", json.dumps({**_MESH_DOC, "cells": [[0, 1, 4, _LONG]]}),
                 "{path}: cell 0 has vertex id '[[[", id="json-vertex-id"),
    pytest.param("m.json", json.dumps({**_MESH_DOC, "vertices": [[0, _LONG]]}),
                 "{path}: 'vertices' must be a list of [x, y] pairs (could not", id="json-points"),
])
def test_long_offending_token_is_echoed_short(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    code = run_cli("validate", str(path))
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE and len(lines) == 1, lines
    assert lines[0].startswith(message.format(path=path))
    assert len(lines[0]) <= len(str(path)) + 120, len(lines[0])


@pytest.mark.parametrize("argv", [
    ["validate", "--mesh-format", "fvca_text", "{mesh}"],
    ["meshgen", "--family", "cartesian", "--levels", "1", "--mesh-format=native_json",
     "--out", "{out}"],
    ["diagnose", "--mesh", "{mesh}", "--config", "{config}", "--out", "{out}"],
])
def test_mesh_format_is_not_an_option(tmp_path, capsys, argv):
    (tmp_path / "m.json").write_text(json.dumps(_MESH_DOC))
    (tmp_path / "config.json").write_text(json.dumps({"mesh_format": "fvca_text"}))
    code = run_cli(*[a.format(mesh=tmp_path / "m.json", config=tmp_path / "config.json",
                              out=tmp_path / "run") for a in argv])
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE and len(lines) == 1, lines
    assert "mesh-format" in lines[0] or "'mesh_format'" in lines[0]
    assert not (tmp_path / "run").exists()


# test1 has one default source, the closed form; no option chooses another.
@pytest.mark.parametrize("argv", [
    ["solve", "--case", "test1", "--variant", "printed_f", "--family", "triangular",
     "--level", "2", "--out", "{out}"],
    ["converge", "--case", "test1", "--variant=derived_f", "--family", "triangular",
     "--levels", "2..3", "--out", "{out}"],
    ["solve", "--case", "test1", "--family", "triangular", "--level", "2",
     "--config", "{config}", "--out", "{out}"],
])
def test_variant_is_not_an_option(tmp_path, capsys, argv):
    (tmp_path / "config.json").write_text(json.dumps({"variant": "derived_f"}))
    code = run_cli(*[a.format(config=tmp_path / "config.json", out=tmp_path / "run")
                     for a in argv])
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE and len(lines) == 1, lines
    assert "--variant" in lines[0] or "'variant'" in lines[0]
    assert not (tmp_path / "run").exists()


def test_test1_solve_does_not_load_sympy(tmp_path):
    script = ("import sys; from hmmvi.cli import main; "
              "code = main(sys.argv[1:]); print(code, 'sympy' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", script, "solve", "--quiet", "--case", "test1",
         "--family", "triangular", "--level", "4", "--formats", "json",
         "--out", str(tmp_path / "run")], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.split() == ["0", "False"], proc.stderr
    assert json.loads((tmp_path / "run" / "run.json").read_text())["case"] == "test1"


_MESH_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 50) | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
# Counts stay at most 50, so no mutation asks for a large array.
_MESH_TOKENS = (st.integers(-3, 50).map(str)
                | st.sampled_from(["0.5", "-0", "+2", "1e3", "nan", "inf", "x", "#"]))


def _mutate_json(data, doc):
    """Replace or delete one node of ``doc`` at a path drawn from ``data``."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        if (isinstance(node[key], (dict, list)) and node[key]
                and data.draw(st.integers(0, 3)) > 0):
            node = node[key]
        elif data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(_MESH_VALUES)
            return


def _mutate_text(data, lines):
    """Change one token, or delete, repeat or insert one line."""
    i = data.draw(st.integers(0, len(lines) - 1))
    op = data.draw(st.sampled_from(["token", "delete", "repeat", "insert"]))
    if op == "token":
        tokens = lines[i].split() or [""]
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(_MESH_TOKENS)
        lines[i] = " ".join(tokens)
    elif op == "delete":
        del lines[i]
    elif op == "repeat":
        lines.insert(i, lines[i])
    else:
        lines.insert(i, " ".join(data.draw(st.lists(_MESH_TOKENS, max_size=4))))


def _mesh_file_exit_code(command, name, text):
    """The exit code of ``command`` on a mesh file holding ``text``.

    solve marches the plane case, two steps, on the two squares' box.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path, case, out = Path(tmp) / name, Path(tmp) / "case.json", str(Path(tmp) / "run")
        path.write_text(text)
        case.write_text(json.dumps({**_GOOD_CASE, "bbox": [0, 2, 0, 1]}))
        return run_cli(command, *{
            "validate": [str(path)],
            "solve": ["--case-file", str(case), "--mesh", str(path), "--dt", "0.05",
                      "--formats", "json", "--out", out],
            "diagnose": ["--mesh", str(path), "--out", out]}[command])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), command=st.sampled_from(["validate", "solve", "diagnose"]))
def test_native_mesh_fuzz_ends_in_an_exit_code(data, command):
    doc = json.loads(json.dumps(_MESH_DOC))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate_json(data, doc)
    code = _mesh_file_exit_code(command, "mesh.json", json.dumps(doc))
    assert code in (EXIT_OK, EXIT_NUMERICAL, EXIT_USAGE)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_fvca_mesh_fuzz_ends_in_an_exit_code(data):
    lines = _MESH_TEXT.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate_text(data, lines)
    code = _mesh_file_exit_code("validate", "mesh.txt", "\n".join(lines) + "\n")
    assert code in (EXIT_OK, EXIT_NUMERICAL, EXIT_USAGE)


def test_snapshots_of_one_run_share_their_geometry(tmp_path):
    # The bytes from line 3 up to CELL_DATA (the BINARY line, points, cells,
    # cell types) are the mesh's; the title on line 2 is the snapshot's.
    out = tmp_path / "run"
    assert run_cli("solve", "--case", "test2", "--family", "cartesian", "--level", "3",
                   "--dt", "0.05", "--out", str(out)) == EXIT_OK
    parts = []
    for name in ("snapshot_0001.vtk", "snapshot_0002.vtk"):
        data = (out / name).read_bytes()
        start = data.index(b"\n") + 1
        end = data.index(b"\n", start)
        parts.append((data[start:end], data[end + 1:data.index(b"\nCELL_DATA ")]))
    (title_1, geometry_1), (title_2, geometry_2) = parts
    assert geometry_1.startswith(b"BINARY\n") and b"\nCELL_TYPES " in geometry_1
    assert geometry_1 == geometry_2
    assert title_1 != title_2


def test_vtk_snapshot_is_wellformed(tmp_path):
    out = tmp_path / "run"
    run_cli("solve", "--case", "test2", "--family", "cartesian", "--level", "2",
            "--dt", "0.05", "--out", str(out))
    title, points, cells, fields = parse_vtk((out / "snapshot_0002.vtk").read_bytes())
    assert title == "test2 t=0.1"
    assert points.shape == (25, 3) and len(cells) == 16
    assert list(fields) == ["u", "gap", "contact"]
    assert set(fields["contact"].tolist()) <= {0.0, 1.0}


def test_solve_reports_errors_for_exact_cases(tmp_path):
    out = tmp_path / "run"
    code = run_cli("solve", "--case", "smooth_baseline", "--family",
                   "triangular", "--level", "6", "--out", str(out))
    assert code == EXIT_OK
    record = json.loads((out / "run.json").read_text())
    assert 0 < record["errors"]["rel_l2_final"] < 0.2


def test_converge_produces_table_and_rates(tmp_path):
    out = tmp_path / "conv"
    code = run_cli("converge", "--case", "smooth_baseline", "--family",
                   "triangular", "--levels", "4,8", "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads((out / "convergence.json").read_text())
    assert len(doc["levels"]) == 2
    assert doc["levels"][1]["rate_grad"] == pytest.approx(1.0, abs=0.25)
    # the march's wall time per level, so error against time can be plotted,
    # and the set-up's
    assert all(level["wall_seconds"] > 0.0 for level in doc["levels"])
    assert all(level["build_gd_seconds"] > 0.0 for level in doc["levels"])
    header = (out / "convergence.csv").read_text().splitlines()[0].split(",")
    assert header == ["tag", "h", "n_cells", "n_dofs", "dt", "n_steps",
                      "rel_l2", "rate_l2", "rel_grad", "rate_grad"]
    dat = (out / "convergence_loglog.dat").read_text().splitlines()
    assert dat[0].split(",")[0] == "h"
    assert len(dat) == 3


def test_converge_needs_exact_solution(tmp_path):
    assert run_cli("converge", "--case", "test2", "--family", "cartesian",
                   "--levels", "2", "--out", str(tmp_path)) == EXIT_USAGE


def test_diagnose_reports_quality(tmp_path):
    out = tmp_path / "diag"
    code = run_cli("diagnose", "--family", "triangular", "--levels", "4,8",
                   "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads((out / "quality.json").read_text())
    assert len(doc["levels"]) == 2
    assert 0.5 < doc["eoc"]["w_d"][0] < 1.5
    header = (out / "quality.csv").read_text().splitlines()[0]
    assert header.split(",")[:2] == ["tag", "h"]


@pytest.mark.parametrize("family, levels, count", [
    ("hexagonal", "1..3", 3), ("cartesian", "1..2", 2), ("triangular", "1..2", 2),
    ("kershaw", "1..2", 2)])
def test_diagnose_records_its_constants_and_wall_times_per_level(tmp_path, family, levels,
                                                                  count):
    # The constants come from the identity scheme's stiffness on every family.
    out = tmp_path / "diag"
    assert run_cli("diagnose", "--family", family, "--levels", levels,
                   "--out", str(out)) == EXIT_OK
    rows = json.loads((out / "quality.json").read_text())["levels"]
    assert len(rows) == count
    assert all(row["build_gd_seconds"] > 0.0 for row in rows)
    assert all(row["report_seconds"] > 0.0 for row in rows)
    values = [v for r in rows
              for v in (r["c_d"], *r["w_d"].values(), *r["s_d"].values(), *r["i_d0"].values())]
    assert len(values) == 4 * count
    assert all(math.isfinite(v) and v > 0 for v in values)
    header = (out / "quality.csv").read_text().splitlines()[0].split(",")
    assert header == ["tag", "h", "n_cells", "n_edges", "c_d", "w_d", "s_d", "i_d0"]


def test_diagnose_matches_the_frozen_quality_constants(tmp_path):
    # C_D and W_D solve with the plain form with the cells condensed out.
    out = tmp_path / "diag"
    assert run_cli("diagnose", "--family", "hexagonal", "--levels", "5..6",
                   "--out", str(out)) == EXIT_OK
    levels = json.loads((out / "quality.json").read_text())["levels"]
    want = frozen("hex-diagnose")
    assert [row["n_cells"] for row in levels] == [want[k]["n_cells"] for k in ("5", "6")]
    for level, row in zip(("5", "6"), levels):
        got = {"c_d": row["c_d"]}
        for key in ("w_d", "s_d", "i_d0"):
            (got[key],) = row[key].values()
        for key, value in got.items():
            assert value == pytest.approx(want[level][key], rel=1e-9, abs=0), (level, key)


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "case": "test2", "family": "cartesian", "level": 2,
        "dt": 0.05, "out": str(tmp_path / "a")}))
    assert run_cli("solve", "--config", str(config)) == EXIT_OK
    rec = json.loads((tmp_path / "a" / "run.json").read_text())
    assert rec["mesh"]["cells"] == 16
    assert len(rec["iterations"]) == 2

    assert run_cli("solve", "--config", str(config), "--dt", "0.025",
                   "--out", str(tmp_path / "b")) == EXIT_OK
    rec = json.loads((tmp_path / "b" / "run.json").read_text())
    assert len(rec["iterations"]) == 4


@pytest.mark.parametrize("quiet, info", [(True, False), (False, True)])
def test_config_quiet_key_sets_the_flag(tmp_path, capsys, quiet, info):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"quiet": quiet}))
    assert run_cli("solve", "--case", "test2", "--family", "cartesian", "--level", "2",
                   "--dt", "0.05", "--formats", "json", "--out", str(tmp_path / "run"),
                   "--config", str(config)) == EXIT_OK
    assert ("iterations per step" in capsys.readouterr().err) is info


def test_config_quiet_key_takes_a_boolean(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"quiet": 1}))
    code = run_cli("solve", "--case", "test2", "--family", "cartesian", "--level", "2",
                   "--dt", "0.05", "--out", str(tmp_path / "run"), "--config", str(config))
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE and len(lines) == 1, lines
    assert "--quiet" in lines[0]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value, flag", [
    ("quadrature", "fan3", "--quadrature=centroid"),
    ("vtk_every", 2, "--vtk-every=1"),
    ("bbox", [0, 1, 0, 1], "--bbox=-1,1,-1,1"),
    ("formats", "json", "--formats=vtk,csv,json"),
    ("out", "elsewhere", "--out=out"),
])
def test_flag_equal_to_its_default_beats_the_config(tmp_path, monkeypatch, key,
                                                    value, flag):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    argv = ["solve", "--case", "test1", "--family", "cartesian", "--level", "2",
            "--dt", "0.05", flag]
    outputs = []
    for name, extra in (("plain", []), ("config", ["--config", str(config)])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert run_cli(*argv, *extra) == EXIT_OK
        rec = json.loads(Path("out", "run.json").read_text())
        del rec["wall_seconds"], rec["build_gd_seconds"], rec["snapshot_seconds"]
        del rec["solver_timings"]
        for step in rec["steps"]:
            del step["timings"]
        outputs.append((sorted(map(str, Path().rglob("*"))), rec))
    assert outputs[0] == outputs[1]


def test_user_case_file_via_cli(tmp_path):
    case = tmp_path / "plane.json"
    case.write_text(json.dumps({
        "name": "plane", "final_time": 0.1,
        "source": "0*x", "obstacle": "-10 + 0*x",
        "initial": "0.5*x", "dirichlet": "0.5*x"}))
    out = tmp_path / "run"
    code = run_cli("solve", "--case-file", str(case), "--family", "cartesian",
                   "--level", "2", "--dt", "0.05", "--out", str(out),
                   "--formats", "json")
    assert code == EXIT_OK
    rec = json.loads((out / "run.json").read_text())
    assert rec["case"] == "plane"
    assert rec["snapshots"] == []


def test_case_and_case_file_conflict(tmp_path):
    assert run_cli("solve", "--case", "test1", "--case-file", "x.json",
                   "--out", str(tmp_path)) == EXIT_USAGE


def test_unknown_flag_is_usage_error():
    assert run_cli("solve", "--frobnicate") == EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    assert run_cli() == EXIT_USAGE


def test_deterministic_rerun(tmp_path):
    args = ("solve", "--case", "test2", "--family", "cartesian", "--level", "3",
            "--dt", "0.02", "--formats", "csv")
    run_cli(*args, "--out", str(tmp_path / "a"))
    run_cli(*args, "--out", str(tmp_path / "b"))
    a = (tmp_path / "a" / "cells_final.csv").read_text()
    b = (tmp_path / "b" / "cells_final.csv").read_text()
    assert a == b


def test_console_entry_point():
    # The [project.scripts] line, read as text: Python 3.10 has no tomllib.
    text = (REPO / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    (target,) = [line.split(" = ", 1)[1] for line in scripts.splitlines()
                 if line.startswith("hmmvi = ")]
    module, _, name = json.loads(target).partition(":")
    assert getattr(importlib.import_module(module), name) is hmmvi.cli.main


def test_out_defaults_to_out_whatever_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("HMMVI_OUTDIR", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert run_cli("meshgen", "--family", "cartesian", "--levels", "1") == EXIT_OK
    assert sorted(map(str, tmp_path.rglob("*"))) == [
        str(tmp_path / "out"), str(tmp_path / "out" / "cartesian_l01.json")]


# -- option branches, each with its full message -------------------------------


@pytest.mark.parametrize("argv, message", [
    pytest.param(["solve", "--case", "test2", "--family", "cartesian", "--level", "2",
                  "--formats", "vtk,xml"],
                 "argument --formats: expected a comma list from vtk,csv,json, got 'vtk,xml'",
                 id="bad-formats"),
    pytest.param(["solve", "--family", "cartesian", "--level", "2"],
                 "no case selected; use --case with one of "
                 "('test1', 'test2', 'smooth_baseline') or --case-file", id="no-case"),
    pytest.param(["solve", "--case", "test1", "--family", "cartesian", "--level", "2",
                  "--dt-exp", "-3000"],
                 "the dt rule dt = 1.0 * h^-3000.0 overflows for h = 0.707107",
                 id="dt-rule-overflows"),
    pytest.param(["diagnose", "--level", "2"],
                 "no mesh given; use --family/--levels or --mesh", id="no-mesh"),
    pytest.param(["diagnose", "--family", "cartesian"],
                 "no refinement levels given; use --levels", id="no-levels"),
    pytest.param(["meshgen", "--family", "cartesian"],
                 "meshgen needs --family and --levels", id="meshgen-without-levels"),
    pytest.param(["meshgen", "--levels", "2"],
                 "meshgen needs --family and --levels", id="meshgen-without-family"),
    pytest.param(["meshgen", "--family", "cartesian", "--levels", "11"],
                 "level 11 of family 'cartesian' would create about 4.19e+06 cells, "
                 "more than the budget of 2000000", id="meshgen-over-the-cell-budget"),
])
def test_usage_branch_is_its_one_message_line(tmp_path, capsys, argv, message):
    # --out is made by the first file written: a refused run leaves none
    code = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, first", [
    (["diagnose", "--family", "cartesian", "--levels", "1", "--quiet"], "quality.json"),
    (["meshgen", "--family", "cartesian", "--levels", "1"], "cartesian_l01.json"),
    (["solve", "--case", "test2", "--family", "cartesian", "--level", "2", "--dt", "0.05",
      "--quiet"], "snapshot_0001.vtk"),
], ids=["diagnose", "meshgen", "solve"])
@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_an_out_that_cannot_be_made_is_one_usage_line(tmp_path, capsys, argv, first,
                                                      under):
    # --out names an existing file, or a path through one: the first write
    # fails, and its one line names the file and the cause, with no traceback
    (tmp_path / "f").write_text("keep")
    out = tmp_path / "f" / "sub" if under else tmp_path / "f"
    code = run_cli(*argv, "--out", str(out))
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert lines == [f"cannot write {out / first}: " + (
        f"[Errno 20] Not a directory: '{out}'" if under
        else f"[Errno 17] File exists: '{out}'")]
    assert (tmp_path / "f").read_text() == "keep"


def test_main_keeps_the_callers_root_handler_and_feeds_it(tmp_path):
    # main() puts its stderr handler on the hmmvi logger for the call only
    root, package = logging.getLogger(), logging.getLogger("hmmvi")
    before = (list(package.handlers), package.level)
    handler = logging.handlers.BufferingHandler(100)
    root.addHandler(handler)
    try:
        code = run_cli("meshgen", "--family", "cartesian", "--levels", "1",
                       "--out", str(tmp_path))
        assert handler in root.handlers
    finally:
        root.removeHandler(handler)
    assert code == EXIT_OK
    (record,) = handler.buffer
    assert (record.name, record.levelno) == ("hmmvi", logging.INFO)
    assert record.getMessage().startswith(f"wrote {tmp_path / 'cartesian_l01.json'}: ")
    assert (list(package.handlers), package.level) == before


def test_a_case_fixed_dt_rule_sets_the_step(tmp_path, capsys):
    # test2 recommends the fixed step 0.01: no --dt, --dt-coef or --dt-exp
    out = tmp_path / "run"
    code = run_cli("solve", "--case", "test2", "--family", "cartesian", "--level", "2",
                   "--formats", "json", "--out", str(out))
    assert code == EXIT_OK
    assert capsys.readouterr().err.splitlines()[0] == (
        "case test2 on cartesian_l2: 16 cells, h = 0.70711, 10 steps of dt = 0.01")
    record = json.loads((out / "run.json").read_text())
    assert record["time_nodes"] == np.linspace(0.0, 0.1, 11).tolist()


def test_a_generated_mesh_off_the_case_box_is_warned_about(tmp_path, caplog):
    code = run_cli("solve", "--case", "test1", "--family", "cartesian", "--level", "2",
                   "--bbox=-1,3,-1,1", "--dt", "0.05", "--formats", "json",
                   "--out", str(tmp_path / "run"))
    assert code == EXIT_OK
    warnings = [(r.name, r.getMessage()) for r in caplog.records
                if r.levelno == logging.WARNING]
    assert warnings == [(
        "hmmvi", "mesh cartesian_l2 spans the box [-1.0, 3.0, -1.0, 1.0], which is not "
        "inside the box [-1.0, 1.0, -1.0, 1.0] of case test1; its fields are evaluated "
        "outside their domain")]


def test_converge_on_one_level_has_no_rates(tmp_path):
    out = tmp_path / "conv"
    code = run_cli("converge", "--case", "test1", "--family", "triangular", "--levels", "2",
                   "--out", str(out))
    assert code == EXIT_OK
    (level,) = json.loads((out / "convergence.json").read_text())["levels"]
    assert level["rate_l2"] is None and level["rate_grad"] is None
    assert 0.0 < level["rel_l2"] and 0.0 < level["rel_grad"]


# The relative errors at T, (rel_l2, rel_grad) per level.  The fan3 norms
# run on cells with 3 to 6 edges from each mesh's fan table, with the
# subcell gradient maps computed once per cell size and applied to every
# time node; they are the values of the CSR gradient matrix the maps
# replaced.
@pytest.mark.parametrize("argv, quadrature, errors", [
    pytest.param(["--family", "triangular", "--levels", "2..3"], "centroid",
                 [0.5318774800617717, 0.6145523552233454, 0.3489189395869984,
                  0.5087710905389905], id="triangular-2..3"),
    pytest.param(["--family", "hexagonal", "--levels", "1..2", "--quadrature", "fan3"], "fan3",
                 [0.7099207076866078, 0.531747736700853, 0.43165247163076215,
                  0.46553072297993914], id="hexagonal-1..2-fan3"),
])
def test_converge_error_norms_are_pinned(tmp_path, argv, quadrature, errors):
    out = tmp_path / "conv"
    assert run_cli("converge", "--case", "test1", *argv, "--out", str(out)) == EXIT_OK
    doc = json.loads((out / "convergence.json").read_text())
    assert doc["quadrature"] == quadrature and len(doc["levels"]) == 2
    got = [row[key] for row in doc["levels"] for key in ("rel_l2", "rel_grad")]
    assert got == pytest.approx(errors, rel=1e-12, abs=0)


@pytest.mark.parametrize("command", [None, "solve"])
def test_help_prints_the_parser_help_and_returns_0(capsys, command):
    parser, commands = build_parser()
    argv = ["--help"] if command is None else [command, "--help"]
    assert run_cli(*argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == (parser if command is None else commands[command]).format_help()
    assert captured.err == ""
