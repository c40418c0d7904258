"""Command line driver, exercised in-process through main()."""

import json
import subprocess
import sys

import numpy as np
import pytest

from hmmvi.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main, parse_levels


def run_cli(*argv):
    return main(list(argv))


def test_parse_levels_forms():
    assert parse_levels("3") == [3]
    assert parse_levels("1..4") == [1, 2, 3, 4]
    assert parse_levels("2,5,9") == [2, 5, 9]
    assert parse_levels([1, 2]) == [1, 2]


def test_meshgen_writes_levels(tmp_path):
    out = tmp_path / "meshes"
    code = run_cli("meshgen", "--family", "cartesian", "--levels", "1..2",
                   "--out", str(out))
    assert code == EXIT_OK
    files = sorted(p.name for p in out.iterdir())
    assert files == ["cartesian_l01.json", "cartesian_l02.json"]


def test_validate_accepts_generated_mesh(tmp_path):
    run_cli("meshgen", "--family", "hexagonal", "--levels", "2",
            "--out", str(tmp_path))
    assert run_cli("validate", str(tmp_path / "hexagonal_l02.json")) == EXIT_OK


def test_validate_missing_file_is_usage_error(tmp_path):
    assert run_cli("validate", str(tmp_path / "nope.json")) == EXIT_USAGE


@pytest.mark.parametrize("field, value", [
    ("cell_points", [[0.5, 0.5], [0.2, 0.2]]),
    ("cells", [[0, 1, 2, "a"]]),
    ("cells", [[0, 1, 2, [3]]]),
    ("cells", [[0, 1, 2.7, 3]]),
    ("vertices", [[0, 0], [1, "x"], [1, 1], [0, 1]]),
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
    assert record["complementarity_max"] <= 1e-8
    timings = record["solver_timings"]
    assert set(timings) == {"factor_s", "linear_s", "update_s"}
    assert all(v >= 0.0 for v in timings.values())
    assert timings["factor_s"] <= timings["linear_s"]


@pytest.mark.parametrize("field,expr", [("source", "log(x)"),
                                        ("initial", "log(x)"),
                                        ("dirichlet", "sqrt(x-2)+t")])
def test_nonfinite_case_data_is_named(tmp_path, field, expr):
    spec = {"name": "bad", "final_time": 0.1, "source": "0*x",
            "obstacle": "-10 + 0*x", "initial": "0.5*x", "dirichlet": "0.5*x"}
    spec[field] = expr
    case = tmp_path / "bad.json"
    case.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "solve", "--case-file", str(case),
         "--family", "cartesian", "--level", "2", "--dt", "0.05",
         "--out", str(tmp_path / "run"), "--formats", "json"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_NUMERICAL
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


def test_vtk_snapshot_is_wellformed(tmp_path):
    out = tmp_path / "run"
    run_cli("solve", "--case", "test2", "--family", "cartesian", "--level", "2",
            "--dt", "0.05", "--out", str(out))
    text = (out / "snapshot_0002.vtk").read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert any(line.startswith("POINTS") for line in text)
    assert any(line.startswith("CELL_DATA 16") for line in text)
    assert sum(line.startswith("SCALARS") for line in text) == 3


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


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hmmvi.cli", "meshgen", "--family", "cartesian",
         "--levels", "1", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert (tmp_path / "cartesian_l01.json").exists()


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("HMMVI_OUTDIR", str(tmp_path / "envout"))
    assert run_cli("meshgen", "--family", "cartesian", "--levels", "1") == EXIT_OK
    assert (tmp_path / "envout" / "cartesian_l01.json").exists()
