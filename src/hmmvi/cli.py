"""Command line driver.

Subcommands: ``meshgen`` writes mesh files, ``validate`` checks mesh files,
``solve`` runs one transient problem, ``converge`` runs a refinement study
against an exact solution, ``diagnose`` evaluates the discretisation quality
measures over a refinement family.  A JSON config file can supply any option;
explicit flags win over the config, which wins over per-case recommendations.

Exit codes: 0 on success, 1 on numerical failures (solver breakdown, invalid
mesh geometry, degenerate norms), 2 on usage and configuration errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .cases import BUILTIN_CASES, AnalyticCase, CaseError, builtin_case, load_case_file
from .diagnostics import DiagnosticsError, eoc, error_norms, gd_quality_report
from .discretisation import DiscretisationError, build_gd
from .export import write_csv, write_json, write_vtk
from .mesh import (MESH_FAMILIES, MeshFormatError, MeshGenerationError,
                   MeshValidationError, generate_mesh, load_mesh, mesh_size,
                   save_mesh, validate)
from .solver import SolverError
from .timeloop import TimeGrid, TimeGridError, run_transient

log = logging.getLogger("hmmvi")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

DEFAULT_FORMATS = ("vtk", "csv", "json")


class ConfigError(Exception):
    """Bad flag combinations or malformed config files."""


# -- option handling ----------------------------------------------------------


def parse_levels(text) -> list:
    """Parse a level list: '3', '1..4', or '2,5,9'."""
    try:
        if isinstance(text, (list, tuple)):
            return [int(v) for v in text]
        text = str(text).strip()
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"cannot parse levels {text!r} "
                          f"(expected e.g. '3', '1..4' or '2,5,9')")


def parse_bbox(value) -> tuple:
    try:
        if isinstance(value, (list, tuple)):
            vals = [float(v) for v in value]
        else:
            vals = [float(tok) for tok in str(value).split(",")]
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse bbox {value!r} "
                          f"(expected four numbers xmin,xmax,ymin,ymax)")
    if len(vals) != 4:
        raise ConfigError("bounding box needs four numbers: xmin,xmax,ymin,ymax")
    return tuple(vals)


def load_config(path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def option(args, config: dict, key: str, default=None):
    """Flag value if given, else config value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if config.get(key) is not None:
        return config[key]
    return default


def resolve_out_dir(args, config) -> Path:
    out = option(args, config, "out",
                 os.environ.get("HMMVI_OUTDIR", "out"))
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def resolve_case(args, config) -> AnalyticCase:
    name = option(args, config, "case")
    case_file = option(args, config, "case_file")
    if name and case_file:
        raise ConfigError("give either a built-in case or a case file, not both")
    if case_file:
        return load_case_file(case_file)
    if not name:
        raise ConfigError(f"no case selected; use --case with one of "
                          f"{BUILTIN_CASES} or --case-file")
    variant = option(args, config, "variant", "derived_f")
    return builtin_case(name, variant=variant)


def _number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}")


def resolve_dt(args, config, case: AnalyticCase, h: float) -> float:
    dt = option(args, config, "dt")
    if dt is not None:
        return _number(dt, "dt")
    coef = option(args, config, "dt_coefficient")
    expo = option(args, config, "dt_exponent")
    rule = case.recommended.get("dt_rule", {})
    if coef is None and expo is None and "fixed" in rule:
        return _number(rule["fixed"], "dt_rule.fixed")
    if coef is None:
        coef = _number(rule.get("coefficient", 1.0), "dt_rule.coefficient")
    if expo is None:
        expo = _number(rule.get("exponent", 2.0), "dt_rule.exponent")
    return _number(coef, "dt_coefficient") * h ** _number(expo, "dt_exponent")


def resolve_meshes(args, config, case=None):
    """Yield (tag, mesh) pairs from files or a generated family."""
    files = option(args, config, "mesh")
    family = option(args, config, "family")
    if files and family:
        raise ConfigError("give either mesh files or a generated family, not both")
    if files:
        if isinstance(files, str):
            files = [files]
        for f in files:
            yield Path(f).stem, load_mesh(f, option(args, config, "mesh_format"))
        return
    if family is None and case is not None:
        family = case.recommended.get("mesh_family")
    if family is None:
        raise ConfigError("no mesh given; use --family/--levels or --mesh")
    levels = option(args, config, "levels")
    if levels is None:
        levels = config.get("level")
    if levels is None and case is not None:
        levels = case.recommended.get("levels")
    if levels is None:
        raise ConfigError("no refinement levels given; use --levels")
    bbox = parse_bbox(option(args, config, "bbox", (-1.0, 1.0, -1.0, 1.0)))
    for n in parse_levels(levels):
        yield f"{family}_l{n}", generate_mesh(family, n, bbox)


# -- subcommands ---------------------------------------------------------------


def cmd_meshgen(args) -> int:
    config = load_config(args.config) if args.config else {}
    family = option(args, config, "family")
    if family is None:
        raise ConfigError("meshgen needs --family")
    levels = option(args, config, "levels")
    if levels is None:
        raise ConfigError("meshgen needs --levels")
    bbox = parse_bbox(option(args, config, "bbox", (-1.0, 1.0, -1.0, 1.0)))
    out = resolve_out_dir(args, config)
    for n in parse_levels(levels):
        mesh = generate_mesh(family, n, bbox)
        path = out / f"{family}_l{n:02d}.json"
        save_mesh(mesh, path)
        log.info("wrote %s: %d cells, %d edges, h = %.5g",
                 path, mesh.n_cells, mesh.n_edges, mesh_size(mesh))
    return EXIT_OK


def cmd_validate(args) -> int:
    for path in args.files:
        mesh = load_mesh(path, args.mesh_format)
        report = validate(mesh)
        log.info("%s: %d cells, %d edges, h = %.5g, worst closure defect %.2e, "
                 "min edge distance %.3e",
                 path, report["n_cells"], report["n_edges"], report["h"],
                 report["max_closure_defect"], report["min_edge_distance"])
    return EXIT_OK


def _solve_one(gd, case, grid, out, formats, vtk_every):
    mesh = gd.mesh
    snapshots = []
    with np.errstate(all="ignore"):  # run_transient rejects non-finite values
        psi = case.spec.obstacle(mesh.cell_points)

    def on_step(step, t, u, partition, stats):
        if "vtk" in formats and (step % vtk_every == 0 or step == grid.n_steps):
            path = out / f"snapshot_{step:04d}.vtk"
            write_vtk(path, mesh, {
                "u": u.cells,
                "gap": u.cells - psi,
                "contact": partition.contact.astype(float),
            }, title=f"{case.name} t={t:.6g}")
            snapshots.append(str(path))

    start = time.perf_counter()
    solution = run_transient(gd, case.spec, grid, on_step=on_step)
    elapsed = time.perf_counter() - start

    record = {
        "case": case.name,
        "mesh": {
            "cells": mesh.n_cells,
            "edges": mesh.n_edges,
            "h": mesh_size(mesh),
            "metadata": mesh.metadata,
        },
        "time_nodes": solution.grid.nodes.tolist(),
        "iterations": solution.iterations,
        "contact_cells": [int(p.n_contact) for p in solution.partitions],
        "complementarity_max": max(s.complementarity_max for s in solution.stats),
        "conservation_defect": max(s.conservation_defect for s in solution.stats),
        "solver_timings": solution.solver_timings,
        "wall_seconds": elapsed,
        "snapshots": snapshots,
    }
    return solution, record


def cmd_solve(args) -> int:
    config = load_config(args.config) if args.config else {}
    case = resolve_case(args, config)
    out = resolve_out_dir(args, config)
    formats = option(args, config, "formats", list(DEFAULT_FORMATS))
    if isinstance(formats, str):
        formats = [f.strip() for f in formats.split(",") if f.strip()]
    vtk_every = option(args, config, "vtk_every", 1)
    if isinstance(vtk_every, bool) or not isinstance(vtk_every, int) or vtk_every < 1:
        raise ConfigError(f"vtk_every must be a positive integer, got {vtk_every!r}")
    quadrature = option(args, config, "quadrature", "centroid")

    meshes = list(resolve_meshes(args, config, case))
    if len(meshes) != 1:
        raise ConfigError(f"solve expects exactly one mesh, got {len(meshes)}")
    tag, mesh = meshes[0]
    gd = build_gd(mesh, case.spec.diffusion)
    h = mesh_size(mesh)
    dt = resolve_dt(args, config, case, h)
    grid = TimeGrid.uniform_from_dt(case.spec.final_time, dt)
    log.info("case %s on %s: %d cells, h = %.5g, %d steps of dt = %.5g",
             case.name, tag, mesh.n_cells, h, grid.n_steps, grid.steps[0])

    solution, record = _solve_one(gd, case, grid, out, formats, vtk_every)
    log.info("iterations per step: %s", solution.iterations)

    if "csv" in formats:
        u = solution.final
        psi = solution.psi.values
        contact = solution.partitions[-1].contact
        write_csv(out / "cells_final.csv",
                  ["cell", "x", "y", "area", "u", "obstacle", "contact"],
                  ((k, mesh.cell_points[k, 0], mesh.cell_points[k, 1],
                    mesh.cell_areas[k], u.cells[k], psi[k], int(contact[k]))
                   for k in range(mesh.n_cells)))
    if case.has_exact:
        report = error_norms(gd, solution, case.u_exact, case.grad_exact,
                             rule=quadrature)
        record["errors"] = {
            "rel_l2_final": report.rel_l2_final,
            "rel_grad_final": report.rel_grad_final,
            "linf_l2": report.linf_l2,
            "spacetime_grad": report.spacetime_grad,
            "quadrature": report.quadrature,
        }
        log.info("relative errors at T: %.5g (values), %.5g (gradients)",
                 report.rel_l2_final, report.rel_grad_final)
    if "json" in formats:
        write_json(out / "run.json", record)
    return EXIT_OK


def cmd_converge(args) -> int:
    config = load_config(args.config) if args.config else {}
    case = resolve_case(args, config)
    if not case.has_exact:
        raise ConfigError(
            f"case {case.name!r} has no exact solution; a convergence study "
            f"needs one")
    out = resolve_out_dir(args, config)
    quadrature = option(args, config, "quadrature", "centroid")

    rows = []
    for tag, mesh in resolve_meshes(args, config, case):
        gd = build_gd(mesh, case.spec.diffusion)
        h = mesh_size(mesh)
        dt = resolve_dt(args, config, case, h)
        grid = TimeGrid.uniform_from_dt(case.spec.final_time, dt)
        log.info("level %s: %d cells, h = %.5g, %d steps", tag, mesh.n_cells,
                 h, grid.n_steps)
        solution = run_transient(gd, case.spec, grid)
        report = error_norms(gd, solution, case.u_exact, case.grad_exact,
                             rule=quadrature)
        rows.append({
            "tag": tag,
            "h": h,
            "n_cells": mesh.n_cells,
            "n_dofs": gd.n_dofs,
            "dt": float(grid.steps[0]),
            "n_steps": grid.n_steps,
            "rel_l2": report.rel_l2_final,
            "rel_grad": report.rel_grad_final,
            "linf_l2": report.linf_l2,
            "spacetime_grad": report.spacetime_grad,
            "max_iterations": max(s.iterations for s in solution.stats),
        })

    hs = [r["h"] for r in rows]
    if len(rows) >= 2:
        rate_l2 = eoc([r["rel_l2"] for r in rows], hs)
        rate_grad = eoc([r["rel_grad"] for r in rows], hs)
    else:
        rate_l2 = rate_grad = np.array([])
    for i, r in enumerate(rows):
        r["rate_l2"] = float(rate_l2[i - 1]) if i > 0 else None
        r["rate_grad"] = float(rate_grad[i - 1]) if i > 0 else None

    header = ["tag", "h", "n_cells", "n_dofs", "dt", "n_steps",
              "rel_l2", "rate_l2", "rel_grad", "rate_grad"]
    write_csv(out / "convergence.csv", header,
              ([("" if r[k] is None else r[k]) for k in header] for r in rows))
    write_json(out / "convergence.json", {"case": case.name,
                                          "quadrature": quadrature,
                                          "levels": rows})
    write_csv(out / "convergence_loglog.dat", ["h", "rel_l2", "rel_grad"],
              ((r["h"], r["rel_l2"], r["rel_grad"]) for r in rows))

    fmt = "%-16s %-9s %-8s %-10s %-8s %-10s %-8s"
    log.info(fmt, "level", "h", "cells", "rel_l2", "rate", "rel_grad", "rate")
    for r in rows:
        log.info(fmt, r["tag"], f"{r['h']:.4g}", r["n_cells"],
                 f"{r['rel_l2']:.5f}",
                 "-" if r["rate_l2"] is None else f"{r['rate_l2']:.2f}",
                 f"{r['rel_grad']:.5f}",
                 "-" if r["rate_grad"] is None else f"{r['rate_grad']:.2f}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    config = load_config(args.config) if args.config else {}
    out = resolve_out_dir(args, config)
    rows = []
    for tag, mesh in resolve_meshes(args, config):
        gd = build_gd(mesh)
        report = gd_quality_report(gd)
        entry = {"tag": tag, **report.to_dict()}
        rows.append(entry)
        log.info("%s: h = %.5g, C_D = %.5g, W_D = %.5g, S_D = %.5g, I_D0 = %.5g",
                 tag, report.h, report.c_d,
                 report.w_d["sinusoidal_field"],
                 report.s_d["polynomial_bump"],
                 report.i_d0["polynomial_bump"])

    doc = {"levels": rows}
    if len(rows) >= 2:
        hs = [r["h"] for r in rows]
        doc["eoc"] = {
            "w_d": eoc([r["w_d"]["sinusoidal_field"] for r in rows], hs).tolist(),
            "s_d": eoc([r["s_d"]["polynomial_bump"] for r in rows], hs).tolist(),
            "i_d0": eoc([r["i_d0"]["polynomial_bump"] for r in rows], hs).tolist(),
        }
        log.info("orders between levels: W_D %s, S_D %s, I_D0 %s",
                 ["%.2f" % v for v in doc["eoc"]["w_d"]],
                 ["%.2f" % v for v in doc["eoc"]["s_d"]],
                 ["%.2f" % v for v in doc["eoc"]["i_d0"]])
    write_json(out / "quality.json", doc)
    write_csv(out / "quality.csv",
              ["tag", "h", "n_cells", "n_edges", "c_d", "w_d", "s_d", "i_d0"],
              ((r["tag"], r["h"], r["n_cells"], r["n_edges"], r["c_d"],
                r["w_d"]["sinusoidal_field"], r["s_d"]["polynomial_bump"],
                r["i_d0"]["polynomial_bump"]) for r in rows))
    return EXIT_OK


# -- wiring --------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", help="output directory (default 'out' or HMMVI_OUTDIR)")
    p.add_argument("--quiet", action="store_true", help="only warnings and errors")


def _add_mesh_options(p, multiple_levels: bool):
    p.add_argument("--family", choices=MESH_FAMILIES, help="generated mesh family")
    p.add_argument("--levels" if multiple_levels else "--level",
                   dest="levels", help="refinement level(s), e.g. '3', '1..4', '2,5'")
    p.add_argument("--bbox", help="domain box xmin,xmax,ymin,ymax")
    p.add_argument("--mesh", action="append", help="mesh file (instead of a family)")
    p.add_argument("--mesh-format", dest="mesh_format",
                   choices=("native_json", "fvca_text"),
                   help="mesh file format (default: by extension)")


def _add_case_options(p):
    p.add_argument("--case", help=f"built-in case: one of {', '.join(BUILTIN_CASES)}")
    p.add_argument("--case-file", dest="case_file", help="user case JSON file")
    p.add_argument("--variant", choices=("printed_f", "derived_f"),
                   help="source variant for the manufactured case")
    p.add_argument("--dt", type=float, help="fixed time step")
    p.add_argument("--dt-coef", dest="dt_coefficient", type=float,
                   help="c in the rule dt = c * h^p")
    p.add_argument("--dt-exp", dest="dt_exponent", type=float,
                   help="p in the rule dt = c * h^p")
    p.add_argument("--quadrature", choices=("centroid", "fan3"),
                   help="cell quadrature for error norms (default centroid)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmmvi",
        description="Hybrid mimetic mixed solver for parabolic obstacle problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("meshgen", help="generate and write mesh families")
    _add_common(p)
    _add_mesh_options(p, multiple_levels=True)
    p.set_defaults(func=cmd_meshgen)

    p = sub.add_parser("validate", help="validate mesh files")
    p.add_argument("files", nargs="+", help="mesh files to check")
    p.add_argument("--mesh-format", dest="mesh_format",
                   choices=("native_json", "fvca_text"))
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="run one transient problem")
    _add_common(p)
    _add_mesh_options(p, multiple_levels=False)
    _add_case_options(p)
    p.add_argument("--formats", help="comma list from vtk,csv,json")
    p.add_argument("--vtk-every", dest="vtk_every", type=int,
                   help="write every n-th snapshot (default 1)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("converge", help="refinement study against an exact solution")
    _add_common(p)
    _add_mesh_options(p, multiple_levels=True)
    _add_case_options(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("diagnose", help="discretisation quality measures")
    _add_common(p)
    _add_mesh_options(p, multiple_levels=True)
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.WARNING if getattr(args, "quiet", False) else logging.INFO,
        format="%(message)s", stream=sys.stderr, force=True)
    try:
        return args.func(args)
    except (ConfigError, CaseError, MeshFormatError, MeshGenerationError,
            TimeGridError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (SolverError, DiagnosticsError, MeshValidationError,
            DiscretisationError) as exc:
        log.error("%s", exc)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
