"""Command line driver.

Subcommands: ``meshgen`` writes mesh files, ``validate`` checks mesh files,
``solve`` runs one transient problem, ``converge`` runs a refinement study
against an exact solution, ``diagnose`` evaluates the discretisation quality
measures over a refinement family.  A JSON config file can supply any long
option of a subcommand: its keys become option tokens for the same parser as
the flags.  Explicit flags win over the config, which wins over per-case
recommendations.

Exit codes: 0 on success, 1 on numerical failures (solver breakdown, invalid
mesh geometry, degenerate norms), 2 on usage and configuration errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np

from .cases import BUILTIN_CASES, AnalyticCase, CaseError, builtin_case, load_case_file
from .diagnostics import DiagnosticsError, eoc, error_norms, gd_quality_report
from .discretisation import DiscretisationError, build_gd
from .export import write_csv, write_json, write_vtk
from .mesh import (MAX_LEVEL, MESH_FAMILIES, MeshFormatError, MeshGenerationError,
                   MeshValidationError, generate_mesh, load_mesh, mesh_size,
                   read_mesh, save_mesh, validate)
from .solver import SolverError
from .timeloop import TimeGrid, TimeGridError, run_transient

log = logging.getLogger("hmmvi")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2

DEFAULT_FORMATS = ("vtk", "csv", "json")


class ConfigError(argparse.ArgumentTypeError):
    """A usage error (exit 2); raised by an option type, argparse names the option."""


# -- option handling ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def parse_levels(text) -> list:
    """Parse a level list: '3', '1..4', or '2,5,9'.

    Each level must lie in 1..MAX_LEVEL, the levels a mesh family can
    generate; the ends of a range are checked before it is expanded."""

    def checked(levels):
        for n in levels:
            if not 1 <= n <= MAX_LEVEL:
                raise ConfigError(f"level {n} is outside 1..{MAX_LEVEL}, "
                                  f"the levels a mesh family can generate")
        return levels

    try:
        if isinstance(text, (list, tuple)):
            return checked([int(v) for v in text])
        text = str(text).strip()
        if ".." in text:
            lo, hi = checked(list(map(int, text.split("..", 1))))
            levels = list(range(lo, hi + 1))
        else:
            levels = checked([int(tok) for tok in text.split(",") if tok.strip()])
        if not levels:
            raise ValueError
        return levels
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"cannot parse levels {text!r} (expected e.g. '3', '1..4' or '2,5,9')")


def parse_bbox(text) -> tuple:
    """Parse a domain box 'xmin,xmax,ymin,ymax' of four finite numbers."""
    try:
        box = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        box = ()
    if len(box) != 4 or not all(map(math.isfinite, box)):
        raise ConfigError(f"cannot parse bbox {text!r} (expected four finite "
                          f"numbers xmin,xmax,ymin,ymax)")
    return box


def _formats(text) -> tuple:
    formats = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not set(formats) <= set(DEFAULT_FORMATS):
        raise ConfigError(f"expected a comma list from vtk,csv,json, got {text!r}")
    return formats


def _vtk_every(text) -> int:
    every = int(text) if text.strip().isdecimal() else 0
    if every < 1:
        raise ConfigError(f"vtk_every must be a positive integer, got {text!r}")
    return every


def config_argv(parser: argparse.ArgumentParser, path,
                given: argparse.Namespace) -> list:
    """Read a JSON config file as tokens of ``parser``'s long options.

    Rules in docs/formats.md.  The tokens go in front of the command line, so
    a flag wins by argparse's last-one-wins rule; ``--mesh`` appends, so the
    config's mesh files are dropped when the command line gives any.
    """
    try:
        with open(path) as f:
            config = json.load(f)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: also bad UTF-8
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    tokens = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        action = next((a for a in parser._actions
                       if a.dest not in ("help", "config")
                       and (flag in a.option_strings or a.dest == key)), None)
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        if value is None or (action.dest == "mesh" and given.mesh):
            continue
        opt = action.option_strings[0]
        if action.nargs == 0:  # an on/off flag: argparse rejects "--flag=value"
            if value is not False:
                tokens.append(opt if value is True else f"{opt}={json.dumps(value)}")
            continue
        items = value if isinstance(value, list) else [value]
        if action.type is None and not all(isinstance(v, str) for v in items):
            raise ConfigError(f"argument {opt}: config key {key!r} takes a string "
                              f"or a list of strings, got {value!r}")
        texts = [v if isinstance(v, str) else json.dumps(v) for v in items]
        if action.dest == "mesh":
            tokens += [f"{opt}={text}" for text in texts]
        else:
            tokens.append(f"{opt}={','.join(texts)}")
    return tokens


def output(args, name: str, write, *data, **options) -> Path:
    """Write ``name`` in ``--out`` by ``write(path, *data, **options)``, making
    ``--out`` first; an OSError is a usage error naming the file."""
    path = Path(args.out) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path, *data, **options)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def resolve_case(args) -> AnalyticCase:
    if args.case_file:
        return load_case_file(args.case_file)
    if not args.case:
        raise ConfigError(f"no case selected; use --case with one of "
                          f"{BUILTIN_CASES} or --case-file")
    return builtin_case(args.case)


def resolve_dt(args, case: AnalyticCase, h: float) -> float:
    if args.dt is not None:
        return args.dt
    coef, expo = args.dt_coefficient, args.dt_exponent
    rule = case.recommended.get("dt_rule", {})
    if coef is None and expo is None and "fixed" in rule:
        return rule["fixed"]
    if coef is None:
        coef = rule.get("coefficient", 1.0)
    if expo is None:
        expo = rule.get("exponent", 2.0)
    try:
        return coef * h ** expo
    except OverflowError:
        raise ConfigError(f"the dt rule dt = {coef!r} * h^{expo!r} overflows "
                          f"for h = {h:.6g}") from None


def check_mesh_box(mesh, case: AnalyticCase, tag: str, from_file: bool) -> None:
    """Refuse a mesh file, and warn about a generated mesh, whose box is not
    inside the case's box: ``--bbox`` may move a generated mesh off it on
    purpose.  The slack is relative, 1e-9, because hexagonal vertices are
    rounded to 10 decimals.
    """
    (x0, x1, y0, y1), (c0, c1, d0, d1) = mesh.bbox, case.bbox
    slack = 1e-9 * max(1.0, *map(abs, case.bbox))
    if x0 < c0 - slack or x1 > c1 + slack or y0 < d0 - slack or y1 > d1 + slack:
        message = (f"mesh {tag} spans the box {list(mesh.bbox)}, which is not inside "
                   f"the box {list(case.bbox)} of case {case.name}")
        if from_file:
            raise ConfigError(message)
        log.warning("%s; its fields are evaluated outside their domain", message)


def resolve_meshes(args, case=None) -> list:
    """(tag, build) pairs from files or a generated family, checked before any
    mesh is built; ``build()`` makes the mesh."""
    if args.mesh:
        return [(Path(f).stem, partial(load_mesh, f)) for f in args.mesh]
    recommended = case.recommended if case is not None else {}
    family = args.family or recommended.get("mesh_family")
    if family is None:
        raise ConfigError("no mesh given; use --family/--levels or --mesh")
    levels = args.levels or recommended.get("levels")
    if levels is None:
        raise ConfigError("no refinement levels given; use --levels")
    try:
        levels = parse_levels(levels)
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise ConfigError(f"levels {','.join(map(str, levels))} must strictly increase")
    except ConfigError as err:
        if args.levels or not getattr(args, "case_file", None):
            raise
        raise ConfigError(f"{args.case_file}: recommended.levels: {err}") from None
    bbox = args.bbox or case.bbox
    return [(f"{family}_l{n}", partial(generate_mesh, family, n, bbox)) for n in levels]


def study_meshes(args, case=None):
    """(tag, mesh) per level of a refinement study, coarse to fine.  Generated
    levels are built one at a time; mesh files are all loaded first, once each,
    and must lie inside the case's box with h strictly decreasing."""
    meshes = resolve_meshes(args, case)
    if not args.mesh:
        return ((tag, build()) for tag, build in meshes)
    meshes = [(tag, build()) for tag, build in meshes]
    if case is not None:
        for tag, mesh in meshes:
            check_mesh_box(mesh, case, tag, from_file=True)
    sizes = [mesh_size(mesh) for _, mesh in meshes]
    for a, b, ha, hb in zip(args.mesh, args.mesh[1:], sizes, sizes[1:]):
        if hb >= ha:
            raise ConfigError(f"mesh files must go coarse to fine, with h strictly "
                              f"decreasing: {a} has h = {ha!r}, {b} after it h = {hb!r}")
    return meshes


# -- subcommands ---------------------------------------------------------------


def cmd_meshgen(args) -> int:
    if args.family is None or args.levels is None:
        raise ConfigError("meshgen needs --family and --levels")
    for n in args.levels:
        mesh = generate_mesh(args.family, n, args.bbox)
        path = output(args, f"{args.family}_l{n:02d}.json", partial(save_mesh, mesh))
        log.info("wrote %s: %d cells, %d edges, h = %.5g",
                 path, mesh.n_cells, mesh.n_edges, mesh_size(mesh))
    return EXIT_OK


def cmd_validate(args) -> int:
    for path in args.files:
        report = validate(read_mesh(path))
        log.info("%s: %d cells, %d edges, h = %.5g, worst closure defect %.2e, "
                 "min edge distance %.3e",
                 path, report["n_cells"], report["n_edges"], report["h"],
                 report["max_closure_defect"], report["min_edge_distance"])
    return EXIT_OK


def run_level(args, case: AnalyticCase, tag: str, mesh, on_step=None):
    """One run on one mesh: box check, scheme, time grid and march.

    ``on_step(step, t, u, partition, stats)`` goes to ``run_transient`` as it
    is.  Returns gd, the solution and the wall times of ``build_gd`` and of
    the march as ``{"build_gd_seconds": ..., "wall_seconds": ...}``."""
    check_mesh_box(mesh, case, tag, from_file=bool(args.mesh))
    start = time.perf_counter()
    gd = build_gd(mesh, case.spec.diffusion)
    build_seconds = time.perf_counter() - start
    h = mesh_size(mesh)
    grid = TimeGrid.uniform_from_dt(case.spec.final_time, resolve_dt(args, case, h))
    log.info("case %s on %s: %d cells, h = %.5g, %d steps of dt = %.5g",
             case.name, tag, mesh.n_cells, h, grid.n_steps, grid.step)
    start = time.perf_counter()
    solution = run_transient(gd, case.spec, grid, on_step=on_step)
    seconds = {"build_gd_seconds": build_seconds,
               "wall_seconds": time.perf_counter() - start}
    return gd, solution, seconds


def cmd_solve(args) -> int:
    case = resolve_case(args)
    meshes = resolve_meshes(args, case)
    if len(meshes) != 1:
        raise ConfigError(f"solve expects exactly one mesh, got {len(meshes)}")
    tag, build = meshes[0]
    mesh = build()

    snapshots = []
    snapshot_seconds = 0.0
    with np.errstate(all="ignore"):  # run_transient rejects non-finite values
        psi = case.spec.obstacle(mesh.cell_points)

    # The grid's last node is np.linspace's endpoint, final_time exactly.
    def on_step(step, t, u, partition, stats):
        nonlocal snapshot_seconds
        if "vtk" in args.formats and (step % args.vtk_every == 0
                                      or t == case.spec.final_time):
            start = time.perf_counter()
            path = output(args, f"snapshot_{step:04d}.vtk", write_vtk, mesh, {
                "u": u.cells,
                "gap": u.cells - psi,
                "contact": partition.contact.astype(float),
            }, title=f"{case.name} t={t:.6g}")
            snapshot_seconds += time.perf_counter() - start
            snapshots.append(str(path))

    gd, solution, seconds = run_level(args, case, tag, mesh, on_step)
    log.info("iterations per step: %s", solution.iterations)

    record = {
        "case": case.name,
        "case_bbox": list(case.bbox),
        "mesh": {"cells": mesh.n_cells, "edges": mesh.n_edges,
                 "h": mesh_size(mesh), "metadata": mesh.metadata},
        "time_nodes": solution.grid.nodes.tolist(),
        "iterations": solution.iterations,
        "steps": [asdict(s) for s in solution.stats],
        "contact_cells": [int(p.n_contact) for p in solution.partitions],
        "complementarity_max": max(s.complementarity_max for s in solution.stats),
        "conservation_defect": max(s.conservation_defect for s in solution.stats),
        "solver_timings": solution.solver_timings,
        **seconds,
        "snapshots": snapshots,
        "snapshot_seconds": snapshot_seconds,
    }

    if "csv" in args.formats:
        x, y = mesh.cell_points.T
        output(args, "cells_final.csv", write_csv,
               ["cell", "x", "y", "area", "u", "obstacle", "contact"],
               [range(mesh.n_cells), x, y, mesh.cell_areas, solution.final.cells,
                solution.psi, solution.partitions[-1].contact.astype(int)])
    try:  # error norms that cannot be taken fail the run after its record is written
        if case.has_exact:
            report = error_norms(gd, solution, case.u_exact, case.grad_exact,
                                 rule=args.quadrature)
            record["errors"] = {key: getattr(report, key) for key in (
                "rel_l2_final", "rel_grad_final", "linf_l2", "spacetime_grad",
                "quadrature")}
            log.info("relative errors at T: %.5g (values), %.5g (gradients)",
                     report.rel_l2_final, report.rel_grad_final)
    finally:
        if "json" in args.formats:
            output(args, "run.json", write_json, record)
    return EXIT_OK


def cmd_converge(args) -> int:
    case = resolve_case(args)
    if not case.has_exact:
        raise ConfigError(f"case {case.name!r} has no exact solution; "
                          f"a convergence study needs one")

    rows = []
    for tag, mesh in study_meshes(args, case):
        gd, solution, seconds = run_level(args, case, tag, mesh)
        report = error_norms(gd, solution, case.u_exact, case.grad_exact,
                             rule=args.quadrature)
        rows.append({
            "tag": tag,
            "h": mesh_size(mesh),
            "n_cells": mesh.n_cells,
            "n_dofs": gd.n_dofs,
            "dt": solution.grid.step,
            "n_steps": solution.grid.n_steps,
            "rel_l2": report.rel_l2_final,
            "rel_grad": report.rel_grad_final,
            "linf_l2": report.linf_l2,
            "spacetime_grad": report.spacetime_grad,
            "max_iterations": max(s.iterations for s in solution.stats),
            **seconds,
        })

    hs = [r["h"] for r in rows]
    for key in ("l2", "grad"):
        rates = eoc([r[f"rel_{key}"] for r in rows], hs).tolist() if len(rows) > 1 else []
        for r, rate in zip(rows, [None, *rates]):
            r[f"rate_{key}"] = rate

    header = ["tag", "h", "n_cells", "n_dofs", "dt", "n_steps",
              "rel_l2", "rate_l2", "rel_grad", "rate_grad"]
    output(args, "convergence.csv", write_csv, header,
           [[r[k] for r in rows] for k in header])
    output(args, "convergence.json", write_json, {
        "case": case.name, "case_bbox": list(case.bbox),
        "quadrature": args.quadrature, "levels": rows})
    output(args, "convergence_loglog.dat", write_csv, ["h", "rel_l2", "rel_grad"],
           [[r[k] for r in rows] for k in ("h", "rel_l2", "rel_grad")])

    fmt = "%-16s %-9s %-8s %-10s %-8s %-10s %-8s"
    log.info(fmt, "level", "h", "cells", "rel_l2", "rate", "rel_grad", "rate")
    for r in rows:
        log.info(fmt, r["tag"], f"{r['h']:.4g}", r["n_cells"],
                 f"{r['rel_l2']:.5f}",
                 "-" if r["rate_l2"] is None else f"{r['rate_l2']:.2f}",
                 f"{r['rel_grad']:.5f}",
                 "-" if r["rate_grad"] is None else f"{r['rate_grad']:.2f}")
    return EXIT_OK


# The measures diagnose reports beside C_D, each on gd_quality_report's one probe.
DIAGNOSE_MEASURES = ("w_d", "s_d", "i_d0")


def _probe_value(by_probe: dict) -> float:
    (value,) = by_probe.values()
    return value


def cmd_diagnose(args) -> int:
    rows = []
    for tag, mesh in study_meshes(args):
        start = time.perf_counter()
        gd = build_gd(mesh)
        build_seconds = time.perf_counter() - start
        start = time.perf_counter()
        report = gd_quality_report(gd)
        entry = {"tag": tag, **asdict(report), "build_gd_seconds": build_seconds,
                 "report_seconds": time.perf_counter() - start}
        rows.append(entry)
        log.info("%s: h = %.5g, C_D = %.5g, %s", tag, report.h, report.c_d, ", ".join(
            f"{m.upper()} = {_probe_value(entry[m]):.5g}" for m in DIAGNOSE_MEASURES))

    columns = {m: [_probe_value(r[m]) for r in rows] for m in DIAGNOSE_MEASURES}
    doc = {"levels": rows}
    if len(rows) >= 2:
        hs = [r["h"] for r in rows]
        doc["eoc"] = {m: eoc(column, hs).tolist() for m, column in columns.items()}
        log.info("orders between levels: %s", ", ".join(
            f"{m.upper()} {['%.2f' % v for v in o]}" for m, o in doc["eoc"].items()))
    output(args, "quality.json", write_json, doc)
    fields = ("tag", "h", "n_cells", "n_edges", "c_d")
    output(args, "quality.csv", write_csv, [*fields, *columns],
           [*([r[f] for r in rows] for f in fields), *columns.values()])
    return EXIT_OK


# -- wiring --------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", default="out", help="output directory (default 'out')")
    p.add_argument("--quiet", action="store_true", help="only warnings and errors")
    mesh = p.add_mutually_exclusive_group()
    mesh.add_argument("--family", choices=MESH_FAMILIES, help="generated mesh family")
    mesh.add_argument("--mesh", action="append", help="mesh file (instead of a family)")
    p.add_argument("--levels", "--level", type=parse_levels,
                   help="refinement level(s), e.g. '3', '1..4', '2,5'")
    p.add_argument("--bbox", type=parse_bbox, default=(-1.0, 1.0, -1.0, 1.0),
                   help="domain box xmin,xmax,ymin,ymax (default: the case's, else -1,1,-1,1)")


def _add_case_options(p):
    case = p.add_mutually_exclusive_group()
    case.add_argument("--case",
                      help=f"built-in case: one of {', '.join(BUILTIN_CASES)}")
    case.add_argument("--case-file", help="user case JSON file")
    p.add_argument("--dt", type=float, help="fixed time step")
    p.add_argument("--dt-coef", dest="dt_coefficient", type=float,
                   help="c in the rule dt = c * h^p")
    p.add_argument("--dt-exp", dest="dt_exponent", type=float,
                   help="p in the rule dt = c * h^p")
    p.add_argument("--quadrature", choices=("centroid", "fan3"), default="centroid",
                   help="cell quadrature for error norms (default centroid)")
    p.set_defaults(bbox=None)  # a generated mesh then takes the case's box


def build_parser() -> tuple:
    """The top-level parser and the parser of each subcommand, by name."""
    parser = _Parser(
        prog="hmmvi",
        description="Hybrid mimetic mixed solver for parabolic obstacle problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("meshgen", help="generate and write mesh families")
    _add_common(p)
    p.set_defaults(func=cmd_meshgen)

    p = sub.add_parser("validate", help="validate mesh files")
    p.add_argument("files", nargs="+", help="mesh files to check")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="run one transient problem")
    _add_common(p)
    _add_case_options(p)
    p.add_argument("--formats", type=_formats, default=DEFAULT_FORMATS,
                   help="comma list from vtk,csv,json")
    p.add_argument("--vtk-every", type=_vtk_every, default=1,
                   help="write every n-th snapshot (default 1)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("converge", help="refinement study against an exact solution")
    _add_common(p)
    _add_case_options(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("diagnose", help="discretisation quality measures")
    _add_common(p)
    p.set_defaults(func=cmd_diagnose)

    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    handler, level = logging.StreamHandler(), log.level  # for this call only
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):  # config options go before the flags
            at = argv.index(args.command) + 1
            tokens = config_argv(commands[args.command], args.config, args)
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        log.setLevel(logging.WARNING if args.quiet else logging.INFO)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ConfigError, CaseError, MeshFormatError, MeshGenerationError,
            TimeGridError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (SolverError, DiagnosticsError, MeshValidationError,
            DiscretisationError) as exc:
        log.error("%s", exc)
        return EXIT_NUMERICAL
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
