"""Spans around the calls into each layer of hmmvi, recorded from outside.

A ``Tracer`` replaces module attributes (``hmmvi.timeloop.solve_lvi``,
``scipy.sparse.linalg.splu``, ...) with wrappers that record one span per
call: name, layer, start, end and the index of the enclosing span.  The
attributes patched are the names the callers look up at call time, so the
wrappers see every call the program makes without any change to ``src/``.
Spans stay in memory; ``restore`` puts the original attributes back.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

LAYERS = ("mesh", "discretisation", "solver", "timeloop", "diagnostics",
          "quadrature", "cases", "export")

# (module, attribute, layer).  A layer of None means the layer of the caller:
# splu under solve_lvi is the solver's factorisation, under estimate_CD it is
# part of the diagnostics.
TARGETS = (
    ("hmmvi.mesh", "generate_mesh", "mesh"),
    ("hmmvi.mesh", "validate", "mesh"),
    ("hmmvi.discretisation", "build_gd", "discretisation"),
    ("hmmvi.timeloop", "assemble_forms", "discretisation"),
    ("hmmvi.diagnostics", "assemble_forms", "discretisation"),
    ("hmmvi.solver", "flux_conservation_defect", "discretisation"),
    ("hmmvi.timeloop", "run_transient", "timeloop"),
    ("hmmvi.timeloop", "time_average_source", "cases"),
    ("hmmvi.timeloop", "solve_lvi", "solver"),
    ("hmmvi.solver", "update_partition", "solver"),
    ("hmmvi.solver", "complementarity_residual", "solver"),
    ("scipy.sparse.linalg", "splu", None),
    ("hmmvi.diagnostics", "error_norms", "diagnostics"),
    ("hmmvi.diagnostics", "gd_quality_report", "diagnostics"),
    ("hmmvi.diagnostics", "estimate_CD", "diagnostics"),
    ("hmmvi.diagnostics", "estimate_WD", "diagnostics"),
    ("hmmvi.diagnostics", "bound_SD", "diagnostics"),
    ("hmmvi.diagnostics", "initial_interp_error", "diagnostics"),
    ("hmmvi.quadrature", "cell_rule", "quadrature"),
    ("hmmvi.export", "write_vtk", "export"),
)

# span name -> (time metric, count metric); splu is handled by layer, and
# run_transient only has its self time.
SPAN_METRICS = {
    "generate_mesh": ("mesh.generate_s", None),
    "validate": ("mesh.validate_s", None),
    "build_gd": ("discretisation.build_gd_s", None),
    "assemble_forms": ("discretisation.assemble_s", "discretisation.assemble_calls"),
    "flux_conservation_defect": ("discretisation.flux_defect_s", None),
    "solve_lvi": ("solver.solve_lvi_s", None),
    "update_partition": ("solver.update_partition_s", None),
    "complementarity_residual": ("solver.complementarity_s", None),
    "time_average_source": ("cases.source_eval_s", None),
    "error_norms": ("diagnostics.error_norms_s", None),
    "gd_quality_report": ("diagnostics.quality_s", None),
    "estimate_CD": ("diagnostics.estimate_cd_s", None),
    "estimate_WD": ("diagnostics.estimate_wd_s", None),
    "bound_SD": ("diagnostics.bound_sd_s", None),
    "initial_interp_error": ("diagnostics.initial_interp_s", None),
    "cell_rule": ("quadrature.cell_rule_s", "quadrature.cell_rule_calls"),
    "write_vtk": ("export.write_vtk_s", None),
}


class Tracer:
    """Records spans [name, layer, start, end, parent, note] while installed.

    The note is the stiffness nnz for assemble_forms and None otherwise.
    """

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._patched: list = []

    def install(self) -> None:
        for module, attr, layer in TARGETS:
            owner = importlib.import_module(module)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, attr, layer))
            self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, layer):
        spans, open_ = self.spans, self._open
        keeps_nnz = name == "assemble_forms"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            record = [name, layer or (spans[parent][1] if parent >= 0 else "bench"),
                      0.0, 0.0, parent, None]
            open_.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                open_.pop()
            if keeps_nnz:
                record[5] = result.stiffness.nnz
            return result

        return traced


def layer_metrics(spans) -> dict:
    """Per-layer times, counts and self times of one traced sample.

    A span's self time is its duration minus the time of its child spans;
    spans never overlap their siblings because the program is single
    threaded, so the children's union is their sum.
    """
    metrics = {}
    for time_name, count_name in SPAN_METRICS.values():
        metrics[time_name] = 0.0
        if count_name:
            metrics[count_name] = 0
    metrics.update({"solver.factor_s": 0.0, "solver.factorisations": 0,
                    "discretisation.stiffness_nnz": 0})
    metrics.update({f"{layer}.self_s": 0.0 for layer in LAYERS})

    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent, note in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, layer, start, end, parent, note) in enumerate(spans):
        duration = end - start
        metrics[f"{layer}.self_s"] += duration - child_time[i]
        if name == "splu":
            if layer == "solver":
                metrics["solver.factor_s"] += duration
                metrics["solver.factorisations"] += 1
            continue
        if name not in SPAN_METRICS:
            continue
        time_name, count_name = SPAN_METRICS[name]
        metrics[time_name] += duration
        if count_name:
            metrics[count_name] += 1
        if name == "assemble_forms":
            metrics["discretisation.stiffness_nnz"] += note
    return metrics
