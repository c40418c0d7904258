"""Hybrid mimetic mixed solver for parabolic obstacle problems.

The package discretises variational inequalities of obstacle type on general
polygonal meshes with a gradient scheme built from cell and edge unknowns,
advances them with implicit Euler stepping, and solves each time step by a
monotone active-set iteration.  It also measures the quality constants that
control the scheme's error estimates, so refinement studies can report both
observed errors and the discrete norms behind them.
"""

from .cases import AnalyticCase, BUILTIN_CASES, CaseError, builtin_case, load_case_file
from .diagnostics import (DiagnosticsError, ErrorReport, GdQualityReport, SdBound,
                          bound_SD, eoc, error_norms, estimate_CD, estimate_WD,
                          gd_quality_report, initial_interp_error, standard_probes)
from .discretisation import (AssembledForms, DiscretisationError, DofVector,
                             GradientDiscretisation, assemble_forms, build_gd,
                             flux_conservation_defect, interpolate_exact,
                             reconstruct_gradient_flat)
from .expressions import ExpressionError, compile_expression
from .mesh import (MESH_FAMILIES, MeshError, MeshFormatError, MeshGenerationError,
                   MeshValidationError, PolytopalMesh, generate_mesh, load_mesh,
                   mesh_size, save_mesh, validate)
from .solver import (ActiveSetPartition, IterationLimitError, LviProblem,
                     SingularSystemError, SolveStats, SolverError,
                     complementarity_residual, contact_tolerance, solve_lvi,
                     update_partition)
from .timeloop import (ProblemSpec, TimeGrid, TimeGridError, TransientSolution,
                       run_transient, time_average_source)

__version__ = "0.1.0"

__all__ = [
    "AnalyticCase", "BUILTIN_CASES", "CaseError", "builtin_case", "load_case_file",
    "DiagnosticsError", "ErrorReport", "GdQualityReport", "SdBound",
    "bound_SD", "eoc", "error_norms", "estimate_CD", "estimate_WD",
    "gd_quality_report", "initial_interp_error", "standard_probes",
    "AssembledForms", "DiscretisationError", "DofVector",
    "GradientDiscretisation", "assemble_forms", "build_gd",
    "flux_conservation_defect", "interpolate_exact", "reconstruct_gradient_flat",
    "ExpressionError", "compile_expression",
    "MESH_FAMILIES", "MeshError", "MeshFormatError",
    "MeshGenerationError", "MeshValidationError", "PolytopalMesh",
    "generate_mesh", "load_mesh", "mesh_size", "save_mesh", "validate",
    "ActiveSetPartition", "IterationLimitError",
    "LviProblem", "SingularSystemError", "SolveStats", "SolverError",
    "complementarity_residual", "contact_tolerance", "solve_lvi",
    "update_partition",
    "ProblemSpec", "TimeGrid", "TimeGridError", "TransientSolution",
    "run_transient", "time_average_source",
    "__version__",
]
