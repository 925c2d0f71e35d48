"""netdea: two-stage relational network DEA efficiency analysis.

Measure how efficiently decision-making units convert inputs into final
outputs through an intermediate stage. The package bundles a dense
two-phase simplex LP solver, the CCR and relational two-stage multiplier
models with stage-priority decomposition, dense ranking with Spearman rank
correlation, csv dataset ingestion, and report rendering; the ``netdea``
command drives the full pipeline.

The package root exports the names the README's "Library use" section
documents; everything else is reached through its submodule.
"""

from .analysis import AnalysisReport, build_report
from .dataset_io import (
    bundled_dataset_path,
    load_dataset,
    parse_dataset,
    render_report,
)
from .errors import DatasetFormatError, NetdeaError
from .lp_core import LinearProgram, solve_lp
from .models import (
    Dataset,
    EfficiencyRecord,
    SolverConfig,
    StagePriority,
    run_full_analysis,
    solve_ccr,
    solve_relational_overall,
    solve_stage_independent,
    solve_stage_priority,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Dataset",
    "DatasetFormatError",
    "EfficiencyRecord",
    "LinearProgram",
    "NetdeaError",
    "SolverConfig",
    "StagePriority",
    "build_report",
    "bundled_dataset_path",
    "load_dataset",
    "parse_dataset",
    "render_report",
    "run_full_analysis",
    "solve_ccr",
    "solve_lp",
    "solve_relational_overall",
    "solve_stage_independent",
    "solve_stage_priority",
]
