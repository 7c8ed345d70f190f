"""Analysis layer: property checking, experiment harness, sweeps, tables."""

from .experiments import (
    ALGORITHMS,
    AlgorithmSpec,
    ExperimentRecord,
    run_experiment,
)
from .campaign import (
    CHAOS_PRESETS,
    ChaosCampaign,
    ChaosOutcome,
    TriageReport,
    chaos_grid,
    execute_chaos_task,
)
from .charts import bar_chart, log_curve, step_curve
from .coordinator import Coordinator, CoordinatorStats
from .executor import (
    ExperimentSummary,
    ResultCache,
    RunTask,
    SweepExecutor,
    parallel_map,
    summarize_record,
)
from .convergence import (
    contraction_factors,
    rank_snapshots,
    spread_for_ids,
    spread_series,
)
from .export import CSV_FIELDS, export_csv, record_row
from .envelope import atomic_write_text, canonical_json, config_fingerprint
from .store import (
    Claim,
    LocalDirStore,
    open_store,
    store_doctor,
)
from .budget import CellBudget, budget_breach
from .backoff import PollBackoff
from .worker import Worker, WorkerStats
from .properties import PropertyReport, check_renaming
from .stats import Summary, fraction_true, median_of, ratios, summarise
from .sweep import SweepConfig, group_by, run_sweep
from .tables import banner, format_table
from .timeline import render_timeline, summarize_views
from .verify import ClaimResult, verify_reproduction

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "CHAOS_PRESETS",
    "CSV_FIELDS",
    "CellBudget",
    "ChaosCampaign",
    "ChaosOutcome",
    "Claim",
    "ClaimResult",
    "Coordinator",
    "CoordinatorStats",
    "ExperimentRecord",
    "ExperimentSummary",
    "LocalDirStore",
    "PropertyReport",
    "ResultCache",
    "RunTask",
    "Summary",
    "SweepConfig",
    "SweepExecutor",
    "TriageReport",
    "PollBackoff",
    "Worker",
    "WorkerStats",
    "atomic_write_text",
    "budget_breach",
    "banner",
    "bar_chart",
    "canonical_json",
    "chaos_grid",
    "check_renaming",
    "config_fingerprint",
    "execute_chaos_task",
    "open_store",
    "store_doctor",
    "contraction_factors",
    "export_csv",
    "format_table",
    "fraction_true",
    "group_by",
    "log_curve",
    "median_of",
    "parallel_map",
    "rank_snapshots",
    "record_row",
    "spread_for_ids",
    "spread_series",
    "step_curve",
    "verify_reproduction",
    "ratios",
    "render_timeline",
    "run_experiment",
    "run_sweep",
    "summarise",
    "summarize_record",
    "summarize_views",
]
