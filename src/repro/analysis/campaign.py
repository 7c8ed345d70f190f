"""Crash-contained chaos campaigns: fault grids with triage, not hangs.

A chaos campaign systematically runs algorithms under beyond-model fault
plans (:mod:`repro.sim.chaos`) and classifies every single run — the hard
invariant is **zero silent successes**: a run either completes with its
properties verified, or its failure is recorded with a typed cause and a
one-command reproducer. Nothing is dropped, nothing hangs the campaign.

* A campaign cell is a sweep cell: a :class:`~repro.analysis.executor.RunTask`
  whose ``chaos`` field holds the cell's
  :class:`~repro.sim.chaos.FaultPlan` (``None`` for the no-fault control
  cell). :func:`chaos_grid` builds the grid; :func:`describe` labels a
  cell and :func:`reproducer` emits the exact ``repro-renaming chaos``
  command line that re-executes it.
* :func:`execute_chaos_task` — the worker entry point: the verdict
  classifier around :func:`~repro.analysis.executor.execute_task`. It
  returns the cell's record, the sweep's
  :class:`~repro.analysis.executor.ExperimentSummary`, with its verdict
  fields set. Typed simulator errors
  (:class:`~repro.sim.errors.SimulationError`, including
  :class:`~repro.sim.errors.SafetyViolation` from the runtime monitor, and
  :class:`~repro.wire.WireError`) are *outcomes*, not crashes.
* :class:`ChaosCampaign` — the grid through the cell loop it shares with
  sweeps (:func:`repro.analysis.worker.run_cells`): retry of transient
  failures, a per-window timeout that quarantines hung cells, pool rebuild
  after a dead worker, and quarantine of configurations that crash the
  worker itself — in-process, pooled, or durable on a result store. The
  records, stored payloads and failure rows are the sweep's; only the
  run kind ``chaos`` differs.
* :class:`TriageReport` — the campaign verdict over
  :class:`ChaosOutcome` ``(task, record)`` pairs: per-status counts, the
  quarantine list, and the self-check :meth:`TriageReport.silent_successes`
  (must be empty: injected violations without a verdict are a harness bug).

Outcome statuses:

``clean``
    No fault was actually injected and all properties verified.
``tolerated``
    Faults were injected but every promised property still held (the
    algorithm's resilience slack absorbed the injection) — *verified*, not
    assumed.
``violation``
    The run completed but a property broke; the outcome names the broken
    properties and the fault families that were active.
``detected``
    The run aborted with a typed error (safety monitor, invariant check,
    configuration guard, round limit, wire decoder) — the failure-fast path.
``timeout``
    The worker exceeded the campaign's per-cycle timeout; quarantined with a
    reproducer.
``crashed``
    The worker raised an *untyped* error even after retries; quarantined
    with the exception and a reproducer.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..sim import (
    DEFAULT_ENGINE,
    ConfigurationError,
    FaultPlan,
    SafetyViolation,
    SimulationError,
)
from ..wire import WireError
from .budget import CellBudget
from .executor import (
    ExperimentSummary,
    RunTask,
    execute_task,
    failure,
    resolve_workers,
)
from .envelope import canonical_json, config_fingerprint
from .tables import format_table

__all__ = [
    "CHAOS_PRESETS",
    "ChaosCampaign",
    "ChaosOutcome",
    "TriageReport",
    "chaos_grid",
    "describe",
    "execute_chaos_task",
    "reproducer",
]

#: Every status a classified run can end in (stable order for reports).
STATUSES = ("clean", "tolerated", "violation", "detected", "timeout", "crashed")


def describe(task: RunTask) -> str:
    """Compact cell label for triage tables."""
    plan = task.chaos or FaultPlan()
    return (
        f"{task.algorithm} n={task.n} t={task.t} {task.attack} "
        f"seed={task.seed} {task.engine} [{plan.describe()}]"
    )


def reproducer(task: RunTask) -> str:
    """The one-command CLI line that re-executes exactly this cell."""
    plan = task.chaos or FaultPlan()
    parts = [
        "python -m repro.cli chaos",
        f"--algorithms {task.algorithm}",
        f"--sizes {task.n}:{task.t}",
        f"--attacks {task.attack}",
        f"--seeds {task.seed}",
        f"--engines {task.engine}",
        f"--chaos-seeds {plan.seed}",
    ]
    if plan.drop:
        parts.append(f"--drop {plan.drop}")
    if plan.duplicate:
        parts.append(f"--duplicate {plan.duplicate}")
    if plan.corrupt:
        parts.append(f"--corrupt {plan.corrupt}")
    if plan.extra_crashes:
        parts.append(f"--crash-extra {plan.extra_crashes}")
        parts.append(f"--crash-round {plan.crash_round}")
    parts.append("--combine")
    parts.append(f"--max-rounds {task.max_rounds}")
    if task.workload != "uniform":
        parts.append(f"--workload {task.workload}")
    if not task.monitor:
        parts.append("--no-monitor")
    parts.append("--workers 1")
    return " ".join(parts)


class ChaosOutcome(NamedTuple):
    """One campaign cell read as a verdict: the cell and its record (whose
    ``status``, ``violated`` and ``retries`` are the verdict)."""

    task: RunTask
    record: ExperimentSummary

    def as_dict(self) -> dict:
        record = self.record
        return {
            "task": describe(self.task),
            "status": record.status,
            "elapsed_s": record.elapsed_s,
            "error": record.error,
            "violated": list(record.violated),
            "injected": dict(record.report.injected),
            "retries": record.retries,
            "reproducer": reproducer(self.task) if record.quarantined else None,
        }


def execute_chaos_task(task: RunTask) -> ExperimentSummary:
    """Run one cell and classify it (the worker entry point).

    Typed errors are verdicts: a :class:`~repro.sim.errors.SafetyViolation`
    or any other :class:`~repro.sim.errors.SimulationError` (round limit,
    configuration guard, protocol violation) or
    :class:`~repro.wire.WireError` means the harness *detected* the injected
    fault and failed loudly; its record is a :func:`failure` row with status
    ``detected``. Anything else escaping this function is a worker crash,
    which the campaign retries and then quarantines.
    """
    start = time.perf_counter()
    try:
        record = execute_task(task)
    except (SimulationError, WireError) as exc:
        record = failure(task, "detected", f"{type(exc).__name__}: {exc}")
        record.elapsed_s = time.perf_counter() - start
        if isinstance(exc, SafetyViolation):
            record.violated = (exc.violated,)
        return record
    report = record.report
    if report.ok:
        record.status = "tolerated" if report.beyond_model else "clean"
    else:
        record.status = "violation"
    record.violated = report.broken
    return record


@dataclass
class TriageReport:
    """Campaign verdict: every cell classified, nothing silently dropped."""

    outcomes: List[ChaosOutcome]
    elapsed_s: float = 0.0
    retried: int = 0
    workers: int = 1

    def counts(self) -> Dict[str, int]:
        out = {status: 0 for status in STATUSES}
        for _, record in self.outcomes:
            out[record.status] = out.get(record.status, 0) + 1
        return out

    @property
    def quarantined(self) -> List[ChaosOutcome]:
        return [o for o in self.outcomes if o.record.quarantined]

    def silent_successes(self) -> List[ChaosOutcome]:
        """Harness self-check — MUST return ``[]``.

        A run that injected model violations but was classified ``clean``
        (i.e. "nothing happened") would be a silent success: the injection
        bypassed both the safety monitor and the post-hoc property check.
        By construction any injection flips the run to ``tolerated`` (with
        its properties verified) or worse; a non-empty return here is a bug
        in the chaos harness itself, not in the algorithm under test.
        """
        return [
            o for o in self.outcomes
            if o.record.status == "clean" and o.record.report.injected
        ]

    def render(self) -> str:
        """Human triage table plus quarantine reproducers."""
        rows = []
        for task, record in self.outcomes:
            detail = record.error or ", ".join(record.violated)
            injected = " ".join(
                f"{k}x{v}" for k, v in sorted(record.report.injected.items())
            ) or "-"
            rows.append([describe(task), record.status, injected, detail[:60]])
        lines = [format_table(["cell", "status", "injected", "detail"], rows)]
        counts = ", ".join(
            f"{status}={count}" for status, count in self.counts().items() if count
        )
        lines.append(
            f"\n{len(self.outcomes)} cells ({counts}) in {self.elapsed_s:.2f}s "
            f"on {self.workers} worker(s); {self.retried} retried"
        )
        silent = self.silent_successes()
        if silent:
            lines.append(
                f"HARNESS BUG: {len(silent)} silent success(es) — injection "
                "without a verdict"
            )
        if self.quarantined:
            lines.append("\nquarantined (reproduce with):")
            for task, record in self.quarantined:
                lines.append(f"  [{record.status}] {record.error}")
                lines.append(f"    {reproducer(task)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "counts": self.counts(),
            "elapsed_s": self.elapsed_s,
            "retried": self.retried,
            "workers": self.workers,
            "silent_successes": len(self.silent_successes()),
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
        }

    def canonical(self) -> str:
        """The report as canonical JSON: wall-clock and pool-size scrubbed.

        Everything left is a pure function of the seeded grid, so a
        resumed run's canonical report must be byte-identical to an
        uninterrupted control run's — the resume acceptance check.
        """
        return canonical_json(self.to_json())

    @property
    def ok(self) -> bool:
        """True when the campaign itself is healthy: no quarantined cells
        and no silent successes (violations/detections are *findings*, not
        campaign failures)."""
        return not self.quarantined and not self.silent_successes()


class ChaosCampaign:
    """Run a chaos grid to completion, whatever the cells do.

    Cells go through the one cell loop shared with sweeps
    (:func:`~repro.analysis.worker.run_cells`). ``workers=1`` runs serially
    in-process (fully deterministic ordering, no timeout containment —
    used by tests and reproducers). Otherwise the grid fans out over a
    process pool:

    * a cell whose runner raises an untyped exception is retried up to
      ``retries`` times inside its pool worker, then quarantined as
      ``crashed``;
    * a dead pool (killed worker) is rebuilt and the unfinished cells rerun;
    * when no cell completes within ``timeout_s`` the still-pending cells
      are quarantined as ``timeout``, the pool is torn down (hung workers
      terminated) and the campaign continues — a hang costs one timeout
      window, never the campaign.

    Every cell runs :func:`execute_chaos_task`, looked up on this module
    per call (:func:`~repro.analysis.worker.run_kind`): a test that patches
    the module attribute reaches every mode, since pool workers and budget
    children are forked after the patch.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout_s: float = 120.0,
        retries: int = 1,
    ) -> None:
        self.workers = resolve_workers(workers)
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.timeout_s = timeout_s
        self.retries = retries

    def run(
        self,
        tasks: Sequence[RunTask],
        *,
        budget=None,
        store=None,
        coordinator_only: bool = False,
        run_id: str = "fabric",
    ) -> TriageReport:
        """Execute every cell and return the :class:`TriageReport`.

        Outcomes are ordered exactly as ``tasks`` — never by completion
        order — so campaigns are deterministic given their seeds.

        ``store`` makes the campaign durable on the coordinator/worker
        fabric (see :class:`~repro.analysis.coordinator.Coordinator`):
        terminal cells are restored on resume instead of re-executed, and
        SIGINT/SIGTERM drains in-flight cells and raises
        :class:`~repro.sim.errors.RunInterrupted`. Every store-backed cell
        runs in a disposable child process under ``budget``, which defaults
        to a wall budget of ``timeout_s``: a wall-budget breach is
        quarantined as ``timeout``, an RSS breach or a dead child as
        ``crashed``, with the precise reason kept in the store's terminal
        record.
        """
        from .worker import run_cells  # worker imports this module

        start = time.perf_counter()
        tasks = list(tasks)
        if budget is None:
            budget = CellBudget(wall_s=self.timeout_s)
        records, stats = run_cells(
            "chaos",
            tasks,
            workers=self.workers,
            retries=self.retries,
            timeout_s=self.timeout_s,
            store=store,
            budget=budget,
            coordinator_only=coordinator_only,
            run_id=run_id,
            config={"timeout_s": self.timeout_s, "budget": asdict(budget)},
        )
        return TriageReport(
            outcomes=[ChaosOutcome(*cell) for cell in zip(tasks, records)],
            elapsed_s=time.perf_counter() - start,
            retried=stats.retried,
            workers=self.workers,
        )

    @staticmethod
    def fingerprint(tasks: Sequence[RunTask]) -> str:
        """The campaign's config fingerprint (over the expanded grid)."""
        return config_fingerprint("chaos", [task.to_dict() for task in tasks])


# ---------------------------------------------------------------------- grids

#: Named fault-axis bundles for the CLI's ``--preset``. Each value feeds
#: :func:`chaos_grid`'s fault-axis keywords; every listed value becomes its
#: own single-axis fault variant (grids stay linear, not exponential).
CHAOS_PRESETS: Dict[str, Dict[str, Sequence]] = {
    "smoke": {
        "drop": (0.2,),
        "corrupt": (0.2,),
        "extra_crashes": (1,),
    },
    "standard": {
        "drop": (0.05, 0.2, 0.5),
        "duplicate": (0.3,),
        "corrupt": (0.05, 0.3),
        "extra_crashes": (1, 2),
    },
}


def chaos_grid(
    algorithms: Sequence[str],
    sizes: Sequence[Tuple[int, int]],
    *,
    attacks: Sequence[str] = ("silent",),
    seeds: Sequence[int] = (0,),
    engines: Sequence[str] = (DEFAULT_ENGINE,),
    chaos_seeds: Sequence[int] = (0,),
    drop: Sequence[float] = (),
    duplicate: Sequence[float] = (),
    corrupt: Sequence[float] = (),
    extra_crashes: Sequence[int] = (),
    crash_round: int = 1,
    combine: bool = False,
    include_clean: bool = True,
    workload: str = "uniform",
    max_rounds: int = 64,
    monitor: bool = True,
) -> List[RunTask]:
    """Build the campaign grid: configurations × fault variants.

    Each value in ``drop``/``duplicate``/``corrupt``/``extra_crashes``
    becomes its own *single-axis* fault variant, keeping the grid linear in
    the number of fault values. ``combine=True`` instead merges one value
    per axis into a single combined plan (reproducers use this to pin exact
    cells). ``include_clean=True`` adds the no-fault control cell
    (``chaos=None``) per configuration — the baseline that proves a
    ``violation`` verdict comes from the injection, not the configuration.

    Every :class:`~repro.sim.chaos.FaultPlan` is built here, so an invalid
    fault value raises :class:`~repro.sim.errors.ConfigurationError`
    before any cell runs.
    """
    axes = (
        ("drop", drop), ("duplicate", duplicate), ("corrupt", corrupt),
        ("extra_crashes", extra_crashes),
    )
    if combine:
        for axis, values in axes:
            if len(values) > 1:
                raise ConfigurationError(
                    f"combine=True needs at most one value per axis; "
                    f"{axis} got {list(values)}"
                )
        combined = {axis: values[0] for axis, values in axes if values}
        variants = [combined] if combined else []
    else:
        variants = [{axis: value} for axis, values in axes for value in values]
    for variant in variants:
        if "extra_crashes" in variant:
            variant["crash_round"] = crash_round
    plans: List[Optional[FaultPlan]] = [
        FaultPlan(seed=chaos_seed, **variant)
        for chaos_seed in chaos_seeds
        for variant in variants
    ]
    if include_clean or not variants:
        # The chaos seed is irrelevant without a fault plan, so the control
        # cell appears exactly once per configuration.
        plans.insert(0, None)
    return [
        RunTask(
            algorithm, n, t, attack, seed,
            workload=workload,
            max_rounds=max_rounds,
            engine=engine,
            monitor=monitor,
            chaos=plan,
        )
        for algorithm in algorithms
        for n, t in sizes
        for attack in attacks
        for seed in seeds
        for engine in engines
        for plan in plans
    ]
