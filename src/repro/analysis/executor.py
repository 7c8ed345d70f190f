"""Sweep execution: cells, rows, caching and deterministic ordering.

:func:`repro.analysis.sweep.run_sweep` expands an
(algorithm × (n, t) × attack × seed) grid. Every run is a pure function of
its configuration (all randomness derives from the run seed, see
:mod:`repro.sim.rng`), so sweeps are embarrassingly parallel. This module
owns the sweep side of that fan-out:

* :class:`RunTask` is one fully-specified, picklable cell;
  :func:`task_record` runs it and :func:`execute_task` summarises the run.
* :class:`SweepExecutor` expands the grid, answers what it can from the
  cache, and hands the misses to the one cell loop shared with chaos
  campaigns (:func:`repro.analysis.worker.run_cells`): in-process for
  ``workers=1``, a process pool otherwise, or the store-backed
  coordinator/worker fabric. Results are keyed by configuration index,
  never by completion order, so tables and CSVs are byte-identical across
  all three.
* :class:`ExperimentSummary` is the one cell record — a sweep row, and
  with its optional verdict fields a chaos cell's outcome — and the slim,
  picklable row that crosses the process boundary; :func:`failure` builds
  the record of every cell that produced no run. The full
  :class:`~repro.analysis.experiments.ExperimentRecord` drags the entire
  :class:`~repro.sim.runner.RunResult` (live ``Process`` objects, bound
  RNGs, traces) and is neither cheap nor reliably picklable.
* :class:`ResultCache` memoises summaries on disk, keyed by a stable hash of
  the configuration, so re-running a benchmark only executes configurations
  that changed.
* :func:`parallel_map` is the generic ordered fan-out used by benchmark
  grids that drive :func:`~repro.sim.runner.run_protocol` directly (custom
  options, ablations) and therefore cannot be expressed as a ``SweepConfig``.

Every run records its own wall-clock (``elapsed_s``) so sweeps double as
timing measurements.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..sim import (
    DEFAULT_ENGINE,
    ConfigurationError,
    FaultPlan,
    StoreError,
    SystemModel,
)
from ..workloads.ids import make_ids
from .experiments import ExperimentRecord, run_experiment
from .envelope import atomic_write_text, config_fingerprint, seal, unseal
from .properties import PropertyReport

__all__ = [
    "ExperimentSummary",
    "ResultCache",
    "RunTask",
    "SweepExecutor",
    "failure",
    "parallel_map",
    "resolve_workers",
    "summarize_record",
    "task_record",
]

logger = logging.getLogger(__name__)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers=`` knob: ``None`` means one per CPU."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


@dataclass(frozen=True)
class RunTask:
    """One fully-specified cell of a sweep or a chaos campaign — primitives
    (plus the frozen, hashable :class:`~repro.sim.FaultPlan` and
    :class:`~repro.sim.SystemModel`) only, so it pickles cheaply into
    worker processes and hashes stably into cache keys.

    Every semantics-affecting knob of :func:`execute_task` lives here;
    anything that can change a run's outcome must be a field so that
    :meth:`to_dict` (store fingerprints) and :meth:`ResultCache.key`
    (cache identity) see it. ``monitor``, ``chaos`` and ``model``
    serialise only when non-default, so grids that never touch them keep
    their store fingerprints from earlier releases.
    """

    algorithm: str
    n: int
    t: int
    attack: str
    seed: int
    workload: str = "uniform"
    collect_trace: bool = False
    max_rounds: int = 1000
    engine: str = DEFAULT_ENGINE
    monitor: bool = False
    chaos: Optional[FaultPlan] = None
    model: Optional[SystemModel] = None

    def __post_init__(self) -> None:
        # Checked up front: inside a chaos cell it would be a "detected" fault.
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be at least 1, got {self.max_rounds}"
            )

    def to_dict(self) -> dict:
        """JSON-ready cell description (store task lists, fingerprints)."""
        payload = {
            "algorithm": self.algorithm,
            "n": self.n,
            "t": self.t,
            "attack": self.attack,
            "seed": self.seed,
            "workload": self.workload,
            "collect_trace": self.collect_trace,
            "max_rounds": self.max_rounds,
            "engine": self.engine,
        }
        if self.monitor:
            payload["monitor"] = True
        if self.chaos is not None:
            payload["chaos"] = {
                "seed": self.chaos.seed,
                "drop": self.chaos.drop,
                "duplicate": self.chaos.duplicate,
                "corrupt": self.chaos.corrupt,
                "crashes": [list(entry) for entry in self.chaos.crashes],
                "extra_crashes": self.chaos.extra_crashes,
                "crash_round": self.chaos.crash_round,
            }
        # classic is the absent-field default, so an explicit classic model
        # and "no model" hash to the same cache key (they run identically).
        if self.model is not None and not self.model.is_classic:
            payload["model"] = self.model.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunTask":
        """Inverse of :meth:`to_dict`. A cell that does not decode (an
        unknown or missing field, a malformed fault plan or model) raises
        :class:`~repro.sim.errors.StoreError`: stored task lists are the
        only source of these payloads."""
        try:
            fields = dict(payload)
            chaos = fields.get("chaos")
            if chaos is not None:
                chaos = dict(chaos)
                chaos["crashes"] = tuple(
                    tuple(entry) for entry in chaos.get("crashes", ())
                )
                fields["chaos"] = FaultPlan(**chaos)
            model = fields.get("model")
            if model is not None:
                fields["model"] = SystemModel.from_dict(model)
            return cls(**fields)
        except (TypeError, ValueError, KeyError) as exc:
            raise StoreError(
                f"stored cell {json.dumps(payload, sort_keys=True)} does "
                f"not decode ({type(exc).__name__}: {exc}); it may come from "
                f"another release — re-run the grid into a fresh store"
            ) from None


@dataclass
class ExperimentSummary:
    """One run's outcome in transferable table-row form.

    Field-compatible with :class:`~repro.analysis.experiments.ExperimentRecord`
    for everything the tables, ``group_by`` and the CSV exporter read — but
    carries no simulator state, so it crosses process boundaries and
    serialises to JSON for the on-disk cache.

    ``settled_round`` is the last round at which any correct process settled
    its decision (decision latency; requires ``collect_trace=True``, else
    ``None``). ``elapsed_s`` is the run's own wall-clock; ``cached`` marks
    summaries restored from a :class:`ResultCache` rather than executed.

    ``failed=True`` marks a cell that produced no run (see :func:`failure`);
    ``error`` then carries ``"ExceptionType: message"``. Failed summaries
    are never cached and every property flag is False — a failure can never
    read as a success.

    A chaos campaign's cell keeps its verdict on the same record: ``status``
    (one of :data:`~repro.analysis.campaign.STATUSES`; ``None`` for a sweep
    cell), ``violated`` (the broken properties of a ``violation``, or the
    monitor's tag of a ``detected`` run) and ``retries`` (failed attempts
    before this record). They serialise only when ``status`` is set, so
    sweep payloads, memo entries and CSVs keep their bytes.
    """

    algorithm: str
    n: int
    t: int
    attack: str
    seed: int
    workload: str
    rounds: int
    correct_messages: int
    correct_bits: int
    peak_message_bits: int
    byzantine: Tuple[int, ...]
    report: PropertyReport
    settled_round: Optional[int] = None
    elapsed_s: float = 0.0
    cached: bool = False
    failed: bool = False
    error: Optional[str] = None
    status: Optional[str] = None
    violated: Tuple[str, ...] = ()
    retries: int = 0

    @property
    def quarantined(self) -> bool:
        """A verdict the campaign could not reach from inside the run
        (``timeout``/``crashed``): it needs a reproducer-first look."""
        return self.status in ("timeout", "crashed")

    @property
    def max_name(self) -> int:
        return max(self.report.names.values()) if self.report.names else 0

    @property
    def effective_rounds(self) -> int:
        """Decision latency: settled-round when traced (baselines that idle
        to a fixed horizon settle early), wall rounds otherwise."""
        return self.settled_round if self.settled_round is not None else self.rounds

    def to_dict(self) -> dict:
        """JSON-ready payload (cache schema)."""
        report = self.report
        payload = {
            "algorithm": self.algorithm,
            "n": self.n,
            "t": self.t,
            "attack": self.attack,
            "seed": self.seed,
            "workload": self.workload,
            "rounds": self.rounds,
            "correct_messages": self.correct_messages,
            "correct_bits": self.correct_bits,
            "peak_message_bits": self.peak_message_bits,
            "byzantine": list(self.byzantine),
            "settled_round": self.settled_round,
            "elapsed_s": self.elapsed_s,
            "failed": self.failed,
            "error": self.error,
            "report": {
                "names": {str(k): v for k, v in report.names.items()},
                "namespace": report.namespace,
                "validity": report.validity,
                "termination": report.termination,
                "uniqueness": report.uniqueness,
                "order_preservation": report.order_preservation,
                "violations": list(report.violations),
                "beyond_model": report.beyond_model,
                "injected": dict(report.injected),
                "model": report.model,
            },
        }
        if self.status is not None:
            payload["status"] = self.status
            payload["violated"] = list(self.violated)
            payload["retries"] = self.retries
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSummary":
        """Inverse of :meth:`to_dict` (original-id keys back to ints)."""
        report = payload["report"]
        summary = cls(
            algorithm=payload["algorithm"],
            n=payload["n"],
            t=payload["t"],
            attack=payload["attack"],
            seed=payload["seed"],
            workload=payload["workload"],
            rounds=payload["rounds"],
            correct_messages=payload["correct_messages"],
            correct_bits=payload["correct_bits"],
            peak_message_bits=payload["peak_message_bits"],
            byzantine=tuple(payload["byzantine"]),
            settled_round=payload["settled_round"],
            elapsed_s=payload["elapsed_s"],
            failed=payload.get("failed", False),
            error=payload.get("error"),
            report=PropertyReport(
                names={int(k): v for k, v in report["names"].items()},
                namespace=report["namespace"],
                validity=report["validity"],
                termination=report["termination"],
                uniqueness=report["uniqueness"],
                order_preservation=report["order_preservation"],
                violations=list(report["violations"]),
                beyond_model=report.get("beyond_model", False),
                injected=dict(report.get("injected", {})),
                model=report.get("model"),
            ),
        )
        if "status" in payload:
            summary.status = payload["status"]
            summary.violated = tuple(payload["violated"])
            summary.retries = payload["retries"]
        return summary


def failure(
    task: RunTask, status: Optional[str], detail: str, attempts: int = 1
) -> ExperimentSummary:
    """The record of a cell that produced no run — every failure row.

    ``detail`` is ``"ExceptionType: message"``: a crash that outlived its
    retries, a budget kill or a hung pool cell, an expired lease, or the
    typed error a chaos cell's run raised (``status="detected"``).
    ``status`` is the chaos verdict (``None`` for a sweep cell) and
    ``attempts`` the attempts made, so ``retries`` is ``attempts - 1``.
    """
    report = PropertyReport(
        names={},
        namespace=0,
        validity=False,
        termination=False,
        uniqueness=False,
        order_preservation=False,
        violations=[f"failed: {detail}"],
    )
    return ExperimentSummary(
        algorithm=task.algorithm,
        n=task.n,
        t=task.t,
        attack=task.attack,
        seed=task.seed,
        workload=task.workload,
        rounds=0,
        correct_messages=0,
        correct_bits=0,
        peak_message_bits=0,
        byzantine=(),
        report=report,
        failed=True,
        error=detail,
        status=status,
        retries=attempts - 1,
    )


def _settled_round(record: ExperimentRecord) -> Optional[int]:
    """Last settle event among correct processes, if the run was traced."""
    trace = record.result.trace
    if trace is None:
        return None
    rounds = [
        event.round_no
        for event in trace.select(event="settled")
        if event.process in record.result.correct
    ]
    return max(rounds) if rounds else None


def summarize_record(
    record: ExperimentRecord, workload: str = "uniform", elapsed_s: float = 0.0
) -> ExperimentSummary:
    """Distil a full :class:`ExperimentRecord` into a transferable summary."""
    return ExperimentSummary(
        algorithm=record.algorithm,
        n=record.n,
        t=record.t,
        attack=record.attack,
        seed=record.seed,
        workload=workload,
        rounds=record.rounds,
        correct_messages=record.correct_messages,
        correct_bits=record.correct_bits,
        peak_message_bits=record.peak_message_bits,
        byzantine=tuple(record.result.byzantine),
        report=record.report,
        settled_round=_settled_round(record),
        elapsed_s=elapsed_s,
    )


def task_record(task: RunTask) -> ExperimentRecord:
    """Run one cell: the full record :func:`execute_task` summarises, and
    what ``repro-renaming explain`` renders."""
    ids = make_ids(task.workload, task.n, seed=task.seed)
    return run_experiment(
        task.algorithm,
        task.n,
        task.t,
        ids,
        attack=task.attack,
        seed=task.seed,
        collect_trace=task.collect_trace,
        max_rounds=task.max_rounds,
        engine=task.engine,
        monitor=task.monitor,
        chaos=task.chaos,
        model=task.model,
    )


def execute_task(task: RunTask) -> ExperimentSummary:
    """Run one sweep cell and summarise it (the worker entry point)."""
    start = time.perf_counter()
    record = task_record(task)
    return summarize_record(
        record, workload=task.workload, elapsed_s=time.perf_counter() - start
    )


class ResultCache:
    """On-disk memo of finished sweep cells, one JSON file per configuration.

    Keys are SHA-256 hashes of the full :meth:`RunTask.to_dict` payload plus
    a schema version. Deriving the key from ``to_dict`` — rather than an
    independently maintained field list — means every semantics-affecting
    knob (algorithm, size, attack, seed, workload, round cap, tracing,
    engine, safety monitoring, chaos fault plan) participates by
    construction: adding a field to :class:`RunTask` cannot silently leave
    the cache key behind. Schema bumps invalidate everything at once.

    Entries are checksummed envelopes ``{"schema", "checksum", "summary"}``:
    :meth:`load` verifies the schema version and the SHA-256 of the summary
    payload before trusting an entry, so a truncated write, a flipped bit or
    a stale-schema file is *logged and recomputed* — treated as a miss, never
    as an error and never as silently-wrong data. Failed summaries
    (:attr:`ExperimentSummary.failed`) are refused by :meth:`store`.

    The engine is part of the key even though all engines are proven to
    produce identical summaries: a cache hit must never mask an engine
    divergence that the differential suite would have caught.

    Each entry is one ``<key>.json`` file directly under the cache
    directory, byte-identical to the pre-fabric layout, so existing caches
    keep hitting.
    """

    #: Bumped whenever key composition or entry layout changes (5: keys
    #: cover the system-model axis and summaries carry the report's model).
    SCHEMA = 5

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise StoreError(
                f"cache path {self.root} exists and is not a directory"
            ) from None

    def key(self, task: RunTask) -> str:
        payload = json.dumps(
            {"schema": self.SCHEMA, **task.to_dict()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def entry_path(self, key: str) -> Path:
        """The cache file that holds entry ``key``."""
        return self.root / f"{key}.json"

    def load_memo(self, key: str) -> Optional[dict]:
        """Verified entry body for ``key``; ``None`` when absent. Raises
        ``ValueError`` for a present-but-unusable entry (caller logs)."""
        try:
            text = self.entry_path(key).read_text()
        except OSError:
            return None  # plain miss: no entry
        payload = json.loads(text)  # ValueError propagates: logged by caller
        return unseal(payload, schema=self.SCHEMA, body_key="summary")

    def store_memo(self, key: str, body: dict) -> None:
        # seal()'s field order matches the pre-fabric cache files, so
        # existing caches stay byte-identical and readable both ways.
        atomic_write_text(
            self.entry_path(key),
            json.dumps(seal(body, schema=self.SCHEMA, body_key="summary")),
        )

    def load(self, task: RunTask) -> Optional[ExperimentSummary]:
        """Return the cached summary for ``task``, or ``None`` on a miss.

        A present-but-unusable entry (corrupt JSON, truncated write, bad
        checksum, stale schema) is logged and treated as a miss so the
        configuration is recomputed.
        """
        key = self.key(task)
        try:
            body = self.load_memo(key)
            if body is None:
                return None  # plain miss: no entry
            summary = ExperimentSummary.from_dict(body)
        except (ValueError, KeyError, TypeError) as exc:
            logger.warning(
                "discarding unusable cache entry %s (%s); recomputing",
                f"{key}.json", exc,
            )
            return None
        summary.cached = True
        return summary

    def store(self, task: RunTask, summary: ExperimentSummary) -> None:
        """Persist ``summary`` under ``task``'s key.

        The write is atomic *and durable*: temp file in the cache
        directory, flush + fsync, then ``os.replace`` — without the fsync,
        a rename can land before the data on a crash and leave a
        zero-length "entry" at the final path. A kill at any point leaves
        either no entry or a complete one; a leftover ``.tmp`` from a
        killed writer is inert (never read, overwritten by the next store).

        Failed summaries are never cached: a transient worker failure must
        not poison future sweeps.
        """
        if summary.failed:
            return
        self.store_memo(self.key(task), summary.to_dict())


class SweepExecutor:
    """Run a sweep grid cache-first through the one cell loop.

    ``workers=None`` uses one worker per CPU; ``workers=1`` keeps everything
    in-process. ``cache`` is a directory path or a :class:`ResultCache`;
    ``None`` disables caching. ``run_hook`` (if given) is called in the
    parent with each :class:`RunTask` that is actually executed — tests use
    it as a run counter, progress displays as a ticker. After :meth:`run`,
    ``stats`` is the run's
    :class:`~repro.analysis.worker.CoordinatorStats`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Union[None, str, Path, ResultCache] = None,
        run_hook: Optional[Callable[[RunTask], None]] = None,
    ) -> None:
        from .worker import CoordinatorStats  # worker imports this module

        self.workers = resolve_workers(workers)
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.run_hook = run_hook
        self.stats = CoordinatorStats()

    def run(
        self,
        config,
        *,
        budget=None,
        store=None,
        coordinator_only: bool = False,
        run_id: str = "fabric",
    ) -> List[ExperimentSummary]:
        """Execute (or restore) every configuration in ``config``'s grid.

        ``config`` is a :class:`~repro.analysis.sweep.SweepConfig` or an
        already-expanded list of :class:`RunTask` (``runs resume`` replays
        a store's task list). The returned list is ordered exactly as the
        grid, regardless of worker scheduling.

        Cells go through :func:`~repro.analysis.worker.run_cells`: cache
        misses run in-process (``workers=1``) or in a process pool, a cell
        that raises is retried once and then recorded as a :func:`failure`
        row. ``store`` (a store URL
        or :class:`~repro.analysis.store.LocalDirStore`) makes the sweep
        durable on the coordinator/worker fabric instead, optionally under
        a per-cell ``budget``: cells already terminal in the store are
        restored instead of executed (resume), and SIGINT/SIGTERM drains
        and raises :class:`~repro.sim.errors.RunInterrupted`.
        """
        from .worker import run_cells  # worker imports this module

        start = time.perf_counter()
        tasks = (
            list(config) if isinstance(config, (list, tuple))
            else self.tasks_for(config)
        )
        if store is not None:
            rows, self.stats = run_cells(
                "sweep", tasks, workers=self.workers, run_hook=self.run_hook,
                store=store, cache=self.cache, budget=budget,
                coordinator_only=coordinator_only, run_id=run_id,
                config={
                    "cache": None if self.cache is None else str(self.cache.root),
                    "budget": None if budget is None else asdict(budget),
                },
            )
        else:
            rows = [
                None if self.cache is None else self.cache.load(task)
                for task in tasks
            ]
            misses = [index for index, row in enumerate(rows) if row is None]
            executed, self.stats = run_cells(
                "sweep", [tasks[index] for index in misses],
                workers=self.workers, run_hook=self.run_hook,
            )
            for index, row in zip(misses, executed):
                rows[index] = row
                if self.cache is not None:
                    self.cache.store(tasks[index], row)
            self.stats.cells = len(tasks)
            self.stats.from_cache = len(tasks) - len(misses)
        self.stats.elapsed_s = time.perf_counter() - start
        return rows  # type: ignore[return-value]

    @staticmethod
    def tasks_for(config) -> List[RunTask]:
        """Expand ``config``'s grid into the ordered cell list."""
        return [
            RunTask(
                algorithm=algorithm,
                n=n,
                t=t,
                attack=attack,
                seed=seed,
                workload=config.workload,
                collect_trace=config.collect_trace,
                max_rounds=config.max_rounds,
                engine=getattr(config, "engine", DEFAULT_ENGINE),
                model=getattr(config, "model", None),
            )
            for algorithm, n, t, attack, seed in config.configurations()
        ]

    @staticmethod
    def fingerprint(tasks: Sequence[RunTask]) -> str:
        """The sweep's config fingerprint (over the expanded cell list)."""
        return config_fingerprint("sweep", [task.to_dict() for task in tasks])


def _call_star(item: Tuple[Callable, tuple]):
    fn, args = item
    return fn(*args)


def parallel_map(
    fn: Callable,
    argtuples: Iterable[Sequence],
    *,
    workers: Optional[int] = None,
) -> list:
    """Ordered ``[fn(*args) for args in argtuples]`` over a process pool.

    The escape hatch for benchmark grids that call ``run_protocol`` with
    custom options and so cannot go through :class:`SweepExecutor`. ``fn``
    and every argument must be picklable (module-level functions and
    primitives/dataclasses). ``workers=1`` — and single-item inputs — run
    serially in-process; ``workers=None`` uses one worker per CPU.
    """
    tasks = [tuple(args) for args in argtuples]
    workers = resolve_workers(workers)
    if workers == 1 or len(tasks) <= 1:
        return [fn(*args) for args in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_call_star, [(fn, args) for args in tasks]))
