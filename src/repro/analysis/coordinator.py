"""The coordinator half of the sweep fabric: seed, police, stream.

A :class:`Coordinator` owns a store-backed *run*, never the execution: it
seeds a grid of fingerprinted cells into a
:class:`~repro.analysis.store.LocalDirStore`, and then consumes terminal
records **in cell order** as they land — whoever produced them. Sweeps and
chaos campaigns reach it through :func:`~repro.analysis.worker.run_cells`
whenever a store is given. Execution comes from
:class:`~repro.analysis.worker.Worker` loops, in one of three
arrangements:

* ``workers=1`` (default): one in-process worker runs the store dry before
  streaming, with the same retry as the non-store paths — no
  subprocesses.
* ``workers=N``: the coordinator spawns ``N`` ``repro-renaming worker``
  subprocesses against the store and streams while they execute, respawning
  any that die before the store is complete.
* ``coordinator_only=True``: the coordinator seeds and streams but spawns
  nothing — workers are started elsewhere (other shells, other machines
  with the store on shared storage) and the coordinator just waits for
  their results.

While streaming, the coordinator *polices* the fabric: expired leases are
reclaimed (a dead worker costs one lease window, not the run) and the
store's event log is drained for accounting (retries, reclaims).

SIGINT/SIGTERM drain the run (when streaming on the main thread): the
in-process worker stops after its in-flight cell, spawned workers are
SIGTERMed (they drain the same way), an ``interrupted`` event is recorded
and :class:`~repro.sim.errors.RunInterrupted` is raised — everything
finished so far is durable in the store, and re-seeding it resumes. A
second signal gets the default behaviour back (abort without draining).

:meth:`Coordinator.stream` is a generator and holds **O(1)** row state: one
cell record (:class:`~repro.analysis.executor.ExperimentSummary`, decoded
by :func:`~repro.analysis.worker.stored_record`) is yielded at a time and
nothing is retained, so aggregating a 50k-cell sweep needs memory for the
cell *list*, not the result set. :meth:`Coordinator.run` is the
convenience wrapper that collects the records into the ordered list
:func:`~repro.analysis.worker.run_cells` returns. The run kind is read by
:func:`~repro.analysis.worker.run_kind` alone.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterator, List, Optional, Set

from ..sim.errors import RunInterrupted
from .budget import CellBudget
from .executor import ExperimentSummary, ResultCache, RunTask, logger
from .store import DEFAULT_LEASE_S, LocalDirStore, open_store
from .worker import (
    CoordinatorStats,
    Worker,
    check_store,
    stored_record,
)

__all__ = ["Coordinator", "CoordinatorStats"]


class Coordinator:
    """Seed a cell grid into a store and stream the results back in order.

    ``store`` is a store URL or a :class:`LocalDirStore`; ``cache`` a
    directory / :class:`~repro.analysis.executor.ResultCache` used both to
    prefill the store with already-memoised sweep cells and to memoise
    freshly finished ones. ``budget``/``retries``/``run_hook`` carry the
    executor's knobs through to the workers this coordinator runs or
    spawns (externally started workers bring their own).
    """

    def __init__(
        self,
        store,
        *,
        workers: int = 1,
        cache=None,
        run_hook=None,
        budget: Optional[CellBudget] = None,
        retries: int = 1,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = 0.1,
        coordinator_only: bool = False,
    ) -> None:
        self.store: LocalDirStore = open_store(store)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.run_hook = run_hook
        self.budget = budget
        self.retries = retries
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.coordinator_only = coordinator_only
        self.stats = CoordinatorStats()
        self._event_cursor = None
        #: Name of the signal that asked this run to drain, if any.
        self._interrupted: Optional[str] = None
        self._inline: Optional[Worker] = None
        self._handlers: dict = {}

    # ------------------------------------------------------------------ API

    def run(
        self, kind: str, cells: List[dict], *,
        fingerprint: str,
        run_id: str = "fabric", config: Optional[dict] = None,
    ) -> List[ExperimentSummary]:
        """Drain the whole grid and return the ordered record list."""
        return list(
            self.stream(
                kind, cells, fingerprint=fingerprint, run_id=run_id,
                config=config,
            )
        )

    def stream(
        self, kind: str, cells: List[dict], *,
        fingerprint: str, run_id: str = "fabric",
        config: Optional[dict] = None,
    ) -> Iterator[ExperimentSummary]:
        """Yield one cell record per cell, in cell order, as results land.

        ``kind`` (``sweep`` or ``chaos``) names the store header and, through
        :func:`~repro.analysis.worker.run_kind`, what every worker runs.

        Refuses a store this release cannot read
        (:func:`~repro.analysis.worker.check_store`), seeds the store
        (idempotent — re-running against a part-finished store is a
        resume), prefills memoised cells from the result cache (only sweeps
        pass one), arranges execution per the constructor's knobs, and then
        streams: each ``next()`` blocks until the next cell in order has a
        terminal record, polices the fabric while waiting, and yields the
        decoded record without retaining it. Raises
        :class:`~repro.sim.errors.RunInterrupted` after a SIGINT/SIGTERM
        drain.
        """
        start = time.perf_counter()
        check_store(self.store, kind)
        self.stats = CoordinatorStats(cells=len(cells))
        self._event_cursor = None
        self.store.seed(
            kind=kind, run_id=run_id, fingerprint=fingerprint, cells=cells,
            config=config,
        )

        restored: Set[int] = set()
        for index in range(len(cells)):
            if self.store.terminal(index) is not None:
                restored.add(index)
        self.stats.restored = len(restored)

        prefilled: Set[int] = set()
        if self.cache is not None:
            for index in range(len(cells)):
                if index in restored:
                    continue
                summary = self.cache.load(RunTask.from_dict(cells[index]))
                if summary is not None and self.store.write_terminal(
                    index, "finished", summary.to_dict()
                ):
                    prefilled.add(index)
            self.stats.from_cache = len(prefilled)

        procs: List[subprocess.Popen] = []
        self._interrupted = None
        self._trap_signals()
        try:
            if self.coordinator_only or self.store.complete:
                pass
            elif self.workers == 1:
                # In-process: run the store dry first, then stream — the
                # single-host arrangement, deterministic and subprocess-free.
                self._inline = Worker(
                    self.store,
                    worker_id=f"{run_id}-inline",
                    budget=self.budget,
                    retries=self.retries,
                    lease_s=self.lease_s,
                    run_hook=self.run_hook,
                )
                if self._interrupted is None:
                    self._inline.pull(kind)
            else:
                procs = [
                    self._spawn_worker(run_id, i) for i in range(self.workers)
                ]

            for index in range(len(cells)):
                record = self.store.terminal(index)
                while record is None:
                    self._drain_if_interrupted(procs)
                    self._police(procs)
                    time.sleep(self.poll_s)
                    record = self.store.terminal(index)
                yield self._cell_record(
                    kind, index, record,
                    restored=index in restored,
                    prefilled=index in prefilled,
                )
            self._police(procs)
        finally:
            self._restore_signals()
            self._inline = None
            self._stop_workers(procs)
            self.stats.executed = (
                len(cells) - len(restored) - len(prefilled)
            )
            self.stats.elapsed_s = time.perf_counter() - start

    # ---------------------------------------------------------------- drain

    def _trap_signals(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            self._handlers[signum] = signal.signal(signum, self._on_signal)

    def _restore_signals(self) -> None:
        for signum, handler in self._handlers.items():
            signal.signal(signum, handler)
        self._handlers = {}

    def _on_signal(self, signum, frame) -> None:  # noqa: ARG002
        self._interrupted = signal.Signals(signum).name
        logger.warning(
            "%s received: draining in-flight cells (repeat to abort)",
            self._interrupted,
        )
        self._restore_signals()
        if self._inline is not None:
            self._inline.stop()

    def _drain_if_interrupted(self, procs: List[subprocess.Popen]) -> None:
        """After a signal: let the workers drain, then raise."""
        if self._interrupted is None:
            return
        self._stop_workers(procs)
        self.store.record_event("interrupted", signal=self._interrupted)
        counts = self.store.counts()
        done = counts["finished"] + counts["failed"] + counts["quarantined"]
        remaining = counts["cells"] - done
        header = self.store.header() or {}
        raise RunInterrupted(
            f"{self._interrupted}: drained run {header.get('run_id')!r} "
            f"({done} of {counts['cells']} cells done, {remaining} "
            f"remaining)",
            run_id=header.get("run_id"),
            completed=done,
            remaining=remaining,
        )

    # ------------------------------------------------------------- internals

    def _spawn_worker(self, run_id: str, index: int) -> subprocess.Popen:
        cmd = [
            sys.executable, "-m", "repro.cli", "worker",
            "--store", self.store.url,
            "--worker-id", f"{run_id}-w{index}",
            "--wait-for-store", "60",
            "--lease", str(self.lease_s),
        ]
        if self.budget is not None:
            if self.budget.wall_s is not None:
                cmd += ["--cell-wall", str(self.budget.wall_s)]
            if self.budget.rss_mb is not None:
                cmd += ["--cell-rss", str(self.budget.rss_mb)]
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
        return subprocess.Popen(cmd, env=env)

    def _police(self, procs: List[subprocess.Popen]) -> None:
        """One policing pass: reclaim leases, drain events, respawn dead."""
        self.stats.reclaimed += len(self.store.reclaim_expired())
        events, self._event_cursor = self.store.events_since(
            self._event_cursor
        )
        for event in events:
            name = event.get("event")
            if name == "retried":
                self.stats.retried += 1
        if not procs or self.store.complete:
            return
        for i, proc in enumerate(procs):
            if proc.poll() is not None:
                logger.warning(
                    "fabric worker %d exited (code %s) with the store "
                    "incomplete; respawning", i, proc.returncode,
                )
                header = self.store.header() or {}
                procs[i] = self._spawn_worker(
                    f"{header.get('run_id', 'fabric')}-r{self.stats.worker_restarts}",
                    i,
                )
                self.stats.worker_restarts += 1

    def _cell_record(
        self, kind: str, index: int, record: dict, *, restored: bool,
        prefilled: bool,
    ) -> ExperimentSummary:
        row = stored_record(self.store, kind, index, record)
        if not restored:
            if record["state"] != "finished":
                self.stats.failed += 1
                if record["state"] == "quarantined" and record.get(
                    "reason"
                ) in ("wall-budget", "rss-budget"):
                    self.stats.budget_kills += 1
            elif self.cache is not None and not prefilled:
                self.cache.store(RunTask.from_dict(self.store.task(index)), row)
        row.cached = prefilled
        return row

    @staticmethod
    def _stop_workers(procs: List[subprocess.Popen]) -> None:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
