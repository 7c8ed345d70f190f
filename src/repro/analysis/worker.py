"""Cell execution for every run kind and mode: one retry, one loop, one pull.

Sweeps and chaos campaigns are both grids of independent cells; this
module owns how a cell runs, whoever asked for it:

* :func:`attempt_cell` — **the** retry-once function. An untyped exception
  is retried once (``retries=1``); the second failure becomes a failure
  payload built from the *second* error's message. It returns the store
  payload in every mode, so in-process, pooled and store-backed runs
  decode the same bytes into their rows.
* :func:`run_cells` — **the** cell loop behind ``SweepExecutor.run`` and
  ``ChaosCampaign.run``: in-process for ``workers=1`` (no store, no
  subprocess), one whole :func:`attempt_cell` per cell in a process pool
  otherwise (with a hang window when a timeout is given), or handed to a
  :class:`~repro.analysis.coordinator.Coordinator` when a store is given.
* :class:`Worker` — the pull loop over a
  :class:`~repro.analysis.store.LocalDirStore`: claim the lowest-indexed
  open cell, run it through :func:`attempt_cell`, write the terminal
  record, until the store is complete. A worker can be an in-process call
  inside the coordinator, a subprocess it spawns, or a ``repro-renaming
  worker --store ...`` process started by hand against shared storage.
  With a :class:`~repro.analysis.budget.CellBudget` each attempt runs in
  :func:`~repro.analysis.budget.run_isolated`'s disposable child: a breach
  SIGKILLs it and quarantines the cell (``wall-budget`` / ``rss-budget``,
  never retried). While a cell runs its lease is renewed at a third of its
  duration; if the lease is taken over anyway the result is dropped
  (:class:`~repro.sim.errors.LeaseLost`) — the first durable terminal
  record wins.

The :data:`RUNNERS` registry holds one :class:`CellRunner` per run kind:
how its cells execute and how results become store payloads and rows.
Tests and benches may register additional kinds.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
)

from ..sim.errors import LeaseLost, ResourceBudgetExceeded, StoreError
from .backoff import PollBackoff
from .budget import CellBudget, IsolatedChildError, run_isolated
from .campaign import ChaosOutcome, execute_chaos_task
from .envelope import config_fingerprint
from .executor import ExperimentSummary, RunTask, execute_task, logger
from .store import Claim, DEFAULT_LEASE_S, LocalDirStore, open_store

__all__ = [
    "CellRunner",
    "CellVerdict",
    "CoordinatorStats",
    "PollBackoff",  # re-export: the class moved to repro.analysis.backoff
    "RUNNERS",
    "Worker",
    "WorkerStats",
    "attempt_cell",
    "default_worker_id",
    "run_cells",
]


@dataclass(frozen=True)
class CellRunner:
    """How one run kind's cells execute and (de)serialise.

    ``encode`` turns the runner's result into the store payload, given the
    number of *failed* attempts that preceded it (chaos outcomes record
    that as ``retries``; sweeps ignore it). ``failure(task, kind, detail,
    attempts)`` builds every failure payload: ``kind`` is ``"crashed"``
    once the retry is exhausted (or the lease expired past
    ``max_attempts``), ``"wall-budget"`` / ``"rss-budget"`` for a budget
    kill or a hung pool cell. ``decode_row`` is the caller-facing row for
    any payload.

    The built-in runners hold module-level functions only, so a runner
    pickles into process-pool workers.
    """

    kind: str
    decode: Callable[[dict], Any]
    execute: Callable[[Any], Any]
    encode: Callable[[Any, int], dict]
    failure: Callable[[Any, str, str, int], dict]
    #: Terminal state for an exhausted crash retry ("failed" for sweeps —
    #: a deterministic failure row — "quarantined" for chaos, whose
    #: crashed cells are quarantined with a reproducer).
    failure_state: str
    decode_row: Callable[[Any, dict], Any]


def _sweep_encode(summary: ExperimentSummary, attempts: int) -> dict:
    return summary.to_dict()


def _sweep_failure(
    task: RunTask, kind: str, detail: str, attempts: int
) -> dict:
    return ExperimentSummary.for_failure(task, detail).to_dict()


def _sweep_row(task: RunTask, payload: dict) -> ExperimentSummary:
    return ExperimentSummary.from_dict(payload)


def _chaos_encode(outcome: ChaosOutcome, attempts: int) -> dict:
    outcome.retries = attempts
    return outcome.verdict_dict()


def _chaos_failure(
    task: RunTask, kind: str, detail: str, attempts: int
) -> dict:
    status = "timeout" if kind == "wall-budget" else "crashed"
    return ChaosOutcome(
        task=task, status=status, error=detail, retries=attempts - 1
    ).verdict_dict()


#: Run-kind registry (header ``kind`` -> execution/serialisation bundle).
RUNNERS: Dict[str, CellRunner] = {
    "sweep": CellRunner(
        kind="sweep",
        decode=RunTask.from_dict,
        execute=execute_task,
        encode=_sweep_encode,
        failure=_sweep_failure,
        failure_state="failed",
        decode_row=_sweep_row,
    ),
    "chaos": CellRunner(
        kind="chaos",
        decode=RunTask.from_dict,
        execute=execute_chaos_task,
        encode=_chaos_encode,
        failure=_chaos_failure,
        failure_state="quarantined",
        decode_row=ChaosOutcome.from_verdict,
    ),
}


# ------------------------------------------------------------ one cell


class CellVerdict(NamedTuple):
    """One cell's terminal result: store ``state``, store ``payload``, the
    typed ``reason`` for a non-finished state, and how many retries ran."""

    state: str
    payload: dict
    reason: Optional[str]
    retried: int


def attempt_cell(
    runner: CellRunner,
    task: Any,
    retries: int = 1,
    execute: Optional[Callable[[Any], Any]] = None,
) -> CellVerdict:
    """Run one cell with retry-once semantics — the only retry loop.

    ``execute`` (default ``runner.execute``) is one attempt; budget-isolated
    workers pass an attempt that runs in a child process. An attempt that
    raises is retried up to ``retries`` times; the last failure becomes
    ``runner.failure`` built from *that* error's message. Lease loss and
    budget breaches (:class:`~repro.sim.errors.ResourceBudgetExceeded`)
    are not attempt failures and propagate.
    """
    execute = runner.execute if execute is None else execute
    attempts = 0
    while True:
        try:
            result = execute(task)
        except (LeaseLost, ResourceBudgetExceeded):
            raise
        except Exception as exc:  # noqa: BLE001 — retried, then recorded
            attempts += 1
            if isinstance(exc, IsolatedChildError):
                detail = str(exc)
            else:
                detail = f"{type(exc).__name__}: {exc}"
            if attempts <= retries:
                logger.warning(
                    "%s cell %s crashed (%s); retrying (%d/%d)",
                    runner.kind, task, detail, attempts, retries,
                )
                continue
            logger.error(
                "%s cell %s failed %d time(s) (%s); recording the failure",
                runner.kind, task, attempts, detail,
            )
            return CellVerdict(
                runner.failure_state,
                runner.failure(task, "crashed", detail, attempts),
                "crashed",
                attempts - 1,
            )
        return CellVerdict(
            "finished", runner.encode(result, attempts), None, attempts
        )


# ------------------------------------------------------------ the grid


@dataclass
class CoordinatorStats:
    """Accounting for one grid run — a non-store :func:`run_cells`, or a
    :meth:`~repro.analysis.coordinator.Coordinator.run` (a fully drained
    stream) — and ``SweepExecutor.stats`` either way."""

    cells: int = 0
    #: Cells actually executed by workers this run (neither restored from
    #: the store nor prefilled from the result cache).
    executed: int = 0
    from_cache: int = 0
    #: Cells already terminal in the store when we seeded (resume).
    restored: int = 0
    failed: int = 0
    retried: int = 0
    budget_kills: int = 0
    #: Expired leases released by coordinator policing.
    reclaimed: int = 0
    #: Dead subprocess workers replaced mid-run.
    worker_restarts: int = 0
    elapsed_s: float = 0.0


def run_cells(
    runner: CellRunner,
    tasks: Sequence[Any],
    *,
    workers: int = 1,
    retries: int = 1,
    timeout_s: Optional[float] = None,
    run_hook: Optional[Callable[[Any], None]] = None,
    store=None,
    cache=None,
    budget: Optional[CellBudget] = None,
    coordinator_only: bool = False,
    run_id: str = "fabric",
    config: Optional[dict] = None,
):
    """Execute a grid of cells; return ``(rows, stats)`` in task order.

    Without a ``store``, ``workers=1`` (or a single cell) runs
    :func:`attempt_cell` in this process, and ``workers=N`` runs it whole
    for each cell in a process pool — when no cell completes within
    ``timeout_s``, the pending cells get ``wall-budget`` failure rows and
    the pool is torn down. ``run_hook`` sees every task before execution
    starts.

    With a ``store`` (URL or :class:`LocalDirStore`) the grid is handed to a
    :class:`~repro.analysis.coordinator.Coordinator`, which also applies
    ``cache``, ``budget``, ``coordinator_only``, ``run_id`` and the header
    ``config``. Its in-process worker runs ``runner`` as given; spawned and
    external workers run the registered runner for ``runner.kind``.

    ``stats`` is a :class:`CoordinatorStats`.
    """
    start = time.perf_counter()
    if store is not None:
        from .coordinator import Coordinator  # imports this module

        cells = [task.to_dict() for task in tasks]
        coordinator = Coordinator(
            store,
            workers=workers,
            cache=cache,
            run_hook=run_hook,
            budget=budget,
            retries=retries,
            coordinator_only=coordinator_only,
        )
        rows = coordinator.run(
            runner, cells, fingerprint=config_fingerprint(runner.kind, cells),
            run_id=run_id, config=config,
        )
        return rows, coordinator.stats

    if run_hook is not None:
        for task in tasks:
            run_hook(task)
    if workers == 1 or len(tasks) <= 1:
        verdicts = [attempt_cell(runner, task, retries) for task in tasks]
    else:
        verdicts = _pool_verdicts(runner, tasks, workers, retries, timeout_s)
    rows = [
        runner.decode_row(task, verdict.payload)
        for task, verdict in zip(tasks, verdicts)
    ]
    stats = CoordinatorStats(
        cells=len(tasks),
        executed=len(tasks),
        retried=sum(verdict.retried for verdict in verdicts),
        failed=sum(verdict.state != "finished" for verdict in verdicts),
        elapsed_s=time.perf_counter() - start,
    )
    return rows, stats


def _pool_verdicts(
    runner: CellRunner,
    tasks: Sequence[Any],
    workers: int,
    retries: int,
    timeout_s: Optional[float],
) -> List[CellVerdict]:
    """Each cell's :func:`attempt_cell` in a process-pool worker.

    A full ``timeout_s`` window without any completion means every pending
    cell is hung: each gets a ``wall-budget`` verdict and the pool's
    workers are terminated — a hang costs one window, never the grid. A
    pool whose worker process died is rebuilt and its unfinished cells
    rerun; a cell in flight for a second pool death gets a ``crashed``
    failure verdict.
    """
    verdicts: Dict[int, CellVerdict] = {}
    orphaned: set = set()
    pending_cells = list(range(len(tasks)))
    while pending_cells:
        rerun: List[int] = []
        pool = ProcessPoolExecutor(max_workers=min(workers, len(pending_cells)))
        hung = False
        try:
            futures = {
                pool.submit(attempt_cell, runner, tasks[index], retries): index
                for index in pending_cells
            }
            pending = set(futures)
            while pending:
                done, pending = wait(
                    pending, timeout=timeout_s, return_when=FIRST_COMPLETED
                )
                if not done:
                    hung = True
                    detail = f"TimeoutError: no verdict within {timeout_s}s"
                    for future in pending:
                        index = futures[future]
                        future.cancel()
                        verdicts[index] = CellVerdict(
                            "quarantined",
                            runner.failure(
                                tasks[index], "wall-budget", detail, 1
                            ),
                            "wall-budget",
                            0,
                        )
                    break
                for future in done:
                    index = futures[future]
                    try:
                        verdicts[index] = future.result()
                    except Exception as exc:  # noqa: BLE001 — the pool died
                        logger.warning(
                            "a pool worker died under %s cell %s (%s: %s)",
                            runner.kind, tasks[index], type(exc).__name__, exc,
                        )
                        if index not in orphaned:
                            orphaned.add(index)
                            rerun.append(index)
                            continue
                        verdicts[index] = CellVerdict(
                            runner.failure_state,
                            runner.failure(
                                tasks[index], "crashed",
                                f"{type(exc).__name__}: {exc}", 1,
                            ),
                            "crashed",
                            0,
                        )
        finally:
            if hung:
                # Kill the hung workers; without it shutdown() would block
                # on the hang forever.
                for process in list(getattr(pool, "_processes", {}).values()):
                    with contextlib.suppress(Exception):
                        process.terminate()
                pool.shutdown(wait=False, cancel_futures=True)
            else:
                pool.shutdown(wait=True)
        pending_cells = sorted(rerun)
    return [verdicts[index] for index in range(len(tasks))]


# ------------------------------------------------------------ the pull loop


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerStats:
    """Accounting for one :meth:`Worker.run`."""

    claimed: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    budget_kills: int = 0
    #: Results dropped because the lease was taken over mid-cell.
    lease_lost: int = 0
    kind: Optional[str] = None
    worker_id: str = ""


class Worker:
    """The pull loop: claim → execute → write back, until the store drains.

    ``budget=None`` (the default) executes cells in-process through
    :func:`attempt_cell` — the same retry as the non-store paths. A budget
    switches to one :func:`~repro.analysis.budget.run_isolated` child per
    attempt so a wall/RSS breach can be SIGKILLed without taking the
    worker down.

    ``wait_store_s`` lets a worker start before the coordinator: it blocks
    until the store is seeded. ``max_idle_s`` bounds how long a worker
    waits for new claimable cells once the store has been seen non-complete
    but fully leased (``None`` waits forever — the coordinator's reclaim
    loop guarantees progress).
    """

    def __init__(
        self,
        store,
        *,
        worker_id: Optional[str] = None,
        budget: Optional[CellBudget] = None,
        retries: int = 1,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = 0.2,
        poll_cap_s: float = 5.0,
        wait_store_s: float = 0.0,
        max_idle_s: Optional[float] = None,
        run_hook: Optional[Callable[[Any], None]] = None,
        poll_rng: Optional[Callable[[float, float], float]] = None,
    ) -> None:
        self.store: LocalDirStore = open_store(store)
        self.worker_id = worker_id or default_worker_id()
        self.budget = budget
        self.retries = retries
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.backoff = PollBackoff(poll_s, max(poll_s, poll_cap_s), rng=poll_rng)
        self.wait_store_s = wait_store_s
        self.max_idle_s = max_idle_s
        self.run_hook = run_hook
        self.stats = WorkerStats(worker_id=self.worker_id)
        self._stop = False

    def stop(self) -> None:
        """Finish the in-flight cell, then exit the loop (SIGTERM path)."""
        self._stop = True

    # ------------------------------------------------------------------ run

    def run(self) -> WorkerStats:
        """Pull cells with the registered runner for the store's kind."""
        if self.wait_store_s > 0:
            header = self.store.wait_for_header(self.wait_store_s)
        else:
            header = self.store.header()
            if header is None:
                raise StoreError(
                    f"store {self.store.url} is not seeded — start the "
                    f"coordinator first or pass a wait timeout"
                )
        kind = header["kind"]
        try:
            runner = RUNNERS[kind]
        except KeyError:
            raise StoreError(
                f"store {self.store.url} holds run kind {kind!r}; this "
                f"worker knows {sorted(RUNNERS)}"
            ) from None
        return self.pull(runner)

    def pull(self, runner: CellRunner) -> WorkerStats:
        """Claim and execute cells with ``runner`` until the store drains
        (or :meth:`stop`); the coordinator's in-process worker enters here
        with the caller's runner."""
        self.stats = WorkerStats(kind=runner.kind, worker_id=self.worker_id)
        idle_since: Optional[float] = None
        while not self._stop:
            claim = self.store.claim(self.worker_id, self.lease_s)
            if claim is None:
                if self.store.complete:
                    break
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif (
                    self.max_idle_s is not None
                    and now - idle_since > self.max_idle_s
                ):
                    logger.info(
                        "worker %s idle for %gs with the store incomplete; "
                        "exiting", self.worker_id, self.max_idle_s,
                    )
                    break
                delay = self.backoff.next_delay()
                if self.max_idle_s is not None:
                    # Never sleep past the idle deadline checked above.
                    delay = min(
                        delay, max(0.0, idle_since + self.max_idle_s - now)
                    )
                time.sleep(delay)
                continue
            idle_since = None
            self.backoff.reset()
            self.stats.claimed += 1
            task = runner.decode(claim.task)
            if self.run_hook is not None:
                self.run_hook(task)
            try:
                self._write_terminal(claim, self._execute(runner, claim, task))
            except LeaseLost as exc:
                self.stats.lease_lost += 1
                logger.warning(
                    "worker %s dropped cell %d: %s",
                    self.worker_id, claim.cell, exc,
                )
        return self.stats

    # ------------------------------------------------------------ execution

    def _execute(
        self, runner: CellRunner, claim: Claim, task: Any
    ) -> CellVerdict:
        if self.budget is None:
            with self._heartbeat(claim):
                verdict = attempt_cell(runner, task, self.retries)
        else:
            try:
                verdict = attempt_cell(
                    runner, task, self.retries,
                    execute=lambda t: self._isolated_attempt(
                        runner.execute, claim, t
                    ),
                )
            except ResourceBudgetExceeded as breach:
                self.stats.budget_kills += 1
                return CellVerdict(
                    "quarantined",
                    runner.failure(task, breach.violated, str(breach), 1),
                    breach.violated,
                    0,
                )
        self.stats.retried += verdict.retried
        for _ in range(verdict.retried):
            with contextlib.suppress(Exception):  # accounting, never blocks
                self.store.record_event(
                    "retried", cell=claim.cell, worker=self.worker_id
                )
        if verdict.state != "finished":
            self.stats.failed += 1
        return verdict

    @contextlib.contextmanager
    def _heartbeat(self, claim: Claim) -> Iterator[None]:
        """Renew ``claim`` from a daemon thread while the body runs."""
        stop = threading.Event()
        lost = threading.Event()

        def beat() -> None:
            while not stop.wait(self.lease_s / 3):
                try:
                    self.store.renew(claim, self.lease_s)
                except LeaseLost:
                    lost.set()
                    return
                except Exception as exc:  # noqa: BLE001 — transient store I/O
                    logger.warning(
                        "worker %s could not renew cell %d (%s); retrying",
                        self.worker_id, claim.cell, exc,
                    )

        thread = threading.Thread(target=beat, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=5.0)
        if lost.is_set():
            # The terminal write would raise LeaseLost anyway; surfacing it
            # here keeps the accounting in one place.
            raise LeaseLost(f"lease on cell {claim.cell} expired mid-execution")

    def _isolated_attempt(
        self, execute: Callable[[Any], Any], claim: Claim, task: Any
    ) -> Any:
        """One :func:`~repro.analysis.budget.run_isolated` attempt that
        renews ``claim`` at a third of the lease (a lost lease raises
        :class:`~repro.sim.errors.LeaseLost` and kills the child)."""
        next_renew = time.monotonic() + self.lease_s / 3

        def renew(now: float) -> None:
            nonlocal next_renew
            if now >= next_renew:
                self.store.renew(claim, self.lease_s)
                next_renew = now + self.lease_s / 3

        return run_isolated(execute, task, self.budget, tick=renew)

    # ------------------------------------------------------------ write-back

    def _write_terminal(self, claim: Claim, verdict: CellVerdict) -> None:
        state, payload, reason = verdict.state, verdict.payload, verdict.reason
        if state == "finished":
            wrote = self.store.finish(claim, payload)
        elif state == "failed":
            wrote = self.store.fail(claim, payload, reason=reason or "crashed")
        else:
            wrote = self.store.quarantine(
                claim, payload, reason=reason or "crashed"
            )
        if wrote and state == "finished":
            self.stats.completed += 1
