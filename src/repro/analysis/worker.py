"""Pull-based fabric workers: claim a lease, run the cell, push the result.

A :class:`Worker` is the execution half of the coordinator/worker split
(:mod:`repro.analysis.coordinator` is the other half). It owns no grid and
no report — it connects to a :class:`~repro.analysis.store.ResultStore`,
reads the run kind from the seeded header, and loops: claim the
lowest-indexed open cell, execute it, write the terminal record, repeat
until the store is complete. Because the store is the only shared state, a
worker can be an in-process call inside the coordinator (the default,
preserving single-host behavior exactly), a subprocess the coordinator
spawns, or a ``repro-renaming worker --store ...`` process started by hand
on another machine against shared storage.

Execution semantics mirror the single-host paths cell for cell:

* **Retry-once.** An untyped exception from the runner is retried once
  (``retries=1``); the second failure becomes a deterministic failure row
  built from the *second* error's message — exactly the serial executor's
  behavior, so fabric reports stay byte-identical to in-process ones.
* **Budgets.** With a :class:`~repro.analysis.budget.CellBudget`, each
  cell runs in a disposable child process policed by
  :func:`~repro.analysis.budget.budget_breach` — a breach SIGKILLs the
  child and quarantines the cell with a typed kind (``wall-budget`` /
  ``rss-budget``); budget kills are never retried. The child ignores
  SIGINT, so a terminal Ctrl-C reaches only the worker, which drains.
* **Heartbeats.** While a cell executes, the lease is renewed at a third
  of its duration (a daemon thread in-process, the police loop around the
  child otherwise). A worker that dies stops renewing; the lease expires
  and a peer takes the cell over. If *our* lease is taken over we drop the
  result on the floor (:class:`~repro.sim.errors.LeaseLost`): the store
  guarantees the first durable terminal record wins.

The translation between store payloads and the sweep/chaos row types lives
in the :data:`RUNNERS` registry — one :class:`CellRunner` per run kind —
which the coordinator also uses to decode terminal records back into
:class:`~repro.analysis.executor.ExperimentSummary` /
:class:`~repro.analysis.campaign.ChaosOutcome` rows. Tests and benches may
register additional kinds (e.g. synthetic no-op cells).
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..sim.errors import LeaseLost, StoreError
from .backoff import PollBackoff
from .budget import CellBudget, budget_breach
from .campaign import ChaosOutcome, ChaosTask, execute_chaos_task
from .executor import ExperimentSummary, RunTask, execute_task, logger
from .store import Claim, DEFAULT_LEASE_S, ResultStore, open_store

__all__ = [
    "CellRunner",
    "PollBackoff",  # re-export: the class moved to repro.analysis.backoff
    "RUNNERS",
    "Worker",
    "WorkerStats",
    "default_worker_id",
]


@dataclass(frozen=True)
class CellRunner:
    """How one run kind's cells execute and (de)serialise.

    ``encode`` receives the runner's result plus the number of *failed*
    attempts that preceded it (chaos outcomes record that as ``retries``;
    sweeps ignore it). ``failure`` builds the deterministic failure payload
    after the retry is exhausted; ``budget_failure`` the quarantine payload
    for a budget kill; ``lease_row`` the row for a cell whose lease expired
    past ``max_attempts`` (a terminal record with no payload at all).
    """

    kind: str
    decode: Callable[[dict], Any]
    execute: Callable[[Any], Any]
    encode: Callable[[Any, int], dict]
    failure: Callable[[Any, str, int], dict]
    #: Terminal state for an exhausted crash retry ("failed" for sweeps —
    #: a deterministic failure row — "quarantined" for chaos, whose
    #: crashed cells are quarantined with a reproducer).
    failure_state: str
    budget_failure: Callable[[Any, str, str], dict]
    decode_row: Callable[[Any, dict], Any]
    lease_row: Callable[[Any, str], Any]
    set_retries: Callable[[dict, int], dict]


def _sweep_failure(task: RunTask, detail: str, attempts: int) -> dict:
    return ExperimentSummary.for_failure(task, detail).to_dict()


def _chaos_encode(outcome: ChaosOutcome, attempts: int) -> dict:
    outcome.retries = attempts
    return outcome.verdict_dict()


def _chaos_failure(task: ChaosTask, detail: str, attempts: int) -> dict:
    return ChaosOutcome(
        task=task, status="crashed", error=detail, retries=attempts - 1
    ).verdict_dict()


def _chaos_budget_failure(task: ChaosTask, kind: str, detail: str) -> dict:
    status = "timeout" if kind == "wall-budget" else "crashed"
    return ChaosOutcome(task=task, status=status, error=detail).verdict_dict()


def _chaos_set_retries(payload: dict, attempts: int) -> dict:
    payload["retries"] = attempts
    return payload


#: Run-kind registry (header ``kind`` -> execution/serialisation bundle).
RUNNERS: Dict[str, CellRunner] = {
    "sweep": CellRunner(
        kind="sweep",
        decode=RunTask.from_dict,
        execute=execute_task,
        encode=lambda summary, attempts: summary.to_dict(),
        failure=_sweep_failure,
        failure_state="failed",
        budget_failure=lambda task, kind, detail: _sweep_failure(
            task, detail, 1
        ),
        decode_row=lambda task, payload: ExperimentSummary.from_dict(payload),
        lease_row=lambda task, reason: ExperimentSummary.for_failure(
            task, f"LeaseLost: {reason}"
        ),
        set_retries=lambda payload, attempts: payload,
    ),
    "chaos": CellRunner(
        kind="chaos",
        decode=ChaosTask.from_dict,
        execute=execute_chaos_task,
        encode=_chaos_encode,
        failure=_chaos_failure,
        failure_state="quarantined",
        budget_failure=_chaos_budget_failure,
        decode_row=ChaosOutcome.from_verdict,
        lease_row=lambda task, reason: ChaosOutcome(
            task=task, status="crashed", error=f"LeaseLost: {reason}"
        ),
        set_retries=_chaos_set_retries,
    ),
}


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
    extras: Dict[str, int] = field(default_factory=dict)


def _cell_main(kind: str, payload: dict, result_q) -> None:
    """Child-process body for budget-isolated execution: one attempt."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    runner = RUNNERS[kind]
    try:
        task = runner.decode(payload)
        result = runner.execute(task)
        result_q.put(("done", runner.encode(result, 0)))
    except BaseException as exc:  # noqa: BLE001 — reported, not hidden
        result_q.put(("error", f"{type(exc).__name__}: {exc}"))


class Worker:
    """The pull loop: claim → execute → write back, until the store drains.

    ``budget=None`` (the default) executes cells in-process — identical to
    the serial executor, including retry-once semantics. A budget switches
    to one disposable child process per cell so a wall/RSS breach can be
    SIGKILLed without taking the worker down.

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
        self.store: ResultStore = open_store(store)
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
        self.stats = WorkerStats(kind=kind, worker_id=self.worker_id)
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
            if self.run_hook is not None:
                self.run_hook(runner.decode(claim.task))
            try:
                if self.budget is not None:
                    state, payload, reason = self._execute_isolated(
                        runner, claim
                    )
                else:
                    state, payload, reason = self._execute_inline(
                        runner, claim
                    )
                self._write_terminal(claim, state, payload, reason)
            except LeaseLost as exc:
                self.stats.lease_lost += 1
                logger.warning(
                    "worker %s dropped cell %d: %s",
                    self.worker_id, claim.cell, exc,
                )
        return self.stats

    # ------------------------------------------------------------ execution

    def _execute_inline(
        self, runner: CellRunner, claim: Claim
    ) -> Tuple[str, dict, Optional[str]]:
        """One cell in this process, lease renewed by a daemon thread."""
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
            return self._attempts(runner, claim)
        finally:
            stop.set()
            thread.join(timeout=5.0)
            if lost.is_set():
                # The terminal write below would raise LeaseLost anyway;
                # surfacing it here keeps the accounting in one place.
                raise LeaseLost(
                    f"lease on cell {claim.cell} expired mid-execution"
                )

    def _attempts(
        self, runner: CellRunner, claim: Claim
    ) -> Tuple[str, dict, Optional[str]]:
        """Retry-once execution, serial-path-identical semantics."""
        task = runner.decode(claim.task)
        attempts = 0
        while True:
            try:
                result = runner.execute(task)
            except Exception as exc:  # noqa: BLE001 — retried, then recorded
                attempts += 1
                detail = f"{type(exc).__name__}: {exc}"
                if attempts <= self.retries:
                    logger.warning(
                        "cell %d crashed (%s); retrying (%d/%d)",
                        claim.cell, detail, attempts, self.retries,
                    )
                    self._note_retry(claim)
                    continue
                self.stats.failed += 1
                return (
                    runner.failure_state,
                    runner.failure(task, detail, attempts),
                    "crashed",
                )
            return "finished", runner.encode(result, attempts), None

    def _execute_isolated(
        self, runner: CellRunner, claim: Claim
    ) -> Tuple[str, dict, Optional[str]]:
        """One disposable child process per attempt, budget-policed."""
        task = runner.decode(claim.task)
        attempts = 0
        while True:
            verdict = self._isolated_attempt(runner, claim)
            if verdict[0] == "done":
                payload = runner.set_retries(verdict[1], attempts)
                return "finished", payload, None
            if verdict[0] == "budget":
                _, kind, detail = verdict
                self.stats.budget_kills += 1
                return (
                    "quarantined",
                    runner.budget_failure(task, kind, detail),
                    kind,
                )
            detail = verdict[1]
            attempts += 1
            if attempts <= self.retries:
                logger.warning(
                    "cell %d crashed (%s); retrying (%d/%d)",
                    claim.cell, detail, attempts, self.retries,
                )
                self._note_retry(claim)
                continue
            self.stats.failed += 1
            return (
                runner.failure_state,
                runner.failure(task, detail, attempts),
                "crashed",
            )

    def _isolated_attempt(self, runner: CellRunner, claim: Claim) -> Tuple:
        """One child-process attempt: ``("done", payload)``,
        ``("error", detail)`` or ``("budget", kind, detail)``."""
        result_q: multiprocessing.Queue = multiprocessing.Queue()
        process = multiprocessing.Process(
            target=_cell_main,
            args=(runner.kind, claim.task, result_q),
            daemon=True,
        )
        process.start()
        started = time.monotonic()
        next_renew = started + self.lease_s / 3
        try:
            while True:
                process.join(timeout=0.05)
                if not process.is_alive():
                    break
                now = time.monotonic()
                if now >= next_renew:
                    self.store.renew(claim, self.lease_s)  # LeaseLost ↑
                    next_renew = now + self.lease_s / 3
                breach = budget_breach(
                    self.budget, started_at=started, pid=process.pid, now=now
                )
                if breach is not None:
                    process.kill()
                    process.join(timeout=2.0)
                    return ("budget", breach[0], breach[1])
            try:
                kind_, payload = result_q.get(timeout=1.0)
            except queue.Empty:
                return (
                    "error",
                    f"worker died mid-cell (exit code {process.exitcode})",
                )
            return ("done", payload) if kind_ == "done" else ("error", payload)
        except LeaseLost:
            process.kill()
            process.join(timeout=2.0)
            raise
        finally:
            result_q.close()
            result_q.cancel_join_thread()

    # ------------------------------------------------------------ write-back

    def _note_retry(self, claim: Claim) -> None:
        self.stats.retried += 1
        try:
            self.store.record_event(
                "retried", cell=claim.cell, worker=self.worker_id
            )
        except Exception:  # noqa: BLE001 — accounting, never blocks the cell
            pass

    def _write_terminal(
        self, claim: Claim, state: str, payload: dict, reason: Optional[str]
    ) -> None:
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
