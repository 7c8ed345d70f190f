"""Per-cell resource budgets and the one budget-policed child process.

:func:`run_isolated` runs one call in a disposable child process and
polices it with :func:`budget_breach`. Budget-isolated fabric workers
(:mod:`repro.analysis.worker`) and the daemon's budgeted sessions
(:mod:`repro.service.server`) both run their work through it, so a breach
produces the same typed
:class:`~repro.sim.errors.ResourceBudgetExceeded` (``"wall-budget"`` /
``"rss-budget"``) with the same message wherever the cell runs, and a
child that dies without reporting is the same :class:`IsolatedChildError`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Optional, Tuple

from ..sim.errors import ResourceBudgetExceeded

__all__ = [
    "CellBudget",
    "IsolatedChildError",
    "budget_breach",
    "rss_mb_of",
    "run_isolated",
]

#: How often the parent checks the budget and calls ``tick`` (seconds).
POLL_S = 0.05


@dataclass(frozen=True)
class CellBudget:
    """Per-cell resource budgets; ``None`` disables an axis."""

    wall_s: Optional[float] = None
    rss_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if self.wall_s is not None and self.wall_s <= 0:
            raise ValueError(f"wall_s must be positive, got {self.wall_s}")
        if self.rss_mb is not None and self.rss_mb <= 0:
            raise ValueError(f"rss_mb must be positive, got {self.rss_mb}")


def rss_mb_of(pid: int) -> Optional[float]:
    """Resident set size of ``pid`` in MiB via ``/proc`` (Linux).

    Returns ``None`` where ``/proc/<pid>/statm`` is unavailable (non-Linux,
    or the process already exited) — RSS budgets degrade to unenforced
    rather than crashing the caller.
    """
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * (os.sysconf("SC_PAGE_SIZE") / (1024 * 1024))
    except (OSError, ValueError, IndexError):
        return None


def budget_breach(
    budget: Optional[CellBudget],
    *,
    started_at: float,
    pid: Optional[int] = None,
    now: Optional[float] = None,
) -> Optional[Tuple[str, str]]:
    """``(kind, detail)`` when a cell has exceeded ``budget``, else ``None``.

    ``started_at``/``now`` are ``time.monotonic()`` values; ``pid`` enables
    the RSS axis.
    """
    if budget is None:
        return None
    if now is None:
        now = time.monotonic()
    if budget.wall_s is not None and now - started_at > budget.wall_s:
        return (
            "wall-budget",
            f"ResourceBudgetExceeded: cell exceeded wall budget "
            f"({budget.wall_s:g}s)",
        )
    if budget.rss_mb is not None and pid is not None:
        rss = rss_mb_of(pid)
        if rss is not None and rss > budget.rss_mb:
            return (
                "rss-budget",
                f"ResourceBudgetExceeded: worker RSS {rss:.0f} MiB "
                f"exceeded budget ({budget.rss_mb:g} MiB)",
            )
    return None


class IsolatedChildError(RuntimeError):
    """An isolated child returned no outcome the parent can re-raise.

    Either it exited without reporting (the message names its exit code),
    or it raised an exception that does not pickle (the message is that
    exception's ``"Type: message"`` text).
    """


def _child_main(fn: Callable[[Any], Any], arg: Any, sender) -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        outcome = ("done", fn(arg))
    except Exception as exc:  # noqa: BLE001 — relayed, not hidden
        outcome = ("raised", exc)
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # noqa: BLE001 — relay the text instead
            outcome = ("lost", f"{type(exc).__name__}: {exc}")
    sender.send(outcome)


def run_isolated(
    fn: Callable[[Any], Any],
    arg: Any,
    budget: Optional[CellBudget],
    *,
    tick: Optional[Callable[[float], None]] = None,
) -> Any:
    """``fn(arg)`` in a disposable child process policed by ``budget``.

    Returns what ``fn`` returned, or re-raises what it raised. A wall/RSS
    breach SIGKILLs the child and raises
    :class:`~repro.sim.errors.ResourceBudgetExceeded`. ``tick(now)`` runs
    on every poll with a ``time.monotonic()`` value; anything it raises
    kills the child and propagates. A child that exits without reporting,
    or raises an exception that does not pickle, is an
    :class:`IsolatedChildError`.
    """
    receiver, sender = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(
        target=_child_main, args=(fn, arg, sender), daemon=True
    )
    process.start()
    sender.close()
    started = time.monotonic()
    try:
        # Read the outcome as soon as it arrives: a child writing one
        # larger than the pipe buffer blocks until it is read. The pipe
        # may be held open by other forked children, so a death is read
        # off the child's sentinel, not off end-of-file.
        while not wait([receiver, process.sentinel], POLL_S):
            now = time.monotonic()
            if tick is not None:
                tick(now)
            breach = budget_breach(
                budget, started_at=started, pid=process.pid, now=now
            )
            if breach is not None:
                raise ResourceBudgetExceeded(breach[1], violated=breach[0])
        status, value = None, None
        if receiver.poll():
            try:
                status, value = receiver.recv()
            except EOFError:  # died before it reported
                pass
    except BaseException:
        process.kill()
        raise
    finally:
        process.join(timeout=1.0)
        if process.is_alive():  # reported, but stuck on its way out
            process.kill()
            process.join()
        receiver.close()
    if status == "done":
        return value
    if status == "raised":
        raise value
    if status == "lost":
        raise IsolatedChildError(value)
    raise IsolatedChildError(
        f"isolated child exited without reporting (exit code "
        f"{process.exitcode})"
    )
