"""The daemon's session workers: one forked process per usable CPU.

Sessions are pure-Python runs of the paper's algorithms, so threads in the
daemon would share one core under the GIL. :class:`SessionPool` instead
forks one worker per CPU the daemon may run on
(``os.sched_getaffinity``). Each worker holds one end of its own
``multiprocessing`` pipe and answers one :class:`SessionRequest` at a time
with a :func:`repro.analysis.budget.call_outcome` report. The event loop
waits on the pipe and the worker's sentinel, so it needs no helper
threads.

Unlike ``concurrent.futures.ProcessPoolExecutor``, the pool keeps the
daemon's containment contract:

* a worker's death fails only the session it was running (an
  :class:`~repro.analysis.budget.IsolatedChildError`, which the daemon
  reports as ``infra``), and a replacement is forked at once;
* a session cancelled while it runs (shed during a drain) has its
  worker's whole process group killed, a budget child included, and the
  worker replaced;
* :meth:`SessionPool.close` kills and reaps every worker, so none
  outlives the daemon's ``serve_forever``.

A worker keeps only its own pipe, stdio and the pipes ``multiprocessing``
made for it: every other inherited descriptor (the listening socket, client
connections, the event loop's self-pipe, other workers' pipes) is closed.
End-of-file on its pipe therefore means the daemon is gone, and the worker
exits, even if the daemon was SIGKILLed: at once when idle, after its
session when running one, at the next budget poll when policing a budget
child. Workers ignore SIGINT and SIGTERM and run in their own process
group: a signal meant for the daemon drains it, and never kills a session
from under it.

With a :class:`~repro.analysis.budget.CellBudget` a worker runs each
session through :func:`~repro.analysis.budget.run_isolated`, the same
budget-policed child the fabric uses, so budgeted and unbudgeted sessions
take the same path through the pool. Workers are forked by
:meth:`SessionPool.start`, so a stub patched onto
``session.execute_session`` reaches them only if patched before it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
from collections import deque
from functools import partial
from multiprocessing.util import Finalize
from typing import Any, Deque, List, Optional, Set, Tuple

from ..analysis.budget import CellBudget, call_outcome, reported_value, run_isolated
from . import session
from .session import SessionRequest

__all__ = ["SessionPool", "usable_cpus"]

_FORK = multiprocessing.get_context("fork")


def usable_cpus() -> int:
    """CPUs this process may run on (all of them where that is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def _open_fds() -> Set[int]:
    """This process's open file descriptors (none where ``/proc`` is
    missing, so a worker then closes none)."""
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return set()
    fds = set()
    for name in names:
        try:
            os.fstat(int(name))
        except OSError:  # the listing's own descriptor, closed by now
            continue
        fds.add(int(name))
    return fds


def _execute(request: SessionRequest, budget: Optional[CellBudget], tick) -> Any:
    # Looked up on the module per call: a stub patched onto
    # ``session.execute_session`` before the pool forks reaches the worker
    # (and, through run_isolated's fork, the budget child).
    execute_session = session.execute_session
    if budget is None:
        return execute_session(request)
    return run_isolated(execute_session, request, budget, tick=tick)


def _worker_main(conn, budget: Optional[CellBudget], inherited: Set[int]) -> None:
    """A worker's life: answer requests until end-of-file on ``conn``."""
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_IGN)
    try:
        signal.set_wakeup_fd(-1)  # the event loop's, closed below
    except ValueError:  # forked from a thread other than the main one
        pass
    try:
        os.setpgid(0, 0)
    except OSError:  # killed alone, then, not with a budget child
        pass
    for fd in inherited - {0, 1, 2, conn.fileno()}:
        try:
            os.close(fd)
        except OSError:
            pass

    def daemon_gone(now: float) -> None:
        # The daemon sends nothing while a session runs: a readable pipe
        # is end-of-file. Raising here kills the budget child.
        if conn.poll():
            raise SystemExit(0)

    execute = partial(_execute, budget=budget, tick=daemon_gone)
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        conn.send(call_outcome(execute, request))


class _Worker:
    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn

    def end(self) -> None:
        """SIGKILL the worker's process group (its budget child too) and
        reap the worker."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except OSError:  # no such group: it never became its own leader
            self.process.kill()
        self.process.join()
        self.conn.close()


class SessionPool:
    """One worker process per usable CPU, driven from the event loop.

    ``await run(request)`` returns what ``session.execute_session`` returned
    in a worker, or raises what it raised (see
    :func:`~repro.analysis.budget.reported_value`). When every worker is
    busy, sessions wait for one in arrival order.
    """

    def __init__(self, budget: Optional[CellBudget] = None) -> None:
        self.budget = budget
        #: Every worker started and not yet reaped.
        self._workers: Set[_Worker] = set()
        self._idle: List[_Worker] = []
        self._waiters: Deque[asyncio.Future] = deque()
        self._closed = False
        # At interpreter exit (or when the pool is dropped unclosed), end
        # what is left before multiprocessing joins its children.
        Finalize(self, _end_all, args=(self._workers,), exitpriority=10)

    def start(self) -> None:
        """Fork the workers (call before the daemon binds its socket)."""
        for _ in range(usable_cpus()):
            self._idle.append(self._spawn())

    def _spawn(self) -> _Worker:
        ours, theirs = _FORK.Pipe()
        process = _FORK.Process(
            target=_worker_main,
            args=(theirs, self.budget, _open_fds()),
            name="repro-session-worker",
        )
        process.start()
        theirs.close()
        try:
            os.setpgid(process.pid, process.pid)  # the worker does so too
        except OSError:
            pass
        worker = _Worker(process, ours)
        self._workers.add(worker)
        return worker

    async def run(self, request: SessionRequest) -> Any:
        worker = await self._acquire()
        try:
            outcome = await self._call(worker, request)
        except BaseException:  # cancelled (shed): the worker is mid-session
            self._retire(worker)
            raise
        if outcome is None:
            self._retire(worker)
        else:
            self._release(worker)
        return reported_value(outcome, worker.process.exitcode)

    async def _acquire(self) -> _Worker:
        if not self._waiters:
            while self._idle:
                worker = self._idle.pop()
                if worker.process.is_alive():
                    return worker
                self._retire(worker)  # died while idle
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        try:
            return await waiter
        except asyncio.CancelledError:
            if waiter.cancelled():
                self._waiters.remove(waiter)
            else:  # handed a worker just now: pass it on
                self._release(waiter.result())
            raise

    def _release(self, worker: _Worker) -> None:
        """Hand ``worker`` to the first waiting session, or keep it idle."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(worker)
                return
        self._idle.append(worker)

    async def _call(self, worker: _Worker, request: SessionRequest) -> Optional[Tuple[str, Any]]:
        """The worker's report on ``request``; ``None`` if it died first."""
        try:
            worker.conn.send(request)
        except OSError:
            return None
        loop = asyncio.get_running_loop()
        answered = loop.create_future()

        def wake() -> None:
            if not answered.done():
                answered.set_result(None)

        fds = (worker.conn.fileno(), worker.process.sentinel)
        for fd in fds:
            loop.add_reader(fd, wake)
        try:
            await answered
        finally:
            for fd in fds:
                loop.remove_reader(fd)
        try:
            if worker.conn.poll():
                return worker.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    def _retire(self, worker: _Worker) -> None:
        """End ``worker`` and fork its replacement."""
        worker.end()
        self._workers.discard(worker)
        if not self._closed:
            self._release(self._spawn())

    def close(self) -> None:
        """Kill and reap every worker (the daemon calls this once its
        drain has ended every session)."""
        self._closed = True
        self._idle.clear()
        _end_all(self._workers)


def _end_all(workers: Set[_Worker]) -> None:
    for worker in workers:
        worker.end()
    workers.clear()
