"""Graceful-drain coverage against real processes and real signals.

Subprocess-based, like the fabric kill/reclaim harness: the daemon
(``repro-renaming serve``) is started as a child process, hit with
SIGTERM/SIGINT mid-session, and must honor the drain contract — in-flight
sessions complete, late connects get a typed ServerBusy, the exit code
says what happened (0 clean, 4 sessions shed). The worker half drains the
``worker`` subcommand mid-sweep and asserts the lease story: every cell
finished exactly once, no re-execution, doctor-clean store.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis import RunTask
from repro.analysis.envelope import config_fingerprint
from repro.analysis.store import LocalDirStore, open_store
from repro.cli import main
from repro.service.frames import read_frame, write_frame
from repro.service.messages import (
    CertificateMessage,
    CloseSessionMessage,
    NamesAssignedMessage,
    OpenSessionMessage,
    RegisterIdsMessage,
    ServerBusyMessage,
    SessionErrorMessage,
    SessionWelcomeMessage,
)

from helpers import child_pids, is_running

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _cli(args, *, env=None, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _spawn(args, *, env=None, launcher=("-m", "repro.cli"), **popen):
    popen.setdefault("stdout", subprocess.PIPE)
    popen.setdefault("stderr", subprocess.PIPE)
    return subprocess.Popen(
        [sys.executable, *launcher, *args],
        env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
        text=True,
        **popen,
    )


#: ``python -c`` program: ``serve`` whose sessions write their pid to
#: ``argv[1]`` and stall, then the CLI arguments from ``argv[2:]``.
_STALLING_SERVE = """
import os, sys, time
import repro.service.session as session

def stalling(request):
    with open(sys.argv[1] + ".tmp", "w") as handle:
        handle.write(str(os.getpid()))
    os.replace(sys.argv[1] + ".tmp", sys.argv[1])  # seen only once written
    time.sleep(60.0)

session.execute_session = stalling
from repro.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _wait_until_gone(pids, timeout):
    """The pids of ``pids`` still running after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while (running := [pid for pid in pids if is_running(pid)]) and (
        time.monotonic() < deadline
    ):
        time.sleep(0.05)
    return running


def _wait_for_port_file(path, process, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            out, err = process.communicate()
            raise AssertionError(f"daemon died before binding: {out}\n{err}")
        if os.path.exists(path):
            text = open(path).read().strip()
            if text:
                host, _, port = text.rpartition(":")
                return host, int(port)
        time.sleep(0.05)
    raise AssertionError("daemon never wrote its port file")


def _finish(process, timeout=30):
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        out, err = process.communicate()
        raise AssertionError(f"daemon did not exit after drain: {out}\n{err}")
    return process.returncode, out, err


async def _expect(reader, message_type, timeout=15.0):
    message = await asyncio.wait_for(read_frame(reader), timeout)
    assert isinstance(message, message_type), f"got {message!r}"
    return message


class TestServeDrain:
    def test_sigterm_finishes_in_flight_and_exits_clean(self, tmp_path):
        port_file = tmp_path / "svc.port"
        daemon = _spawn(
            [
                "serve", "--port", "0", "--port-file", str(port_file),
                "--session-deadline", "15", "--idle-timeout", "15",
                "--drain-grace", "20",
            ]
        )
        try:
            host, port = _wait_for_port_file(str(port_file), daemon)

            async def scenario():
                reader, writer = await asyncio.open_connection(host, port)
                await _expect(reader, SessionWelcomeMessage)
                await write_frame(writer, OpenSessionMessage())
                await write_frame(writer, RegisterIdsMessage(ids=(4, 9, 17, 23)))

                daemon.send_signal(signal.SIGTERM)

                # Once the drain flag is visible, new connects are turned
                # away with an explicit ServerBusy — poll until it is.
                for _ in range(100):
                    late_r, late_w = await asyncio.open_connection(host, port)
                    first = await asyncio.wait_for(read_frame(late_r), 15.0)
                    late_w.close()
                    await late_w.wait_closed()
                    if isinstance(first, ServerBusyMessage):
                        break
                    await asyncio.sleep(0.05)
                else:
                    raise AssertionError("drain never refused a late connect")

                # The in-flight session still completes, certificate and all.
                await write_frame(writer, CloseSessionMessage())
                names = await _expect(reader, NamesAssignedMessage)
                certificate = await _expect(reader, CertificateMessage)
                assert len(names.entries) == 4
                assert certificate.ok, certificate.violations
                writer.close()
                await writer.wait_closed()

            asyncio.run(scenario())
            code, out, err = _finish(daemon)
            assert code == 0, f"{out}\n{err}"
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()

    def test_sigint_sheds_stragglers_and_exits_4(self, tmp_path):
        port_file = tmp_path / "svc.port"
        daemon = _spawn(
            [
                "serve", "--port", "0", "--port-file", str(port_file),
                "--session-deadline", "60", "--idle-timeout", "60",
                "--drain-grace", "0.3",
            ]
        )
        try:
            host, port = _wait_for_port_file(str(port_file), daemon)

            async def scenario():
                reader, writer = await asyncio.open_connection(host, port)
                await _expect(reader, SessionWelcomeMessage)
                await write_frame(writer, OpenSessionMessage())
                daemon.send_signal(signal.SIGINT)
                # The straggler is shed with a typed shutdown error, not a
                # bare connection reset.
                error = await _expect(reader, SessionErrorMessage)
                assert error.code == "shutdown"
                writer.close()
                await writer.wait_closed()

            asyncio.run(scenario())
            code, out, err = _finish(daemon)
            assert code == 4, f"{out}\n{err}"
            assert "1 shed" in out
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()


class TestSessionWorkers:
    """The daemon's session worker processes never outlive it and never
    die of a signal meant for it."""

    def test_sigkilled_daemon_leaves_no_worker_behind(self, tmp_path):
        port_file = tmp_path / "svc.port"
        daemon = _spawn(
            [
                "serve", "--port", "0", "--port-file", str(port_file),
                "--session-deadline", "15", "--idle-timeout", "15",
            ],
            # No pipes: a surviving worker would hold them open.
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            host, port = _wait_for_port_file(str(port_file), daemon)
            workers = child_pids(daemon.pid)
            assert workers, "serve forked no session worker"

            async def scenario():
                reader, writer = await asyncio.open_connection(host, port)
                await _expect(reader, SessionWelcomeMessage)
                await write_frame(writer, OpenSessionMessage())
                await write_frame(writer, RegisterIdsMessage(ids=(4, 9, 17, 23)))
                daemon.kill()
                daemon.wait()
                writer.close()

            asyncio.run(scenario())
            assert _wait_until_gone(workers, 5.0) == []
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()

    def test_sigkilled_daemon_ends_a_stalled_budgeted_session(self, tmp_path):
        # The worker polices a budgeted session's child and notices the
        # daemon's death while it waits, long before the wall budget.
        port_file, stalled_pid = tmp_path / "svc.port", tmp_path / "stalled.pid"
        daemon = _spawn(
            [
                str(stalled_pid), "serve", "--port", "0",
                "--port-file", str(port_file), "--session-wall", "60",
            ],
            launcher=("-c", _STALLING_SERVE),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            host, port = _wait_for_port_file(str(port_file), daemon)
            workers = child_pids(daemon.pid)

            async def scenario():
                reader, writer = await asyncio.open_connection(host, port)
                await _expect(reader, SessionWelcomeMessage)
                await write_frame(writer, OpenSessionMessage())
                await write_frame(writer, RegisterIdsMessage(ids=(4, 9, 17, 23)))
                await write_frame(writer, CloseSessionMessage())
                while not stalled_pid.exists():
                    await asyncio.sleep(0.02)
                daemon.kill()
                daemon.wait()
                writer.close()

            asyncio.run(scenario())
            budget_child = int(stalled_pid.read_text())
            assert budget_child not in workers
            assert _wait_until_gone(workers + [budget_child], 5.0) == []
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()

    def test_sigterm_to_the_process_group_still_drains(self, tmp_path):
        port_file = tmp_path / "svc.port"
        daemon = _spawn(
            [
                "serve", "--port", "0", "--port-file", str(port_file),
                "--session-deadline", "15", "--idle-timeout", "15",
                "--drain-grace", "20",
            ],
            start_new_session=True,  # its own process group, not pytest's
        )
        try:
            host, port = _wait_for_port_file(str(port_file), daemon)
            workers = child_pids(daemon.pid)

            async def scenario():
                reader, writer = await asyncio.open_connection(host, port)
                await _expect(reader, SessionWelcomeMessage)
                await write_frame(writer, OpenSessionMessage())
                await write_frame(writer, RegisterIdsMessage(ids=(4, 9, 17, 23)))
                # What a supervisor stopping the service sends: SIGTERM to
                # the daemon's group, and to each worker's own.
                for group in [daemon.pid] + workers:
                    os.killpg(group, signal.SIGTERM)
                await write_frame(writer, CloseSessionMessage())
                names = await _expect(reader, NamesAssignedMessage)
                certificate = await _expect(reader, CertificateMessage)
                assert len(names.entries) == 4
                assert certificate.ok, certificate.violations
                assert child_pids(daemon.pid) == workers  # none died
                writer.close()
                await writer.wait_closed()

            asyncio.run(scenario())
            code, out, err = _finish(daemon)
            assert code == 0, f"{out}\n{err}"
            assert "1 completed" in out
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()


class TestWorkerDrain:
    """SIGTERM against the fabric worker: finish the cell, keep the store
    doctor-clean — the lease is either finished or expiry-reclaimed, and
    every cell executes exactly once."""

    def test_sigterm_mid_sweep_releases_cleanly(self, tmp_path):
        url = f"dir:{tmp_path / 'store'}"
        # 32 cells: enough that cells are still pending for a good while
        # after the drained worker's first claim.
        grid = [
            "--algorithms", "alg1",
            "--sizes", "7:2", "10:3",
            "--attacks", "silent", "conforming",
            "--seeds", "0", "1", "2", "3", "4", "5", "6", "7",
        ]
        coordinator = _spawn(
            [
                "sweep", *grid, "--workers", "1", "--store", url,
                "--coordinator-only", "--csv", str(tmp_path / "out.csv"),
            ]
        )
        try:
            drained = _spawn(
                [
                    "worker", "--store", url, "--worker-id", "drained",
                    "--lease", "2", "--wait-for-store", "60",
                ]
            )
            # Let it claim at least one cell before asking it to stop — a
            # wall-clock sleep races worker startup (imports + signal
            # handler installation) on a loaded host, so wait for the
            # store's own event log to show a claim by this worker. The
            # signal must also find cells still pending: a worker whose
            # pull loop has already returned is past its drain and may be
            # in interpreter shutdown, where SIGTERM kills it (exit -15).
            deadline = time.monotonic() + 60.0
            store = open_store(url)
            while time.monotonic() < deadline:
                if drained.poll() is not None:
                    out, err = drained.communicate()
                    raise AssertionError(f"worker died early: {out}\n{err}")
                claimed = any(
                    e["event"] == "claimed" and e.get("worker") == "drained"
                    for e in store.events()
                )
                if claimed and store.counts()["pending"] > 0:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError(
                    "never saw the worker's claim with cells still pending"
                )
            drained.send_signal(signal.SIGTERM)
            out, err = drained.communicate(timeout=60)
            assert drained.returncode == 0, err
            assert "worker drained" in out

            # A second worker runs the store dry.
            medic = _cli(
                [
                    "worker", "--store", url, "--worker-id", "medic",
                    "--lease", "2", "--wait-for-store", "60",
                ]
            )
            assert medic.returncode == 0, medic.stderr
            # The drain really was mid-sweep: cells were left for the medic.
            assert any(
                e["event"] == "claimed" and e.get("worker") == "medic"
                for e in store.events()
            )

            out, err = coordinator.communicate(timeout=120)
            assert coordinator.returncode == 0, err
        finally:
            for process in (coordinator,):
                if process.poll() is None:
                    process.kill()
                    process.communicate()

        # Exactly-once execution, whichever worker ran each cell.
        store = open_store(url)
        finished = [
            e["cell"] for e in store.events() if e["event"] == "finished"
        ]
        assert sorted(finished) == sorted(set(finished))
        doctor = _cli(
            ["runs", "doctor", "--store", url, "--assert-no-reexecution"]
        )
        assert doctor.returncode == 0, doctor.stdout + doctor.stderr

    def test_in_process_worker_leaves_signal_handlers_as_found(
        self, tmp_path, capsys
    ):
        # The worker verb traps SIGTERM/SIGINT to drain; called in-process
        # it must hand the caller's handlers back, or processes forked
        # later inherit a handler that ignores terminate().
        store = LocalDirStore(tmp_path / "store")
        cells = [RunTask("alg1", 4, 1, "silent", 0).to_dict()]
        store.seed(
            kind="sweep", run_id="one", cells=cells,
            fingerprint=config_fingerprint("sweep", cells),
        )
        signals = (signal.SIGTERM, signal.SIGINT)
        before = [signal.getsignal(signum) for signum in signals]
        assert main(["worker", "--store", f"dir:{store.root}"]) == 0
        assert "1 claimed, 1 completed" in capsys.readouterr().out
        assert [signal.getsignal(signum) for signum in signals] == before
