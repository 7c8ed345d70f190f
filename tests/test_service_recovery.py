"""Kill -9 the daemon mid-burst; prove nothing admitted is ever lost.

Subprocess-based, like the drain suite: a real ``repro-renaming serve
--session-journal`` child is SIGKILLed at a deterministic journal record
via ``REPRO_SERVICE_CRASH_AFTER``, restarted on the same journal, and the
recovery contract is asserted end to end:

* every session that *completed* before the crash is answerable after the
  restart — same token, byte-identical certificate (the journaled frame
  bytes are replayed, the session is never re-run);
* a session that was *in flight* at the crash (``accepted`` with no
  terminal record) is re-admitted by the client's retry exactly once —
  the journal shows precisely two ``accepted`` records for it;
* no assignment is duplicated or order-violating across the crash
  boundary — every completed outcome passed :func:`run_session`'s
  client-side ``check_renaming`` re-validation.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service.journal import scan_session_journal
from repro.service.load import run_query, run_session
from repro.workloads import make_ids

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _spawn(args, *, env=None):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _spawn_daemon(tmp_path, journal, *, crash_after=None, tag="a"):
    port_file = tmp_path / f"svc-{tag}.port"
    env = {}
    if crash_after is not None:
        env["REPRO_SERVICE_CRASH_AFTER"] = crash_after
    daemon = _spawn(
        [
            "serve", "--port", "0", "--port-file", str(port_file),
            "--session-journal", str(journal),
            "--session-deadline", "15", "--idle-timeout", "15",
            "--drain-grace", "20",
        ],
        env=env,
    )
    return daemon, _wait_for_port_file(str(port_file), daemon)


def _wait_for_port_file(path, process, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            out, err = process.communicate()
            raise AssertionError(f"daemon died before binding: {out}\n{err}")
        if os.path.exists(path):
            text = Path(path).read_text().strip()
            if text:
                host, _, port = text.rpartition(":")
                return host, int(port)
        time.sleep(0.05)
    raise AssertionError("daemon never wrote its port file")


def _wait_for_death(process, timeout=30.0):
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        out, err = process.communicate()
        raise AssertionError(
            f"daemon survived its crash hook: {out}\n{err}"
        )
    return process.returncode, out, err


def _terminate(daemon, timeout=30):
    daemon.send_signal(signal.SIGTERM)
    out, err = daemon.communicate(timeout=timeout)
    return daemon.returncode, out, err


def _drive(address, token, *, seed, retries=0):
    host, port = address
    return asyncio.run(
        run_session(
            host, port,
            retries=retries,
            session_id=token,
            ids=make_ids("uniform", 6, seed=seed),
            seed=seed,
            timeout_s=10.0,
        )
    )


class TestCrashRecovery:
    def test_completed_sessions_survive_byte_identical(self, tmp_path):
        journal = tmp_path / "sessions.jsonl"
        daemon, address = _spawn_daemon(
            tmp_path, journal, crash_after="completed:2", tag="crash"
        )
        try:
            first = _drive(address, "r-0", seed=0)
            assert first.status == "completed", first
            # The second session's `completed` record becomes durable and
            # the hook SIGKILLs the daemon before the response frames
            # leave — the client sees a typed transport failure, not a
            # wrong answer.
            second = _drive(address, "r-1", seed=1)
            assert second.status in ("disconnected", "timeout", "refused"), \
                second
            code, _, _ = _wait_for_death(daemon)
            assert code == -signal.SIGKILL
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()

        # The journal survived the kill: both tokens are terminal, r-1's
        # result durable even though no client ever saw it.
        state = scan_session_journal(journal)
        assert state.sessions["r-0"].state == "completed"
        assert state.sessions["r-1"].state == "completed"
        hex_before = {
            token: (record.names_hex, record.certificate_hex)
            for token, record in state.sessions.items()
        }

        daemon, address = _spawn_daemon(tmp_path, journal, tag="recovered")
        try:
            # Same token, same parameters: answered from the journal.
            replayed = _drive(address, "r-0", seed=0)
            assert replayed.status == "completed", replayed
            assert replayed.entries == first.entries
            assert replayed.certificate == first.certificate

            # r-1's client never got its answer; the retry does now.
            recovered = _drive(address, "r-1", seed=1)
            assert recovered.status == "completed", recovered

            # The query path serves the same journaled frames.
            host, port = address
            queried = asyncio.run(run_query(host, port, "r-1"))
            assert queried.status == "completed"
            assert queried.entries == recovered.entries
            assert queried.certificate == recovered.certificate

            code, out, _ = _terminate(daemon)
            assert code == 0
            # The restarted daemon replayed, it did not re-run.
            assert " 0 completed" in out and "2 replayed" in out, out
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()

        # Replay never rewrites history: the stored frame bytes are
        # untouched, so every answer was byte-identical by construction.
        after = scan_session_journal(journal)
        assert {
            token: (record.names_hex, record.certificate_hex)
            for token, record in after.sessions.items()
        } == hex_before
        assert all(r.accepted == 1 for r in after.sessions.values())

    def test_in_flight_session_readmitted_exactly_once(self, tmp_path):
        journal = tmp_path / "sessions.jsonl"
        daemon, address = _spawn_daemon(
            tmp_path, journal, crash_after="accepted:2", tag="crash"
        )
        try:
            done = _drive(address, "a-0", seed=0)
            assert done.status == "completed", done
            # a-1 is admitted (accepted record durable) and the daemon is
            # killed before it finishes.
            interrupted = _drive(address, "a-1", seed=1)
            assert interrupted.status in (
                "disconnected", "timeout", "refused"
            ), interrupted
            code, _, _ = _wait_for_death(daemon)
            assert code == -signal.SIGKILL
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()

        state = scan_session_journal(journal)
        assert state.sessions["a-0"].state == "completed"
        assert state.sessions["a-1"].state == "in-flight"
        assert state.in_flight() == ["a-1"]

        daemon, address = _spawn_daemon(tmp_path, journal, tag="recovered")
        try:
            retried = _drive(address, "a-1", seed=1, retries=3)
            assert retried.status == "completed", retried
            replayed = _drive(address, "a-0", seed=0)
            assert replayed.status == "completed"
            assert replayed.entries == done.entries
            assert replayed.certificate == done.certificate
            code, out, _ = _terminate(daemon)
            assert code == 0
            assert "1 completed" in out and "1 replayed" in out, out
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()

        after = scan_session_journal(journal)
        # Exactly one re-admission for the interrupted token, none for
        # the replayed one.
        assert after.sessions["a-1"].accepted == 2
        assert after.sessions["a-1"].state == "completed"
        assert after.sessions["a-0"].accepted == 1

    def test_concurrent_burst_crash_restart_loses_nothing(self, tmp_path):
        journal = tmp_path / "sessions.jsonl"
        tokens = [f"burst-{i}" for i in range(6)]
        daemon, address = _spawn_daemon(
            tmp_path, journal, crash_after="completed:3", tag="crash"
        )
        pre_crash = {}
        try:
            host, port = address

            async def burst():
                return await asyncio.gather(*(
                    run_session(
                        host, port,
                        ids=make_ids("uniform", 6, seed=i),
                        seed=i,
                        session_id=token,
                        timeout_s=10.0,
                    )
                    for i, token in enumerate(tokens)
                ))

            outcomes = asyncio.run(burst())
            for token, outcome in zip(tokens, outcomes):
                assert outcome.status in (
                    "completed", "disconnected", "timeout", "refused",
                ), (token, outcome)
                if outcome.status == "completed":
                    pre_crash[token] = outcome
            code, _, _ = _wait_for_death(daemon)
            assert code == -signal.SIGKILL
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()

        state = scan_session_journal(journal)
        # Everything a client saw completed is durably completed — zero
        # lost sessions across the kill.
        for token in pre_crash:
            assert state.sessions[token].state == "completed", token

        daemon, address = _spawn_daemon(tmp_path, journal, tag="recovered")
        try:
            for i, token in enumerate(tokens):
                outcome = _drive(address, token, seed=i, retries=3)
                # run_session re-validates every completed assignment
                # through check_renaming — "completed" certifies no
                # duplicate names and preserved order.
                assert outcome.status == "completed", (token, outcome)
                if token in pre_crash:
                    assert outcome.entries == pre_crash[token].entries
                    assert outcome.certificate == pre_crash[token].certificate
            code, _, _ = _terminate(daemon)
            assert code == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()

        after = scan_session_journal(journal)
        for token in tokens:
            record = after.sessions[token]
            assert record.state == "completed", token
            # Pre-crash terminal tokens were replayed (1 admission); the
            # interrupted rest were re-admitted exactly once (2).
            expected = 1 if token in pre_crash else 2
            assert record.accepted <= expected, (token, record.accepted)
