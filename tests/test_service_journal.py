"""The durable session journal and the daemon's idempotency contract.

File-level tests pin the ledger discipline: checksummed records (the
envelope of :mod:`repro.analysis.envelope`), torn-tail truncation,
mid-file corruption as a typed :class:`~repro.sim.errors.JournalError`,
the deterministic SIGKILL hook. Daemon tests run a real :class:`RenamingService` on a
loopback socket and prove the token contract end to end: same token →
byte-identical replay, never a second execution; different parameters
under a reused token → typed config reject; concurrent duplicates →
``duplicate-session``; queries answer from the journal. Crash/restart
with real processes is ``tests/test_service_recovery.py``.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os

import pytest

from repro.analysis import envelope
from repro.service.frames import decode_frame, read_frame, write_frame
from repro.service.journal import (
    SESSION_JOURNAL_KIND,
    SessionJournal,
    request_fingerprint,
    scan_session_journal,
)
from repro.service.load import run_load, run_query, run_session
from repro.service.messages import (
    ERROR_CODES,
    SESSION_STATES,
    CertificateMessage,
    NamesAssignedMessage,
    OpenSessionMessage,
    QueryRequestMessage,
    QueryResponseMessage,
    SessionErrorMessage,
    SessionWelcomeMessage,
)
from repro.service.server import RenamingService
from repro.sim.errors import JournalError
from repro.workloads import make_ids


# ---------------------------------------------------------------------- #
# the ledger file                                                        #
# ---------------------------------------------------------------------- #


class TestSessionJournalFile:
    def test_roundtrip_and_reopen(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        with SessionJournal.open_or_create(path) as journal:
            journal.accepted("tok-1", "fp-1", {"algorithm": "auto"})
            journal.completed(
                "tok-1", "fp-1", names_hex="aa", certificate_hex="bb", ok=True
            )
            journal.accepted("tok-2", "fp-2", {"algorithm": "alg1"})
        state = scan_session_journal(path)
        assert state.header == {"kind": SESSION_JOURNAL_KIND}
        assert not state.torn
        done = state.sessions["tok-1"]
        assert done.state == "completed"
        assert done.names_hex == "aa" and done.certificate_hex == "bb"
        assert done.ok and done.accepted == 1
        assert state.in_flight() == ["tok-2"]
        # Reopen replays the same state and appends continue the sequence.
        with SessionJournal.open_or_create(path) as journal:
            assert journal.lookup("tok-1").state == "completed"
            journal.failed("tok-2", "fp-2", code="config", detail="boom")
        assert scan_session_journal(path).sessions["tok-2"].state == "failed"

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        with SessionJournal.open_or_create(path) as journal:
            journal.accepted("tok", "fp", {})
        good = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"v":1,"seq":2,"type":"comp')  # crash mid-append
        state = scan_session_journal(path)
        assert state.torn and state.good_bytes == good
        assert state.sessions["tok"].state == "in-flight"
        # open_or_create repairs the file in place.
        SessionJournal.open_or_create(path).close()
        assert path.stat().st_size == good
        assert not scan_session_journal(path).torn

    def test_mid_file_corruption_is_a_typed_error(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        with SessionJournal.open_or_create(path) as journal:
            journal.accepted("tok", "fp", {})
            journal.completed(
                "tok", "fp", names_hex="aa", certificate_hex="bb", ok=True
            )
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"accepted"', b'"acXepted"')
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalError):
            scan_session_journal(path)

    def test_sequence_gap_is_a_typed_error(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        with SessionJournal.open_or_create(path) as journal:
            journal.accepted("tok", "fp", {})
            journal.accepted("tok2", "fp2", {})
        lines = path.read_bytes().split(b"\n")
        del lines[1]  # a whole record vanished: not a torn tail, corruption
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalError, match="sequence gap"):
            scan_session_journal(path)

    def test_run_journal_is_rejected_by_kind(self, tmp_path):
        # A well-formed, correctly checksummed header of a foreign kind
        # (a sweep run), written by hand.
        path = tmp_path / "run.jsonl"
        path.write_bytes(
            b'{"crc":"c18fa3807c07a7d9f6b35bf77413789132550d3e0f147d46a238b2'
            b'2e99baceb8","data":{"cells":1,"config":{},"fingerprint":"f",'
            b'"kind":"sweep","run_id":"r"},"seq":0,"type":"header","v":1}\n'
        )
        with pytest.raises(JournalError, match="not a session journal"):
            scan_session_journal(path)

    def test_terminal_record_first_wins(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        with SessionJournal.open_or_create(path) as journal:
            journal.accepted("tok", "fp", {})
            journal.completed(
                "tok", "fp", names_hex="aa", certificate_hex="bb", ok=True
            )
            journal.failed("tok", "fp", code="config", detail="late")
        record = scan_session_journal(path).sessions["tok"]
        assert record.state == "completed" and record.names_hex == "aa"

    def test_crash_hook_fires_on_nth_record(self, tmp_path, monkeypatch):
        import repro.service.journal as journal_module

        kills = []
        monkeypatch.setenv("REPRO_SERVICE_CRASH_AFTER", "accepted:2")
        monkeypatch.setattr(
            journal_module.os, "kill", lambda pid, sig: kills.append((pid, sig))
        )
        with SessionJournal.open_or_create(tmp_path / "s.jsonl") as journal:
            journal.accepted("a", "fp", {})
            assert not kills  # first accepted: under the threshold
            journal.accepted("b", "fp", {})
            assert len(kills) == 1  # the record was durable before the kill

    @staticmethod
    def _fail_fsync(monkeypatch, times):
        real, left = os.fsync, [times]

        def fsync(fd):
            if left[0]:
                left[0] -= 1
                raise OSError(errno.EIO, "injected fsync failure")
            real(fd)

        monkeypatch.setattr(envelope.os, "fsync", fsync)

    def test_failed_append_leaves_file_and_state_as_they_were(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "s.jsonl"
        journal = SessionJournal.open_or_create(path)
        journal.accepted("tok-a", "fp", {})
        intact = path.read_bytes()
        self._fail_fsync(monkeypatch, times=1)
        with pytest.raises(OSError, match="injected"):
            journal.accepted("tok-b", "fp", {})
        assert path.read_bytes() == intact
        assert journal.lookup("tok-b") is None
        journal.accepted("tok-c", "fp", {})
        reopened = SessionJournal.open_or_create(path).state
        assert list(reopened.sessions) == ["tok-a", "tok-c"]
        seqs = [json.loads(line)["seq"] for line in path.read_bytes().splitlines()]
        assert seqs == [0, 1, 2]

    def test_failed_rollback_refuses_later_appends(self, tmp_path, monkeypatch):
        path = tmp_path / "s.jsonl"
        journal = SessionJournal.open_or_create(path)
        journal.accepted("tok-a", "fp", {})
        intact = path.read_bytes()
        self._fail_fsync(monkeypatch, times=2)  # the append and its rollback
        with pytest.raises(OSError, match="injected"):
            journal.accepted("tok-b", "fp", {})
        with pytest.raises(JournalError, match="could not be rolled back"):
            journal.accepted("tok-c", "fp", {})
        assert path.read_bytes() == intact
        assert list(SessionJournal.open_or_create(path).state.sessions) == [
            "tok-a"
        ]

    def test_fingerprint_pins_the_whole_request(self):
        base = {"session_id": "t", "algorithm": "auto", "t": 1,
                "attack": "silent", "seed": 0, "ids": [3, 7]}
        assert request_fingerprint(base) == request_fingerprint(dict(base))
        for key, value in (("seed", 1), ("ids", [3, 8]), ("algorithm", "alg1")):
            assert request_fingerprint({**base, key: value}) != \
                request_fingerprint(base)


# ---------------------------------------------------------------------- #
# the daemon's idempotency contract (in-process, real sockets)           #
# ---------------------------------------------------------------------- #


def _service(journal=None, **kwargs):
    kwargs.setdefault("max_sessions", 8)
    kwargs.setdefault("session_deadline_s", 5.0)
    kwargs.setdefault("idle_timeout_s", 2.0)
    kwargs.setdefault("drain_grace_s", 1.0)
    return RenamingService(
        install_signal_handlers=False, journal=journal, **kwargs
    )


async def _with_service(body, journal=None, **kwargs):
    svc = _service(journal=journal, **kwargs)
    await svc.start()
    runner = asyncio.create_task(svc.serve_forever())
    try:
        return await body(svc)
    finally:
        if not runner.done():
            svc.initiate_drain()
            svc.initiate_drain()
        await runner


def _drive(svc, *, session_id, seed=1, algorithm="auto", t=0, n=6):
    host, port = svc.bound_address
    return run_session(
        host, port, ids=make_ids("uniform", n, seed=seed),
        algorithm=algorithm, t=t, seed=seed, session_id=session_id,
    )


class TestTokenedSessions:
    def test_completed_session_is_journaled(self, tmp_path):
        journal = SessionJournal.open_or_create(tmp_path / "s.jsonl")

        async def body(svc):
            outcome = await _drive(svc, session_id="tok-1")
            assert outcome.status == "completed", outcome
            return outcome

        asyncio.run(_with_service(body, journal=journal))
        record = scan_session_journal(tmp_path / "s.jsonl").sessions["tok-1"]
        assert record.state == "completed" and record.ok
        assert record.accepted == 1
        assert record.request["ids"] == sorted(make_ids("uniform", 6, seed=1))

    def test_repeat_submission_replays_byte_identical(self, tmp_path):
        journal = SessionJournal.open_or_create(tmp_path / "s.jsonl")

        async def body(svc):
            first = await _drive(svc, session_id="tok-1")
            again = await _drive(svc, session_id="tok-1")
            assert first.status == again.status == "completed"
            assert again.entries == first.entries
            assert again.certificate == first.certificate
            assert svc.stats.replayed == 1
            assert svc.stats.completed == 1  # executed exactly once

        asyncio.run(_with_service(body, journal=journal))

    def test_restarted_daemon_replays_without_rerunning(self, tmp_path):
        path = tmp_path / "s.jsonl"

        async def first_life(svc):
            outcome = await _drive(svc, session_id="tok-1")
            assert outcome.status == "completed"
            return outcome

        first = asyncio.run(
            _with_service(first_life, journal=SessionJournal.open_or_create(path))
        )

        async def second_life(svc):
            again = await _drive(svc, session_id="tok-1")
            assert again.status == "completed"
            assert again.entries == first.entries
            assert again.certificate == first.certificate
            assert svc.stats.completed == 0  # never re-ran
            assert svc.stats.replayed == 1

        asyncio.run(
            _with_service(second_life, journal=SessionJournal.open_or_create(path))
        )

    def test_reused_token_with_different_request_is_rejected(self, tmp_path):
        journal = SessionJournal.open_or_create(tmp_path / "s.jsonl")

        async def body(svc):
            assert (await _drive(svc, session_id="tok-1", seed=1)).status == \
                "completed"
            clash = await _drive(svc, session_id="tok-1", seed=2)
            assert clash.status == "rejected" and clash.code == "config"
            assert "different parameters" in clash.detail

        asyncio.run(_with_service(body, journal=journal))

    def test_token_without_journal_is_a_config_reject(self):
        async def body(svc):
            outcome = await _drive(svc, session_id="tok-1")
            assert outcome.status == "rejected" and outcome.code == "config"
            assert "--session-journal" in outcome.detail

        asyncio.run(_with_service(body))

    def test_deterministic_failure_is_journaled_and_replayed(self, tmp_path):
        journal = SessionJournal.open_or_create(tmp_path / "s.jsonl")

        async def body(svc):
            bad = await _drive(svc, session_id="tok-bad", algorithm="nope")
            assert bad.status == "rejected" and bad.code == "config"
            again = await _drive(svc, session_id="tok-bad", algorithm="nope")
            assert again.status == "rejected" and again.code == "config"
            assert again.detail == bad.detail
            assert svc.stats.replayed == 1

        asyncio.run(_with_service(body, journal=journal))
        record = scan_session_journal(tmp_path / "s.jsonl").sessions["tok-bad"]
        assert record.state == "failed" and record.code == "config"

    def test_concurrent_duplicate_token_is_typed(self, tmp_path, monkeypatch):
        import repro.service.session as session_module

        journal = SessionJournal.open_or_create(tmp_path / "s.jsonl")
        release = tmp_path / "release"
        real_execute = session_module.execute_session

        def slow_execute(request):
            import time

            # Runs in a worker process: released through the file system.
            while not release.exists():  # released from the event loop
                time.sleep(0.01)
            return real_execute(request)

        monkeypatch.setattr(session_module, "execute_session", slow_execute)

        async def body(svc):
            first = asyncio.create_task(_drive(svc, session_id="tok-1"))
            # Wait until the token is actively executing, then collide.
            while "tok-1" not in svc._active_tokens:
                await asyncio.sleep(0.01)
            clash = await _drive(svc, session_id="tok-1")
            assert clash.status == "rejected"
            assert clash.code == "duplicate-session"
            assert clash.code in ERROR_CODES
            release.touch()
            outcome = await first
            assert outcome.status == "completed"

        asyncio.run(_with_service(body, journal=journal, session_deadline_s=30.0))

    def test_anonymous_sessions_stay_out_of_the_journal(self, tmp_path):
        journal = SessionJournal.open_or_create(tmp_path / "s.jsonl")

        async def body(svc):
            assert (await _drive(svc, session_id="")).status == "completed"

        asyncio.run(_with_service(body, journal=journal))
        assert scan_session_journal(tmp_path / "s.jsonl").sessions == {}


class TestQueries:
    def test_states_cover_the_contract(self, tmp_path):
        journal = SessionJournal.open_or_create(tmp_path / "s.jsonl")

        async def body(svc):
            host, port = svc.bound_address
            unknown = await run_query(host, port, "never-seen")
            assert unknown.status == "unknown"
            done = await _drive(svc, session_id="tok-ok")
            assert done.status == "completed"
            queried = await run_query(host, port, "tok-ok")
            assert queried.status == "completed"
            assert queried.entries == done.entries
            assert queried.certificate == done.certificate
            bad = await _drive(svc, session_id="tok-bad", algorithm="nope")
            assert bad.status == "rejected"
            failed = await run_query(host, port, "tok-bad")
            assert failed.status == "failed" and failed.code == "config"
            assert {"unknown", "completed", "failed"} <= set(SESSION_STATES)
            assert svc.stats.queries == 3

        asyncio.run(_with_service(body, journal=journal))

    def test_in_flight_token_reports_in_flight(self, tmp_path, monkeypatch):
        import repro.service.session as session_module

        journal = SessionJournal.open_or_create(tmp_path / "s.jsonl")
        real_execute = session_module.execute_session
        release = tmp_path / "release"

        def slow_execute(request):
            import time

            # Runs in a worker process: released through the file system.
            while not release.exists():
                time.sleep(0.01)
            return real_execute(request)

        monkeypatch.setattr(session_module, "execute_session", slow_execute)

        async def body(svc):
            host, port = svc.bound_address
            running = asyncio.create_task(_drive(svc, session_id="tok-1"))
            while "tok-1" not in svc._active_tokens:
                await asyncio.sleep(0.01)
            queried = await run_query(host, port, "tok-1")
            assert queried.status == "in-flight"
            release.touch()
            assert (await running).status == "completed"

        asyncio.run(_with_service(body, journal=journal, session_deadline_s=30.0))

    def test_query_without_journal_is_a_config_reject(self):
        async def body(svc):
            host, port = svc.bound_address
            outcome = await run_query(host, port, "tok")
            assert outcome.status == "rejected" and outcome.code == "config"

        asyncio.run(_with_service(body))

    def test_query_inside_an_open_session_is_a_protocol_error(self, tmp_path):
        journal = SessionJournal.open_or_create(tmp_path / "s.jsonl")

        async def body(svc):
            host, port = svc.bound_address
            reader, writer = await asyncio.open_connection(host, port)
            greeting = await asyncio.wait_for(read_frame(reader), 5.0)
            assert isinstance(greeting, SessionWelcomeMessage)
            await write_frame(writer, OpenSessionMessage())
            await write_frame(writer, QueryRequestMessage(session_id="tok"))
            error = await asyncio.wait_for(read_frame(reader), 5.0)
            assert isinstance(error, SessionErrorMessage)
            assert error.code == "protocol"
            writer.close()
            await writer.wait_closed()

        asyncio.run(_with_service(body, journal=journal))


class TestLoadBusyBudget:
    def test_busy_retries_are_counted_separately(self, tmp_path):
        # max_sessions=0 refuses every connect: with a budget of B busy
        # retries per session, the report shows exactly sessions × B busy
        # retries and every final outcome is "busy" — backpressure was
        # absorbed and reported, never folded into the error counts.
        async def body(svc):
            host, port = svc.bound_address
            report = await run_load(
                host, port, sessions=3, concurrency=3, ids_per_session=4,
                busy_retries=2,
            )
            assert report.counts == {"busy": 3}
            assert report.busy_retries == 6
            assert report.transport_retries == 0
            assert "busy retries" in report.as_text()

        asyncio.run(_with_service(body, max_sessions=0))

    def test_journaled_frames_decode_as_wire_frames(self, tmp_path):
        # The journal stores the *encoded frames*; an offline reader (the
        # `sessions show` command) must get the identical messages back.
        journal = SessionJournal.open_or_create(tmp_path / "s.jsonl")

        async def body(svc):
            outcome = await _drive(svc, session_id="tok-1")
            assert outcome.status == "completed"
            return outcome

        outcome = asyncio.run(_with_service(body, journal=journal))
        record = scan_session_journal(tmp_path / "s.jsonl").sessions["tok-1"]
        names = decode_frame(bytes.fromhex(record.names_hex))
        certificate = decode_frame(bytes.fromhex(record.certificate_hex))
        assert isinstance(names, NamesAssignedMessage)
        assert isinstance(certificate, CertificateMessage)
        assert names.entries == outcome.entries
        assert certificate == outcome.certificate
