"""The checksummed envelope's on-disk bytes are a compatibility contract.

Each fixture below is a literal byte string written by an earlier release
(before :mod:`repro.analysis.envelope` existed): a service session-journal
ledger, a ``LocalDirStore`` run (header, task list, terminal record) and a
``ResultCache`` memo entry. Today's readers must accept them unchanged, and
today's writers must reproduce them byte for byte — so existing journals,
stores and caches keep verifying across releases.

One fixture is refused on purpose: a chaos run stored before campaign
cells became :class:`~repro.analysis.executor.RunTask` cells. Its envelope
still verifies, but its flat cell shape is an error naming the cell
(``StoreError``, exit 3), never a raw ``TypeError``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import ResultCache, RunTask
from repro.analysis.envelope import checksum, record_checksum, seal, unseal
from repro.analysis.store import LocalDirStore
from repro.cli import EXIT_INFRA, main
from repro.sim import StoreError
from repro.service.journal import SessionJournal, scan_session_journal

FINGERPRINT = "ab" * 32

SESSION_LINES = (
    b'{"crc":"190c873ccfd6a9bc37af90194e91256daf5677935a8ea473cd122c0609fa'
    b'827f","data":{"kind":"service-sessions"},"seq":0,"type":"header",'
    b'"v":1}\n'
    b'{"crc":"c112a49cd9aa3192a216e12c74ed423ed9485ce8952b5ff415bb2b6305da'
    b'e4f9","data":{"fingerprint":"' + FINGERPRINT.encode() + b'","request"'
    b':{"ids":[3,9,27,81],"n":4,"t":1},"session_id":"tok-1"},"seq":1,'
    b'"type":"accepted","v":1}\n'
    b'{"crc":"5b39b4ed7067656525b178cdde156b05a7981db92fa56efc3051a87c9082'
    b'28c2","data":{"code":"config","detail":"N must exceed 3t",'
    b'"fingerprint":"' + FINGERPRINT.encode() + b'","session_id":"tok-1",'
    b'"trace_pointer":-1},"seq":2,"type":"failed","v":1}\n'
)

STORE_HEADER = (
    b'{"schema": 1, "checksum": "0d91d07ace2ab46c3aed97d034924125e850a3e2c8'
    b'6f9484825bd6fea9e6d8c3", "body": {"schema": 1, "kind": "sweep", '
    b'"run_id": "r", "fingerprint": "' + b"f" * 64 + b'", "cells": 1, '
    b'"config": null, "max_attempts": 3}}'
)
STORE_TASKS = (
    b'{"schema": 1, "checksum": "9887c48e588458b08b83c147d99347e894b552a315'
    b'8f5eb4bd2dea7853f933a8", "body": {"tasks": [{"a": 1}]}}'
)
STORE_TERMINAL = (
    b'{"schema": 1, "checksum": "358bfd11d277fd7492b4acbdf85df996c1f00324a5'
    b'5c67fbf42cb0445bf57030", "body": {"state": "failed", "reason": '
    b'"crashed", "payload": {"status": "crashed", "error": "RuntimeError: '
    b'boom"}, "attempt": 2}}'
)

FLAT_CHAOS_HEADER = (
    b'{"schema": 1, "checksum": "ea14503f65affe21016d9523adf61ce5017e5e7250'
    b'b16ca6ebcbc8699ee1fb0d", "body": {"schema": 1, "kind": "chaos", '
    b'"run_id": "old-chaos", "fingerprint": "8d5db5d0e408a3596b249974ab5595'
    b'4e967f4a4cef937206239566668b6fa2bf", "cells": 1, "config": '
    b'{"timeout_s": 120.0, "budget": {"wall_s": 120.0, "rss_mb": null}}, '
    b'"max_attempts": 3}}'
)
FLAT_CHAOS_TASKS = (
    b'{"schema": 1, "checksum": "c737ec1659010fa653237cddeb15a84b2772015be4'
    b'293e1430072f89cacb4598", "body": {"tasks": [{"algorithm": "alg1", '
    b'"n": 7, "t": 2, "attack": "silent", "seed": 0, "engine": "batched", '
    b'"workload": "uniform", "max_rounds": 64, "monitor": true, '
    b'"enforce_regime": true, "chaos_seed": 0, "drop": 0.2, "duplicate": '
    b'0.0, "corrupt": 0.0, "extra_crashes": 0, "crash_round": 1}]}}'
)

MEMO_ENTRY = (
    b'{"schema": 5, "checksum": "0fe5cf55205b36d8d2fb32e9a7c3b604d9f13b918e'
    b'68546640d923e41d576d54", "summary": {"rounds": 3, "names": {"7": 1}}}'
)
MEMO_BODY = {"rounds": 3, "names": {"7": 1}}


class TestSessionJournalLine:
    def test_reads_earlier_bytes(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        path.write_bytes(SESSION_LINES)
        state = scan_session_journal(path)
        assert state.records == 3 and not state.torn
        record = state.sessions["tok-1"]
        assert (record.state, record.code, record.detail) == (
            "failed", "config", "N must exceed 3t"
        )
        assert record.request == {"ids": [3, 9, 27, 81], "n": 4, "t": 1}

    def test_writes_the_same_bytes(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        journal = SessionJournal.open_or_create(path)
        journal.accepted(
            "tok-1", FINGERPRINT, {"n": 4, "t": 1, "ids": [3, 9, 27, 81]}
        )
        journal.failed(
            "tok-1", FINGERPRINT, code="config", detail="N must exceed 3t"
        )
        journal.close()
        assert path.read_bytes() == SESSION_LINES

    def test_crc_is_the_record_checksum(self):
        first = json.loads(SESSION_LINES.split(b"\n")[0])
        assert first["crc"] == record_checksum(
            first["v"], first["seq"], first["type"], first["data"]
        )


class TestLocalDirStoreTerminal:
    def _earlier_store(self, tmp_path) -> LocalDirStore:
        root = tmp_path / "run"
        (root / "terminal").mkdir(parents=True)
        (root / "header.json").write_bytes(STORE_HEADER)
        (root / "tasks.json").write_bytes(STORE_TASKS)
        (root / "terminal" / "0.json").write_bytes(STORE_TERMINAL)
        return LocalDirStore(root)

    def test_reads_earlier_bytes(self, tmp_path):
        store = self._earlier_store(tmp_path)
        assert store.header()["run_id"] == "r"
        assert store.task(0) == {"a": 1}
        record = store.terminal(0)
        assert (record["state"], record["reason"], record["attempt"]) == (
            "failed", "crashed", 2
        )
        assert record["payload"]["error"] == "RuntimeError: boom"
        assert store.complete

    def test_writes_the_same_bytes(self, tmp_path):
        store = LocalDirStore(tmp_path / "run")
        store.seed(kind="sweep", run_id="r", fingerprint="f" * 64,
                   cells=[{"a": 1}])
        store.write_terminal(
            0, "failed", {"status": "crashed", "error": "RuntimeError: boom"},
            reason="crashed", attempt=2,
        )
        root = tmp_path / "run"
        assert (root / "header.json").read_bytes() == STORE_HEADER
        assert (root / "tasks.json").read_bytes() == STORE_TASKS
        assert (root / "terminal" / "0.json").read_bytes() == STORE_TERMINAL

    def test_checksum_is_over_the_canonical_body(self):
        payload = json.loads(STORE_TERMINAL)
        assert payload["checksum"] == checksum(payload["body"])
        assert unseal(payload, schema=1) == payload["body"]


class TestFlatChaosStore:
    """``chaos --drop 0.2 --no-clean --journal DIR --run-id old-chaos``,
    as stored before campaign cells became ``RunTask`` cells."""

    def _flat_store(self, tmp_path) -> LocalDirStore:
        root = tmp_path / "old-chaos"
        (root / "leases").mkdir(parents=True)
        (root / "terminal").mkdir()
        (root / "header.json").write_bytes(FLAT_CHAOS_HEADER)
        (root / "tasks.json").write_bytes(FLAT_CHAOS_TASKS)
        return LocalDirStore(root)

    def test_envelope_still_verifies(self, tmp_path):
        store = self._flat_store(tmp_path)
        assert store.header()["kind"] == "chaos"
        assert store.task(0)["chaos_seed"] == 0

    def test_cell_decode_is_a_store_error(self, tmp_path):
        cell = self._flat_store(tmp_path).task(0)
        with pytest.raises(StoreError, match="another release") as info:
            RunTask.from_dict(cell)
        assert "enforce_regime" in str(info.value)
        assert '"chaos_seed": 0' in str(info.value)

    def test_runs_resume_refuses_it(self, tmp_path, capsys):
        self._flat_store(tmp_path)
        code = main([
            "runs", "resume", "old-chaos", "--runs-dir", str(tmp_path),
            "--workers", "1",
        ])
        assert code == EXIT_INFRA
        assert "may come from another release" in capsys.readouterr().err

    def test_worker_refuses_it(self, tmp_path, capsys):
        store = self._flat_store(tmp_path)
        code = main(["worker", "--store", f"dir:{store.root}"])
        assert code == EXIT_INFRA
        assert "may come from another release" in capsys.readouterr().err


class TestMemoEntry:
    def test_local_dir_reads_and_writes_the_same_bytes(self, tmp_path):
        assert ResultCache.SCHEMA == 5  # the fixture's schema
        earlier = ResultCache(tmp_path / "a")
        (tmp_path / "a" / "k.json").write_bytes(MEMO_ENTRY)
        assert earlier.load_memo("k") == MEMO_BODY

        fresh = ResultCache(tmp_path / "b")
        fresh.store_memo("k", MEMO_BODY)
        assert (tmp_path / "b" / "k.json").read_bytes() == MEMO_ENTRY

    def test_seal_reproduces_the_entry(self):
        assert json.dumps(
            seal(MEMO_BODY, schema=5, body_key="summary")
        ).encode() == MEMO_ENTRY
