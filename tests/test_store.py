"""Result-store contract suite, exercised identically for every backend.

The lease/terminal/claim *semantics* — lowest-index claims, attempt
counting with exhaustion, first-terminal-wins, ``LeaseLost`` on takeover,
the event taxonomy ``runs doctor --store`` reads — are part of the
:class:`~repro.analysis.store.ResultStore` interface, not of any backend.
Every test here is parametrized over :class:`LocalDirStore` and
:class:`SqliteStore` so a backend cannot drift from the contract.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.analysis.store import (
    Claim,
    LocalDirStore,
    SqliteStore,
    STORE_SCHEMA,
    open_store,
    seal,
    store_doctor,
    unseal,
)
from repro.sim import LeaseLost, StoreError

BACKENDS = ["dir", "sqlite"]


def make_store(kind: str, tmp_path, name: str = "store"):
    if kind == "dir":
        return LocalDirStore(tmp_path / name)
    return SqliteStore(tmp_path / f"{name}.sqlite")


def seeded(kind, tmp_path, cells=4, max_attempts=3, fingerprint="fp-1"):
    store = make_store(kind, tmp_path)
    store.seed(
        kind="sweep",
        run_id="r1",
        fingerprint=fingerprint,
        cells=[{"cell": i} for i in range(cells)],
        max_attempts=max_attempts,
    )
    return store


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestSealUnseal:
    def test_roundtrip(self):
        body = {"a": 1, "b": [2, 3]}
        assert unseal(seal(body, schema=1), schema=1) == body

    def test_defects_are_named(self):
        envelope = seal({"a": 1}, schema=1)
        with pytest.raises(ValueError, match="not an object"):
            unseal([1], schema=1)
        with pytest.raises(ValueError, match="stale schema"):
            unseal(envelope, schema=2)
        tampered = dict(envelope, checksum="0" * 64)
        with pytest.raises(ValueError, match="checksum mismatch"):
            unseal(tampered, schema=1)


class TestLifecycle:
    def test_seed_header_task_roundtrip(self, backend, tmp_path):
        store = seeded(backend, tmp_path)
        header = store.header()
        assert header["kind"] == "sweep"
        assert header["run_id"] == "r1"
        assert header["cells"] == 4
        assert store.cells == 4
        assert store.task(2) == {"cell": 2}
        assert not store.complete

    def test_reseed_same_fingerprint_is_a_resume(self, backend, tmp_path):
        store = seeded(backend, tmp_path)
        claim = store.claim("w1")
        store.finish(claim, {"ok": True})
        store.seed(
            kind="sweep", run_id="r1", fingerprint="fp-1",
            cells=[{"cell": i} for i in range(4)],
        )
        assert store.terminal(claim.cell) is not None

    def test_reseed_other_fingerprint_refuses(self, backend, tmp_path):
        store = seeded(backend, tmp_path)
        with pytest.raises(StoreError, match="different config fingerprint"):
            store.seed(
                kind="sweep", run_id="r2", fingerprint="fp-2",
                cells=[{"cell": 0}],
            )

    def test_unseeded_store_has_no_header_and_no_claims(
        self, backend, tmp_path
    ):
        store = make_store(backend, tmp_path, "empty")
        assert store.header() is None
        if backend == "dir":
            assert store.claim("w1") is None
        with pytest.raises(StoreError, match="not seeded"):
            store.wait_for_header(0.2, poll_s=0.05)


class TestLeases:
    def test_claims_hand_out_lowest_open_cell(self, backend, tmp_path):
        store = seeded(backend, tmp_path)
        first = store.claim("w1")
        second = store.claim("w2")
        assert (first.cell, second.cell) == (0, 1)
        assert first.attempt == 1
        assert first.token != second.token

    def test_all_leased_means_no_claim(self, backend, tmp_path):
        store = seeded(backend, tmp_path, cells=1)
        assert store.claim("w1") is not None
        assert store.claim("w2") is None

    def test_renew_extends_and_survives(self, backend, tmp_path):
        store = seeded(backend, tmp_path)
        claim = store.claim("w1", lease_s=0.25)
        renewed = store.renew(claim, lease_s=60.0)
        assert renewed.expires_at > claim.expires_at
        time.sleep(0.3)
        # The renewed lease is live: nobody can steal the cell.
        other = store.claim("w2", lease_s=0.25)
        assert other is None or other.cell != claim.cell

    def test_expired_lease_is_taken_over_with_attempt_bump(
        self, backend, tmp_path
    ):
        store = seeded(backend, tmp_path, cells=1)
        dead = store.claim("w1", lease_s=0.05)
        time.sleep(0.1)
        takeover = store.claim("w2", lease_s=30.0)
        assert takeover.cell == dead.cell
        assert takeover.attempt == 2
        with pytest.raises(LeaseLost):
            store.renew(dead)
        events = [e["event"] for e in store.events()]
        assert "reclaimed" in events

    def test_reclaim_expired_releases_dead_leases(self, backend, tmp_path):
        store = seeded(backend, tmp_path, cells=2)
        store.claim("w1", lease_s=0.05)
        live = store.claim("w2", lease_s=60.0)
        time.sleep(0.1)
        assert store.reclaim_expired() == [0]
        assert store.counts()["pending"] == 1
        assert store.counts()["leased"] == 1
        assert live.cell == 1

    def test_exhausted_cell_becomes_a_terminal_failure(
        self, backend, tmp_path
    ):
        store = seeded(backend, tmp_path, cells=1, max_attempts=2)
        for _ in range(2):
            assert store.claim("w", lease_s=0.05) is not None
            time.sleep(0.1)
        assert store.claim("w") is None  # exhaustion converts, no new lease
        record = store.terminal(0)
        assert record["state"] == "failed"
        assert "attempts exhausted" in record["reason"]
        assert record["payload"] is None
        events = [e["event"] for e in store.events()]
        assert "exhausted" in events
        assert store.complete


def _claim_frozen_at_publish(root, published, release, tokens) -> None:
    """Claim the only cell, freezing the moment the lease file exists at its
    final path — whichever call puts it there (an exclusive ``os.open`` or
    an ``os.link``) — until the test releases it."""
    lease = os.path.join(root, "leases", "0.json")
    real_open, real_link = os.open, os.link

    def freeze_at(path) -> None:
        if os.fspath(path) == lease:
            published.set()
            release.wait(30)

    def frozen_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        freeze_at(path)
        return fd

    def frozen_link(src, dst, *args, **kwargs):
        real_link(src, dst, *args, **kwargs)
        freeze_at(dst)

    os.open, os.link = frozen_open, frozen_link
    claim = LocalDirStore(root).claim("creator", lease_s=60.0)
    tokens.put(None if claim is None else claim.token)


class TestLeaseCreate:
    def test_peer_never_sees_a_half_created_lease(self, tmp_path):
        # Two processes: the creator stops right after its lease appears;
        # a peer claiming then must see a live lease, not an empty file it
        # would take for a torn (expired) one and take over.
        import multiprocessing

        root = str(tmp_path / "store")
        seeded("dir", tmp_path, cells=1)
        ctx = multiprocessing.get_context("fork")
        published, release, tokens = ctx.Event(), ctx.Event(), ctx.Queue()
        creator = ctx.Process(
            target=_claim_frozen_at_publish,
            args=(root, published, release, tokens),
        )
        creator.start()
        try:
            assert published.wait(30), "the creator never published a lease"
            assert LocalDirStore(root).claim("peer", lease_s=60.0) is None
        finally:
            release.set()
            creator.join(30)
        assert tokens.get(timeout=10) is not None  # the creator's claim holds
        events = [e["event"] for e in LocalDirStore(root).events()]
        assert events.count("claimed") == 1
        assert "reclaimed" not in events
        assert os.listdir(os.path.join(root, "leases")) == ["0.json"]


class TestTerminals:
    def test_finish_roundtrip(self, backend, tmp_path):
        store = seeded(backend, tmp_path)
        claim = store.claim("w1")
        assert store.finish(claim, {"rounds": 7}) is True
        record = store.terminal(claim.cell)
        assert record["state"] == "finished"
        assert record["payload"] == {"rounds": 7}
        assert record["attempt"] == 1
        counts = store.counts()
        assert counts["finished"] == 1 and counts["leased"] == 0

    def test_first_terminal_wins(self, backend, tmp_path):
        store = seeded(backend, tmp_path, cells=1)
        store.write_terminal(0, "finished", {"winner": True})
        assert store.write_terminal(0, "finished", {"winner": False}) is False
        assert store.terminal(0)["payload"] == {"winner": True}
        events = [e["event"] for e in store.events()]
        assert "double-execution" in events

    def test_stale_result_is_refused_with_lease_lost(self, backend, tmp_path):
        store = seeded(backend, tmp_path, cells=1)
        dead = store.claim("w1", lease_s=0.05)
        time.sleep(0.1)
        alive = store.claim("w2", lease_s=30.0)
        with pytest.raises(LeaseLost):
            store.finish(dead, {"from": "the-dead"})
        assert store.terminal(0) is None  # nothing durable from the loser
        assert store.finish(alive, {"from": "the-living"}) is True
        assert store.terminal(0)["payload"] == {"from": "the-living"}
        events = [e["event"] for e in store.events()]
        assert "stale-result" in events

    def test_fail_and_quarantine_record_reasons(self, backend, tmp_path):
        store = seeded(backend, tmp_path)
        first = store.claim("w1")
        store.fail(first, {"failed": True}, reason="crashed")
        second = store.claim("w1")
        store.quarantine(second, {"killed": True}, reason="wall-budget")
        assert store.terminal(first.cell)["reason"] == "crashed"
        assert store.terminal(second.cell)["reason"] == "wall-budget"
        counts = store.counts()
        assert counts["failed"] == 1 and counts["quarantined"] == 1

    def test_torn_terminal_is_dropped_and_reexecutable(
        self, backend, tmp_path
    ):
        store = seeded(backend, tmp_path, cells=1)
        claim = store.claim("w1")
        store.finish(claim, {"ok": True})
        if backend == "dir":
            (store._terminal / "0.json").write_text('{"schema": 1, "tru')
        else:
            store._connection().execute(
                "UPDATE cells SET payload='{\"torn\"' WHERE idx=0"
            )
        assert store.terminal(0) is None
        assert store.claim("w2") is not None  # the cell is open again
        events = [e["event"] for e in store.events()]
        assert "torn-result" in events


class TestMemo:
    def test_roundtrip_and_miss(self, backend, tmp_path):
        store = seeded(backend, tmp_path)
        assert store.load_memo("k1", schema=4) is None
        store.store_memo("k1", {"rounds": 3}, schema=4)
        assert store.load_memo("k1", schema=4) == {"rounds": 3}

    def test_corrupt_memo_raises_for_the_caller_to_log(
        self, backend, tmp_path
    ):
        store = seeded(backend, tmp_path)
        store.store_memo("k1", {"rounds": 3}, schema=4)
        with pytest.raises(ValueError, match="stale schema"):
            store.load_memo("k1", schema=5)

    def test_local_dir_memo_layout_matches_the_prefabric_cache(
        self, tmp_path
    ):
        """Flat-rooted memo files are byte-compatible with the pre-fabric
        ``ResultCache`` format: same envelope keys, same order, same path."""
        store = LocalDirStore(tmp_path / "cache", memo_subdir="")
        store.store_memo("abc", {"rounds": 3}, schema=4)
        raw = json.loads((tmp_path / "cache" / "abc.json").read_text())
        assert list(raw) == ["schema", "checksum", "summary"]
        assert raw["summary"] == {"rounds": 3}


class TestEvents:
    def test_events_since_cursor(self, backend, tmp_path):
        store = seeded(backend, tmp_path)
        store.record_event("claimed", cell=0, worker="w1")
        first, cursor = store.events_since(None)
        assert [e["event"] for e in first] == ["claimed"]
        store.record_event("reclaimed", cell=0, worker="w2")
        second, cursor = store.events_since(cursor)
        assert [e["event"] for e in second] == ["reclaimed"]
        third, _ = store.events_since(cursor)
        assert third == []


class TestOpenStore:
    def test_url_forms(self, tmp_path):
        assert isinstance(open_store(tmp_path / "d"), LocalDirStore)
        assert isinstance(open_store(f"dir:{tmp_path}/d2"), LocalDirStore)
        assert isinstance(
            open_store(f"sqlite:{tmp_path}/s.db"), SqliteStore
        )
        assert isinstance(open_store(str(tmp_path / "s.sqlite")), SqliteStore)
        assert isinstance(open_store(str(tmp_path / "s.db")), SqliteStore)

    def test_reopen_by_url_sees_the_same_store(self, backend, tmp_path):
        store = seeded(backend, tmp_path)
        claim = store.claim("w1")
        store.finish(claim, {"ok": True})
        reopened = open_store(store.url)
        assert reopened.header()["run_id"] == "r1"
        assert reopened.terminal(claim.cell)["payload"] == {"ok": True}

    def test_an_instance_passes_through(self, backend, tmp_path):
        store = seeded(backend, tmp_path)
        assert open_store(store) is store


class TestStoreDoctor:
    def test_healthy_run(self, backend, tmp_path):
        store = seeded(backend, tmp_path, cells=2)
        for _ in range(2):
            claim = store.claim("w1")
            store.finish(claim, {"ok": True})
        report = store_doctor(store)
        assert report["complete"] is True
        assert report["counts"]["finished"] == 2
        assert report["double_executions"] == []
        assert report["expired_leases"] == []
        assert report["reclaims"] == 0

    def test_reclaims_and_double_executions_are_surfaced(
        self, backend, tmp_path
    ):
        store = seeded(backend, tmp_path, cells=2)
        store.claim("w-dead", lease_s=0.05)
        time.sleep(0.1)
        takeover = store.claim("w-live", lease_s=30.0)
        store.finish(takeover, {"ok": True})
        store.write_terminal(0, "finished", {"late": True})
        report = store_doctor(store)
        assert report["reclaims"] == 1
        assert report["reclaimed_cells"] == [0]
        assert report["double_executions"] == [0]

    def test_expired_lease_is_reported(self, backend, tmp_path):
        store = seeded(backend, tmp_path, cells=1)
        store.claim("w-dead", lease_s=0.05)
        time.sleep(0.1)
        report = store_doctor(store)
        assert report["expired_leases"] == [0]


class TestCrashHookParsing:
    def test_bad_spec_is_a_store_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_CRASH_AFTER", "nonsense")
        with pytest.raises(StoreError, match="REPRO_STORE_CRASH_AFTER"):
            LocalDirStore(tmp_path / "s")
