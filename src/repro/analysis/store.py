"""Pluggable result stores: the one durable substrate for sweeps and campaigns.

A :class:`ResultStore` is the *only* thing a coordinator and its workers
share. The coordinator seeds the store with the fingerprinted cell list;
any number of workers — in-process in the coordinator, subprocesses on the
same box, or processes on another machine with the store on shared
storage — pull cells through **leases** and push back checksummed terminal
records. Every durable run (``--store URL``, and ``--journal DIR``, which
is ``--store DIR/<run-id>``) lives in one. The store owns:

* **The header** — run kind (``sweep``/``chaos``), run id, the config
  fingerprint (SHA-256 over the expanded cell list,
  :func:`~repro.analysis.envelope.config_fingerprint`), the knobs
  ``runs resume`` needs (cache, budget, timeout) and the full task list.
  :meth:`ResultStore.seed` is idempotent: re-seeding an existing store
  verifies the fingerprint and becomes a resume; a mismatch raises
  :class:`~repro.sim.errors.StoreError` instead of splicing two runs.
* **Leases with heartbeat expiry.** :meth:`ResultStore.claim` hands out
  the lowest-indexed open cell together with a fresh random token and an
  expiry timestamp; :meth:`ResultStore.renew` pushes the expiry forward
  while the cell executes. A worker that dies stops renewing; once the
  lease expires any peer's ``claim`` (or the coordinator's
  :meth:`ResultStore.reclaim_expired`) takes the cell over with the
  attempt counter bumped. A cell whose lease expires ``max_attempts``
  times is recorded as a terminal failure — a poisoned cell must not
  wedge the fabric. Renewing or finishing through a lost lease raises
  :class:`~repro.sim.errors.LeaseLost`.
* **Terminal records** — ``finished`` / ``failed`` / ``quarantined``
  payloads in checksummed envelopes (:func:`~repro.analysis.envelope.seal`),
  written durably (fsync before the write is acknowledged). The first
  durable terminal record for a cell wins; a late result from a
  taken-over worker is refused and logged as a ``double-execution``
  event, never silently merged.
* **Memo entries** — the content-addressed summary cache.
  :class:`~repro.analysis.executor.ResultCache` delegates its storage
  here (``LocalDirStore`` with a flat memo root keeps the on-disk format
  byte-identical to the pre-fabric cache).
* **An event log** for ``runs doctor``: claims, reclaims, claim races,
  double executions, stale results and drained interruptions, so the
  fabric's exactly-once discipline is assertable after the fact, not just
  hoped for.

Two backends ship: :class:`LocalDirStore` (one directory; leases are
hard-linked into place whole, terminals are atomic-replace JSON files —
works on any shared filesystem with hard links) and :class:`SqliteStore` (one stdlib sqlite3
database in WAL mode with ``BEGIN IMMEDIATE`` claim transactions — a
single file, safe for many processes on one host or one network
filesystem with real locking). :func:`open_store` maps store URLs
(``sqlite:PATH`` or a plain directory path) onto them.

Test hook: ``REPRO_STORE_CRASH_AFTER=<op>:<count>`` SIGKILLs the process
immediately after the ``count``-th *durable* store operation of kind
``op`` (``claim`` or ``finish``) performed by this process — the
deterministic mid-flight death the kill/resume suite, the lease-reclaim
suite and ``make resume-smoke`` rely on.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..sim.errors import LeaseLost, StoreError
from .envelope import atomic_write_text, canonical, seal, unseal

__all__ = [
    "Claim",
    "DEFAULT_LEASE_S",
    "DEFAULT_MAX_ATTEMPTS",
    "LocalDirStore",
    "ResultStore",
    "STORE_CRASH_HOOK_ENV",
    "SqliteStore",
    "open_store",
    "store_doctor",
]

#: Store layout version; bumped when envelope or lease formats change.
STORE_SCHEMA = 1

#: Default lease duration. Workers renew at a third of this, so a healthy
#: worker never comes close to expiry; a dead one is reclaimed within one
#: lease window.
DEFAULT_LEASE_S = 30.0

#: How many times a cell's lease may expire before the cell is recorded as
#: a terminal failure (the fabric's analogue of "budget kills are never
#: retried forever").
DEFAULT_MAX_ATTEMPTS = 3

#: Environment variable for the deterministic crash hook (tests/CI only).
STORE_CRASH_HOOK_ENV = "REPRO_STORE_CRASH_AFTER"

#: Terminal cell states.
TERMINAL_STATES = ("finished", "failed", "quarantined")


@dataclass(frozen=True)
class Claim:
    """A worker's lease on one cell: execute it, renew it, finish it."""

    cell: int
    task: dict
    attempt: int
    worker: str
    token: str
    expires_at: float


def _parse_crash_hook() -> Optional[Tuple[str, int]]:
    spec = os.environ.get(STORE_CRASH_HOOK_ENV)
    if not spec:
        return None
    try:
        op, count = spec.split(":")
        return op, int(count)
    except ValueError:
        raise StoreError(
            f"bad {STORE_CRASH_HOOK_ENV}={spec!r} (expected '<op>:<count>')"
        ) from None


class ResultStore:
    """Backend interface; see the module docstring for the contract.

    Subclasses implement the storage primitives; the lease/terminal/claim
    *semantics* (attempt counting, exhaustion, first-terminal-wins,
    event taxonomy) are part of this interface's contract and are
    exercised identically for every backend by ``tests/test_store.py``.
    """

    #: A reconstructible address for this store (``sqlite:path`` or a
    #: directory path) — what the coordinator hands to subprocess workers.
    url: str = ""

    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __init__(self) -> None:
        self._crash_hook = _parse_crash_hook()
        self._crash_counts: Dict[str, int] = {}

    # ----------------------------------------------------------- lifecycle

    def seed(
        self,
        *,
        kind: str,
        run_id: str,
        fingerprint: str,
        cells: List[dict],
        config: Optional[dict] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        """Publish the run into the store (idempotent).

        A fresh store records the header and the full task list. An
        already-seeded store verifies the fingerprint — matching means
        "resume: keep every terminal record", anything else raises
        :class:`~repro.sim.errors.StoreError`.
        """
        raise NotImplementedError

    def header(self) -> Optional[dict]:
        """The seeded run header, or ``None`` before :meth:`seed`."""
        raise NotImplementedError

    def wait_for_header(self, timeout_s: float, poll_s: float = 0.1) -> dict:
        """Block until the store is seeded (workers may start first)."""
        deadline = time.monotonic() + timeout_s
        while True:
            header = self.header()
            if header is not None:
                return header
            if time.monotonic() >= deadline:
                raise StoreError(
                    f"store {self.url or '?'} not seeded within "
                    f"{timeout_s:g}s — is the coordinator running?"
                )
            time.sleep(poll_s)

    def task(self, cell: int) -> dict:
        """The task dict seeded for ``cell``."""
        raise NotImplementedError

    @property
    def cells(self) -> int:
        header = self.header()
        return int(header["cells"]) if header else 0

    # -------------------------------------------------------------- leases

    def claim(
        self, worker: str, lease_s: float = DEFAULT_LEASE_S
    ) -> Optional[Claim]:
        """Lease the lowest-indexed open cell, or ``None`` if none is
        claimable right now (all cells terminal or under live leases).

        An *expired* lease is taken over here (attempt + 1, ``reclaimed``
        event); an expired lease already at ``max_attempts`` is converted
        to a terminal ``failed`` record instead (``exhausted`` event).
        """
        raise NotImplementedError

    def renew(self, claim: Claim, lease_s: float = DEFAULT_LEASE_S) -> Claim:
        """Push ``claim``'s expiry forward; raises
        :class:`~repro.sim.errors.LeaseLost` if the lease was taken over."""
        raise NotImplementedError

    # ----------------------------------------------------------- terminals

    def finish(self, claim: Claim, payload: dict) -> bool:
        """Record ``claim``'s cell as finished; first terminal wins.

        Returns ``True`` when this call wrote the terminal record,
        ``False`` when the cell already had one (recorded as a
        ``double-execution`` event — the caller's result is discarded).
        Raises :class:`~repro.sim.errors.LeaseLost` when the lease token
        is no longer ours (recorded as a ``stale-result`` event).
        """
        return self._terminal_from_claim(claim, "finished", payload, None)

    def fail(
        self, claim: Claim, payload: Optional[dict], *, reason: str = "crashed"
    ) -> bool:
        """Record a deterministic failure row (retry already exhausted)."""
        return self._terminal_from_claim(claim, "failed", payload, reason)

    def quarantine(
        self, claim: Claim, payload: Optional[dict], *, reason: str
    ) -> bool:
        """Record a budget kill / hang: triaged first by the doctor."""
        return self._terminal_from_claim(claim, "quarantined", payload, reason)

    def _terminal_from_claim(
        self, claim: Claim, state: str, payload: Optional[dict],
        reason: Optional[str],
    ) -> bool:
        raise NotImplementedError

    def write_terminal(
        self, cell: int, state: str, payload: Optional[dict],
        *, reason: Optional[str] = None, attempt: int = 0,
    ) -> bool:
        """Coordinator-side terminal write (cache prefill, exhaustion) —
        no lease involved. First terminal still wins."""
        raise NotImplementedError

    def terminal(self, cell: int) -> Optional[dict]:
        """``{"state", "reason", "payload", "attempt"}`` or ``None``.

        A present-but-corrupt terminal record (torn write on a backend
        without atomic replace, tampering) is dropped with a
        ``torn-result`` event and reported as ``None`` — the cell is
        simply re-executable, mirroring the cache's logged-miss policy.
        """
        raise NotImplementedError

    def reclaim_expired(self) -> List[int]:
        """Release every expired lease (coordinator policing); returns the
        reclaimed cell indices. Exhausted cells become terminal failures."""
        raise NotImplementedError

    def counts(self) -> Dict[str, int]:
        """Cell accounting: total/finished/failed/quarantined/leased/pending."""
        raise NotImplementedError

    @property
    def complete(self) -> bool:
        counts = self.counts()
        terminal = (
            counts["finished"] + counts["failed"] + counts["quarantined"]
        )
        return counts["cells"] > 0 and terminal >= counts["cells"]

    # ---------------------------------------------------------------- memo

    def load_memo(
        self, key: str, *, schema: int, body_key: str = "summary"
    ) -> Optional[dict]:
        """Verified memo body for ``key``; ``None`` when absent. Raises
        ``ValueError`` for a present-but-unusable entry (caller logs)."""
        raise NotImplementedError

    def store_memo(
        self, key: str, body: dict, *, schema: int, body_key: str = "summary"
    ) -> None:
        raise NotImplementedError

    # -------------------------------------------------------------- events

    def record_event(self, event: str, **data) -> None:
        raise NotImplementedError

    def events(self) -> List[dict]:
        raise NotImplementedError

    def events_since(self, cursor) -> Tuple[List[dict], object]:
        """Events appended after ``cursor`` (an opaque position from a
        previous call; ``None`` means from the start) plus the new cursor.
        The coordinator polls this instead of re-reading the whole log."""
        raise NotImplementedError

    def truncate_torn_events(self) -> int:
        """Cut a torn final event (an append killed mid-write) off the log
        and return the bytes dropped. Later appends would otherwise glue
        onto the torn bytes and hide every event after them; resuming a
        run and ``runs doctor`` both repair this way."""
        return 0

    # ----------------------------------------------------------- internals

    def _new_token(self) -> str:
        return uuid.uuid4().hex

    def _hook(self, op: str) -> None:
        """The deterministic SIGKILL test hook (see module docstring)."""
        if self._crash_hook is None:
            return
        hook_op, hook_count = self._crash_hook
        if op != hook_op:
            return
        count = self._crash_counts.get(op, 0) + 1
        self._crash_counts[op] = count
        if count >= hook_count:
            os.kill(os.getpid(), signal.SIGKILL)


# --------------------------------------------------------------------------
# Local-directory backend


class LocalDirStore(ResultStore):
    """One directory; every primitive is a POSIX filesystem operation.

    Layout::

        root/
          header.json         sealed run header (atomic replace)
          tasks.json          sealed task list (written once at seed)
          leases/<cell>.json  live leases (fsync'd, published by link)
          terminal/<cell>.json  sealed terminal records (atomic replace)
          events.jsonl        append-only event log (fsync'd)
          <memo keys>.json    memo entries (``memo/`` by default)

    Lease acquisition writes the lease body to a temp file, fsyncs it and
    ``os.link``\\ s it into place — an atomic test-and-set that fails when
    the lease exists and never exposes a half-written body — so two
    workers racing for the same open cell produce exactly one lease (the
    loser records a ``claim-race`` event and moves on). Takeover of an *expired* lease writes the new
    lease beside the old one and ``os.replace``\\ s it into place, then
    re-reads to confirm its token won; the unlucky loser of a takeover
    race discovers it at renew/finish time (token mismatch →
    :class:`~repro.sim.errors.LeaseLost`) and its result is refused —
    the first durable terminal record still wins.
    """

    def __init__(
        self, root: Union[str, Path], *, memo_subdir: str = "memo"
    ) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.url = str(self.root)
        self._memo_root = self.root / memo_subdir if memo_subdir else self.root
        self._leases = self.root / "leases"
        self._terminal = self.root / "terminal"
        self._events_path = self.root / "events.jsonl"
        self._header: Optional[dict] = None
        self._tasks: Optional[List[dict]] = None
        #: Claim scan cursor: cells below it were terminal last time we
        #: looked, so claims probe O(1) files instead of O(cells).
        self._cursor = 0

    # ----------------------------------------------------------- lifecycle

    def seed(
        self, *, kind, run_id, fingerprint, cells, config=None,
        max_attempts=DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        existing = self.header()
        if existing is not None:
            if existing.get("fingerprint") != fingerprint:
                raise StoreError(
                    f"store {self.url} holds run "
                    f"{existing.get('run_id')!r} with a different config "
                    f"fingerprint — refusing to mix two runs in one store"
                )
            # A resume: drop the torn event a killed run may have left, so
            # this run's events start on a fresh line.
            self.truncate_torn_events()
            return
        self._leases.mkdir(exist_ok=True)
        self._terminal.mkdir(exist_ok=True)
        header = {
            "schema": STORE_SCHEMA,
            "kind": kind,
            "run_id": run_id,
            "fingerprint": fingerprint,
            "cells": len(cells),
            "config": config,
            "max_attempts": max_attempts,
        }
        # Tasks first, header last: a header implies a complete task list.
        atomic_write_text(
            self.root / "tasks.json",
            json.dumps(seal({"tasks": cells}, schema=STORE_SCHEMA)),
        )
        atomic_write_text(
            self.root / "header.json",
            json.dumps(seal(header, schema=STORE_SCHEMA)),
        )
        self._header = header
        self._tasks = list(cells)
        self.max_attempts = max_attempts

    def header(self) -> Optional[dict]:
        if self._header is not None:
            return self._header
        path = self.root / "header.json"
        try:
            payload = json.loads(path.read_text())
        except OSError:
            return None
        except ValueError as exc:
            raise StoreError(f"corrupt store header {path}: {exc}") from None
        try:
            header = unseal(payload, schema=STORE_SCHEMA)
        except (ValueError, KeyError) as exc:
            raise StoreError(f"corrupt store header {path}: {exc}") from None
        self._header = header
        self.max_attempts = int(header.get("max_attempts", DEFAULT_MAX_ATTEMPTS))
        return header

    def task(self, cell: int) -> dict:
        if self._tasks is None:
            path = self.root / "tasks.json"
            try:
                payload = json.loads(path.read_text())
                self._tasks = unseal(payload, schema=STORE_SCHEMA)["tasks"]
            except (OSError, ValueError, KeyError) as exc:
                raise StoreError(f"unreadable task list {path}: {exc}") from None
        return self._tasks[cell]

    # -------------------------------------------------------------- leases

    def _lease_path(self, cell: int) -> Path:
        return self._leases / f"{cell}.json"

    def _read_lease(self, cell: int) -> Optional[dict]:
        try:
            return json.loads(self._lease_path(cell).read_text())
        except OSError:
            return None
        except ValueError:
            # Leases are published whole, so an unparsable one is damage
            # from outside the store; it is as good as expired: it can
            # never be renewed or finished through.
            return {"cell": cell, "token": None, "attempt": 0, "expires_at": 0.0,
                    "worker": "?"}

    def _lease_temp(self, cell: int, body: dict, purpose: str) -> Path:
        """Write ``body`` durably beside the lease path, ready to publish."""
        temp = self._lease_path(cell).with_name(
            f"{cell}.json.{purpose}-{body['token']}"
        )
        with open(temp, "w") as handle:
            handle.write(json.dumps(body))
            handle.flush()
            os.fsync(handle.fileno())
        return temp

    def _write_lease_excl(self, cell: int, body: dict) -> bool:
        """Create the lease unless one exists. ``os.link`` publishes a
        complete, fsync'd body and fails if the path is taken, so no peer
        ever reads an empty lease (and mistakes it for a torn one)."""
        temp = self._lease_temp(cell, body, "create")
        try:
            os.link(temp, self._lease_path(cell))
        except FileExistsError:
            return False
        finally:
            os.unlink(temp)
        return True

    def _takeover_lease(self, cell: int, body: dict) -> bool:
        """Replace an expired lease; True when our token ended up live."""
        os.replace(
            self._lease_temp(cell, body, "takeover"), self._lease_path(cell)
        )
        current = self._read_lease(cell)
        return bool(current) and current.get("token") == body["token"]

    def claim(self, worker, lease_s=DEFAULT_LEASE_S):
        header = self.header()
        if header is None:
            return None
        n = int(header["cells"])
        now = time.time()
        order = list(range(self._cursor, n)) + list(range(0, self._cursor))
        for cell in order:
            if self.terminal(cell) is not None:
                if cell == self._cursor:
                    self._cursor = (cell + 1) % max(n, 1)
                continue
            lease = self._read_lease(cell)
            if lease is None:
                body = {
                    "cell": cell, "worker": worker, "attempt": 1,
                    "token": self._new_token(), "expires_at": now + lease_s,
                }
                if not self._write_lease_excl(cell, body):
                    self.record_event("claim-race", cell=cell, worker=worker)
                    continue
                claim = self._claim_from(cell, body)
                self.record_event("claimed", cell=cell, worker=worker,
                                  attempt=1)
                self._hook("claim")
                return claim
            if lease["expires_at"] > now:
                continue  # live lease held by a peer
            attempt = int(lease.get("attempt", 0))
            if attempt >= self.max_attempts:
                self._exhaust(cell, lease)
                continue
            body = {
                "cell": cell, "worker": worker, "attempt": attempt + 1,
                "token": self._new_token(), "expires_at": now + lease_s,
            }
            if not self._takeover_lease(cell, body):
                self.record_event("claim-race", cell=cell, worker=worker)
                continue
            self.record_event(
                "reclaimed", cell=cell, worker=worker,
                previous=lease.get("worker"), attempt=attempt + 1,
            )
            claim = self._claim_from(cell, body)
            self._hook("claim")
            return claim
        return None

    def _claim_from(self, cell: int, body: dict) -> Claim:
        return Claim(
            cell=cell, task=self.task(cell), attempt=body["attempt"],
            worker=body["worker"], token=body["token"],
            expires_at=body["expires_at"],
        )

    def _exhaust(self, cell: int, lease: dict) -> None:
        attempt = int(lease.get("attempt", 0))
        wrote = self.write_terminal(
            cell, "failed", None,
            reason=f"lease expired {attempt} time(s); attempts exhausted",
            attempt=attempt,
        )
        if wrote:
            self.record_event("exhausted", cell=cell, attempt=attempt)
        try:
            os.unlink(self._lease_path(cell))
        except OSError:
            pass

    def renew(self, claim, lease_s=DEFAULT_LEASE_S):
        lease = self._read_lease(claim.cell)
        if lease is None or lease.get("token") != claim.token:
            raise LeaseLost(
                f"lease on cell {claim.cell} no longer held by "
                f"{claim.worker!r} (taken over after expiry)"
            )
        body = dict(lease, expires_at=time.time() + lease_s)
        if not self._takeover_lease(claim.cell, body):
            raise LeaseLost(
                f"lease on cell {claim.cell} lost during renewal"
            )
        return Claim(
            cell=claim.cell, task=claim.task, attempt=claim.attempt,
            worker=claim.worker, token=claim.token,
            expires_at=body["expires_at"],
        )

    # ----------------------------------------------------------- terminals

    def _terminal_path(self, cell: int) -> Path:
        return self._terminal / f"{cell}.json"

    def terminal(self, cell: int) -> Optional[dict]:
        path = self._terminal_path(cell)
        try:
            payload = json.loads(path.read_text())
        except OSError:
            return None
        except ValueError:
            payload = None
        try:
            if payload is None:
                raise ValueError("unparseable JSON")
            return unseal(payload, schema=STORE_SCHEMA)
        except (ValueError, KeyError):
            self.record_event("torn-result", cell=cell)
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def _terminal_from_claim(self, claim, state, payload, reason):
        lease = self._read_lease(claim.cell)
        if lease is None or lease.get("token") != claim.token:
            self.record_event(
                "stale-result", cell=claim.cell, worker=claim.worker,
                state=state,
            )
            raise LeaseLost(
                f"result for cell {claim.cell} refused: lease was taken "
                f"over (the cell will be / was re-executed elsewhere)"
            )
        wrote = self.write_terminal(
            claim.cell, state, payload, reason=reason, attempt=claim.attempt,
            worker=claim.worker,
        )
        try:
            os.unlink(self._lease_path(claim.cell))
        except OSError:
            pass
        if wrote:
            self._hook("finish")
        return wrote

    def write_terminal(
        self, cell, state, payload, *, reason=None, attempt=0, worker=None,
    ):
        if state not in TERMINAL_STATES:
            raise StoreError(f"unknown terminal state {state!r}")
        if self.terminal(cell) is not None:
            self.record_event(
                "double-execution", cell=cell, worker=worker, state=state
            )
            return False
        body = {
            "state": state, "reason": reason, "payload": payload,
            "attempt": attempt,
        }
        self._terminal.mkdir(exist_ok=True)
        atomic_write_text(
            self._terminal_path(cell),
            json.dumps(seal(body, schema=STORE_SCHEMA)),
        )
        self.record_event(state, cell=cell, worker=worker, attempt=attempt)
        return True

    def reclaim_expired(self):
        reclaimed: List[int] = []
        now = time.time()
        if not self._leases.is_dir():
            return reclaimed
        for path in sorted(self._leases.glob("*.json")):
            try:
                cell = int(path.stem)
            except ValueError:
                continue
            lease = self._read_lease(cell)
            if lease is None or lease["expires_at"] > now:
                continue
            if self.terminal(cell) is not None:
                # Orphaned lease on a terminal cell: just clean it up.
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            attempt = int(lease.get("attempt", 0))
            if attempt >= self.max_attempts:
                self._exhaust(cell, lease)
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            self.record_event(
                "reclaimed", cell=cell, worker=None,
                previous=lease.get("worker"), attempt=attempt,
            )
            reclaimed.append(cell)
        return reclaimed

    def counts(self):
        header = self.header()
        n = int(header["cells"]) if header else 0
        out = {"cells": n, "finished": 0, "failed": 0, "quarantined": 0,
               "leased": 0, "pending": 0}
        now = time.time()
        for cell in range(n):
            record = self.terminal(cell)
            if record is not None:
                out[record["state"]] += 1
                continue
            lease = self._read_lease(cell)
            if lease is not None and lease["expires_at"] > now:
                out["leased"] += 1
            else:
                out["pending"] += 1
        return out

    # ---------------------------------------------------------------- memo

    def _memo_path(self, key: str) -> Path:
        return self._memo_root / f"{key}.json"

    def load_memo(self, key, *, schema, body_key="summary"):
        try:
            text = self._memo_path(key).read_text()
        except OSError:
            return None  # plain miss: no entry
        payload = json.loads(text)  # ValueError propagates: logged by caller
        return unseal(payload, schema=schema, body_key=body_key)

    def store_memo(self, key, body, *, schema, body_key="summary"):
        self._memo_root.mkdir(parents=True, exist_ok=True)
        # seal()'s field order matches the pre-fabric ResultCache files, so
        # existing caches stay byte-identical and readable both ways.
        atomic_write_text(
            self._memo_path(key),
            json.dumps(seal(body, schema=schema, body_key=body_key)),
        )

    # -------------------------------------------------------------- events

    def record_event(self, event, **data):
        line = canonical({"event": event, "at": time.time(), **data})
        with open(self._events_path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def events(self):
        return self.events_since(None)[0]

    def events_since(self, cursor):
        offset = int(cursor or 0)
        try:
            with open(self._events_path, "rb") as handle:
                handle.seek(offset)
                raw = handle.read()
        except OSError:
            return [], offset
        lines = raw.split(b"\n")
        lines.pop()  # b"" when well-terminated, else a torn tail mid-append
        out = []
        consumed = 0
        for line in lines:
            try:
                out.append(json.loads(line))
            except ValueError:
                break  # unreadable record: stop; diagnostics only
            consumed += len(line) + 1
        return out, offset + consumed

    def truncate_torn_events(self):
        try:
            raw = self._events_path.read_bytes()
        except OSError:
            return 0
        torn = len(raw) - (raw.rfind(b"\n") + 1)
        if torn:
            with open(self._events_path, "r+b") as handle:
                handle.truncate(len(raw) - torn)
                os.fsync(handle.fileno())
        return torn

    def live_leases(self) -> Iterator[dict]:
        if not self._leases.is_dir():
            return
        for path in sorted(self._leases.glob("*.json")):
            try:
                lease = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            yield lease


# --------------------------------------------------------------------------
# Sqlite backend


class SqliteStore(ResultStore):
    """One stdlib sqlite3 database; claims are ``BEGIN IMMEDIATE``
    transactions, so the test-and-set the directory backend builds from
    ``O_CREAT|O_EXCL`` comes for free from the write lock.

    WAL mode keeps readers (the coordinator streaming results) off the
    writers' lock; ``synchronous=FULL`` keeps the
    durable-before-act discipline. Connections are per-thread *and*
    per-process (a worker's lease-renewal thread gets its own, and a
    connection never crosses a fork boundary); workers in other processes
    open their own instance against the same path (that is the point).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.url = f"sqlite:{self.path}"
        self._local = threading.local()
        self._ensure_schema()

    def _connection(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None or getattr(self._local, "pid", None) != os.getpid():
            conn = sqlite3.connect(
                str(self.path), timeout=30.0, isolation_level=None
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=FULL")
            conn.execute("PRAGMA busy_timeout=30000")
            self._local.conn = conn
            self._local.pid = os.getpid()
        return conn

    def _ensure_schema(self) -> None:
        conn = self._connection()
        conn.executescript(
            """
            CREATE TABLE IF NOT EXISTS meta (
                key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE IF NOT EXISTS cells (
                idx INTEGER PRIMARY KEY,
                task TEXT NOT NULL,
                state TEXT NOT NULL DEFAULT 'pending',
                payload TEXT,
                reason TEXT,
                attempt INTEGER NOT NULL DEFAULT 0,
                worker TEXT,
                token TEXT,
                expires_at REAL);
            CREATE TABLE IF NOT EXISTS memo (
                key TEXT PRIMARY KEY, payload TEXT NOT NULL);
            CREATE TABLE IF NOT EXISTS events (
                seq INTEGER PRIMARY KEY AUTOINCREMENT,
                body TEXT NOT NULL);
            """
        )

    # ----------------------------------------------------------- lifecycle

    def seed(
        self, *, kind, run_id, fingerprint, cells, config=None,
        max_attempts=DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT value FROM meta WHERE key='header'"
            ).fetchone()
            if row is not None:
                existing = json.loads(row[0])
                if existing.get("fingerprint") != fingerprint:
                    raise StoreError(
                        f"store {self.url} holds run "
                        f"{existing.get('run_id')!r} with a different "
                        f"config fingerprint — refusing to mix two runs"
                    )
                conn.execute("COMMIT")
                self.max_attempts = int(
                    existing.get("max_attempts", DEFAULT_MAX_ATTEMPTS)
                )
                return
            header = {
                "schema": STORE_SCHEMA, "kind": kind, "run_id": run_id,
                "fingerprint": fingerprint, "cells": len(cells),
                "config": config, "max_attempts": max_attempts,
            }
            conn.executemany(
                "INSERT INTO cells (idx, task) VALUES (?, ?)",
                [(i, canonical(task)) for i, task in enumerate(cells)],
            )
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('header', ?)",
                (canonical(header),),
            )
            conn.execute("COMMIT")
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        self.max_attempts = max_attempts

    def header(self):
        row = self._connection().execute(
            "SELECT value FROM meta WHERE key='header'"
        ).fetchone()
        if row is None:
            return None
        header = json.loads(row[0])
        self.max_attempts = int(
            header.get("max_attempts", DEFAULT_MAX_ATTEMPTS)
        )
        return header

    def task(self, cell):
        row = self._connection().execute(
            "SELECT task FROM cells WHERE idx=?", (cell,)
        ).fetchone()
        if row is None:
            raise StoreError(f"store {self.url} has no cell {cell}")
        return json.loads(row[0])

    # -------------------------------------------------------------- leases

    def claim(self, worker, lease_s=DEFAULT_LEASE_S):
        conn = self._connection()
        while True:
            now = time.time()
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT idx, task, state, attempt, worker FROM cells "
                    "WHERE state='pending' "
                    "   OR (state='leased' AND expires_at <= ?) "
                    "ORDER BY idx LIMIT 1",
                    (now,),
                ).fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    return None
                idx, task_text, state, attempt, previous = row
                if state == "leased" and attempt >= self.max_attempts:
                    reason = (
                        f"lease expired {attempt} time(s); attempts exhausted"
                    )
                    conn.execute(
                        "UPDATE cells SET state='failed', payload=NULL, "
                        "reason=?, worker=NULL, token=NULL, expires_at=NULL "
                        "WHERE idx=?",
                        (reason, idx),
                    )
                    self._event(conn, "exhausted", cell=idx, attempt=attempt)
                    self._event(conn, "failed", cell=idx, worker=None,
                                attempt=attempt)
                    conn.execute("COMMIT")
                    continue
                token = self._new_token()
                next_attempt = attempt + 1
                conn.execute(
                    "UPDATE cells SET state='leased', worker=?, token=?, "
                    "attempt=?, expires_at=? WHERE idx=?",
                    (worker, token, next_attempt, now + lease_s, idx),
                )
                if state == "leased":
                    self._event(conn, "reclaimed", cell=idx, worker=worker,
                                previous=previous, attempt=next_attempt)
                else:
                    self._event(conn, "claimed", cell=idx, worker=worker,
                                attempt=next_attempt)
                conn.execute("COMMIT")
            except BaseException:
                try:
                    conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
                raise
            claim = Claim(
                cell=idx, task=json.loads(task_text), attempt=next_attempt,
                worker=worker, token=token, expires_at=now + lease_s,
            )
            self._hook("claim")
            return claim

    def renew(self, claim, lease_s=DEFAULT_LEASE_S):
        conn = self._connection()
        expires = time.time() + lease_s
        cursor = conn.execute(
            "UPDATE cells SET expires_at=? "
            "WHERE idx=? AND state='leased' AND token=?",
            (expires, claim.cell, claim.token),
        )
        if cursor.rowcount != 1:
            raise LeaseLost(
                f"lease on cell {claim.cell} no longer held by "
                f"{claim.worker!r} (taken over after expiry)"
            )
        return Claim(
            cell=claim.cell, task=claim.task, attempt=claim.attempt,
            worker=claim.worker, token=claim.token, expires_at=expires,
        )

    # ----------------------------------------------------------- terminals

    def _terminal_from_claim(self, claim, state, payload, reason):
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT state, token FROM cells WHERE idx=?", (claim.cell,)
            ).fetchone()
            if row is None:
                conn.execute("COMMIT")
                raise StoreError(f"store {self.url} has no cell {claim.cell}")
            current_state, token = row
            if current_state in TERMINAL_STATES:
                self._event(conn, "double-execution", cell=claim.cell,
                            worker=claim.worker, state=state)
                conn.execute("COMMIT")
                return False
            if token != claim.token:
                self._event(conn, "stale-result", cell=claim.cell,
                            worker=claim.worker, state=state)
                conn.execute("COMMIT")
                raise LeaseLost(
                    f"result for cell {claim.cell} refused: lease was "
                    f"taken over (the cell will be / was re-executed "
                    f"elsewhere)"
                )
            self._write_terminal_locked(
                conn, claim.cell, state, payload, reason, claim.attempt,
                claim.worker,
            )
            conn.execute("COMMIT")
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        self._hook("finish")
        return True

    def write_terminal(
        self, cell, state, payload, *, reason=None, attempt=0, worker=None,
    ):
        if state not in TERMINAL_STATES:
            raise StoreError(f"unknown terminal state {state!r}")
        conn = self._connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT state FROM cells WHERE idx=?", (cell,)
            ).fetchone()
            if row is not None and row[0] in TERMINAL_STATES:
                self._event(conn, "double-execution", cell=cell,
                            worker=worker, state=state)
                conn.execute("COMMIT")
                return False
            self._write_terminal_locked(
                conn, cell, state, payload, reason, attempt, worker
            )
            conn.execute("COMMIT")
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        return True

    def _write_terminal_locked(
        self, conn, cell, state, payload, reason, attempt, worker
    ) -> None:
        sealed = (
            canonical(seal(payload, schema=STORE_SCHEMA))
            if payload is not None else None
        )
        conn.execute(
            "UPDATE cells SET state=?, payload=?, reason=?, worker=?, "
            "token=NULL, expires_at=NULL, attempt=? WHERE idx=?",
            (state, sealed, reason, worker, attempt, cell),
        )
        self._event(conn, state, cell=cell, worker=worker, attempt=attempt)

    def terminal(self, cell):
        row = self._connection().execute(
            "SELECT state, payload, reason, attempt FROM cells WHERE idx=?",
            (cell,),
        ).fetchone()
        if row is None or row[0] not in TERMINAL_STATES:
            return None
        state, payload_text, reason, attempt = row
        payload = None
        if payload_text is not None:
            try:
                payload = unseal(
                    json.loads(payload_text), schema=STORE_SCHEMA
                )
            except (ValueError, KeyError):
                # Tampered/corrupt payload: drop the record, re-execute.
                self.record_event("torn-result", cell=cell)
                conn = self._connection()
                conn.execute(
                    "UPDATE cells SET state='pending', payload=NULL, "
                    "reason=NULL, worker=NULL, token=NULL, expires_at=NULL "
                    "WHERE idx=?",
                    (cell,),
                )
                return None
        return {"state": state, "reason": reason, "payload": payload,
                "attempt": attempt}

    def reclaim_expired(self):
        conn = self._connection()
        reclaimed: List[int] = []
        now = time.time()
        conn.execute("BEGIN IMMEDIATE")
        try:
            rows = conn.execute(
                "SELECT idx, attempt, worker FROM cells "
                "WHERE state='leased' AND expires_at <= ? ORDER BY idx",
                (now,),
            ).fetchall()
            for idx, attempt, previous in rows:
                if attempt >= self.max_attempts:
                    reason = (
                        f"lease expired {attempt} time(s); attempts exhausted"
                    )
                    conn.execute(
                        "UPDATE cells SET state='failed', payload=NULL, "
                        "reason=?, worker=NULL, token=NULL, expires_at=NULL "
                        "WHERE idx=?",
                        (reason, idx),
                    )
                    self._event(conn, "exhausted", cell=idx, attempt=attempt)
                    self._event(conn, "failed", cell=idx, worker=None,
                                attempt=attempt)
                else:
                    conn.execute(
                        "UPDATE cells SET state='pending', worker=NULL, "
                        "token=NULL, expires_at=NULL WHERE idx=?",
                        (idx,),
                    )
                    self._event(conn, "reclaimed", cell=idx, worker=None,
                                previous=previous, attempt=attempt)
                    reclaimed.append(idx)
            conn.execute("COMMIT")
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        return reclaimed

    def counts(self):
        conn = self._connection()
        now = time.time()
        out = {"cells": 0, "finished": 0, "failed": 0, "quarantined": 0,
               "leased": 0, "pending": 0}
        for state, live, count in conn.execute(
            "SELECT state, "
            "  CASE WHEN state='leased' AND expires_at > ? THEN 1 ELSE 0 END, "
            "  COUNT(*) FROM cells GROUP BY 1, 2",
            (now,),
        ):
            out["cells"] += count
            if state in TERMINAL_STATES:
                out[state] += count
            elif state == "leased" and live:
                out["leased"] += count
            else:
                out["pending"] += count  # pending, or leased-but-expired
        return out

    # ---------------------------------------------------------------- memo

    def load_memo(self, key, *, schema, body_key="summary"):
        row = self._connection().execute(
            "SELECT payload FROM memo WHERE key=?", (key,)
        ).fetchone()
        if row is None:
            return None
        payload = json.loads(row[0])  # ValueError propagates: caller logs
        return unseal(payload, schema=schema, body_key=body_key)

    def store_memo(self, key, body, *, schema, body_key="summary"):
        self._connection().execute(
            "INSERT OR REPLACE INTO memo (key, payload) VALUES (?, ?)",
            (key, json.dumps(seal(body, schema=schema, body_key=body_key))),
        )

    # -------------------------------------------------------------- events

    def _event(self, conn, event: str, **data) -> None:
        conn.execute(
            "INSERT INTO events (body) VALUES (?)",
            (canonical({"event": event, "at": time.time(), **data}),),
        )

    def record_event(self, event, **data):
        self._event(self._connection(), event, **data)

    def events(self):
        return self.events_since(None)[0]

    def events_since(self, cursor):
        last = int(cursor or 0)
        rows = self._connection().execute(
            "SELECT seq, body FROM events WHERE seq > ? ORDER BY seq",
            (last,),
        ).fetchall()
        if rows:
            last = rows[-1][0]
        return [json.loads(body) for _, body in rows], last

    def live_leases(self) -> Iterator[dict]:
        for idx, worker, attempt, expires_at in self._connection().execute(
            "SELECT idx, worker, attempt, expires_at FROM cells "
            "WHERE state='leased' ORDER BY idx"
        ):
            yield {"cell": idx, "worker": worker, "attempt": attempt,
                   "expires_at": expires_at}

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", None) == os.getpid():
            conn.close()
        self._local.conn = None


# --------------------------------------------------------------------------
# URLs and triage


def open_store(
    spec: Union[str, Path, ResultStore], *, memo_subdir: str = "memo"
) -> ResultStore:
    """Resolve a store URL: ``sqlite:PATH`` (or a ``.sqlite``/``.db``
    path) opens a :class:`SqliteStore`; ``dir:PATH`` or any other path
    opens a :class:`LocalDirStore` on that directory."""
    if isinstance(spec, ResultStore):
        return spec
    text = str(spec)
    if text.startswith("sqlite:"):
        return SqliteStore(text[len("sqlite:"):])
    if text.startswith("dir:"):
        return LocalDirStore(text[len("dir:"):], memo_subdir=memo_subdir)
    if text.endswith((".sqlite", ".sqlite3", ".db")):
        return SqliteStore(text)
    return LocalDirStore(text, memo_subdir=memo_subdir)


def store_doctor(store: ResultStore) -> dict:
    """Triage a store: lease health plus the exactly-once invariants.

    ``double_executions`` lists cells where a *terminal* record already
    existed when a second result arrived — the invariant ``runs doctor
    --store --assert-no-reexecution`` gates on. ``stale_results`` are the
    benign sibling: a taken-over worker's result refused before any
    double-write happened. ``orphaned_claims`` are leases still on record
    for cells that already have a terminal record (a worker died between
    writing its result and releasing its lease — harmless, reclaimable).
    """
    header = store.header()
    counts = store.counts()
    now = time.time()
    expired, orphaned = [], []
    for lease in store.live_leases():
        if store.terminal(lease["cell"]) is not None:
            orphaned.append(lease["cell"])
        elif lease["expires_at"] <= now:
            expired.append(lease["cell"])
    events = store.events()
    def cells_of(kind: str) -> List[int]:
        return sorted({e["cell"] for e in events if e["event"] == kind})
    return {
        "header": header,
        "counts": counts,
        "complete": store.complete,
        "expired_leases": sorted(expired),
        "orphaned_claims": sorted(orphaned),
        "double_claims": sum(
            1 for e in events if e["event"] == "claim-race"
        ),
        "reclaims": sum(1 for e in events if e["event"] == "reclaimed"),
        "reclaimed_cells": cells_of("reclaimed"),
        "double_executions": cells_of("double-execution"),
        "stale_results": sum(
            1 for e in events if e["event"] == "stale-result"
        ),
        "exhausted_cells": cells_of("exhausted"),
        "torn_results": cells_of("torn-result"),
        #: The last run against this store drained on SIGINT/SIGTERM.
        "interrupted": bool(events) and events[-1]["event"] == "interrupted",
    }
