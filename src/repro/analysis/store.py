"""The result store: the one durable substrate for sweeps and campaigns.

A result store is the *only* thing a coordinator and its workers
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
  :meth:`LocalDirStore.seed` is idempotent: re-seeding an existing store
  verifies the fingerprint and becomes a resume; a mismatch raises
  :class:`~repro.sim.errors.StoreError` instead of splicing two runs.
* **Leases with heartbeat expiry.** :meth:`LocalDirStore.claim` hands out
  the lowest-indexed open cell together with a fresh random token and an
  expiry timestamp; :meth:`LocalDirStore.renew` pushes the expiry forward
  while the cell executes. A worker that dies stops renewing; once the
  lease expires any peer's ``claim`` (or the coordinator's
  :meth:`LocalDirStore.reclaim_expired`) takes the cell over with the
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
* **An event log** for ``runs doctor``: claims, reclaims, claim races,
  double executions, stale results and drained interruptions, so the
  fabric's exactly-once discipline is assertable after the fact, not just
  hoped for.

The store is :class:`LocalDirStore`: one directory whose leases are
hard-linked into place whole and whose terminals are atomic-replace JSON
files, so it works on any shared filesystem with hard links.
:func:`open_store` maps a store URL (``dir:PATH`` or a plain directory
path) onto it.

Test hook: ``REPRO_STORE_CRASH_AFTER=<op>:<count>`` SIGKILLs the process
immediately after the ``count``-th *durable* store operation of kind
``op`` (``claim`` or ``finish``) performed by this process — the
deterministic mid-flight death the kill/resume suite, the lease-reclaim
suite and ``make resume-smoke`` rely on.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..sim.errors import LeaseLost, StoreError
from .envelope import CrashHook, atomic_write_text, canonical, seal, unseal

__all__ = [
    "Claim",
    "DEFAULT_LEASE_S",
    "DEFAULT_MAX_ATTEMPTS",
    "LocalDirStore",
    "STORE_CRASH_HOOK_ENV",
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


class LocalDirStore:
    """The result store: one directory, every primitive a POSIX
    filesystem operation. See the module docstring for the contract.

    Layout::

        root/
          header.json         sealed run header (atomic replace)
          tasks.json          sealed task list (written once at seed)
          leases/<cell>.json  live leases (fsync'd, published by link)
          terminal/<cell>.json  sealed terminal records (atomic replace)
          events.jsonl        append-only event log (fsync'd)

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

    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __init__(self, root: Union[str, Path]) -> None:
        self._crash_hook = CrashHook(STORE_CRASH_HOOK_ENV, StoreError, "op")
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise StoreError(
                f"store path {self.root} exists and is not a directory"
            ) from None
        #: A reconstructible address for this store — what the
        #: coordinator hands to subprocess workers.
        self.url = str(self.root)
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
        """The seeded run header, or ``None`` before :meth:`seed`."""
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

    def wait_for_header(self, timeout_s: float, poll_s: float = 0.1) -> dict:
        """Block until the store is seeded (workers may start first)."""
        deadline = time.monotonic() + timeout_s
        while True:
            header = self.header()
            if header is not None:
                return header
            if time.monotonic() >= deadline:
                raise StoreError(
                    f"store {self.url} not seeded within "
                    f"{timeout_s:g}s — is the coordinator running?"
                )
            time.sleep(poll_s)

    def task(self, cell: int) -> dict:
        """The task dict seeded for ``cell``."""
        if self._tasks is None:
            path = self.root / "tasks.json"
            try:
                payload = json.loads(path.read_text())
                self._tasks = unseal(payload, schema=STORE_SCHEMA)["tasks"]
            except (OSError, ValueError, KeyError) as exc:
                raise StoreError(f"unreadable task list {path}: {exc}") from None
        return self._tasks[cell]

    @property
    def cells(self) -> int:
        header = self.header()
        return int(header["cells"]) if header else 0

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

    def _finished_under_us(self, cell: int) -> bool:
        """Re-probe a cell whose lease we just won; give the lease back if
        it is terminal. A peer writes its terminal record *before* it
        unlinks its lease, so a peer that finished between our first probe
        and our lease read is always visible here."""
        if self.terminal(cell) is None:
            return False
        try:
            os.unlink(self._lease_path(cell))
        except OSError:
            pass
        return True

    def claim(
        self, worker: str, lease_s: float = DEFAULT_LEASE_S
    ) -> Optional[Claim]:
        """Lease the lowest-indexed open cell, or ``None`` if none is
        claimable right now (all cells terminal or under live leases).

        An *expired* lease is taken over here (attempt + 1, ``reclaimed``
        event); an expired lease already at ``max_attempts`` is converted
        to a terminal ``failed`` record instead (``exhausted`` event).
        """
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
                if self._finished_under_us(cell):
                    continue
                claim = self._claim_from(cell, body)
                self.record_event("claimed", cell=cell, worker=worker,
                                  attempt=1)
                self._crash_hook.fire("claim")
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
            if self._finished_under_us(cell):
                continue
            self.record_event(
                "reclaimed", cell=cell, worker=worker,
                previous=lease.get("worker"), attempt=attempt + 1,
            )
            claim = self._claim_from(cell, body)
            self._crash_hook.fire("claim")
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

    def renew(self, claim: Claim, lease_s: float = DEFAULT_LEASE_S) -> Claim:
        """Push ``claim``'s expiry forward; raises
        :class:`~repro.sim.errors.LeaseLost` if the lease was taken over."""
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

    def _terminal_path(self, cell: int) -> Path:
        return self._terminal / f"{cell}.json"

    def terminal(self, cell: int) -> Optional[dict]:
        """``{"state", "reason", "payload", "attempt"}`` or ``None``.

        A present-but-corrupt terminal record (torn write, tampering) is
        dropped with a ``torn-result`` event and reported as ``None`` —
        the cell is simply re-executable, mirroring the cache's
        logged-miss policy.
        """
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

    def terminal_cells(self) -> List[int]:
        """The cells that have a terminal file, ascending — one directory
        listing, however large the grid."""
        try:
            names = os.listdir(self._terminal)
        except OSError:
            return []
        return sorted(
            int(name[:-5]) for name in names
            if name.endswith(".json") and name[:-5].isdigit()
        )

    def _terminal_from_claim(
        self, claim: Claim, state: str, payload: Optional[dict],
        reason: Optional[str],
    ) -> bool:
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
        # Terminal first, then the lease: a peer that wins a lease on this
        # cell after the unlink re-probes and sees the terminal record.
        wrote = self.write_terminal(
            claim.cell, state, payload, reason=reason, attempt=claim.attempt,
            worker=claim.worker,
        )
        try:
            os.unlink(self._lease_path(claim.cell))
        except OSError:
            pass
        if wrote:
            self._crash_hook.fire("finish")
        return wrote

    def write_terminal(
        self, cell: int, state: str, payload: Optional[dict],
        *, reason: Optional[str] = None, attempt: int = 0,
        worker: Optional[str] = None,
    ) -> bool:
        """Coordinator-side terminal write (cache prefill, exhaustion) —
        no lease involved. First terminal still wins."""
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

    def reclaim_expired(self) -> List[int]:
        """Release every expired lease (coordinator policing); returns the
        reclaimed cell indices. Exhausted cells become terminal failures."""
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

    def counts(self) -> Dict[str, int]:
        """Cell accounting: total/finished/failed/quarantined/leased/pending."""
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

    @property
    def complete(self) -> bool:
        counts = self.counts()
        terminal = (
            counts["finished"] + counts["failed"] + counts["quarantined"]
        )
        return counts["cells"] > 0 and terminal >= counts["cells"]

    # -------------------------------------------------------------- events

    def record_event(self, event: str, **data) -> None:
        line = canonical({"event": event, "at": time.time(), **data})
        with open(self._events_path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def events(self) -> List[dict]:
        return self.events_since(None)[0]

    def events_since(self, cursor: Optional[int]) -> Tuple[List[dict], int]:
        """Events appended after ``cursor`` (a byte offset from a previous
        call; ``None`` means from the start) plus the new cursor. The
        coordinator polls this instead of re-reading the whole log."""
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

    def truncate_torn_events(self) -> int:
        """Cut a torn final event (an append killed mid-write) off the log
        and return the bytes dropped. Later appends would otherwise glue
        onto the torn bytes and hide every event after them; resuming a
        run and ``runs doctor`` both repair this way."""
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

    # ----------------------------------------------------------- internals

    def _new_token(self) -> str:
        return uuid.uuid4().hex


# --------------------------------------------------------------------------
# URLs and triage


def open_store(spec: Union[str, Path, LocalDirStore]) -> LocalDirStore:
    """Resolve a store URL — ``dir:PATH`` or a plain directory path — to a
    :class:`LocalDirStore`; an instance passes through. A ``sqlite:`` URL
    names the removed database backend and raises
    :class:`~repro.sim.errors.StoreError`, as does a path that exists but
    is not a directory."""
    if isinstance(spec, LocalDirStore):
        return spec
    text = str(spec)
    if text.startswith("sqlite:"):
        raise StoreError(
            f"unsupported store URL {text!r}: the sqlite backend was "
            f"removed; use a directory (dir:PATH or a plain path)"
        )
    if text.startswith("dir:"):
        text = text[len("dir:"):]
    return LocalDirStore(text)


def store_doctor(store: LocalDirStore) -> dict:
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
