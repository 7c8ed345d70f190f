"""Durable session journal: the daemon's crash-recoverable memory.

The daemon's sessions are journaled *before* the daemon acts on them —
append-only JSONL, one checksummed record per line, fsync'd before the
caller proceeds, torn tail dropped, mid-file corruption a typed
:class:`~repro.sim.errors.JournalError` — so a restarted
``repro-renaming serve --session-journal`` can answer "what name did
session X get?" for every session it ever finished.

Record types (each line a ``{v, seq, type, data, crc}`` record, ``crc``
the :func:`~repro.analysis.envelope.record_checksum` of the canonical
body):

* ``header`` — written once at creation: ``{"kind": "service-sessions"}``.
* ``accepted`` — the daemon admitted a **tokened** quorum and is about to
  execute it: the idempotency token, the request fingerprint, and the full
  request payload. An ``accepted`` with no terminal record is a session
  that was in flight when the daemon died — the client's retry re-admits
  it (appending a second ``accepted``), and tests count exactly one
  re-admission per retried token.
* ``completed`` — terminal: the token's result left the process. Carries
  the **encoded wire frames** (NamesAssigned + Certificate, hex of the
  length-prefixed bytes), so a replay to a repeat submission or a query is
  byte-identical by construction — the daemon writes the stored bytes, it
  does not re-encode.
* ``failed`` — terminal: the session failed *deterministically* (config /
  safety-violation / wall-budget / rss-budget). Carries the typed error;
  replayed as the identical SessionError. Transient failures (idle
  timeout, disconnect, shutdown shed, infra) are never journaled as
  terminal — the token stays in-flight and a retry re-runs it.

Anonymous sessions (no token) are not journaled at all: the journal is an
idempotency ledger, not an access log.

Test hook: ``REPRO_SERVICE_CRASH_AFTER=<type>:<count>`` SIGKILLs the
process immediately after the ``count``-th record of ``type`` appended by
this process becomes durable — how the recovery suite and
``make recovery-smoke`` produce deterministic mid-burst crashes.
"""

from __future__ import annotations

import json
import os  # noqa: F401 — tests stub the crash hook's kill as ``journal.os.kill``
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..sim.errors import JournalError

from ..analysis.envelope import (
    CrashHook, append_line, canonical, checksum, read_lines, record_checksum,
    truncate_durably,
)

__all__ = [
    "SERVICE_CRASH_HOOK_ENV",
    "SESSION_JOURNAL_KIND",
    "SESSION_JOURNAL_VERSION",
    "SessionJournal",
    "SessionJournalState",
    "SessionRecord",
    "request_fingerprint",
    "scan_session_journal",
]

#: Session-journal format version; scan rejects other versions.
SESSION_JOURNAL_VERSION = 1

#: ``header.kind`` value — distinguishes a session journal from a run
#: journal at a glance (and in ``sessions list`` error messages).
SESSION_JOURNAL_KIND = "service-sessions"

#: Record types a session journal may contain (scan rejects others).
RECORD_TYPES = ("header", "accepted", "completed", "failed")

#: Environment variable for the deterministic crash hook (tests/CI only).
SERVICE_CRASH_HOOK_ENV = "REPRO_SERVICE_CRASH_AFTER"


def request_fingerprint(request: dict) -> str:
    """SHA-256 over the canonical request payload.

    An idempotency token must name *one* request: re-submitting a token
    with different parameters or ids is a client bug, detected by
    comparing this fingerprint — not by trusting the token alone.
    """
    return checksum(request)


@dataclass
class SessionRecord:
    """Everything the journal knows about one idempotency token."""

    session_id: str
    #: "in-flight" | "completed" | "failed"
    state: str = "in-flight"
    fingerprint: str = ""
    request: dict = field(default_factory=dict)
    #: Times an ``accepted`` record was written for this token — 1 for a
    #: normal run, 2 for a crash-interrupted session re-admitted once.
    accepted: int = 0
    #: completed: hex of the encoded NamesAssigned / Certificate frames.
    names_hex: str = ""
    certificate_hex: str = ""
    ok: bool = False
    #: failed: the typed error.
    code: str = ""
    detail: str = ""
    trace_pointer: int = -1


@dataclass
class SessionJournalState:
    """The replayed content of one session journal."""

    path: Path
    header: Optional[dict] = None
    #: token -> record, in first-acceptance order.
    sessions: Dict[str, SessionRecord] = field(default_factory=dict)
    records: int = 0
    #: Byte offset of the end of the last good record (torn-tail repair
    #: and a failed append's rollback truncate the file to this length).
    good_bytes: int = 0
    #: True when the final line was torn (dropped, not an error).
    torn: bool = False

    def in_flight(self) -> List[str]:
        """Tokens accepted but never finished — the crash set."""
        return [
            token for token, record in self.sessions.items()
            if record.state == "in-flight"
        ]


def _parse_record(line: bytes, lineno: int, path: Path) -> dict:
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise JournalError(
            f"{path.name}:{lineno}: unparseable record ({exc})"
        ) from None
    if not isinstance(record, dict):
        raise JournalError(f"{path.name}:{lineno}: record is not an object")
    for key in ("v", "seq", "type", "data", "crc"):
        if key not in record:
            raise JournalError(f"{path.name}:{lineno}: missing field {key!r}")
    if record["type"] not in RECORD_TYPES:
        raise JournalError(
            f"{path.name}:{lineno}: unknown record type {record['type']!r}"
        )
    expected = record_checksum(
        record["v"], record["seq"], record["type"], record["data"]
    )
    if record["crc"] != expected:
        raise JournalError(f"{path.name}:{lineno}: checksum mismatch")
    return record


def scan_session_journal(path: Union[str, Path]) -> SessionJournalState:
    """Replay ``path`` into a :class:`SessionJournalState`.

    The final line is allowed to be torn (crash mid-append): it is dropped
    and ``state.torn`` is set — by fsync ordering nothing ever acted on it.
    A bad record *before* the last line, a sequence gap, a wrong version,
    a wrong kind or a missing header raise
    :class:`~repro.sim.errors.JournalError`.
    """
    path = Path(path)
    try:
        lines, _, trailing = read_lines(path)
    except OSError as exc:
        raise JournalError(f"cannot read session journal {path}: {exc}") from None
    state = SessionJournalState(path=path)
    for lineno, line in enumerate(lines, start=1):
        is_last = lineno == len(lines) and not trailing
        try:
            record = _parse_record(line, lineno, path)
        except JournalError:
            if is_last:
                state.torn = True
                return state
            raise
        if record["v"] != SESSION_JOURNAL_VERSION:
            raise JournalError(
                f"{path.name}:{lineno}: session journal version "
                f"{record['v']} (this build reads {SESSION_JOURNAL_VERSION})"
            )
        if record["seq"] != state.records:
            raise JournalError(
                f"{path.name}:{lineno}: sequence gap (expected "
                f"{state.records}, found {record['seq']})"
            )
        _apply(state, record, lineno)
        state.records += 1
        state.good_bytes += len(line) + 1
    if trailing:
        state.torn = True
    return state


def _apply(state: SessionJournalState, record: dict, lineno: int) -> None:
    type_, data = record["type"], record["data"]
    if type_ == "header":
        if state.header is not None:
            raise JournalError(f"{state.path.name}:{lineno}: duplicate header")
        if data.get("kind") != SESSION_JOURNAL_KIND:
            raise JournalError(
                f"{state.path.name}:{lineno}: not a session journal "
                f"(kind {data.get('kind')!r})"
            )
        state.header = data
        return
    if state.header is None:
        raise JournalError(
            f"{state.path.name}:{lineno}: {type_!r} record before header"
        )
    token = data["session_id"]
    entry = state.sessions.get(token)
    if entry is None:
        entry = state.sessions[token] = SessionRecord(session_id=token)
    if type_ == "accepted":
        entry.accepted += 1
        entry.fingerprint = data["fingerprint"]
        entry.request = data.get("request", {})
        return
    # Terminal records: the first one wins (a correct daemon never writes
    # a second, but the replay must be deterministic regardless).
    if entry.state != "in-flight":
        return
    entry.fingerprint = data.get("fingerprint", entry.fingerprint)
    if type_ == "completed":
        entry.state = "completed"
        entry.names_hex = data["names_hex"]
        entry.certificate_hex = data["certificate_hex"]
        entry.ok = bool(data["ok"])
    elif type_ == "failed":
        entry.state = "failed"
        entry.code = data["code"]
        entry.detail = data["detail"]
        entry.trace_pointer = int(data.get("trace_pointer", -1))


class SessionJournal:
    """The daemon's append-only, fsync'd, checksummed session ledger.

    :meth:`open_or_create` replays an existing journal (truncating a torn
    tail) or starts a fresh one with a durable header. Every append is
    flushed and fsync'd before it returns — the daemon only sends a result
    frame *after* the matching record is durable, so a record lost to a
    crash (the torn tail) was never answered, and an answered session is
    never lost.

    An append lands whole or not at all: a failed write or fsync truncates
    the file back to its last good record (there is one writer), so the
    next append reuses the ``seq``. If that rollback fails too, later
    appends raise :class:`~repro.sim.errors.JournalError` instead.
    """

    def __init__(self, path: Path, state: SessionJournalState) -> None:
        self.path = path
        self.state = state
        #: Set when a failed append could not be rolled back: appends refused.
        self._broken: Optional[str] = None
        self._crash_hook = CrashHook(SERVICE_CRASH_HOOK_ENV, JournalError, "type")

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def open_or_create(cls, path: Union[str, Path]) -> "SessionJournal":
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists() and path.stat().st_size > 0:
            state = scan_session_journal(path)
            if state.header is None:
                raise JournalError(
                    f"session journal {path} has no intact header record"
                )
            if state.torn:
                truncate_durably(path, state.good_bytes)
            return cls(path, state)
        journal = cls(path, SessionJournalState(path=path))
        journal.append("header", kind=SESSION_JOURNAL_KIND)
        return journal

    def close(self) -> None:
        """No-op: every append opens, fsyncs and closes the file itself."""

    def __enter__(self) -> "SessionJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- writing

    def append(self, type_: str, **data) -> None:
        """Durably append one record (write + flush + fsync)."""
        if type_ not in RECORD_TYPES:
            raise JournalError(f"unknown record type {type_!r}")
        if self._broken is not None:
            raise JournalError(f"session journal {self.path}: {self._broken}")
        seq = self.state.records
        record = {
            "v": SESSION_JOURNAL_VERSION,
            "seq": seq,
            "type": type_,
            "data": data,
            "crc": record_checksum(SESSION_JOURNAL_VERSION, seq, type_, data),
        }
        try:
            written = append_line(self.path, canonical(record))
        except OSError as exc:
            try:
                truncate_durably(self.path, self.state.good_bytes)
            except OSError as undo:
                self._broken = (
                    f"append of seq {seq} failed ({exc}) and could not be "
                    f"rolled back ({undo}); appends refused"
                )
            raise
        _apply(self.state, record, seq + 1)
        self.state.records = seq + 1
        self.state.good_bytes += written
        self._crash_hook.fire(type_)

    def accepted(self, session_id: str, fingerprint: str, request: dict) -> None:
        self.append(
            "accepted",
            session_id=session_id,
            fingerprint=fingerprint,
            request=request,
        )

    def completed(
        self,
        session_id: str,
        fingerprint: str,
        *,
        names_hex: str,
        certificate_hex: str,
        ok: bool,
    ) -> None:
        self.append(
            "completed",
            session_id=session_id,
            fingerprint=fingerprint,
            names_hex=names_hex,
            certificate_hex=certificate_hex,
            ok=ok,
        )

    def failed(
        self,
        session_id: str,
        fingerprint: str,
        *,
        code: str,
        detail: str,
        trace_pointer: int = -1,
    ) -> None:
        self.append(
            "failed",
            session_id=session_id,
            fingerprint=fingerprint,
            code=code,
            detail=detail,
            trace_pointer=trace_pointer,
        )

    # -------------------------------------------------------------- reading

    def lookup(self, session_id: str) -> Optional[SessionRecord]:
        """The journaled record for a token, or ``None`` if never seen."""
        return self.state.sessions.get(session_id)

