"""Load generator and client library for the renaming daemon.

Every request is one conversation (:func:`_converse`): connect, read the
greeting, write the request frames, read the answer, close. A session and
a query for a finished token read the same answer — NamesAssigned +
Certificate, or one SessionError — because the daemon replays a journaled
result in the exact frames of a fresh one; :func:`_answer` reads both.

:func:`run_session` speaks the session protocol and — crucially —
**re-validates the assignment client-side**: the names that came back
are pushed through the same :func:`repro.analysis.properties.check_renaming`
the server used, so a server that ships a rosy certificate over a broken
assignment is caught at the other end of the wire. :func:`run_query`
asks a ``--session-journal`` daemon what happened to a token.

Every transport failure maps to a *typed* :class:`SessionOutcome` status —
``refused``, ``timeout``, ``disconnected``, ``wire-error`` — never an
escaped exception or a hang: that is the contract the chaos-proxy suite
(``tests/test_service_proxy.py``) drives fault by fault.

``retries=`` re-runs a request under the shared jittered backoff
(:class:`repro.analysis.backoff.PollBackoff`), in one loop
(:func:`_retrying`). A transport failure before the first request frame
was written submitted nothing, so it is always retried. A session's later
failures are retried only when it carries an idempotency token — then
re-submission is safe by the journal contract (same token → replay, not
re-run). ``busy`` ends a session; :func:`run_load` gives it a budget of
its own. A query is read-only: every transport failure and ``busy`` is
retried.

:func:`run_load` drives many sessions concurrently (bounded by a
semaphore) and aggregates a :class:`LoadReport` with throughput and
p50/p99 latency — the numbers ``make service-smoke`` and
``benchmarks/bench_service_load.py`` assert on. ``ServerBusy`` is
backpressure, not an error: the generator backs off and retries within a
bounded budget, reporting busy-retries separately.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.backoff import PollBackoff
from ..analysis.properties import check_renaming
from ..wire import WireError
from ..workloads import make_ids
from .frames import read_frame, write_frame
from .messages import (
    CertificateMessage,
    CloseSessionMessage,
    NamesAssignedMessage,
    OpenSessionMessage,
    QueryRequestMessage,
    QueryResponseMessage,
    RegisterIdsMessage,
    ServerBusyMessage,
    SessionErrorMessage,
    SessionWelcomeMessage,
)

__all__ = [
    "LoadReport",
    "SessionOutcome",
    "run_load",
    "run_query",
    "run_session",
    "validate_names",
]

#: Default client backoff between retries (floor, cap — seconds).
_RETRY_FLOOR_S = 0.05
_RETRY_CAP_S = 2.0

#: Statuses a failed transport produces.
_TRANSPORT = ("refused", "timeout", "disconnected", "wire-error")


class _AssignmentView:
    """Adapter: a bare (original → name) mapping as check_renaming input."""

    def __init__(self, names: Dict[int, int]) -> None:
        self._names = dict(names)

    def outputs_by_id(self) -> Dict[int, int]:
        return dict(self._names)


def validate_names(
    entries: Sequence[Tuple[int, int]],
    namespace: int,
    expected_count: int,
    *,
    order_preserving: bool = True,
) -> List[str]:
    """Client-side re-validation of a served assignment.

    Returns the violation strings (empty = the assignment really does
    satisfy the renaming properties the certificate claims).
    """
    report = check_renaming(
        _AssignmentView(dict(entries)), namespace, expected_count=expected_count
    )
    ok = report.ok if order_preserving else report.ok_without_order()
    if ok:
        return []
    if order_preserving:
        return list(report.violations)
    return [v for v in report.violations if not v.startswith("order:")]


@dataclass
class SessionOutcome:
    """What one driven session or query produced.

    ``entries``/``certificate`` carry the served assignment on
    ``completed`` (and ``violation``) outcomes so callers — the recovery
    suite above all — can compare results across retries byte-for-byte.
    A query's ``status`` is the token's journal state (``completed``/
    ``failed``/``in-flight``/``unknown``) when the daemon answered it.
    """

    status: str  # completed|busy|rejected|invalid|violation|refused|timeout|disconnected|wire-error (+ failed|in-flight|unknown for queries)
    latency_s: float = 0.0
    code: str = ""       # SessionError code when status == "rejected"/"failed"
    detail: str = ""
    algorithm: str = ""
    rounds: int = 0
    entries: Tuple[Tuple[int, int], ...] = ()
    certificate: Optional[CertificateMessage] = None
    #: Ended before the first request frame was written: nothing was
    #: submitted, so a retry is safe with or without a token.
    _unsent: bool = field(default=False, init=False, repr=False, compare=False)


class _Timeout(Exception):
    """A read outlived the timeout; the message names the awaited frame."""


async def _read(reader: asyncio.StreamReader, timeout_s: float, awaiting: str):
    try:
        return await asyncio.wait_for(read_frame(reader), timeout=timeout_s)
    except asyncio.TimeoutError:
        raise _Timeout(awaiting) from None


def _rejected(error: SessionErrorMessage) -> SessionOutcome:
    return SessionOutcome(status="rejected", code=error.code, detail=error.detail)


def _unexpected(frame) -> SessionOutcome:
    if frame is None:
        return SessionOutcome(status="disconnected", detail="before response")
    return SessionOutcome(
        status="disconnected", detail=f"unexpected {type(frame).__name__} response"
    )


async def _converse(
    host: str,
    port: int,
    frames: Sequence,
    timeout_s: float,
    finish: Callable[[asyncio.StreamReader], Awaitable[SessionOutcome]],
) -> SessionOutcome:
    """One connection: greet, write ``frames``, let ``finish`` read the answer.

    Every transport failure is a typed status, and the connection is
    always closed. An outcome that ended before the first request frame
    was written is marked ``_unsent``: a retry cannot run anything twice.
    """
    sent = False
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout_s
        )
    except asyncio.TimeoutError:  # before OSError: 3.11 makes it one
        outcome = SessionOutcome(status="timeout", detail="connect")
    except (ConnectionError, OSError):
        outcome = SessionOutcome(status="refused")
    else:
        try:
            greeting = await _read(reader, timeout_s, "welcome")
            if isinstance(greeting, ServerBusyMessage):
                outcome = SessionOutcome(
                    status="busy",
                    detail=f"{greeting.active}/{greeting.limit} sessions active",
                )
            elif not isinstance(greeting, SessionWelcomeMessage):
                outcome = SessionOutcome(
                    status="disconnected", detail="no welcome frame"
                )
            else:
                sent = True
                for frame in frames:
                    await write_frame(writer, frame)
                outcome = await finish(reader)
        except _Timeout as exc:
            outcome = SessionOutcome(status="timeout", detail=str(exc))
        except WireError as exc:
            # A corrupted byte stream (chaos proxy, broken middlebox) is a
            # typed client outcome, never an escaped exception.
            outcome = SessionOutcome(status="wire-error", detail=str(exc))
        except (ConnectionError, OSError) as exc:
            outcome = SessionOutcome(
                status="disconnected", detail=f"{type(exc).__name__}: {exc}"
            )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    outcome._unsent = not sent
    return outcome


async def _answer(reader: asyncio.StreamReader, timeout_s: float) -> SessionOutcome:
    """Read a session's result as the daemon writes it fresh or replays it
    from the journal: NamesAssigned + Certificate (``completed``, whatever
    the certificate says) or one SessionError (``rejected``)."""
    names = await _read(reader, timeout_s, "response")
    if isinstance(names, SessionErrorMessage):
        return _rejected(names)
    if not isinstance(names, NamesAssignedMessage):
        return _unexpected(names)
    certificate = await _read(reader, timeout_s, "certificate")
    if not isinstance(certificate, CertificateMessage):
        return SessionOutcome(status="disconnected", detail="no certificate frame")
    return SessionOutcome(
        status="completed",
        algorithm=names.algorithm,
        rounds=names.rounds,
        entries=names.entries,
        certificate=certificate,
    )


async def _checked_answer(
    reader: asyncio.StreamReader,
    timeout_s: float,
    started: float,
    expected_count: int,
) -> SessionOutcome:
    """A session's answer, timed and re-validated client-side."""
    outcome = await _answer(reader, timeout_s)
    if outcome.status != "completed":
        return outcome
    outcome.latency_s = time.monotonic() - started
    certificate = outcome.certificate
    if not certificate.ok:
        outcome.status = "violation"
        outcome.detail = "; ".join(certificate.violations)
        return outcome
    problems = validate_names(
        outcome.entries,
        certificate.namespace,
        expected_count=expected_count,
        order_preserving="order_preservation" in certificate.checked,
    )
    if problems:
        return SessionOutcome(
            status="invalid",
            latency_s=outcome.latency_s,
            detail="certificate says ok but client re-check found: "
            + "; ".join(problems),
            algorithm=outcome.algorithm,
            rounds=outcome.rounds,
        )
    return outcome


def _retryable(outcome: SessionOutcome, session_id: str) -> bool:
    """May this session outcome be retried without risking a duplicate run?

    ``busy`` is not (:func:`run_load` gives it a budget of its own). An
    outcome that ended before the first request frame was written is
    always safe: nothing was submitted. Later failures — a timeout or
    disconnect after the submission may have reached the daemon, a
    corrupted response — are only safe under an idempotency token: the
    journal guarantees the retry is answered by replay, not a second
    execution.
    """
    if outcome.status == "busy":
        return False
    return outcome._unsent or (bool(session_id) and outcome.status in _TRANSPORT)


async def _retrying(
    attempt: Callable[[], Awaitable[SessionOutcome]],
    retryable: Callable[[SessionOutcome], bool],
    *,
    retries: int,
    busy_retries: int = 0,
    report: Optional["LoadReport"] = None,
) -> SessionOutcome:
    """Run ``attempt`` until its outcome is final, under the shared backoff.

    A ``busy`` outcome spends one of ``busy_retries``; an outcome
    ``retryable`` accepts spends one of ``retries``. ``report``, when
    given, counts both kinds of retry.
    """
    policy = PollBackoff(_RETRY_FLOOR_S, _RETRY_CAP_S)
    while True:
        outcome = await attempt()
        if outcome.status == "busy" and busy_retries > 0:
            busy_retries -= 1
            if report is not None:
                report.busy_retries += 1
        elif retries > 0 and retryable(outcome):
            retries -= 1
            if report is not None:
                report.transport_retries += 1
        else:
            return outcome
        await asyncio.sleep(policy.next_delay())


async def run_session(
    host: str,
    port: int,
    *,
    ids: Sequence[int],
    algorithm: str = "auto",
    t: int = 0,
    attack: str = "silent",
    seed: int = 0,
    timeout_s: float = 30.0,
    register_chunk: int = 0,
    session_id: str = "",
    retries: int = 0,
) -> SessionOutcome:
    """Drive one complete session; never raises for protocol-level outcomes.

    ``register_chunk`` splits the ids over several RegisterIds frames
    (0 = one frame), exercising the repeatable-registration path.
    ``session_id`` is the idempotency token (requires a daemon running
    with ``--session-journal``; empty = anonymous). ``retries`` bounds
    the retries of outcomes :func:`_retryable` says are safe given the
    token; the final outcome is returned either way.
    """
    id_list = [int(i) for i in ids]
    chunk = max(1, register_chunk if register_chunk > 0 else len(id_list))
    frames = [
        OpenSessionMessage(
            algorithm=algorithm, t=t, attack=attack, seed=seed,
            session_id=session_id,
        ),
        *(
            RegisterIdsMessage(ids=tuple(id_list[start:start + chunk]))
            for start in range(0, len(id_list), chunk)
        ),
        CloseSessionMessage(),
    ]

    def attempt():
        started = time.monotonic()
        return _converse(
            host, port, frames, timeout_s,
            lambda reader: _checked_answer(
                reader, timeout_s, started, len(id_list) - t
            ),
        )

    return await _retrying(
        attempt, lambda outcome: _retryable(outcome, session_id), retries=retries
    )


async def _query_answer(
    reader: asyncio.StreamReader, timeout_s: float
) -> SessionOutcome:
    """The QueryResponse state frame, then a finished token's replayed
    answer; a replay that does not match the announced state is
    ``disconnected``."""
    response = await _read(reader, timeout_s, "response")
    if isinstance(response, SessionErrorMessage):
        return _rejected(response)
    if not isinstance(response, QueryResponseMessage):
        return _unexpected(response)
    if response.state not in ("completed", "failed"):
        return SessionOutcome(status=response.state)
    replay = await _answer(reader, timeout_s)
    if response.state == "failed" and replay.status == "rejected":
        replay.status = "failed"
    elif replay.status != response.state:
        return SessionOutcome(
            status="disconnected",
            detail=f"journaled {response.state} result missing",
        )
    return replay


async def run_query(
    host: str,
    port: int,
    session_id: str,
    *,
    timeout_s: float = 30.0,
    retries: int = 0,
) -> SessionOutcome:
    """Ask a ``--session-journal`` daemon what happened to a token.

    ``status`` is the journal state on success, or a transport/typed-error
    status. Queries are read-only, so ``retries`` covers ``busy`` and
    every transport failure.
    """
    return await _retrying(
        lambda: _converse(
            host, port, [QueryRequestMessage(session_id=session_id)], timeout_s,
            lambda reader: _query_answer(reader, timeout_s),
        ),
        lambda outcome: outcome.status in ("busy", *_TRANSPORT),
        retries=retries,
    )


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


@dataclass
class LoadReport:
    """Aggregate outcome of a load run."""

    sessions: int = 0
    elapsed_s: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)
    rejected_codes: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    #: ServerBusy responses absorbed by backoff-and-retry — backpressure
    #: working as designed, reported separately from errors.
    busy_retries: int = 0
    #: Retries spent from the per-session ``retries`` budget.
    transport_retries: int = 0

    @property
    def completed(self) -> int:
        return self.counts.get("completed", 0)

    @property
    def sessions_per_sec(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed / self.elapsed_s

    @property
    def p50_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.50)

    @property
    def p99_s(self) -> float:
        return _percentile(sorted(self.latencies_s), 0.99)

    def exit_code(self) -> int:
        """2 if any served assignment failed validation, 3 if nothing
        completed at all, else 0 — mirroring the daemon's contract."""
        if self.counts.get("invalid", 0) or self.counts.get("violation", 0):
            return 2
        if self.completed == 0:
            return 3
        return 0

    def as_text(self) -> str:
        lines = [
            f"sessions          {self.sessions}",
            f"elapsed           {self.elapsed_s:.2f}s",
            f"throughput        {self.sessions_per_sec:.1f} sessions/s",
            f"latency p50       {self.p50_s * 1000:.1f} ms",
            f"latency p99       {self.p99_s * 1000:.1f} ms",
        ]
        if self.busy_retries:
            lines.append(f"busy retries      {self.busy_retries}")
        if self.transport_retries:
            lines.append(f"transport retries {self.transport_retries}")
        for status in sorted(self.counts):
            lines.append(f"{status:<17} {self.counts[status]}")
        for code in sorted(self.rejected_codes):
            lines.append(f"  rejected[{code}]  {self.rejected_codes[code]}")
        return "\n".join(lines)


async def run_load(
    host: str,
    port: int,
    *,
    sessions: int,
    concurrency: int = 32,
    ids_per_session: int = 8,
    algorithm: str = "auto",
    t: int = 0,
    attack: str = "silent",
    seed: int = 0,
    timeout_s: float = 30.0,
    workload: str = "uniform",
    max_failures_kept: int = 20,
    session_prefix: str = "",
    retries: int = 0,
    busy_retries: int = 8,
) -> LoadReport:
    """Drive ``sessions`` sessions, at most ``concurrency`` in flight.

    ``session_prefix`` stamps each session with the idempotency token
    ``{prefix}-{index}`` (daemon must run with ``--session-journal``).
    ``busy_retries`` bounds how many ServerBusy responses *per session*
    are absorbed by backoff before "busy" becomes the session's outcome;
    ``retries`` bounds the other retries per session (gated on the token
    once a request frame was written, see :func:`_retryable`).
    """
    gate = asyncio.Semaphore(concurrency)
    report = LoadReport(sessions=sessions)

    async def one(index: int) -> SessionOutcome:
        ids = make_ids(workload, ids_per_session, seed=seed + index)
        token = f"{session_prefix}-{index}" if session_prefix else ""
        async with gate:
            return await _retrying(
                lambda: run_session(
                    host, port, ids=ids, algorithm=algorithm, t=t,
                    attack=attack, seed=seed + index, timeout_s=timeout_s,
                    session_id=token,
                ),
                lambda outcome: _retryable(outcome, token),
                retries=retries,
                busy_retries=busy_retries,
                report=report,
            )

    started = time.monotonic()
    outcomes = await asyncio.gather(*(one(i) for i in range(sessions)))
    report.elapsed_s = time.monotonic() - started
    for outcome in outcomes:
        report.counts[outcome.status] = report.counts.get(outcome.status, 0) + 1
        if outcome.status == "completed":
            report.latencies_s.append(outcome.latency_s)
        elif outcome.status == "rejected":
            report.rejected_codes[outcome.code] = (
                report.rejected_codes.get(outcome.code, 0) + 1
            )
        if outcome.status in ("invalid", "violation") and len(
            report.failures
        ) < max_failures_kept:
            report.failures.append(f"{outcome.status}: {outcome.detail}")
    return report
