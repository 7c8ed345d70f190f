"""Load generator and client library for the renaming daemon.

:func:`run_session` speaks the full session protocol once and — crucially
— **re-validates the assignment client-side**: the names that came back
are pushed through the same :func:`repro.analysis.properties.check_renaming`
the server used, so a server that ships a rosy certificate over a broken
assignment is caught at the other end of the wire.

Every transport failure maps to a *typed* :class:`SessionOutcome` status —
``refused``, ``timeout``, ``disconnected``, ``wire-error`` — never an
escaped exception or a hang: that is the contract the chaos-proxy suite
(``tests/test_service_proxy.py``) drives fault by fault.

:func:`run_session_with_retry` wraps one session in the shared jittered
backoff (:class:`repro.analysis.backoff.PollBackoff`). Connect-level
failures are always retried; mid-session failures only when the session
carries an idempotency token — then re-submission is safe by the journal
contract (same token → replay, not re-run). :func:`run_query` asks a
``--session-journal`` daemon what happened to a token.

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
from typing import Dict, List, Optional, Sequence, Tuple

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
    "QueryOutcome",
    "SessionOutcome",
    "run_load",
    "run_query",
    "run_query_with_retry",
    "run_session",
    "run_session_with_retry",
    "validate_names",
]

#: Default client backoff between retries (floor, cap — seconds).
_RETRY_FLOOR_S = 0.05
_RETRY_CAP_S = 2.0


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
    """What one driven session produced.

    ``entries``/``certificate`` carry the served assignment on
    ``completed`` (and ``violation``) outcomes so callers — the recovery
    suite above all — can compare results across retries byte-for-byte.
    """

    status: str  # completed|busy|rejected|invalid|violation|refused|timeout|disconnected|wire-error
    latency_s: float = 0.0
    code: str = ""       # SessionError code when status == "rejected"
    detail: str = ""
    algorithm: str = ""
    rounds: int = 0
    entries: Tuple[Tuple[int, int], ...] = ()
    certificate: Optional[CertificateMessage] = None


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
) -> SessionOutcome:
    """Drive one complete session; never raises for protocol-level outcomes.

    ``register_chunk`` splits the ids over several RegisterIds frames
    (0 = one frame), exercising the repeatable-registration path.
    ``session_id`` is the idempotency token (requires a daemon running
    with ``--session-journal``; empty = anonymous).
    """
    started = time.monotonic()
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout_s
        )
    except (ConnectionError, OSError):
        return SessionOutcome(status="refused")
    except asyncio.TimeoutError:
        return SessionOutcome(status="timeout", detail="connect")
    try:
        try:
            greeting = await asyncio.wait_for(read_frame(reader), timeout=timeout_s)
        except asyncio.TimeoutError:
            return SessionOutcome(status="timeout", detail="welcome")
        if isinstance(greeting, ServerBusyMessage):
            return SessionOutcome(
                status="busy",
                detail=f"{greeting.active}/{greeting.limit} sessions active",
            )
        if not isinstance(greeting, SessionWelcomeMessage):
            return SessionOutcome(
                status="disconnected", detail="no welcome frame"
            )
        await write_frame(
            writer,
            OpenSessionMessage(
                algorithm=algorithm, t=t, attack=attack, seed=seed,
                session_id=session_id,
            ),
        )
        id_list = [int(i) for i in ids]
        chunk = register_chunk if register_chunk > 0 else len(id_list)
        for start in range(0, len(id_list), max(1, chunk)):
            await write_frame(
                writer,
                RegisterIdsMessage(ids=tuple(id_list[start:start + max(1, chunk)])),
            )
        await write_frame(writer, CloseSessionMessage())
        try:
            first = await asyncio.wait_for(read_frame(reader), timeout=timeout_s)
        except asyncio.TimeoutError:
            return SessionOutcome(status="timeout", detail="response")
        if first is None:
            return SessionOutcome(status="disconnected", detail="before response")
        if isinstance(first, SessionErrorMessage):
            return SessionOutcome(status="rejected", code=first.code, detail=first.detail)
        if not isinstance(first, NamesAssignedMessage):
            return SessionOutcome(
                status="disconnected",
                detail=f"unexpected {type(first).__name__} response",
            )
        try:
            certificate = await asyncio.wait_for(read_frame(reader), timeout=timeout_s)
        except asyncio.TimeoutError:
            return SessionOutcome(status="timeout", detail="certificate")
        if not isinstance(certificate, CertificateMessage):
            return SessionOutcome(status="disconnected", detail="no certificate frame")
        latency = time.monotonic() - started
        if not certificate.ok:
            return SessionOutcome(
                status="violation",
                latency_s=latency,
                detail="; ".join(certificate.violations),
                algorithm=first.algorithm,
                rounds=first.rounds,
                entries=first.entries,
                certificate=certificate,
            )
        problems = validate_names(
            first.entries,
            certificate.namespace,
            expected_count=len(id_list) - t,
            order_preserving="order_preservation" in certificate.checked,
        )
        if problems:
            return SessionOutcome(
                status="invalid",
                latency_s=latency,
                detail="certificate says ok but client re-check found: "
                + "; ".join(problems),
                algorithm=first.algorithm,
                rounds=first.rounds,
            )
        return SessionOutcome(
            status="completed",
            latency_s=latency,
            algorithm=first.algorithm,
            rounds=first.rounds,
            entries=first.entries,
            certificate=certificate,
        )
    except WireError as exc:
        # A corrupted byte stream (chaos proxy, broken middlebox) is a
        # typed client outcome, never an escaped exception.
        return SessionOutcome(status="wire-error", detail=str(exc))
    except (ConnectionError, OSError) as exc:
        return SessionOutcome(
            status="disconnected", detail=f"{type(exc).__name__}: {exc}"
        )
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _retryable(outcome: "SessionOutcome", session_id: str) -> bool:
    """May this outcome be retried without risking a duplicate run?

    Connect-level failures (nothing was submitted) are always safe.
    Mid-session failures — a timeout or disconnect after the submission
    may have reached the daemon, a corrupted response — are only safe
    under an idempotency token: the journal guarantees the retry is
    answered by replay, not a second execution.
    """
    if outcome.status == "refused":
        return True
    if outcome.status == "timeout" and outcome.detail == "connect":
        return True
    if session_id and outcome.status in ("timeout", "disconnected", "wire-error"):
        return True
    return False


async def run_session_with_retry(
    host: str,
    port: int,
    *,
    retries: int = 0,
    session_id: str = "",
    **kwargs,
) -> SessionOutcome:
    """:func:`run_session` under the shared jittered backoff.

    Retries at most ``retries`` times, only for outcomes
    :func:`_retryable` says are safe given the token. Returns the final
    outcome either way.
    """
    policy = PollBackoff(_RETRY_FLOOR_S, _RETRY_CAP_S)
    attempt = 0
    while True:
        outcome = await run_session(host, port, session_id=session_id, **kwargs)
        if attempt >= retries or not _retryable(outcome, session_id):
            return outcome
        attempt += 1
        await asyncio.sleep(policy.next_delay())


@dataclass
class QueryOutcome:
    """What a ``QueryRequest`` against the daemon's journal produced.

    ``status`` is a journal state (``completed``/``failed``/``in-flight``/
    ``unknown``) on success, or one of the transport/typed-error statuses
    (``busy``/``rejected``/``refused``/``timeout``/``disconnected``/
    ``wire-error``) otherwise.
    """

    status: str
    code: str = ""       # SessionError code (status == "rejected"/"failed")
    detail: str = ""
    entries: Tuple[Tuple[int, int], ...] = ()
    certificate: Optional[CertificateMessage] = None
    algorithm: str = ""
    rounds: int = 0


async def run_query(
    host: str,
    port: int,
    session_id: str,
    *,
    timeout_s: float = 30.0,
) -> QueryOutcome:
    """Ask a ``--session-journal`` daemon what happened to a token."""
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout_s
        )
    except (ConnectionError, OSError):
        return QueryOutcome(status="refused")
    except asyncio.TimeoutError:
        return QueryOutcome(status="timeout", detail="connect")
    try:
        try:
            greeting = await asyncio.wait_for(read_frame(reader), timeout=timeout_s)
        except asyncio.TimeoutError:
            return QueryOutcome(status="timeout", detail="welcome")
        if isinstance(greeting, ServerBusyMessage):
            return QueryOutcome(
                status="busy",
                detail=f"{greeting.active}/{greeting.limit} sessions active",
            )
        if not isinstance(greeting, SessionWelcomeMessage):
            return QueryOutcome(status="disconnected", detail="no welcome frame")
        await write_frame(writer, QueryRequestMessage(session_id=session_id))
        try:
            response = await asyncio.wait_for(read_frame(reader), timeout=timeout_s)
        except asyncio.TimeoutError:
            return QueryOutcome(status="timeout", detail="response")
        if response is None:
            return QueryOutcome(status="disconnected", detail="before response")
        if isinstance(response, SessionErrorMessage):
            return QueryOutcome(
                status="rejected", code=response.code, detail=response.detail
            )
        if not isinstance(response, QueryResponseMessage):
            return QueryOutcome(
                status="disconnected",
                detail=f"unexpected {type(response).__name__} response",
            )
        if response.state == "completed":
            try:
                names = await asyncio.wait_for(read_frame(reader), timeout=timeout_s)
                certificate = await asyncio.wait_for(
                    read_frame(reader), timeout=timeout_s
                )
            except asyncio.TimeoutError:
                return QueryOutcome(status="timeout", detail="journaled result")
            if not isinstance(names, NamesAssignedMessage) or not isinstance(
                certificate, CertificateMessage
            ):
                return QueryOutcome(
                    status="disconnected", detail="journaled result missing"
                )
            return QueryOutcome(
                status="completed",
                entries=names.entries,
                certificate=certificate,
                algorithm=names.algorithm,
                rounds=names.rounds,
            )
        if response.state == "failed":
            try:
                error = await asyncio.wait_for(read_frame(reader), timeout=timeout_s)
            except asyncio.TimeoutError:
                return QueryOutcome(status="timeout", detail="journaled error")
            if not isinstance(error, SessionErrorMessage):
                return QueryOutcome(
                    status="disconnected", detail="journaled error missing"
                )
            return QueryOutcome(
                status="failed", code=error.code, detail=error.detail
            )
        return QueryOutcome(status=response.state)
    except WireError as exc:
        return QueryOutcome(status="wire-error", detail=str(exc))
    except (ConnectionError, OSError) as exc:
        return QueryOutcome(
            status="disconnected", detail=f"{type(exc).__name__}: {exc}"
        )
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_query_with_retry(
    host: str,
    port: int,
    session_id: str,
    *,
    retries: int = 0,
    timeout_s: float = 30.0,
) -> QueryOutcome:
    """:func:`run_query` under the shared backoff — queries are read-only,
    so every transport-level failure (and busy) is safe to retry."""
    policy = PollBackoff(_RETRY_FLOOR_S, _RETRY_CAP_S)
    attempt = 0
    while True:
        outcome = await run_query(host, port, session_id, timeout_s=timeout_s)
        if attempt >= retries or outcome.status not in (
            "busy", "refused", "timeout", "disconnected", "wire-error"
        ):
            return outcome
        attempt += 1
        await asyncio.sleep(policy.next_delay())


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
    #: Transport-level retries spent by run_session_with_retry.
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
    ``retries`` bounds transport-level retries per session (gated on the
    token for mid-session failures, see :func:`_retryable`).
    """
    gate = asyncio.Semaphore(concurrency)
    report = LoadReport(sessions=sessions)

    async def one(index: int) -> SessionOutcome:
        ids = make_ids(workload, ids_per_session, seed=seed + index)
        token = f"{session_prefix}-{index}" if session_prefix else ""
        async with gate:
            policy = PollBackoff(_RETRY_FLOOR_S, _RETRY_CAP_S)
            busy_left = busy_retries
            transport_left = retries
            while True:
                outcome = await run_session(
                    host,
                    port,
                    ids=ids,
                    algorithm=algorithm,
                    t=t,
                    attack=attack,
                    seed=seed + index,
                    timeout_s=timeout_s,
                    session_id=token,
                )
                if outcome.status == "busy" and busy_left > 0:
                    busy_left -= 1
                    report.busy_retries += 1
                elif transport_left > 0 and _retryable(outcome, token):
                    transport_left -= 1
                    report.transport_retries += 1
                else:
                    return outcome
                await asyncio.sleep(policy.next_delay())

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
