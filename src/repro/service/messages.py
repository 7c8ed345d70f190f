"""Wire messages of the renaming-session protocol (`repro-renaming serve`).

A *session* is one client connection to the renaming daemon: the client
opens it, registers original ids (possibly across several frames), and
closes the quorum; the server runs the selected algorithm over the
registered ids and streams back the assignment plus a property
certificate. Every frame on the socket is one of the dataclasses below —
they are ordinary :class:`~repro.sim.messages.Message` subclasses, encoded
with the same :mod:`repro.wire` codec as the protocol traffic (tags 22+)
and carried inside the length-prefixed frame layer of
:mod:`repro.service.frames`.

Service frames are control-plane traffic; they do not participate in the
paper's bit-complexity accounting (experiment E6), so the default
:meth:`~repro.sim.messages.Message.bit_size` estimate is left untouched.

The module is deliberately a leaf (it imports only the message base class)
so :mod:`repro.wire` can register the codecs without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..sim.messages import Message

__all__ = [
    "ERROR_CODES",
    "SESSION_STATES",
    "CertificateMessage",
    "CloseSessionMessage",
    "NamesAssignedMessage",
    "OpenSessionMessage",
    "QueryRequestMessage",
    "QueryResponseMessage",
    "RegisterIdsMessage",
    "ServerBusyMessage",
    "SessionErrorMessage",
    "SessionWelcomeMessage",
]

#: Every ``code`` a :class:`SessionErrorMessage` may carry. Append-only —
#: clients branch on these (documented in docs/robustness.md).
ERROR_CODES = (
    "wire",              # malformed/oversized frame (typed WireError)
    "protocol",          # well-formed frame at the wrong point in the session
    "config",            # unusable session parameters (bad algorithm/ids/t)
    "idle-timeout",      # no frame within the per-read idle deadline
    "deadline",          # session deadline expired before any id registered
    "safety-violation",  # the in-run monitor aborted the run (typed)
    "property-violation",  # post-run certificate check failed
    "wall-budget",       # per-session wall-clock budget breached
    "rss-budget",        # per-session RSS budget breached
    "shutdown",          # session shed during graceful drain
    "infra",             # server-side failure unrelated to the session
    "duplicate-session",   # idempotency token already executing right now
)

#: Every ``state`` a :class:`QueryResponseMessage` may carry.
SESSION_STATES = (
    "completed",   # terminal; the journaled NamesAssigned + Certificate follow
    "failed",      # terminal; the journaled SessionError follows
    "in-flight",   # accepted (possibly before a crash) but not yet terminal
    "unknown",     # the journal has never seen this token
)


@dataclass(frozen=True)
class OpenSessionMessage(Message):
    """Client → server: session parameters. Must be the first client frame.

    ``algorithm`` is a registered algorithm name or ``"auto"`` (the server
    selects the cheapest applicable regime via
    :class:`repro.core.params.SystemParams`). ``t`` is the number of faults
    the algorithm is configured to survive; with ``t > 0`` the run simulates
    ``t`` faulty slots driven by ``attack``, so only the correct slots'
    names come back (exactly the simulator's contract).

    ``session_id`` is an optional client-supplied **idempotency token**.
    Against a daemon running with ``--session-journal``, a token makes the
    submission durable and repeatable: re-submitting the same token (same
    parameters, same ids) after a crash or disconnect replays the journaled
    result byte-for-byte instead of re-running, and
    :class:`QueryRequestMessage` can ask for the outcome later. Empty means
    anonymous (pre-journal behaviour, nothing recorded).
    """

    algorithm: str = "auto"
    t: int = 0
    attack: str = "silent"
    seed: int = 0
    session_id: str = ""


@dataclass(frozen=True)
class RegisterIdsMessage(Message):
    """Client → server: original ids joining the session (repeatable)."""

    ids: Tuple[int, ...]

    @classmethod
    def from_ids(cls, ids) -> "RegisterIdsMessage":
        return cls(ids=tuple(int(identifier) for identifier in ids))


@dataclass(frozen=True)
class CloseSessionMessage(Message):
    """Client → server: the quorum is complete — run the algorithm."""


@dataclass(frozen=True)
class SessionWelcomeMessage(Message):
    """Server → client: the session is admitted.

    ``deadline_ms`` is the wall budget after which the server closes the
    quorum on its own (runs if ids were registered, rejects otherwise).
    """

    session_id: int
    max_ids: int
    deadline_ms: int


@dataclass(frozen=True)
class ServerBusyMessage(Message):
    """Server → client: explicit backpressure — no session slot is free
    (or the server is draining). Never a silent drop; retry later."""

    active: int
    limit: int


@dataclass(frozen=True)
class NamesAssignedMessage(Message):
    """Server → client: the assignment, as sorted (original, name) pairs."""

    entries: Tuple[Tuple[int, int], ...]
    algorithm: str
    rounds: int

    def names(self) -> dict:
        return {original: name for original, name in self.entries}


@dataclass(frozen=True)
class CertificateMessage(Message):
    """Server → client: the property certificate for the assignment.

    Produced by running the assignment through
    :func:`repro.analysis.properties.check_renaming` *server-side* before
    the response leaves the process. ``checked`` names the properties the
    certificate covers (order preservation only for algorithms that
    promise it); ``violations`` is empty iff ``ok``.
    """

    namespace: int
    ok: bool
    checked: Tuple[str, ...]
    violations: Tuple[str, ...]


@dataclass(frozen=True)
class QueryRequestMessage(Message):
    """Client → server: what happened to idempotency token ``session_id``?

    Must be the first (and only) client frame of its connection; only
    meaningful against a daemon running with ``--session-journal``.
    """

    session_id: str


@dataclass(frozen=True)
class QueryResponseMessage(Message):
    """Server → client: the journaled state of a queried token.

    ``state`` is one of :data:`SESSION_STATES`. For ``completed`` the
    journaled :class:`NamesAssignedMessage` + :class:`CertificateMessage`
    frames follow on the same connection, byte-identical to the ones the
    original submission received; for ``failed`` the journaled
    :class:`SessionErrorMessage` follows.
    """

    session_id: str
    state: str


@dataclass(frozen=True)
class SessionErrorMessage(Message):
    """Server → client: typed session failure (one of :data:`ERROR_CODES`).

    ``trace_pointer`` is a :class:`~repro.sim.errors.SafetyViolation`'s
    count of trace events, ``-1`` when the run was untraced — as daemon
    sessions always are. ``repro-renaming explain --session
    JOURNAL#TOKEN`` re-runs a journaled session traced and prints the
    round the violation fired in.
    """

    code: str
    detail: str
    trace_pointer: int = -1
