"""Renaming-as-a-service: the long-lived session daemon and its clients.

* :mod:`repro.service.messages` — the session protocol's wire messages
  (registered in :mod:`repro.wire` as tags 22+);
* :mod:`repro.service.frames` — the length-prefixed frame layer with a
  hard size cap and typed rejection;
* :mod:`repro.service.session` — session execution: algorithm selection
  via :class:`repro.core.params.SystemParams`, monitored runs, the
  property certificate;
* :mod:`repro.service.pool` — the session workers: one forked process
  per usable CPU, budget isolation, worker deaths contained to their
  session;
* :mod:`repro.service.server` — the asyncio daemon
  (``repro-renaming serve``): bounded admission with explicit
  backpressure, per-read idle deadlines, session deadlines, crash
  containment, graceful drain;
* :mod:`repro.service.load` — the load generator and client library
  (``repro-renaming load`` / ``query``): one client conversation for
  sessions and queries, client-side re-validation, latency percentiles,
  idempotent retries;
* :mod:`repro.service.journal` — the durable session journal
  (``--session-journal``): checksummed append-only idempotency ledger,
  crash-recoverable byte-identical replay;
* :mod:`repro.service.proxy` — the seeded network-fault chaos proxy
  (``repro-renaming proxy``): resets, truncation, corruption, stalls,
  duplicate delivery between client and daemon.

Attribute access is lazy: :mod:`repro.wire` imports the leaf
``service.messages`` module while *it* is still initialising, so this
package must not pull the frame layer (which imports ``repro.wire`` back)
at import time.
"""

from __future__ import annotations

from .messages import (  # noqa: F401 — the leaf module, always safe
    ERROR_CODES,
    SESSION_STATES,
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

_LAZY = {
    "FrameError": "frames",
    "DEFAULT_MAX_FRAME_BYTES": "frames",
    "decode_frame": "frames",
    "encode_frame": "frames",
    "read_frame": "frames",
    "write_frame": "frames",
    "SessionRequest": "session",
    "execute_session": "session",
    "select_algorithm": "session",
    "RenamingService": "server",
    "ServiceStats": "server",
    "LoadReport": "load",
    "run_load": "load",
    "run_query": "load",
    "run_session": "load",
    "validate_names": "load",
    "SessionJournal": "journal",
    "SessionJournalState": "journal",
    "SessionRecord": "journal",
    "scan_session_journal": "journal",
    "request_fingerprint": "journal",
    "ChaosProxy": "proxy",
    "ProxyFaults": "proxy",
    "ProxyStats": "proxy",
}

__all__ = sorted(
    [
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
    + list(_LAZY)
)


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
