"""The checksummed record envelope and the other durability helpers.

Every durable artifact in the repo uses the same discipline: canonical
JSON (sorted keys, no whitespace) hashed with SHA-256. Two shapes carry
the hash:

* :func:`seal` / :func:`unseal` — ``{"schema", "checksum", <body>}``:
  result-store headers, task lists and terminal records, and the
  content-addressed memo entries behind
  :class:`~repro.analysis.executor.ResultCache`.
* :func:`record_checksum` — the ``crc`` of an append-only JSONL record
  ``{"v", "seq", "type", "data", "crc"}``, the line format of the service
  session journal (:mod:`repro.service.journal`).

Every durable write in the package goes through the file helpers here,
the only module that fsyncs: :func:`durable_file` (write, flush, fsync),
:func:`atomic_writer` / :func:`atomic_write_text` (a durable temp file,
then ``os.replace``), and, for the two append-only JSONL logs (the session
journal and the result store's ``events.jsonl``), :func:`append_line`,
the tail reader :func:`read_lines` and :func:`truncate_durably` (torn-tail
repair and the journal's rollback of a failed append). Each log parses
its lines itself.

Alongside them live :func:`config_fingerprint` (what a store's header
pins), :func:`scrub_volatile` / :func:`canonical_json` (the wall-clock-free
report form a resumed run must match byte for byte) and
:class:`CrashHook`, the deterministic SIGKILL test hook of the result
store and the session journal.

The on-disk bytes these produce are a compatibility contract: existing
stores, caches and journals must keep verifying. ``tests/test_envelope.py``
parses literal bytes written by earlier releases.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, List, Optional, Tuple, Type, Union

__all__ = [
    "CrashHook",
    "append_line",
    "atomic_write_text",
    "atomic_writer",
    "canonical",
    "canonical_json",
    "checksum",
    "config_fingerprint",
    "durable_file",
    "read_lines",
    "record_checksum",
    "scrub_volatile",
    "seal",
    "truncate_durably",
    "unseal",
]

#: Version folded into :func:`config_fingerprint`. The payload key is
#: ``"journal"`` for historical reasons; renaming it would change every
#: fingerprint and strand every existing store.
FINGERPRINT_VERSION = 1


def canonical(payload: object) -> str:
    """Canonical JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checksum(body: object) -> str:
    """SHA-256 hex of ``body``'s canonical JSON."""
    return hashlib.sha256(canonical(body).encode("utf-8")).hexdigest()


def seal(body: dict, *, schema: int, body_key: str = "body") -> dict:
    """Wrap ``body`` in a checksummed envelope."""
    return {"schema": schema, "checksum": checksum(body), body_key: body}


def unseal(payload: object, *, schema: int, body_key: str = "body") -> dict:
    """Verify an envelope and return its body.

    Raises ``ValueError`` naming the defect (stale schema, checksum
    mismatch, wrong shape) — callers decide whether that is a logged miss
    (memo entries, torn terminals) or an error.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"entry is {type(payload).__name__}, not an object"
        )
    found = payload.get("schema")
    if found != schema:
        raise ValueError(f"stale schema {found!r} (current {schema})")
    body = payload[body_key]
    if payload.get("checksum") != checksum(body):
        raise ValueError("checksum mismatch (corrupt or tampered entry)")
    return body


def record_checksum(version: int, seq: int, type_: str, data: dict) -> str:
    """The ``crc`` of one JSONL record."""
    return checksum({"v": version, "seq": seq, "type": type_, "data": data})


def config_fingerprint(kind: str, cells: List[dict]) -> str:
    """Fingerprint a run: SHA-256 over the *expanded* cell list.

    Hashing the expanded cells (not the compact config that generated them)
    means any change that alters what would actually execute — a new
    algorithm registered mid-grid, a regime filter change, reordered seeds —
    fails the store's seed-time fingerprint check instead of silently
    splicing two different runs together.
    """
    return checksum(
        {"journal": FINGERPRINT_VERSION, "kind": kind, "cells": cells}
    )


def scrub_volatile(payload):
    """Recursively zero wall-clock fields in a report payload.

    Two runs of the same seeded grid differ only in wall-clock measurements
    (``elapsed_s``) and pool size (``workers``); everything else is a pure
    function of the configuration. Scrubbing those fields yields the
    *canonical* report — the form in which a resumed run must be
    byte-identical to its uninterrupted control run.
    """
    if isinstance(payload, dict):
        return {
            key: (0.0 if key == "elapsed_s" else 1 if key == "workers"
                  else scrub_volatile(value))
            for key, value in payload.items()
        }
    if isinstance(payload, list):
        return [scrub_volatile(item) for item in payload]
    return payload


def canonical_json(payload: dict) -> str:
    """The canonical (volatile-scrubbed, key-sorted) JSON of a report."""
    return canonical(scrub_volatile(payload))


@contextmanager
def durable_file(path: Union[str, Path], mode: str = "w", **kw) -> Iterator[IO]:
    """Open ``path`` and yield the handle; on a clean exit flush and fsync
    it before closing, so the bytes are on disk when the block ends."""
    with open(path, mode, **kw) as handle:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())


@contextmanager
def atomic_writer(path: Union[str, Path], **kwargs) -> Iterator[IO]:
    """Yield a text handle on a temp file beside ``path``; on a clean exit
    make it durable and ``os.replace`` it onto ``path``.

    A crash at any point leaves either the old content or the new content at
    ``path`` — never a torn file. The temp file carries the target's name
    plus ``.tmp`` so a leftover from a killed writer is recognisable (and
    harmlessly overwritten by the next attempt).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with durable_file(tmp, "w", **kwargs) as handle:
        yield handle
    os.replace(tmp, path)


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically (see :func:`atomic_writer`)."""
    with atomic_writer(path) as handle:
        handle.write(text)
    return Path(path)


def append_line(path: Union[str, Path], line: str) -> int:
    """Append ``line`` and a newline to the log at ``path``, flushed and
    fsync'd before returning; returns the bytes appended."""
    data = line.encode("utf-8") + b"\n"
    with durable_file(path, "ab") as handle:
        handle.write(data)
    return len(data)


def read_lines(
    path: Union[str, Path], offset: int = 0
) -> Tuple[List[bytes], int, bytes]:
    """Read the log at ``path`` from byte ``offset``: its complete lines
    (newline stripped), the offset just past them, and the unterminated
    tail (``b""`` when the log ends on a newline). Raises ``OSError``."""
    with open(path, "rb") as handle:
        handle.seek(offset)
        raw = handle.read()
    *lines, tail = raw.split(b"\n")
    return lines, offset + len(raw) - len(tail), tail


def truncate_durably(path: Union[str, Path], length: int) -> int:
    """Cut the file at ``path`` to ``length`` bytes, fsync'd; returns the
    bytes dropped."""
    with open(path, "r+b") as handle:
        dropped = handle.seek(0, os.SEEK_END) - length
        handle.truncate(length)
        os.fsync(handle.fileno())
    return dropped


class CrashHook:
    """The deterministic SIGKILL test hook read from environment variable
    ``env`` (tests/CI only).

    ``<kind>:<count>`` SIGKILLs the process at the ``count``-th
    :meth:`fire` of ``kind`` — right after the matching write is durable,
    which is how the kill/resume and recovery suites crash mid-flight on
    cue. Unset, every :meth:`fire` is a no-op; a malformed spec raises
    ``error``, naming the kind as ``label``.
    """

    def __init__(self, env: str, error: Type[Exception], label: str) -> None:
        self._target: Optional[Tuple[str, int]] = None
        self._fired = 0
        spec = os.environ.get(env)
        if not spec:
            return
        try:
            kind, count = spec.split(":")
            self._target = (kind, int(count))
        except ValueError:
            raise error(
                f"bad {env}={spec!r} (expected '<{label}>:<count>')"
            ) from None

    def fire(self, kind: str) -> None:
        if self._target is None or kind != self._target[0]:
            return
        self._fired += 1
        if self._fired >= self._target[1]:
            os.kill(os.getpid(), signal.SIGKILL)
