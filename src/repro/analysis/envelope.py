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

Alongside them live the run-identity and artifact helpers:
:func:`config_fingerprint` (what a store's header pins),
:func:`scrub_volatile` / :func:`canonical_json` (the wall-clock-free report
form a resumed run must match byte for byte) and
:func:`atomic_write_text` (write-temp, fsync, ``os.replace``).

The on-disk bytes these produce are a compatibility contract: existing
stores, caches and journals must keep verifying. ``tests/test_envelope.py``
parses literal bytes written by earlier releases.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import List, Union

__all__ = [
    "atomic_write_text",
    "canonical",
    "canonical_json",
    "checksum",
    "config_fingerprint",
    "record_checksum",
    "scrub_volatile",
    "seal",
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


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically: temp file in the target
    directory, flush + fsync, then ``os.replace``.

    A crash at any point leaves either the old content or the new content at
    ``path`` — never a torn file. The temp file carries the target's name
    plus ``.tmp`` so a leftover from a killed writer is recognisable (and
    harmlessly overwritten by the next attempt).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path
