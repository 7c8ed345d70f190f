"""Length-prefixed framing for the session protocol.

One frame = a 4-byte big-endian payload length followed by exactly one
:mod:`repro.wire` encoding. The layer is deliberately hostile-input-first:

* a declared length above the cap is rejected **from the header alone** —
  the body is never read, so an attacker cannot make the server buffer
  megabytes by promising them;
* a zero-length frame is rejected (no message encodes to zero bytes);
* payload garbage is whatever :func:`repro.wire.decode_message` says it
  is — always a typed :class:`~repro.wire.WireError`;
* a connection that ends mid-frame reads as ``None`` (the peer is gone),
  and a stored frame whose length disagrees with its header is rejected
  (:func:`decode_frame`).

:func:`read_frame` (the network) and :func:`decode_frame` (whole stored
frames, e.g. journaled responses) share one header check.

Every failure is a typed :class:`FrameError`/:class:`~repro.wire.WireError`
— never a hang, never a bare ``struct.error``, never an allocation bomb.
``tests/test_service_frames.py`` fuzzes exactly this contract.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Optional

from ..sim.messages import Message
from ..wire import WireError, decode_message, encode_message

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "HEADER_BYTES",
    "FrameError",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "write_frame",
]

#: Frame header: big-endian u32 payload length.
HEADER_BYTES = 4

#: Hard cap on one frame's payload. A session frame is a handful of ids or
#: names (kilobytes at most); anything larger is an attack or a bug.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024


class FrameError(WireError):
    """A frame violated the layer's contract (oversized, empty, truncated).

    Subclasses :class:`~repro.wire.WireError` so callers have one exception
    type for "the byte stream is garbage", whichever layer noticed."""


def encode_frame(
    message: Message, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Serialise ``message`` as one length-prefixed frame."""
    payload = encode_message(message)
    if len(payload) > max_frame_bytes:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds cap "
            f"{max_frame_bytes}"
        )
    return struct.pack(">I", len(payload)) + payload


def _payload_length(header: bytes, max_frame_bytes: int) -> int:
    """The payload length ``header`` declares; rejects a zero length or one
    over the cap from the header alone."""
    (length,) = struct.unpack(">I", header)
    if length == 0:
        raise FrameError("zero-length frame")
    if length > max_frame_bytes:
        raise FrameError(
            f"frame declares {length} bytes, cap is {max_frame_bytes}"
        )
    return length


def decode_frame(blob: bytes) -> Message:
    """Decode one whole frame — header plus exactly the payload it declares."""
    if len(blob) < HEADER_BYTES:
        raise FrameError(f"frame of {len(blob)} byte(s) has no full header")
    length = _payload_length(blob[:HEADER_BYTES], DEFAULT_MAX_FRAME_BYTES)
    if len(blob) - HEADER_BYTES != length:
        raise FrameError(
            f"frame declares {length} bytes, blob carries "
            f"{len(blob) - HEADER_BYTES}"
        )
    return decode_message(blob[HEADER_BYTES:])


async def read_frame(
    reader: asyncio.StreamReader,
    *,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Optional[Message]:
    """Read one frame; ``None`` on EOF (clean or mid-frame — either way the
    peer is gone and nothing can be sent back).

    Raises :class:`FrameError` on an oversized/empty header — *before*
    reading the body — and :class:`~repro.wire.WireError` on payload
    garbage.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    length = _payload_length(header, max_frame_bytes)
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return decode_message(payload)


async def write_frame(
    writer: asyncio.StreamWriter,
    message: Message,
    *,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> None:
    """Write one frame and drain the transport."""
    writer.write(encode_frame(message, max_frame_bytes=max_frame_bytes))
    await writer.drain()
