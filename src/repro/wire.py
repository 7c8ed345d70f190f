"""Binary wire codec for every message type in the library.

The simulator passes Python objects, so a codec is not needed to *run*
anything — it exists to keep the bit-accounting model honest (experiment
E6) and to make the library usable over a real transport: every message
class round-trips through a compact, self-describing binary encoding, and
``tests/test_wire.py`` checks that the ``bit_size`` model tracks the real
encoded size.

Format: one tag byte per message, then the message's fields back to back,
each encoded by its kind: ``UINT`` (LEB128 varint), ``SINT`` (zigzag
varint), ``RANK``, ``TEXT`` (varint length + UTF-8), ``BOOL`` (one byte),
``seq(kind)`` (varint count + items), ``pair(a, b)`` and ``MESSAGE`` (a
nested tagged message, depth-capped). Ranks are exact: a ``Fraction``
travels as (zigzag numerator, varint denominator); floats are encoded as
their exact ``Fraction`` equivalent (``float.as_integer_ratio``), so the
codec never loses precision.

Each type's format is stated once, as a ``(tag, class, fields)`` row of
:data:`SCHEMA`; one generic encoder/decoder pair is built from every row.
Adding a message type is one schema row, plus a strategy in
``tests/test_wire_properties.py`` (``STRATEGIES``) and a golden-bytes pin in
``tests/test_wire.py`` (``GOLDEN``) — both suites fail until they exist.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Any, Callable, Dict, NamedTuple, Tuple, Type, Union

from .agreement.approximate import ValueMessage
from .agreement.eig import RelayMessage
from .baselines.splitting import ClaimMessage
from .core.messages import (
    EchoMessage,
    IdMessage,
    MultiEchoMessage,
    RanksMessage,
    ReadyMessage,
)
from .service.messages import (
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
from .sim.compose import EnvelopeMessage
from .sim.messages import Message


class WireError(ValueError):
    """Raised on any malformed encoding."""


# ----------------------------------------------------------------- varints


def write_varint(value: int, out: bytearray) -> None:
    """LEB128 unsigned varint."""
    if value < 0:
        raise WireError(f"varint needs a non-negative value, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Returns (value, new_offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise WireError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 127:
            raise WireError("varint too long")


def _write_signed(value: int, out: bytearray) -> None:
    """Zigzag + varint: 0, -1, 1, -2, 2 … encode as 0, 1, 2, 3, 4 …"""
    encoded = (value << 1) if value >= 0 else ((-value << 1) - 1)
    write_varint(encoded, out)


def _read_signed(data: bytes, offset: int) -> Tuple[int, int]:
    encoded, offset = read_varint(data, offset)
    value = encoded >> 1
    return (-value - 1 if encoded & 1 else value), offset


# ------------------------------------------------------------------- ranks

Rank = Union[int, float, Fraction]


def _write_rank(value: Rank, out: bytearray) -> None:
    if isinstance(value, float):
        # floats are exact binary fractions; as_integer_ratio is lossless.
        fraction = Fraction(*value.as_integer_ratio())
    else:
        fraction = Fraction(value)
    _write_signed(fraction.numerator, out)
    write_varint(fraction.denominator, out)


def _read_rank(data: bytes, offset: int) -> Tuple[Fraction, int]:
    numerator, offset = _read_signed(data, offset)
    denominator, offset = read_varint(data, offset)
    if denominator == 0:
        raise WireError("zero denominator")
    return Fraction(numerator, denominator), offset


# -------------------------------------------------------------------- text

#: Hard cap on one encoded string field. Service frames carry short
#: algorithm names and error details; a varint length claiming megabytes
#: is an allocation bomb, not a message.
MAX_TEXT_BYTES = 4096


def _write_text(value: str, out: bytearray) -> None:
    data = value.encode("utf-8")
    if len(data) > MAX_TEXT_BYTES:
        raise WireError(
            f"text field of {len(data)} bytes exceeds cap {MAX_TEXT_BYTES}"
        )
    write_varint(len(data), out)
    out.extend(data)


def _read_text(data: bytes, offset: int) -> Tuple[str, int]:
    length, offset = read_varint(data, offset)
    if length > MAX_TEXT_BYTES:
        raise WireError(
            f"text field of {length} bytes exceeds cap {MAX_TEXT_BYTES}"
        )
    if offset + length > len(data):
        raise WireError("truncated text field")
    try:
        value = data[offset:offset + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"text field is not valid UTF-8: {exc}") from exc
    return value, offset + length


# -------------------------------------------------------------- field kinds

Encoder = Callable[[Message, bytearray], None]
Decoder = Callable[[bytes, int], Tuple[Message, int]]


class Kind(NamedTuple):
    """How one field travels: a writer and its mirror-image reader."""

    write: Callable[[Any, bytearray], None]
    read: Callable[[bytes, int], Tuple[Any, int]]


def _write_bool(value: bool, out: bytearray) -> None:
    out.append(1 if value else 0)


def _read_bool(data: bytes, offset: int) -> Tuple[bool, int]:
    if offset >= len(data):
        raise WireError("truncated boolean field")
    return bool(data[offset]), offset + 1


UINT = Kind(write_varint, read_varint)
SINT = Kind(_write_signed, _read_signed)
RANK = Kind(_write_rank, _read_rank)
TEXT = Kind(_write_text, _read_text)
BOOL = Kind(_write_bool, _read_bool)


def seq(item: Kind) -> Kind:
    """A varint count, then that many ``item`` fields; decodes as a tuple."""
    write_item, read_item = item

    def write(values, out: bytearray) -> None:
        write_varint(len(values), out)
        for value in values:
            write_item(value, out)

    def read(data: bytes, offset: int):
        count, offset = read_varint(data, offset)
        values = []
        for _ in range(count):
            value, offset = read_item(data, offset)
            values.append(value)
        return tuple(values), offset

    return Kind(write, read)


def pair(first: Kind, second: Kind) -> Kind:
    """Two fields back to back; decodes as a 2-tuple."""
    (write_a, read_a), (write_b, read_b) = first, second

    def write(value, out: bytearray) -> None:
        a, b = value
        write_a(a, out)
        write_b(b, out)

    def read(data: bytes, offset: int):
        a, offset = read_a(data, offset)
        b, offset = read_b(data, offset)
        return (a, b), offset

    return Kind(write, read)


def _write_message(message: Message, out: bytearray) -> None:
    # The payload's own full encoding (tag byte included) — decoding is
    # sequential, so no length prefix is needed.
    try:
        tag, encoder, _ = _CODECS[type(message)]
    except KeyError:
        raise WireError(
            f"no codec registered for envelope payload "
            f"{type(message).__name__}"
        )
    out.append(tag)
    encoder(message, out)


def _read_message(data: bytes, offset: int) -> Tuple[Message, int]:
    if offset >= len(data):
        raise WireError("truncated envelope payload")
    tag = data[offset]
    try:
        _cls, decoder = _BY_TAG[tag]
    except KeyError:
        raise WireError(f"unknown wire tag {tag} inside envelope")
    return decoder(data, offset + 1)


#: A whole nested message, tag byte included.
MESSAGE = Kind(_write_message, _read_message)

#: Maximum envelope-in-envelope nesting the decoder accepts. Honest runs
#: nest at most a handful of multiplexer layers; a crafted byte stream of
#: back-to-back envelope tags would otherwise recurse once per byte and
#: escape as ``RecursionError`` instead of a typed :class:`WireError`.
MAX_ENVELOPE_DEPTH = 32

_envelope_depth = 0


def _depth_guarded(decode: Decoder) -> Decoder:
    """Count nesting around the decoder of a row with a ``MESSAGE`` field."""

    def guarded(data: bytes, offset: int):
        global _envelope_depth
        if _envelope_depth >= MAX_ENVELOPE_DEPTH:
            raise WireError(
                f"envelope nesting deeper than {MAX_ENVELOPE_DEPTH}"
            )
        _envelope_depth += 1
        try:
            return decode(data, offset)
        finally:
            _envelope_depth -= 1

    return guarded


# ------------------------------------------------------------------ schema
#
# One row per message type: (tag, class, fields). Fields are the class's
# dataclass fields, in order, each with its kind; the generic encoder
# writes them back to back after the tag byte and the decoder reads them
# back into ``cls(*values)``. Tags 22+ carry the renaming-session protocol
# of `repro-renaming serve` (:mod:`repro.service`) — control-plane traffic
# that never appears in simulated protocol rounds.

SCHEMA: Tuple[Tuple[int, Type[Message], Tuple[Tuple[str, Kind], ...]], ...] = (
    (0, IdMessage, (("id", UINT),)),
    (1, EchoMessage, (("id", UINT),)),
    (2, ReadyMessage, (("id", UINT),)),
    (16, RanksMessage, (("entries", seq(pair(UINT, RANK))),)),
    (17, MultiEchoMessage, (("ids", seq(UINT)),)),
    (18, ValueMessage, (("value", RANK),)),
    (19, ClaimMessage, (("id", UINT), ("lo", UINT), ("hi", UINT))),
    (20, RelayMessage, (("entries", seq(pair(seq(UINT), SINT))),)),
    (21, EnvelopeMessage, (("tag", UINT), ("payload", MESSAGE))),
    (22, OpenSessionMessage, (
        ("algorithm", TEXT), ("t", UINT), ("attack", TEXT), ("seed", UINT),
        ("session_id", TEXT),
    )),
    (23, RegisterIdsMessage, (("ids", seq(UINT)),)),
    (24, CloseSessionMessage, ()),
    (25, SessionWelcomeMessage, (
        ("session_id", UINT), ("max_ids", UINT), ("deadline_ms", UINT),
    )),
    (26, ServerBusyMessage, (("active", UINT), ("limit", UINT))),
    (27, NamesAssignedMessage, (
        ("entries", seq(pair(UINT, UINT))), ("algorithm", TEXT),
        ("rounds", UINT),
    )),
    (28, CertificateMessage, (
        ("namespace", UINT), ("ok", BOOL), ("checked", seq(TEXT)),
        ("violations", seq(TEXT)),
    )),
    (29, SessionErrorMessage, (
        ("code", TEXT), ("detail", TEXT), ("trace_pointer", SINT),
    )),
    (30, QueryRequestMessage, (("session_id", TEXT),)),
    (31, QueryResponseMessage, (("session_id", TEXT), ("state", TEXT))),
)


def _row_codec(
    cls: Type[Message], fields: Tuple[Tuple[str, Kind], ...]
) -> Tuple[Encoder, Decoder]:
    names = tuple(name for name, _ in fields)
    if names != tuple(field.name for field in dataclasses.fields(cls)):
        raise WireError(f"schema row for {cls.__name__} must list its fields")
    writers = tuple((name, kind.write) for name, kind in fields)
    readers = tuple(kind.read for _, kind in fields)

    def encode(message: Message, out: bytearray) -> None:
        for name, write in writers:
            write(getattr(message, name), out)

    def decode(data: bytes, offset: int):
        values = []
        for read in readers:
            value, offset = read(data, offset)
            values.append(value)
        return cls(*values), offset

    if any(kind is MESSAGE for _, kind in fields):
        decode = _depth_guarded(decode)
    return encode, decode


_CODECS: Dict[Type[Message], Tuple[int, Encoder, Decoder]] = {
    cls: (tag, *_row_codec(cls, fields)) for tag, cls, fields in SCHEMA
}
_BY_TAG: Dict[int, Tuple[Type[Message], Decoder]] = {
    tag: (cls, decoder) for cls, (tag, _, decoder) in _CODECS.items()
}
if len(_BY_TAG) != len(SCHEMA):
    raise WireError("SCHEMA repeats a wire tag or a message class")


# ------------------------------------------------------------------ public


def encode_message(message: Message) -> bytes:
    """Serialise any registered message to bytes; raises :class:`WireError`
    on a field value the format cannot carry (a NaN or infinite rank, a
    non-integer id), mirroring :func:`decode_message`."""
    try:
        tag, encoder, _ = _CODECS[type(message)]
    except KeyError:
        raise WireError(f"no codec registered for {type(message).__name__}")
    out = bytearray([tag])
    try:
        encoder(message, out)
    except WireError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise WireError(
            f"malformed {type(message).__name__} value: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return bytes(out)


def decode_message(data: bytes) -> Message:
    """Deserialise one message; raises :class:`WireError` on any garbage.

    *Any* garbage: field readers and message constructors may reject a
    crafted buffer with their own ``ValueError``/``TypeError``/etc. — those
    are wrapped here so a caller only ever has one exception type to catch
    for a malformed byte stream.
    """
    if not data:
        raise WireError("empty buffer")
    tag = data[0]
    try:
        _cls, decoder = _BY_TAG[tag]
    except KeyError:
        raise WireError(f"unknown wire tag {tag}") from None
    try:
        message, offset = decoder(data, 1)
    except WireError:
        raise
    except (
        ValueError,
        TypeError,
        KeyError,
        IndexError,
        OverflowError,
        RecursionError,
    ) as exc:
        raise WireError(
            f"malformed {_cls.__name__} encoding: {type(exc).__name__}: {exc}"
        ) from exc
    if offset != len(data):
        raise WireError(f"{len(data) - offset} trailing bytes")
    return message
