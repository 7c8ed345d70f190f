"""Hostile-input fuzzing of the service frame layer.

The contract under test (``repro.service.frames``): whatever bytes arrive
— truncated, oversized, bit-flipped, arbitrarily chunked — :func:`read_frame`
either yields messages (``None`` at EOF) or raises a typed
:class:`~repro.wire.WireError`/:class:`~repro.service.frames.FrameError`.
It never hangs, never raises anything untyped, and never buffers a body
whose header already exceeds the cap.
"""

from __future__ import annotations

import asyncio
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.frames import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER_BYTES,
    FrameError,
    decode_frame,
    encode_frame,
    read_frame,
)
from repro.service.messages import (
    CloseSessionMessage,
    NamesAssignedMessage,
    OpenSessionMessage,
    RegisterIdsMessage,
    SessionErrorMessage,
)
from repro.wire import WireError

MESSAGES = st.one_of(
    st.builds(
        OpenSessionMessage,
        algorithm=st.text(max_size=32),
        t=st.integers(min_value=0, max_value=50),
        attack=st.text(max_size=32),
        seed=st.integers(min_value=0, max_value=2**31),
    ),
    st.builds(
        RegisterIdsMessage,
        ids=st.tuples()
        | st.lists(st.integers(min_value=1, max_value=2**40), max_size=16).map(tuple),
    ),
    st.builds(CloseSessionMessage),
    st.builds(
        SessionErrorMessage,
        code=st.text(max_size=16),
        detail=st.text(max_size=64),
        trace_pointer=st.integers(min_value=-1, max_value=2**20),
    ),
    st.builds(
        NamesAssignedMessage,
        entries=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=2**20),
                st.integers(min_value=1, max_value=2**20),
            ),
            max_size=12,
        ).map(tuple),
        algorithm=st.text(max_size=16),
        rounds=st.integers(min_value=0, max_value=1000),
    ),
)


def _serve_bytes(blob: bytes, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES, chunks=None):
    """Every frame :func:`read_frame` reads from ``blob``, fed to the
    StreamReader in ``chunks`` (sizes; default: all at once), until EOF."""

    async def main():
        reader = asyncio.StreamReader()
        sizes = list(chunks or [len(blob)])

        async def feed():
            position = 0
            for size in sizes:
                reader.feed_data(blob[position:position + size])
                position += size
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.create_task(feed())
        frames = []
        try:
            while True:
                frame = await read_frame(reader, max_frame_bytes=max_frame_bytes)
                if frame is None:
                    return frames
                frames.append(frame)
        finally:
            await feeder

    return asyncio.run(main())


class TestRoundTrip:
    @given(messages=st.lists(MESSAGES, min_size=1, max_size=8), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_chunking_reassembles_the_stream(self, messages, data):
        blob = b"".join(encode_frame(m) for m in messages)
        sizes = []
        position = 0
        while position < len(blob):
            size = data.draw(
                st.integers(min_value=1, max_value=len(blob) - position)
            )
            sizes.append(size)
            position += size
        assert _serve_bytes(blob, chunks=sizes) == messages

    def test_single_byte_trickle(self):
        message = RegisterIdsMessage(ids=(1, 2, 3))
        blob = encode_frame(message)
        assert _serve_bytes(blob, chunks=[1] * len(blob)) == [message]


class TestHostileInput:
    @given(garbage=st.binary(min_size=0, max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_raise_untyped(self, garbage):
        try:
            _serve_bytes(garbage, max_frame_bytes=128)
        except WireError:
            pass  # typed rejection is the contract

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_flipped_frames_fail_typed_or_decode(self, data):
        message = data.draw(MESSAGES)
        blob = bytearray(encode_frame(message))
        position = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        blob[position] ^= 1 << bit
        try:
            _serve_bytes(bytes(blob))
        except WireError:
            pass  # flips in the header or payload must stay typed

    def test_truncated_stream_is_detectable(self):
        blob = encode_frame(CloseSessionMessage())
        assert _serve_bytes(blob[:-1]) == []

    def test_zero_length_frame_is_rejected(self):
        with pytest.raises(FrameError, match="zero-length"):
            _serve_bytes(struct.pack(">I", 0))

    def test_oversize_header_rejected_without_the_body(self):
        # Header alone, body never sent: the declared size is enough.
        with pytest.raises(FrameError, match="cap"):
            _serve_bytes(struct.pack(">I", 2**31), max_frame_bytes=64)

    def test_oversize_encode_is_rejected(self):
        big = NamesAssignedMessage(
            entries=tuple((i + 1, i + 1) for i in range(64)),
            algorithm="alg1",
            rounds=1,
        )
        with pytest.raises(FrameError):
            encode_frame(big, max_frame_bytes=16)

    def test_garbage_payload_of_valid_length_is_typed(self):
        payload = b"\xff" * 10  # tag 255 is unregistered
        with pytest.raises(WireError):
            _serve_bytes(struct.pack(">I", len(payload)) + payload)


class TestDecodeFrame:
    def test_exact_length_decodes(self):
        message = RegisterIdsMessage(ids=(4, 5))
        assert decode_frame(encode_frame(message)) == message

    def test_short_blob_is_rejected(self):
        blob = encode_frame(RegisterIdsMessage(ids=(4, 5)))
        with pytest.raises(FrameError, match="blob carries"):
            decode_frame(blob[:-1])
        with pytest.raises(FrameError, match="no full header"):
            decode_frame(blob[:HEADER_BYTES - 1])

    def test_long_blob_is_rejected(self):
        blob = encode_frame(CloseSessionMessage())
        with pytest.raises(FrameError, match="blob carries"):
            decode_frame(blob + b"\x00")

    def test_header_checks_are_read_frames(self):
        with pytest.raises(FrameError, match="zero-length"):
            decode_frame(struct.pack(">I", 0))
        with pytest.raises(FrameError, match="cap"):
            decode_frame(struct.pack(">I", 2**31) + b"x")


class TestAsyncReadFrame:
    def test_reads_messages_then_none_on_eof(self):
        msgs = [OpenSessionMessage(), CloseSessionMessage()]
        blob = b"".join(encode_frame(m) for m in msgs)
        assert _serve_bytes(blob) == msgs

    def test_mid_frame_eof_is_none_not_hang(self):
        blob = encode_frame(OpenSessionMessage())[:-2]
        assert _serve_bytes(blob) == []

    def test_oversize_header_raises_before_body(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", 2**30))
            with pytest.raises(FrameError, match="cap"):
                await read_frame(reader, max_frame_bytes=64)

        asyncio.run(main())

    def test_zero_length_header_raises(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", 0))
            with pytest.raises(FrameError, match="zero-length"):
                await read_frame(reader)

        asyncio.run(main())
