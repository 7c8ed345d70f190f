"""Tests for the binary wire codec, including bit-model grounding."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.agreement.approximate import ValueMessage
from repro.agreement.eig import RelayMessage
from repro.baselines.splitting import ClaimMessage
from repro.core.messages import (
    EchoMessage,
    IdMessage,
    MultiEchoMessage,
    RanksMessage,
    ReadyMessage,
)
from repro.service.messages import (
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
from repro.sim.compose import EnvelopeMessage
from repro.wire import (
    SCHEMA,
    WireError,
    decode_message,
    encode_message,
    read_varint,
    write_varint,
)

ids_st = st.integers(min_value=1, max_value=2**40)
# Denominators are bounded so numerator × denominator stays inside the
# codec's 127-bit varint cap (protocol ranks are ~n², far inside; an
# unbounded draw can exceed the cap and trip the DoS guard by design).
ranks_st = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**18
)


class TestVarints:
    @given(st.integers(min_value=0, max_value=2**70))
    def test_roundtrip(self, value):
        out = bytearray()
        write_varint(value, out)
        decoded, offset = read_varint(bytes(out), 0)
        assert decoded == value and offset == len(out)

    def test_small_values_one_byte(self):
        out = bytearray()
        write_varint(127, out)
        assert len(out) == 1

    def test_negative_rejected(self):
        with pytest.raises(WireError):
            write_varint(-1, bytearray())

    def test_truncated_rejected(self):
        out = bytearray()
        write_varint(10**9, out)
        with pytest.raises(WireError):
            read_varint(bytes(out[:-1]), 0)


class TestRoundtrips:
    @given(identifier=ids_st)
    def test_control_messages(self, identifier):
        for cls in (IdMessage, EchoMessage, ReadyMessage):
            message = cls(identifier)
            assert decode_message(encode_message(message)) == message

    @given(entries=st.dictionaries(ids_st, ranks_st, max_size=12))
    def test_ranks_message(self, entries):
        message = RanksMessage.from_dict(entries)
        assert decode_message(encode_message(message)) == message

    @given(ids=st.lists(ids_st, max_size=15))
    def test_multiecho(self, ids):
        message = MultiEchoMessage.from_ids(ids)
        assert decode_message(encode_message(message)) == message

    @given(value=ranks_st)
    def test_value_message(self, value):
        message = ValueMessage(value)
        assert decode_message(encode_message(message)) == message

    def test_float_value_exact(self):
        message = ValueMessage(0.1)
        decoded = decode_message(encode_message(message))
        # Encoded as the float's exact binary fraction.
        assert decoded.value == Fraction(*(0.1).as_integer_ratio())

    @given(identifier=ids_st, lo=st.integers(1, 100), width=st.integers(0, 50))
    def test_claim(self, identifier, lo, width):
        message = ClaimMessage(identifier, lo, lo + width)
        assert decode_message(encode_message(message)) == message

    def test_relay(self):
        message = RelayMessage(
            entries=(((0, 3), 42), ((1,), -7), ((), 5))
        )
        assert decode_message(encode_message(message)) == message

    @given(value=st.integers(min_value=-10**9, max_value=10**9))
    def test_broadcast_values(self, value):
        """A signed value round-trips exactly through ``SINT`` (EIG's
        relayed values, the one protocol field of that kind)."""
        message = RelayMessage(entries=(((0, 1), value),))
        assert decode_message(encode_message(message)) == message

    def test_every_registered_type_roundtrips(self):
        samples = {
            "IdMessage": IdMessage(5),
            "EchoMessage": EchoMessage(5),
            "ReadyMessage": ReadyMessage(5),
            "RanksMessage": RanksMessage.from_dict({1: Fraction(3, 2)}),
            "MultiEchoMessage": MultiEchoMessage.from_ids([1, 2]),
            "ValueMessage": ValueMessage(Fraction(1, 3)),
            "ClaimMessage": ClaimMessage(4, 1, 8),
            "RelayMessage": RelayMessage(entries=(((2,), 6),)),
            "EnvelopeMessage": EnvelopeMessage(
                tag=3, payload=RelayMessage(entries=(((1,), 9),))
            ),
            "OpenSessionMessage": OpenSessionMessage(
                algorithm="auto", t=2, attack="conforming", seed=11,
                session_id="load-42",
            ),
            "QueryRequestMessage": QueryRequestMessage(session_id="load-42"),
            "QueryResponseMessage": QueryResponseMessage(
                session_id="load-42", state="completed"
            ),
            "RegisterIdsMessage": RegisterIdsMessage(ids=(4, 9, 17)),
            "CloseSessionMessage": CloseSessionMessage(),
            "SessionWelcomeMessage": SessionWelcomeMessage(
                session_id=3, max_ids=128, deadline_ms=5000
            ),
            "ServerBusyMessage": ServerBusyMessage(active=8, limit=8),
            "NamesAssignedMessage": NamesAssignedMessage(
                entries=((4, 1), (9, 2)), algorithm="alg4", rounds=2
            ),
            "CertificateMessage": CertificateMessage(
                namespace=10,
                ok=False,
                checked=("validity", "uniqueness"),
                violations=("uniqueness: name 2 assigned twice",),
            ),
            "SessionErrorMessage": SessionErrorMessage(
                code="wire", detail="bad frame", trace_pointer=-1
            ),
        }
        for _, cls, _ in SCHEMA:
            sample = samples.get(cls.__name__)
            if sample is None:
                sample = cls(7)
            assert decode_message(encode_message(sample)) == sample


#: One canonical instance of every registered type and its exact encoding.
#: A restarted ``--session-journal`` daemon replays stored wire bytes, and
#: E6 counts real encoded sizes, so the format itself is pinned here: any
#: byte that moves is a wire-format break, not a refactor.
GOLDEN = {
    IdMessage: (IdMessage(300), "00ac02"),
    EchoMessage: (EchoMessage(2**40), "01808080808020"),
    ReadyMessage: (ReadyMessage(7), "0207"),
    RanksMessage: (
        RanksMessage(entries=((3, Fraction(-7, 2)), (9, 0.75), (200, 4))),
        "1003030d02090604c8010801",
    ),
    MultiEchoMessage: (MultiEchoMessage(ids=(1, 128, 70000)), "1103018001f0a204"),
    ValueMessage: (ValueMessage(Fraction(1, 3)), "120203"),
    ClaimMessage: (ClaimMessage(1000, 1, 8), "13e8070108"),
    RelayMessage: (
        RelayMessage(entries=(((0, 3), 42), ((), -7))), "140202000354000d"
    ),
    EnvelopeMessage: (
        EnvelopeMessage(
            tag=2,
            payload=EnvelopeMessage(
                tag=130, payload=RanksMessage(entries=((5, Fraction(3, 2)),))
            ),
        ),
        "15021582011001050602",
    ),
    OpenSessionMessage: (
        OpenSessionMessage(
            algorithm="alg1", t=2, attack="id-forging", seed=300,
            session_id="load-42",
        ),
        "1604616c6731020a69642d666f7267696e67ac02076c6f61642d3432",
    ),
    RegisterIdsMessage: (RegisterIdsMessage(ids=(4, 9, 2**20)), "17030409808040"),
    CloseSessionMessage: (CloseSessionMessage(), "18"),
    SessionWelcomeMessage: (
        SessionWelcomeMessage(session_id=3, max_ids=128, deadline_ms=5000),
        "190380018827",
    ),
    ServerBusyMessage: (ServerBusyMessage(active=8, limit=8), "1a0808"),
    NamesAssignedMessage: (
        NamesAssignedMessage(
            entries=((4, 1), (9, 2)), algorithm="alg4", rounds=2
        ),
        "1b020401090204616c673402",
    ),
    CertificateMessage: (
        CertificateMessage(
            namespace=10,
            ok=True,
            checked=("validity", "uniqueness"),
            violations=("naïve ✓",),
        ),
        "1c0a01020876616c69646974790a756e697175656e657373"
        "010a6e61c3af766520e29c93",
    ),
    SessionErrorMessage: (
        SessionErrorMessage(code="wire", detail="bad frame", trace_pointer=-1),
        "1d047769726509626164206672616d6501",
    ),
    QueryRequestMessage: (
        QueryRequestMessage(session_id="load-42"), "1e076c6f61642d3432"
    ),
    QueryResponseMessage: (
        QueryResponseMessage(session_id="load-42", state="completed"),
        "1f076c6f61642d343209636f6d706c65746564",
    ),
}


class TestGoldenBytes:
    def test_every_registered_type_is_pinned(self):
        assert set(GOLDEN) == {cls for _, cls, _ in SCHEMA}

    @pytest.mark.parametrize(
        "cls", sorted(GOLDEN, key=lambda cls: cls.__name__),
        ids=lambda cls: cls.__name__,
    )
    def test_encoding_is_byte_identical(self, cls):
        message, golden = GOLDEN[cls]
        assert encode_message(message).hex() == golden
        assert decode_message(bytes.fromhex(golden)) == message


class TestUnencodableValues:
    """Field values the codec cannot represent (Byzantine votes carry NaN
    ranks and non-integer ids) must surface as :class:`WireError`, like
    every malformed decode — never as a raw ``ValueError``/``TypeError``."""

    @pytest.mark.parametrize(
        "message",
        [
            RanksMessage(entries=((7, float("nan")),)),
            RanksMessage(entries=((7, float("inf")),)),
            RanksMessage(entries=(("7", 1),)),
            MultiEchoMessage(ids=(1.5,)),
        ],
        ids=["nan-rank", "inf-rank", "str-id", "float-id"],
    )
    def test_encode_raises_wire_error(self, message):
        name = type(message).__name__
        with pytest.raises(WireError, match=f"malformed {name} value"):
            encode_message(message)


class TestMalformed:
    def test_empty(self):
        with pytest.raises(WireError):
            decode_message(b"")

    def test_unknown_tag(self):
        with pytest.raises(WireError):
            decode_message(bytes([200]))

    def test_trailing_garbage(self):
        data = encode_message(IdMessage(5)) + b"\x00"
        with pytest.raises(WireError):
            decode_message(data)

    def test_zero_denominator(self):
        good = bytearray(encode_message(ValueMessage(Fraction(1, 3))))
        good[-1] = 0  # denominator varint -> 0
        with pytest.raises(WireError):
            decode_message(bytes(good))

    def test_unregistered_type(self):
        from repro.sim.messages import Message

        class Strange(Message):
            pass

        with pytest.raises(WireError):
            encode_message(Strange())


class TestBitModelGrounding:
    """The bit_size model must track real encoded sizes (experiment E6's
    accounting is only meaningful if it does). The model is an upper-bound
    style estimate with fixed per-field widths; real varint encodings of
    laptop-scale payloads must come in at or under it."""

    def test_control_messages_within_model(self):
        for identifier in (1, 1000, 2**20):
            for cls in (IdMessage, EchoMessage, ReadyMessage):
                message = cls(identifier)
                bits = 8 * len(encode_message(message))
                assert bits <= message.bit_size(id_bits=21) + 16

    def test_ranks_message_scales_with_model(self):
        small = RanksMessage.from_dict({1: Fraction(3, 2)})
        big = RanksMessage.from_dict(
            {i: Fraction(i, 3) + i for i in range(1, 20)}
        )
        big_bits = 8 * len(encode_message(big))
        assert big_bits > 8 * len(encode_message(small))
        assert big_bits <= big.bit_size(id_bits=21, rank_bits=16)

    def test_multiecho_within_model(self):
        message = MultiEchoMessage.from_ids(range(1, 30))
        bits = 8 * len(encode_message(message))
        assert bits <= message.bit_size(id_bits=21) + 16
