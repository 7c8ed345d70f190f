"""Unit tests for messages and the bit-size accounting model."""

from __future__ import annotations

from fractions import Fraction

from repro.core.messages import (
    EchoMessage,
    IdMessage,
    MultiEchoMessage,
    RanksMessage,
    ReadyMessage,
)
from repro.sim import KIND_BITS, int_bits
from repro.sim.messages import RANK_FRACTION_BITS


class TestIntBits:
    def test_degenerate_namespaces(self):
        assert int_bits(0) == 1
        assert int_bits(1) == 1

    def test_powers_of_two(self):
        assert int_bits(2) == 1
        assert int_bits(256) == 8
        assert int_bits(1024) == 10

    def test_non_powers_round_up(self):
        assert int_bits(3) == 2
        assert int_bits(1000) == 10


class TestMessageSizes:
    def test_control_messages_carry_one_id(self):
        for cls in (IdMessage, EchoMessage, ReadyMessage):
            assert cls(5).bit_size(id_bits=20) == KIND_BITS + 20

    def test_ranks_message_scales_with_entries(self):
        small = RanksMessage.from_dict({1: Fraction(1)})
        large = RanksMessage.from_dict({i: Fraction(i) for i in range(1, 9)})
        per_entry = large.bit_size(id_bits=20, rank_bits=4) - KIND_BITS
        assert per_entry == 8 * (20 + 4 + RANK_FRACTION_BITS)
        assert small.bit_size(id_bits=20, rank_bits=4) < large.bit_size(
            id_bits=20, rank_bits=4
        )

    def test_multiecho_scales_with_ids(self):
        message = MultiEchoMessage.from_ids([3, 1, 2])
        assert message.bit_size(id_bits=10) == KIND_BITS + 3 * 10

    def test_kind_property(self):
        assert IdMessage(1).kind == "IdMessage"


class TestCanonicalForms:
    def test_ranks_entries_sorted_by_id(self):
        message = RanksMessage.from_dict({5: Fraction(2), 1: Fraction(9)})
        assert message.entries == ((1, Fraction(9)), (5, Fraction(2)))

    def test_ranks_roundtrip(self):
        ranks = {3: Fraction(7, 2), 9: Fraction(1, 3)}
        assert RanksMessage.from_dict(ranks).as_dict() == ranks

    def test_multiecho_sorted_and_deduplicated(self):
        message = MultiEchoMessage.from_ids([5, 1, 5, 3])
        assert message.ids == (1, 3, 5)

    def test_messages_hashable_and_equal(self):
        assert IdMessage(4) == IdMessage(4)
        assert hash(EchoMessage(4)) == hash(EchoMessage(4))
        assert IdMessage(4) != EchoMessage(4)
