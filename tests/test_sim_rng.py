"""Unit tests for deterministic random-stream derivation."""

from __future__ import annotations

from repro.sim import derive_rng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "topology", 3) == derive_seed(42, "topology", 3)

    def test_varies_with_seed(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_varies_with_tokens(self):
        assert derive_seed(1, "topology", 0) != derive_seed(1, "topology", 1)
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_token_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_int_and_string_tokens_distinct(self):
        # repr-based encoding: the int 1 and the string "1" are different paths.
        assert derive_seed(7, 1) != derive_seed(7, "1")

    def test_no_token_prefix_collision(self):
        # ("ab",) must differ from ("a", "b") — the separator prevents
        # concatenation collisions.
        assert derive_seed(3, "ab") != derive_seed(3, "a", "b")

    def test_result_fits_64_bits(self):
        for seed in (0, 1, 2**31, 2**62):
            assert 0 <= derive_seed(seed, "t") < 2**64


class TestDeriveRng:
    def test_same_stream_reproducible(self):
        first = derive_rng(9, "adversary")
        second = derive_rng(9, "adversary")
        assert [first.random() for _ in range(5)] == [
            second.random() for _ in range(5)
        ]

    def test_independent_streams_differ(self):
        a = derive_rng(9, "process", 0)
        b = derive_rng(9, "process", 1)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]
