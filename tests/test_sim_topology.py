"""Unit tests for the link-labelled full-mesh topology."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.sim import ConfigurationError, FullMeshTopology
from repro.sim.rng import derive_rng


class TestFullMeshTopology:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            FullMeshTopology(0)

    def test_self_loop_is_label_n(self):
        topology = FullMeshTopology(5, seed=1)
        for process in range(5):
            assert topology.peer_of(process, topology.self_link) == process

    def test_labels_cover_one_to_n(self):
        topology = FullMeshTopology(6, seed=2)
        assert list(topology.labels()) == [1, 2, 3, 4, 5, 6]

    def test_each_label_maps_to_distinct_peer(self):
        topology = FullMeshTopology(7, seed=3)
        for process in range(7):
            peers = [topology.peer_of(process, label) for label in topology.labels()]
            assert sorted(peers) == list(range(7))

    def test_label_of_inverts_peer_of(self):
        topology = FullMeshTopology(8, seed=4)
        for process in range(8):
            for label in topology.labels():
                peer = topology.peer_of(process, label)
                if peer != process:
                    assert topology.label_of(process, peer) == label

    def test_labelling_deterministic_in_seed(self):
        first = FullMeshTopology(9, seed=5)
        second = FullMeshTopology(9, seed=5)
        for process in range(9):
            for label in first.labels():
                assert first.peer_of(process, label) == second.peer_of(process, label)

    def test_labelling_varies_with_seed(self):
        first = FullMeshTopology(9, seed=5)
        second = FullMeshTopology(9, seed=6)
        differs = any(
            first.peer_of(p, label) != second.peer_of(p, label)
            for p in range(9)
            for label in first.labels()
        )
        assert differs

    def test_labels_are_private_per_process(self):
        # The label p uses for q generally differs from the label q uses for
        # p — labels carry no global identity. Check it differs somewhere.
        topology = FullMeshTopology(10, seed=7)
        asymmetric = any(
            topology.label_of(p, q) != topology.label_of(q, p)
            for p in range(10)
            for q in range(10)
            if p != q
        )
        assert asymmetric

    def test_invalid_label_raises(self):
        # Out-of-range labels, negative ones included, must never wrap.
        topology = FullMeshTopology(4, seed=0)
        for process in range(4):
            for label in (0, 5, -1, -4):
                with pytest.raises(ConfigurationError, match="invalid link label"):
                    topology.peer_of(process, label)

    def test_missing_link_raises(self):
        topology = FullMeshTopology(4, seed=0)
        for process in range(4):
            for peer in (99, 4, -1, -4):
                with pytest.raises(ConfigurationError, match="no link"):
                    topology.label_of(process, peer)

    def test_single_process_topology(self):
        topology = FullMeshTopology(1, seed=0)
        assert topology.self_link == 1
        assert topology.peer_of(0, 1) == 0

    def test_invalid_process_index_raises(self):
        # A negative index must not wrap around to process n-1's table.
        topology = FullMeshTopology(4, seed=0)
        for process in (-1, -2, -4, 4):
            with pytest.raises(ConfigurationError, match="invalid process index"):
                topology.peer_of(process, 1)
            with pytest.raises(ConfigurationError, match="invalid process index"):
                topology.label_of(process, 0)

    def test_bulk_tables_match_per_label_queries(self):
        topology = FullMeshTopology(6, seed=8)
        for process in range(6):
            row = [topology.peer_of(process, label) for label in topology.labels()]
            assert list(topology.port_rows[process]) == row
            assert topology.port_row(process) == topology.port_rows[process]
            for peer in range(6):
                assert topology.label_row(process)[peer] == topology.label_of(
                    process, peer
                )


#: Seeds of the golden wiring pin, including one above 2**32.
GOLDEN_SEEDS = (0, 1, 5, 10_000, 2**40 + 3)

#: SHA-256 prefix of every process's port row (``peer_of`` over
#: ``labels()``) for each seed in ``GOLDEN_SEEDS``, keyed by ``n``. Every
#: recorded result, cache key and golden trace depends on this wiring, so
#: a change to how the labelling is drawn, or to the interpreter's
#: ``random`` stream, fails here first.
GOLDEN_WIRING = {
    1: "112cca361026ce6b3e3079191d7a3af4",
    2: "3b9fc5d1d9949282c67de965e9e4311a",
    3: "3ec39e02e017ba4c7f0a692733893196",
    7: "2dd4d3fb89bfb4ec9b907f9790904693",
    13: "73305e1ba9d36741ced896c68f3fff5a",
    64: "476e87f4c6fe0a4590b154fe0569bb24",
    200: "f496aa0b442292ece17173259e78cae0",
}


def _wiring_digest(n: int) -> str:
    hasher = hashlib.sha256()
    for seed in GOLDEN_SEEDS:
        topology = FullMeshTopology(n, seed=seed)
        for process in range(n):
            row = [topology.peer_of(process, label) for label in topology.labels()]
            hasher.update(repr(row).encode("ascii"))
    return hasher.hexdigest()[:32]


@pytest.mark.parametrize("n", sorted(GOLDEN_WIRING))
def test_wiring_matches_golden_digest(n):
    assert _wiring_digest(n) == GOLDEN_WIRING[n]


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 3), (5, 1), (9, 42), (31, 2**40 + 3)])
def test_port_rows_are_a_seeded_stdlib_shuffle(n, seed):
    # The labelling is defined as: shuffle the other processes with the
    # per-process topology stream, then append the self-loop.
    topology = FullMeshTopology(n, seed=seed)
    for process in range(n):
        others = [q for q in range(n) if q != process]
        derive_rng(seed, "topology", process).shuffle(others)
        row = [topology.peer_of(process, label) for label in topology.labels()]
        assert row == others + [process]


@pytest.mark.parametrize("order", ["reverse", "shuffled"])
@pytest.mark.parametrize("n", sorted(GOLDEN_WIRING))
def test_rows_built_in_any_order_match_golden_digest(n, order):
    # Each row is drawn on first read from its own stream, so building the
    # rows out of order must leave every row's bits unchanged.
    hasher = hashlib.sha256()
    for seed in GOLDEN_SEEDS:
        topology = FullMeshTopology(n, seed=seed)
        processes = list(reversed(range(n)))
        if order == "shuffled":
            random.Random(seed).shuffle(processes)
        rows = {
            process: [topology.peer_of(process, label) for label in topology.labels()]
            for process in processes
        }
        for process in range(n):
            hasher.update(repr(rows[process]).encode("ascii"))
    assert hasher.hexdigest()[:32] == GOLDEN_WIRING[n]


def _rows_read_through(topology, query):
    """Every port row of ``topology``, read through ``query`` alone."""
    n = topology.n
    if query == "port_rows":
        return [list(row) for row in topology.port_rows]
    if query == "peer_of":
        return [
            [topology.peer_of(process, label) for label in topology.labels()]
            for process in range(n)
        ]
    rows = [[None] * n for _ in range(n)]
    for process in range(n):
        for peer in range(n):
            rows[process][topology.label_of(process, peer) - 1] = peer
    return rows


QUERIES = ("port_rows", "peer_of", "label_of")


@pytest.mark.parametrize("first", QUERIES)
def test_queries_agree_with_port_rows_whichever_is_read_first(first):
    expected = _rows_read_through(FullMeshTopology(9, seed=42), "port_rows")
    topology = FullMeshTopology(9, seed=42)
    assert _rows_read_through(topology, first) == expected
    for query in QUERIES:
        assert _rows_read_through(topology, query) == expected
