"""Unit tests for the batched engine's shared broadcast tuples and lazy inboxes.

The behavioural contract (batched ≡ reference across the full algorithm ×
attack × seed grid, under chaos, through the wire) lives in
``test_engine_differential.py`` and ``test_chaos_differential.py``. This
file covers what the differential grids cannot see from the outside:

* :class:`PortInbox` Mapping semantics against a plain dict oracle —
  contents, ascending-link iteration, ``KeyError`` behaviour, equality,
  bool-key aliasing;
* retained-inbox stability: a delivered view must keep showing its own
  round after later rounds build new layers;
* mixed dense/overlay rounds (broadcast + targeted sends in one round)
  observed from *inside* ``deliver`` via inbox snapshots;
* tuple identity: every receiver of one correct sender's broadcast holds
  the *same* tuple object, equal multi-id broadcasts of different correct
  senders are one tuple object, while single-message broadcasts and
  Byzantine traffic arrive as distinct objects (the per-tuple id folds rely
  on all of these);
* the shared :meth:`RunMetrics.observe_send` accounting primitive
  producing identical counters on every engine;
* the engine registry and the runtime import path staying numpy-free.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from helpers import assert_runs_identical, port_inbox, run_registered, standard_ids
from repro.cli import EXIT_INFRA, main
from repro.core.messages import EchoMessage, IdMessage
from repro.sim import (
    BROADCAST,
    Adversary,
    ConfigurationError,
    Process,
    engine_names,
    resolve_engine,
    run_protocol,
)

ALL_ENGINES = tuple(engine_names())


def _make_inbox():
    """Process 0 of n=3: link 1 -> peer 1, link 2 -> peer 2, link 3 -> self.

    Peer 0 (self) broadcast ``a``; peer 2's traffic arrived via the
    overlay as ``b``; peer 1 sent nothing. Expected view: {2: (b,), 3: (a,)}.
    """
    a, b = IdMessage(10), IdMessage(20)
    inbox = port_inbox([1, 2, 0], [(a,), None, None], {2: [b]})
    return inbox, {2: (b,), 3: (a,)}


class TestPortInboxMapping:
    def test_contents_match_dict_oracle(self):
        inbox, oracle = _make_inbox()
        assert dict(inbox) == oracle
        assert list(inbox) == sorted(oracle)  # ascending link order
        assert len(inbox) == len(oracle)
        assert inbox.keys() == oracle.keys()
        assert sorted(inbox.items()) == sorted(oracle.items())
        assert list(inbox.values()) == [oracle[link] for link in sorted(oracle)]
        assert 2 in inbox and 1 not in inbox

    def test_equality_both_ways(self):
        inbox, oracle = _make_inbox()
        assert inbox == oracle
        assert oracle == inbox
        assert inbox == _make_inbox()[0]
        assert inbox != {**oracle, 1: (IdMessage(9),)}
        assert inbox != {}
        assert inbox != "not a mapping"

    def test_missing_links_raise_keyerror(self):
        inbox, _ = _make_inbox()
        for bad in (0, 1, 4, 99, BROADCAST, "2", None):
            with pytest.raises(KeyError):
                inbox[bad]
            assert inbox.get(bad) is None

    def test_negative_links_do_not_wrap_around(self):
        # Plain dicts have no key -1, while the port row is a list that
        # indexes from the end; the view must keep dict semantics.
        inbox, _ = _make_inbox()
        with pytest.raises(KeyError):
            inbox[-1]

    def test_bool_key_aliases_link_one(self):
        # dict semantics: d[True] is d[1].
        a = IdMessage(1)
        inbox = port_inbox([1, 0], [None, (a,)])
        assert inbox[1] == (a,)
        assert inbox[True] == (a,)


class _RetainsInbox(Process):
    """Broadcasts a round-tagged message; snapshots every inbox and checks
    previously retained views never change as later rounds are routed."""

    ROUNDS = 4

    def __init__(self, ctx):
        super().__init__(ctx)
        self.retained = []  # [(inbox, frozen snapshot), ...]

    def send(self, round_no):
        return self.broadcast(IdMessage(self.ctx.my_id * 100 + round_no))

    def deliver(self, round_no, inbox):
        for view, snapshot in self.retained:
            assert dict(view) == snapshot, "retained inbox mutated"
        self.retained.append((inbox, dict(inbox)))
        if round_no == self.ROUNDS:
            self.output_value = self.ctx.my_id


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_retained_inboxes_survive_later_rounds(engine):
    result = run_protocol(
        _RetainsInbox, n=4, t=0, ids=standard_ids(4), seed=0, engine=engine
    )
    for process in result.processes.values():
        assert len(process.retained) == _RetainsInbox.ROUNDS
        # Each round's view shows that round's messages, not the last one's.
        for round_index, (_, snapshot) in enumerate(process.retained, start=1):
            tags = {m.id % 100 for msgs in snapshot.values() for m in msgs}
            assert tags == {round_index}


class _MixedSender(Process):
    """Broadcast + targeted point-to-point in one outbox (dense layer and
    overlay compose in the same round); snapshots what arrives."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.seen = []

    def send(self, round_no):
        outbox = self.broadcast(IdMessage(self.ctx.my_id))
        if round_no == 2:
            # Everyone also pokes link 1 directly — and the id-10 process
            # goes overlay-only that round (no broadcast at all).
            if self.ctx.my_id == 10:
                return {1: [IdMessage(-1)], 2: [IdMessage(-2), IdMessage(-2)]}
            outbox[1] = [IdMessage(-self.ctx.my_id)]
        return outbox

    def deliver(self, round_no, inbox):
        self.seen.append((round_no, {k: tuple(inbox[k]) for k in inbox}))
        if round_no == 3:
            self.output_value = self.ctx.my_id


def test_mixed_dense_and_overlay_rounds_match_reference():
    runs = {
        engine: run_protocol(
            _MixedSender, n=5, t=0, ids=standard_ids(5), seed=0,
            engine=engine, collect_trace=True,
        )
        for engine in ALL_ENGINES
    }
    reference = runs["reference"]
    for engine, run in runs.items():
        if engine == "reference":
            continue
        assert_runs_identical(reference, run, f"mixed/{engine}")
        for index in reference.processes:
            assert (
                run.processes[index].seen == reference.processes[index].seen
            ), f"inbox snapshots diverge on {engine} for process {index}"


class _KeepsTuples(Process):
    """Broadcasts its id once and keeps every arriving tuple, keyed by the
    sender id it carries (or by ``("byz", id)`` for adversary traffic)."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.tuples = {}

    def send(self, round_no):
        return self.broadcast(IdMessage(self.ctx.my_id))

    def deliver(self, round_no, inbox):
        for messages in inbox.values():
            sender = messages[0].id
            self.tuples[sender if sender > 0 else ("byz", sender)] = messages
        self.output_value = self.ctx.my_id


class _Equivocator(Adversary):
    """Each faulty slot tells every link a different id, point-to-point."""

    def send(self, round_no, correct_outboxes):
        n = self.ctx.n
        return {
            index: {link: [IdMessage(-(index * n + link))] for link in range(1, n + 1)}
            for index in self.ctx.byzantine
        }


def test_receivers_of_one_broadcast_share_the_same_tuple():
    result = run_protocol(
        _KeepsTuples, n=7, t=2, ids=standard_ids(7), byzantine=[5, 6],
        adversary=_Equivocator(), seed=3, engine="batched",
    )
    receivers = list(result.processes.values())
    senders = [process.ctx.my_id for process in receivers]
    for sender in senders:
        first = receivers[0].tuples[sender]
        for other in receivers[1:]:
            # Same object, not merely equal: a fold cache keyed on the
            # tuple itself hits once per sender per round.
            assert other.tuples[sender] is first
    byzantine = [
        messages
        for process in receivers
        for key, messages in process.tuples.items()
        if isinstance(key, tuple)
    ]
    assert len(byzantine) == 2 * len(receivers)
    assert len({id(messages) for messages in byzantine}) == len(byzantine)


class _EchoSets(Process):
    """Round 1: every sender broadcasts the same single echo. Round 2: two
    echoes, the second one's id set by the parity of ``my_id // 10`` (the
    ids are multiples of 10), so the correct senders broadcast exactly two
    distinct echo sets. Keeps every inbox."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.inboxes = {}

    def send(self, round_no):
        if round_no == 1:
            return self.broadcast(EchoMessage(1))
        parity = self.ctx.my_id // 10 % 2
        return self.broadcast(EchoMessage(1), EchoMessage(2 + parity))

    def deliver(self, round_no, inbox):
        self.inboxes[round_no] = dict(inbox)
        if round_no == 2:
            self.output_value = self.ctx.my_id


class _PerLinkEchoSets(Adversary):
    """In round 2 each faulty slot sends the same two echoes on every link,
    point-to-point (marked by id 99)."""

    def send(self, round_no, correct_outboxes):
        if round_no != 2:
            return {}
        n = self.ctx.n
        echoes = [EchoMessage(1), EchoMessage(99)]
        return {
            index: {link: list(echoes) for link in range(1, n + 1)}
            for index in self.ctx.byzantine
        }


def test_equal_multi_id_broadcasts_share_one_tuple():
    result = run_protocol(
        _EchoSets, n=7, t=2, ids=standard_ids(7), byzantine=[5, 6],
        adversary=_PerLinkEchoSets(), seed=3, engine="batched",
    )
    receivers = list(result.processes.values())
    second = [m for p in receivers for m in p.inboxes[2].values()]
    correct = [m for m in second if m[1].id != 99]
    byzantine = [m for m in second if m[1].id == 99]
    # Five correct senders, two distinct echo sets: two tuple objects.
    assert len(correct) == 5 * len(receivers)
    assert len({id(m) for m in correct}) == 2
    # Byzantine traffic is per link: one tuple per (slot, recipient).
    assert len(byzantine) == 2 * len(receivers)
    assert len({id(m) for m in byzantine}) == len(byzantine)
    # Equal single-message broadcasts share their message, not their tuple.
    first = [m for p in receivers for m in p.inboxes[1].values()]
    assert len({id(m) for m in first}) == 5
    assert len({id(m[0]) for m in first}) == 1


def test_observe_send_counters_identical_across_engines():
    """All engines account through one primitive, so every traffic counter
    agrees to the bit."""
    runs = {
        engine: run_registered(
            "alg4", 11, 2, attack="selective-echo", seed=5, engine=engine
        )
        for engine in ALL_ENGINES
    }
    reference = runs["reference"].metrics
    for engine, run in runs.items():
        metrics = run.metrics
        assert metrics.correct_messages == reference.correct_messages, engine
        assert metrics.correct_bits == reference.correct_bits, engine
        assert metrics.byzantine_messages == reference.byzantine_messages, engine
        assert metrics.peak_message_bits == reference.peak_message_bits, engine
        assert [
            (r.round_no, r.correct_messages, r.correct_bits, r.byzantine_messages)
            for r in metrics.rounds
        ] == [
            (r.round_no, r.correct_messages, r.correct_bits, r.byzantine_messages)
            for r in reference.rounds
        ], engine


def test_vector_is_an_unknown_engine():
    with pytest.raises(
        ConfigurationError,
        match=r"unknown engine 'vector'; known engines: batched, reference",
    ):
        resolve_engine("vector")


def test_cli_engine_vector_is_a_configuration_error(capsys):
    argv = ["run", "--algorithm", "alg1", "--n", "7", "--t", "2"]
    assert main([*argv, "--engine", "vector"]) == EXIT_INFRA
    assert "unknown engine 'vector'" in capsys.readouterr().err
    assert main(["chaos", "--algorithms", "alg1", "--sizes", "7:2",
                 "--engines", "vector"]) == EXIT_INFRA
    assert "unknown engine 'vector'" in capsys.readouterr().err


def test_runtime_imports_without_numpy():
    code = (
        "import sys, repro, repro.analysis, repro.service\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
