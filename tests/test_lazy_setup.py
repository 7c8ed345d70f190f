"""Run set-up is lazy: a topology row or a process rng is derived only when
something reads it, and a late derivation draws the bits an eager one did.

The guard behind the batched engine's O(n)-per-broadcast-round claim (E10):
a flood whose receivers never read their inboxes must not pay O(n²) to
shuffle port rows nobody looks at, nor seed n generators nobody draws from.
"""

from __future__ import annotations

import pickle
from collections import Counter
from random import Random

import pytest

from repro.core.messages import IdMessage
from repro.sim import Process, ProcessContext, run_protocol
from repro.sim import runner as runner_module
from repro.sim import topology as topology_module
from repro.sim.compose import Phase, PhaseSequence
from repro.sim.rng import derive_rng

N = 200
ROUNDS = 10


class SubstrateFlood(Process):
    """E10's flood: broadcast the own id every round, never read the inbox."""

    def send(self, round_no):
        return self.broadcast(IdMessage(self.ctx.my_id))

    def deliver(self, round_no, inbox):
        if round_no == ROUNDS:
            self.output_value = self.ctx.my_id


class ReadingFlood(SubstrateFlood):
    """The same flood, but every receiver reads every inbox."""

    def deliver(self, round_no, inbox):
        assert len(inbox) == self.ctx.n
        super().deliver(round_no, inbox)


@pytest.fixture
def derived(monkeypatch):
    """Counts, by first token, the streams the run's set-up derives."""
    counts = Counter()

    def counting(seed, *tokens):
        counts[tokens[0]] += 1
        return derive_rng(seed, *tokens)

    monkeypatch.setattr(topology_module, "derive_rng", counting)
    monkeypatch.setattr(runner_module, "derive_rng", counting)
    return counts


def _flood(protocol, engine="batched"):
    result = run_protocol(
        protocol, n=N, t=0, ids=list(range(1, N + 1)), seed=3, engine=engine
    )
    assert result.metrics.correct_messages == ROUNDS * N * N
    assert result.outputs_by_id() == {i: i for i in range(1, N + 1)}
    return result


def test_batched_flood_builds_no_row_and_seeds_no_process_rng(derived):
    _flood(SubstrateFlood)
    assert derived["topology"] == 0
    assert derived["process"] == 0


@pytest.mark.parametrize("engine", ["batched", "reference"])
def test_reading_the_inbox_builds_each_row_once(derived, engine):
    _flood(ReadingFlood, engine)
    assert derived["topology"] == N
    assert derived["process"] == 0


class Draws(Process):
    """Outputs the first draws of its process rng."""

    def send(self, round_no):
        return {}

    def deliver(self, round_no, inbox):
        self.output_value = tuple(self.ctx.rng.random() for _ in range(3))


class DrawPhase(Phase):
    steps = 1

    def __init__(self, ctx):
        self.ctx = ctx

    def messages_for_step(self, step):
        return []

    def deliver_step(self, step, inbox):
        pass

    def result(self):
        return tuple(self.ctx.rng.random() for _ in range(3))


def _phased(ctx):
    return PhaseSequence(ctx, [lambda phase_ctx, _: DrawPhase(phase_ctx)])


@pytest.mark.parametrize("factory", [Draws, _phased], ids=["direct", "phase"])
def test_a_late_process_rng_draws_the_derived_stream(derived, factory):
    n, seed = 5, 11
    result = run_protocol(factory, n=n, t=0, ids=range(1, n + 1), seed=seed)
    assert derived["process"] == n
    for index in range(n):
        rng = derive_rng(seed, "process", index)
        assert result.outputs[index] == tuple(rng.random() for _ in range(3))


def test_a_lazy_context_pickles_before_and_after_its_first_draw():
    ctx = run_protocol(SubstrateFlood, n=2, t=0, ids=[1, 2], seed=4).processes[0].ctx
    expected = derive_rng(4, "process", 0)
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone.rng.random() == expected.random()
    clone = pickle.loads(pickle.dumps(clone))
    assert clone.rng.random() == expected.random()


def test_a_context_without_an_rng_gets_the_fixed_one():
    ctx = pickle.loads(pickle.dumps(ProcessContext(n=3, t=0, my_id=1)))
    assert ctx.rng is ctx.rng
    assert ctx.rng.random() == Random(0).random()
