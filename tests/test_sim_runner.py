"""Integration tests for the synchronous round executor."""

from __future__ import annotations

import pytest

from repro.core.messages import IdMessage
from repro.sim import (
    ConfigurationError,
    Inbox,
    NullAdversary,
    Outbox,
    Process,
    RoundLimitExceeded,
    run_protocol,
)


class EchoOnce(Process):
    """Broadcasts its id once and outputs the multiset of ids it received."""

    def send(self, round_no: int) -> Outbox:
        return self.broadcast(IdMessage(self.ctx.my_id))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        received = []
        for link in sorted(inbox):
            for message in inbox[link]:
                if isinstance(message, IdMessage):
                    received.append(message.id)
        self.output_value = tuple(sorted(received))


class Countdown(Process):
    """Outputs after a fixed number of rounds; sends nothing."""

    def __init__(self, ctx, rounds: int = 3) -> None:
        super().__init__(ctx)
        self.rounds = rounds

    def send(self, round_no: int) -> Outbox:
        return {}

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        if round_no == self.rounds:
            self.output_value = round_no


class Forever(Process):
    """Never decides — used to exercise the round limit."""

    def send(self, round_no: int) -> Outbox:
        return {}

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        pass


class TestRunProtocol:
    def test_all_to_all_exchange_fault_free(self):
        result = run_protocol(EchoOnce, n=4, t=0, ids=[5, 6, 7, 8], seed=0)
        for index in range(4):
            assert result.outputs[index] == (5, 6, 7, 8)

    def test_silent_faulty_slots_missing_from_exchange(self):
        result = run_protocol(
            EchoOnce, n=4, t=1, ids=[5, 6, 7, 8], byzantine=[2], seed=0
        )
        for index in result.correct:
            assert result.outputs[index] == (5, 6, 8)

    def test_rounds_counted(self):
        result = run_protocol(Countdown, n=3, t=0, ids=[1, 2, 3], seed=0)
        assert result.metrics.round_count == 3

    def test_round_limit_raises(self):
        with pytest.raises(RoundLimitExceeded):
            run_protocol(Forever, n=3, t=0, ids=[1, 2, 3], seed=0, max_rounds=5)

    def test_byzantine_slot_selection_pinned(self):
        result = run_protocol(
            EchoOnce, n=5, t=2, ids=[1, 2, 3, 4, 5], byzantine=[0, 3], seed=0
        )
        assert result.byzantine == (0, 3)
        assert result.correct == (1, 2, 4)

    def test_byzantine_slot_selection_seeded(self):
        first = run_protocol(EchoOnce, n=6, t=2, ids=list(range(1, 7)), seed=11)
        second = run_protocol(EchoOnce, n=6, t=2, ids=list(range(1, 7)), seed=11)
        assert first.byzantine == second.byzantine

    def test_outputs_by_id(self):
        result = run_protocol(Countdown, n=3, t=0, ids=[30, 10, 20], seed=0)
        assert result.outputs_by_id() == {30: 3, 10: 3, 20: 3}

    def test_new_names_requires_ints(self):
        result = run_protocol(EchoOnce, n=3, t=0, ids=[1, 2, 3], seed=0)
        with pytest.raises(TypeError):
            result.new_names()

    def test_new_names_rejects_bools(self):
        """bool passes isinstance(..., int); a protocol that buggily outputs
        True must not be silently treated as name 1."""

        class Affirmer(Process):
            def send(self, round_no):
                return {}

            def deliver(self, round_no, inbox):
                self.output_value = True

        result = run_protocol(Affirmer, n=3, t=0, ids=[1, 2, 3], seed=0)
        with pytest.raises(TypeError, match="not an int name"):
            result.new_names()

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            run_protocol(EchoOnce, n=3, t=0, ids=[1, 1, 2], seed=0)

    def test_wrong_id_count_rejected(self):
        with pytest.raises(ConfigurationError):
            run_protocol(EchoOnce, n=3, t=0, ids=[1, 2], seed=0)

    def test_nonpositive_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            run_protocol(EchoOnce, n=3, t=0, ids=[0, 1, 2], seed=0)

    def test_t_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            run_protocol(EchoOnce, n=3, t=3, ids=[1, 2, 3], seed=0)
        with pytest.raises(ConfigurationError):
            run_protocol(EchoOnce, n=3, t=-1, ids=[1, 2, 3], seed=0)

    def test_too_many_pinned_fault_slots_rejected(self):
        with pytest.raises(ConfigurationError, match="exceed t=1"):
            run_protocol(
                EchoOnce, n=4, t=1, ids=[1, 2, 3, 4], byzantine=[0, 1], seed=0
            )

    @pytest.mark.parametrize("slot", [7, 4, -1, 1.0, True, "1"])
    def test_pinned_fault_slot_must_be_a_process_index(self, slot):
        """A slot outside ``range(n)`` would be a phantom fault slot: listed
        in ``RunResult.byzantine`` while every process is correct."""
        with pytest.raises(ConfigurationError, match="not a process index"):
            run_protocol(
                EchoOnce, n=4, t=1, ids=[1, 2, 3, 4], byzantine=[slot], seed=0
            )

    @pytest.mark.parametrize("max_rounds", [0, -3])
    def test_max_rounds_below_one_rejected(self, max_rounds):
        with pytest.raises(ConfigurationError, match="max_rounds"):
            run_protocol(
                EchoOnce, n=3, t=0, ids=[1, 2, 3], seed=0, max_rounds=max_rounds
            )

    def test_metrics_count_broadcasts_as_n_messages(self):
        result = run_protocol(EchoOnce, n=4, t=0, ids=[1, 2, 3, 4], seed=0)
        # 4 processes broadcast once; each broadcast = 4 link transmissions.
        assert result.metrics.correct_messages == 16

    def test_trace_collection(self):
        class Tracer(Countdown):
            def deliver(self, round_no, inbox):
                self.ctx.log(round_no, "tick", round_no)
                super().deliver(round_no, inbox)

        result = run_protocol(
            Tracer, n=2, t=0, ids=[1, 2], seed=0, collect_trace=True
        )
        ticks = result.trace.select(event="tick")
        assert len(ticks) == 6  # 2 processes x 3 rounds
        assert result.trace.rounds() == [1, 2, 3]

    def test_trace_disabled_by_default(self):
        result = run_protocol(Countdown, n=2, t=0, ids=[1, 2], seed=0)
        assert result.trace is None

    def test_adversary_cannot_impersonate_correct_slot(self):
        class Impersonator(NullAdversary):
            def send(self, round_no, correct_outboxes):
                victim = self.ctx.correct[0]
                return {victim: {1: [IdMessage(999)]}}

        with pytest.raises(ConfigurationError):
            run_protocol(
                EchoOnce,
                n=4,
                t=1,
                ids=[1, 2, 3, 4],
                adversary=Impersonator(),
                seed=0,
            )

    def test_observe_skipped_when_unwanted(self):
        """Adversaries that declare wants_observations=False never receive
        observe() calls — the runner skips building their inbox view."""
        calls = []

        class Spy(NullAdversary):
            wants_observations = True  # NullAdversary opts out; re-enable

            def observe(self, round_no, inboxes):
                calls.append((round_no, dict(inboxes)))

        watching = Spy()
        run_protocol(
            EchoOnce, n=4, t=1, ids=[1, 2, 3, 4], adversary=watching, seed=0
        )
        assert calls  # wants_observations defaults to True
        assert all(inboxes for _, inboxes in calls)

        calls.clear()

        class Blind(Spy):
            wants_observations = False

        run_protocol(
            EchoOnce, n=4, t=1, ids=[1, 2, 3, 4], adversary=Blind(), seed=0
        )
        assert calls == []

    def test_null_adversary_declines_observations(self):
        assert NullAdversary.wants_observations is False

    def test_runs_reproducible(self):
        first = run_protocol(EchoOnce, n=5, t=1, ids=list(range(1, 6)), seed=3)
        second = run_protocol(EchoOnce, n=5, t=1, ids=list(range(1, 6)), seed=3)
        assert first.outputs == second.outputs
        assert first.byzantine == second.byzantine

    def test_each_outbox_expanded_exactly_once_per_round(self, monkeypatch):
        """The reference router must not re-expand outboxes for metrics
        accounting — delivery and traffic counting share one expansion pass.
        (The batched router bypasses ``expand_outbox`` entirely; its traffic
        accounting is proven equal in tests/test_engine_differential.py.)"""
        from repro.sim.network import SynchronousNetwork

        calls = []
        original = SynchronousNetwork.expand_outbox

        def counting(self, sender, outbox):
            calls.append(sender)
            return original(self, sender, outbox)

        monkeypatch.setattr(SynchronousNetwork, "expand_outbox", counting)
        result = run_protocol(
            EchoOnce, n=4, t=1, ids=[1, 2, 3, 4], seed=0, engine="reference"
        )
        # Every correct process is pending in every round; the null adversary
        # sends nothing. One expansion per (correct sender, round), no more.
        expected = result.metrics.round_count * len(result.correct)
        assert len(calls) == expected
        # And the metrics still see the full traffic despite single expansion.
        assert result.metrics.correct_messages > 0
