"""Unit tests for the 4-step id-selection phase (driven sans-I/O and in-sim)."""

from __future__ import annotations

import pytest

from repro.core import EchoMessage, IdMessage, IdSelectionPhase, ReadyMessage
from repro.core.messages import RanksMessage


def feed(phase: IdSelectionPhase, step: int, per_link):
    """Deliver a hand-crafted inbox: {link: [messages]}."""
    phase.deliver_step(step, {link: tuple(msgs) for link, msgs in per_link.items()})


def run_uniform(n: int, t: int, ids, my_id):
    """Drive a phase as if all n processes (ids given) behaved correctly."""
    phase = IdSelectionPhase(n, t, my_id)
    phase.messages_for_step(1)
    feed(phase, 1, {link: [IdMessage(ids[link - 1])] for link in range(1, n + 1)})
    phase.messages_for_step(2)
    feed(
        phase,
        2,
        {link: [EchoMessage(i) for i in ids] for link in range(1, n + 1)},
    )
    phase.messages_for_step(3)
    feed(
        phase,
        3,
        {link: [ReadyMessage(i) for i in ids] for link in range(1, n + 1)},
    )
    phase.messages_for_step(4)
    feed(phase, 4, {})
    return phase


class TestHappyPath:
    def test_all_ids_timely_and_accepted(self):
        ids = [10, 20, 30, 40, 50]
        phase = run_uniform(5, 1, ids, my_id=30)
        assert phase.timely == frozenset(ids)
        assert phase.accepted == frozenset(ids)

    def test_sorted_accepted_and_ranks(self):
        phase = run_uniform(5, 1, [50, 10, 40, 20, 30], my_id=30)
        assert phase.sorted_accepted() == (10, 20, 30, 40, 50)

    def test_step1_messages(self):
        phase = IdSelectionPhase(4, 1, 99)
        assert phase.messages_for_step(1) == [IdMessage(99)]

    def test_step2_echoes_pending(self):
        phase = IdSelectionPhase(4, 1, 99)
        phase.messages_for_step(1)
        feed(phase, 1, {1: [IdMessage(5)], 2: [IdMessage(3)]})
        echoes = phase.messages_for_step(2)
        assert echoes == [EchoMessage(3), EchoMessage(5)]

    def test_invalid_step_rejected(self):
        phase = IdSelectionPhase(4, 1, 1)
        with pytest.raises(ValueError):
            phase.messages_for_step(5)
        with pytest.raises(ValueError):
            phase.deliver_step(0, {})


class TestThresholds:
    """Hand-crafted inboxes around the N−t / N−2t thresholds (n=7, t=2)."""

    def make(self):
        return IdSelectionPhase(7, 2, 10)

    def test_echo_below_threshold_dropped(self):
        phase = self.make()
        phase.messages_for_step(1)
        feed(phase, 1, {1: [IdMessage(10)]})
        phase.messages_for_step(2)
        # Only 4 < N-t = 5 links echo id 10.
        feed(phase, 2, {link: [EchoMessage(10)] for link in (1, 2, 3, 4)})
        assert phase.messages_for_step(3) == []

    def test_echo_at_threshold_kept(self):
        phase = self.make()
        phase.messages_for_step(1)
        feed(phase, 1, {1: [IdMessage(10)]})
        phase.messages_for_step(2)
        feed(phase, 2, {link: [EchoMessage(10)] for link in (1, 2, 3, 4, 5)})
        assert phase.messages_for_step(3) == [ReadyMessage(10)]

    def test_duplicate_echoes_on_one_link_count_once(self):
        phase = self.make()
        phase.messages_for_step(1)
        feed(phase, 1, {1: [IdMessage(10)]})
        phase.messages_for_step(2)
        feed(
            phase,
            2,
            {
                1: [EchoMessage(10), EchoMessage(10), EchoMessage(10)],
                2: [EchoMessage(10)],
                3: [EchoMessage(10)],
                4: [EchoMessage(10)],
            },
        )
        assert phase.messages_for_step(3) == []  # 4 distinct links < 5

    def test_timely_needs_full_threshold_in_step3(self):
        phase = self.make()
        for step in (1, 2):
            phase.messages_for_step(step)
            feed(phase, step, {})
        phase.messages_for_step(3)
        feed(phase, 3, {link: [ReadyMessage(77)] for link in (1, 2, 3, 4)})
        assert 77 not in phase.timely

    def test_amplification_at_n_minus_2t(self):
        # N-2t = 3 READYs trigger a step-4 READY from a process that had
        # not confirmed the id itself (lines 19-20 of Alg. 1).
        phase = self.make()
        for step in (1, 2):
            phase.messages_for_step(step)
            feed(phase, step, {})
        phase.messages_for_step(3)
        feed(phase, 3, {link: [ReadyMessage(77)] for link in (1, 2, 3)})
        assert phase.messages_for_step(4) == [ReadyMessage(77)]

    def test_no_amplification_below_n_minus_2t(self):
        phase = self.make()
        for step in (1, 2):
            phase.messages_for_step(step)
            feed(phase, step, {})
        phase.messages_for_step(3)
        feed(phase, 3, {link: [ReadyMessage(77)] for link in (1, 2)})
        assert phase.messages_for_step(4) == []

    def test_no_amplification_if_already_readied(self):
        phase = self.make()
        phase.messages_for_step(1)
        feed(phase, 1, {1: [IdMessage(10)]})
        phase.messages_for_step(2)
        feed(phase, 2, {link: [EchoMessage(10)] for link in (1, 2, 3, 4, 5)})
        assert phase.messages_for_step(3) == [ReadyMessage(10)]
        feed(phase, 3, {link: [ReadyMessage(10)] for link in (1, 2, 3)})
        # Already sent READY for 10 in step 3; must not repeat in step 4.
        assert phase.messages_for_step(4) == []

    def test_accepted_accumulates_readies_across_steps(self):
        phase = self.make()
        for step in (1, 2):
            phase.messages_for_step(step)
            feed(phase, step, {})
        phase.messages_for_step(3)
        feed(phase, 3, {link: [ReadyMessage(77)] for link in (1, 2, 3)})
        phase.messages_for_step(4)
        feed(phase, 4, {link: [ReadyMessage(77)] for link in (4, 5)})
        # 3 links in step 3 + 2 fresh links in step 4 = 5 >= N-t.
        assert 77 in phase.accepted

    def test_same_link_ready_in_both_steps_counts_once(self):
        phase = self.make()
        for step in (1, 2):
            phase.messages_for_step(step)
            feed(phase, step, {})
        phase.messages_for_step(3)
        feed(phase, 3, {link: [ReadyMessage(77)] for link in (1, 2, 3, 4)})
        phase.messages_for_step(4)
        feed(phase, 4, {link: [ReadyMessage(77)] for link in (1, 2, 3, 4)})
        assert 77 not in phase.accepted  # still only 4 distinct links

    def test_first_id_per_link_wins(self):
        phase = self.make()
        phase.messages_for_step(1)
        feed(phase, 1, {1: [IdMessage(5), IdMessage(6)]})
        assert phase.messages_for_step(2) == [EchoMessage(5)]

    def test_wrong_kind_messages_ignored(self):
        phase = self.make()
        phase.messages_for_step(1)
        feed(
            phase,
            1,
            {1: [EchoMessage(5), ReadyMessage(5), RanksMessage(entries=())]},
        )
        assert phase.messages_for_step(2) == []
