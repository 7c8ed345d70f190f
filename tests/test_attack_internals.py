"""White-box tests of attack construction details.

The attacks *are* executable versions of the paper's proof constructions, so
their internals deserve the same scrutiny as the protocols: a buggy attack
silently weakens every "properties hold under attack" test.
"""

from __future__ import annotations

import pytest

from helpers import standard_ids
from repro import OrderPreservingRenaming, TwoStepRenaming, run_protocol
from repro.adversary import (
    AsymmetricForgingAdversary,
    DivergenceAdversary,
    IdForgingAdversary,
    SelectiveEchoAdversary,
    SplitWorldAdversary,
    make_adversary,
)
from repro.core import validation
from repro.core.id_selection import ID_SELECTION_STEPS
from repro.core.messages import RanksMessage


def bind_against(adversary, factory=OrderPreservingRenaming, n=7, t=2, seed=0):
    """Run one round so bind() executes, then return (adversary, result)."""
    result = run_protocol(
        factory,
        n=n,
        t=t,
        ids=standard_ids(n),
        adversary=adversary,
        seed=seed,
        collect_trace=True,
    )
    return adversary, result


class TestIdForgingInternals:
    def test_fake_count_matches_budget(self):
        adversary, _ = bind_against(IdForgingAdversary())
        # n=7, t=2: floor(t(N-t)/(N-2t)) = floor(10/3) = 3 fakes.
        assert len(adversary.fakes) == 3

    def test_requested_count_capped_by_budget(self):
        adversary, _ = bind_against(IdForgingAdversary(count=100))
        assert len(adversary.fakes) == 3

    def test_smaller_count_honoured(self):
        adversary, result = bind_against(IdForgingAdversary(count=1))
        accepted = [
            len(e.detail)
            for e in result.trace.select(event="accepted")
            if e.process in result.correct
        ]
        assert max(accepted) == (7 - 2) + 1

    def test_fakes_disjoint_from_all_ids(self):
        adversary, result = bind_against(IdForgingAdversary())
        assert not set(adversary.fakes) & set(result.ids.values())


class TestAsymmetricForgingInternals:
    def test_victims_limited_to_t(self):
        adversary, _ = bind_against(AsymmetricForgingAdversary(victim_count=5))
        assert len(adversary.victims) <= 2

    def test_divergence_only_at_victims(self):
        adversary, result = bind_against(AsymmetricForgingAdversary())
        views = {
            e.process: frozenset(e.detail)
            for e in result.trace.select(event="accepted")
            if e.process in result.correct
        }
        fakes = set(adversary.fakes)
        for process, view in views.items():
            if process in adversary.victims:
                assert fakes <= view
            else:
                assert not fakes & view

    def test_fakes_never_timely(self):
        """The construction must stay below the timely threshold or Lemma
        IV.1's amplification would uniformise the views."""
        adversary, result = bind_against(AsymmetricForgingAdversary())
        fakes = set(adversary.fakes)
        for event in result.trace.select(event="timely"):
            if event.process in result.correct:
                assert not fakes & set(event.detail)

    def test_t_zero_noop(self):
        adversary, result = bind_against(
            AsymmetricForgingAdversary(), n=5, t=0
        )
        assert adversary.fakes == []
        assert len(result.new_names()) == 5

    def test_alternate_victims_interleave(self):
        adversary, result = bind_against(
            AsymmetricForgingAdversary(victim_mode="alternate")
        )
        by_id = sorted(result.correct, key=lambda i: result.ids[i])
        expected = by_id[1::2][:2]
        assert list(adversary.victims) == expected

    def test_unknown_victim_mode_rejected(self):
        with pytest.raises(ValueError):
            AsymmetricForgingAdversary(victim_mode="sideways")


class TestDivergenceInternals:
    def test_unknown_push_mode_rejected(self):
        with pytest.raises(ValueError):
            DivergenceAdversary(push_mode="sideways")

    def test_zigzag_votes_all_filtered(self):
        """Every zigzag vote must fail isValid — if any slipped through the
        E9a ablation conclusion would be suspect."""
        from repro.core import SystemParams, is_valid_ranks

        adversary, result = bind_against(DivergenceAdversary())
        outboxes = adversary._voting_push({})
        params = SystemParams(7, 2)
        correct_ids = sorted(result.ids[i] for i in result.correct)
        for outbox in outboxes.values():
            for messages in outbox.values():
                for message in messages:
                    vote = message.as_dict()
                    assert not is_valid_ranks(correct_ids, vote, params.delta)

    def test_valid_shift_votes_all_pass(self):
        from repro.core import SystemParams, is_valid_ranks

        adversary, result = bind_against(
            DivergenceAdversary(push_mode="valid-shift")
        )
        outboxes = adversary._voting_push({})
        params = SystemParams(7, 2)
        correct_ids = sorted(result.ids[i] for i in result.correct)
        for outbox in outboxes.values():
            for messages in outbox.values():
                for message in messages:
                    vote = message.as_dict()
                    assert is_valid_ranks(correct_ids, vote, params.delta)


class TestSelectiveEchoInternals:
    def test_poisoned_echo_exactly_n_ids(self):
        adversary, _ = bind_against(
            SelectiveEchoAdversary(), factory=TwoStepRenaming, n=11, t=2
        )
        outboxes = adversary._echo()
        for outbox in outboxes.values():
            for messages in outbox.values():
                for message in messages:
                    assert len(message.ids) <= 11

    def test_target_modes(self):
        for mode, picker in (
            ("alternate", lambda ordered: set(ordered[::2])),
            ("low-half", lambda ordered: set(ordered[: len(ordered) // 2])),
            ("high-half", lambda ordered: set(ordered[len(ordered) // 2:])),
        ):
            adversary, result = bind_against(
                SelectiveEchoAdversary(target=mode),
                factory=TwoStepRenaming,
                n=11,
                t=2,
            )
            ordered = sorted(result.correct, key=lambda i: result.ids[i])
            assert adversary.targets == picker(ordered), mode

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            SelectiveEchoAdversary(target="everyone")


class TestSplitWorldInternals:
    def test_unknown_support_rejected(self):
        with pytest.raises(ValueError):
            SplitWorldAdversary(support="most")

    def test_threshold_support_sizes(self):
        adversary, result = bind_against(SplitWorldAdversary())
        for slot, fakes in adversary._fakes.items():
            first, second = fakes
            audiences = adversary._audience[slot]
            assert len(audiences[first]) == 7 - 2 * 2  # N - 2t
            assert len(audiences[first]) + len(audiences[second]) == 5


class _Recording:
    """Wraps an adversary's ``send`` and keeps every round's Byzantine outboxes."""

    def __init__(self, adversary):
        self.outboxes = {}
        send = adversary.send

        def recording_send(round_no, correct_outboxes):
            outboxes = send(round_no, correct_outboxes)
            self.outboxes[round_no] = outboxes
            return outboxes

        adversary.send = recording_send


class TestForgedVoteVariants:
    """A voting attack forges each distinct vote once per (round, slot) and
    hands every peer that gets it the same message object."""

    @pytest.mark.parametrize(
        "attack, variants",
        [
            ("rank-skew", 2),
            ("rank-compression", 2),
            ("order-inversion", 1),
            ("boundary-votes", 1),
        ],
    )
    def test_distinct_vote_objects_per_slot_and_round(self, attack, variants):
        adversary = make_adversary(attack)
        recording = _Recording(adversary)
        bind_against(adversary, n=10, t=3, seed=1)
        voting = [r for r in recording.outboxes if r > ID_SELECTION_STEPS]
        assert voting
        for round_no in voting:
            for index, outbox in recording.outboxes[round_no].items():
                votes = [m for messages in outbox.values() for m in messages]
                assert len(votes) == 10, (round_no, index)
                assert all(isinstance(m, RanksMessage) for m in votes)
                assert len({id(m) for m in votes}) == variants, (round_no, index)

    def test_rank_skew_checks_each_vote_object_once_per_key(self, monkeypatch):
        checked = []
        is_valid_ranks = validation.is_valid_ranks

        def spy(timely, ranks, delta):
            checked.append((ranks, tuple(timely), delta))
            return is_valid_ranks(timely, ranks, delta)

        monkeypatch.setattr(validation, "is_valid_ranks", spy)
        adversary = make_adversary("rank-skew")
        recording = _Recording(adversary)
        bind_against(adversary, n=10, t=3, seed=1)
        # ``checked`` holds every vote, so no id() is recycled under it.
        keys = [(id(vote), timely, delta) for vote, timely, delta in checked]
        assert keys and len(set(keys)) == len(keys)
        voting_rounds = sum(1 for r in recording.outboxes if r > ID_SELECTION_STEPS)
        # Per voting round at most one vote object per correct sender and
        # two per Byzantine slot; a per-peer forgery would make 3 * 10.
        assert len({id(vote) for vote, *_ in checked}) <= voting_rounds * (7 + 3 * 2)
