"""Tests for the early-deciding extension (the [1] direction).

Safety argument under test: freezing happens only when every valid vote
agreed with the local ranks for two consecutive rounds, which implies all
correct processes hold identical ranks — a fixed point of the trimmed fold
that Byzantine votes cannot move. So freezing can never change any name,
and adversaries can only *delay* it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

import pytest

from helpers import assert_renaming_ok, standard_ids
from repro import OrderPreservingRenaming, RenamingOptions, SystemParams, run_protocol
from repro.adversary import ALG1_ATTACKS, make_adversary
from repro.core.renaming import votes_agree

EARLY = partial(
    OrderPreservingRenaming, options=RenamingOptions(early_deciding=True)
)


def freeze_rounds(result):
    return {
        e.process: e.round_no
        for e in result.trace.select(event="early_frozen")
        if e.process in result.correct
    }


class TestEarlyDecidingSafety:
    @pytest.mark.parametrize("attack", ALG1_ATTACKS)
    def test_properties_hold_with_early_deciding(self, attack):
        n, t = 7, 2
        for seed in (0, 1):
            result = run_protocol(
                EARLY,
                n=n,
                t=t,
                ids=standard_ids(n),
                adversary=make_adversary(attack),
                seed=seed,
            )
            assert_renaming_ok(
                result,
                SystemParams(n, t).namespace_bound,
                context=f"early attack={attack} seed={seed}",
            )

    @pytest.mark.parametrize("attack", ALG1_ATTACKS)
    def test_names_identical_to_non_early_run(self, attack):
        """Freezing must never change the outcome: with and without the
        extension, the same run produces the same names."""
        n, t = 7, 2
        base = run_protocol(
            OrderPreservingRenaming,
            n=n,
            t=t,
            ids=standard_ids(n),
            adversary=make_adversary(attack),
            seed=3,
        )
        early = run_protocol(
            EARLY,
            n=n,
            t=t,
            ids=standard_ids(n),
            adversary=make_adversary(attack),
            seed=3,
        )
        assert base.new_names() == early.new_names()


class TestEarlyDecidingLatency:
    def test_benign_runs_freeze_early(self):
        """With silent faults the ranks are unanimous immediately: freezing
        happens well before the scheduled final round at larger t."""
        n, t = 13, 4  # scheduled: 4 + 9 voting rounds
        result = run_protocol(
            EARLY,
            n=n,
            t=t,
            ids=standard_ids(n),
            adversary=make_adversary("silent"),
            seed=0,
            collect_trace=True,
        )
        frozen = freeze_rounds(result)
        assert len(frozen) == n - t
        assert max(frozen.values()) <= 7  # froze within 3 voting rounds
        assert max(frozen.values()) < SystemParams(n, t).total_rounds

    def test_all_correct_freeze_same_round_when_benign(self):
        result = run_protocol(
            EARLY,
            n=10,
            t=3,
            ids=standard_ids(10),
            adversary=make_adversary("conforming"),
            seed=1,
            collect_trace=True,
        )
        frozen = freeze_rounds(result)
        assert len(set(frozen.values())) == 1

    def test_disagreeing_votes_delay_freezing(self):
        """An adversary that keeps sending (valid) disagreeing votes pushes
        freezing back — a pure liveness attack."""
        benign = run_protocol(
            EARLY,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=make_adversary("silent"),
            seed=0,
            collect_trace=True,
        )
        attacked = run_protocol(
            EARLY,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=make_adversary("rank-skew"),
            seed=0,
            collect_trace=True,
        )
        benign_frozen = freeze_rounds(benign)
        attacked_frozen = freeze_rounds(attacked)
        assert benign_frozen  # benign run froze
        if attacked_frozen:
            assert min(attacked_frozen.values()) >= min(benign_frozen.values())

    def test_round_count_unchanged(self):
        """Freezing keeps participating: wall rounds match the schedule."""
        result = run_protocol(
            EARLY,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=make_adversary("silent"),
            seed=0,
        )
        assert result.metrics.round_count == SystemParams(7, 2).total_rounds

    def test_frozen_at_exposed_on_process(self):
        result = run_protocol(
            EARLY,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=make_adversary("silent"),
            seed=0,
        )
        for index in result.correct:
            assert result.processes[index].frozen_at is not None


class TestVotesAgree:
    """The one early-deciding test Alg. 1 and Okun share; each caller adds
    its own vote-count guard."""

    RANKS = {10: Fraction(1), 20: Fraction(2), 30: Fraction(3)}

    def test_every_vote_must_match_every_live_rank(self):
        same = dict(self.RANKS)
        off = {**self.RANKS, 20: Fraction(5, 2)}
        assert votes_agree([same, same], self.RANKS, {10, 20, 30})
        for position in range(3):
            votes = [same, same, same]
            votes[position] = off
            assert not votes_agree(votes, self.RANKS, {10, 20, 30})

    def test_a_missing_live_id_disagrees(self):
        short = {10: Fraction(1), 30: Fraction(3)}
        assert not votes_agree([short], self.RANKS, {10, 20, 30})

    def test_ids_out_of_live_are_not_compared(self):
        short = {10: Fraction(1), 30: Fraction(3)}
        assert votes_agree([short], self.RANKS, {10, 30})

    def test_no_votes_agree_vacuously(self):
        assert votes_agree([], self.RANKS, {10, 20, 30})
