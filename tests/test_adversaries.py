"""Unit tests for the attack-construction machinery itself."""

from __future__ import annotations

import pytest

from helpers import standard_ids
from repro import OrderPreservingRenaming, run_protocol
from repro.adversary import (
    ConformingAdversary,
    CrashAdversary,
    adversary_names,
    forge_fake_ids,
    make_adversary,
    plan_announcements,
)
from repro.adversary.registry import ALG1_ATTACKS, ALG4_ATTACKS, register


class TestForgeFakeIds:
    def test_between_fills_gaps(self):
        fakes = forge_fake_ids([10, 13, 20], 3, "between")
        assert len(fakes) == 3
        assert all(10 < fake < 20 for fake in fakes)

    def test_between_falls_back_to_above(self):
        fakes = forge_fake_ids([1, 2, 3], 2, "between")
        assert fakes == [4, 5]

    def test_below_prefers_below(self):
        fakes = forge_fake_ids([10, 20], 3, "below")
        assert sorted(fakes) == [7, 8, 9]

    def test_below_overflow_goes_above(self):
        fakes = forge_fake_ids([2, 3], 4, "below")
        assert 1 in fakes  # only one slot available below
        assert all(fake >= 1 for fake in fakes)
        assert len(set(fakes)) == 4

    def test_above(self):
        assert forge_fake_ids([5, 9], 2, "above") == [10, 11]

    def test_never_collides_with_correct_ids(self):
        correct = [3, 4, 7, 100]
        fakes = forge_fake_ids(correct, 10, "between")
        assert not set(fakes) & set(correct)
        assert len(set(fakes)) == 10

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            forge_fake_ids([1], 1, "sideways")


class TestPlanAnnouncements:
    def test_each_fake_gets_quota_distinct_peers(self):
        byzantine = [0, 1]
        correct = [2, 3, 4, 5, 6]
        assignment = plan_announcements([100, 101, 102], byzantine, correct, quota=3)
        for fake in (100, 101, 102):
            peers = [peer for (slot, peer), f in assignment.items() if f == fake]
            assert len(peers) == 3
            assert len(set(peers)) == 3

    def test_pairs_disjoint(self):
        assignment = plan_announcements([100, 101, 102], [0, 1], [2, 3, 4, 5, 6], 3)
        assert len(assignment) == 9  # each (slot, peer) pair used at most once

    def test_slot_capacity_respected(self):
        assignment = plan_announcements([100, 101, 102], [0, 1], [2, 3, 4, 5, 6], 3)
        for peer in (2, 3, 4, 5, 6):
            slots = [slot for (slot, p) in assignment if p == peer]
            assert len(slots) == len(set(slots))

    def test_over_budget_raises(self):
        with pytest.raises(RuntimeError):
            plan_announcements(list(range(100, 110)), [0], [1, 2, 3], quota=3)


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in adversary_names():
            adversary = make_adversary(name)
            assert adversary is not None

    def test_unknown_name_raises_with_catalog(self):
        with pytest.raises(KeyError, match="silent"):
            make_adversary("nonexistent")

    def test_attack_lists_are_registered(self):
        known = set(adversary_names())
        assert set(ALG1_ATTACKS) <= known
        assert set(ALG4_ATTACKS) <= known

    def test_register_custom(self):
        from repro.sim import NullAdversary

        register("test-custom", NullAdversary)
        assert isinstance(make_adversary("test-custom"), NullAdversary)


class TestConformingAdversary:
    def test_matches_fault_free_names(self):
        """Byzantine-in-name-only slots must leave outcomes identical to a
        fault-free run restricted to the same processes... in fact with
        conforming slots all N processes behave correctly, so the correct
        processes' names equal their ranks among all N ids."""
        n, t = 7, 2
        ids = standard_ids(n)
        result = run_protocol(
            OrderPreservingRenaming,
            n=n,
            t=t,
            ids=ids,
            adversary=ConformingAdversary(),
            seed=0,
        )
        expected = {
            identifier: sorted(ids).index(identifier) + 1
            for identifier in result.outputs_by_id()
        }
        assert result.new_names() == expected


def faulty_traffic(result):
    """Messages the faulty slots sent, per round."""
    return [record.byzantine_messages for record in result.metrics.rounds]


class TestCrashAdversary:
    def test_fixed_schedule_respected(self):
        result = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            byzantine=[1, 2],
            adversary=CrashAdversary(crash_rounds={1: 3, 2: 3}),
            seed=0,
        )
        traffic = faulty_traffic(result)
        # Both slots run the protocol in full before round 3, then fall silent.
        genuine = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            byzantine=[1, 2],
            adversary=CrashAdversary(crash_rounds={1: 99, 2: 99}),
            seed=0,
        )
        assert traffic[:2] == faulty_traffic(genuine)[:2]
        assert all(traffic[:2])
        assert not any(traffic[3:])
        assert len(traffic) > 4

    def test_random_schedule_within_horizon(self):
        result = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=CrashAdversary(horizon=5),
            seed=1,
        )
        traffic = faulty_traffic(result)
        assert len(traffic) > 5
        assert not any(traffic[5:])
