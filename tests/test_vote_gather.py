"""Gathering a voting round's votes once per round (DESIGN.md §8).

Every receiver of a round gets the same broadcast tuples, so
``core.validation.gather_votes`` takes their votes once per round and
``VoteCheck.key`` from the batched router's shared memo and adds each
receiver's own overlay votes. These tests hold it to the per-link walk it
replaces: receivers with their own port rows and overlays, missing links,
double votes, Byzantine float/int/NaN votes, ``validate_votes=False`` and
early deciding must reach the ranks, accepted ids and trace the walk
reaches. A float or int vote is read as its exact ``Fraction`` values on
both. They also pin the router's vote pool, which interns votes by their
ranks' exact integer pairs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OrderPreservingRenaming, RenamingOptions, run_protocol
from repro.baselines import OkunCrashRenaming
from repro.core.id_selection import IdSelectionResult
from repro.core.messages import IdMessage, RanksMessage, first_vote
from repro.core.params import SystemParams
from repro.core.renaming import VotingPhase
from repro.core import validation
from repro.core.validation import VoteCheck, gather_votes
from repro.sim import Adversary, ProcessContext, engine
from repro.sim.compose import PhaseContext
from repro.sim.process import broadcast_share

from helpers import PRIVATE_COPY_ENGINE, assert_runs_identical, port_inbox, standard_ids

#: What a sender puts on the wire in the generated round.
KINDS = (
    "silent",  # nothing at all: a missing link
    "exact",  # one exact vote
    "double",  # two exact votes on one link: only the first counts
    "behind",  # a non-vote message before the vote
    "float",  # a Byzantine float vote, read as its exact value
    "int",  # a Byzantine int vote, read as its exact value
    "nan",  # an unsound vote, dropped before isValid
)


def _ranks(ids, shifts, delta, kind):
    """A ranks array near the stretched positions, typed per ``kind``."""
    ranks = {}
    for position, (identifier, shift) in enumerate(zip(ids, shifts), start=1):
        if shift is None:
            continue  # the vote lacks this id
        value = (position + shift) * delta
        if kind == "float":
            value = float(value)
        elif kind == "int":
            value = position + int(shift)
        elif kind == "nan":
            value = float("nan")
        ranks[identifier] = value
    return ranks


@st.composite
def voting_rounds(draw):
    """One round as the batched router delivers it, several receivers.

    Returns ``(n, t, ids, dense, receivers, options, steps)``: ``dense`` is
    the round's tuple per sender (or ``None``); each receiver is
    ``(peers, overlay, timely)`` with its own port row, its own per-link
    traffic on links whose sender broadcast nothing, and its own timely ids.
    Dense senders draw their messages from a small pool, so several carry
    the very same object, as the router's interning makes them.
    """
    n = draw(st.integers(4, 9))
    t = (n - 1) // 3
    ids = standard_ids(n)
    delta = SystemParams(n, t).delta
    shift = st.sampled_from(
        [Fraction(0), Fraction(0), Fraction(1, 3), Fraction(-1, 2), Fraction(1), None]
    )

    def vote(kind):
        shifts = draw(st.lists(shift, min_size=n, max_size=n))
        return RanksMessage.from_dict(_ranks(ids, shifts, delta, kind))

    def messages(kind):
        if kind == "double":
            return (vote(kind), vote(kind))
        if kind == "behind":
            return (IdMessage(ids[0]), vote(kind))
        return (vote(kind),)

    pool = [messages(draw(st.sampled_from(KINDS[1:]))) for _ in range(3)]
    dense = []
    per_link = []
    for sender in range(n):
        kind = draw(st.sampled_from(KINDS + ("pooled", "pooled", "per-link")))
        if kind == "pooled":
            dense.append(pool[draw(st.integers(0, len(pool) - 1))])
        elif kind in ("silent", "per-link"):
            dense.append(None)
            if kind == "per-link":
                per_link.append(sender)
        else:
            dense.append(messages(kind))
    receivers = []
    for _ in range(draw(st.integers(1, 4))):
        peers = list(range(n))
        random.Random(draw(st.integers(0, 2**16))).shuffle(peers)
        overlay: Dict[int, List] = {}
        for sender in per_link:
            kind = draw(st.sampled_from(KINDS))
            if kind != "silent":
                overlay[peers.index(sender) + 1] = list(messages(kind))
        timely = draw(st.sets(st.sampled_from(ids), max_size=n))
        receivers.append((tuple(peers), overlay or None, frozenset(timely)))
    options = RenamingOptions(
        validate_votes=draw(st.booleans()),
        early_deciding=draw(st.booleans()),
    )
    return n, t, ids, dense, receivers, options, draw(st.integers(1, 4))


def _phase(n, t, ids, timely, options, log):
    """A voting phase of the receiver ``ids[0]`` whose trace goes to ``log``."""
    ctx = ProcessContext(n, t, ids[0], trace=lambda *event: log.append(repr(event)))
    selection = IdSelectionResult(frozenset(timely), frozenset(ids), tuple(ids))
    return VotingPhase(
        PhaseContext(ctx, 4),
        selection,
        delta=SystemParams(n, t).delta,
        voting_rounds=8,
        options=options,
    )


def _state(phase):
    return (
        repr(sorted(phase.ranks.items())),
        sorted(phase.accepted),
        phase.frozen_at,
        phase._stable_rounds,
    )


class TestSharedGather:
    @settings(max_examples=150, deadline=None)
    @given(voting_rounds())
    def test_each_receiver_gets_the_per_link_walk(self, case):
        """Every receiver of a round, stepped through several rounds of the
        same traffic, ends with the ranks, accepted ids, freeze and trace
        of its own per-link walk over the materialised inbox."""
        n, t, ids, dense, receivers, options, steps = case
        logs = [([], []) for _ in receivers]
        phases = [
            (_phase(n, t, ids, timely, options, shared_log),
             _phase(n, t, ids, timely, options, walk_log))
            for (_, _, timely), (shared_log, walk_log) in zip(receivers, logs)
        ]
        for step in range(1, steps + 1):
            memo = {}  # one per round, as the router builds it
            for (peers, overlay, _), (shared, walk) in zip(receivers, phases):
                inbox = port_inbox(peers, dense, overlay, memo)
                plain = dict(port_inbox(peers, dense, overlay))
                assert broadcast_share(plain) is None
                shared.deliver_step(step, inbox)
                walk.deliver_step(step, plain)
                assert _state(shared) == _state(walk)
                assert all(type(rank) is Fraction for rank in shared.ranks.values())
        for shared_log, walk_log in logs:
            assert shared_log == walk_log

    @settings(max_examples=150, deadline=None)
    @given(voting_rounds())
    def test_the_same_votes_as_the_walk(self, case):
        """The gathered votes are the walk's vote objects, each as often as
        the walk takes it; in ``id()`` order whenever the shared path kept
        only exact votes."""
        n, t, ids, dense, receivers, options, _ = case
        memo = {}
        delta = SystemParams(n, t).delta
        for peers, overlay, timely in receivers:
            check = VoteCheck(timely, delta)
            inbox = port_inbox(peers, dense, overlay, memo)
            plain = dict(port_inbox(peers, dense, overlay))
            for chosen in (check, None):
                got = gather_votes(inbox, chosen, first_vote)
                walked = gather_votes(plain, chosen, first_vote)
                assert sorted(map(id, got)) == sorted(map(id, walked))
                if all(vote.pairs is not None for vote in got) and chosen:
                    assert list(map(id, got)) == sorted(map(id, got))
                elif chosen is None:
                    assert list(got) == list(walked)  # link order

    def test_one_gather_per_round_and_key(self):
        """Exact broadcast votes are taken once per round and check key,
        however many receivers read them; a new round gathers afresh."""
        n, t = 7, 2
        ids = standard_ids(n)
        delta = SystemParams(n, t).delta
        votes = [
            (RanksMessage.from_dict({i: k * delta for k, i in enumerate(ids, 1)}),)
            for _ in range(n)
        ]
        calls = []

        def counting(messages):
            calls.append(messages)
            return first_vote(messages)

        rows = [tuple(random.Random(seed).sample(range(n), n)) for seed in range(5)]
        narrow, wide = VoteCheck(ids[:3], delta), VoteCheck(ids, delta)
        for _ in range(2):
            memo = {}
            for row in rows:
                for check in (narrow, wide):
                    inbox = port_inbox(row, votes, None, memo)
                    got = gather_votes(inbox, check, counting)
                    assert len(got) == n
        assert len(calls) == 2 * 2 * n  # rounds x keys x dense tuples

    def test_own_overlay_votes_join_the_shared_ones_in_id_order(self):
        """A receiver's overlay votes are merged into the shared votes in
        ``id()`` order, so ``approximate``'s own sort has nothing to do."""
        n, t = 7, 2
        ids = standard_ids(n)
        delta = SystemParams(n, t).delta

        def vote(shift):
            return RanksMessage.from_dict(
                {i: (k + shift) * delta for k, i in enumerate(ids, 1)}
            )

        # Made first, so the overlay votes tend to sit below the dense ones.
        overlay = {1: [vote(Fraction(1, 5))], 2: [vote(Fraction(2, 5))]}
        dense = [None, None] + [(vote(Fraction(k, 9)),) for k in range(n - 2)]
        check = VoteCheck(ids, delta)
        inbox = port_inbox(tuple(range(n)), dense, overlay, {})
        got = gather_votes(inbox, check, first_vote)
        assert len(got) == n
        assert list(map(id, got)) == sorted(map(id, got))

    def test_a_byzantine_float_vote_is_shared_as_its_exact_value(self):
        n, t = 7, 2
        ids = standard_ids(n)
        delta = SystemParams(n, t).delta
        exact = {i: k * delta for k, i in enumerate(ids, 1)}
        dense = [(RanksMessage.from_dict(exact),) for _ in range(n - 1)]
        spread = {i: float(2 * r) for i, r in exact.items()}  # passes isValid
        dense.append((RanksMessage.from_dict(spread),))
        check = VoteCheck(ids, delta)
        memo = {}
        row = tuple(range(n))[::-1]
        got = gather_votes(port_inbox(row, dense, None, memo), check, first_vote)
        assert memo == {("first-votes", check.key): got}
        assert list(map(id, got)) == sorted(map(id, got))
        floaty = dense[-1][0].sound_vote()
        assert floaty in got
        assert floaty == {i: Fraction(v) for i, v in spread.items()}
        assert all(type(rank) is Fraction for vote in got for rank in vote.values())


class SplitVoteAdversary(Adversary):
    """Byzantine slots broadcast one exact vote and send a per-link vote
    shifted by the link label, so receivers mix shared and own votes."""

    def send(self, round_no, correct_outboxes):
        if round_no <= 4:
            return {}
        ids = sorted(self.ctx.ids[i] for i in self.ctx.correct)
        delta = SystemParams(self.ctx.n, self.ctx.t).delta
        out = {}
        for number, slot in enumerate(self.ctx.byzantine):
            if number % 2 == 0:
                vote = RanksMessage.from_dict(
                    {i: (k + Fraction(1, 3)) * delta for k, i in enumerate(ids, 1)}
                )
                out[slot] = {0: [vote]}
            else:
                out[slot] = {
                    link: [
                        RanksMessage.from_dict(
                            {
                                i: (k + Fraction(link, 7)) * delta
                                for k, i in enumerate(ids, 1)
                            }
                        )
                    ]
                    for link in self.ctx.topology.labels()
                }
        return out


class TestWholeRuns:
    def test_shared_and_per_link_votes_match_the_unshared_engines(
        self, monkeypatch
    ):
        """A run whose receivers hold shared and per-link Byzantine votes
        gives the reference engine's outcome, and the private-copy one's,
        trace and metrics included, and takes the shared path."""
        monkeypatch.setitem(engine.ENGINES, "private-copy", PRIVATE_COPY_ENGINE)
        shared = []
        original = validation._exact_votes

        def recording(votes, check):
            kept = original(votes, check)
            shared.append(kept is not None)
            return kept

        monkeypatch.setattr(validation, "_exact_votes", recording)
        for factory in (
            OrderPreservingRenaming,
            partial(
                OrderPreservingRenaming, options=RenamingOptions(early_deciding=True)
            ),
            OkunCrashRenaming,
        ):
            batched, *unshared = [
                run_protocol(
                    factory, n=10, t=3, ids=standard_ids(10),
                    adversary=SplitVoteAdversary(), seed=4, collect_trace=True,
                    engine=name,
                )
                for name in ("batched", "reference", "private-copy")
            ]
            for other in unshared:
                assert_runs_identical(batched, other, str(factory))
        assert shared and all(shared)


class TestVotePool:
    """The batched router interns correct votes by their ranks' exact
    integer pairs."""

    @staticmethod
    def _delivered(make_vote):
        """Each receiver's votes, in link order, after one round in which
        each of 3 correct processes broadcast ``make_vote(its id)``."""
        from repro.sim import Process

        seen: Dict[int, list] = {}

        class Voter(Process):
            def send(self, round_no):
                return self.broadcast(make_vote(self.ctx.my_id))

            def deliver(self, round_no, inbox):
                seen[self.ctx.my_id] = [inbox[link][0] for link in sorted(inbox)]
                self.output_value = 1

        run_protocol(Voter, n=3, t=0, ids=[1, 2, 3], seed=0)
        return seen

    def test_equal_exact_votes_are_one_object(self):
        seen = self._delivered(
            lambda me: RanksMessage.from_dict({1: Fraction(4, 6), 2: Fraction(3)})
        )
        objects = {id(vote) for votes in seen.values() for vote in votes}
        assert len(objects) == 1

    def test_float_votes_are_pooled_by_value(self):
        seen = self._delivered(lambda me: RanksMessage.from_dict({1: 0.5, 2: 3.0}))
        assert len({id(vote) for votes in seen.values() for vote in votes}) == 1
        seen = self._delivered(
            lambda me: RanksMessage.from_dict({1: 0.5, 2: float(me)})
        )
        assert len({id(vote) for votes in seen.values() for vote in votes}) == 3

    def test_an_exact_vote_merges_with_an_equal_int_valued_one(self):
        def vote(me):
            rank = Fraction(2) if me == 1 else 2
            return RanksMessage.from_dict({1: rank})

        seen = self._delivered(vote)
        assert len({id(vote) for votes in seen.values() for vote in votes}) == 1

    def test_the_pool_key_and_the_sound_vote_hold_the_exact_pairs(self):
        message = RanksMessage.from_dict({10: Fraction(1, 3), 20: Fraction(5, 2)})
        assert message.pool_key() == ((10, 1, 3), (20, 5, 2))
        assert message.sound_vote().pairs == {10: (1, 3), 20: (5, 2)}
        for ranks, key in (
            ({10: 0.25}, ((10, 1, 4),)),
            ({10: 1}, ((10, 1, 1),)),
            ({10: Fraction(1), 20: 2.5}, ((10, 1, 1), (20, 5, 2))),
        ):
            other = RanksMessage.from_dict(ranks)
            assert other.pool_key() == key
            assert other.sound_vote().pairs == {i: (num, den) for i, num, den in key}
