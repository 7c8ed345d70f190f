"""Payload-hygiene tests: malformed Byzantine payloads must never crash or
corrupt a correct process.

Found-by-adversarial-testing regression: ``float('nan')`` ranks pass the
``< δ`` rejection in ``isValid`` (every NaN comparison is False), survive
trimming unpredictably, and used to crash correct processes at ``Round()``.
String ids used to crash ``sorted()`` with mixed-type comparisons. These
tests lock the sanitization layer in place across every protocol.
"""

from __future__ import annotations

import pickle
from fractions import Fraction
from functools import partial

import pytest

from helpers import assert_renaming_ok, standard_ids
from repro import (
    OrderPreservingRenaming,
    RenamingOptions,
    SystemParams,
    TwoStepRenaming,
    run_protocol,
    wire,
)
from repro.core import VotingPhase
from repro.core import messages as core_messages
from repro.baselines import FloodSetRenaming, OkunCrashRenaming
from repro.core.messages import (
    EchoMessage,
    IdMessage,
    MultiEchoMessage,
    RanksMessage,
    ReadyMessage,
)
from repro.adversary import make_adversary
from repro.agreement.eig import RelayMessage
from repro.core import validation
from repro.core.renaming import FLOAT_TOLERANCE
from repro.core.validation import (
    VoteCheck,
    is_sound_id,
    is_sound_rank,
    is_sound_vote,
)
from repro.sim import Adversary


class PoisonAdversary(Adversary):
    """Floods every link with structurally malformed protocol payloads."""

    def _payloads(self):
        nan = float("nan")
        return [
            IdMessage("not-an-int"),
            IdMessage(None),
            IdMessage(-5),
            IdMessage(True),
            EchoMessage("x"),
            ReadyMessage(3.5),
            RanksMessage(entries=(("id", nan),)),
            RanksMessage(entries=((7, nan), (8, nan))),
            RanksMessage(entries=((7, float("inf")),)),
            RanksMessage(entries=((7, "high"),)),
            MultiEchoMessage(ids=("a", 5, None)),
            MultiEchoMessage(ids=(nan,)),
        ]

    def send(self, round_no, correct_outboxes):
        payloads = self._payloads()
        return {
            slot: {link: list(payloads) for link in self.ctx.topology.labels()}
            for slot in self.ctx.byzantine
        }


class NaNVoteAdversary(Adversary):
    """Behaves silently except for well-formed-looking NaN votes — the exact
    historical crash vector."""

    def send(self, round_no, correct_outboxes):
        correct_ids = sorted(self.ctx.ids[i] for i in self.ctx.correct)
        vote = RanksMessage.from_dict({i: float("nan") for i in correct_ids})
        return {
            slot: {link: [vote] for link in self.ctx.topology.labels()}
            for slot in self.ctx.byzantine
        }


class TestSoundnessHelpers:
    def test_sound_ranks(self):
        assert is_sound_rank(3)
        assert is_sound_rank(Fraction(7, 2))
        assert is_sound_rank(3.5)
        assert not is_sound_rank(float("nan"))
        assert not is_sound_rank(float("inf"))
        assert not is_sound_rank(float("-inf"))
        assert not is_sound_rank("3")
        assert not is_sound_rank(None)
        assert not is_sound_rank(True)

    def test_sound_ids(self):
        assert is_sound_id(1)
        assert is_sound_id(10**18)
        assert not is_sound_id(0)
        assert not is_sound_id(-3)
        assert not is_sound_id(True)
        assert not is_sound_id("5")
        assert not is_sound_id(5.0)

    def test_sound_votes(self):
        assert is_sound_vote({1: Fraction(1), 2: 2.5})
        assert not is_sound_vote({1: float("nan")})
        assert not is_sound_vote({"1": Fraction(1)})
        assert not is_sound_vote({1: Fraction(1), 2: "x"})


class TestPoisonResilience:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_alg1_survives_poison(self, seed):
        result = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=PoisonAdversary(),
            seed=seed,
        )
        assert_renaming_ok(result, SystemParams(7, 2).namespace_bound)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_alg4_survives_poison(self, seed):
        result = run_protocol(
            TwoStepRenaming,
            n=11,
            t=2,
            ids=standard_ids(11),
            adversary=PoisonAdversary(),
            seed=seed,
        )
        assert_renaming_ok(result, 121)

    def test_okun_survives_poison(self):
        result = run_protocol(
            OkunCrashRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=PoisonAdversary(),
            seed=0,
        )
        assert_renaming_ok(result, 7)

    def test_floodset_survives_poison(self):
        result = run_protocol(
            FloodSetRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=PoisonAdversary(),
            seed=0,
        )
        assert_renaming_ok(result, 7)

    def test_nan_votes_regression(self):
        """The exact historical crash: NaN ranks through isValid."""
        result = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=NaNVoteAdversary(),
            seed=0,
        )
        assert_renaming_ok(result, SystemParams(7, 2).namespace_bound)

    def test_aa_survives_nan(self):
        from repro.agreement import initial_values_factory
        from repro.agreement.approximate import ValueMessage

        class NaNValues(Adversary):
            def send(self, round_no, correct_outboxes):
                message = ValueMessage(float("nan"))
                return {
                    slot: {
                        link: [message]
                        for link in self.ctx.topology.labels()
                    }
                    for slot in self.ctx.byzantine
                }

        ids = standard_ids(7)
        values = {identifier: Fraction(identifier) for identifier in ids}
        result = run_protocol(
            initial_values_factory(values, rounds=4),
            n=7,
            t=2,
            ids=ids,
            adversary=NaNValues(),
            seed=0,
        )
        correct_inputs = [values[result.ids[i]] for i in result.correct]
        for index in result.correct:
            value = result.outputs[index]
            assert min(correct_inputs) <= value <= max(correct_inputs)


class SkewedVoteAdversary(Adversary):
    """One sound, well-spaced vote object per faulty slot, broadcast on every
    link — distinct objects (and values) per slot, shared across links."""

    def send(self, round_no, correct_outboxes):
        correct_ids = sorted(self.ctx.ids[i] for i in self.ctx.correct)
        outboxes = {}
        for slot in self.ctx.byzantine:
            vote = RanksMessage.from_dict(
                {i: Fraction(slot + 2 * k) for k, i in enumerate(correct_ids)}
            )
            outboxes[slot] = {link: [vote] for link in self.ctx.topology.labels()}
        return outboxes


class TestDecodeOnce:
    """A broadcast delivers one message object to every recipient, so the
    hygiene check runs once per distinct object, not once per delivery."""

    N, T = 7, 2

    def _one_voting_round(self, monkeypatch, engine, adversary):
        checked = []
        sent = []

        def counting_check(vote):
            checked.append(dict(vote))
            return is_sound_vote(vote)

        original = VotingPhase.messages_for_step

        def recording(phase, step):
            out = original(phase, step)
            sent.extend(out)
            return out

        monkeypatch.setattr(core_messages, "is_sound_vote", counting_check)
        monkeypatch.setattr(VotingPhase, "messages_for_step", recording)
        result = run_protocol(
            partial(OrderPreservingRenaming, options=RenamingOptions(voting_rounds=1)),
            n=self.N,
            t=self.T,
            ids=standard_ids(self.N),
            adversary=adversary,
            seed=0,
            engine=engine,
        )
        return result, checked, sent

    @pytest.mark.parametrize("engine", ["batched", "reference"])
    def test_one_check_per_distinct_correct_vote(self, monkeypatch, engine):
        result, checked, sent = self._one_voting_round(monkeypatch, engine, None)
        assert len(sent) == len(result.correct) == self.N - self.T
        # The batched engine interns equal correct messages to one object;
        # the reference engine keeps one object per sender.
        distinct = len(set(sent)) if engine == "batched" else len(sent)
        assert len(checked) == distinct
        deliveries = len(result.correct) * len(sent)
        assert len(checked) < deliveries

    def test_one_check_per_byzantine_object(self, monkeypatch):
        result, checked, sent = self._one_voting_round(
            monkeypatch, "batched", SkewedVoteAdversary()
        )
        assert len(checked) == len(set(sent)) + len(result.byzantine)

    def test_poison_rejected_at_every_recipient(self, monkeypatch):
        """The cached verdict for an unsound vote is ``None`` for everyone:
        each correct recipient drops every poisoned link's vote."""
        seen = []
        original = VotingPhase._first_vote

        def recording(messages):
            vote = original(messages)
            first = next(m for m in messages if isinstance(m, RanksMessage))
            seen.append((first, vote))
            return vote

        monkeypatch.setattr(VotingPhase, "_first_vote", staticmethod(recording))
        result, checked, _ = self._one_voting_round(
            monkeypatch, "batched", PoisonAdversary()
        )
        assert_renaming_ok(result, SystemParams(self.N, self.T).namespace_bound)
        poisoned = [vote for first, vote in seen if not is_sound_vote(first.as_dict())]
        assert len(poisoned) == len(result.correct) * len(result.byzantine)
        assert all(vote is None for vote in poisoned)
        # Each poison object was checked once, however many links carried it.
        unsound = [vote for vote in checked if not is_sound_vote(vote)]
        assert len(unsound) == len({id(first) for first, vote in seen if vote is None})

    def test_shared_vote_is_read_only(self):
        message = RanksMessage.from_dict({10: Fraction(1), 20: Fraction(3)})
        vote = message.sound_vote()
        assert vote is message.sound_vote()
        with pytest.raises(TypeError):
            vote[10] = Fraction(99)
        for mutate in (
            lambda: vote.update({10: Fraction(99)}),
            lambda: vote.pop(10),
            lambda: vote.setdefault(30, Fraction(5)),
            vote.clear,
            vote.popitem,
        ):
            with pytest.raises(TypeError):
                mutate()
        with pytest.raises(TypeError):
            del vote[10]
        assert dict(vote) == message.as_dict() == {10: Fraction(1), 20: Fraction(3)}

    def test_exact_pairs_only_for_all_fraction_votes(self):
        exact = RanksMessage.from_dict({10: Fraction(1, 3), 20: Fraction(5, 2)})
        assert exact.sound_vote().pairs == {10: (1, 3), 20: (5, 2)}
        for ranks in ({10: 0.25, 20: 1.5}, {10: 1, 20: 2}, {10: Fraction(1), 20: 2.5}):
            assert RanksMessage.from_dict(ranks).sound_vote().pairs is None

    # ------------------------------------------------- isValid verdict cache

    DELTA = SystemParams(N, T).delta

    def test_one_object_two_timely_sets_two_verdicts(self):
        """The key holds the receiver's timely ids: 30 sits closer than δ to
        20, so only a receiver that counts 30 as timely rejects the vote."""
        delta = self.DELTA
        message = RanksMessage.from_dict(
            {10: delta, 20: 2 * delta, 30: 2 * delta + delta / 2}
        )
        vote = message.sound_vote()
        narrow, wide = VoteCheck([10, 20], delta), VoteCheck([10, 20, 30], delta)
        assert narrow.key != wide.key
        assert narrow(vote) is True
        assert wide(vote) is False
        assert narrow(vote) is True and wide(vote) is False  # cached, per key
        assert vote.verdicts == {narrow.key: True, wide.key: False}

    @pytest.mark.parametrize("delta", [DELTA, SystemParams(40, 13).delta, Fraction(1)])
    def test_exact_and_float_keys_never_collide(self, delta):
        """Each mode's check, built as the voting phase builds it, has its
        own key, so one vote object carries each mode's verdict."""
        exact = VoteCheck([10, 20], delta)
        floaty = VoteCheck([10, 20], float(delta), FLOAT_TOLERANCE)
        assert exact.key != floaty.key
        assert all(type(part) is not Fraction for part in exact.key[1] + floaty.key[1])
        # Spaced a hair under δ: float mode's tolerance absorbs it, exact
        # mode rejects it.
        gap = delta - Fraction(1, 10**12)
        vote = RanksMessage.from_dict({10: Fraction(1), 20: 1 + gap}).sound_vote()
        assert exact(vote) is False
        assert floaty(vote) is True
        assert exact(vote) is False

    @pytest.mark.parametrize("engine", ["batched", "reference"])
    @pytest.mark.parametrize("attack", [None, "id-forging", "rank-skew"])
    def test_one_isvalid_per_object_and_key(self, monkeypatch, engine, attack):
        """In one voting round ``is_valid_ranks`` runs exactly once per
        distinct (vote object, receiver key) pair a check asked about."""
        asked, ran = [], []
        original_call = VoteCheck.__call__
        original_check = validation.is_valid_ranks

        def asking(check, vote):
            asked.append((vote, check.key))
            return original_call(check, vote)

        def running(timely, vote, delta, tolerance=0.0):
            ran.append((vote, timely))
            return original_check(timely, vote, delta, tolerance)

        monkeypatch.setattr(VoteCheck, "__call__", asking)
        monkeypatch.setattr(validation, "is_valid_ranks", running)
        adversary = make_adversary(attack) if attack else None
        self._one_voting_round(monkeypatch, engine, adversary)
        pairs = {(id(vote), key) for vote, key in asked}
        assert len(ran) == len(pairs)
        assert len({(id(vote), timely) for vote, timely in ran}) == len(ran)
        assert len(ran) < len(asked)  # every delivery asked; few ran

    def test_unsound_messages_cache_none(self):
        assert RanksMessage(entries=((7, float("nan")),)).sound_vote() is None
        assert MultiEchoMessage(ids=("a", 5)).sound_ids() is None
        assert MultiEchoMessage.from_ids([3, 1]).sound_ids() == frozenset({1, 3})

    @staticmethod
    def _populate(message):
        """Fill every receive-side cache the message type has."""
        if isinstance(message, RanksMessage):
            vote = message.sound_vote()
            if vote is not None:
                VoteCheck([10, 20], Fraction(1))(vote)
                VoteCheck([10], 0.5, FLOAT_TOLERANCE)(vote)
        elif isinstance(message, RelayMessage):
            message.once_per_key((7, None, 1, 3), lambda: [((2, 3), 6)])
            message.once_per_key((7, 2, 1, 4), lambda: [])
        else:
            message.sound_ids()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RanksMessage.from_dict({10: Fraction(1, 3), 20: Fraction(5, 2)}),
            lambda: RanksMessage.from_dict({10: 0.25, 20: 1.5}),
            lambda: RanksMessage(entries=((0, Fraction(1)),)),  # id 0: unsound
            lambda: MultiEchoMessage.from_ids([30, 10, 20]),
            lambda: RelayMessage(entries=(((2,), 6), ((1, 4), -3))),
        ],
    )
    def test_cache_invisible_to_identity_and_codecs(self, make):
        """Populating every cache (the checked view, a vote's exact pairs
        and isValid verdicts, accepted relays) changes no ``==``, ``hash``,
        ``repr``, pickle bytes or wire bytes."""
        fresh, cached = make(), make()
        before = (
            hash(fresh),
            repr(fresh),
            pickle.dumps(fresh),
            wire.encode_message(fresh),
        )
        self._populate(cached)
        assert set(vars(cached)) > set(vars(fresh))
        vote = vars(cached).get("_decoded")
        if vote is not None and isinstance(cached, RanksMessage):
            assert len(vote.verdicts) == 2
            assert (vote.pairs is None) == (type(vote[10]) is not Fraction)
        assert cached == fresh
        after = (
            hash(cached),
            repr(cached),
            pickle.dumps(cached),
            wire.encode_message(cached),
        )
        assert after == before
        restored = pickle.loads(pickle.dumps(cached))
        assert restored == fresh and vars(restored) == vars(fresh)
        assert wire.decode_message(wire.encode_message(cached)) == fresh
