"""Frozen pre-refactor implementations — the differential oracle.

Verbatim copies of the monolithic protocol classes as they stood before the
composition-layer refactor (hand-rolled round bookkeeping, subclass-override
consensus), kept here so ``test_compose.py`` can prove the composed
implementations are output- and trace-identical to them across the
seed × attack matrix. They import only building blocks whose behaviour the
refactor did not change (id selection, validation, approximation, the
combined EIG, the interval splitter).

Do not "improve" these copies: their value is that they are the old code.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.agreement.eig import EIGInteractiveConsistency
from repro.agreement.identity import make_identified_factory
from repro.baselines.splitting import ClaimMessage, IntervalSplitter, interval_rounds
from repro.core.approximation import approximate, nearest_int
from repro.core.id_selection import ID_SELECTION_STEPS, IdSelectionPhase
from repro.core.messages import (
    IdMessage,
    MultiEchoMessage,
    Rank,
    RanksMessage,
)
from repro.core.params import SystemParams
from repro.core.renaming import STABILITY_ROUNDS, RenamingOptions
from repro.core.fast import TWO_STEP_ROUNDS, TwoStepOptions
from repro.core.validation import exact_vote, is_sound_id, is_valid_ranks
from repro.sim.process import Inbox, Outbox, Process, ProcessContext


class LegacyOrderPreservingRenaming(Process):
    """Pre-refactor Algorithm 1 (monolithic round bookkeeping)."""

    def __init__(
        self, ctx: ProcessContext, options: RenamingOptions = RenamingOptions()
    ) -> None:
        super().__init__(ctx)
        self.options = options
        self.params = SystemParams(ctx.n, ctx.t)
        if options.enforce_resilience:
            self.params.require_byzantine_resilience()
        self.delta: Rank = self.params.delta if options.stretch else Fraction(1)
        voting = options.voting_rounds
        self.voting_rounds = self.params.voting_rounds if voting is None else voting
        if self.voting_rounds < 1:
            raise ValueError(
                f"need at least one voting round, got {self.voting_rounds}"
            )
        self.total_rounds = ID_SELECTION_STEPS + self.voting_rounds
        self.selection = IdSelectionPhase(ctx.n, ctx.t, ctx.my_id)
        self.ranks: Dict[int, Rank] = {}
        self.accepted: Set[int] = set()
        self._stable_rounds = 0
        self.frozen_at: Optional[int] = None

    def send(self, round_no: int) -> Outbox:
        if round_no <= ID_SELECTION_STEPS:
            return self.broadcast(*self.selection.messages_for_step(round_no))
        return self.broadcast(RanksMessage.from_dict(self.ranks))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        if round_no <= ID_SELECTION_STEPS:
            self.selection.deliver_step(round_no, inbox)
            if round_no == ID_SELECTION_STEPS:
                self._initialise_ranks()
            return
        self._voting_step(round_no, inbox)
        if round_no == self.total_rounds:
            self._decide()

    def _initialise_ranks(self) -> None:
        self.accepted = set(self.selection.accepted)
        if self.ctx.my_id not in self.accepted:
            raise RuntimeError(
                f"correct id {self.ctx.my_id} missing from accepted set "
                f"(n={self.ctx.n}, t={self.ctx.t})"
            )
        ordered = self.selection.sorted_accepted()
        self.ranks = {
            identifier: position * self.delta
            for position, identifier in enumerate(ordered, start=1)
        }
        self.ctx.log(ID_SELECTION_STEPS, "timely", frozenset(self.selection.timely))
        self.ctx.log(ID_SELECTION_STEPS, "accepted", ordered)
        self.ctx.log(ID_SELECTION_STEPS, "ranks", dict(self.ranks))

    def _voting_step(self, round_no: int, inbox: Inbox) -> None:
        votes: List[Mapping[int, Rank]] = []
        for link in sorted(inbox):
            vote = self._first_vote(inbox[link])
            if vote is None:
                continue
            if not self.options.validate_votes or is_valid_ranks(
                self.selection.timely, vote, self.delta
            ):
                votes.append(vote)
        if self.frozen_at is not None:
            return
        if self.options.early_deciding:
            self._track_stability(round_no, votes)
            if self.frozen_at is not None:
                return
        self.ranks, self.accepted = approximate(
            self.ranks, self.accepted, votes, self.ctx.n, self.ctx.t
        )
        self.ctx.log(round_no, "ranks", dict(self.ranks))

    def _track_stability(self, round_no: int, votes) -> None:
        unanimous = len(votes) >= self.ctx.n - self.ctx.t and all(
            all(
                identifier in vote and vote[identifier] == rank
                for identifier, rank in self.ranks.items()
                if identifier in self.accepted
            )
            for vote in votes
        )
        if unanimous:
            self._stable_rounds += 1
        else:
            self._stable_rounds = 0
        if self._stable_rounds >= STABILITY_ROUNDS:
            self.frozen_at = round_no
            self.ctx.log(round_no, "early_frozen", dict(self.ranks))

    @staticmethod
    def _first_vote(messages) -> Optional[Dict[int, Rank]]:
        for message in messages:
            if isinstance(message, RanksMessage):
                vote = exact_vote(message.entries)
                return None if vote is None else dict(vote)
        return None

    def _decide(self) -> None:
        if self.ctx.my_id not in self.ranks:
            raise RuntimeError(
                f"rank for own id {self.ctx.my_id} was discarded — "
                "cannot happen for a correct process when N > 3t"
            )
        self.output_value = nearest_int(self.ranks[self.ctx.my_id])
        self.ctx.log(self.total_rounds, "decided", self.output_value)


class LegacyConstantTimeRenaming(LegacyOrderPreservingRenaming):
    """Pre-refactor constant-time variant (truncated voting schedule)."""

    def __init__(
        self, ctx: ProcessContext, options: RenamingOptions = RenamingOptions()
    ) -> None:
        params = SystemParams(ctx.n, ctx.t)
        if options.enforce_resilience:
            params.require_constant_time_regime()
        options = replace(options, voting_rounds=params.constant_time_voting_rounds)
        super().__init__(ctx, options)


class LegacyTwoStepRenaming(Process):
    """Pre-refactor Algorithm 4 (monolithic)."""

    def __init__(
        self, ctx: ProcessContext, options: TwoStepOptions = TwoStepOptions()
    ) -> None:
        super().__init__(ctx)
        self.options = options
        self.params = SystemParams(ctx.n, ctx.t)
        if options.enforce_resilience:
            self.params.require_fast_regime()
        self.link_id: Dict[int, int] = {}
        self.timely: set = set()
        self.counter: Dict[int, int] = {}
        self.new_names: Dict[int, int] = {}

    def send(self, round_no: int) -> Outbox:
        if round_no == 1:
            return self.broadcast(IdMessage(self.ctx.my_id))
        return self.broadcast(MultiEchoMessage.from_ids(self.timely))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        if round_no == 1:
            for link in sorted(inbox):
                for message in inbox[link]:
                    if isinstance(message, IdMessage) and is_sound_id(message.id):
                        self.link_id[link] = message.id
                        self.timely.add(message.id)
                        break
        else:
            for link in sorted(inbox):
                echo = self._first_multiecho(inbox[link])
                if echo is None or not self._is_valid(link, echo.ids):
                    continue
                for identifier in set(echo.ids):
                    self.counter[identifier] = self.counter.get(identifier, 0) + 1
            self.ctx.log(TWO_STEP_ROUNDS, "counters", dict(self.counter))
            self._choose_names()

    @staticmethod
    def _first_multiecho(messages) -> Optional[MultiEchoMessage]:
        for message in messages:
            if isinstance(message, MultiEchoMessage):
                return message
        return None

    def _is_valid(self, link: int, ids) -> bool:
        id_set = set(ids)
        return (
            link in self.link_id
            and len(id_set) <= self.ctx.n
            and all(is_sound_id(identifier) for identifier in id_set)
            and len(self.timely & id_set) >= self.ctx.n - self.ctx.t
        )

    def _choose_names(self) -> None:
        cap = self.ctx.n - self.ctx.t
        accumulated = 0
        for identifier in sorted(self.counter):
            offset = self.counter[identifier]
            if self.options.clamp_offsets:
                offset = min(offset, cap)
            accumulated += offset
            self.new_names[identifier] = accumulated
        if self.ctx.my_id not in self.new_names:
            raise RuntimeError(
                f"own id {self.ctx.my_id} received no echoes — impossible for "
                f"a correct process when N > 2t² + t"
            )
        self.output_value = self.new_names[self.ctx.my_id]
        self.ctx.log(TWO_STEP_ROUNDS, "decided", self.output_value)


class LegacyTranslatedByzantineRenaming(Process):
    """Pre-refactor translated baseline (private phase bookkeeping)."""

    def __init__(
        self, ctx: ProcessContext, extra_rounds: Optional[int] = None
    ) -> None:
        super().__init__(ctx)
        if ctx.n <= 3 * ctx.t:
            raise ValueError(
                f"translated renaming requires N > 3t (n={ctx.n}, t={ctx.t})"
            )
        self.namespace = 2 * ctx.n
        self.selection = IdSelectionPhase(ctx.n, ctx.t, ctx.my_id)
        self.splitter: Optional[IntervalSplitter] = None
        probe_budget = ctx.n if extra_rounds is None else extra_rounds
        self.horizon = (
            ID_SELECTION_STEPS + 2 * interval_rounds(self.namespace) + probe_budget
        )
        self._settled_round: Optional[int] = None

    def send(self, round_no: int) -> Outbox:
        if round_no <= ID_SELECTION_STEPS:
            return self.broadcast(*self.selection.messages_for_step(round_no))
        assert self.splitter is not None
        lo, hi = self.splitter.claim()
        return self.broadcast(ClaimMessage(self.ctx.my_id, lo, hi))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        if round_no <= ID_SELECTION_STEPS:
            self.selection.deliver_step(round_no, inbox)
            if round_no == ID_SELECTION_STEPS:
                self.splitter = IntervalSplitter(self.ctx.my_id, self.namespace)
            return
        assert self.splitter is not None
        split_round = round_no - ID_SELECTION_STEPS
        rivals = self._rival_ids(inbox)
        already = self.splitter.decided
        if split_round % 2 == 0:
            self.splitter.resolve(rivals)
        if self.splitter.decided is not None and already is None:
            self._settled_round = round_no
            self.ctx.log(round_no, "settled", self.splitter.decided)
        if round_no == self.horizon:
            self._finish(round_no)

    def _rival_ids(self, inbox: Inbox):
        assert self.splitter is not None
        lo, hi = self.splitter.claim()
        accepted = self.selection.accepted
        rivals = []
        for link in sorted(inbox):
            for message in inbox[link]:
                if (
                    isinstance(message, ClaimMessage)
                    and message.lo == lo
                    and message.hi == hi
                    and message.id in accepted
                ):
                    rivals.append(message.id)
                    break
        return rivals

    def _finish(self, round_no: int) -> None:
        assert self.splitter is not None
        if self.splitter.decided is not None:
            self.output_value = self.splitter.decided
            return
        lo, _ = self.splitter.claim()
        self.output_value = lo
        self.ctx.log(round_no, "settled", lo)

    @property
    def settled_round(self) -> Optional[int]:
        return self._settled_round


class LegacyConsensusRenaming(EIGInteractiveConsistency):
    """Pre-refactor consensus baseline (subclass override on combined EIG)."""

    def __init__(
        self, ctx: ProcessContext, my_index: int, link_to_index: Dict[int, int]
    ) -> None:
        super().__init__(ctx, my_index, link_to_index, value=ctx.my_id)

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        super().deliver(round_no, inbox)
        if round_no == self.rounds:
            vector = self.output_value
            agreed = sorted({value for value in vector if value > 0})
            self.ctx.log(round_no, "agreed_ids", tuple(agreed))
            self.output_value = agreed.index(self.ctx.my_id) + 1


def legacy_consensus_factory(n: int, ids: Sequence[int], seed: int):
    """Identified-model factory for the legacy consensus baseline."""
    return make_identified_factory(
        n, ids, seed, lambda ctx, me, links: LegacyConsensusRenaming(ctx, me, links)
    )
