"""Voting-phase attacks on the rank-approximation (AA) phase of Algorithm 1.

These adversaries behave *correctly* through the id-selection phase (running
a genuine internal protocol instance), then distort the votes they emit in
rounds ≥ 5. Three families:

* :class:`RankSkewAdversary` — equivocating but *valid* votes: uniform shifts
  and spacing distortions that pass ``isValid`` (shifting a whole ranks array
  preserves δ-spacing). This is the strongest thing a Byzantine voter can do
  against the filter, and is what Lemma IV.8's trimming + ``select_t``
  analysis defends against. Expected outcome: convergence still contracts by
  ``σ_t`` per round and order is preserved.
* :class:`OrderInversionAdversary` — *invalid* votes that swap the ranks of
  adjacent timely ids. ``isValid`` must reject every one of them; with the
  validation ablated (experiment E9a) these votes drive the per-id AA
  instances into overlapping ranges and break order preservation.
* :class:`BoundaryVoteAdversary` — votes placed exactly at the trim boundary
  (just inside the correct values' range) to minimise the contraction rate;
  used by E3 to check the measured rate never falls below ``σ_t``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Mapping

from ..core.id_selection import ID_SELECTION_STEPS
from ..core.messages import Rank, RanksMessage
from ..sim.messages import Message
from ..sim.process import Outbox
from .base import ProtocolDrivenAdversary, per_link_outbox


def shifted(ranks: Mapping[int, Rank], offset: Rank) -> Dict[int, Rank]:
    """A ranks array uniformly shifted by ``offset`` (always isValid-clean)."""
    return {identifier: rank + offset for identifier, rank in ranks.items()}


def respaced(ranks: Mapping[int, Rank], spacing: Rank, base: Rank) -> Dict[int, Rank]:
    """Ranks re-laid-out at uniform ``spacing`` starting at ``base``.

    Keeps the id order of ``ranks`` (so it passes ``isValid`` whenever
    ``spacing ≥ δ``) but discards all positional information — an attempt to
    drag every AA instance toward an adversary-chosen layout.
    """
    ordered = sorted(ranks, key=lambda identifier: (ranks[identifier], identifier))
    return {
        identifier: base + position * spacing
        for position, identifier in enumerate(ordered)
    }


class _VotingPhaseAdversary(ProtocolDrivenAdversary):
    """Shared plumbing: faithful until round 4, forged votes afterwards.

    A forged vote depends on the peer only through :meth:`variant`, so each
    slot forges each distinct variant once per round, and every peer that
    gets a variant gets the same :class:`RanksMessage` object — whose
    receive-side caches (hygiene view, exact pairs, ``isValid`` verdicts;
    DESIGN.md §8) its recipients then share.
    """

    def mutate_outbox(self, round_no, index, genuine: Outbox, correct_outboxes) -> Outbox:
        if round_no <= ID_SELECTION_STEPS:
            return genuine
        process = self.instance(index)
        # Duck-typed: anything exposing ranks/delta/params quacks like
        # Alg. 1 (incl. the frozen pre-refactor reference copies the
        # differential tests run) — forging only needs those attributes.
        ranks = getattr(process, "ranks", None)
        if not ranks or not hasattr(process, "delta"):
            return genuine
        forged: Dict[Hashable, List[Message]] = {}
        content: Dict[int, List[Message]] = {}
        for peer in range(self.ctx.n):
            variant = self.variant(peer)
            votes = forged.get(variant)
            if votes is None:
                vote = self.forge_vote(round_no, index, variant, process)
                votes = forged[variant] = [RanksMessage.from_dict(vote)]
            content[peer] = votes
        return per_link_outbox(content, sender=index, topology=self.ctx.topology)

    def variant(self, peer: int) -> Hashable:
        """The part of ``peer`` its forged vote depends on (default: none)."""
        return None

    def forge_vote(
        self, round_no: int, index: int, variant: Hashable, process
    ) -> Dict[int, Rank]:
        raise NotImplementedError


class RankSkewAdversary(_VotingPhaseAdversary):
    """Valid-but-equivocating votes: half the peers see the genuine ranks
    shifted up by ``magnitude`` name-slots, the other half shifted down.

    ``magnitude`` defaults to ``t`` slots — about the largest initial
    disagreement honest executions produce (Lemma IV.7) — but any value is
    valid on the wire; trimming is what keeps large values harmless.
    """

    def __init__(self, magnitude: Fraction = None) -> None:
        self._magnitude = magnitude

    def variant(self, peer):
        return 1 if peer % 2 == 0 else -1  # the shift's sign

    def forge_vote(self, round_no, index, sign, process):
        magnitude = self._magnitude
        if magnitude is None:
            magnitude = Fraction(max(self.ctx.t, 1)) * process.delta
        return shifted(process.ranks, sign * magnitude)


class RankCompressionAdversary(_VotingPhaseAdversary):
    """Half the peers get minimal δ-spaced ranks, half get doubly-stretched.

    Both variants are valid; the attack tries to squeeze the safety margins
    between adjacent ids from opposite directions at different processes.
    """

    def variant(self, peer):
        return 1 if peer % 2 == 0 else 2  # the spacing, in multiples of δ

    def forge_vote(self, round_no, index, stretch, process):
        delta = process.delta
        return respaced(process.ranks, stretch * delta, delta)


class OrderInversionAdversary(_VotingPhaseAdversary):
    """Invalid votes: the ranks of each adjacent pair of ids are swapped.

    Every correct process must reject these via ``isValid``; with
    ``validate_votes=False`` (ablation E9a) they poison the approximation.
    """

    def forge_vote(self, round_no, index, variant, process):
        ordered = sorted(process.ranks)
        forged = dict(process.ranks)
        for low, high in zip(ordered[::2], ordered[1::2]):
            forged[low], forged[high] = forged[high], forged[low]
        return forged


class BoundaryVoteAdversary(_VotingPhaseAdversary):
    """Votes pinned to an extreme of the genuine ranks' plausible range.

    Each faulty slot sends, to every peer, the genuine ranks shifted to sit
    just inside where the correct values plausibly end (±the initial spread
    bound). Since the shift is uniform the votes are valid, and because they
    sit at the boundary they survive trimming as often as possible — the
    slowest-convergence needle E3 probes with.
    """

    def forge_vote(self, round_no, index, variant, process):
        spread = process.params.initial_spread_bound
        sign = 1 if index % 2 == 0 else -1
        return shifted(process.ranks, sign * spread)
