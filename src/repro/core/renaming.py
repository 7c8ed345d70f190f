"""Algorithm 1 — order-preserving Byzantine renaming for ``N > 3t``.

The paper's main contribution, expressed as a
:class:`~repro.sim.compose.PhaseSequence` of its two phases:

1. **Id selection** (rounds 1–4, :class:`~repro.core.id_selection.IdSelectionPhase`):
   bound the identifiers Byzantine processes can inject and compute initial
   ranks — each accepted id's 1-based position in the sorted accepted set,
   stretched by ``δ = 1 + 1/(3(N+t))``.
2. **Rank approximation** (rounds 5 to ``3⌈log₂ t⌉ + 7``,
   :class:`VotingPhase`): coordinated Byzantine approximate agreement on the
   ranks. Incoming votes are filtered by ``isValid``
   (:mod:`repro.core.validation`) so the agreement can only converge
   order-consistently, then folded by ``approximate``
   (:mod:`repro.core.approximation`).

The final name is the nearest integer to the converged rank of the process's
own id. Guarantees (Theorem IV.10): validity in ``[1..N+t−1]``, termination
in ``3⌈log₂ t⌉ + 7`` rounds, uniqueness, and order preservation.

``RenamingOptions`` exposes the ablation switches used by experiment E9 —
they exist to *demonstrate the attacks the design defends against* and are
never on in normal use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Set

from ..sim.compose import Phase, PhaseContext, PhaseSequence
from ..sim.errors import SafetyViolation
from ..sim.process import Inbox, ProcessContext, ordered_links
from .approximation import approximate, nearest_int
from .id_selection import ID_SELECTION_STEPS, IdSelectionPhase, IdSelectionResult
from .messages import Message, Rank, RanksMessage
from .params import SystemParams
from .validation import VoteCheck

#: Spacing tolerance used by ``isValid`` in float mode (see validation docs).
FLOAT_TOLERANCE = 1e-9

#: Consecutive all-votes-agree voting rounds before the early-deciding
#: extension freezes (2 = one round to reach the common value, one to
#: observe that everyone did).
STABILITY_ROUNDS = 2


@dataclass(frozen=True)
class RenamingOptions:
    """Tuning and ablation switches for Algorithm 1.

    * ``voting_rounds`` — override the scheduled approximation rounds
      (``None`` = the paper's ``3⌈log₂ t⌉ + 3``; the constant-time variant of
      Section V passes 4).
    * ``exact_arithmetic`` — ``True`` (default) runs ranks as
      :class:`fractions.Fraction`, matching the paper's exact analysis;
      ``False`` uses floats with an epsilon-tolerant validity check.
    * ``validate_votes`` — ablation E9a: ``False`` disables ``isValid`` and
      lets the divergence attack break uniqueness/order.
    * ``stretch`` — ablation E9d: ``False`` sets ``δ = 1``, collapsing the
      analytic rounding margin ``(δ−1)/2`` to zero (no attack in the library
      exploits it at laptop scale — finding F4 in EXPERIMENTS.md).
    * ``enforce_resilience`` — raise at construction unless ``N > 3t``.
    * ``early_deciding`` — enable the early-freezing extension (the
      direction of Alistarh et al. [1], which made the crash algorithm
      early-deciding). A process *freezes* its ranks once every valid vote
      it received agreed with its own ranks (restricted to its accepted
      ids) for :data:`STABILITY_ROUNDS` consecutive voting rounds, and
      keeps broadcasting the frozen vote until the scheduled final round.

      Why freezing is safe: correct votes always arrive and always pass
      ``isValid`` (Lemma IV.4), so "all valid votes agree with mine"
      implies *every correct process* holds identical ranks. That state is
      a fixed point of the trimmed fold — with ``N − t`` identical correct
      votes, trimming ``t`` extremes leaves only copies of the common value
      whatever the ``t`` Byzantine votes were — so the frozen value equals
      everyone's final value. Byzantine processes can at most *delay*
      freezing (a liveness attack degrades to the scheduled rounds), never
      corrupt it. Halting early, by contrast, would starve the remaining
      processes' ``N − t`` vote threshold, which is why the extension
      freezes-and-keeps-sending: the win is decision latency (traced as
      ``early_frozen``), not message count.
    """

    voting_rounds: Optional[int] = None
    exact_arithmetic: bool = True
    validate_votes: bool = True
    stretch: bool = True
    enforce_resilience: bool = True
    early_deciding: bool = False


class VotingPhase(Phase):
    """Rank approximation (lines 26–37) as a reusable phase.

    Construction performs lines 26–28 (sort accepted, rank every id, stretch
    by δ) from the preceding :class:`IdSelectionResult`; each step then
    broadcasts the current ranks and folds valid incoming votes
    (lines 30–35); the final step decides (lines 36–37). Trace events land
    on global rounds via the :class:`~repro.sim.compose.PhaseContext`, so
    the phase behaves identically at any offset in any pipeline.
    """

    def __init__(
        self,
        ctx: PhaseContext,
        selection: IdSelectionResult,
        *,
        delta: Rank,
        voting_rounds: int,
        options: RenamingOptions = RenamingOptions(),
        tolerance: float = 0.0,
    ) -> None:
        self.steps = voting_rounds
        self._ctx = ctx
        self.options = options
        self.delta = delta
        self.timely = selection.timely
        self._check = VoteCheck(self.timely, delta, tolerance)  # fixed for the run
        self.accepted: Set[int] = set(selection.accepted)
        if ctx.my_id not in self.accepted:
            # Impossible for a correct process when N > 3t (Lemma IV.2);
            # reachable only when the model is violated, so fail loudly
            # and typed.
            raise SafetyViolation(
                f"correct id {ctx.my_id} missing from accepted set "
                f"(n={ctx.n}, t={ctx.t})",
                violated="invariant",
                ids=(ctx.my_id,),
            )
        self.ranks: Dict[int, Rank] = {
            identifier: position * self.delta
            for position, identifier in enumerate(selection.ordered, start=1)
        }
        ctx.log(0, "timely", frozenset(selection.timely))
        ctx.log(0, "accepted", selection.ordered)
        ctx.log(0, "ranks", dict(self.ranks))
        self._stable_rounds = 0
        #: Global round at which the early-deciding extension froze the
        #: ranks (None when it never triggered or is disabled).
        self.frozen_at: Optional[int] = None
        self._name: Optional[int] = None

    # ------------------------------------------------------------------ rounds

    def messages_for_step(self, step: int) -> List[Message]:
        return [RanksMessage.from_dict(self.ranks)]

    def deliver_step(self, step: int, inbox: Inbox) -> None:
        self._voting_step(step, inbox)
        if step == self.steps:
            self._decide()

    # ------------------------------------------------------------- phase logic

    def _voting_step(self, step: int, inbox: Inbox) -> None:
        """Lines 30–35: collect votes, filter with isValid, approximate."""
        votes: List[Mapping[int, Rank]] = []
        for link in ordered_links(inbox):
            vote = self._first_vote(inbox[link])
            if vote is None:
                continue
            if not self.options.validate_votes or self._check(vote):
                votes.append(vote)
        if self.frozen_at is not None:
            return  # frozen: keep broadcasting, stop approximating
        if self.options.early_deciding:
            self._track_stability(step, votes)
            if self.frozen_at is not None:
                return
        self.ranks, self.accepted = approximate(
            self.ranks, self.accepted, votes, self._ctx.n, self._ctx.t
        )
        self._ctx.log(step, "ranks", dict(self.ranks))

    def _track_stability(self, step: int, votes: List[Mapping[int, Rank]]) -> None:
        """Early-deciding extension: freeze on STABILITY_ROUNDS unanimous
        rounds (see RenamingOptions.early_deciding for the safety argument)."""
        unanimous = len(votes) >= self._ctx.n - self._ctx.t and all(
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
            self.frozen_at = self._ctx.global_round(step)
            self._ctx.log(step, "early_frozen", dict(self.ranks))

    @staticmethod
    def _first_vote(messages) -> Optional[Mapping[int, Rank]]:
        """First AA vote on a link this round; extras on the same link are
        Byzantine double-voting and are ignored. Structurally unsound votes
        (non-int ids, NaN/inf ranks) are dropped before any arithmetic —
        hygiene, not semantics; ``isValid`` cannot be trusted to catch NaN
        because NaN defeats every comparison. The vote is a read-only
        :class:`~repro.core.validation.SoundVote` shared with every other
        recipient of the same message, which also shares its ``isValid``
        verdicts."""
        for message in messages:
            if isinstance(message, RanksMessage):
                return message.sound_vote()
        return None

    def _decide(self) -> None:
        """Line 36–37: output the rounded rank of the own id."""
        if self._ctx.my_id not in self.ranks:
            raise SafetyViolation(
                f"rank for own id {self._ctx.my_id} was discarded — "
                "cannot happen for a correct process when N > 3t",
                violated="invariant",
                ids=(self._ctx.my_id,),
            )
        self._name = nearest_int(self.ranks[self._ctx.my_id])
        self._ctx.log(self.steps, "decided", self._name)

    def result(self) -> int:
        return self._name


class OrderPreservingRenaming(PhaseSequence):
    """A correct process running Algorithm 1.

    ``PhaseSequence(IdSelectionPhase, VotingPhase)`` — the legacy monolithic
    round bookkeeping is gone; the sequence translates global rounds into
    each phase's local steps and threads the :class:`IdSelectionResult` into
    the voting phase's construction. Pre-refactor attributes (``.ranks``,
    ``.accepted``, ``.frozen_at``) delegate to the live voting phase so
    adversaries and analytics introspect the process unchanged.
    """

    def __init__(
        self, ctx: ProcessContext, options: RenamingOptions = RenamingOptions()
    ) -> None:
        self.options = options
        self.params = SystemParams(ctx.n, ctx.t)
        if options.enforce_resilience:
            self.params.require_byzantine_resilience()
        delta = self.params.delta if options.stretch else Fraction(1)
        self.delta: Rank = delta if options.exact_arithmetic else float(delta)
        self._tolerance = 0.0 if options.exact_arithmetic else FLOAT_TOLERANCE
        voting = options.voting_rounds
        self.voting_rounds = self.params.voting_rounds if voting is None else voting
        if self.voting_rounds < 1:
            raise ValueError(f"need at least one voting round, got {self.voting_rounds}")
        self.total_rounds = ID_SELECTION_STEPS + self.voting_rounds
        self.selection = IdSelectionPhase(ctx.n, ctx.t, ctx.my_id)
        self._voting: Optional[VotingPhase] = None
        super().__init__(ctx, [self._selection_phase, self._voting_phase])

    def _selection_phase(self, ctx: PhaseContext, _: object) -> IdSelectionPhase:
        return self.selection

    def _voting_phase(self, ctx: PhaseContext, outcome: object) -> VotingPhase:
        assert isinstance(outcome, IdSelectionResult)
        self._voting = VotingPhase(
            ctx,
            outcome,
            delta=self.delta,
            voting_rounds=self.voting_rounds,
            options=self.options,
            tolerance=self._tolerance,
        )
        return self._voting

    # ------------------------------------------------- pre-refactor attributes

    @property
    def ranks(self) -> Dict[int, Rank]:
        """Current rank estimates (empty until id selection completes)."""
        return self._voting.ranks if self._voting is not None else {}

    @property
    def accepted(self) -> Set[int]:
        """Accepted-id working set (empty until id selection completes)."""
        return self._voting.accepted if self._voting is not None else set()

    @property
    def frozen_at(self) -> Optional[int]:
        """Round at which early-deciding froze the ranks (None otherwise)."""
        return self._voting.frozen_at if self._voting is not None else None
