"""Algorithm 4 — 2-step order-preserving renaming for ``N > 2t² + t``.

No iterative agreement at all: announce, echo, count.

* **Round 1**: broadcast the own id; remember, per link, the id announced on
  it (``linkid``) and collect all announced ids into ``timely``.
* **Round 2**: broadcast ``timely`` as one ``MultiEcho``; accept incoming
  MultiEchoes that pass the validity filter (sender announced an id in round
  1, carries at most ``N`` ids, and overlaps the local ``timely`` in at least
  ``N − t`` ids), count echoes per id.
* **Naming**: sort the accepted ids; walk them accumulating the offset
  ``min(counter[id], N − t)``; the new name is the accumulated offset at the
  own id.

The ``min(·, N − t)`` clamp is the load-bearing trick: it makes the offset of
every *correct* id identical at all correct processes, so the only
disagreement left is the ``≤ 2t²`` echoes Byzantine processes can steer
(Lemma VI.1), which the ``N − t`` inter-name gap (Lemma VI.2) absorbs when
``N > 2t² + t`` (Theorem VI.3). Namespace ``[1..N²]``.

The whole algorithm is one :class:`TwoStepPhase`;
:class:`TwoStepRenaming` is the single-phase
:class:`~repro.sim.compose.PhaseSequence` running it (so the 2-step
namer slots into larger pipelines unchanged).

``clamp_offsets=False`` is ablation E9b: without the clamp the adversary's
selective echoing inflates Δ linearly in ``N`` and order preservation breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from ..sim.compose import Phase, PhaseContext, PhaseSequence
from ..sim.errors import SafetyViolation
from ..sim.process import Inbox, ProcessContext, first_of, group_links
from .messages import IdMessage, Message, MultiEchoMessage, announced_ids
from .params import SystemParams

#: Alg. 4's round count.
TWO_STEP_ROUNDS = 2


@dataclass(frozen=True)
class TwoStepOptions:
    """Switches for Algorithm 4 (defaults = the paper's algorithm)."""

    clamp_offsets: bool = True
    enforce_resilience: bool = True


class TwoStepPhase(Phase):
    """Announce-echo-count (Alg. 4 lines 01–23) as a 2-step phase."""

    steps = TWO_STEP_ROUNDS

    def __init__(
        self, ctx: PhaseContext, options: TwoStepOptions = TwoStepOptions()
    ) -> None:
        self._ctx = ctx
        self.options = options
        self.link_id: Dict[int, int] = {}  # link -> id announced on it (line 02/09)
        self.timely: set = set()
        self.counter: Dict[int, int] = {}
        self.new_names: Dict[int, int] = {}
        self._name: Optional[int] = None

    # ------------------------------------------------------------------ rounds

    def messages_for_step(self, step: int) -> List[Message]:
        if step == 1:
            return [IdMessage(self._ctx.my_id)]
        return [MultiEchoMessage.from_ids(self.timely)]

    def deliver_step(self, step: int, inbox: Inbox) -> None:
        if step == 1:
            self._deliver_announcements(inbox)
        else:
            self._deliver_echoes(inbox)
            self._choose_names()

    # ------------------------------------------------------------- phase logic

    def _deliver_announcements(self, inbox: Inbox) -> None:
        """Round 1, lines 08–10: one id per link; extras on a link ignored."""
        for link, identifier in announced_ids(inbox):
            self.link_id[link] = identifier
            self.timely.add(identifier)

    def _deliver_echoes(self, inbox: Inbox) -> None:
        """Round 2, lines 13–17: count echoes from valid MultiEchoes.

        Links are grouped by their (pooled) echo object, so each distinct
        echo is checked once and counted once per link that carried it.
        """
        for echo, links in group_links(inbox, self._announced_echo):
            ids = echo.sound_ids()
            if ids is None or not self._is_valid(ids):
                continue
            copies = len(links)
            for identifier in ids:
                self.counter[identifier] = self.counter.get(identifier, 0) + copies
        self._ctx.log(TWO_STEP_ROUNDS, "counters", dict(self.counter))

    def _announced_echo(self, link: int, messages) -> Optional[MultiEchoMessage]:
        """First MultiEcho on a link that announced an id in round 1;
        Byzantine duplicates are ignored so a single link can never
        contribute more than one echo per id."""
        if link not in self.link_id:
            return None
        return first_of(messages, MultiEchoMessage)

    def _is_valid(self, ids: FrozenSet[int]) -> bool:
        """The rest of Alg. 4's isValid: ≤ N ids, ≥ N−t overlap (the
        announced sender is :meth:`_announced_echo`'s check). ``ids`` is the
        echo's :meth:`~MultiEchoMessage.sound_ids`: an echo with a
        structurally unsound id anywhere was already condemned whole — an
        honest sender never produces one."""
        return (
            len(ids) <= self._ctx.n
            and len(self.timely & ids) >= self._ctx.n - self._ctx.t
        )

    def _choose_names(self) -> None:
        """Lines 18–23: accumulate clamped offsets over the sorted accepted ids."""
        cap = self._ctx.n - self._ctx.t
        accumulated = 0
        for identifier in sorted(self.counter):
            offset = self.counter[identifier]
            if self.options.clamp_offsets:
                offset = min(offset, cap)
            accumulated += offset
            self.new_names[identifier] = accumulated
        if self._ctx.my_id not in self.new_names:
            raise SafetyViolation(
                f"own id {self._ctx.my_id} received no echoes — impossible for "
                f"a correct process when N > 2t² + t",
                violated="invariant",
                round_no=self._ctx.global_round(TWO_STEP_ROUNDS),
                ids=(self._ctx.my_id,),
            )
        self._name = self.new_names[self._ctx.my_id]
        self._ctx.log(TWO_STEP_ROUNDS, "decided", self._name)

    def result(self) -> int:
        return self._name


class TwoStepRenaming(PhaseSequence):
    """A correct process running Algorithm 4 (a one-phase sequence).

    Pre-refactor attributes (``.link_id``, ``.timely``, ``.counter``,
    ``.new_names``) delegate to the phase so analytics and tests introspect
    the process unchanged.
    """

    def __init__(
        self, ctx: ProcessContext, options: TwoStepOptions = TwoStepOptions()
    ) -> None:
        self.options = options
        self.params = SystemParams(ctx.n, ctx.t)
        if options.enforce_resilience:
            self.params.require_fast_regime()
        super().__init__(ctx, [self._two_step_phase])

    def _two_step_phase(self, ctx: PhaseContext, _: object) -> TwoStepPhase:
        self._phase = TwoStepPhase(ctx, self.options)
        return self._phase

    # ------------------------------------------------- pre-refactor attributes

    @property
    def link_id(self) -> Dict[int, int]:
        return self._phase.link_id

    @property
    def timely(self) -> set:
        return self._phase.timely

    @property
    def counter(self) -> Dict[int, int]:
        return self._phase.counter

    @property
    def new_names(self) -> Dict[int, int]:
        return self._phase.new_names
