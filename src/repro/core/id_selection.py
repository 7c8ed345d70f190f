"""The 4-step id-selection phase of Algorithm 1 (Steps 1–4, Section IV-A).

This phase bounds how many identifiers Byzantine processes can inject before
the rank-approximation phase runs. It is a 4-step cousin of Bracha's
Echo/Ready reliable broadcast, adapted to the setting where sender identities
are unknown (only link labels are observable). It guarantees, at every
correct process ``p`` (Lemmas IV.1–IV.3):

* ``timely_p`` contains every correct id;
* ``accepted_p ⊇ ⋃_{q correct} timely_q``;
* ``|accepted_p| ≤ N + ⌊t²/(N−2t)⌋``  (``≤ N + t − 1`` when ``N > 3t``).

The class is a :class:`~repro.sim.compose.Phase`: :meth:`messages_for_step`
says what to broadcast and :meth:`deliver_step` consumes an inbox, so the
same object composes into Alg. 1's :class:`~repro.sim.compose.PhaseSequence`,
into the translated-Byzantine baseline's, and into unit tests that drive it
with hand-crafted message patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from ..sim.compose import Phase
from ..sim.process import Inbox
from .messages import EchoMessage, IdMessage, Message, ReadyMessage, announced_ids
from .validation import sound_ids_by_tuple

#: Number of communication steps this phase takes.
ID_SELECTION_STEPS = 4


@dataclass(frozen=True)
class IdSelectionResult:
    """Completion result of the id-selection phase (Lemmas IV.1–IV.3).

    ``ordered`` is ``accepted`` sorted ascending (line 26's ``sort``) — the
    basis for initial ranks in Alg. 1 and for the namespace split in the
    translated baseline.
    """

    timely: FrozenSet[int]
    accepted: FrozenSet[int]
    ordered: Tuple[int, ...]


class IdSelectionPhase(Phase):
    """State machine for Steps 1–4 of Algorithm 1.

    Drive it with ``messages_for_step(s)`` / ``deliver_step(s, inbox)`` for
    ``s = 1..4``; afterwards read :attr:`timely`, :attr:`accepted`,
    :meth:`sorted_accepted` — or :meth:`result` for the packaged
    :class:`IdSelectionResult` when composing.
    """

    steps = ID_SELECTION_STEPS

    def __init__(self, n: int, t: int, my_id: int) -> None:
        self.n = n
        self.t = t
        self.my_id = my_id
        #: ids carried forward to the next step ("Ids" in the pseudo-code).
        self._pending: Set[int] = set()
        #: id -> links that echoed it (Step 2).
        self._echo_links: Dict[int, Set[int]] = {}
        #: id -> links that sent READY for it (cumulative over Steps 3 and 4).
        self._ready_links: Dict[int, Set[int]] = {}
        #: ids this process has already broadcast READY for.
        self._readied: Set[int] = set()
        self.timely: FrozenSet[int] = frozenset()
        self.accepted: FrozenSet[int] = frozenset()

    # ------------------------------------------------------------------ sends

    def messages_for_step(self, step: int) -> List[Message]:
        """Messages to broadcast at the start of phase-step ``step`` (1-based)."""
        if step == 1:
            return [IdMessage(self.my_id)]
        if step == 2:
            return [EchoMessage(identifier) for identifier in sorted(self._pending)]
        if step in (3, 4):
            messages: List[Message] = []
            for identifier in sorted(self._pending):
                self._readied.add(identifier)
                messages.append(ReadyMessage(identifier))
            return messages
        raise ValueError(f"id selection has steps 1..4, got {step}")

    # --------------------------------------------------------------- receives

    def deliver_step(self, step: int, inbox: Inbox) -> None:
        """Consume the inbox of phase-step ``step`` and update state."""
        if step == 1:
            self._deliver_ids(inbox)
        elif step == 2:
            self._deliver_echoes(inbox)
        elif step == 3:
            self._deliver_readies(inbox)
            self._close_step3()
        elif step == 4:
            self._deliver_readies(inbox)
            self._close_step4()
        else:
            raise ValueError(f"id selection has steps 1..4, got {step}")

    def _deliver_ids(self, inbox: Inbox) -> None:
        # Step 1: "foreach id: <Id, id> received from a distinct link", one
        # id per link (the strongest reading).
        self._pending.update(identifier for _, identifier in announced_ids(inbox))

    def _deliver_echoes(self, inbox: Inbox) -> None:
        # Step 2: keep ids echoed on at least N−t distinct links. Correct
        # senders with equal echo sets share one tuple, checked once.
        for ids, links in sound_ids_by_tuple(inbox, EchoMessage):
            for identifier in ids:
                self._echo_links.setdefault(identifier, set()).update(links)
        self._pending = {
            identifier
            for identifier, links in self._echo_links.items()
            if len(links) >= self.n - self.t
        }

    def _deliver_readies(self, inbox: Inbox) -> None:
        # Steps 3 and 4 accumulate READY support per distinct link; a link
        # confirming the same id in both steps counts once.
        for ids, links in sound_ids_by_tuple(inbox, ReadyMessage):
            for identifier in ids:
                self._ready_links.setdefault(identifier, set()).update(links)

    def _close_step3(self) -> None:
        # timely: ids with >= N−t READY links after step 3 (line 17-18).
        self.timely = frozenset(
            identifier
            for identifier, links in self._ready_links.items()
            if len(links) >= self.n - self.t
        )
        # amplification: ids with >= N−2t READY links that we have not yet
        # confirmed get a READY from us in step 4 (lines 19-20).
        self._pending = {
            identifier
            for identifier, links in self._ready_links.items()
            if len(links) >= self.n - 2 * self.t and identifier not in self._readied
        }

    def _close_step4(self) -> None:
        # accepted: ids with >= N−t READY links over steps 3 and 4 (lines 24-25).
        self.accepted = frozenset(
            identifier
            for identifier, links in self._ready_links.items()
            if len(links) >= self.n - self.t
        )

    # ----------------------------------------------------------------- output

    def sorted_accepted(self) -> Tuple[int, ...]:
        """The accepted ids in ascending order (line 26's ``sort``)."""
        return tuple(sorted(self.accepted))

    def result(self) -> IdSelectionResult:
        """Package the phase outcome for the next phase in a sequence."""
        return IdSelectionResult(
            timely=self.timely,
            accepted=self.accepted,
            ordered=self.sorted_accepted(),
        )
