"""FloodSet renaming: the classical ``t + 1``-round crash-model anchor.

Gossip the id set for ``t + 1`` rounds; with at most ``t`` crashes, some
round in any chain of ``t + 1`` is crash-free, after which all correct
processes hold the *same* set (the standard FloodSet argument, Lynch ch. 6).
The new name is simply the rank of the own id in that common set: strong,
order-preserving, exact — but ``t + 1`` rounds regardless of how large
``log t`` would have been, which is the gap the AA-based algorithms close.
Included as the "solve it with exact agreement" comparison point for the
crash model (experiment E8), mirroring what EIG renaming is for the
Byzantine model (E7).
"""

from __future__ import annotations

from typing import Set

from ..core.messages import EchoMessage, IdMessage
from ..core.validation import sound_ids_by_tuple
from ..sim.process import Inbox, Outbox, Process, ProcessContext


class FloodSetRenaming(Process):
    """A correct process flooding ids for ``t + 1`` rounds, then ranking."""

    def __init__(self, ctx: ProcessContext) -> None:
        super().__init__(ctx)
        self.known: Set[int] = {ctx.my_id}
        self.rounds = ctx.t + 1

    def send(self, round_no: int) -> Outbox:
        if round_no == 1:
            return self.broadcast(IdMessage(self.ctx.my_id))
        return self.broadcast(
            *[EchoMessage(identifier) for identifier in sorted(self.known)]
        )

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        for ids, _ in sound_ids_by_tuple(inbox, (IdMessage, EchoMessage)):
            self.known.update(ids)
        if round_no == self.rounds:
            ordered = sorted(self.known)
            self.output_value = ordered.index(self.ctx.my_id) + 1
            self.ctx.log(round_no, "known", tuple(ordered))
