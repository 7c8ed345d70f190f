"""Noise strategies: protocol-shaped garbage at full volume.

These do not implement a clever attack; they stress the *robustness* of the
message-handling paths — duplicate messages on one link, unknown ids, ranks
with absurd magnitudes, wrong message kinds for the current round. A correct
implementation shrugs all of it off; a sloppy one crashes or miscounts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping

from ..sim.faults import Adversary
from ..sim.messages import Message
from ..sim.process import Outbox
from ..core.messages import (
    EchoMessage,
    IdMessage,
    MultiEchoMessage,
    RanksMessage,
    ReadyMessage,
)
from .base import per_link_outbox


class RandomNoiseAdversary(Adversary):
    """Every faulty slot floods every link with random protocol messages.

    ``intensity`` is the number of messages per link per round. Ids are drawn
    from a window around the real id range so some collide with real ids and
    some are fresh garbage.
    """

    def __init__(self, intensity: int = 3) -> None:
        self._intensity = intensity

    def _random_message(self, id_high: int) -> Message:
        """One random message; its ids are drawn from ``[1, id_high]``."""
        rng = self.ctx.rng
        choice = rng.randrange(5)
        if choice == 0:
            return IdMessage(rng.randint(1, id_high))
        if choice == 1:
            return EchoMessage(rng.randint(1, id_high))
        if choice == 2:
            return ReadyMessage(rng.randint(1, id_high))
        if choice == 3:
            count = rng.randint(0, self.ctx.n)
            entries = tuple(
                (rng.randint(1, id_high), Fraction(rng.randint(-10 * self.ctx.n, 10 * self.ctx.n), rng.randint(1, 7)))
                for _ in range(count)
            )
            return RanksMessage(entries=entries)
        return MultiEchoMessage.from_ids(
            rng.randint(1, id_high) for _ in range(rng.randint(0, self.ctx.n))
        )

    def send(self, round_no: int, correct_outboxes: Mapping[int, Outbox]) -> Dict[int, Outbox]:
        id_high = max(self.ctx.ids.values()) + 10
        outboxes: Dict[int, Outbox] = {}
        for index in self.ctx.byzantine:
            content: Dict[int, List[Message]] = {}
            for peer in range(self.ctx.n):
                content[peer] = [self._random_message(id_high) for _ in range(self._intensity)]
            outboxes[index] = per_link_outbox(
                content, sender=index, topology=self.ctx.topology
            )
        return outboxes


class ReplayAdversary(Adversary):
    """Copies correct messages seen this round back out on every link.

    A rushing mirror: whatever some correct process just said, the faulty
    slots repeat verbatim to everyone. Checks that support counting is by
    *distinct links*, not by message volume — replayed duplicates must not
    inflate any threshold past what the ``t`` faulty links legitimately add.
    """

    def send(self, round_no: int, correct_outboxes: Mapping[int, Outbox]) -> Dict[int, Outbox]:
        seen: List[Message] = []
        for outbox in correct_outboxes.values():
            for messages in outbox.values():
                seen.extend(messages)
                break  # one link's worth per correct process is plenty
        payload = seen[: 2 * self.ctx.n]
        if not payload:
            return {}
        return {
            index: {link: list(payload) for link in self.ctx.topology.labels()}
            for index in self.ctx.byzantine
        }
