"""Shared machinery for Byzantine attack strategies.

Two recurring shapes:

* :class:`ProtocolDrivenAdversary` — strategies that run the *real* protocol
  inside each faulty slot and deviate only in what they put on the wire
  (conforming behaviour, crashes, vote skew). The runner's
  ``send``/``observe`` hooks are bridged onto the internal processes'
  ``send``/``deliver``.
* :func:`per_link_outbox` and friends — helpers for building equivocating
  outboxes (different content on different links), the core Byzantine power.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

from ..sim.faults import Adversary
from ..sim.messages import Message
from ..sim.process import Inbox, Outbox, Process


def per_link_outbox(content_by_peer: Mapping[int, Sequence[Message]], *, sender: int, topology) -> Outbox:
    """Build an outbox that sends ``content_by_peer[q]`` to each peer ``q``.

    Peers are addressed by *global index*; the helper translates to the
    sender's local link labels. The sender's own global index maps to its
    self-loop.
    """
    outbox: Outbox = {}
    for peer, messages in content_by_peer.items():
        if not messages:
            continue
        if peer == sender:
            link = topology.self_link
        else:
            link = topology.label_of(sender, peer)
        outbox.setdefault(link, []).extend(messages)
    return outbox


class ProtocolDrivenAdversary(Adversary):
    """Runs a genuine protocol instance per faulty slot.

    Subclasses override :meth:`mutate_outbox` to distort what each slot
    transmits (default: transmit faithfully) and may override
    :meth:`mutate_inbox` to distort what the internal instance perceives.
    """

    def bind(self, ctx) -> None:
        super().bind(ctx)
        self._instances: Dict[int, Process] = {
            index: ctx.make_process(index) for index in ctx.byzantine
        }
        # Internal instances run in a hostile spot: a slot that crashed or
        # equivocated may leave its own protocol instance in a state a correct
        # process could never reach (e.g. its own id rejected). Such an
        # instance just stops being driven — the slot falls silent.
        self._wrecked: set = set()

    def instance(self, index: int) -> Process:
        """The internal protocol process driving faulty slot ``index``."""
        return self._instances[index]

    def _alive(self, index: int) -> bool:
        return index not in self._wrecked and not self._instances[index].done

    def send(self, round_no: int, correct_outboxes: Mapping[int, Outbox]) -> Dict[int, Outbox]:
        outboxes: Dict[int, Outbox] = {}
        for index, process in self._instances.items():
            if not self._alive(index):
                continue
            try:
                genuine = process.send(round_no)
            except Exception:
                self._wrecked.add(index)
                continue
            mutated = self.mutate_outbox(round_no, index, genuine, correct_outboxes)
            if mutated:
                outboxes[index] = mutated
        return outboxes

    def observe(self, round_no: int, inboxes: Mapping[int, Inbox]) -> None:
        for index, process in self._instances.items():
            if not self._alive(index):
                continue
            inbox = inboxes.get(index, {})
            try:
                process.deliver(round_no, self.mutate_inbox(round_no, index, inbox))
            except Exception:
                self._wrecked.add(index)

    # ------------------------------------------------------------------ hooks

    def mutate_outbox(
        self,
        round_no: int,
        index: int,
        genuine: Outbox,
        correct_outboxes: Mapping[int, Outbox],
    ) -> Outbox:
        """Distort slot ``index``'s genuine round outbox (default: none)."""
        return genuine

    def mutate_inbox(self, round_no: int, index: int, inbox: Inbox) -> Inbox:
        """Distort what slot ``index`` perceives (default: none)."""
        return inbox


class ConformingAdversary(ProtocolDrivenAdversary):
    """Faulty slots that behave exactly like correct processes.

    The weakest adversary: runs should be indistinguishable from fault-free
    executions with ``N`` correct processes. Used as a sanity anchor in tests
    and experiments.
    """
