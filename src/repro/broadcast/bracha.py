"""Bracha-style Echo/Ready reliable broadcast, synchronous adaptation.

Section IV-A of the paper notes that its id-selection phase uses "control
messages similar to the reliable broadcast algorithm of [4]" (Bracha &
Toueg). This module implements that classic single-source primitive so the
relationship can be studied and tested directly:

* round 1 — the source broadcasts ``⟨INITIAL, v⟩``;
* round 2 — every process that received INITIAL *on the source's link*
  broadcasts ``⟨ECHO, v⟩``;
* round 3 — a process that received ``N − t`` matching ECHOes broadcasts
  ``⟨READY, v⟩``;
* round 4 — a process that received ``N − 2t`` matching READYs (and had not
  sent one) broadcasts READY; everyone with ``N − t`` cumulative READYs
  delivers ``v``.

Guarantees (for ``N > 3t``): if the source is correct every correct process
delivers its value by round 3; if Byzantine, either nobody delivers or every
correct process delivers the same value by round 4 (at most one value can
collect ``N − t`` ECHOes).

Crucially this primitive **requires knowing which link belongs to the
source** — exactly the assumption the renaming problem lacks (receivers
cannot bind links to unknown ids a priori). :func:`make_rb_factory`
reconstructs that knowledge from the topology seed, making the out-of-band
assumption explicit in the API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

from ..sim.messages import KIND_BITS, Message
from ..sim.process import Inbox, Outbox, Process, ProcessContext
from ..sim.topology import FullMeshTopology

#: Rounds after which every correct process has either delivered or never will.
RELIABLE_BROADCAST_ROUNDS = 4

#: Output of a process that did not deliver any value.
NO_DELIVERY = "none"


@dataclass(frozen=True)
class InitialMessage(Message):
    value: int

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + id_bits


@dataclass(frozen=True)
class EchoValueMessage(Message):
    value: int

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + id_bits


@dataclass(frozen=True)
class ReadyValueMessage(Message):
    value: int

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + id_bits


class ReliableBroadcast(Process):
    """One instance of synchronous Echo/Ready reliable broadcast.

    ``source_link`` is the local link on which the source's messages arrive
    (``None`` for every process except when known); the source itself passes
    ``value``. Output: the delivered value, or :data:`NO_DELIVERY`.
    """

    def __init__(
        self,
        ctx: ProcessContext,
        source_link: Optional[int],
        value: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        self.source_link = source_link
        self.value = value  # non-None only at the source
        self._echo_value: Optional[int] = None
        self._ready_value: Optional[int] = None
        self._echo_links: Dict[int, Set[int]] = {}
        self._ready_links: Dict[int, Set[int]] = {}
        self._ready_sent = False

    # ------------------------------------------------------------------ rounds

    def send(self, round_no: int) -> Outbox:
        if round_no == 1:
            if self.value is not None:
                return self.broadcast(InitialMessage(self.value))
            return {}
        if round_no == 2:
            if self._echo_value is not None:
                return self.broadcast(EchoValueMessage(self._echo_value))
            return {}
        if round_no in (3, 4):
            if self._ready_value is not None and not self._ready_sent:
                self._ready_sent = True
                return self.broadcast(ReadyValueMessage(self._ready_value))
            return {}
        return {}

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        threshold = self.ctx.n - self.ctx.t
        if round_no == 1:
            self._accept_initial(inbox)
        elif round_no == 2:
            self._count(inbox, EchoValueMessage, self._echo_links)
            self._ready_value = self._supported(self._echo_links, threshold)
        elif round_no in (3, 4):
            self._count(inbox, ReadyValueMessage, self._ready_links)
            if round_no == 3 and self._ready_value is None:
                # Amplification: adopt a READY value with N−2t support.
                self._ready_value = self._supported(
                    self._ready_links, self.ctx.n - 2 * self.ctx.t
                )
            if round_no == RELIABLE_BROADCAST_ROUNDS:
                delivered = self._supported(self._ready_links, threshold)
                self.output_value = NO_DELIVERY if delivered is None else delivered

    # ---------------------------------------------------------------- plumbing

    def _accept_initial(self, inbox: Inbox) -> None:
        if self.source_link is None:
            return
        for message in inbox.get(self.source_link, ()):
            if isinstance(message, InitialMessage) and isinstance(
                message.value, int
            ):
                self._echo_value = message.value
                return

    @staticmethod
    def _count(inbox: Inbox, kind, registry: Dict[int, Set[int]]) -> None:
        for link in sorted(inbox):
            for message in inbox[link]:
                if isinstance(message, kind) and isinstance(message.value, int):
                    registry.setdefault(message.value, set()).add(link)
                    break  # one vote per link

    @staticmethod
    def _supported(registry: Dict[int, Set[int]], threshold: int) -> Optional[int]:
        for value in sorted(registry):
            if len(registry[value]) >= threshold:
                return value
        return None


def make_rb_factory(
    n: int, ids: Sequence[int], seed: int, source_index: int, value: int
):
    """Factory wiring source-link knowledge into every process.

    The topology is re-derived from ``n``/``seed`` (it is deterministic), so
    each process can be told which of *its* links is the source's — the
    out-of-band identity assumption reliable broadcast needs and renaming
    forbids. ``seed`` is the run's labelling seed: ``run_protocol``'s
    ``topology_seed`` when given, else its ``seed``.
    """
    topology = FullMeshTopology(n, seed=seed)
    index_of_id = {identifier: index for index, identifier in enumerate(ids)}

    def factory(ctx: ProcessContext) -> ReliableBroadcast:
        me = index_of_id[ctx.my_id]
        if me == source_index:
            return ReliableBroadcast(ctx, source_link=topology.self_link, value=value)
        return ReliableBroadcast(
            ctx, source_link=topology.label_of(me, source_index)
        )

    return factory
