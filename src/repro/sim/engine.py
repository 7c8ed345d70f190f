"""The synchronous round loop, written once, and the two routers it runs on.

:func:`~repro.sim.runner.run_protocol` owns run *setup* (topology, fault
slots, process construction) and result assembly; everything between —
"execute synchronous rounds until every correct process is done" — is
:meth:`Engine.execute`, in the paper's Section II round shape: correct
processes send, the rushing adversary picks the Byzantine outboxes, the
run's perturbers (system model, then chaos) rewrite them, the network
delivers, processes consume, the adversary observes its slots' inboxes.

Engines differ only in delivery: an engine is a name plus a per-run
*router* that turns each round's outboxes into that round's inboxes and
charges the traffic to the round record. :func:`reference_router`
(``"reference"``) is the executable spec, one Python object per message
hop; :func:`batched_router` (``"batched"``, the default) shares one tuple
per broadcasting sender behind lazy :class:`PortInbox` views, so a
broadcast round costs O(n) Python operations.

The routers are **behaviour-identical by contract** — equal inboxes in the
same link order, equal metrics and the same errors under every adversary,
model and chaos plan — and all traffic accounting goes through
:meth:`~repro.sim.metrics.RunMetrics.observe_send`, so the encoding model
cannot drift between them. ``tests/test_engine_differential.py`` checks the
routers against each other; because both share this loop, the whole-run
digests in ``tests/test_differential.py`` pin the absolute outcome.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ConfigurationError, ProtocolViolationError, RoundLimitExceeded
from .faults import Adversary
from .messages import Message
from .metrics import RoundMetrics, RunMetrics
from .monitor import SafetyMonitor
from .network import SynchronousNetwork
from .process import BROADCAST, Inbox, Outbox, Outboxes, Process
from .topology import FullMeshTopology

#: ``route(record, correct_outboxes, byz_outboxes)`` charges one round's
#: traffic to ``record`` and returns the inbox of every recipient that
#: received anything.
Router = Callable[
    [RoundMetrics, Mapping[int, Outbox], Mapping[int, Outbox]], Mapping[int, Inbox]
]

#: ``perturb(round_no, correct_outboxes, byz_outboxes)`` returns the pair to
#: route instead; it is deterministic and never mutates its inputs.
Perturb = Callable[[int, Outboxes, Outboxes], Tuple[Outboxes, Outboxes]]


def _roundtrip_outbox(outbox: Outbox) -> Outbox:
    """Encode and decode every message (the ``through_wire`` fidelity drill).

    Imported lazily: the codec lives above this layer (it knows every
    protocol's message types), so the engine must not import it at module
    scope.
    """
    from ..wire import decode_message, encode_message

    return {
        link: [decode_message(encode_message(message)) for message in messages]
        for link, messages in outbox.items()
    }


def reference_router(topology: FullMeshTopology, metrics: RunMetrics) -> Router:
    """The executable spec: :class:`~repro.sim.network.SynchronousNetwork`
    expands each outbox into ``(link, message)`` transmissions, counted one
    at a time, then frozen into per-recipient inboxes."""
    network = SynchronousNetwork(topology)
    freeze_inbox = network.freeze_inbox

    def route(
        record: RoundMetrics,
        correct_outboxes: Mapping[int, Outbox],
        byz_outboxes: Mapping[int, Outbox],
    ) -> Dict[int, Inbox]:
        # route() expands each outbox exactly once and hands the expanded
        # transmission lists back for accounting — the hot path must never
        # re-expand what the network already walked.
        delivery = network.route({**correct_outboxes, **byz_outboxes})
        for index in correct_outboxes:
            metrics.count_correct(record, (m for _, m in delivery.transmissions[index]))
        record.byzantine_messages += sum(delivery.sent_count(i) for i in byz_outboxes)
        return {index: freeze_inbox(links) for index, links in delivery.plan.items()}

    return route


class PortInbox(MappingABC):
    """Read-only inbox view over one round's broadcast tuples and overlay.

    ``port_row(index)`` is the recipient's port row (``row[link - 1]`` is
    the peer behind ``link``), ``dense[s]`` is the one tuple sender ``s``
    broadcast this round (``None`` if it broadcast nothing), and ``overlay``
    holds the recipient's routed-per-message traffic as
    ``{link: [messages]}``; a link label names exactly one sender, so the
    two never collide on a link.

    Building the view is O(1). The first read fetches the port row (the
    topology draws it then, if no one read it before) and materialises one
    plain dict in ascending link order — content-equal to the inbox the
    reference router builds — and every later read goes to that dict, so a
    protocol that never reads its inbox never pays for ``n``, nor for its
    row. ``dense`` and ``overlay`` are rebuilt every round, never cleared
    in place, so a retained view keeps showing the round it was delivered
    in.

    ``memo`` is the round's dict shared by all of its views; with one,
    :attr:`share` is ``(dense, overlay, memo)``, what
    :func:`~repro.sim.process.broadcast_share` hands a protocol that derives
    something from the dense tuples once per round, not once per receiver.
    """

    __slots__ = ("_port_row", "_index", "_dense", "_overlay", "_links", "share")

    def __init__(
        self,
        port_row: Callable[[int], Sequence[int]],
        index: int,
        dense: Sequence[Optional[Tuple[Message, ...]]],
        overlay: Optional[Dict[int, List[Message]]] = None,
        memo: Optional[Dict[object, object]] = None,
    ) -> None:
        self._port_row = port_row
        self._index = index
        self._dense = dense
        self._overlay = overlay
        self._links: Optional[Dict[int, Tuple[Message, ...]]] = None
        self.share = None if memo is None else (dense, overlay, memo)

    def _resolve(self) -> Dict[int, Tuple[Message, ...]]:
        links = self._links
        if links is None:
            peers = self._port_row(self._index)
            received = zip(
                range(1, len(peers) + 1), map(self._dense.__getitem__, peers)
            )
            overlay = self._overlay
            if overlay is None:
                links = {link: got for link, got in received if got is not None}
            else:
                links = {}
                for link, got in received:
                    if got is None:
                        routed = overlay.get(link)
                        if routed is None:
                            continue
                        got = tuple(routed)
                    links[link] = got
            self._links = links
        return links

    # Each read below costs one attribute load once the dict exists (a
    # materialised inbox is never empty: a view is only built for a
    # recipient that received something).
    def __getitem__(self, link) -> Tuple[Message, ...]:
        return (self._links or self._resolve())[link]

    def __iter__(self):
        return iter(self._links or self._resolve())

    def __len__(self) -> int:
        return len(self._links or self._resolve())

    def __contains__(self, link) -> bool:
        return link in (self._links or self._resolve())

    def get(self, link, default=None):
        return (self._links or self._resolve()).get(link, default)

    def keys(self):
        return (self._links or self._resolve()).keys()

    def items(self):
        return (self._links or self._resolve()).items()

    def values(self):
        return (self._links or self._resolve()).values()

    def __repr__(self) -> str:
        return f"PortInbox({self._resolve()!r})"


def batched_router(topology: FullMeshTopology, metrics: RunMetrics) -> Router:
    """The shared-tuple router (see module docstring).

    Behaviour-identical to :func:`reference_router`; every deviation below
    is an implementation detail that provably cannot be observed:

    * routing reads the topology's own port rows (``port_row(s)[link - 1]``
      and the inverse ``label_row(r)[s]``), so the mapping is the same. The
      topology draws a row the first time it is read: a pure ``BROADCAST``
      outbox reads none, and a view reads its recipient's row only when
      the recipient reads the view, so a flood whose receivers never look
      builds no row at all;
    * a pure ``BROADCAST`` outbox becomes one shared tuple in the round's
      ``dense[sender]`` slot instead of ``n`` per-recipient copies — safe
      because messages are frozen and the reference router already aliases
      one object across all recipients of a broadcast (perturbers pass an
      untouched one on as is). Every other outbox (point-to-point, mixed,
      Byzantine-aimed, perturber-expanded) is routed
      message by message into a sparse per-recipient overlay;
    * inboxes are :class:`PortInbox` views, dict-equal to the reference's
      inboxes and iterating in the same ascending link order;
    * equal messages of the high-volume types are interned to one canonical
      instance — delivered objects compare equal either way. Votes are
      interned by their ranks' exact integer pairs
      (:meth:`~repro.core.messages.RanksMessage.pool_key`), which merges
      exactly the votes ``==`` merges without hashing a ``Fraction``;
    * equal broadcast tuples of two or more id messages from correct senders
      are interned to one tuple per round, so the id folds in ``deliver``
      (which group links by tuple identity, DESIGN.md §8) do each distinct
      echo set once. A one-message tuple is never pooled: its single
      message is already canonical, and hashing the tuple would only cost;
    * traffic is accounted per message with a broadcast fan-out multiplier
      and a per-canonical-instance bit-size cache, which sums to exactly the
      reference's per-transmission accounting;
    * every view of a round shares one memo dict, built fresh each round
      (:func:`~repro.sim.process.broadcast_share`), in which receivers keep
      what they derive from the dense tuples alone.
    """
    n = topology.n
    # port_row(p)[link - 1] is the peer p reaches via link, and
    # label_row(r)[s] the label at r of traffic from s; the overlay needs
    # both, a dense tuple neither.
    port_row = topology.port_row
    label_row = topology.label_row

    # The high-volume message types worth interning, imported here for the
    # codec's layering reason: protocol messages live above this substrate.
    from ..core.messages import (
        EchoMessage, IdMessage, MultiEchoMessage, RanksMessage, ReadyMessage,
    )
    from .compose import EnvelopeMessage

    # Type -> how its messages are keyed in the pool: by the message itself
    # (``itself``) or by a key method.
    itself = object()
    pooled_key = {
        IdMessage: itself,
        EchoMessage: itself,
        MultiEchoMessage: itself,
        EnvelopeMessage: itself,
        RanksMessage: RanksMessage.pool_key,
    }.get
    pool: Dict[object, Message] = {}
    # The kinds whose multi-message broadcast tuples are interned.
    id_kinds = frozenset((IdMessage, EchoMessage, ReadyMessage))
    bits_of: Dict[int, int] = {}  # id(canonical) -> cached bit size
    id_bits = metrics.id_bits
    rank_bits = metrics.rank_bits
    observe_send = metrics.observe_send

    # The round being routed; route() replaces all four every round.
    record: Optional[RoundMetrics] = None
    dense: List[Optional[Tuple[Message, ...]]] = []
    overlays: Dict[int, Dict[int, List[Message]]] = {}
    tuples: Dict[Tuple[Message, ...], Tuple[Message, ...]] = {}  # tuple pool

    def route_outbox(sender: int, outbox: Outbox, correct: bool) -> int:
        """Route one outbox into this round's layers; return its fan-out."""
        shared = len(outbox) == 1 and BROADCAST in outbox
        # A shared broadcast goes to dense[sender] and never needs a row.
        row = None if shared else port_row(sender)
        kept: List[Message] = []
        sent = 0
        for link, messages in outbox.items():
            if link == BROADCAST:
                targets = row
                fan = n
            elif 1 <= link <= n:
                targets = row[link - 1 : link]
                fan = 1
            else:
                raise ProtocolViolationError(
                    f"process {sender} addressed invalid link {link} (n={n})"
                )
            for message in messages:
                if not isinstance(message, Message):
                    raise ProtocolViolationError(
                        f"process {sender} sent a non-Message object: "
                        f"{message!r}"
                    )
                if correct:
                    key_of = pooled_key(type(message))
                    if key_of is not None:
                        pool_key = message if key_of is itself else key_of(message)
                        canonical = pool.get(pool_key)
                        if canonical is None:
                            pool[pool_key] = message
                        else:
                            message = canonical
                        # Pooled instances stay alive for the whole run, so
                        # caching their size by id() is safe; an ephemeral
                        # object's id could be recycled.
                        key = id(message)
                        bits = bits_of.get(key)
                        if bits is None:
                            bits = message.bit_size(
                                id_bits=id_bits, rank_bits=rank_bits
                            )
                            bits_of[key] = bits
                    else:
                        bits = message.bit_size(id_bits=id_bits, rank_bits=rank_bits)
                    observe_send(record, bits, fan)
                sent += fan
                if shared:
                    kept.append(message)
                    continue
                for recipient in targets:
                    overlay = overlays.get(recipient)
                    if overlay is None:
                        overlay = overlays[recipient] = {}
                    overlay.setdefault(label_row(recipient)[sender], []).append(
                        message
                    )
        if kept:
            if (
                len(kept) > 1
                and correct
                and all(type(message) in id_kinds for message in kept)
            ):
                got = tuple(kept)
                dense[sender] = tuples.setdefault(got, got)
            else:
                dense[sender] = tuple(kept)
        return sent

    def route(
        round_record: RoundMetrics,
        correct_outboxes: Mapping[int, Outbox],
        byz_outboxes: Mapping[int, Outbox],
    ) -> Dict[int, Inbox]:
        nonlocal record, dense, overlays, tuples
        record = round_record
        # Fresh layers every round: delivered views may be retained.
        dense = [None] * n
        overlays = {}
        tuples = {}
        for index, outbox in correct_outboxes.items():
            route_outbox(index, outbox, correct=True)
        byz_sent = 0
        for index, outbox in byz_outboxes.items():
            byz_sent += route_outbox(index, outbox, correct=False)
        record.byzantine_messages += byz_sent

        memo: Dict[object, object] = {}  # shared by this round's views only
        if any(dense):
            # A dense sender reached every link, so no inbox is empty.
            return {
                index: PortInbox(port_row, index, dense, overlays.get(index), memo)
                for index in range(n)
            }
        return {
            index: PortInbox(port_row, index, dense, overlay, memo)
            for index, overlay in overlays.items()
        }

    return route


class Engine:
    """The round loop, delivering through a router built fresh per run.

    Stateless between runs, so the registry hands out shared instances
    (including across process-pool forks). ``execute`` must stay defined on
    this class: ``perfbench``'s tracer wraps ``Engine.__dict__["execute"]``.
    """

    def __init__(
        self, name: str, router: Callable[[FullMeshTopology, RunMetrics], Router]
    ) -> None:
        self.name = name
        self.router = router

    def execute(
        self,
        *,
        processes: Dict[int, Process],
        adversary: Adversary,
        byzantine: Sequence[int],
        topology: FullMeshTopology,
        metrics: RunMetrics,
        through_wire: bool = False,
        max_rounds: int = 1000,
        perturbers: Sequence[Perturb] = (),
        monitor: Optional[SafetyMonitor] = None,
    ) -> None:
        """Run rounds until every correct process is done; raises
        :class:`RoundLimitExceeded` if any is still undecided after round
        ``max_rounds``.

        ``perturbers`` rewrite each round's outboxes, in order, between the
        adversary's choice and routing: the system model's injector first
        (it *defines* the network), then chaos (which breaks it).
        ``monitor`` raises :class:`~repro.sim.errors.SafetyViolation` on
        the first breach of the round budget or of an emitted name.
        """
        route = self.router(topology, metrics)
        byz_set = set(byzantine)
        empty: Inbox = {}
        for round_no in range(1, max_rounds + 1):
            pending = [i for i, p in processes.items() if not p.done]
            if not pending:
                return
            if monitor is not None:
                monitor.begin_round(round_no)
            record = metrics.begin_round(round_no)

            correct_outboxes: Dict[int, Outbox] = {
                i: processes[i].send(round_no) for i in pending
            }
            if through_wire:
                correct_outboxes = {
                    i: _roundtrip_outbox(outbox)
                    for i, outbox in correct_outboxes.items()
                }
            byz_outboxes = adversary.send(round_no, correct_outboxes)
            for index in byz_outboxes:
                if index not in byz_set:
                    raise ConfigurationError(
                        f"adversary tried to send as correct process {index}"
                    )
            for perturb in perturbers:
                correct_outboxes, byz_outboxes = perturb(
                    round_no, correct_outboxes, byz_outboxes
                )

            inboxes = route(record, correct_outboxes, byz_outboxes)
            for index in pending:
                processes[index].deliver(round_no, inboxes.get(index, empty))
            if monitor is not None:
                monitor.after_deliver(round_no, processes)
            if adversary.wants_observations:
                adversary.observe(
                    round_no,
                    {index: inboxes[index] for index in byzantine if index in inboxes},
                )
        stuck = [i for i, p in processes.items() if not p.done]
        if not stuck:
            return  # the last process decided in round max_rounds
        raise RoundLimitExceeded(
            f"{len(stuck)} correct processes undecided after {max_rounds} rounds: "
            f"{stuck[:8]}"
        )


#: Shared, stateless engine instances keyed by selector name.
ENGINES: Dict[str, Engine] = {
    "reference": Engine("reference", reference_router),
    "batched": Engine("batched", batched_router),
}

#: The engine ``run_protocol`` uses when none is requested.
DEFAULT_ENGINE = "batched"


def resolve_engine(name: str) -> Engine:
    """Look up an engine by selector name (``"reference"`` | ``"batched"``)."""
    try:
        return ENGINES[name]
    except KeyError:
        known = ", ".join(sorted(ENGINES))
        raise ConfigurationError(
            f"unknown engine {name!r}; known engines: {known}"
        ) from None


def engine_names() -> List[str]:
    """All registered engine selector names, sorted."""
    return sorted(ENGINES)
