"""Round execution engines: the reference loop and its fast path.

:func:`~repro.sim.runner.run_protocol` owns run *setup* (topology, fault
slots, process construction) and result assembly; everything between —
"execute synchronous rounds until every correct process is done" — is an
:class:`Engine`. Two implementations ship:

* :class:`ReferenceEngine` (``"reference"``) — the original, obviously-correct
  loop: per-round ``Outbox`` dicts expanded into ``(link, message)``
  transmission lists by :meth:`~repro.sim.network.SynchronousNetwork.route`,
  then frozen into per-recipient inboxes. One Python object per message hop.
* :class:`BatchedEngine` (``"batched"``, the default) — one shared immutable
  tuple per broadcasting sender instead of per-recipient copies, a sparse
  per-recipient overlay for every other outbox shape, and lazy
  :class:`PortInbox` views that resolve through the recipient's port row,
  so a broadcast round costs O(n) Python operations plus whatever the
  protocols read. Equal high-volume messages are interned, and traffic is
  accounted per *message* (not per transmission) with cached bit sizes.

The engines are **behaviour-identical by contract**: same process calls
in the same order, equal inboxes, equal metrics, equal traces, same errors —
under every adversary, because the adversary's rushing view and observation
inboxes are built identically. ``tests/test_engine_differential.py`` enforces
the contract across every registered algorithm × attack × seed grid; any
optimisation that cannot keep the contract does not belong here. All traffic
accounting flows through the single shared primitive
:meth:`~repro.sim.metrics.RunMetrics.observe_send`, so the encoding model
cannot drift between engines.

Both engines honour two opt-in collection knobs: tracing costs nothing
unless a :class:`~repro.sim.trace.TraceRecorder` was attached at setup, and
``collect_metrics=False`` skips all traffic accounting (round count is
always maintained — it is load-bearing for every caller).

They also share two opt-in robustness hooks, wired at identical points of
the round loop so the behavioural contract extends to them: a
:class:`~repro.sim.chaos.ChaosInjector` perturbs outboxes between adversary
selection and routing (beyond-model fault injection), and a
:class:`~repro.sim.monitor.SafetyMonitor` checks the round budget at round
start and every emitted name after delivery. Both are ``None`` by default
and add zero work when absent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Mapping as MappingABC
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .chaos import ChaosInjector
from .errors import ConfigurationError, ProtocolViolationError, RoundLimitExceeded
from .faults import Adversary
from .messages import Message
from .metrics import RunMetrics
from .monitor import SafetyMonitor
from .network import SynchronousNetwork
from .process import BROADCAST, Inbox, Outbox, Process


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


def _pooled_types() -> Tuple[type, ...]:
    """The high-volume message types worth interning.

    Imported lazily for the same layering reason as the codec: the concrete
    protocol messages live above the simulator substrate.
    """
    from ..core.messages import EchoMessage, IdMessage, RanksMessage
    from .compose import EnvelopeMessage

    return (IdMessage, EchoMessage, RanksMessage, EnvelopeMessage)


class Engine(ABC):
    """One strategy for executing the synchronous round loop.

    Engines are stateless between runs — all per-run working state lives
    inside :meth:`execute` — so the registry can hand out shared instances
    (including across process-pool forks).
    """

    #: Registry name, set by subclasses.
    name: str

    @abstractmethod
    def execute(
        self,
        *,
        processes: Dict[int, Process],
        adversary: Adversary,
        byzantine: Sequence[int],
        network: SynchronousNetwork,
        metrics: RunMetrics,
        through_wire: bool = False,
        max_rounds: int = 1000,
        collect_metrics: bool = True,
        chaos: Optional[ChaosInjector] = None,
        monitor: Optional[SafetyMonitor] = None,
    ) -> None:
        """Run rounds until every correct process is done.

        Raises :class:`RoundLimitExceeded` if ``max_rounds`` fires first.

        ``chaos`` (a bound :class:`~repro.sim.chaos.ChaosInjector`) perturbs
        each round's outboxes between collection and routing; ``monitor`` (a
        :class:`~repro.sim.monitor.SafetyMonitor`) checks round budgets and
        emitted names, raising :class:`~repro.sim.errors.SafetyViolation` on
        the first breach. Both default to ``None`` and cost nothing when
        absent; both are engine-independent, so the cross-engine behavioural
        contract extends to chaotic and monitored runs.
        """


class ReferenceEngine(Engine):
    """The original per-object round loop (see module docstring)."""

    name = "reference"

    def execute(
        self,
        *,
        processes: Dict[int, Process],
        adversary: Adversary,
        byzantine: Sequence[int],
        network: SynchronousNetwork,
        metrics: RunMetrics,
        through_wire: bool = False,
        max_rounds: int = 1000,
        collect_metrics: bool = True,
        chaos: Optional[ChaosInjector] = None,
        monitor: Optional[SafetyMonitor] = None,
    ) -> None:
        byz_set = set(byzantine)
        for round_no in range(1, max_rounds + 1):
            pending = [i for i, p in processes.items() if not p.done]
            if not pending:
                break
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
            if chaos is not None:
                correct_outboxes, byz_outboxes = chaos.perturb(
                    round_no, correct_outboxes, byz_outboxes
                )

            all_outboxes: Dict[int, Outbox] = dict(correct_outboxes)
            all_outboxes.update(byz_outboxes)
            # route() expands each outbox exactly once and hands the expanded
            # transmission lists back for accounting — the hot path must never
            # re-expand what the network already walked.
            delivery = network.route(all_outboxes)
            plan = delivery.plan

            if collect_metrics:
                for index in correct_outboxes:
                    metrics.count_correct(
                        record, (m for _, m in delivery.transmissions[index])
                    )
                record.byzantine_messages += sum(
                    delivery.sent_count(index) for index in byz_outboxes
                )

            empty: Inbox = {}
            for index in pending:
                links = plan.get(index)
                inbox = network.freeze_inbox(links) if links else empty
                processes[index].deliver(round_no, inbox)
            if monitor is not None:
                monitor.after_deliver(round_no, processes)
            if adversary.wants_observations:
                byz_inboxes: Mapping[int, Inbox] = {
                    index: network.freeze_inbox(plan[index])
                    for index in byzantine
                    if index in plan
                }
                adversary.observe(round_no, byz_inboxes)
        else:
            _raise_round_limit(processes, max_rounds)


class PortInbox(MappingABC):
    """Read-only inbox view over one round's broadcast tuples and overlay.

    ``peers`` is the recipient's port row (``peers[link - 1]`` is the peer
    behind ``link``), ``dense[s]`` is the one tuple sender ``s`` broadcast
    this round (``None`` if it broadcast nothing), and ``overlay`` holds the
    recipient's routed-per-message traffic as ``{link: [messages]}``; a link
    label names exactly one sender, so the two never collide on a link.

    Building the view is O(1). The first read materialises one plain dict
    in ascending link order — content-equal to the inbox the reference
    engine builds — and every later read goes to that dict, so a protocol
    that never reads its inbox never pays for ``n``. ``dense`` and
    ``overlay`` are rebuilt every round, never cleared in place, so a
    retained view keeps showing the round it was delivered in.
    """

    __slots__ = ("_peers", "_dense", "_overlay", "_links")

    def __init__(
        self,
        peers: Sequence[int],
        dense: Sequence[Optional[Tuple[Message, ...]]],
        overlay: Optional[Dict[int, List[Message]]] = None,
    ) -> None:
        self._peers = peers
        self._dense = dense
        self._overlay = overlay
        self._links: Optional[Dict[int, Tuple[Message, ...]]] = None

    def _resolve(self) -> Dict[int, Tuple[Message, ...]]:
        links = self._links
        if links is None:
            received = zip(
                range(1, len(self._peers) + 1),
                map(self._dense.__getitem__, self._peers),
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


class BatchedEngine(Engine):
    """Shared-tuple round loop (see module docstring).

    Behaviour-identical to :class:`ReferenceEngine`; every deviation below is
    an implementation detail that provably cannot be observed:

    * routing reads the topology's own port rows (``peer_at[s][link - 1]``,
      and their inverse ``label_at[r][s]``, which the topology builds on
      first use), so the mapping is the same;
    * a pure ``BROADCAST`` outbox becomes one shared tuple in the round's
      ``dense[sender]`` slot instead of ``n`` per-recipient copies — safe
      because messages are frozen and the reference engine already aliases
      one object across all recipients of a broadcast. Every other outbox
      (point-to-point, mixed, Byzantine-aimed, chaos-expanded) is routed
      message by message into a sparse per-recipient overlay;
    * inboxes are :class:`PortInbox` views, dict-equal to the reference's
      inboxes and iterating in the same ascending link order;
    * equal messages of the high-volume types are interned to one canonical
      instance — delivered objects compare equal either way;
    * traffic is accounted per message with a broadcast fan-out multiplier
      and a per-canonical-instance bit-size cache, which sums to exactly the
      reference's per-transmission accounting.
    """

    name = "batched"

    def execute(
        self,
        *,
        processes: Dict[int, Process],
        adversary: Adversary,
        byzantine: Sequence[int],
        network: SynchronousNetwork,
        metrics: RunMetrics,
        through_wire: bool = False,
        max_rounds: int = 1000,
        collect_metrics: bool = True,
        chaos: Optional[ChaosInjector] = None,
        monitor: Optional[SafetyMonitor] = None,
    ) -> None:
        topology = network.topology
        n = topology.n
        byz_set = set(byzantine)

        # peer_at[p][link - 1] is the peer p reaches via link; its rows are
        # the topology's own tuples, shared with every PortInbox. The
        # inverse, label_at[r][s], is needed only by the overlay, and the
        # topology builds it on first use (a run of pure broadcasts never
        # pays n²).
        peer_at = topology.port_rows

        pooled = frozenset(_pooled_types())
        pool: Dict[Message, Message] = {}
        bits_of: Dict[int, int] = {}  # id(canonical) -> cached bit size
        id_bits = metrics.id_bits
        rank_bits = metrics.rank_bits
        observe_send = metrics.observe_send

        def route(sender: int, outbox: Outbox, correct: bool) -> int:
            """Route one outbox into this round's layers; returns the
            transmission count."""
            shared = len(outbox) == 1 and BROADCAST in outbox
            if not shared:
                label_at = topology.label_rows
            row = peer_at[sender]
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
                        is_pooled = type(message) in pooled
                        if is_pooled:
                            canonical = pool.get(message)
                            if canonical is None:
                                pool[message] = message
                            else:
                                message = canonical
                        if collect_metrics:
                            if is_pooled:
                                # Pooled instances stay alive for the whole
                                # run, so caching their size by id() is safe;
                                # an ephemeral object's id could be recycled.
                                key = id(message)
                                bits = bits_of.get(key)
                                if bits is None:
                                    bits = message.bit_size(
                                        id_bits=id_bits, rank_bits=rank_bits
                                    )
                                    bits_of[key] = bits
                            else:
                                bits = message.bit_size(
                                    id_bits=id_bits, rank_bits=rank_bits
                                )
                            observe_send(record, bits, fan)
                    sent += fan
                    if shared:
                        kept.append(message)
                        continue
                    for recipient in targets:
                        overlay = overlays.get(recipient)
                        if overlay is None:
                            overlay = overlays[recipient] = {}
                        overlay.setdefault(label_at[recipient][sender], []).append(
                            message
                        )
            if kept:
                dense[sender] = tuple(kept)
            return sent

        empty: Inbox = {}
        for round_no in range(1, max_rounds + 1):
            pending = [i for i, p in processes.items() if not p.done]
            if not pending:
                break
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
            if chaos is not None:
                correct_outboxes, byz_outboxes = chaos.perturb(
                    round_no, correct_outboxes, byz_outboxes
                )

            # Fresh layers every round: delivered views may be retained.
            dense: List[Optional[Tuple[Message, ...]]] = [None] * n
            overlays: Dict[int, Dict[int, List[Message]]] = {}
            for index, outbox in correct_outboxes.items():
                route(index, outbox, correct=True)
            byz_sent = 0
            for index, outbox in byz_outboxes.items():
                byz_sent += route(index, outbox, correct=False)
            if collect_metrics:
                record.byzantine_messages += byz_sent

            # A dense sender reached every link, so then no inbox is empty.
            has_dense = any(dense)
            for index in pending:
                overlay = overlays.get(index)
                inbox: Inbox = (
                    PortInbox(peer_at[index], dense, overlay)
                    if has_dense or overlay
                    else empty
                )
                processes[index].deliver(round_no, inbox)
            if monitor is not None:
                monitor.after_deliver(round_no, processes)
            if adversary.wants_observations:
                byz_inboxes: Dict[int, Inbox] = {}
                for index in byzantine:
                    overlay = overlays.get(index)
                    if has_dense or overlay:
                        byz_inboxes[index] = PortInbox(peer_at[index], dense, overlay)
                adversary.observe(round_no, byz_inboxes)
        else:
            _raise_round_limit(processes, max_rounds)


def _raise_round_limit(processes: Dict[int, Process], max_rounds: int) -> None:
    stuck = [i for i, p in processes.items() if not p.done]
    raise RoundLimitExceeded(
        f"{len(stuck)} correct processes undecided after {max_rounds} rounds: "
        f"{stuck[:8]}"
    )


#: Shared, stateless engine instances keyed by selector name.
ENGINES: Dict[str, Engine] = {
    engine.name: engine for engine in (ReferenceEngine(), BatchedEngine())
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
