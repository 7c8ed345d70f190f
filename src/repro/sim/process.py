"""Process abstraction for synchronous round-based protocols.

A protocol is written as a state machine with two hooks per round:

* :meth:`Process.send` — called at the *start* of round ``r``; returns the
  outbox of messages to put on the wire this round.
* :meth:`Process.deliver` — called at the *end* of round ``r`` with the inbox
  of everything that arrived, keyed by local link label.

This split mirrors the paper's "In Step r: broadcast(...); foreach ...
received" structure one-to-one, and lets the runner implement a *rushing*
adversary (which sees all correct round-``r`` messages before choosing its
own) without any protocol cooperation.

Once a process assigns :attr:`Process.output_value` it is done: the runner
stops invoking it and the run completes when every correct process is done.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from random import Random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .messages import Message

#: Sentinel outbox key meaning "send these messages on every link 1..N,
#: including the self-loop" — the paper's ``broadcast``.
BROADCAST = 0

#: An outbox maps a link label (or :data:`BROADCAST`) to the messages to send
#: on it this round.
Outbox = Dict[int, List[Message]]
#: One round's outboxes by sender index.
Outboxes = Dict[int, Outbox]

#: An inbox maps a link label to the tuple of messages that arrived on it.
#:
#: Ordering guarantee: inboxes produced by the simulator
#: (:meth:`SynchronousNetwork.freeze_inbox`) iterate in ascending link order,
#: so per-round protocol loops can walk them directly without re-sorting.
#: Hand-built inboxes (tests, adversarial harnesses) need not be sorted;
#: :func:`ordered_links` normalises either kind at O(n) cost when already
#: sorted.
Inbox = Mapping[int, Tuple[Message, ...]]

#: Optional tracing callback: ``trace(round, event, detail)``.
TraceFn = Callable[[int, str, object], None]


class ProcessContext:
    """Everything a process is allowed to know about its environment.

    Deliberately minimal, matching Section II of the paper: the process knows
    ``n``, the fault bound ``t``, its own original id, and its link labels.
    It does *not* know which peer sits behind which label, nor anyone else's
    id.

    ``rng`` is the process's private :class:`~random.Random`, or a
    zero-argument callable that makes it on the first read of :attr:`rng`:
    the runner passes ``partial(derive_rng, seed, "process", i)``, so a
    protocol that never draws never pays for seeding. Without one the
    context gets a *fixed-seed* generator: a factory that forgets to pass a
    derived rng must never silently produce irreproducible runs.
    """

    def __init__(
        self,
        n: int,
        t: int,
        my_id: int,
        rng: Union[Random, Callable[[], Random], None] = None,
        trace: Optional[TraceFn] = None,
    ) -> None:
        self.n = n
        self.t = t
        self.my_id = my_id
        self._rng = rng
        self.trace = trace

    @property
    def rng(self) -> Random:
        """The process's private random stream, made on first read."""
        rng = self._rng
        if not isinstance(rng, Random):
            rng = self._rng = Random(0) if rng is None else rng()
        return rng

    @property
    def self_link(self) -> int:
        """Label of the self-loop link (``n``)."""
        return self.n

    def log(self, round_no: int, event: str, detail: object = None) -> None:
        """Record a trace event if tracing is enabled (cheap no-op otherwise)."""
        if self.trace is not None:
            self.trace(round_no, event, detail)


class Process(ABC):
    """Base class for correct protocol processes.

    Subclasses implement :meth:`send` and :meth:`deliver` and eventually set
    :attr:`output_value`. Helper :meth:`broadcast` builds the common
    all-links outbox.
    """

    def __init__(self, ctx: ProcessContext) -> None:
        self.ctx = ctx
        self.output_value: Optional[object] = None

    @property
    def done(self) -> bool:
        """True once the process has produced its protocol output."""
        return self.output_value is not None

    @staticmethod
    def broadcast(*messages: Message) -> Outbox:
        """Outbox that sends ``messages`` on every link (incl. self-loop)."""
        return {BROADCAST: list(messages)}

    @abstractmethod
    def send(self, round_no: int) -> Outbox:
        """Messages to transmit at the start of round ``round_no``."""

    @abstractmethod
    def deliver(self, round_no: int, inbox: Inbox) -> None:
        """Consume everything received during round ``round_no``."""


def ordered_links(inbox: Inbox):
    """The inbox's link labels in ascending order, sorting only if needed.

    Simulator-produced inboxes are already link-sorted (see :data:`Inbox`),
    so the common case is a single O(n) sortedness check; hand-built
    unsorted inboxes pay for one sort.
    """
    links = list(inbox)
    if all(links[i] < links[i + 1] for i in range(len(links) - 1)):
        return links
    return sorted(links)


def first_of(messages: Sequence[Message], kind: type) -> Optional[Message]:
    """The first message of ``kind`` among what one link delivered this
    round, or ``None``: a link speaks once per kind and round, so later ones
    are a faulty sender's extras and are ignored."""
    for message in messages:
        if isinstance(message, kind):
            return message
    return None


def broadcast_share(inbox: Inbox) -> Optional[tuple]:
    """The part of an engine-built inbox every recipient of the round
    shares, or ``None`` for an inbox without one (the reference router's,
    :class:`~repro.sim.compose.Multiplexer` sub-inboxes, hand-built dicts).

    The batched router's :class:`~repro.sim.engine.PortInbox` answers
    ``(dense, overlay, memo)``:

    * ``dense[s]`` is the one tuple sender ``s`` broadcast this round, or
      ``None``; every recipient gets every such tuple, on exactly one link;
    * ``overlay`` is this recipient's other traffic, ``{link: [messages]}``
      (``None`` when there is none); no overlay link carries a dense tuple;
    * ``memo`` is one dict for all of the round's inboxes, built fresh each
      round, for what a receiver derives from ``dense`` alone. Its keys
      start with a tag naming the derivation and hold every receiver
      parameter it reads.

    So a receiver's inbox holds exactly the dense tuples plus its overlay,
    in some link order. Read-only: nothing may mutate what it returns.
    """
    return getattr(inbox, "share", None)


def group_links(
    inbox: Inbox,
    pick: Optional[Callable[[int, Tuple[Message, ...]], object]] = None,
) -> List[Tuple[object, List[int]]]:
    """Group the inbox's links by the identity of what each one delivered.

    One walk over :func:`ordered_links`. ``pick(link, messages)`` names the
    object a link contributes, or ``None`` to skip the link; by default it
    is the link's message tuple itself. Returns ``(object, links)`` per
    distinct object, in the order of each object's first link, with
    ``links`` ascending — so a fold that does an object's work once for all
    of its links inserts dict keys in the same order as the per-link walk
    (DESIGN.md §8). The groups hold their objects while the caller runs, so
    identity cannot be recycled under them; nothing keyed by identity
    outlives the call.
    """
    groups: Dict[int, Tuple[object, List[int]]] = {}
    for link in ordered_links(inbox):
        got: object = inbox[link]
        if pick is not None:
            got = pick(link, got)
            if got is None:
                continue
        group = groups.get(id(got))
        if group is None:
            groups[id(got)] = (got, [link])
        else:
            group[1].append(link)
    return list(groups.values())


#: ``fate(label, message)`` decides one network copy for
#: :func:`perturb_links`: ``None`` delivers it unchanged, a tuple replaces
#: it with those copies (``()`` loses it).
Fate = Callable[[int, Message], Optional[Tuple[Message, ...]]]


def perturb_links(outbox: Outbox, n: int, fate: Fate) -> Outbox:
    """What a per-copy perturber leaves of ``outbox``, which it never mutates.

    ``fate`` sees every network copy in outbox order, :data:`BROADCAST`
    expanded into labels ``1..n-1``; the self-loop (label ``n``) and invalid
    labels (the engine raises on them) pass unasked. If some copy is asked
    about, every fate is ``None`` and ``outbox`` is one entry or has no
    broadcast, the result is ``outbox`` itself, so an untouched broadcast
    stays one; otherwise fresh per-label lists. Either way a later walk of
    the result meets the copies label by label, so a perturber that follows
    draws in the same order whatever this one did.
    """
    links = []  # (labels, messages, asked) per entry, a broadcast in two
    for link, messages in outbox.items():
        if link == BROADCAST:
            links += ((range(1, n), messages, True), ((n,), messages, False))
        else:
            links.append(((link,), messages, 0 < link < n))
    fates = [
        fate(label, message)
        for labels, messages, asked in links
        if asked
        for label in labels
        for message in messages
    ]
    if fates.count(None) == len(fates) > 0 and (
        len(outbox) == 1 or BROADCAST not in outbox
    ):
        return outbox
    drawn = iter(fates)
    result: Outbox = {}
    for labels, messages, asked in links:
        for label in labels:
            bucket = result.setdefault(label, [])
            if not asked:
                bucket += messages
                continue
            for message in messages:
                copies = next(drawn)
                bucket += (message,) if copies is None else copies
    return result


def per_label(outbox: Outbox, n: int) -> Outbox:
    """A fresh copy of ``outbox`` as per-label lists, :data:`BROADCAST`
    expanded into labels ``1..n``, as :func:`perturb_links` rebuilds it."""
    return perturb_links(outbox, n, lambda label, message: (message,))
