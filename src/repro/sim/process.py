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
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .messages import Message

#: Sentinel outbox key meaning "send these messages on every link 1..N,
#: including the self-loop" — the paper's ``broadcast``.
BROADCAST = 0

#: An outbox maps a link label (or :data:`BROADCAST`) to the messages to send
#: on it this round.
Outbox = Dict[int, List[Message]]

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


@dataclass
class ProcessContext:
    """Everything a process is allowed to know about its environment.

    Deliberately minimal, matching Section II of the paper: the process knows
    ``n``, the fault bound ``t``, its own original id, and its link labels.
    It does *not* know which peer sits behind which label, nor anyone else's
    id.
    """

    n: int
    t: int
    my_id: int
    #: Defaults to a *fixed-seed* generator: a factory that forgets to pass a
    #: derived rng must never silently produce irreproducible runs. The
    #: runner always overrides this with ``derive_rng(seed, "process", i)``.
    rng: Random = field(default_factory=lambda: Random(0))
    trace: Optional[TraceFn] = None

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


def iter_inbox(inbox: Inbox):
    """Yield ``(link, message)`` pairs over an inbox in link order.

    Handy for the ubiquitous "foreach <msg> received from a distinct link"
    loops in the paper's pseudo-code.
    """
    for link in ordered_links(inbox):
        for message in inbox[link]:
            yield link, message


def network_links(outbox: Outbox, n: int, result: Outbox):
    """Walk an outbox link by link for a per-transmission perturber.

    Yields ``(label, bucket, messages)`` for every network link the outbox
    sends on, :data:`BROADCAST` expanded into labels ``1..n`` in order:
    ``bucket`` is ``result[label]``, the list the caller appends each
    surviving copy of ``messages`` to. Traffic no perturber may touch is
    copied into ``result`` untouched: the self-loop (label ``n``, local
    delivery, not a network link) and invalid labels (so the engine raises
    its usual ``ProtocolViolationError``).
    """
    for link, messages in outbox.items():
        if link == BROADCAST:
            labels = range(1, n + 1)
        elif 1 <= link <= n:
            labels = (link,)
        else:
            result[link] = list(messages)
            continue
        for label in labels:
            bucket = result.setdefault(label, [])
            if label == n:
                bucket.extend(messages)
                continue
            yield label, bucket, messages
