"""Exponential Information Gathering (EIG) interactive consistency.

The classical synchronous Byzantine protocol (Lynch, *Distributed
Algorithms*, ch. 6; Bar-Noy/Dolev/Dwork/Strong): ``t + 1`` rounds, ``N > 3t``,
message size exponential in ``t``. Every correct process ends with the *same*
vector of all processes' input values (correct entries exact, Byzantine
entries agreed-upon), which makes renaming trivial — and expensive. This is
the "just use consensus" strawman of the paper's introduction, implemented
honestly so E7 can price it.

Runs in the identified model (see :mod:`repro.agreement.identity`).

Data layout: the EIG tree is a dict keyed by tuples of distinct process
indices (paths). ``val[(j,)]`` is what ``j`` claimed as its own value;
``val[path + (q,)]`` is what ``q`` relayed about ``path``. After round
``t + 1`` the tree is resolved bottom-up by strict majority with a default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.messages import _DecodeOnce
from ..sim.errors import ConfigurationError
from ..sim.messages import KIND_BITS, Message
from ..sim.process import Inbox, Outbox, Process, ProcessContext, ordered_links

#: Value used when a relay is missing or no majority exists.
DEFAULT_VALUE = 0

Path = Tuple[int, ...]


@dataclass(frozen=True)
class RelayMessage(_DecodeOnce, Message):
    """One round's relays: every known (path, value) pair of the last level.

    Every recipient of a broadcast relay filters the same entries, so the
    accepted ones are cached on the message per receiver key (see
    :meth:`EIGInteractiveConsistency._relayed`)."""

    entries: Tuple[Tuple[Path, int], ...]

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        # Each entry carries a path (rank_bits per hop) and one value.
        path_bits = sum(rank_bits * len(path) for path, _ in self.entries)
        return KIND_BITS + path_bits + id_bits * len(self.entries)


class EIGInteractiveConsistency(Process):
    """A correct process running EIG on its input ``value``.

    Output: the agreed vector as a tuple ``(w_0, …, w_{N−1})`` where ``w_j``
    is the value attributed to process ``j``.
    """

    #: No single source: every process's claim is gathered (part of the
    #: relay-acceptance key :class:`EIGBroadcast` scopes by its source).
    source: Optional[int] = None

    def __init__(
        self,
        ctx: ProcessContext,
        my_index: int,
        link_to_index: Dict[int, int],
        value: int,
    ) -> None:
        super().__init__(ctx)
        if ctx.n <= 3 * ctx.t:
            raise ConfigurationError(f"EIG requires N > 3t (n={ctx.n}, t={ctx.t})")
        self.my_index = my_index
        self.link_to_index = dict(link_to_index)
        self.value = int(value)
        self.rounds = ctx.t + 1
        self.tree: Dict[Path, int] = {(): self.value}

    # ------------------------------------------------------------------ rounds

    def send(self, round_no: int) -> Outbox:
        level = round_no - 1
        entries = tuple(
            sorted(
                (path, value)
                for path, value in self.tree.items()
                if len(path) == level
            )
        )
        return self.broadcast(RelayMessage(entries=entries))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        self._gather(round_no - 1, inbox)
        if round_no == self.rounds:
            self.output_value = self._resolve_vector()

    def _gather(self, level: int, inbox: Inbox) -> None:
        """Enter every link's first relay into the tree, links ascending."""
        for link in ordered_links(inbox):
            sender = self.link_to_index.get(link)
            if sender is None:
                continue
            message = self._first_relay(inbox[link])
            if message is not None:
                self.tree.update(self._relayed(message, level, sender))

    def _relayed(self, message: RelayMessage, level: int, sender: int):
        """The tree entries ``message`` adds: ``(path + (sender,), value)``
        for each well-formed ``path`` with an int value, in message order.

        The list depends only on the message and on what ``_acceptable``
        reads — ``n``, ``source``, ``level`` and ``sender`` — so it is
        computed once per message object and key; every other recipient of
        a broadcast relay reuses it.
        """
        return message.once_per_key(
            (self.ctx.n, self.source, level, sender),
            lambda: [
                (path + (sender,), value)
                for path, value in message.entries
                if self._acceptable(path, level, sender) and isinstance(value, int)
            ],
        )

    @staticmethod
    def _first_relay(messages) -> Optional[RelayMessage]:
        for message in messages:
            if isinstance(message, RelayMessage):
                return message
        return None

    def _acceptable(self, path, level: int, sender: int) -> bool:
        """Well-formedness of a relayed path: right level, distinct indices,
        sender not already inside (classic EIG pruning)."""
        if not isinstance(path, tuple) or len(path) != level:
            return False
        if any(not isinstance(j, int) or not 0 <= j < self.ctx.n for j in path):
            return False
        if len(set(path)) != len(path) or sender in path:
            return False
        # No check that ``path`` itself reached our tree: a relay about a
        # branch whose own claim never arrived still enters, and the missing
        # claim resolves to DEFAULT_VALUE on its own.
        return True

    # ----------------------------------------------------------------- resolve

    def _resolve(self, path: Path) -> int:
        """The strict majority of ``path``'s resolved children, else
        :data:`DEFAULT_VALUE`; a leaf (``len(path) == rounds``) is its tree
        value. A strict majority is unique, so no tie-break order exists."""
        if len(path) == self.rounds:
            return self.tree.get(path, DEFAULT_VALUE)
        if len(path) + 1 == self.rounds:  # children are leaves
            get = self.tree.get
            children = [
                get(path + (j,), DEFAULT_VALUE)
                for j in range(self.ctx.n)
                if j not in path
            ]
        else:
            children = [
                self._resolve(path + (j,))
                for j in range(self.ctx.n)
                if j not in path
            ]
        for value in set(children):
            if children.count(value) * 2 > len(children):
                return value
        return DEFAULT_VALUE

    def _resolve_vector(self) -> Tuple[int, ...]:
        vector: List[int] = []
        for j in range(self.ctx.n):
            if j == self.my_index:
                vector.append(self.value)
            else:
                vector.append(self._resolve((j,)))
        return tuple(vector)


class EIGBroadcast(Process):
    """Single-source EIG Byzantine broadcast (one subtree of the above).

    The combined interactive-consistency tree is the disjoint union of ``N``
    per-source subtrees, so interactive consistency decomposes into ``N``
    independent broadcast instances — one per source — each relaying only
    paths rooted at its source. Run all ``N`` behind a
    :class:`~repro.sim.compose.Multiplexer` and the per-process state and
    resolution are identical to :class:`EIGInteractiveConsistency`; only the
    wire shape changes (per-instance envelopes instead of one combined
    relay).

    Output: the agreed value for ``source`` (:data:`DEFAULT_VALUE` when the
    source is faulty-silent or no majority exists). The source itself
    outputs its own input, mirroring the combined resolver's
    ``vector[my_index] = value``.
    """

    def __init__(
        self,
        ctx: ProcessContext,
        source: int,
        my_index: int,
        link_to_index: Dict[int, int],
        value: Optional[int] = None,
    ) -> None:
        super().__init__(ctx)
        if ctx.n <= 3 * ctx.t:
            raise ConfigurationError(f"EIG requires N > 3t (n={ctx.n}, t={ctx.t})")
        if not 0 <= source < ctx.n:
            raise ValueError(f"source {source} out of range for n={ctx.n}")
        if (value is not None) != (my_index == source):
            raise ValueError("exactly the source process carries the input value")
        self.source = source
        self.my_index = my_index
        self.link_to_index = dict(link_to_index)
        self.value = int(value) if value is not None else None
        self.rounds = ctx.t + 1
        # Same layout as the combined tree, restricted to the source's
        # subtree; the root () exists only at the source (its own claim).
        self.tree: Dict[Path, int] = {} if value is None else {(): self.value}

    # ------------------------------------------------------------------ rounds

    def send(self, round_no: int) -> Outbox:
        level = round_no - 1
        entries = tuple(
            sorted(
                (path, value)
                for path, value in self.tree.items()
                if len(path) == level
            )
        )
        if not entries:
            # Non-source processes are silent in round 1; later rounds go
            # quiet once there is nothing to relay about this source.
            return {}
        return self.broadcast(RelayMessage(entries=entries))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        self._gather(round_no - 1, inbox)
        if round_no == self.rounds:
            self.output_value = self._resolve_value()

    _gather = EIGInteractiveConsistency._gather
    _relayed = EIGInteractiveConsistency._relayed
    _first_relay = staticmethod(EIGInteractiveConsistency._first_relay)

    def _acceptable(self, path, level: int, sender: int) -> bool:
        """The combined tree's well-formedness plus instance scoping: a
        level-0 claim must come from the source itself, and every deeper
        path must be rooted at the source."""
        if not isinstance(path, tuple) or len(path) != level:
            return False
        if any(not isinstance(j, int) or not 0 <= j < self.ctx.n for j in path):
            return False
        if len(set(path)) != len(path) or sender in path:
            return False
        if level == 0:
            return sender == self.source
        return path[0] == self.source

    # ----------------------------------------------------------------- resolve

    _resolve = EIGInteractiveConsistency._resolve

    def _resolve_value(self) -> int:
        if self.my_index == self.source:
            return self.value
        return self._resolve((self.source,))
