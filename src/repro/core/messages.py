"""Wire messages of Algorithms 1 and 4.

Frozen dataclasses so broadcast delivery can alias objects safely, with
explicit ``bit_size`` models matching the paper's message-size analysis:

* Alg. 1 control messages (``Id``/``Echo``/``Ready``) carry one id each;
* Alg. 1 ``Ranks`` messages carry up to ``N+t−1`` (id, rank) pairs —
  ``O((N+t−1)(log N_max + log N))`` bits (Section IV-D);
* Alg. 4 ``MultiEcho`` messages carry up to ``N`` ids — ``O(N log N_max)``
  bits (Section VI-B).

Ranks travel as sorted tuples of pairs because dataclass fields must be
hashable; :meth:`RanksMessage.as_dict` restores mapping form. Correct
processes send ``Fraction`` ranks. A Byzantine sender may put any value in
a field; the receive side's hygiene boundary
(:meth:`RanksMessage.sound_vote`) reads every finite ``int``/``float`` rank
as its exact ``Fraction``, as the wire codec does, and drops the vote
otherwise, so past it a rank is always a ``Fraction``.

A broadcast delivers one message object to every recipient, so the receive
side's hygiene-checked view (:meth:`RanksMessage.sound_vote`,
:meth:`MultiEchoMessage.sound_ids`) is computed once per object and cached
on it; so is whatever the recipients derive from that view alone (a vote's
``isValid`` verdicts, see DESIGN.md §8). What every receiver holding the
same *set* of objects derives is kept on one of them
(:func:`shared_by_identity`). No cache is a field: equality, hashing,
``repr``, pickling and the wire codec see only the fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterator, Mapping, Optional, Sequence,
    Tuple, TypeVar,
)

from ..sim.messages import KIND_BITS, Message, RANK_FRACTION_BITS
from ..sim.process import Inbox, first_of, ordered_links
from .validation import SoundVote, exact_vote, is_sound_id

Rank = Fraction

#: Instance-dict keys of the receive-side caches (never dataclass fields).
_DECODED = "_decoded"
_BY_KEY = "_by_key"

_T = TypeVar("_T")
_O = TypeVar("_O")


def shared_by_identity(
    objects: Sequence[_O],
    params: Hashable,
    memo: Callable[[_O], dict],
    build: Callable[[], _T],
) -> _T:
    """``build()``, evaluated once per sequence of these very ``objects`` and
    ``params``: what every receiver holding the same objects shares.

    The result hangs off the lowest-``id()`` object (the anchor), in the dict
    ``memo(anchor)``, under the identities of all the objects in order and
    ``params``. The entry keeps every other object it was built from and a
    hit checks each with ``is``, so no key can be recycled under it. It keeps
    no reference to the anchor, and every object it keeps has a higher
    ``id()``, so it adds no cycle and goes when the objects do
    (DESIGN.md §8).
    """
    ids = tuple(map(id, objects))
    anchor = objects[ids.index(min(ids))]
    others = [obj for obj in objects if obj is not anchor]
    entries = memo(anchor)
    key = (ids, params)
    entry = entries.get(key)
    if entry is None or any(a is not b for a, b in zip(entry[0], others)):
        entry = entries[key] = (others, build())
    return entry[1]


class _DecodeOnce:
    """Mixin for messages that cache receive-side results on the instance."""

    def _remember(self, decoded, key: str = _DECODED):
        object.__setattr__(self, key, decoded)  # frozen dataclass
        return decoded

    def once_per_key(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """``compute()``, evaluated once per message object and ``key``.

        ``key`` must hold every receiver parameter ``compute`` reads, so all
        recipients that share the object and the key share the result.
        """
        try:
            cache = self.__dict__[_BY_KEY]
        except KeyError:
            cache = self._remember({}, _BY_KEY)
        try:
            return cache[key]
        except KeyError:
            result = cache[key] = compute()
            return result

    def __getstate__(self):
        """Pickle the fields only, exactly as an uncached message."""
        return {field.name: self.__dict__[field.name] for field in fields(self)}


@dataclass(frozen=True)
class IdMessage(Message):
    """Step-1 announcement ``⟨ID, my_id⟩``."""

    id: int

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + id_bits


def announced_ids(inbox: Inbox) -> Iterator[Tuple[int, int]]:
    """``(link, id)`` for each link's first :func:`is_sound_id`
    :class:`IdMessage`, links ascending: Alg. 1 Step 1's "⟨Id, id⟩ received
    from a distinct link". A faulty link may announce several ids; only its
    first sound one counts as *its* id, the rest are ignored."""
    for link in ordered_links(inbox):
        for message in inbox[link]:
            if isinstance(message, IdMessage) and is_sound_id(message.id):
                yield link, message.id
                break


@dataclass(frozen=True)
class EchoMessage(Message):
    """Step-2 echo ``⟨ECHO, id⟩``."""

    id: int

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + id_bits


@dataclass(frozen=True)
class ReadyMessage(Message):
    """Step-3/4 confirmation ``⟨READY, id⟩``."""

    id: int

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + id_bits


@dataclass(frozen=True)
class RanksMessage(_DecodeOnce, Message):
    """Voting-phase vote ``⟨AA, ranks⟩``: the sender's full ranks array."""

    entries: Tuple[Tuple[int, Rank], ...]

    @classmethod
    def from_dict(cls, ranks: Mapping[int, Rank]) -> "RanksMessage":
        """Build from a ``{id: rank}`` mapping (canonically sorted by id)."""
        return cls(entries=tuple(sorted(ranks.items())))

    def as_dict(self) -> Dict[int, Rank]:
        """The ranks array as a mapping."""
        return dict(self.entries)

    def sound_vote(self) -> Optional[SoundVote]:
        """The ranks array as a read-only :class:`SoundVote` of exact
        ``Fraction`` ranks, or ``None`` when an entry is unsound (a non-int
        id; a ``bool``, NaN, infinite or non-numeric rank): the receive
        side's hygiene boundary, :func:`~repro.core.validation.exact_vote`.
        Checked once per message object; every recipient shares the
        result."""
        try:
            return self.__dict__[_DECODED]
        except KeyError:
            return self._remember(exact_vote(self.entries))

    def pool_key(self) -> Hashable:
        """What the batched router interns a correct sender's vote by:
        ``(id, numerator, denominator)`` per entry, in entry order.

        Equal exact pairs are exactly equal ``Fraction`` entries, so the key
        merges the messages ``==`` merges, without a ``Fraction`` hash or
        comparison per entry."""
        return tuple(
            [(identifier, *rank.as_integer_ratio()) for identifier, rank in self.entries]
        )

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        per_entry = id_bits + rank_bits + RANK_FRACTION_BITS
        return KIND_BITS + per_entry * len(self.entries)


def first_vote(messages: Sequence[Message]) -> Optional[SoundVote]:
    """The first AA vote on a link this round, as its shared
    :meth:`~RanksMessage.sound_vote`; extras on the same link are Byzantine
    double-voting and are ignored. Structurally unsound votes (non-int ids,
    NaN/inf ranks) come back ``None`` and are dropped before any
    arithmetic: hygiene, not semantics, since ``isValid`` cannot be trusted
    to catch NaN, which defeats every comparison."""
    vote = first_of(messages, RanksMessage)
    return None if vote is None else vote.sound_vote()


@dataclass(frozen=True)
class MultiEchoMessage(_DecodeOnce, Message):
    """Alg. 4 step-2 echo ``⟨MULTIECHO, ids⟩``: every id seen in step 1."""

    ids: Tuple[int, ...]

    @classmethod
    def from_ids(cls, ids) -> "MultiEchoMessage":
        """Build from any iterable of ids (canonically sorted, deduplicated)."""
        return cls(ids=tuple(sorted(set(ids))))

    def sound_ids(self) -> Optional[FrozenSet[int]]:
        """The echoed ids as a set, or ``None`` when any id fails
        :func:`~repro.core.validation.is_sound_id`. Checked once per message
        object; every recipient shares the result."""
        try:
            return self.__dict__[_DECODED]
        except KeyError:
            ids = frozenset(self.ids)
            sound = all(is_sound_id(identifier) for identifier in ids)
            return self._remember(ids if sound else None)

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + id_bits * len(self.ids)
