"""Wire messages of Algorithms 1 and 4.

Frozen dataclasses so broadcast delivery can alias objects safely, with
explicit ``bit_size`` models matching the paper's message-size analysis:

* Alg. 1 control messages (``Id``/``Echo``/``Ready``) carry one id each;
* Alg. 1 ``Ranks`` messages carry up to ``N+t−1`` (id, rank) pairs —
  ``O((N+t−1)(log N_max + log N))`` bits (Section IV-D);
* Alg. 4 ``MultiEcho`` messages carry up to ``N`` ids — ``O(N log N_max)``
  bits (Section VI-B).

Ranks travel as sorted tuples of pairs because dataclass fields must be
hashable; :meth:`RanksMessage.as_dict` restores mapping form. Rank values are
``Fraction`` in exact mode or ``float`` in float mode — the wire format is
agnostic.

A broadcast delivers one message object to every recipient, so the receive
side's hygiene-checked view (:meth:`RanksMessage.sound_vote`,
:meth:`MultiEchoMessage.sound_ids`) is computed once per object and cached
on it; so is whatever the recipients derive from that view alone (a vote's
exact rank pairs and ``isValid`` verdicts, see DESIGN.md §8). No cache is a
field: equality, hashing, ``repr``, pickling and the wire codec see only the
fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Rational
from typing import (
    Callable, Dict, FrozenSet, Hashable, Mapping, Optional, Tuple, TypeVar, Union,
)

from ..sim.messages import KIND_BITS, Message, RANK_FRACTION_BITS
from .validation import SoundVote, is_sound_id, is_sound_vote

Rank = Union[Rational, float]

#: Instance-dict keys of the receive-side caches (never dataclass fields).
_DECODED = "_decoded"
_BY_KEY = "_by_key"

_T = TypeVar("_T")


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
        """The ranks array as a read-only :class:`SoundVote`, or ``None`` when
        it fails :func:`~repro.core.validation.is_sound_vote` (non-int ids,
        NaN/inf ranks). Checked once per message object; every recipient
        shares the result."""
        try:
            return self.__dict__[_DECODED]
        except KeyError:
            vote = SoundVote(self.entries)
            return self._remember(vote if is_sound_vote(vote) else None)

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        per_entry = id_bits + rank_bits + RANK_FRACTION_BITS
        return KIND_BITS + per_entry * len(self.entries)


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
