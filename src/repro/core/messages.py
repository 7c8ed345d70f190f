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
on it. The cache is not a field: equality, hashing, ``repr``, pickling and
the wire codec see only the fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Rational
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

from ..sim.messages import KIND_BITS, Message, RANK_FRACTION_BITS
from .validation import is_sound_id, is_sound_vote

Rank = Union[Rational, float]

#: Instance-dict key of the receive-side cache (never a dataclass field).
_DECODED = "_decoded"


class _DecodeOnce:
    """Mixin for messages whose checked decoding is cached on the instance."""

    def _remember(self, decoded):
        object.__setattr__(self, _DECODED, decoded)  # frozen dataclass
        return decoded

    def __getstate__(self):
        """Pickle the fields only, exactly as an uncached message."""
        state = dict(self.__dict__)
        state.pop(_DECODED, None)
        return state


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

    def sound_vote(self) -> Optional[Mapping[int, Rank]]:
        """The ranks array as a read-only mapping, or ``None`` when it fails
        :func:`~repro.core.validation.is_sound_vote` (non-int ids, NaN/inf
        ranks). Checked once per message object; every recipient shares the
        result."""
        try:
            return self.__dict__[_DECODED]
        except KeyError:
            vote = dict(self.entries)
            sound = is_sound_vote(vote)
            return self._remember(MappingProxyType(vote) if sound else None)

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
