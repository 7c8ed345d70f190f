"""Algorithm 2 — the ``isValid`` vote filter.

The crux of order preservation (Section IV-B): plain Byzantine approximate
agreement would let the adversary push the per-id agreement instances toward
overlapping values. ``isValid`` rejects any incoming ranks array that

1. is missing a rank for some id in the *recipient's* ``timely`` set (legal
   because ``timely_p ⊆ accepted_q`` for correct ``p, q`` — Lemma IV.1), or
2. ranks two timely ids closer than ``δ`` or out of order.

Correct processes always pass the filter (Lemma IV.4), and every vote that
passes — Byzantine or not — approximates consistently with the original id
order, which is exactly what Lemma A.3 needs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Tuple, Union,
)

from ..sim.process import broadcast_share, group_links, ordered_links

if TYPE_CHECKING:  # messages imports this module; a runtime import is circular
    from ..sim.messages import Message
    from ..sim.process import Inbox

def exact_rank(value: object) -> Optional[Fraction]:
    """The exact ``Fraction`` of a usable rank, or ``None`` when ``value``
    is not one: a ``Fraction`` comes back as the very object, an ``int`` or
    a *finite* ``float`` as its exact value (``as_integer_ratio``, as the
    wire codec reads a float rank), and anything else, ``bool`` included,
    as ``None``.

    Byzantine senders control the full payload, and ``float('nan')`` is a
    live grenade: every comparison against NaN is False, so a NaN-laden vote
    would sail through the ``< δ`` rejection in ``isValid``, survive
    trimming unpredictably, and detonate at ``Round()`` — crashing a correct
    process. (Found by adversarial testing; ``test_vote_hygiene.py`` keeps
    it fixed.) Infinities are merely extreme values the trim handles, but
    they are rejected too: no honest rank is ever non-finite. Every rank a
    correct process reads passes through here, so everything past the
    receive boundary computes on exact rationals only.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (int, float, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    return None


def is_sound_id(value: object) -> bool:
    """True when ``value`` can be treated as an original id: a positive int.

    Every ingestion point filters ids through this before adding them to any
    set that will later be sorted — a Byzantine string id inside an
    otherwise well-typed message would make ``sorted()`` raise at a correct
    process (mixed-type comparison), a trivial remote crash.
    """
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def sound_ids_by_tuple(
    inbox: "Inbox", kind: Union[type, Tuple[type, ...]]
) -> Iterator[Tuple[List[int], List[int]]]:
    """Yield ``(ids, links)`` per distinct message tuple of ``inbox``.

    ``ids`` are the tuple's :func:`is_sound_id` ids of messages of ``kind``,
    in message order, repeats kept; ``links`` are the links that delivered
    that very tuple. Tuples come in first-seen link order
    (:func:`~repro.sim.process.group_links`), so updating per-id state with
    each group is the per-link walk with each shared tuple checked once.
    """
    for messages, links in group_links(inbox):
        ids = [
            message.id
            for message in messages
            if isinstance(message, kind) and is_sound_id(message.id)
        ]
        if ids:
            yield ids, links


class OrderedIds(tuple):
    """Ids in ascending order without duplicates, for :func:`is_valid_ranks`.

    ``timely`` never changes after id selection, so the voting phases build
    this once per run and every vote check skips the sort.
    """

    __slots__ = ()

    def __new__(cls, ids: Iterable[int]) -> "OrderedIds":
        return super().__new__(cls, sorted(set(ids)))


class SoundVote(dict):
    """A hygiene-checked ranks array of exact ``Fraction`` ranks, shared
    read-only by every recipient of one message, together with what each
    recipient would otherwise redo:

    * ``pairs`` — ``{id: (numerator, denominator)}`` of every rank;
      :func:`~repro.core.approximation.approximate` folds these integers
      directly;
    * ``verdicts`` — :func:`is_valid_ranks` verdicts by :attr:`VoteCheck.key`;
    * ``folds`` — Alg. 3's per-id folds over every vote set whose lowest
      ``id()`` this vote is, kept by
      :func:`~repro.core.approximation.approximate`.

    A ``dict`` subclass so lookups stay C-speed; every mutator raises.
    :func:`exact_vote` builds one from a message's entries.
    """

    __slots__ = ("pairs", "verdicts", "folds", "__weakref__")

    def __init__(self, entries: Iterable[Tuple[int, Fraction]]) -> None:
        super().__init__(entries)
        self.verdicts: Dict[tuple, bool] = {}
        self.folds: Dict[tuple, tuple] = {}
        self.pairs: Dict[int, Tuple[int, int]] = {
            identifier: rank.as_integer_ratio() for identifier, rank in self.items()
        }

    def _read_only(self, *args, **kwargs):
        raise TypeError("a shared vote is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def exact_vote(entries: Iterable[Tuple[object, object]]) -> Optional[SoundVote]:
    """The ``(id, rank)`` ``entries`` of a ranks array as a
    :class:`SoundVote`, or ``None`` when one of them is unsound: an id that
    fails :func:`is_sound_id` or a rank :func:`exact_rank` refuses.

    One pass checks each entry and turns its rank into its exact
    ``Fraction`` (a ``Fraction`` rank stays the very object), so every sound
    vote carries exact ``pairs`` and every reader past this point computes
    on exact rationals. A repeated id keeps its last rank, as ``dict`` does.
    """
    ranks: Dict[int, Fraction] = {}
    for identifier, rank in entries:
        if type(rank) is not Fraction:
            rank = exact_rank(rank)
            if rank is None:
                return None
        # A plain positive int, the only id a correct sender puts here, is
        # checked inline: this runs once per entry of every distinct vote.
        if not (type(identifier) is int and identifier >= 1 or is_sound_id(identifier)):
            return None
        ranks[identifier] = rank
    return SoundVote(ranks)


class VoteCheck:
    """One receiver's ``isValid`` (:func:`is_valid_ranks`) parameters, fixed
    for a run.

    Every recipient of a broadcast gets the same :class:`SoundVote`, and the
    verdict depends only on the vote and these parameters, so it is cached
    on the vote under :attr:`key`: the timely ids and ``delta`` as a pair
    of plain ints (``Fraction`` hashing and equality would eat much of the
    saving).
    """

    __slots__ = ("timely", "delta", "key")

    def __init__(self, timely: Iterable[int], delta: Fraction) -> None:
        self.timely = OrderedIds(timely)
        self.delta = delta
        self.key = (self.timely, delta.as_integer_ratio())

    def __call__(self, vote: SoundVote) -> bool:
        """:func:`is_valid_ranks` of ``vote``, once per vote object and key."""
        try:
            return vote.verdicts[self.key]
        except KeyError:
            verdict = is_valid_ranks(self.timely, vote, self.delta)
            vote.verdicts[self.key] = verdict
            return verdict


#: Tags :func:`gather_votes`' entries in a round's shared memo.
_GATHER = "first-votes"


def gather_votes(
    inbox: "Inbox",
    check: Optional[VoteCheck],
    first: Callable[[Sequence["Message"]], Optional[SoundVote]],
) -> Sequence[SoundVote]:
    """Alg. 1 lines 30–34: each link's vote ``first(messages)`` that is sound
    and passes ``check`` (every sound vote when ``check`` is ``None``, the
    E9a ablation), one per link.

    The plain walk visits the links in ascending order. An inbox with a
    :func:`~repro.sim.process.broadcast_share` and a ``check`` takes the
    shared path instead: the votes on the round's broadcast tuples, which
    every receiver gets, are gathered once per round and ``check.key`` into
    the round's memo, then the receiver's own overlay links add theirs.
    Those are the walk's votes in ``id()`` order:
    :func:`~repro.core.approximation.approximate` folds the exact ``pairs``
    every sound vote carries the same in any order (DESIGN.md §8).
    """
    share = broadcast_share(inbox) if check is not None else None
    if share is not None:
        dense, overlay, memo = share
        key = (_GATHER, check.key)
        try:
            shared = memo[key]
        except KeyError:
            shared = memo[key] = _exact_votes(
                [first(got) for got in dense if got is not None], check
            )
        if not overlay:
            return shared
        own = _exact_votes(list(map(first, overlay.values())), check)
        return sorted(shared + own, key=id) if own else shared
    votes = []
    for link in ordered_links(inbox):
        vote = first(inbox[link])
        if vote is not None and (check is None or check(vote)):
            votes.append(vote)
    return votes


def _exact_votes(
    votes: List[Optional[SoundVote]], check: VoteCheck
) -> Tuple[SoundVote, ...]:
    """The sound ``votes`` that pass ``check``, in ``id()`` order."""
    kept = [vote for vote in votes if vote is not None and check(vote)]
    kept.sort(key=id)
    return tuple(kept)


def is_valid_ranks(
    timely: Iterable[int], ranks: Mapping[int, Fraction], delta: Fraction
) -> bool:
    """Algorithm 2: accept ``ranks`` only if consistent with ``timely``.

    Checking consecutive ids in the sorted ``timely`` set is equivalent to the
    paper's all-pairs loop: δ-spacing of consecutive pairs implies (additively
    more than) δ-spacing of all pairs. ``timely`` is sorted here unless it is
    already an :class:`OrderedIds`.

    The spacing test cross-multiplies exact integer ratios instead of
    building ``Fraction`` differences: with positive denominators,
    ``b − a < δ`` is ``(b_n·a_d − a_n·b_d)·δ_d < δ_n·a_d·b_d``. Every sound
    rank (:func:`exact_rank`) has an exact ``as_integer_ratio``.
    """
    ordered = timely if type(timely) is OrderedIds else sorted(set(timely))
    for identifier in ordered:
        if identifier not in ranks:
            return False
    limit_n, limit_d = delta.as_integer_ratio()
    pairs = [ranks[identifier].as_integer_ratio() for identifier in ordered]
    for (a_n, a_d), (b_n, b_d) in zip(pairs, pairs[1:]):
        if (b_n * a_d - a_n * b_d) * limit_d < limit_n * a_d * b_d:
            return False
    return True
