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
    from .messages import Rank

#: Rank types :func:`is_valid_ranks` compares by integer cross-multiplication.
_EXACT = (int, Fraction)


def is_sound_rank(value: object) -> bool:
    """True when ``value`` is a usable rank: an int/Fraction, or a *finite*
    float.

    Byzantine senders control the full payload, and ``float('nan')`` is a
    live grenade: every comparison against NaN is False, so a NaN-laden vote
    sails through the ``< δ`` rejection in ``isValid``, survives trimming
    unpredictably, and detonates at ``Round()`` — crashing a correct
    process. (Found by adversarial testing; ``test_vote_hygiene.py`` keeps
    it fixed.) Infinities are merely extreme values the trim handles, but we
    reject them too: no honest rank is ever non-finite.
    """
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, Fraction)):
        return True
    return isinstance(value, float) and math.isfinite(value)


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


def is_sound_vote(vote: Mapping[object, object]) -> bool:
    """Structural hygiene for a ranks array: int ids, sound rank values."""
    return all(
        is_sound_id(identifier) and is_sound_rank(value)
        for identifier, value in vote.items()
    )


class OrderedIds(tuple):
    """Ids in ascending order without duplicates, for :func:`is_valid_ranks`.

    ``timely`` never changes after id selection, so the voting phases build
    this once per run and every vote check skips the sort.
    """

    __slots__ = ()

    def __new__(cls, ids: Iterable[int]) -> "OrderedIds":
        return super().__new__(cls, sorted(set(ids)))


class SoundVote(dict):
    """A hygiene-checked ranks array, shared read-only by every recipient of
    one message, together with what each recipient would otherwise redo:

    * ``pairs`` — ``{id: (numerator, denominator)}`` when every rank is a
      ``Fraction``, else ``None``; :func:`~repro.core.approximation.approximate`
      folds these integers directly;
    * ``verdicts`` — :func:`is_valid_ranks` verdicts by :attr:`VoteCheck.key`;
    * ``folds`` — Alg. 3's per-id folds over every vote set whose lowest
      ``id()`` this vote is, kept by
      :func:`~repro.core.approximation.approximate`.

    A ``dict`` subclass so lookups stay C-speed; every mutator raises.
    ``triples``, when given, are the entries as ``(id, numerator,
    denominator)`` (:meth:`~repro.core.messages.RanksMessage.exact_pairs`),
    so ``pairs`` need not split the ranks again.
    """

    __slots__ = ("pairs", "verdicts", "folds", "__weakref__")

    def __init__(
        self,
        entries: Iterable[Tuple[int, "Rank"]],
        triples: Optional[Iterable[Tuple[int, int, int]]] = None,
    ) -> None:
        super().__init__(entries)
        self.verdicts: Dict[tuple, bool] = {}
        self.folds: Dict[tuple, tuple] = {}
        self.pairs: Optional[Dict[int, Tuple[int, int]]]
        if triples is not None:
            self.pairs = {identifier: (num, den) for identifier, num, den in triples}
        elif all(type(rank) is Fraction for rank in self.values()):
            self.pairs = {
                identifier: rank.as_integer_ratio() for identifier, rank in self.items()
            }
        else:
            self.pairs = None

    def _read_only(self, *args, **kwargs):
        raise TypeError("a shared vote is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


class VoteCheck:
    """One receiver's ``isValid`` (:func:`is_valid_ranks`) parameters, fixed
    for a run.

    Every recipient of a broadcast gets the same :class:`SoundVote`, and the
    verdict depends only on the vote and these parameters, so it is cached
    on the vote under :attr:`key`: the timely ids, ``delta`` and
    ``tolerance`` as plain ints (``Fraction`` hashing and equality would eat
    much of the saving). Exact and float modes never share a key: their
    tolerances differ.
    """

    __slots__ = ("timely", "delta", "tolerance", "key")

    def __init__(
        self, timely: Iterable[int], delta: "Rank", tolerance: float = 0.0
    ) -> None:
        self.timely = OrderedIds(timely)
        self.delta = delta
        self.tolerance = tolerance
        self.key = (
            self.timely,
            delta.as_integer_ratio(),
            float(tolerance).as_integer_ratio(),
        )

    def __call__(self, vote: SoundVote) -> bool:
        """:func:`is_valid_ranks` of ``vote``, once per vote object and key."""
        try:
            return vote.verdicts[self.key]
        except KeyError:
            verdict = is_valid_ranks(self.timely, vote, self.delta, self.tolerance)
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
    Those are the walk's votes in another order, so the shared path is
    taken only when every vote it keeps carries exact ``pairs``, and
    returns them in ``id()`` order: :func:`~repro.core.approximation.approximate`
    folds exact votes the same in any order (DESIGN.md §8). A kept vote
    without pairs (float mode, a Byzantine float or int vote) sends the
    receiver down the plain walk.
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
        if shared is not None:
            if not overlay:
                return shared
            own = _exact_votes(list(map(first, overlay.values())), check)
            if own is not None:
                return sorted(shared + own, key=id) if own else shared
    votes = []
    for link in ordered_links(inbox):
        vote = first(inbox[link])
        if vote is not None and (check is None or check(vote)):
            votes.append(vote)
    return votes


def _exact_votes(
    votes: List[Optional[SoundVote]], check: VoteCheck
) -> Optional[Tuple[SoundVote, ...]]:
    """The sound ``votes`` that pass ``check``, in ``id()`` order, or
    ``None`` when one of them has no exact ``pairs``."""
    kept = []
    for vote in votes:
        if vote is not None and check(vote):
            if vote.pairs is None:
                return None
            kept.append(vote)
    kept.sort(key=id)
    return tuple(kept)


def is_valid_ranks(
    timely: Iterable[int],
    ranks: Mapping[int, Rank],
    delta: Rank,
    tolerance: float = 0.0,
) -> bool:
    """Algorithm 2: accept ``ranks`` only if consistent with ``timely``.

    ``tolerance`` loosens the ``≥ δ`` spacing check and is 0 in exact
    (Fraction) mode; float mode passes a small epsilon to absorb rounding in
    repeated averaging (the paper's analysis is exact arithmetic).

    Checking consecutive ids in the sorted ``timely`` set is equivalent to the
    paper's all-pairs loop: δ-spacing of consecutive pairs implies (additively
    more than) δ-spacing of all pairs. ``timely`` is sorted here unless it is
    already an :class:`OrderedIds`.

    When the threshold and every timely rank are ``int``/``Fraction`` the
    spacing test cross-multiplies instead of building ``Fraction``
    differences: with positive denominators, ``b − a < θ`` is
    ``(b_n·a_d − a_n·b_d)·θ_d < θ_n·a_d·b_d``. Anything else (float mode, or
    a float in a Byzantine vote) compares the values directly.
    """
    # Keep the threshold exact when no tolerance applies: subtracting the
    # float 0.0 would coerce a Fraction delta to the nearest double, which
    # can land *above* delta and spuriously reject exactly-delta-spaced
    # honest votes.
    threshold = delta - tolerance if tolerance else delta
    ordered = timely if type(timely) is OrderedIds else sorted(set(timely))
    for identifier in ordered:
        if identifier not in ranks:
            return False
    values = [ranks[identifier] for identifier in ordered]
    if type(threshold) in _EXACT and all(type(value) in _EXACT for value in values):
        limit_n, limit_d = threshold.as_integer_ratio()
        pairs = [value.as_integer_ratio() for value in values]
        for (a_n, a_d), (b_n, b_d) in zip(pairs, pairs[1:]):
            if (b_n * a_d - a_n * b_d) * limit_d < limit_n * a_d * b_d:
                return False
        return True
    for smaller, larger in zip(values, values[1:]):
        if larger - smaller < threshold:
            return False
    return True
