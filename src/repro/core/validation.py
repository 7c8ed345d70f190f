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
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional, Tuple

if TYPE_CHECKING:  # messages imports this module; a runtime import is circular
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
    * ``verdicts`` — :func:`is_valid_ranks` verdicts by :attr:`VoteCheck.key`.

    A ``dict`` subclass so lookups stay C-speed; every mutator raises.
    """

    __slots__ = ("pairs", "verdicts")

    def __init__(self, entries: Iterable[Tuple[int, "Rank"]]) -> None:
        super().__init__(entries)
        self.verdicts: Dict[tuple, bool] = {}
        self.pairs: Optional[Dict[int, Tuple[int, int]]] = (
            {identifier: rank.as_integer_ratio() for identifier, rank in self.items()}
            if all(type(rank) is Fraction for rank in self.values())
            else None
        )

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
