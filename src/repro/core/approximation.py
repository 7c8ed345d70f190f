"""Algorithm 3 — the ``approximate`` voting step.

One voting round of the coordinated Byzantine approximate agreement at the
heart of Alg. 1. Given the local ranks array and all *validated* ranks
arrays received this round, it produces the next ranks array:

* per accepted id, gather the votes mentioning it; drop ids with fewer than
  ``N − t`` votes (never happens to an id that is timely anywhere — Cor. IV.5);
* pad the vote multiset to exactly ``N`` entries with the local rank;
* trim the ``t`` smallest and ``t`` largest votes (Byzantine values cannot
  survive at the extremes);
* average ``select_t`` of the trimmed, sorted multiset — every ``t``-th
  element starting from the smallest — which contracts the correct-value
  spread by ``σ_t = ⌊(N−2t)/t⌋ + 1`` per round (Lemma IV.8) while keeping
  the result inside the correct values' range.

Pure functions over multisets; no I/O. Ranks are exact ``Fraction``s, the
paper's analysis verbatim: the receive side's hygiene boundary
(:func:`~repro.core.validation.exact_vote`) reads every rank a vote carries
as one. :func:`trimmed_mean` folds them on plain integers, and
:func:`trim_extremes`, :func:`select_every_t` and :func:`average` spell out
the same fold as the reference it is tested against (DESIGN.md §8).
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .messages import Rank, shared_by_identity
from .validation import SoundVote


def trim_extremes(values: Sequence[Rank], t: int) -> List[Rank]:
    """Sort ``values`` and drop the ``t`` smallest and ``t`` largest.

    Alg. 3 lines 12–15. Requires ``len(values) > 2t`` so something survives.
    """
    if len(values) <= 2 * t:
        raise ValueError(
            f"cannot trim {t} extremes from each side of {len(values)} values"
        )
    ordered = sorted(values)
    return ordered[t: len(ordered) - t] if t else ordered


def select_every_t(ordered: Sequence[Rank], t: int) -> List[Rank]:
    """``select_t``: the smallest element and every ``t``-th one after it.

    For ``t = 0`` (no faults to defend against) every element is selected,
    making the step a plain average. See DESIGN.md §8 for how this indexing
    relates to the paper's σ_t count.
    """
    if not ordered:
        raise ValueError("select_t of an empty multiset")
    if t == 0:
        return list(ordered)
    return [ordered[i] for i in range(0, len(ordered), t)]


def average(values: Sequence[Rank]) -> Rank:
    """Arithmetic mean, exact under ``Fraction`` inputs."""
    return sum(values) / len(values)


def trimmed_mean(values: Sequence[Rank], t: int) -> Rank:
    """Alg. 3 lines 12–16 on one multiset: ``average(select_t(trim(values)))``,
    folded on integers (:func:`_fold_ratios`). Too few values raise
    :func:`trim_extremes`'s error.
    """
    if len(values) <= 2 * t:
        trim_extremes(values, t)  # raises: nothing would survive the trim
    return _fold_ratios([value.as_integer_ratio() for value in values], t)


def _fold_ratios(ratios: Sequence[Tuple[int, int]], t: int) -> Fraction:
    """:func:`trimmed_mean` of ``Fraction(num, den)`` for each of more than
    ``2t`` ratios, on integers.

    Each value becomes its numerator over the common denominator ``D``, so
    sorting the numerators sorts the values and their sum is exact, and
    ``Fraction(sum, D·len)`` normalises to the very value (and type) the
    generic path returns.
    """
    denominator = math.lcm(*{den for _, den in ratios})
    keys = sorted([num * (denominator // den) for num, den in ratios])
    return _select_mean(keys, denominator, t)


def _select_mean(keys: Sequence[int], denominator: int, t: int) -> Fraction:
    """``average(select_t(trim(...)))`` of the sorted ``keys``, each a
    numerator over ``denominator``."""
    selected = keys[t: len(keys) - t: t] if t else keys
    return Fraction(sum(selected), denominator * len(selected))


_FOLDS = attrgetter("folds")


def _shared_fold(ordered: Sequence[SoundVote], identifier: int) -> tuple:
    """``(support, D, sorted keys, results)`` of ``identifier`` over the
    exact ``ordered`` votes: its vote count, the lcm of their denominators,
    their numerators over it, and an empty dict for the folded values by
    own rank (:func:`_padded_mean`)."""
    ratios = [
        vote.pairs[identifier] for vote in ordered if identifier in vote.pairs
    ]
    denominator = math.lcm(*{den for _, den in ratios})
    keys = sorted([num * (denominator // den) for num, den in ratios])
    return len(keys), denominator, keys, {}


def _padded_mean(
    keys: List[int],
    denominator: int,
    own: Optional[Tuple[int, int]],
    n: int,
    trim: int,
) -> Fraction:
    """:func:`_fold_ratios` of the sorted ``keys`` padded to ``n`` values
    with the ratio ``own`` (``None`` when there are ``n`` already): the
    same common denominator ``lcm(D, own's)``, the same sorted keys
    (``own``'s copies inserted in order), hence the same value."""
    if own is not None:
        num, den = own
        common = math.lcm(denominator, den)
        if common != denominator:
            keys = [key * (common // denominator) for key in keys]
            denominator = common
        own_key = num * (common // den)
        at = bisect.bisect_left(keys, own_key)
        keys = keys[:at] + [own_key] * (n - len(keys)) + keys[at:]
    return _select_mean(keys, denominator, trim)


def approximate(
    my_ranks: Mapping[int, Rank],
    accepted: Set[int],
    valid_votes: Sequence[Mapping[int, Rank]],
    n: int,
    t: int,
    trim: Optional[int] = None,
) -> Tuple[Dict[int, Rank], Set[int]]:
    """One full Alg. 3 step.

    Returns ``(new_ranks, new_accepted)``; ids with insufficient vote support
    are removed from the accepted set (Alg. 3 line 08 — "updates 'accepted'
    multiset" in Alg. 1 line 35).

    ``trim`` decouples the number of extreme values removed (and the
    ``select`` stride) from the support threshold ``n − t``: the Byzantine
    algorithm trims ``t`` (the default), while the crash-fault baseline of
    Okun [14] trims nothing — every vote is honest there — and averages the
    whole multiset.

    When there are 1 to ``n`` votes, each a
    :class:`~repro.core.validation.SoundVote` and so holding exact
    ``pairs``, each id's multiset is folded from those cached integer pairs
    once per vote set and shared by every receiver holding the very same
    vote objects, in any order
    (:func:`~repro.core.messages.shared_by_identity` on the set's
    lowest-``id()`` vote's ``folds``): the support, common denominator and
    sorted keys, and the result per own rank that pads the multiset (one
    result when all ``n`` votes carry the id). The result is the one
    :func:`trimmed_mean` returns, which folds plain mappings, no votes, too
    few values or more than ``n`` votes one id at a time (DESIGN.md §8).
    """
    if trim is None:
        trim = t
    new_ranks: Dict[int, Rank] = {}
    new_accepted: Set[int] = set()
    if (
        0 < len(valid_votes) <= n
        and n > 2 * trim
        and all(isinstance(vote, SoundVote) for vote in valid_votes)
    ):
        ordered = sorted(valid_votes, key=id)
        folds = shared_by_identity(ordered, (n, t, trim), _FOLDS, dict)
        for identifier in accepted:
            fold = folds.get(identifier)
            if fold is None:
                fold = folds[identifier] = _shared_fold(ordered, identifier)
            support, denominator, keys, results = fold
            if support < n - t:
                continue  # discarded: not enough support (line 08)
            new_accepted.add(identifier)
            # Fill with own value (lines 10-16): the result depends on the
            # receiver only through its own rank, and not at all with n votes.
            own = my_ranks[identifier].as_integer_ratio() if support < n else None
            result = results.get(own)
            if result is None:
                result = results[own] = _padded_mean(keys, denominator, own, n, trim)
            new_ranks[identifier] = result
        return new_ranks, new_accepted
    # Plain mappings, no votes, too few values or more than n votes.
    for identifier in accepted:
        votes: List[Rank] = [
            vote[identifier] for vote in valid_votes if identifier in vote
        ]
        if len(votes) < n - t:
            continue  # discarded: not enough support (line 08)
        new_accepted.add(identifier)
        votes = votes[:n]  # at most one valid vote per link; defensive cap
        if len(votes) < n:  # fill with own value (lines 10-11)
            votes.extend([my_ranks[identifier]] * (n - len(votes)))
        new_ranks[identifier] = trimmed_mean(votes, trim)  # lines 12-16
    return new_ranks, new_accepted


def nearest_int(value: Rank) -> int:
    """The paper's ``Round``: nearest integer, ties rounded up.

    Python's built-in ``round`` uses banker's rounding; a deterministic
    half-up rule on the exact rank keeps outputs stable. Exact ties cannot
    occur for converged Alg. 1 ranks (the δ-margin argument in Theorem IV.10
    keeps every rank strictly inside a half-unit window), so the tie rule
    only matters for ablated variants.
    """
    return math.floor(value + Fraction(1, 2))
