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

Pure functions over multisets; no I/O. Ranks may be ``Fraction`` (exact
mode, the default — the paper's analysis verbatim) or ``float``.
:func:`trimmed_mean` runs the exact case on plain integers (DESIGN.md §8).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .messages import Rank


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
    """Alg. 3 lines 12–16 on one multiset: ``average(select_t(trim(values)))``.

    When every value is a ``Fraction`` the fold runs on integers
    (:func:`_fold_ratios`). Anything else — floats, or ``int`` values, whose
    generic mean is a float — takes the generic path, as do too few values,
    so they raise :func:`trim_extremes`'s error.
    """
    if len(values) <= 2 * t or not all(type(value) is Fraction for value in values):
        return average(select_every_t(trim_extremes(values, t), t))
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
    selected = keys[t: len(keys) - t: t] if t else keys
    return Fraction(sum(selected), denominator * len(selected))


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

    When every vote is a :class:`~repro.core.validation.SoundVote` holding
    exact ``pairs`` (every rank a ``Fraction``), each id's multiset is folded
    from those cached integer pairs, decomposed once per message rather than
    once per recipient and id; the result is the one :func:`trimmed_mean`
    returns.
    """
    if trim is None:
        trim = t
    exact = [getattr(vote, "pairs", None) for vote in valid_votes]
    if (
        None in exact
        or n <= 2 * trim
        or not all(type(rank) is Fraction for rank in my_ranks.values())
    ):
        exact = None  # floats, ints, mixed votes or too few values: generic
    new_ranks: Dict[int, Rank] = {}
    new_accepted: Set[int] = set()
    for identifier in accepted:
        if exact is None:
            votes: List = [
                vote[identifier] for vote in valid_votes if identifier in vote
            ]
        else:
            votes = [pairs[identifier] for pairs in exact if identifier in pairs]
        if len(votes) < n - t:
            continue  # discarded: not enough support (line 08)
        new_accepted.add(identifier)
        votes = votes[:n]  # at most one valid vote per link; defensive cap
        if len(votes) < n:  # fill with own value (lines 10-11)
            own = my_ranks[identifier]
            if exact is not None:
                own = own.as_integer_ratio()
            votes.extend([own] * (n - len(votes)))
        if exact is None:
            new_ranks[identifier] = trimmed_mean(votes, trim)  # lines 12-16
        else:
            new_ranks[identifier] = _fold_ratios(votes, trim)
    return new_ranks, new_accepted


def nearest_int(value: Rank) -> int:
    """The paper's ``Round``: nearest integer, ties rounded up.

    Python's built-in ``round`` uses banker's rounding; a deterministic
    half-up rule keeps outputs stable across rank representations (exact
    under ``Fraction`` inputs). Exact ties cannot occur for converged Alg. 1
    ranks (the δ-margin argument in Theorem IV.10 keeps every rank strictly
    inside a half-unit window), so the tie rule only matters for ablated
    variants.
    """
    return math.floor(value + Fraction(1, 2))
