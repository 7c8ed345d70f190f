"""Small numeric helpers for aggregating experiment records.

Deliberately dependency-free: everything here works on plain sequences, so
the analysis layer needs nothing beyond the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

Number = Union[int, float]


@dataclass(frozen=True)
class Summary:
    """Five-point summary of a sample."""

    count: int
    minimum: float
    maximum: float
    mean: float
    median: float

    def __str__(self) -> str:
        return (
            f"n={self.count} min={self.minimum:g} med={self.median:g} "
            f"mean={self.mean:g} max={self.maximum:g}"
        )


def summarise(values: Sequence[Number]) -> Summary:
    """Five-point summary; raises on empty input (an empty sample in an
    experiment always indicates a harness bug, not a valid result)."""
    if not values:
        raise ValueError("cannot summarise an empty sample")
    ordered = sorted(float(v) for v in values)
    return Summary(
        count=len(ordered),
        minimum=ordered[0],
        maximum=ordered[-1],
        mean=sum(ordered) / len(ordered),
        median=median_of(ordered),
    )


def median_of(ordered: Sequence[float]) -> float:
    """Median of an already-sorted sequence."""
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def fraction_true(flags: Sequence[bool]) -> float:
    """Share of True values (0.0 for an empty sequence)."""
    if not flags:
        return 0.0
    return sum(1 for flag in flags if flag) / len(flags)


def ratios(numerators: Sequence[Number], denominators: Sequence[Number]) -> List[float]:
    """Pairwise ratios, used for measured-vs-bound comparisons."""
    if len(numerators) != len(denominators):
        raise ValueError("ratio inputs must have equal length")
    return [float(a) / float(b) for a, b in zip(numerators, denominators)]
