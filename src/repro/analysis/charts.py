"""Terminal-friendly charts for experiment outputs.

The paper has no figures (it is a theory paper), but several of its claims
are inherently *curves* — spread vs. round (Lemma IV.8's geometric
contraction), order-violation rate vs. N (Theorem VI.3's regime crossover).
These renderers draw them as ASCII so the benchmark harness can put the
figure next to the table, in the same text artifact, with no plotting
dependency.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Union

Number = Union[int, float]

#: Glyph used for bar charts.
BAR = "█"
HALF_BAR = "▌"


def bar_chart(
    data: Mapping[object, Number],
    width: int = 40,
    unit: str = "",
) -> str:
    """Horizontal bar chart: one row per key, magnitude-scaled bars.

    Keys render in insertion order; values must be non-negative.
    """
    if not data:
        raise ValueError("cannot chart an empty mapping")
    if any(value < 0 for value in data.values()):
        raise ValueError("bar_chart values must be non-negative")
    peak = max(data.values()) or 1
    label_width = max(len(str(key)) for key in data)
    lines = []
    for key, value in data.items():
        filled = value / peak * width
        bar = BAR * int(filled)
        if filled - int(filled) >= 0.5:
            bar += HALF_BAR
        lines.append(
            f"{str(key):>{label_width}} | {bar} {value:g}{unit}"
        )
    return "\n".join(lines)


def log_curve(
    series: Mapping[object, Number],
    width: int = 40,
    floor: Optional[float] = None,
) -> str:
    """Log-scale decay curve: one row per x, bar length ∝ log of the value.

    Made for geometric-contraction data (spread per round): a straight
    linear staircase in this rendering *is* the claimed geometric decay.
    Zero values render as ``0 (exact)``. ``floor`` pins the log scale's
    bottom (defaults to the smallest positive value).
    """
    if not series:
        raise ValueError("cannot chart an empty series")
    positive = [float(v) for v in series.values() if v > 0]
    if not positive:
        return "\n".join(f"{key}: 0 (exact)" for key in series)
    low = math.log(min(positive) if floor is None else floor)
    high = math.log(max(positive))
    span = (high - low) or 1.0
    label_width = max(len(str(key)) for key in series)
    lines = []
    for key, value in series.items():
        if value <= 0:
            lines.append(f"{str(key):>{label_width}} | 0 (exact)")
            continue
        filled = int((math.log(float(value)) - low) / span * width) + 1
        lines.append(
            f"{str(key):>{label_width}} | {BAR * filled} {float(value):.3e}"
        )
    return "\n".join(lines)


def step_curve(
    series: Mapping[object, Number],
    width: int = 40,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
    marker: str = "o",
) -> str:
    """Linear-scale scatter rows: one row per x, marker at the scaled value.

    Made for crossover data (violation rate vs. N): the jump is visible as
    the marker snapping from one edge to the other.
    """
    if not series:
        raise ValueError("cannot chart an empty series")
    values = [float(v) for v in series.values()]
    low = min(values) if lo is None else lo
    high = max(values) if hi is None else hi
    span = (high - low) or 1.0
    label_width = max(len(str(key)) for key in series)
    lines = []
    for key, value in series.items():
        position = int((float(value) - low) / span * (width - 1))
        row = [" "] * width
        row[max(0, min(width - 1, position))] = marker
        lines.append(f"{str(key):>{label_width}} |{''.join(row)}| {float(value):g}")
    return "\n".join(lines)

