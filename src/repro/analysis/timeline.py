"""Round-by-round run inspector.

Renders a traced run as an ASCII timeline: per-round traffic, the evolution
of each correct process's protocol state (timely/accepted sizes, rank
spread, freeze/decision events). Debugging an attack or a suspected
protocol bug almost always starts here — ``repro-renaming explain`` exposes
it from the shell, for a configuration, a stored cell or a journaled
session.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.runner import RunResult
from .convergence import spread_series
from .tables import format_table


def _spread_by_round(result: RunResult) -> Dict[int, float]:
    """Max cross-process spread of correct ranks for correct ids per round."""
    return {
        round_no: float(spread)
        for round_no, spread in spread_series(result).items()
    }


def _events_by_round(result: RunResult, event: str) -> Dict[int, int]:
    if result.trace is None:
        return {}
    counts: Dict[int, int] = {}
    for record in result.trace.select(event=event):
        if record.process in result.correct:
            counts[record.round_no] = counts.get(record.round_no, 0) + 1
    return counts


def render_timeline(result: RunResult) -> str:
    """ASCII timeline of a traced run.

    Columns: round number, correct/Byzantine message counts, correct bits,
    rank spread (where the protocol traces ranks), and notable events
    (decisions, early freezes, settlements).
    """
    spreads = _spread_by_round(result)
    decided = _events_by_round(result, "decided")
    frozen = _events_by_round(result, "early_frozen")
    settled = _events_by_round(result, "settled")

    rows: List[List[object]] = []
    for record in result.metrics.rounds:
        round_no = record.round_no
        notes = []
        if frozen.get(round_no):
            notes.append(f"{frozen[round_no]} froze early")
        if settled.get(round_no):
            notes.append(f"{settled[round_no]} settled")
        if decided.get(round_no):
            notes.append(f"{decided[round_no]} decided")
        spread = spreads.get(round_no)
        rows.append([
            round_no,
            record.correct_messages,
            record.byzantine_messages,
            record.correct_bits,
            f"{spread:.4f}" if spread is not None else "-",
            ", ".join(notes) if notes else "",
        ])

    header = (
        f"run: n={result.n} t={result.t} "
        f"byzantine slots={list(result.byzantine)}\n"
        f"correct ids: {sorted(result.ids[i] for i in result.correct)}\n"
    )
    table = format_table(
        ["round", "correct msgs", "byz msgs", "correct bits", "rank spread",
         "events"],
        rows,
    )
    names = result.outputs_by_id()
    footer_rows = [[original, names[original]] for original in sorted(names)]
    footer = format_table(["original id", "output"], footer_rows)
    return f"{header}\n{table}\n\n{footer}"


def summarize_views(result: RunResult) -> Optional[str]:
    """Compact view-divergence report: which accepted sets exist and who
    holds each. Returns None when the run traced no accepted sets."""
    if result.trace is None:
        return None
    views: Dict[tuple, List[int]] = {}
    for event in result.trace.select(event="accepted"):
        if event.process in result.correct:
            views.setdefault(tuple(sorted(event.detail)), []).append(event.process)
    if not views:
        return None
    rows = [
        [", ".join(map(str, holders)), len(view), ", ".join(map(str, view))]
        for view, holders in sorted(views.items(), key=lambda kv: kv[1])
    ]
    return format_table(["held by processes", "size", "accepted ids"], rows)
