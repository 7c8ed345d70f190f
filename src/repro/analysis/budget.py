"""Per-cell resource budgets: the one wall/RSS breach decision.

Budget-isolated fabric workers (:mod:`repro.analysis.worker`) and the
service's isolated sessions (:mod:`repro.service.session`) both police a
disposable child process with :func:`budget_breach`, so a breach produces
the same typed kind (``"wall-budget"`` / ``"rss-budget"``) and the same
message wherever the cell runs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["CellBudget", "budget_breach", "rss_mb_of"]


@dataclass(frozen=True)
class CellBudget:
    """Per-cell resource budgets; ``None`` disables an axis."""

    wall_s: Optional[float] = None
    rss_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if self.wall_s is not None and self.wall_s <= 0:
            raise ValueError(f"wall_s must be positive, got {self.wall_s}")
        if self.rss_mb is not None and self.rss_mb <= 0:
            raise ValueError(f"rss_mb must be positive, got {self.rss_mb}")


def rss_mb_of(pid: int) -> Optional[float]:
    """Resident set size of ``pid`` in MiB via ``/proc`` (Linux).

    Returns ``None`` where ``/proc/<pid>/statm`` is unavailable (non-Linux,
    or the process already exited) — RSS budgets degrade to unenforced
    rather than crashing the caller.
    """
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * (os.sysconf("SC_PAGE_SIZE") / (1024 * 1024))
    except (OSError, ValueError, IndexError):
        return None


def budget_breach(
    budget: Optional[CellBudget],
    *,
    started_at: float,
    pid: Optional[int] = None,
    now: Optional[float] = None,
) -> Optional[Tuple[str, str]]:
    """``(kind, detail)`` when a cell has exceeded ``budget``, else ``None``.

    ``started_at``/``now`` are ``time.monotonic()`` values; ``pid`` enables
    the RSS axis.
    """
    if budget is None:
        return None
    if now is None:
        now = time.monotonic()
    if budget.wall_s is not None and now - started_at > budget.wall_s:
        return (
            "wall-budget",
            f"ResourceBudgetExceeded: cell exceeded wall budget "
            f"({budget.wall_s:g}s)",
        )
    if budget.rss_mb is not None and pid is not None:
        rss = rss_mb_of(pid)
        if rss is not None and rss > budget.rss_mb:
            return (
                "rss-budget",
                f"ResourceBudgetExceeded: worker RSS {rss:.0f} MiB "
                f"exceeded budget ({budget.rss_mb:g} MiB)",
            )
    return None
