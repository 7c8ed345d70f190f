"""Chaudhuri–Herlihy–Tuttle-style bit-by-bit strong renaming (crash faults).

The paper's Section III describes [6]: pick the new name one bit at a time,
splitting the ids sharing your current prefix into halves, ``O(log N)``
rounds, crash-tolerant, tight namespace. This module reconstructs that
algorithm as a one-phase :class:`~repro.sim.compose.PhaseSequence` over the
shared :class:`repro.baselines.splitting.IntervalSplitPhase`, one round per
split level, admitting every claim with a sound id — the same phase the
translated-Byzantine baseline runs after id selection.

Execution model: a fixed horizon of ``⌈log₂ N⌉ + N`` rounds. Every process
broadcasts its ``(id, interval)`` claim every round (including after it has
internally settled — silent winners would let late probers land on taken
slots). The *decision latency* — the round at which a process's singleton
became uncontested, traced as a ``settled`` event — is the quantity matching
the paper's ``O(log N)`` claim and what experiment E8 reports; in crash-free
runs every process settles by round ``⌈log₂ N⌉`` with name = rank (strong,
order-preserving). Under crashes, transient view divergence can trigger
rightward probing, which costs extra rounds, can push names past ``N`` (by
at most the number of faults observed) and can break order for the probed
processes — the literature algorithm is also not order-preserving under
faults, which is exactly the gap Okun [14] and this paper close.
"""

from __future__ import annotations

from typing import Optional

from ..core.validation import is_sound_id
from ..sim.compose import PhaseContext, PhaseSequence
from ..sim.process import ProcessContext
from .splitting import IntervalSplitPhase


class BitSplitRenaming(PhaseSequence):
    """A correct process running interval-split renaming over ``[1..M]``.

    ``namespace`` defaults to ``N`` (the CHT strong-renaming configuration);
    ``extra_rounds`` is the probe budget after the ``⌈log₂ M⌉`` split
    levels (default ``N``).
    """

    def __init__(
        self,
        ctx: ProcessContext,
        namespace: Optional[int] = None,
        extra_rounds: Optional[int] = None,
    ) -> None:
        self.namespace = ctx.n if namespace is None else namespace
        self._probe_budget = ctx.n if extra_rounds is None else extra_rounds
        super().__init__(ctx, [self._split_phase])

    def _split_phase(self, ctx: PhaseContext, _: object) -> IntervalSplitPhase:
        return IntervalSplitPhase(
            ctx,
            is_sound_id,
            namespace=self.namespace,
            rounds_per_level=1,
            probe_budget=self._probe_budget,
        )

    @property
    def settled_round(self) -> Optional[int]:
        """Round at which this process's name became uncontested."""
        return self.phase.settled_round
