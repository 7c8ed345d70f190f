"""Translated-Byzantine renaming baseline ([15], cost-envelope reproduction).

Okun, Barak & Gafni [15] obtain Byzantine renaming by pushing the
crash-tolerant bit-split algorithm of [6] through the automatic
crash→Byzantine translations of [3, 13]. The observable costs of the result
— the quantities this paper compares against — are:

* namespace doubled to ``2N`` (Byzantine processes can make different
  correct processes see different id sets, and the translation cannot
  collapse them);
* order preservation lost;
* ``O(log N)`` communication steps of echo-heavy messages;
* resilience ``N > 3t``.

Reproducing the *translation machinery itself* (consistent-history echoing
of [3, 13]) is out of scope — it is a paper-sized system of its own; per
DESIGN.md §6 we reproduce the translated algorithm's **cost envelope**
faithfully instead: the Byzantine-tolerant 4-step id-selection phase (which
bounds forged ids exactly as the translation's reliable-broadcast layer
does) feeds the bit-split engine over a ``2N`` namespace, with each split
level costing two rounds (claim + echo) to account for the translation's
echo overhead. Runs are meaningful under omission-style adversaries
(silent/crash/conforming); the full [15] construction would also withstand
active equivocation during the split phase, which this envelope does not
re-implement — benchmarks E7 compare all algorithms under the same
omission adversaries, which is conservative *in favour of* this baseline.

Composition-wise the baseline is
``PhaseSequence(IdSelectionPhase, IntervalSplitPhase)`` — it reuses the
*same* :class:`~repro.core.id_selection.IdSelectionPhase` object Alg. 1
runs and the *same* :class:`~repro.baselines.splitting.IntervalSplitPhase`
the CHT baseline runs, instead of private re-implementations.
"""

from __future__ import annotations

from typing import Optional

from ..core.id_selection import IdSelectionPhase, IdSelectionResult
from ..sim.compose import PhaseContext, PhaseSequence
from ..sim.errors import ConfigurationError
from ..sim.process import ProcessContext
from .splitting import IntervalSplitPhase


class TranslatedByzantineRenaming(PhaseSequence):
    """Id selection (4 rounds) + echo-weighted bit split over ``[1..2N]``."""

    def __init__(self, ctx: ProcessContext, extra_rounds: Optional[int] = None) -> None:
        if ctx.n <= 3 * ctx.t:
            raise ConfigurationError(
                f"translated renaming requires N > 3t (n={ctx.n}, t={ctx.t})"
            )
        self.namespace = 2 * ctx.n
        self.selection = IdSelectionPhase(ctx.n, ctx.t, ctx.my_id)
        self._probe_budget = ctx.n if extra_rounds is None else extra_rounds
        self._split: Optional[IntervalSplitPhase] = None
        super().__init__(ctx, [self._selection_phase, self._split_phase])

    def _selection_phase(self, ctx: PhaseContext, _: object) -> IdSelectionPhase:
        return self.selection

    def _split_phase(self, ctx: PhaseContext, outcome: object) -> IntervalSplitPhase:
        assert isinstance(outcome, IdSelectionResult)
        # Two rounds per split level: the claim round plus the translation's
        # echo round (modelled as a repeat of the claim); claims count only
        # from ids id selection accepted.
        self._split = IntervalSplitPhase(
            ctx,
            outcome.accepted.__contains__,
            namespace=self.namespace,
            rounds_per_level=2,
            probe_budget=self._probe_budget,
        )
        return self._split

    # ------------------------------------------------- pre-refactor attributes

    @property
    def settled_round(self) -> Optional[int]:
        """Round at which this process's name became uncontested."""
        return self._split.settled_round if self._split is not None else None
