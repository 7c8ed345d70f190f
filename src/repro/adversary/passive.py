"""Passive / benign-ish fault strategies: silence and crashes.

These model the *crash-fault* world inside the Byzantine framework, which is
what lets the crash baselines of experiment E8 and the Byzantine algorithms
share one simulator. A crash in the synchronous model is "stop mid-round":
the crashing process's final round delivers an arbitrary subset of its
messages (here: a seeded random subset of links), and nothing afterwards.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..sim.faults import NullAdversary
from ..sim.process import Outbox, per_label
from .base import ProtocolDrivenAdversary


class SilentAdversary(NullAdversary):
    """Faulty slots that never transmit — total omission from round 1."""


class CrashAdversary(ProtocolDrivenAdversary):
    """Faulty slots run the real protocol, then crash.

    Each slot gets a crash round drawn uniformly from ``1..horizon`` (or a
    fixed schedule via ``crash_rounds``). In its crash round the slot's
    outbox reaches only a random subset of links; afterwards it is silent.
    A slot may also crash "cleanly before sending" when the subset is empty.
    """

    def __init__(
        self,
        horizon: int = 8,
        crash_rounds: Optional[Mapping[int, int]] = None,
    ) -> None:
        self._horizon = horizon
        self._fixed = dict(crash_rounds or {})
        self._schedule: Dict[int, int] = {}

    def bind(self, ctx) -> None:
        super().bind(ctx)
        for index in ctx.byzantine:
            if index in self._fixed:
                self._schedule[index] = self._fixed[index]
            else:
                self._schedule[index] = ctx.rng.randint(1, max(1, self._horizon))

    def mutate_outbox(self, round_no, index, genuine: Outbox, correct_outboxes) -> Outbox:
        crash_round = self._schedule[index]
        if round_no > crash_round:
            return {}
        if round_no < crash_round:
            return genuine
        # Crash mid-send: deliver on a random subset of links only.
        explicit = per_label(genuine, self.ctx.n)
        links = sorted(explicit)
        keep = {link for link in links if self.ctx.rng.random() < 0.5}
        return {link: msgs for link, msgs in explicit.items() if link in keep}
