"""Interval splitting for the bit-by-bit renaming baselines.

The Chaudhuri–Herlihy–Tuttle idea [6]: every process owns a shrinking
interval of the target namespace; each round, processes claiming the same
interval sort their ids and split — the low-ranked half takes the left
child, the rest the right — until each sits alone in a singleton and takes
that slot as its name.

Under faults, views can disagree transiently (a crashed process's id vanishes
from later rounds; a Byzantine-era claim may be misattributed), so singleton
slots can be contested. The engine resolves contention with deterministic
rightward *probing*: at a singleton, the rank-1 claimant stays, rank ``k``
moves ``k − 1`` slots right. Progress is monotone (the multiset of positions
only moves right) and a process decides only in a round where it observed
no other claim on its singleton — which makes uniqueness a one-line argument
when claims of correct processes always reach everyone (crash model, or the
filtered-claim Byzantine wrapper).

:class:`IntervalSplitter` is the sans-I/O state machine;
:class:`IntervalSplitPhase` drives it as a
:class:`~repro.sim.compose.Phase` (claim, resolve, settle, finish). Both
baselines run that one phase: :mod:`repro.baselines.cht` on its own, one
round per level, and :mod:`repro.baselines.translated_byzantine` after id
selection, two rounds per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from ..sim.compose import Phase, PhaseContext
from ..sim.messages import KIND_BITS, Message
from ..sim.process import Inbox, ordered_links


@dataclass(frozen=True)
class ClaimMessage(Message):
    """A round's territorial claim: ``id`` currently wants ``[lo, hi]``."""

    id: int
    lo: int
    hi: int

    def bit_size(self, id_bits: int = 64, rank_bits: int = 16) -> int:
        return KIND_BITS + id_bits + 2 * rank_bits


@dataclass(frozen=True)
class Interval:
    """A closed integer interval of the target namespace."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def left(self) -> "Interval":
        """Left child: the low ``⌈size/2⌉`` slots."""
        return Interval(self.lo, self.lo + (self.size + 1) // 2 - 1)

    def right(self) -> "Interval":
        """Right child: the remaining slots."""
        return Interval(self.lo + (self.size + 1) // 2, self.hi)


class IntervalSplitter:
    """Per-process splitting state machine.

    Drive with :meth:`claim` (what to broadcast) and :meth:`resolve` (feed
    the ids observed claiming *my* interval this round, including my own id).
    ``decided`` becomes the final name once settled.
    """

    def __init__(self, my_id: int, namespace: int) -> None:
        if namespace < 1:
            raise ValueError(f"namespace must be positive, got {namespace}")
        self.my_id = my_id
        self.interval = Interval(1, namespace)
        self.decided: Optional[int] = None

    def claim(self) -> Tuple[int, int]:
        """The interval to announce this round."""
        return self.interval.lo, self.interval.hi

    def resolve(self, rivals: Iterable[int]) -> None:
        """Advance one level given the ids seen claiming my interval.

        ``rivals`` may or may not include ``my_id``; it is added implicitly.
        """
        if self.decided is not None:
            return
        claimants: List[int] = sorted(set(rivals) | {self.my_id})
        rank = claimants.index(self.my_id) + 1
        if self.interval.is_singleton:
            if len(claimants) == 1:
                self.decided = self.interval.lo
            elif rank > 1:
                # Probe: slide right past the lower-ranked claimants.
                slot = self.interval.lo + rank - 1
                self.interval = Interval(slot, slot)
            # rank == 1 with company: stay put; company either decides
            # elsewhere, probes away, or was a ghost that disappears.
            return
        left = self.interval.left()
        if rank <= left.size:
            self.interval = left
        else:
            self.interval = self.interval.right()


def interval_rounds(namespace: int) -> int:
    """Rounds needed to reach singletons from a fresh splitter: ⌈log₂ M⌉."""
    rounds = 0
    size = namespace
    while size > 1:
        size = (size + 1) // 2
        rounds += 1
    return rounds


class IntervalSplitPhase(Phase):
    """Bit split over ``[1..namespace]`` among the claimants ``eligible``
    admits.

    Every step broadcasts the current claim; a level resolves on every
    ``rounds_per_level``-th step (CHT's bare claim costs 1, the translated
    baseline's claim + echo pair 2). Claims whose id fails ``eligible`` are
    ignored. Runs to a fixed horizon of ``rounds_per_level ·
    interval_rounds(namespace) + probe_budget`` steps (synchronous
    algorithms cannot early-terminate without agreement on when).
    """

    def __init__(
        self,
        ctx: PhaseContext,
        eligible: Callable[[object], bool],
        *,
        namespace: int,
        rounds_per_level: int,
        probe_budget: int,
    ) -> None:
        self.steps = rounds_per_level * interval_rounds(namespace) + probe_budget
        self._ctx = ctx
        self._eligible = eligible
        self._rounds_per_level = rounds_per_level
        self.splitter = IntervalSplitter(ctx.my_id, namespace)
        #: Global round at which this process's name became uncontested.
        self.settled_round: Optional[int] = None
        self._name: Optional[int] = None

    # ------------------------------------------------------------------ rounds

    def messages_for_step(self, step: int) -> List[Message]:
        lo, hi = self.splitter.claim()
        return [ClaimMessage(self._ctx.my_id, lo, hi)]

    def deliver_step(self, step: int, inbox: Inbox) -> None:
        rivals = self._rival_ids(inbox)
        already = self.splitter.decided
        if step % self._rounds_per_level == 0:
            self.splitter.resolve(rivals)
        if self.splitter.decided is not None and already is None:
            self.settled_round = self._ctx.global_round(step)
            self._ctx.log(step, "settled", self.splitter.decided)
        if step == self.steps:
            self._finish(step)

    # ------------------------------------------------------------- phase logic

    def _rival_ids(self, inbox: Inbox) -> List[int]:
        """The first eligible claim on my interval per link (one per link)."""
        lo, hi = self.splitter.claim()
        rivals = []
        for link in ordered_links(inbox):
            for message in inbox[link]:
                if (
                    isinstance(message, ClaimMessage)
                    and message.lo == lo
                    and message.hi == hi
                    and self._eligible(message.id)
                ):
                    rivals.append(message.id)
                    break
        return rivals

    def _finish(self, step: int) -> None:
        if self.splitter.decided is not None:
            self._name = self.splitter.decided
            return
        # Horizon reached while still contested (possible only under
        # pathological fault schedules): take the current slot; the probe
        # budget makes this unreachable in every scenario we test, but a
        # deterministic fallback beats a hang.
        lo, _ = self.splitter.claim()
        self._name = lo
        self._ctx.log(step, "settled", lo)

    def result(self) -> int:
        return self._name
