"""Runtime safety monitors: abort property-violating or runaway runs.

Post-hoc property checking (:func:`repro.analysis.properties.check_renaming`)
judges a run after it finishes — which presumes the run *does* finish, and
finishes with judgeable output. Under beyond-model fault injection
(:mod:`repro.sim.chaos`) neither holds: a run may stall forever against
``max_rounds``, or mint garbage names that downstream code trips over. A
:class:`SafetyMonitor` closes that gap inside the engine loop:

* **round-budget watchdog** — every synchronous algorithm here has a proven
  round bound; a run exceeding its budget is aborted with a typed
  :class:`~repro.sim.errors.SafetyViolation` at ``budget + 1`` instead of
  burning hundreds of rounds into ``max_rounds``;
* **incremental validity** — each name is checked against the promised
  namespace the moment its process emits it;
* **incremental uniqueness** — a name claimed twice aborts the run at the
  round of the second claim, naming both offenders.

The violation carries the offending round, the original ids involved, and a
trace pointer (the number of trace events recorded so far, when tracing is
on) so the failure can be located inside an archived timeline.

Monitors are deterministic observers: on a healthy run every check passes
and no state outside the monitor changes, so both execution engines remain
behaviour-identical with a monitor attached — in the failing case too, since
both raise at the same round with the same message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set

from .errors import SafetyViolation
from .process import Process

__all__ = ["SafetyMonitor", "SafetyPolicy"]


@dataclass(frozen=True)
class SafetyPolicy:
    """What a :class:`SafetyMonitor` enforces.

    ``namespace`` is the promised name bound ``M`` (validity is skipped when
    ``None`` — e.g. when an algorithm is run outside its regime and its
    closed-form bound is meaningless). ``round_budget`` is the proven round
    bound (watchdog skipped when ``None``); ``check_uniqueness`` can be
    dropped for protocols whose outputs are not names at all.
    """

    namespace: Optional[int] = None
    round_budget: Optional[int] = None
    check_uniqueness: bool = True


class SafetyMonitor:
    """Incremental per-round safety checks over the live process table.

    The round loop calls :meth:`begin_round` before collecting outboxes and
    :meth:`after_deliver` once every pending process has consumed its inbox.
    Both calls either pass silently or raise :class:`SafetyViolation`.
    """

    def __init__(
        self,
        policy: SafetyPolicy,
        *,
        ids: Mapping[int, int],
        trace=None,
    ) -> None:
        self.policy = policy
        self._ids = dict(ids)
        self._trace = trace
        self._claimed: Dict[object, int] = {}  # name -> global index
        self._recorded: Set[int] = set()

    def _pointer(self) -> Optional[int]:
        return len(self._trace) if self._trace is not None else None

    def begin_round(self, round_no: int) -> None:
        """Watchdog: trip once the proven round budget is exceeded."""
        budget = self.policy.round_budget
        if budget is not None and round_no > budget:
            raise SafetyViolation(
                f"round budget exceeded: round {round_no} began but the "
                f"algorithm's proven bound is {budget} rounds",
                violated="round-budget",
                round_no=round_no,
                trace_pointer=self._pointer(),
            )

    def after_deliver(
        self, round_no: int, processes: Mapping[int, Process]
    ) -> None:
        """Check every output emitted this round, as it is emitted."""
        policy = self.policy
        for index, process in processes.items():
            if not process.done or index in self._recorded:
                continue
            self._recorded.add(index)
            value = process.output_value
            original = self._ids.get(index, index)
            if policy.namespace is not None:
                if (
                    isinstance(value, bool)
                    or not isinstance(value, int)
                    or not 1 <= value <= policy.namespace
                ):
                    raise SafetyViolation(
                        f"validity violated in round {round_no}: id "
                        f"{original} emitted {value!r}, outside "
                        f"[1..{policy.namespace}]",
                        violated="validity",
                        round_no=round_no,
                        ids=(original,),
                        trace_pointer=self._pointer(),
                    )
            if policy.check_uniqueness:
                try:
                    holder = self._claimed.get(value)
                except TypeError:
                    continue  # unhashable output: not a name, nothing to claim
                if holder is not None:
                    raise SafetyViolation(
                        f"uniqueness violated in round {round_no}: ids "
                        f"{self._ids.get(holder, holder)} and {original} "
                        f"both emitted {value!r}",
                        violated="uniqueness",
                        round_no=round_no,
                        ids=(self._ids.get(holder, holder), original),
                        trace_pointer=self._pointer(),
                    )
                self._claimed[value] = index
