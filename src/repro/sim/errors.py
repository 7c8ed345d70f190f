"""Exception hierarchy for the synchronous-round simulator.

All simulator-level failures derive from :class:`SimulationError` so callers
can distinguish "the experiment setup is wrong" from "the protocol under test
misbehaved" from ordinary Python bugs.
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for every error raised by :mod:`repro.sim`."""


class ConfigurationError(SimulationError, ValueError):
    """An experiment was configured inconsistently.

    Examples: ``t >= N``, duplicate original ids, a fault threshold that the
    algorithm under test rejects, or an adversary bound to the wrong network.

    Also a :class:`ValueError`: resilience preconditions used to raise bare
    ``ValueError`` from algorithm constructors, and callers written against
    that contract keep working while new code can catch the typed hierarchy.
    """


class ProtocolViolationError(SimulationError):
    """A *correct* process behaved outside the simulator contract.

    Raised, for instance, when a process addresses a message to a link label
    outside ``1..N`` or keeps sending after announcing its output. Byzantine
    processes are exempt — arbitrary behaviour is their job — but their
    messages still have to be :class:`repro.sim.messages.Message` instances so
    the delivery plumbing stays type-safe.
    """


class RoundLimitExceeded(SimulationError):
    """The run hit ``max_rounds`` before every correct process produced output.

    Synchronous algorithms have a closed-form round bound, so hitting this is
    always a bug in the protocol, the bound, or a deliberately truncated run.
    """


class JournalError(SimulationError):
    """A service session journal is unusable: corrupt mid-file record,
    sequence gap, missing header, or a header of a different kind.

    A *torn tail* (the final record cut short by a crash mid-append) is NOT
    a :class:`JournalError` — the record was never durable, so readers drop
    it silently and reopening truncates it away. Anything unusable *before*
    the tail means real corruption and refuses to open.
    """


class StoreError(SimulationError):
    """A result store is unusable or was misused.

    Raised when a store's header fingerprint does not match the grid being
    seeded into it (two different runs must never share a store), when the
    backend's own integrity checks fail mid-file (a corrupt header, an
    unreadable database), or when a store URL cannot be parsed. A corrupt
    *entry* is NOT a :class:`StoreError` — torn or tampered summaries are
    logged, discarded and recomputed, mirroring the result cache.
    """


class LeaseLost(StoreError):
    """A worker's cell lease expired and was taken over by someone else.

    Raised from :meth:`~repro.analysis.store.LocalDirStore.renew` and the
    terminal writes (``finish``/``fail``/``quarantine``) when the lease
    token on record is no longer ours: the coordinator (or a peer worker)
    decided we were dead and reassigned the cell. The correct reaction is
    to drop the result — the store guarantees the cell's first durable
    terminal record wins, so nothing is lost and nothing is double-counted.
    """


class RunInterrupted(SimulationError):
    """A store-backed run was preempted (SIGINT/SIGTERM) and drained cleanly.

    Raised *after* in-flight cells were given a chance to finish — every
    cell already completed is durable in the result store and ``runs
    resume`` (or re-seeding the store) continues from exactly this point.
    The CLI maps this to the distinct "interrupted but resumable" exit
    code.
    """

    def __init__(self, message: str, *, run_id=None, completed: int = 0,
                 remaining: int = 0) -> None:
        super().__init__(message)
        self.run_id = run_id
        self.completed = completed
        self.remaining = remaining


class ResourceBudgetExceeded(SimulationError):
    """A budget-isolated cell or session exceeded its wall-clock or RSS
    budget.

    The parent SIGKILLs the offending child process, so this exception is
    never *raised* inside the cell — it names the typed cause recorded in
    the store and in the cell's failure row (``violated`` is
    ``"wall-budget"`` or ``"rss-budget"``).
    """

    def __init__(self, message: str, *, violated: str = "wall-budget") -> None:
        super().__init__(message)
        self.violated = violated


def _rebuild_safety_violation(message, violated, round_no, ids, trace_pointer):
    return SafetyViolation(
        message,
        violated=violated,
        round_no=round_no,
        ids=ids,
        trace_pointer=trace_pointer,
    )


class SafetyViolation(SimulationError):
    """A runtime safety monitor aborted the run (see :mod:`repro.sim.monitor`).

    Raised *during* execution — instead of hanging until ``max_rounds`` or
    returning garbage output — when a run violates a property the algorithm
    proves: a name outside the promised namespace, a name claimed twice, or
    a round count beyond the proven bound. Carries structured context:

    * :attr:`violated` — which property broke (``"validity"``,
      ``"uniqueness"``, ``"round-budget"``);
    * :attr:`round_no` — the round in which the violation surfaced;
    * :attr:`ids` — the original ids involved (empty for the watchdog);
    * :attr:`trace_pointer` — number of trace events recorded when the
      violation fired (``None`` when the run was not traced). It counts
      events, not rounds; ``repro-renaming explain`` re-runs a stored cell
      or a journaled session traced and prints :attr:`round_no`.
    """

    def __init__(
        self,
        message: str,
        *,
        violated: str = "safety",
        round_no: int = 0,
        ids=(),
        trace_pointer=None,
    ) -> None:
        super().__init__(message)
        self.violated = violated
        self.round_no = round_no
        self.ids = tuple(ids)
        self.trace_pointer = trace_pointer

    def __reduce__(self):
        # Keyword-only construction breaks default exception pickling, and
        # these exceptions must cross process-pool boundaries intact.
        return (
            _rebuild_safety_violation,
            (str(self), self.violated, self.round_no, self.ids, self.trace_pointer),
        )
