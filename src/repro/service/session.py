"""Session execution: from registered ids to a certified assignment.

The daemon hands a closed session to :func:`execute_session`, which

1. resolves the requested algorithm to a registered name — an explicit
   name, or ``"auto"``, which picks the cheapest regime
   :class:`repro.core.params.SystemParams` admits for ``(n, t)`` (Alg. 4's
   two rounds when ``N > 2t² + t``, the constant-time Alg. 1 when
   ``N > t² + 2t``, plain Alg. 1 when ``N > 3t``);
2. runs it through the experiment harness every sweep cell uses,
   :func:`repro.analysis.experiments.run_experiment`, under the in-run
   safety monitor (validity, uniqueness, and the proven round budget), so
   a property violation aborts as a typed
   :class:`~repro.sim.errors.SafetyViolation` instead of returning
   garbage, and the finished assignment is re-validated by
   :func:`repro.analysis.properties.check_renaming`;
3. builds the property certificate the client receives
   (:func:`certify`), which :func:`response_frames` encodes.

:func:`session_experiment` is steps 1–2 alone, so ``repro-renaming
explain`` re-runs a journaled session through the daemon's own code.

The daemon runs this function in a session worker process
(:mod:`repro.service.pool`); with a
:class:`~repro.analysis.budget.CellBudget` the worker runs it through
:func:`repro.analysis.budget.run_isolated`, the same budget-policed child
the fabric's budget-isolated workers use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..analysis.experiments import ALGORITHMS, ExperimentRecord, run_experiment
from ..core import SystemParams
from ..sim import DEFAULT_ENGINE, ConfigurationError
from .frames import encode_frame
from .messages import CertificateMessage, NamesAssignedMessage

__all__ = [
    "SessionRequest",
    "certify",
    "execute_session",
    "response_frames",
    "select_algorithm",
    "session_experiment",
]

#: Upper bound on rounds for any service run — the monitor's round budget
#: fires far earlier for every registered algorithm; this is the backstop
#: so a service run can never spin unbounded.
SERVICE_MAX_ROUNDS = 256


@dataclass(frozen=True)
class SessionRequest:
    """One closed session, ready to execute (picklable for isolation)."""

    ids: Tuple[int, ...]
    algorithm: str = "auto"
    t: int = 0
    attack: str = "silent"
    seed: int = 0
    engine: str = DEFAULT_ENGINE


@dataclass(frozen=True)
class SessionResult:
    """The certified assignment (everything the response frames carry)."""

    algorithm: str
    rounds: int
    namespace: int
    names: Tuple[Tuple[int, int], ...]
    ok: bool
    checked: Tuple[str, ...]
    violations: Tuple[str, ...] = field(default=())


def select_algorithm(params: SystemParams) -> str:
    """The cheapest registered algorithm whose regime admits ``params``."""
    if params.in_fast_regime:
        return "alg4"
    if params.in_constant_time_regime:
        return "alg1-constant"
    if params.tolerates_byzantine:
        return "alg1"
    raise ConfigurationError(
        f"no algorithm serves n={params.n}, t={params.t}: Byzantine "
        f"renaming needs N > 3t"
    )


def session_experiment(
    request: SessionRequest, *, collect_trace: bool = False
) -> ExperimentRecord:
    """Resolve the session's algorithm and run it — the one resolution,
    shared by :func:`execute_session` and ``repro-renaming explain``.

    Raises :class:`~repro.sim.errors.ConfigurationError` for unusable
    parameters and :class:`~repro.sim.errors.SafetyViolation` when the
    in-run monitor aborts.
    """
    n = len(request.ids)
    try:
        params = SystemParams(n, request.t)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    name = request.algorithm
    if name == "auto":
        name = select_algorithm(params)
    if name not in ALGORITHMS:
        known = ", ".join(sorted(ALGORITHMS))
        raise ConfigurationError(
            f"unknown algorithm {request.algorithm!r}; known: auto, {known}"
        )
    return run_experiment(
        name,
        n,
        request.t,
        request.ids,
        attack=request.attack,
        seed=request.seed,
        collect_trace=collect_trace,
        max_rounds=SERVICE_MAX_ROUNDS,
        engine=request.engine,
        monitor=True,
    )


def certify(record: ExperimentRecord) -> SessionResult:
    """The certified assignment of a finished session run."""
    report = record.report
    checked = ["validity", "termination", "uniqueness"]
    if ALGORITHMS[record.algorithm].order_preserving:
        checked.append("order_preservation")
        ok = report.ok
    else:
        ok = report.ok_without_order()
    return SessionResult(
        algorithm=record.algorithm,
        rounds=record.rounds,
        namespace=report.namespace,
        names=tuple(sorted(report.names.items())),
        ok=ok,
        checked=tuple(checked),
        violations=tuple(report.violations),
    )


def execute_session(request: SessionRequest) -> SessionResult:
    """Run one session and certify the result.

    Raises what :func:`session_experiment` raises; anything else is a
    server-side bug the daemon reports as infra.
    """
    return certify(session_experiment(request))


def response_frames(result: SessionResult) -> Tuple[bytes, bytes]:
    """The encoded NamesAssigned and Certificate frames of ``result`` —
    what the daemon sends and journals, and what ``explain`` compares."""
    names = NamesAssignedMessage(
        entries=result.names, algorithm=result.algorithm, rounds=result.rounds
    )
    certificate = CertificateMessage(
        namespace=result.namespace, ok=result.ok, checked=result.checked,
        violations=result.violations,
    )
    return encode_frame(names), encode_frame(certificate)
