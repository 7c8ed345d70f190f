"""Session execution: from registered ids to a certified assignment.

The daemon hands a closed session to :func:`execute_session`, which

1. selects the algorithm — an explicit registered name, or ``"auto"``,
   which picks the cheapest regime :class:`repro.core.params.SystemParams`
   admits for ``(n, t)`` (Alg. 4's two rounds when ``N > 2t² + t``, the
   constant-time Alg. 1 when ``N > t² + 2t``, plain Alg. 1 when
   ``N > 3t``);
2. runs it under the in-run safety monitor
   (:class:`repro.sim.monitor.SafetyPolicy` — validity, uniqueness, and
   the proven round budget), so a property violation aborts as a typed
   :class:`~repro.sim.errors.SafetyViolation` instead of returning
   garbage;
3. re-validates the finished assignment with
   :func:`repro.analysis.properties.check_renaming` and builds the
   property certificate the client receives.

With a :class:`~repro.analysis.budget.CellBudget`,
:func:`execute_session_isolated` runs the same function in a disposable
child process policed by the same
:func:`~repro.analysis.budget.budget_breach` decision the fabric's
budget-isolated workers use — a wall/RSS breach SIGKILLs the
child and surfaces as a typed
:class:`~repro.sim.errors.ResourceBudgetExceeded`, never as a wedged
server.
"""

from __future__ import annotations

import multiprocessing
import queue
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ..adversary import adversary_names, make_adversary
from ..analysis.experiments import ALGORITHMS
from ..analysis.properties import check_renaming
from ..analysis.budget import CellBudget, budget_breach
from ..core import SystemParams
from ..sim import (
    DEFAULT_ENGINE,
    ConfigurationError,
    ResourceBudgetExceeded,
    SafetyPolicy,
    run_protocol,
)

__all__ = [
    "ServiceInfraError",
    "SessionRequest",
    "execute_session",
    "execute_session_isolated",
    "select_algorithm",
]

#: Upper bound on rounds for any service run — the monitor's round budget
#: fires far earlier for every registered algorithm; this is the backstop
#: so a service run can never spin unbounded.
SERVICE_MAX_ROUNDS = 256


class ServiceInfraError(RuntimeError):
    """The session runner failed for reasons unrelated to the session
    itself (child process died, result channel broke)."""


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


def execute_session(request: SessionRequest) -> SessionResult:
    """Run one session and certify the result.

    Raises :class:`~repro.sim.errors.ConfigurationError` for unusable
    parameters and :class:`~repro.sim.errors.SafetyViolation` when the
    in-run monitor aborts; anything else is a server-side bug the daemon
    reports as infra.
    """
    n = len(request.ids)
    try:
        params = SystemParams(n, request.t)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    name = request.algorithm
    if name == "auto":
        name = select_algorithm(params)
    spec = ALGORITHMS.get(name)
    if spec is None:
        known = ", ".join(sorted(ALGORITHMS))
        raise ConfigurationError(
            f"unknown algorithm {request.algorithm!r}; known: auto, {known}"
        )
    if request.attack not in spec.attacks:
        raise ConfigurationError(
            f"attack {request.attack!r} is not meaningful against {name!r}; "
            f"valid attacks: {', '.join(spec.attacks)}"
        )
    if not spec.regime(params):
        raise ConfigurationError(
            f"{name!r} is outside its proven resilience regime at "
            f"n={n}, t={request.t}"
        )
    factory = spec.build_factory(n, request.t, request.ids, request.seed)
    adversary = make_adversary(request.attack) if request.t > 0 else None
    bound = spec.namespace(params)
    round_budget = (
        spec.round_budget(params) if spec.round_budget is not None else None
    )
    result = run_protocol(
        factory,
        n=n,
        t=request.t,
        ids=request.ids,
        adversary=adversary,
        seed=request.seed,
        max_rounds=SERVICE_MAX_ROUNDS,
        engine=request.engine,
        safety=SafetyPolicy(namespace=bound, round_budget=round_budget),
    )
    report = check_renaming(result, bound)
    checked = ["validity", "termination", "uniqueness"]
    if spec.order_preserving:
        checked.append("order_preservation")
        ok = report.ok
    else:
        ok = report.ok_without_order()
    return SessionResult(
        algorithm=name,
        rounds=result.metrics.round_count,
        namespace=bound,
        names=tuple(sorted(report.names.items())),
        ok=ok,
        checked=tuple(checked),
        violations=tuple(report.violations),
    )


def _session_cell_main(request: SessionRequest, result_q) -> None:
    """Child-process body for budget-isolated session execution."""
    try:
        result_q.put(("done", execute_session(request)))
    except BaseException as exc:  # noqa: BLE001 — relayed, not hidden
        try:
            result_q.put(("raised", exc))
        except Exception:  # unpicklable exception — degrade to its text
            result_q.put(("error", f"{type(exc).__name__}: {exc}"))


def execute_session_isolated(
    request: SessionRequest,
    budget: CellBudget,
    *,
    poll_s: float = 0.05,
) -> SessionResult:
    """One disposable child process, policed by :func:`budget_breach`.

    A wall/RSS breach SIGKILLs the child and raises the typed
    :class:`~repro.sim.errors.ResourceBudgetExceeded`; typed errors raised
    *inside* the child (``SafetyViolation``, ``ConfigurationError``) are
    re-raised here identically, so callers cannot tell isolation from
    inline execution except by the budget actually being enforced.
    """
    result_q: multiprocessing.Queue = multiprocessing.Queue()
    process = multiprocessing.Process(
        target=_session_cell_main, args=(request, result_q), daemon=True
    )
    process.start()
    started = time.monotonic()
    try:
        while True:
            process.join(timeout=poll_s)
            if not process.is_alive():
                break
            breach = budget_breach(budget, started_at=started, pid=process.pid)
            if breach is not None:
                process.kill()
                process.join(timeout=2.0)
                raise ResourceBudgetExceeded(breach[1], violated=breach[0])
        try:
            kind, payload = result_q.get(timeout=1.0)
        except queue.Empty:
            raise ServiceInfraError(
                f"session runner died mid-run (exit code {process.exitcode})"
            ) from None
        if kind == "done":
            return payload
        if kind == "raised":
            raise payload
        raise ServiceInfraError(payload)
    finally:
        result_q.close()
        result_q.cancel_join_thread()


def supported_attacks() -> Sequence[str]:
    """Attack names a session may request (the adversary registry)."""
    return adversary_names()


def result_expected_names(request: SessionRequest) -> int:
    """How many names a completed session returns: the correct slots."""
    return len(request.ids) - request.t


def namespace_for(
    algorithm: str, n: int, t: int
) -> Optional[int]:
    """The promised namespace bound, or ``None`` for unknown algorithms."""
    spec = ALGORITHMS.get(algorithm)
    if spec is None:
        return None
    return spec.namespace(SystemParams(n, t))
