"""Algorithm registry and single-run experiment harness.

Benchmarks, the CLI and integration tests all speak in terms of
:class:`AlgorithmSpec`: a named algorithm with a factory builder (some
algorithms need the run's ids/seed, e.g. the identified-model consensus
baseline), its promised namespace, whether it promises order preservation,
and which adversary strategies are meaningful against it.

:func:`run_experiment` executes one fully-specified configuration and
returns an :class:`ExperimentRecord` with outputs, property verdicts and
traffic metrics — the row format every table in EXPERIMENTS.md is built
from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..adversary import ALG1_ATTACKS, ALG4_ATTACKS, make_adversary
from ..baselines import (
    BitSplitRenaming,
    FloodSetRenaming,
    OkunCrashRenaming,
    TranslatedByzantineRenaming,
    consensus_renaming_factory,
)
from ..core import (
    ConstantTimeRenaming,
    OrderPreservingRenaming,
    SystemParams,
    TwoStepRenaming,
)
from ..sim import (
    DEFAULT_ENGINE,
    MODEL_KINDS,
    ConfigurationError,
    FaultPlan,
    RunResult,
    SafetyPolicy,
    SystemModel,
    run_protocol,
)
from ..sim.process import ProcessContext
from .properties import PropertyReport, check_renaming

#: Factory builder signature: (n, t, ids, seed) -> run_protocol factory.
FactoryBuilder = Callable[[int, int, Sequence[int], int], Callable[[ProcessContext], object]]

#: Crash-model strategies, shared by the crash baselines.
CRASH_ATTACKS = ["silent", "conforming", "crash"]


@dataclass(frozen=True)
class AlgorithmSpec:
    """Everything the harness needs to run and judge one algorithm."""

    name: str
    build_factory: FactoryBuilder
    namespace: Callable[[SystemParams], int]
    order_preserving: bool
    attacks: Sequence[str]
    regime: Callable[[SystemParams], bool] = lambda params: True
    #: Proven worst-case round bound (the safety monitor's watchdog budget);
    #: ``None`` where the paper/baseline proves no closed-form bound.
    round_budget: Optional[Callable[[SystemParams], int]] = None
    #: System-model kinds the algorithm is meaningful under (see
    #: :data:`repro.sim.MODEL_KINDS`). Default: every registered kind.
    #: Pairings outside this list raise ``ConfigurationError`` from
    #: :func:`run_experiment` and are filtered silently by sweeps — the
    #: same contract ``attacks`` carries.
    models: Sequence[str] = MODEL_KINDS

    def supports(self, n: int, t: int) -> bool:
        """True when (n, t) satisfies the algorithm's resilience condition."""
        return self.regime(SystemParams(n, t))


def _simple(cls) -> FactoryBuilder:
    return lambda n, t, ids, seed: cls


ALGORITHMS: Dict[str, AlgorithmSpec] = {
    "alg1": AlgorithmSpec(
        name="alg1",
        build_factory=_simple(OrderPreservingRenaming),
        namespace=lambda p: p.namespace_bound,
        order_preserving=True,
        attacks=ALG1_ATTACKS,
        regime=lambda p: p.tolerates_byzantine,
        round_budget=lambda p: p.total_rounds,
    ),
    "alg1-constant": AlgorithmSpec(
        name="alg1-constant",
        build_factory=_simple(ConstantTimeRenaming),
        namespace=lambda p: p.strong_namespace,
        order_preserving=True,
        attacks=ALG1_ATTACKS,
        regime=lambda p: p.in_constant_time_regime,
        round_budget=lambda p: p.constant_time_total_rounds,
    ),
    "alg4": AlgorithmSpec(
        name="alg4",
        build_factory=_simple(TwoStepRenaming),
        namespace=lambda p: p.fast_namespace_bound,
        order_preserving=True,
        attacks=ALG4_ATTACKS,
        regime=lambda p: p.in_fast_regime,
        round_budget=lambda p: 2,
    ),
    "okun-crash": AlgorithmSpec(
        name="okun-crash",
        build_factory=_simple(OkunCrashRenaming),
        namespace=lambda p: p.n,
        order_preserving=True,
        attacks=CRASH_ATTACKS,
    ),
    "cht": AlgorithmSpec(
        name="cht",
        # Probing under crashes may overflow the tight namespace by at most
        # the number of faults — the promise checked is N + t.
        build_factory=_simple(BitSplitRenaming),
        namespace=lambda p: p.n + p.t,
        order_preserving=False,
        attacks=CRASH_ATTACKS,
    ),
    "floodset": AlgorithmSpec(
        name="floodset",
        build_factory=_simple(FloodSetRenaming),
        namespace=lambda p: p.n,
        order_preserving=True,
        attacks=CRASH_ATTACKS,
    ),
    "translated": AlgorithmSpec(
        name="translated",
        build_factory=_simple(TranslatedByzantineRenaming),
        namespace=lambda p: 2 * p.n,
        order_preserving=False,
        attacks=CRASH_ATTACKS,
        regime=lambda p: p.tolerates_byzantine,
    ),
    "consensus": AlgorithmSpec(
        name="consensus",
        build_factory=lambda n, t, ids, seed: consensus_renaming_factory(n, ids, seed),
        namespace=lambda p: p.n,
        order_preserving=True,
        attacks=ALG1_ATTACKS,
        regime=lambda p: p.tolerates_byzantine,
        # The consensus baseline runs in the *identified* model: global
        # identities are injected out of band, which presumes senders are
        # authentic and links reliable. Forged-sender frames or lossy
        # rounds void that premise rather than stress it, so non-classic
        # models are meaningless pairings here.
        models=("classic",),
    ),
}


@dataclass
class ExperimentRecord:
    """One run's outcome in table-row form."""

    algorithm: str
    n: int
    t: int
    attack: str
    seed: int
    rounds: int
    correct_messages: int
    correct_bits: int
    peak_message_bits: int
    report: PropertyReport
    result: RunResult

    @property
    def max_name(self) -> int:
        return max(self.report.names.values()) if self.report.names else 0


def run_experiment(
    algorithm: str,
    n: int,
    t: int,
    ids: Sequence[int],
    attack: str = "silent",
    seed: int = 0,
    collect_trace: bool = False,
    namespace: Optional[int] = None,
    max_rounds: int = 1000,
    engine: str = DEFAULT_ENGINE,
    enforce_regime: bool = True,
    monitor: bool = False,
    chaos: Optional[FaultPlan] = None,
    model: Optional[SystemModel] = None,
) -> ExperimentRecord:
    """Execute one configuration and judge it.

    ``namespace`` overrides the algorithm's promised bound (used when probing
    slack applies); everything else comes from :data:`ALGORITHMS`.
    ``engine`` selects the round-loop implementation (see
    :mod:`repro.sim.engine`) — results are identical either way.

    ``attack`` must be one of the strategies registered as meaningful for
    ``algorithm`` (:attr:`AlgorithmSpec.attacks`); anything else raises
    :class:`~repro.sim.errors.ConfigurationError`. Sweeps filter such
    pairings silently, but a direct caller asking for a meaningless
    combination (e.g. a rank attack against a crash baseline) is a
    misconfiguration, not a measurement.

    ``enforce_regime=True`` (the default) raises
    :class:`~repro.sim.errors.ConfigurationError` when ``(n, t)`` falls
    outside the algorithm's proven resilience regime — the uniform typed
    answer for beyond-threshold configurations. Pass ``False`` to run the
    algorithm beyond its model anyway, to observe *which* property breaks
    (the beyond-model tests do; some constructors still refuse on their
    own).

    ``monitor=True`` attaches a :class:`~repro.sim.monitor.SafetyMonitor`
    that aborts the run with a typed
    :class:`~repro.sim.errors.SafetyViolation` the moment validity or
    uniqueness breaks or the algorithm exceeds its proven round budget
    (:attr:`AlgorithmSpec.round_budget`). ``chaos`` injects a beyond-model
    :class:`~repro.sim.chaos.FaultPlan` (see :mod:`repro.sim.chaos`).

    ``model`` (a :class:`~repro.sim.SystemModel`) selects the system model
    the run executes under (see :mod:`repro.sim.model`); ``None`` means
    classic. Like attacks, the pairing must be registered as meaningful
    (:attr:`AlgorithmSpec.models`) or this raises
    :class:`~repro.sim.errors.ConfigurationError` — sweeps filter such
    pairings silently. Under a model whose expectations void the paper's
    round budgets (partial synchrony withholds frames), ``monitor=True``
    keeps the validity/uniqueness monitors but drops the round-budget
    watchdog: exceeding a bound the model voided is a degradation to
    record, not a monitor trip.
    """
    spec = ALGORITHMS[algorithm]
    if attack not in spec.attacks:
        valid = ", ".join(spec.attacks)
        raise ConfigurationError(
            f"attack {attack!r} is not meaningful against {algorithm!r}; "
            f"valid attacks: {valid}"
        )
    if model is not None and model.kind not in spec.models:
        valid = ", ".join(spec.models)
        raise ConfigurationError(
            f"system model {model.describe()!r} is not meaningful for "
            f"{algorithm!r}; valid model kinds: {valid}"
        )
    params = SystemParams(n, t)
    if enforce_regime and not spec.regime(params):
        raise ConfigurationError(
            f"{algorithm!r} is outside its proven resilience regime at "
            f"n={n}, t={t}"
        )
    factory = spec.build_factory(n, t, ids, seed)
    adversary = make_adversary(attack) if t > 0 else None
    bound = spec.namespace(params) if namespace is None else namespace
    safety = None
    if monitor:
        budget = spec.round_budget(params) if spec.round_budget is not None else None
        if model is not None and not model.expectations().round_budget_holds:
            budget = None
        safety = SafetyPolicy(namespace=bound, round_budget=budget)
    result = run_protocol(
        factory,
        n=n,
        t=t,
        ids=ids,
        adversary=adversary,
        seed=seed,
        collect_trace=collect_trace,
        max_rounds=max_rounds,
        engine=engine,
        chaos=chaos,
        safety=safety,
        model=model,
    )
    report = check_renaming(result, bound)
    return ExperimentRecord(
        algorithm=algorithm,
        n=n,
        t=t,
        attack=attack,
        seed=seed,
        rounds=result.metrics.round_count,
        correct_messages=result.metrics.correct_messages,
        correct_bits=result.metrics.correct_bits,
        peak_message_bits=result.metrics.peak_message_bits,
        report=report,
        result=result,
    )
