"""The synchronous round executor.

:func:`run_protocol` wires together a topology, a set of correct protocol
processes, an adversary driving the faulty slots, metrics, and tracing, and
executes lock-step rounds until every correct process has produced an output
(or ``max_rounds`` fires, which for a synchronous algorithm is always a bug).

Round structure (matching the paper's "Step r"):

1. every correct, not-yet-done process is asked for its round-``r`` outbox;
2. the (rushing) adversary sees those outboxes and picks the Byzantine ones;
3. the run's perturbers — the system model's injector, then chaos — rewrite
   the outboxes (only when the run has a model or a fault plan);
4. the network delivers everything simultaneously;
5. every correct, not-yet-done process consumes its inbox;
6. the adversary observes what reached the faulty slots.

That loop is written once, as :meth:`repro.sim.engine.Engine.execute`; the
engine choice only picks the router for step 4. ``engine="reference"``
routes one Python object per message hop, and ``engine="batched"`` (the
default) routes one shared tuple per broadcasting sender into lazy
port-row inbox views. Both are behaviour-identical under every adversary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .chaos import ChaosInjector, ChaosReport, FaultPlan
from .engine import DEFAULT_ENGINE, resolve_engine
from .errors import ConfigurationError
from .faults import Adversary, AdversaryContext, NullAdversary, split_fault_slots
from .messages import int_bits
from .metrics import RunMetrics
from .model import ModelReport, SystemModel
from .monitor import SafetyMonitor, SafetyPolicy
from .process import Process, ProcessContext
from .rng import derive_rng
from .topology import FullMeshTopology
from .trace import TraceRecorder

#: Builds a protocol instance from a context; the same factory serves correct
#: processes and the adversary's "run the real protocol" strategies.
ProcessFactory = Callable[[ProcessContext], Process]


@dataclass
class RunResult:
    """Everything observable about a finished run."""

    n: int
    t: int
    byzantine: Tuple[int, ...]
    ids: Dict[int, int]
    outputs: Dict[int, object]
    metrics: RunMetrics
    trace: Optional[TraceRecorder]
    processes: Dict[int, Process]
    #: What beyond-model fault injection actually did (``None`` when the run
    #: had no chaos plan — the overwhelmingly common case).
    chaos: Optional[ChaosReport] = None
    #: What the system model's injector actually did (``None`` when the run
    #: used the classic model or an inert parameterization).
    model: Optional[ModelReport] = None

    @property
    def correct(self) -> Tuple[int, ...]:
        """Global indices of correct processes."""
        byz = set(self.byzantine)
        return tuple(i for i in range(self.n) if i not in byz)

    def outputs_by_id(self) -> Dict[int, object]:
        """Map each correct process's *original id* to its output."""
        return {self.ids[i]: self.outputs[i] for i in self.correct}

    def new_names(self) -> Dict[int, int]:
        """``outputs_by_id`` narrowed to integer names (the renaming case).

        ``bool`` is rejected explicitly: it passes ``isinstance(..., int)``,
        so a protocol that buggily outputs ``True`` would otherwise be
        silently treated as name 1.
        """
        named = {}
        for original, output in self.outputs_by_id().items():
            if isinstance(output, bool) or not isinstance(output, int):
                raise TypeError(
                    f"output for id {original} is {output!r}, not an int name"
                )
            named[original] = output
        return named


def run_protocol(
    factory: ProcessFactory,
    *,
    n: int,
    t: int,
    ids: Sequence[int],
    adversary: Optional[Adversary] = None,
    byzantine: Sequence[int] = (),
    seed: int = 0,
    max_rounds: int = 1000,
    collect_trace: bool = False,
    through_wire: bool = False,
    engine: str = DEFAULT_ENGINE,
    topology_seed: Optional[int] = None,
    chaos: Optional[FaultPlan] = None,
    safety: Optional[SafetyPolicy] = None,
    model: Optional[SystemModel] = None,
) -> RunResult:
    """Execute one synchronous run and return its :class:`RunResult`.

    ``ids[i]`` is the original id of the process at global index ``i`` —
    faulty slots get ids too (the adversary may use, abuse, or ignore them).
    ``byzantine`` pins specific slots (process indices in ``range(n)``, at
    most ``t`` of them) as faulty; remaining faulty slots (up to ``t``) are
    drawn from the seed. With ``adversary=None`` the faulty slots are silent
    (:class:`NullAdversary`).

    ``through_wire=True`` round-trips every correct process's messages
    through the binary codec (:mod:`repro.wire`) before delivery — a
    fidelity drill proving the codec carries the full protocol (Byzantine
    traffic is exempt: adversaries may emit objects no codec knows).

    ``engine`` selects the router the round loop delivers through (see
    :mod:`repro.sim.engine`): ``"batched"`` (default) or ``"reference"``.
    Both produce identical results; the reference router exists as the
    obviously-correct oracle the batched router is differentially tested
    against. ``max_rounds`` must be at least 1.

    ``topology_seed`` overrides the seed used for link labelling only —
    metamorphic tests use it to relabel every link while keeping fault
    slots, process randomness, and the adversary unchanged. A factory that
    re-derives the wiring
    (:func:`~repro.agreement.identity.make_identified_factory`,
    :func:`~repro.broadcast.bracha.make_rb_factory`) must then be built with
    ``topology_seed``, not ``seed``, or it is wired to the wrong labelling.

    ``chaos`` (a :class:`~repro.sim.chaos.FaultPlan`) injects beyond-model
    faults — message drop/duplication/corruption, send-crashes of correct
    processes — deterministically from the plan's own seed; an empty plan is
    skipped entirely, so the engines' differential contract is untouched.
    The injection record lands on :attr:`RunResult.chaos`. ``safety`` (a
    :class:`~repro.sim.monitor.SafetyPolicy`) attaches a runtime monitor
    that aborts property-violating or over-budget runs with a typed
    :class:`~repro.sim.errors.SafetyViolation`.

    ``model`` (a :class:`~repro.sim.model.SystemModel`) selects the system
    model the run executes under — ``classic`` (the paper's, the default),
    ``impersonation(k)`` or ``partial_synchrony(rate, max_delay)``. A
    non-inert model compiles into an injector that perturbs each round
    before chaos does (it *defines* the network; chaos then breaks it), so
    all engines stay behaviour-identical under every model; an inert model
    installs nothing and the run is bit-identical to a model-free one. The
    model's record lands on :attr:`RunResult.model`.
    """
    if n < 1:
        raise ConfigurationError(f"need at least one process, got n={n}")
    if not 0 <= t < n:
        raise ConfigurationError(f"fault bound t={t} must satisfy 0 <= t < n={n}")
    if len(ids) != n:
        raise ConfigurationError(f"got {len(ids)} ids for n={n} processes")
    if len(set(ids)) != n:
        raise ConfigurationError("original ids must be unique")
    if any(identifier < 1 for identifier in ids):
        raise ConfigurationError("original ids must be positive integers")
    if max_rounds < 1:
        raise ConfigurationError(f"max_rounds must be at least 1, got {max_rounds}")

    engine_impl = resolve_engine(engine)
    topology = FullMeshTopology(n, seed=seed if topology_seed is None else topology_seed)
    byz = split_fault_slots(n, t, derive_rng(seed, "fault-slots"), fixed=byzantine)
    byz_set = set(byz)
    id_of = {i: int(ids[i]) for i in range(n)}

    trace = TraceRecorder() if collect_trace else None
    metrics = RunMetrics(
        id_bits=int_bits(max(ids) + 1),
        rank_bits=int_bits(n * n + 1),
    )

    def build(index: int) -> Process:
        ctx = ProcessContext(
            n=n,
            t=t,
            my_id=id_of[index],
            rng=derive_rng(seed, "process", index),
            trace=trace.bind(index) if trace is not None else None,
        )
        return factory(ctx)

    processes: Dict[int, Process] = {i: build(i) for i in range(n) if i not in byz_set}

    if adversary is None:
        adversary = NullAdversary()
    adversary.bind(
        AdversaryContext(
            n=n,
            t=t,
            byzantine=byz,
            ids=id_of,
            topology=topology,
            rng=derive_rng(seed, "adversary"),
            make_process=build,
        )
    )

    injector = None
    if chaos is not None and not chaos.is_empty:
        injector = ChaosInjector(chaos, n=n, byzantine=byz)
    model_injector = None
    if model is not None:
        model_injector = model.build_injector(n=n, byzantine=byz)
    monitor = None
    if safety is not None:
        monitor = SafetyMonitor(safety, ids=id_of, trace=trace)

    engine_impl.execute(
        processes=processes,
        adversary=adversary,
        byzantine=byz,
        topology=topology,
        metrics=metrics,
        through_wire=through_wire,
        max_rounds=max_rounds,
        # Model first: it defines the network; chaos then breaks it.
        perturbers=tuple(p for p in (model_injector, injector) if p is not None),
        monitor=monitor,
    )

    outputs = {i: p.output_value for i, p in processes.items()}
    return RunResult(
        n=n,
        t=t,
        byzantine=byz,
        ids=id_of,
        outputs=outputs,
        metrics=metrics,
        trace=trace,
        processes=processes,
        chaos=injector.report if injector is not None else None,
        model=model_injector.report if model_injector is not None else None,
    )
