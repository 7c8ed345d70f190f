"""Synchronous message-passing simulator (the paper's system model).

Implements Section II of the paper exactly: ``N`` processes in a fully
connected network, lock-step rounds, reliable links, per-process private link
labels with a self-loop, and up to ``t`` adversary-controlled faulty slots
with rushing and full-collusion powers.

Public surface:

* :class:`Process` / :class:`ProcessContext` — write protocols as round state
  machines.
* :class:`Phase` / :class:`PhaseSequence` / :class:`Multiplexer` — compose
  protocols from reusable fragments (see :mod:`repro.sim.compose`).
* :func:`run_protocol` / :class:`RunResult` — execute a run.
* :class:`Engine` / :func:`resolve_engine` — the one round loop, delivering
  through the ``"reference"`` router (the executable spec) or the default
  ``"batched"`` router (the fast path); see :mod:`repro.sim.engine`.
* :class:`Adversary` / :class:`AdversaryContext` — the fault-injection
  contract (implementations in :mod:`repro.adversary`).
* :class:`FullMeshTopology`, :class:`SynchronousNetwork` — the wiring.
* :class:`RunMetrics`, :class:`TraceRecorder` — observability.
"""

from .chaos import ChaosInjector, ChaosReport, FaultPlan
from .compose import (
    EnvelopeMessage,
    Multiplexer,
    Phase,
    PhaseBuilder,
    PhaseContext,
    PhaseSequence,
)
from .engine import (
    DEFAULT_ENGINE,
    ENGINES,
    Engine,
    engine_names,
    resolve_engine,
)
from .errors import (
    ConfigurationError,
    JournalError,
    LeaseLost,
    ProtocolViolationError,
    ResourceBudgetExceeded,
    RoundLimitExceeded,
    RunInterrupted,
    SafetyViolation,
    SimulationError,
    StoreError,
)
from .faults import Adversary, AdversaryContext, NullAdversary, split_fault_slots
from .messages import KIND_BITS, Message, int_bits
from .metrics import RoundMetrics, RunMetrics
from .model import (
    EXPECTATIONS,
    MODEL_KINDS,
    ModelExpectations,
    ModelReport,
    SystemModel,
    parse_model,
)
from .monitor import SafetyMonitor, SafetyPolicy
from .network import Delivery, SynchronousNetwork
from .process import (
    BROADCAST,
    Inbox,
    Outbox,
    Process,
    ProcessContext,
    group_links,
    ordered_links,
)
from .rng import derive_rng, derive_seed
from .runner import ProcessFactory, RunResult, run_protocol
from .topology import FullMeshTopology
from .trace import TraceEvent, TraceRecorder

__all__ = [
    "Adversary",
    "AdversaryContext",
    "BROADCAST",
    "ChaosInjector",
    "ChaosReport",
    "ConfigurationError",
    "DEFAULT_ENGINE",
    "Delivery",
    "ENGINES",
    "EXPECTATIONS",
    "Engine",
    "EnvelopeMessage",
    "FaultPlan",
    "FullMeshTopology",
    "Inbox",
    "JournalError",
    "KIND_BITS",
    "LeaseLost",
    "MODEL_KINDS",
    "Message",
    "ModelExpectations",
    "ModelReport",
    "Multiplexer",
    "NullAdversary",
    "Outbox",
    "Phase",
    "PhaseBuilder",
    "PhaseContext",
    "PhaseSequence",
    "Process",
    "ProcessContext",
    "ProcessFactory",
    "ProtocolViolationError",
    "ResourceBudgetExceeded",
    "RoundLimitExceeded",
    "RunInterrupted",
    "RoundMetrics",
    "RunMetrics",
    "RunResult",
    "SafetyMonitor",
    "SafetyPolicy",
    "SafetyViolation",
    "SimulationError",
    "StoreError",
    "SynchronousNetwork",
    "SystemModel",
    "TraceEvent",
    "TraceRecorder",
    "derive_rng",
    "derive_seed",
    "engine_names",
    "group_links",
    "int_bits",
    "ordered_links",
    "parse_model",
    "run_protocol",
    "split_fault_slots",
]
