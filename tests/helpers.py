"""Shared helper functions for the test suite (import from here,
not from conftest — conftest is pytest plumbing and its module name clashes
with benchmarks/conftest.py when both trees are collected together)."""

from __future__ import annotations

from typing import Optional

from repro.adversary import make_adversary
from repro.analysis import (
    ALGORITHMS,
    ExperimentSummary,
    PropertyReport,
    RunTask,
    check_renaming,
)
from repro.sim import RunResult, SystemModel, run_protocol


def assert_renaming_ok(
    result: RunResult,
    namespace: int,
    require_order: bool = True,
    context: str = "",
) -> None:
    """Assert the four renaming properties on a run, with a readable message."""
    report = check_renaming(result, namespace)
    ok = report.ok if require_order else report.ok_without_order()
    assert ok, f"{context} violations: {report.violations} names={report.names}"


def standard_ids(n: int, spacing: int = 10, start: int = 10) -> list:
    """Evenly spaced ids — the default deterministic workload for unit tests."""
    return [start + spacing * index for index in range(n)]


def run_registered(
    algorithm: str,
    n: int,
    t: int,
    *,
    attack: str,
    seed: int,
    engine: str,
    ids: Optional[list] = None,
    collect_trace: bool = True,
    through_wire: bool = False,
    topology_seed: Optional[int] = None,
    max_rounds: int = 1000,
    model: Optional[SystemModel] = None,
) -> RunResult:
    """One registered-algorithm run with every engine-relevant knob exposed.

    The differential and metamorphic suites drive :func:`run_protocol`
    directly (not :func:`~repro.analysis.experiments.run_experiment`) so
    they can vary ``engine`` / ``topology_seed`` / ``model`` while reusing
    the registry's factories and attack lists.
    The factory is built with the labelling seed (``topology_seed`` when
    given): identified-model factories re-derive the run's wiring from it.
    """
    spec = ALGORITHMS[algorithm]
    if ids is None:
        ids = standard_ids(n)
    labelling_seed = seed if topology_seed is None else topology_seed
    return run_protocol(
        spec.build_factory(n, t, ids, labelling_seed),
        n=n,
        t=t,
        ids=ids,
        adversary=make_adversary(attack) if t > 0 else None,
        seed=seed,
        collect_trace=collect_trace,
        through_wire=through_wire,
        engine=engine,
        topology_seed=topology_seed,
        max_rounds=max_rounds,
        model=model,
    )


def assert_runs_identical(a: RunResult, b: RunResult, context: str = "") -> None:
    """Full cross-engine equality: outputs, fault pattern, traces, metrics.

    This is the behaviour-identity contract from :mod:`repro.sim.engine` in
    assert form — everything a caller can observe about a finished run must
    match, including the per-round metric records and the exact trace event
    stream.
    """
    assert a.n == b.n and a.t == b.t, context
    assert a.byzantine == b.byzantine, context
    assert a.ids == b.ids, context
    assert a.outputs == b.outputs, (
        f"{context}: outputs differ\n  a={a.outputs}\n  b={b.outputs}"
    )
    ma, mb = a.metrics, b.metrics
    assert ma.round_count == mb.round_count, context
    assert ma.correct_messages == mb.correct_messages, (
        f"{context}: correct_messages {ma.correct_messages} != {mb.correct_messages}"
    )
    assert ma.correct_bits == mb.correct_bits, (
        f"{context}: correct_bits {ma.correct_bits} != {mb.correct_bits}"
    )
    assert ma.byzantine_messages == mb.byzantine_messages, context
    assert ma.peak_message_bits == mb.peak_message_bits, context
    assert ma.rounds == mb.rounds, f"{context}: per-round records differ"
    if a.trace is None or b.trace is None:
        assert (a.trace is None) == (b.trace is None), context
    else:
        assert list(a.trace) == list(b.trace), f"{context}: traces differ"


def verdict_record(
    task: RunTask,
    status: str,
    *,
    error: Optional[str] = None,
    injected: Optional[dict] = None,
) -> ExperimentSummary:
    """A cell record that carries only a chaos verdict: what an injected
    campaign attempt function returns instead of running the cell."""
    return ExperimentSummary(
        algorithm=task.algorithm,
        n=task.n,
        t=task.t,
        attack=task.attack,
        seed=task.seed,
        workload=task.workload,
        rounds=0,
        correct_messages=0,
        correct_bits=0,
        peak_message_bits=0,
        byzantine=(),
        report=PropertyReport(names={}, namespace=0, injected=injected or {}),
        error=error,
        status=status,
    )
