"""Shared helper functions for the test suite (import from here,
not from conftest — conftest is pytest plumbing and its module name clashes
with benchmarks/conftest.py when both trees are collected together)."""

from __future__ import annotations

import os
import pickle
from fractions import Fraction
from typing import Any, Dict, List, Optional

from repro.adversary import make_adversary
from repro.analysis import (
    ALGORITHMS,
    ExperimentSummary,
    PropertyReport,
    RunTask,
    check_renaming,
)
from repro.sim import BROADCAST, RunResult, SystemModel, run_protocol
from repro.sim.engine import ENGINES, Engine, reference_router


def _proc_stat(pid: int) -> Optional[List[str]]:
    """The fields of ``/proc/<pid>/stat`` after the command name (state,
    ppid, ...); ``None`` when there is no such process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def child_pids(pid: int) -> List[int]:
    """Pids of the live processes whose parent is ``pid``, from ``/proc``."""
    children = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _proc_stat(int(name))
            if fields is not None and int(fields[1]) == pid:
                children.append(int(name))
    return sorted(children)


def is_running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited. An orphan that exited
    stays a zombie until its new parent reaps it; that counts as exited."""
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


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


def _encode(value: Any) -> Any:
    if isinstance(value, Fraction):
        return {"__fraction__": True, "num": value.numerator, "den": value.denominator}
    if isinstance(value, (frozenset, set, tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {
            "__dict__": True,
            "items": [[_encode(k), _encode(v)] for k, v in value.items()],
        }
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return {"__repr__": repr(value)}


def run_to_dict(result: RunResult) -> Dict[str, Any]:
    """A finished run as JSON-ready data — outputs, per-round metrics and
    the full trace, ranks as exact fractions — which the golden run digests
    of ``tests/test_differential.py`` hash as sorted-key JSON. Any change
    to this encoding moves every pin."""
    payload: Dict[str, Any] = {
        "schema": 1,
        "n": result.n,
        "t": result.t,
        "byzantine": list(result.byzantine),
        "ids": {str(index): identifier for index, identifier in result.ids.items()},
        "outputs": {
            str(index): _encode(output) for index, output in result.outputs.items()
        },
        "metrics": {
            "id_bits": result.metrics.id_bits,
            "rank_bits": result.metrics.rank_bits,
            "peak_message_bits": result.metrics.peak_message_bits,
            "rounds": [
                {
                    "round": record.round_no,
                    "correct_messages": record.correct_messages,
                    "correct_bits": record.correct_bits,
                    "byzantine_messages": record.byzantine_messages,
                }
                for record in result.metrics.rounds
            ],
        },
    }
    if result.trace is not None:
        payload["trace"] = [
            {
                "process": event.process,
                "round": event.round_no,
                "event": event.event,
                "detail": _encode(event.detail),
            }
            for event in result.trace
        ]
    return payload


def private_copy_router(topology, metrics):
    """:func:`~repro.sim.engine.reference_router`, with every recipient
    handed its own pickle round trip of its inbox.

    A copy carries the dataclass fields only, so no receive-side cache and
    no object identity is shared between recipients: every memo that
    receivers holding the same objects share (DESIGN.md §8) has to be
    rebuilt by each of them. Runs on this router are the no-sharing
    executable spec the golden digests are checked against.
    """
    route = reference_router(topology, metrics)

    def private(record, correct_outboxes, byz_outboxes):
        inboxes = route(record, correct_outboxes, byz_outboxes)
        return {
            index: pickle.loads(pickle.dumps(inbox))
            for index, inbox in inboxes.items()
        }

    return private


#: The round loop on :func:`private_copy_router`; register it in
#: ``repro.sim.engine.ENGINES`` (``monkeypatch.setitem``) to run under a name.
PRIVATE_COPY_ENGINE = Engine("private-copy", private_copy_router)

#: Every registered engine's name, then the no-sharing spec's; a test that
#: runs the last needs the ``no_sharing_engine`` fixture (tests/conftest.py).
SPEC_ENGINES = (*ENGINES, PRIVATE_COPY_ENGINE.name)


def expand_links(outbox, n, fate):
    """The expansion oracle for :func:`repro.sim.process.perturb_links`.

    Walks ``outbox`` entry by entry, :data:`~repro.sim.BROADCAST` expanded
    into labels ``1..n`` in order, and replaces every network copy of a
    message by ``fate(label, message)`` (``None`` keeps the copy). The
    self-loop (label ``n``) and invalid labels are copied without asking.
    Always returns a fresh, fully expanded outbox.
    """
    result = {}
    for link, messages in outbox.items():
        if link == BROADCAST:
            labels = range(1, n + 1)
        elif 1 <= link <= n:
            labels = (link,)
        else:
            result[link] = list(messages)
            continue
        for label in labels:
            bucket = result.setdefault(label, [])
            if label == n:
                bucket.extend(messages)
                continue
            for message in messages:
                copies = fate(label, message)
                bucket.extend((message,) if copies is None else copies)
    return result
