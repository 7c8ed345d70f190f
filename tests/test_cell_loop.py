"""One cell loop: serial, pooled and store-backed runs agree byte for byte.

Sweeps and chaos campaigns both execute through
:func:`repro.analysis.worker.run_cells`. Whatever the mode — ``workers=1``
in-process, ``workers=2`` process pool, or an in-process worker on a
:class:`~repro.analysis.store.LocalDirStore` — the same grid must produce
the same rows, the same canonical triage report and the same retry and
failure accounting, including for a cell that crashes on every attempt.
"""

from __future__ import annotations

import os
import time

from helpers import verdict_record
from repro.analysis import (
    ChaosCampaign,
    ExperimentSummary,
    RunTask,
    SweepExecutor,
    chaos_grid,
    execute_chaos_task,
    export_csv,
)
from repro.analysis import campaign
from repro.analysis.store import LocalDirStore

# alg1 at n = 3t is refused by the regime gate: an untyped-for-sweeps
# ConfigurationError on every attempt, i.e. an always-crashing cell.
SWEEP_CELLS = [
    RunTask(algorithm="alg1", n=4, t=1, attack="silent", seed=0),
    RunTask(algorithm="alg1", n=6, t=2, attack="silent", seed=0),
    RunTask(algorithm="alg1", n=7, t=2, attack="id-forging", seed=1),
    RunTask(algorithm="okun-crash", n=5, t=1, attack="crash", seed=2),
]

CHAOS_CELLS = chaos_grid(
    ["alg1"], [(7, 2)], seeds=(0, 1), chaos_seeds=(0,), drop=(0.3,),
    corrupt=(0.3,),
)


def _crash_seed_one_drops(task: RunTask) -> ExperimentSummary:
    """Patched-in attempt: the seed-1 drop cell crashes on every attempt."""
    if task.seed == 1 and task.chaos is not None and task.chaos.drop:
        raise RuntimeError("injected crash")
    return execute_chaos_task(task)


def _sweep_modes(tmp_path):
    yield "serial", SweepExecutor(workers=1), {}
    yield "pool", SweepExecutor(workers=2), {}
    yield "store", SweepExecutor(workers=1), {
        "store": LocalDirStore(tmp_path / "sweep-store")
    }


def _chaos_modes(tmp_path):
    for name, workers, store in (
        ("serial", 1, None),
        ("pool", 2, None),
        ("store", 1, LocalDirStore(tmp_path / "chaos-store")),
    ):
        yield name, ChaosCampaign(workers=workers, timeout_s=60), store


def _timeless(row: ExperimentSummary) -> dict:
    payload = row.to_dict()
    payload["elapsed_s"] = 0.0
    return payload


class TestParity:
    def test_sweep_rows_and_counts_match_across_modes(self, tmp_path):
        seen = {}
        for name, executor, options in _sweep_modes(tmp_path):
            rows = executor.run(list(SWEEP_CELLS), **options)
            csv = export_csv(rows, tmp_path / f"{name}.csv").read_bytes()
            seen[name] = (
                [_timeless(row) for row in rows],
                csv,
                executor.stats.retried,
                executor.stats.failed,
            )
        serial = seen["serial"]
        assert [row["failed"] for row in serial[0]] == [
            False, True, False, False
        ]
        assert "ConfigurationError" in serial[0][1]["error"]
        assert serial[2:] == (1, 1)
        assert seen["pool"] == serial
        assert seen["store"] == serial

    def test_chaos_reports_and_counts_match_across_modes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            campaign, "execute_chaos_task", _crash_seed_one_drops
        )
        seen = {}
        for name, chaos, store in _chaos_modes(tmp_path):
            report = chaos.run(CHAOS_CELLS, store=store)
            seen[name] = (
                report.canonical(),
                report.retried,
                len(report.quarantined),
            )
        serial = seen["serial"]
        assert serial[1:] == (1, 1)
        assert '"error":"RuntimeError: injected crash"' in serial[0]
        assert seen["pool"] == serial
        assert seen["store"] == serial


def _die_after_a_moment(task: RunTask) -> ExperimentSummary:
    """Patched-in attempt: the seed-0 cell kills its whole worker process."""
    if task.seed == 0:
        time.sleep(0.5)
        os._exit(1)
    return verdict_record(task, "clean")


class TestPoolDeath:
    def test_a_cell_that_kills_its_worker_is_crashed_not_fatal(
        self, monkeypatch
    ):
        monkeypatch.setattr(campaign, "execute_chaos_task", _die_after_a_moment)
        tasks = [
            RunTask("alg1", 7, 2, "silent", seed, max_rounds=64, monitor=True)
            for seed in (0, 1)
        ]
        report = ChaosCampaign(workers=2, timeout_s=60).run(tasks)
        killer, bystander = (record for _, record in report.outcomes)
        assert killer.status == "crashed"
        assert "BrokenProcessPool" in killer.error
        assert bystander.status == "clean"
