"""Durability suite: ``--journal`` runs on the result store, kill/resume,
budget-isolated workers.

A ``--journal DIR`` run is a :class:`~repro.analysis.store.LocalDirStore`
under ``DIR/<run-id>``. The acceptance bar mirrors the crash-recovery
arguments in the paper's lineage: progress is durable before it is acted
on, recovery re-runs only what never became durable, and a resumed run is
*bit-identical* (in canonical, wall-clock scrubbed form) to an
uninterrupted control run. The harness here SIGKILLs live campaign
subprocesses at deterministic and at randomized seeded store positions via
the ``REPRO_STORE_CRASH_AFTER`` hook, resumes them, and diffs the final
reports against controls.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis import (
    CellBudget,
    ChaosCampaign,
    ExperimentSummary,
    LocalDirStore,
    PropertyReport,
    RunTask,
    SweepConfig,
    SweepExecutor,
    Worker,
    atomic_write_text,
    canonical_json,
    open_store,
    store_doctor,
)
from repro.analysis.budget import rss_mb_of, run_isolated
from repro.analysis import executor as executor_module
from repro.analysis.envelope import scrub_volatile
from repro.analysis.executor import failure
from repro.analysis.store import STORE_CRASH_HOOK_ENV
from repro.sim import FaultPlan, LeaseLost, StoreError

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _seeded(tmp_path, cells: int = 3) -> LocalDirStore:
    store = LocalDirStore(tmp_path / "r")
    store.seed(
        kind="chaos", run_id="r", fingerprint="f" * 64,
        cells=[{"cell": i} for i in range(cells)],
    )
    return store


class TestJournalFormat:
    """The on-disk run a ``--journal`` flag leaves behind."""

    def test_round_trip(self, tmp_path):
        store = _seeded(tmp_path)
        claim = store.claim("w")
        store.finish(claim, {"status": "clean"})
        store.claim("w")  # cell 1 is now in flight
        reopened = LocalDirStore(tmp_path / "r")
        header = reopened.header()
        assert header["run_id"] == "r" and header["kind"] == "chaos"
        assert reopened.cells == 3
        assert reopened.terminal(0)["payload"] == {"status": "clean"}
        counts = reopened.counts()
        assert (counts["finished"], counts["leased"], counts["pending"]) == (
            1, 1, 1
        )
        assert not reopened.complete

    def test_create_refuses_existing_journal(self, tmp_path):
        from repro.cli import _durable_store

        args = argparse.Namespace(
            store=None, journal=str(tmp_path), run_id="r"
        )
        url, run_id = _durable_store(args, "chaos", lambda: "f" * 64)
        assert (url, run_id) == (f"dir:{tmp_path / 'r'}", "r")
        _seeded(tmp_path)
        with pytest.raises(StoreError, match="already exists"):
            _durable_store(args, "chaos", lambda: "f" * 64)

    def test_torn_tail_is_dropped_not_an_error(self, tmp_path):
        store = _seeded(tmp_path)
        store.finish(store.claim("w"), {})
        with open(tmp_path / "r" / "events.jsonl", "ab") as handle:
            handle.write(b'{"event": "claimed", "ce')  # cut mid-append
        events = [e["event"] for e in store.events()]
        assert events == ["claimed", "finished"]
        assert store_doctor(store)["double_executions"] == []

    def test_open_truncates_torn_tail(self, tmp_path):
        # Resuming (re-seeding with the same fingerprint) repairs the torn
        # tail first, so the resumed run's events start on a fresh line.
        store = _seeded(tmp_path)
        store.finish(store.claim("w"), {})
        path = tmp_path / "r" / "events.jsonl"
        good = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"event": "claimed", "ce')
        resumed = LocalDirStore(tmp_path / "r")
        resumed.seed(
            kind="chaos", run_id="r", fingerprint="f" * 64,
            cells=[{"cell": i} for i in range(3)],
        )
        assert path.stat().st_size == good
        resumed.finish(resumed.claim("w"), {})
        events = [e["event"] for e in resumed.events()]
        assert events == ["claimed", "finished", "claimed", "finished"]

    def test_torn_full_line_with_bad_checksum_is_also_a_tail(self, tmp_path):
        # A record can be complete-looking but carry a garbage checksum if
        # the write was torn inside it: dropped, never trusted.
        store = _seeded(tmp_path)
        store.finish(store.claim("w"), {"status": "clean"})
        path = tmp_path / "r" / "terminal" / "0.json"
        path.write_text(path.read_text().replace('"checksum": "', '"checksum": "dead'))
        assert store.terminal(0) is None
        assert not path.exists()
        assert store.claim("w").cell == 0  # re-executable

    def test_corruption_before_tail_is_fatal(self, tmp_path):
        _seeded(tmp_path)
        (tmp_path / "r" / "header.json").write_text("corrupted-mid-file")
        with pytest.raises(StoreError, match="corrupt store header"):
            LocalDirStore(tmp_path / "r").header()

    def test_record_before_header_is_fatal(self, tmp_path):
        # No cell may run against a store whose header is not durable yet.
        with pytest.raises(StoreError, match="not seeded"):
            Worker(LocalDirStore(tmp_path / "r")).run()

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        store = _seeded(tmp_path)
        cells = [{"cell": i} for i in range(3)]
        store.seed(kind="chaos", run_id="r", fingerprint="f" * 64, cells=cells)
        with pytest.raises(StoreError, match="different config fingerprint"):
            LocalDirStore(tmp_path / "r").seed(
                kind="chaos", run_id="r", fingerprint="0" * 64, cells=cells
            )

    def test_reexecution_detector(self, tmp_path):
        store = _seeded(tmp_path)
        store.finish(store.claim("w"), {})
        store.write_terminal(0, "finished", {})  # the discipline violation
        assert store_doctor(store)["double_executions"] == [0]

    def test_scrub_volatile_zeroes_only_wall_clock_fields(self):
        payload = {
            "elapsed_s": 12.5, "workers": 8,
            "nested": [{"elapsed_s": 3.0, "rounds": 28}],
        }
        scrubbed = scrub_volatile(payload)
        assert scrubbed["elapsed_s"] == 0.0 and scrubbed["workers"] == 1
        assert scrubbed["nested"][0] == {"elapsed_s": 0.0, "rounds": 28}
        assert canonical_json(payload) == canonical_json(
            {**payload, "elapsed_s": 99.0, "workers": 2}
        )


class TestAtomicWrite:
    def test_writes_and_cleans_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        assert atomic_write_text(target, "payload") == target
        assert target.read_text() == "payload"
        assert not list(tmp_path.glob("*.tmp"))

    def test_kill_mid_write_preserves_the_old_artifact(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "out.csv"
        target.write_text("old,complete,data\n")
        monkeypatch.setattr(
            os, "replace", lambda a, b: (_ for _ in ()).throw(KeyboardInterrupt)
        )
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(target, "new,half")
        monkeypatch.undo()
        assert target.read_text() == "old,complete,data\n"

    def test_export_csv_goes_through_the_atomic_path(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis import export_csv
        from repro.analysis.executor import RunTask, execute_task

        record = execute_task(
            RunTask(algorithm="alg1", n=4, t=1, attack="silent", seed=0)
        )
        calls = []
        real = os.replace
        monkeypatch.setattr(
            os, "replace", lambda a, b: (calls.append(str(a)), real(a, b))[1]
        )
        export_csv([record], tmp_path / "rows.csv")
        assert calls and calls[0].endswith("rows.csv.tmp")
        assert (tmp_path / "rows.csv").read_text().startswith("algorithm,")


# ------------------------------------------------- budget-isolated workers

def _probe_row(task: RunTask, result: str = "done") -> ExperimentSummary:
    """A finished probe record: ``rounds`` is ``n`` squared and
    ``workload`` carries the probe's ``result``."""
    return ExperimentSummary(
        algorithm=task.algorithm, n=task.n, t=task.t, attack=task.attack,
        seed=task.seed, workload=result, rounds=task.n * task.n,
        correct_messages=0, correct_bits=0, peak_message_bits=0,
        byzantine=(), report=PropertyReport(names={}, namespace=0),
    )


def _probe(task: RunTask) -> ExperimentSummary:
    """Cell body for the isolation tests (runs in the disposable child):
    ``attack`` names the operation, ``n`` sizes it and ``workload`` holds
    the path a crash-once or fail probe keeps its state in."""
    op = task.attack
    if op == "sleep":
        time.sleep(task.n)
        return _probe_row(task)
    if op == "crash-once":
        # The first attempt dies without reporting (a real child crash);
        # the retry finds the flag and succeeds.
        if not os.path.exists(task.workload):
            with open(task.workload, "w") as handle:
                handle.write("crashed")
            os._exit(1)
        return _probe_row(task, "recovered")
    if op == "fail":
        # Every attempt raises, with the attempt number in the message.
        path = task.workload
        count = int(open(path).read()) + 1 if os.path.exists(path) else 1
        with open(path, "w") as handle:
            handle.write(str(count))
        raise RuntimeError(f"attempt {count} failed")
    if op == "big":
        return _probe_row(task, "x" * task.n)
    if op == "unpicklable":
        exc = RuntimeError("no way back")
        exc.hook = lambda: None  # pickled with the exception: fails
        raise exc
    return _probe_row(task)


def _probe_cell(op: str, n: int = 1, path: str = "uniform") -> RunTask:
    return RunTask("probe", n, 0, op, 0, workload=path)


@pytest.fixture
def probe_sweep(monkeypatch):
    """Sweep cells run the probe: the worker looks ``execute_task`` up on
    its module per attempt, and forked budget children inherit the patch."""
    monkeypatch.setattr(executor_module, "execute_task", _probe)


def _probe_store(tmp_path, cells) -> LocalDirStore:
    store = LocalDirStore(tmp_path / "probe")
    store.seed(
        kind="sweep", run_id="p", fingerprint="p",
        cells=[cell.to_dict() for cell in cells],
    )
    return store


class TestWorkerBudget:
    """``Worker(budget=...)``: one disposable child process per attempt."""

    def test_runs_items_and_reports_in_callbacks(self, tmp_path, probe_sweep):
        # Every cell runs in its own child; results land in the store.
        store = _probe_store(
            tmp_path, [_probe_cell("square", i) for i in range(4)]
        )
        stats = Worker(store, budget=CellBudget(wall_s=60)).run()
        assert [store.terminal(i)["payload"]["rounds"] for i in range(4)] == [
            0, 1, 4, 9,
        ]
        assert stats.completed == 4 and stats.failed == 0

    def test_worker_crash_is_retried_then_recovers(self, tmp_path, probe_sweep):
        cell = _probe_cell("crash-once", path=str(tmp_path / "crashed.flag"))
        store = _probe_store(tmp_path, [cell])
        stats = Worker(store, budget=CellBudget(wall_s=60), retries=1).run()
        record = store.terminal(0)
        assert record["state"] == "finished"
        assert record["payload"] == _probe_row(cell, "recovered").to_dict()
        assert stats.retried == 1 and stats.completed == 1
        assert stats.failed == 0

    def test_wall_budget_kill_is_terminal_not_retried(
        self, tmp_path, probe_sweep
    ):
        store = _probe_store(tmp_path, [_probe_cell("sleep", 30)])
        stats = Worker(store, budget=CellBudget(wall_s=0.4), retries=3).run()
        record = store.terminal(0)
        assert (record["state"], record["reason"]) == (
            "quarantined", "wall-budget"
        )
        assert "ResourceBudgetExceeded" in record["payload"]["error"]
        assert stats.budget_kills == 1
        assert stats.retried == 0  # budget kills are deterministic

    def test_exhausted_retries_report_crashed(self, tmp_path, probe_sweep):
        self._exhaust_retries(tmp_path, CellBudget(wall_s=60))

    def test_exhausted_retries_report_crashed_in_process(
        self, tmp_path, probe_sweep
    ):
        # Without a budget the same failure row comes from the worker's
        # own process.
        self._exhaust_retries(tmp_path, None)

    @staticmethod
    def _exhaust_retries(tmp_path, budget):
        counter = str(tmp_path / "attempts")
        cell = _probe_cell("fail", path=counter)
        store = _probe_store(tmp_path, [cell])
        stats = Worker(store, budget=budget, retries=1).run()
        record = store.terminal(0)
        assert (record["state"], record["reason"]) == ("failed", "crashed")
        # The failure row carries the *second* (last) error's message.
        assert record["payload"] == failure(
            cell, None, "RuntimeError: attempt 2 failed", attempts=2
        ).to_dict()
        assert open(counter).read() == "2"
        assert stats.failed == 1 and stats.retried == 1

    def test_result_larger_than_a_pipe_buffer(self, tmp_path, probe_sweep):
        # The child blocks writing its result until the parent reads it, so
        # the parent must read before it waits for the child to exit.
        store = _probe_store(tmp_path, [_probe_cell("big", 1 << 20)])
        Worker(store, budget=CellBudget(wall_s=20)).run()
        record = store.terminal(0)
        assert record["state"] == "finished"
        assert len(record["payload"]["workload"]) == 1 << 20

    def test_tick_error_kills_the_child_and_propagates(self):
        # A lease taken over mid-cell: the worker's renewing tick raises.
        def lose_lease(now):
            raise LeaseLost("lease taken over")

        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(LeaseLost):
            run_isolated(_probe, _probe_cell("sleep", 30), None, tick=lose_lease)
        assert time.monotonic() - started < 10.0
        assert set(multiprocessing.active_children()) <= before

    def test_unpicklable_exception_keeps_its_text(self, tmp_path, probe_sweep):
        cell = _probe_cell("unpicklable")
        store = _probe_store(tmp_path, [cell])
        stats = Worker(store, budget=CellBudget(wall_s=60), retries=0).run()
        record = store.terminal(0)
        assert (record["state"], record["reason"]) == ("failed", "crashed")
        assert record["payload"] == failure(
            cell, None, "RuntimeError: no way back", attempts=1
        ).to_dict()
        # retries=0 is exactly one attempt: nothing was retried.
        assert stats.failed == 1 and stats.retried == 0
        assert [e for e in store.events() if e["event"] == "retried"] == []

    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/statm"),
        reason="RSS budgets read /proc (Linux only)",
    )
    def test_rss_budget_via_proc(self, tmp_path, probe_sweep):
        rss = rss_mb_of(os.getpid())
        assert rss is not None and rss > 1.0
        assert rss_mb_of(2 ** 30) is None  # no such pid -> unenforced

        # Any Python child is far above 1 MiB resident: killed, quarantined.
        store = _probe_store(tmp_path, [_probe_cell("sleep", 30)])
        stats = Worker(store, budget=CellBudget(rss_mb=1.0)).run()
        record = store.terminal(0)
        assert (record["state"], record["reason"]) == (
            "quarantined", "rss-budget"
        )
        assert "exceeded budget (1 MiB)" in record["payload"]["error"]
        assert stats.budget_kills == 1


# ------------------------------------------------- journaled-run equivalence

GRID = SweepConfig(
    algorithms=["alg1"], sizes=[(7, 2)], attacks=["silent"], seeds=[0, 1]
)

CELLS = [
    RunTask(
        "alg1", 7, 2, "silent", seed, max_rounds=64, monitor=True,
        chaos=FaultPlan(seed=0, drop=drop),
    )
    for seed in (0, 1) for drop in (0.0, 0.2)
]


def _journal(tmp_path, run_id: str) -> str:
    """The store URL ``--journal tmp_path --run-id run_id`` resolves to."""
    return f"dir:{tmp_path / run_id}"


def _rows(summaries) -> str:
    return canonical_json({"rows": [r.to_dict() for r in summaries]})


class TestJournaledEquivalence:
    def test_journaled_sweep_matches_legacy_path(self, tmp_path):
        legacy = SweepExecutor(workers=1).run(GRID)
        durable = SweepExecutor(workers=1).run(
            GRID, store=_journal(tmp_path, "s")
        )
        assert _rows(durable) == _rows(legacy)

    def test_resume_of_complete_sweep_executes_nothing(self, tmp_path):
        url = _journal(tmp_path, "s")
        first = SweepExecutor(workers=1).run(GRID, store=url)
        executed = []
        executor = SweepExecutor(workers=1, run_hook=executed.append)
        restored = executor.run(GRID, store=url)
        assert executed == [] and executor.stats.executed == 0
        assert executor.stats.restored == len(first)
        assert _rows(restored) == _rows(first)
        assert store_doctor(open_store(url))["double_executions"] == []

    def test_journaled_chaos_matches_legacy_path(self, tmp_path):
        legacy = ChaosCampaign(workers=1).run(CELLS)
        durable = ChaosCampaign(workers=1).run(
            CELLS, store=_journal(tmp_path, "c")
        )
        assert durable.canonical() == legacy.canonical()

    def test_resume_of_complete_chaos_executes_nothing(self, tmp_path):
        url = _journal(tmp_path, "c")
        first = ChaosCampaign(workers=1).run(CELLS, store=url)
        restored = ChaosCampaign(workers=1).run(CELLS, store=url)
        assert restored.canonical() == first.canonical()
        store = open_store(url)
        assert store_doctor(store)["double_executions"] == []
        # Exactly one claim per cell across both runs: the resume
        # dispatched nothing.
        claimed = [e["cell"] for e in store.events() if e["event"] == "claimed"]
        assert sorted(claimed) == list(range(len(CELLS)))

    def test_fingerprint_gate_rejects_a_changed_grid(self, tmp_path):
        url = _journal(tmp_path, "c")
        ChaosCampaign(workers=1).run(CELLS, store=url)
        other_grid = CELLS[:-1]  # one cell fewer: a different run
        with pytest.raises(StoreError, match="different config fingerprint"):
            ChaosCampaign(workers=1).run(other_grid, store=url)


# -------------------------------------------------------- kill/resume harness

CLI_GRID = [
    "--algorithms", "alg1", "--sizes", "7:2",
    "--seeds", "0", "1", "2", "3", "4", "5",
    "--chaos-seeds", "0", "--drop", "0.1", "--workers", "1",
]
CLI_CELLS = 12  # 6 seeds x (clean + one drop variant)


def _cli(args, *, env=None, **kwargs):
    base = {**os.environ, "PYTHONPATH": SRC}
    if env:
        base.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=base, capture_output=True, text=True, timeout=180, **kwargs,
    )


def _control_report(tmp_path):
    control = _cli(
        ["chaos", *CLI_GRID, "--json", str(tmp_path / "control.json")]
    )
    assert control.returncode == 0, control.stderr
    return json.loads((tmp_path / "control.json").read_text())


class TestKillResume:
    def test_sigkill_mid_campaign_then_resume_is_identical(self, tmp_path):
        runs = tmp_path / "runs"
        killed = _cli(
            ["chaos", *CLI_GRID, "--journal", str(runs), "--run-id", "k"],
            env={STORE_CRASH_HOOK_ENV: "finish:4"},
        )
        assert killed.returncode == -signal.SIGKILL
        store = LocalDirStore(runs / "k")
        assert store.counts()["finished"] == 4
        assert not store.complete

        resumed = _cli([
            "runs", "resume", "k", "--runs-dir", str(runs),
            "--workers", "1", "--json", str(tmp_path / "resumed.json"),
        ])
        assert resumed.returncode == 0, resumed.stderr

        doctor = _cli([
            "runs", "doctor", "k", "--runs-dir", str(runs),
            "--assert-no-reexecution",
        ])
        assert doctor.returncode == 0, doctor.stdout
        assert "reexecution: none" in doctor.stdout

        resumed_report = json.loads((tmp_path / "resumed.json").read_text())
        assert canonical_json(resumed_report) == canonical_json(
            _control_report(tmp_path)
        )

    def test_sigint_drains_and_exits_resumable(self, tmp_path):
        runs = tmp_path / "runs"
        env = {**os.environ, "PYTHONPATH": SRC}
        grid = [
            "--algorithms", "alg1", "--sizes", "7:2",
            "--seeds", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9",
            "--chaos-seeds", "0", "1", "--drop", "0.1", "0.2",
            "--workers", "1",
        ]
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "chaos", *grid,
             "--journal", str(runs), "--run-id", "i"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        # Wait until at least one cell is durably finished, then preempt.
        deadline = time.monotonic() + 60
        terminals = runs / "i" / "terminal"
        while time.monotonic() < deadline:
            if terminals.is_dir() and any(terminals.glob("*.json")):
                break
            time.sleep(0.05)
        process.send_signal(signal.SIGINT)
        _, stderr = process.communicate(timeout=120)
        store = LocalDirStore(runs / "i")
        if store.complete:
            pytest.skip("campaign finished before SIGINT landed")
        assert process.returncode == 4, stderr  # EXIT_INTERRUPTED
        assert "runs resume i" in stderr
        assert store_doctor(store)["interrupted"]
        assert list(store.live_leases()) == []  # the drain left none live

        resumed = _cli(
            ["runs", "resume", "i", "--runs-dir", str(runs), "--workers", "1"]
        )
        assert resumed.returncode == 0, resumed.stderr
        final = store_doctor(LocalDirStore(runs / "i"))
        assert final["complete"]
        assert final["double_executions"] == []

    @pytest.mark.slow
    def test_randomized_kill_points_always_resume_identically(self, tmp_path):
        control = _control_report(tmp_path)
        rng = random.Random(0xD1CE)
        for round_no in range(4):
            kill_after = rng.randint(1, CLI_CELLS - 1)
            runs = tmp_path / f"runs-{round_no}"
            run_id = f"k{round_no}"
            killed = _cli(
                ["chaos", *CLI_GRID, "--journal", str(runs),
                 "--run-id", run_id],
                env={STORE_CRASH_HOOK_ENV: f"finish:{kill_after}"},
            )
            assert killed.returncode == -signal.SIGKILL, (
                f"round {round_no}: kill at {kill_after} did not fire"
            )
            out = tmp_path / f"resumed-{round_no}.json"
            resumed = _cli([
                "runs", "resume", run_id, "--runs-dir", str(runs),
                "--workers", "1", "--json", str(out),
            ])
            assert resumed.returncode == 0, resumed.stderr
            report = store_doctor(LocalDirStore(runs / run_id))
            assert report["complete"]
            assert report["double_executions"] == []
            assert canonical_json(json.loads(out.read_text())) == \
                canonical_json(control), f"diverged at kill point {kill_after}"

    def test_journaled_sweep_csv_matches_the_serial_control(self, tmp_path):
        grid = [
            "sweep", "--algorithms", "alg1", "okun-crash", "--sizes", "7:2",
            "--seeds", "0", "1", "2",
        ]
        control = _cli([
            *grid, "--workers", "1", "--csv", str(tmp_path / "control.csv"),
        ])
        assert control.returncode == 0, control.stderr
        durable = _cli([
            *grid, "--workers", "1", "--journal", str(tmp_path / "runs"),
            "--run-id", "s", "--csv", str(tmp_path / "journal.csv"),
        ])
        assert durable.returncode == 0, durable.stderr
        assert (tmp_path / "journal.csv").read_bytes() == \
            (tmp_path / "control.csv").read_bytes()


class TestDoctorRepair:
    def test_doctor_reports_and_truncates_a_torn_tail(self, tmp_path, capsys):
        from repro.cli import main

        ChaosCampaign(workers=1).run(
            CELLS[:2], store=_journal(tmp_path, "t")
        )
        path = tmp_path / "t" / "events.jsonl"
        good = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"event":"claimed","torn')
        code = main(["runs", "doctor", "t", "--runs-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "torn tail" in out
        assert path.stat().st_size == good  # repaired in place
        assert path.read_bytes().endswith(b"\n")
