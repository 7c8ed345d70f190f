"""Crash-contained chaos campaigns: grid builder, triage, containment."""

from __future__ import annotations

import hashlib
import json
import shlex
import time

import pytest

from repro.analysis import (
    CHAOS_PRESETS,
    ChaosCampaign,
    ChaosOutcome,
    RunTask,
    TriageReport,
    chaos_grid,
    execute_chaos_task,
)
from repro.analysis.campaign import STATUSES, describe, reproducer
from repro.cli import main
from repro.sim import DEFAULT_ENGINE, ConfigurationError, FaultPlan


def _cell(algorithm, n, t, *, attack="silent", seed=0,
          engine=DEFAULT_ENGINE, chaos=None):
    """One campaign cell, shaped as :func:`chaos_grid` builds it."""
    return RunTask(
        algorithm, n, t, attack, seed, engine=engine, max_rounds=64,
        monitor=True, chaos=chaos,
    )


# Injectable task runners for containment tests. Module-level so they
# survive the trip into pool workers.

def _always_crash(task):
    raise RuntimeError("boom")


def _hang_forever(task):
    time.sleep(600)


def _verdict_by_seed(task):
    return ChaosOutcome(task=task, status="clean" if task.seed == 0 else "tolerated")


class _FlakyRunner:
    """Crashes on the first call for each task, succeeds on retry."""

    def __init__(self):
        self.seen = set()

    def __call__(self, task):
        if task not in self.seen:
            self.seen.add(task)
            raise OSError("transient")
        return ChaosOutcome(task=task, status="clean")


SMALL_GRID = chaos_grid(
    ["alg1"], [(7, 2)], seeds=(0,), chaos_seeds=(0,),
    drop=(0.3,), corrupt=(0.3,), extra_crashes=(1,),
)


class TestChaosGrid:
    def test_linear_in_fault_values_plus_clean_control(self):
        tasks = chaos_grid(
            ["alg1"], [(7, 2)], seeds=(0, 1), chaos_seeds=(0, 1),
            drop=(0.1, 0.5), corrupt=(0.2,),
        )
        # 2 seeds x (1 clean + 2 chaos_seeds x 3 single-axis variants)
        assert len(tasks) == 2 * (1 + 2 * 3)
        clean = [task for task in tasks if task.chaos is None]
        assert len(clean) == 2  # once per configuration, not per chaos seed
        assert all(
            task.chaos.drop == 0.0 or task.chaos.corrupt == 0.0
            for task in tasks if task.chaos is not None
        )

    def test_combine_merges_one_plan(self):
        tasks = chaos_grid(
            ["alg1"], [(7, 2)], drop=(0.1,), duplicate=(0.2,),
            extra_crashes=(1,), crash_round=3, combine=True,
            include_clean=False,
        )
        assert len(tasks) == 1
        plan = tasks[0].chaos
        assert (plan.drop, plan.duplicate, plan.extra_crashes) == (0.1, 0.2, 1)
        assert plan.crash_round == 3

    def test_combine_rejects_multiple_values_per_axis(self):
        with pytest.raises(ConfigurationError, match="combine"):
            chaos_grid(["alg1"], [(7, 2)], drop=(0.1, 0.2), combine=True)

    def test_include_clean_false_drops_controls(self):
        tasks = chaos_grid(
            ["alg1"], [(7, 2)], drop=(0.3,), include_clean=False
        )
        assert all(not task.chaos.is_empty for task in tasks)

    def test_presets_are_valid_grid_inputs(self):
        for preset in CHAOS_PRESETS.values():
            tasks = chaos_grid(["alg1"], [(7, 2)], **preset)
            assert tasks
            assert all(
                task.chaos is None or isinstance(task.chaos, FaultPlan)
                for task in tasks
            )

    def test_invalid_fault_value_fails_before_any_cell(self):
        with pytest.raises(ConfigurationError, match="drop"):
            chaos_grid(["alg1"], [(7, 2)], drop=(1.5,))


class TestExecuteChaosTask:
    def test_clean_cell_is_clean(self):
        outcome = execute_chaos_task(_cell("alg1", 7, 2))
        assert outcome.status == "clean"
        assert not outcome.injected

    def test_injection_never_reports_clean(self):
        outcome = execute_chaos_task(
            _cell("alg1", 7, 2, chaos=FaultPlan(drop=0.4))
        )
        assert outcome.status in STATUSES and outcome.status != "clean"

    def test_off_regime_cell_is_detected(self):
        outcome = execute_chaos_task(_cell("alg1", 6, 2))
        assert outcome.status == "detected"
        assert "ConfigurationError" in outcome.error

    def test_monitor_detection_carries_violated_tag(self):
        # A heavy drop plan starves okun-crash of its own rank — the typed
        # invariant violation must surface as a tagged detection.
        outcome = execute_chaos_task(
            _cell(
                "okun-crash", 5, 1, attack="crash", chaos=FaultPlan(drop=0.9)
            )
        )
        assert outcome.status == "detected"
        assert outcome.violated


class TestCampaignSerial:
    def test_deterministic_given_seeds(self):
        campaign = ChaosCampaign(workers=1)
        first = campaign.run(SMALL_GRID)
        second = campaign.run(SMALL_GRID)

        def strip(report):
            out = []
            for entry in (o.as_dict() for o in report.outcomes):
                entry["elapsed_s"] = 0.0
                out.append(entry)
            return out

        assert strip(first) == strip(second)

    def test_every_cell_classified_no_silent_success(self):
        report = ChaosCampaign(workers=1).run(SMALL_GRID)
        assert len(report.outcomes) == len(SMALL_GRID)
        assert report.silent_successes() == []
        for outcome in report.outcomes:
            assert outcome.status in STATUSES
            if outcome.injected:
                assert outcome.status != "clean"
        assert report.ok

    def test_outcomes_keep_task_order(self):
        tasks = [_cell("alg1", 7, 2, seed=seed) for seed in (0, 1, 0, 1)]
        report = ChaosCampaign(workers=1, task_runner=_verdict_by_seed).run(tasks)
        assert [o.status for o in report.outcomes] == [
            "clean", "tolerated", "clean", "tolerated"
        ]

    def test_crashing_cell_is_retried_then_quarantined(self):
        tasks = [_cell("alg1", 7, 2)]
        report = ChaosCampaign(workers=1, task_runner=_always_crash).run(tasks)
        outcome = report.outcomes[0]
        assert outcome.status == "crashed"
        assert outcome.error == "RuntimeError: boom"
        assert outcome.retries == 1
        assert report.retried == 1
        assert not report.ok
        assert outcome.as_dict()["reproducer"] == reproducer(tasks[0])

    def test_transient_crash_succeeds_on_retry(self):
        tasks = [_cell("alg1", 7, 2, seed=seed) for seed in (0, 1)]
        report = ChaosCampaign(workers=1, task_runner=_FlakyRunner()).run(tasks)
        assert [o.status for o in report.outcomes] == ["clean", "clean"]
        assert [o.retries for o in report.outcomes] == [1, 1]
        assert report.retried == 2
        assert report.ok


class TestCampaignPool:
    def test_pool_matches_serial_verdicts(self):
        serial = ChaosCampaign(workers=1).run(SMALL_GRID)
        pooled = ChaosCampaign(workers=2).run(SMALL_GRID)
        assert [o.status for o in pooled.outcomes] == [
            o.status for o in serial.outcomes
        ]
        assert [o.injected for o in pooled.outcomes] == [
            o.injected for o in serial.outcomes
        ]
        assert pooled.workers == 2

    def test_pool_quarantines_crashing_workers(self):
        tasks = [_cell("alg1", 7, 2, seed=seed) for seed in (0, 1, 2)]
        report = ChaosCampaign(
            workers=2, task_runner=_always_crash
        ).run(tasks)
        assert [o.status for o in report.outcomes] == ["crashed"] * 3
        assert all("RuntimeError: boom" in o.error for o in report.outcomes)
        assert report.retried == 3
        assert not report.ok

    def test_hung_workers_cost_one_window_not_the_campaign(self):
        tasks = [_cell("alg1", 7, 2, seed=seed) for seed in (0, 1)]
        start = time.perf_counter()
        report = ChaosCampaign(
            workers=2, timeout_s=1.0, task_runner=_hang_forever
        ).run(tasks)
        elapsed = time.perf_counter() - start
        assert [o.status for o in report.outcomes] == ["timeout"] * 2
        assert elapsed < 30  # two sleep(600) cells, contained in one window
        assert not report.ok
        for outcome in report.quarantined:
            assert "python -m repro.cli chaos" in reproducer(outcome.task)


class TestTriageReport:
    def test_render_lists_quarantine_reproducers(self):
        task = _cell("alg1", 7, 2, chaos=FaultPlan(drop=0.2))
        report = TriageReport(
            outcomes=[ChaosOutcome(task=task, status="timeout", error="hung")]
        )
        text = report.render()
        assert "quarantined (reproduce with):" in text
        assert reproducer(task) in text
        assert not report.ok

    def test_silent_success_is_flagged_loudly(self):
        task = _cell("alg1", 7, 2, chaos=FaultPlan(drop=0.2))
        report = TriageReport(
            outcomes=[
                ChaosOutcome(task=task, status="clean", injected={"drop": 3})
            ]
        )
        assert report.silent_successes()
        assert "HARNESS BUG" in report.render()
        assert not report.ok

    def test_to_json_is_serialisable(self):
        report = ChaosCampaign(workers=1).run(SMALL_GRID[:3])
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["counts"]["clean"] >= 1
        assert len(payload["outcomes"]) == 3


class TestReproducerRoundTrip:
    def test_reproducer_reruns_exactly_one_cell(self, capsys, tmp_path):
        task = _cell(
            "alg1", 7, 2, attack="conforming", seed=1, engine="reference",
            chaos=FaultPlan(
                seed=2, drop=0.25, extra_crashes=1, crash_round=2
            ),
        )
        line = reproducer(task)
        assert line == (
            "python -m repro.cli chaos --algorithms alg1 --sizes 7:2 "
            "--attacks conforming --seeds 1 --engines reference "
            "--chaos-seeds 2 --drop 0.25 --crash-extra 1 --crash-round 2 "
            "--combine --max-rounds 64 --workers 1"
        )
        assert describe(task) == (
            "alg1 n=7 t=2 conforming seed=1 reference "
            "[drop=0.25 crash+1@2 seed=2]"
        )
        argv = shlex.split(line)[3:]  # strip "python -m repro.cli"
        json_path = tmp_path / "triage.json"
        argv += ["--no-clean", "--json", str(json_path)]
        code = main(argv)
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        assert len(payload["outcomes"]) == 1
        assert payload["outcomes"][0]["task"] == describe(task)
        assert payload["silent_successes"] == 0
        assert code in (0, 3)  # healthy campaign either way
        assert payload["counts"]["timeout"] == 0
        assert payload["counts"]["crashed"] == 0

    def test_acceptance_scale_campaign(self):
        # The acceptance bar: >= 50 cells over both engines, zero hangs,
        # every injection classified. Serial keeps it deterministic.
        tasks = chaos_grid(
            ["alg1", "alg4"], [(7, 2), (11, 2)],
            seeds=(0,), chaos_seeds=(0, 1),
            engines=("batched", "reference"),
            drop=(0.2,), corrupt=(0.2,), extra_crashes=(1,),
        )
        assert len(tasks) >= 50
        report = ChaosCampaign(workers=1).run(tasks)
        assert report.ok
        assert not report.quarantined
        counts = report.counts()
        assert counts["clean"] + counts["tolerated"] + counts["violation"] + \
            counts["detected"] == len(tasks)
        # Every cell's label and verdict, pinned: the canonical report is a
        # pure function of the seeded grid. The 14 alg4 n=7 cells carry
        # run_experiment's out-of-regime ConfigurationError text.
        digest = hashlib.sha256(report.canonical().encode("utf-8")).hexdigest()
        assert digest == (
            "610acef2eff7603741e9e1c66b91710c883c8cf6a65c8d7a2edecc476670a9b4"
        )
