"""Tests for the parallel sweep executor: determinism, caching, pickling."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis import (
    ExperimentSummary,
    ResultCache,
    RunTask,
    SweepConfig,
    SweepExecutor,
    parallel_map,
    run_sweep,
)
from repro.analysis.executor import execute_task, failure, resolve_workers
from repro.analysis.export import export_csv
from repro.sim import FaultPlan, SystemModel

# 3 algorithms x 2 sizes x 2 attacks x 2 seeds = 24 configurations; the
# crash baselines and alg1 all accept "silent" and "crash" and support
# these sizes, so nothing is filtered out of the grid.
GRID = SweepConfig(
    algorithms=["alg1", "okun-crash", "floodset"],
    sizes=[(4, 1), (5, 1)],
    attacks=["silent", "crash"],
    seeds=(0, 1),
)


def csv_bytes(records, tmp_path, name):
    path = export_csv(records, tmp_path / name)
    return path.read_bytes()


class TestResolveWorkers:
    def test_explicit_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4

    def test_default_is_positive(self):
        assert resolve_workers(None) >= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)


class TestDeterminism:
    def test_parallel_matches_serial_byte_identical(self, tmp_path):
        """The acceptance bar: workers=4 produces the same records in the
        same order as workers=1, down to identical CSV bytes."""
        serial = run_sweep(GRID, workers=1)
        parallel = run_sweep(GRID, workers=4)
        assert len(serial) == len(parallel) == 24
        assert csv_bytes(serial, tmp_path, "serial.csv") == csv_bytes(
            parallel, tmp_path, "parallel.csv"
        )

    def test_order_follows_configuration_index(self):
        records = run_sweep(GRID, workers=2)
        expected = list(GRID.configurations())
        observed = [
            (r.algorithm, r.n, r.t, r.attack, r.seed) for r in records
        ]
        assert observed == expected

    def test_parallel_map_preserves_order(self):
        assert parallel_map(divmod, [(9, 4), (7, 2), (5, 3)], workers=2) == [
            (2, 1),
            (3, 1),
            (1, 2),
        ]


class TestResultCache:
    def test_warm_cache_executes_nothing(self, tmp_path):
        """Second run of the same grid restores every row from disk."""
        executed = []
        executor = SweepExecutor(
            workers=2, cache=tmp_path / "cache", run_hook=executed.append
        )
        first = executor.run(GRID)
        assert len(executed) == 24
        assert executor.stats.executed == 24
        assert executor.stats.from_cache == 0

        warm = SweepExecutor(
            workers=2, cache=tmp_path / "cache", run_hook=executed.append
        )
        second = warm.run(GRID)
        assert len(executed) == 24  # no new runs
        assert warm.stats.executed == 0
        assert warm.stats.from_cache == 24
        assert all(r.cached for r in second)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_changed_seed_misses_only_new_configs(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepExecutor(workers=1, cache=cache).run(GRID)

        wider = SweepConfig(
            algorithms=GRID.algorithms,
            sizes=GRID.sizes,
            attacks=GRID.attacks,
            seeds=(0, 1, 2),
        )
        executor = SweepExecutor(workers=1, cache=cache)
        records = executor.run(wider)
        assert len(records) == 36
        assert executor.stats.from_cache == 24
        assert executor.stats.executed == 12
        assert all(r.seed == 2 for r in records if not r.cached)

    def test_changed_model_misses_the_whole_grid(self, tmp_path):
        """The model axis is part of the key: a grid re-run under a
        different model shares nothing with the classic cache."""
        cache = ResultCache(tmp_path / "cache")
        grid = SweepConfig(
            algorithms=["floodset"], sizes=[(5, 1)], seeds=(0, 1),
        )
        SweepExecutor(workers=1, cache=cache).run(grid)

        lossy = SweepConfig(
            algorithms=["floodset"], sizes=[(5, 1)], seeds=(0, 1),
            model=SystemModel.partial_synchrony(0.1),
        )
        executor = SweepExecutor(workers=1, cache=cache)
        executor.run(lossy)
        assert executor.stats.from_cache == 0
        assert executor.stats.executed == 2

        warm = SweepExecutor(workers=1, cache=cache)
        warm.run(lossy)
        assert warm.stats.from_cache == 2
        assert warm.stats.executed == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = RunTask(algorithm="alg1", n=4, t=1, attack="silent", seed=0)
        cache.store(task, execute_task(task))
        assert cache.load(task) is not None
        cache.entry_path(cache.key(task)).write_text("not json{")
        assert cache.load(task) is None

    def test_key_covers_every_knob(self):
        cache = ResultCache.__new__(ResultCache)  # key() needs no root
        base = RunTask(algorithm="alg1", n=4, t=1, attack="silent", seed=0)
        variants = [
            RunTask(algorithm="okun-crash", n=4, t=1, attack="silent", seed=0),
            RunTask(algorithm="alg1", n=5, t=1, attack="silent", seed=0),
            RunTask(algorithm="alg1", n=4, t=1, attack="crash", seed=0),
            RunTask(algorithm="alg1", n=4, t=1, attack="silent", seed=1),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                workload="clustered",
            ),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                collect_trace=True,
            ),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                max_rounds=99,
            ),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                engine="reference",
            ),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                monitor=True,
            ),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                chaos=FaultPlan(seed=1, drop=0.1),
            ),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                chaos=FaultPlan(seed=2, drop=0.1),
            ),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                chaos=FaultPlan(seed=1, drop=0.1, extra_crashes=1),
            ),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                model=SystemModel.impersonation(2),
            ),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                model=SystemModel.impersonation(3),
            ),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                model=SystemModel.impersonation(2, seed=1),
            ),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                model=SystemModel.partial_synchrony(0.1),
            ),
            RunTask(
                algorithm="alg1", n=4, t=1, attack="silent", seed=0,
                model=SystemModel.partial_synchrony(0.1, max_delay=2),
            ),
        ]
        keys = {cache.key(task) for task in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_key_derives_from_task_payload(self):
        """The key is built from ``to_dict`` itself, so a future RunTask
        field participates by construction — no second field list to
        forget to update."""
        cache = ResultCache.__new__(ResultCache)
        task = RunTask(algorithm="alg1", n=4, t=1, attack="silent", seed=0)
        expected = hashlib.sha256(
            json.dumps(
                {"schema": ResultCache.SCHEMA, **task.to_dict()},
                sort_keys=True,
            ).encode("utf-8")
        ).hexdigest()
        assert cache.key(task) == expected

    def test_schema_participates_in_key(self, monkeypatch):
        cache = ResultCache.__new__(ResultCache)
        task = RunTask(algorithm="alg1", n=4, t=1, attack="silent", seed=0)
        before = cache.key(task)
        monkeypatch.setattr(ResultCache, "SCHEMA", ResultCache.SCHEMA + 1)
        assert cache.key(task) != before

    def test_task_round_trips_with_chaos_and_monitor(self):
        task = RunTask(
            algorithm="alg1", n=7, t=2, attack="silent", seed=3,
            monitor=True,
            chaos=FaultPlan(seed=5, drop=0.2, crashes=((1, 2), (3, 4))),
        )
        assert RunTask.from_dict(task.to_dict()) == task

    def test_task_round_trips_with_model(self):
        task = RunTask(
            algorithm="floodset", n=5, t=1, attack="silent", seed=3,
            model=SystemModel.partial_synchrony(0.1, max_delay=2, seed=4),
        )
        assert RunTask.from_dict(task.to_dict()) == task

    def test_default_task_payload_is_backward_compatible(self):
        """Grids that never touch monitor/chaos/model keep their historical
        journal fingerprints: the new keys only appear when non-default."""
        payload = RunTask(
            algorithm="alg1", n=4, t=1, attack="silent", seed=0
        ).to_dict()
        assert "monitor" not in payload
        assert "chaos" not in payload
        assert "model" not in payload

    def test_explicit_classic_model_keys_like_no_model(self):
        """model=classic is the absence of a model; spelling it out must
        not split the cache."""
        cache = ResultCache.__new__(ResultCache)
        bare = RunTask(algorithm="alg1", n=4, t=1, attack="silent", seed=0)
        classic = RunTask(
            algorithm="alg1", n=4, t=1, attack="silent", seed=0,
            model=SystemModel.classic(),
        )
        assert "model" not in classic.to_dict()
        assert cache.key(classic) == cache.key(bare)


class _Grid:
    """Duck-typed sweep config: hand-picked cells, no registry filtering.

    Lets a test place an off-regime configuration in the grid — something
    ``SweepConfig`` would screen out — so worker failures are real
    exceptions crossing a real process boundary, not monkeypatched ones.
    """

    workload = "uniform"
    collect_trace = False
    max_rounds = 1000  # RunTask's default, so cache keys line up
    engine = "batched"

    def __init__(self, cells):
        self.cells = list(cells)

    def configurations(self):
        return list(self.cells)


GOOD = ("alg1", 4, 1, "silent", 0)
BAD = ("alg1", 6, 2, "silent", 0)  # n = 3t: rejected by the regime gate


class TestFailureContainment:
    def test_failed_cell_is_recorded_not_fatal(self, tmp_path):
        executor = SweepExecutor(workers=1, cache=tmp_path / "cache")
        rows = executor.run(_Grid([GOOD, BAD, ("alg1", 5, 1, "silent", 1)]))
        assert len(rows) == 3
        assert [row.failed for row in rows] == [False, True, False]
        assert "ConfigurationError" in rows[1].error
        assert rows[1].report.violations[0].startswith("failed: ")
        assert not rows[1].report.ok
        assert executor.stats.retried == 1
        assert executor.stats.failed == 1

    def test_pool_failures_are_retried_in_the_pool_then_recorded(
        self, tmp_path
    ):
        # Each pool worker runs its cell's whole retry; the parent only
        # collects verdicts.
        executor = SweepExecutor(workers=2, cache=tmp_path / "cache")
        rows = executor.run(_Grid([GOOD, BAD, ("alg1", 5, 1, "silent", 1)]))
        assert [row.failed for row in rows] == [False, True, False]
        assert executor.stats.retried == 1
        assert executor.stats.failed == 1

    def test_failed_rows_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepExecutor(workers=1, cache=cache).run(_Grid([GOOD, BAD]))
        rerun = SweepExecutor(workers=1, cache=cache)
        rerun.run(_Grid([GOOD, BAD]))
        assert rerun.stats.from_cache == 1  # only the healthy cell
        assert rerun.stats.executed == 1  # the failure re-attempts

    def test_transient_failure_recovers_on_retry(self, monkeypatch):
        import repro.analysis.executor as executor_module

        real = execute_task
        calls = []

        def flaky(task):
            calls.append(task)
            if len(calls) == 1:
                raise OSError("transient worker loss")
            return real(task)

        monkeypatch.setattr(executor_module, "execute_task", flaky)
        executor = SweepExecutor(workers=1)
        rows = executor.run(_Grid([GOOD]))
        assert not rows[0].failed
        assert executor.stats.retried == 1
        assert executor.stats.failed == 0
        assert len(calls) == 2

    def test_for_failure_roundtrips_through_json(self):
        task = RunTask(algorithm="alg1", n=6, t=2, attack="silent", seed=0)
        summary = failure(task, None, "ValueError: bad cell")
        clone = ExperimentSummary.from_dict(summary.to_dict())
        assert clone.failed
        assert clone.error == "ValueError: bad cell"
        assert clone.to_dict() == summary.to_dict()

    def test_verdict_fields_serialise_only_when_set(self):
        task = RunTask(algorithm="alg1", n=6, t=2, attack="silent", seed=0)
        sweep_row = failure(task, None, "ValueError: bad cell", attempts=2)
        assert sweep_row.retries == 1
        assert not {"status", "violated", "retries"} & set(sweep_row.to_dict())
        verdict = failure(task, "crashed", "ValueError: bad cell", attempts=2)
        verdict.violated = ("validity",)
        payload = verdict.to_dict()
        assert (payload["status"], payload["violated"], payload["retries"]) == (
            "crashed", ["validity"], 1
        )
        assert ExperimentSummary.from_dict(payload) == verdict
        assert verdict.quarantined and not sweep_row.quarantined


class TestCacheCorruption:
    def _seed_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = RunTask(algorithm="alg1", n=4, t=1, attack="silent", seed=0)
        cache.store(task, execute_task(task))
        assert cache.load(task) is not None
        return cache, task

    def test_bit_flip_is_a_logged_miss(self, tmp_path, caplog):
        cache, task = self._seed_entry(tmp_path)
        path = cache.entry_path(cache.key(task))
        raw = bytearray(path.read_bytes())
        target = raw.rindex(b":")  # flip inside the payload, not the key
        raw[target + 2] ^= 0x01
        path.write_bytes(bytes(raw))
        import logging

        with caplog.at_level(logging.WARNING, "repro.analysis.executor"):
            assert cache.load(task) is None
        assert any("discarding unusable cache entry" in m for m in caplog.messages)

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache, task = self._seed_entry(tmp_path)
        path = cache.entry_path(cache.key(task))
        path.write_bytes(path.read_bytes()[:40])
        assert cache.load(task) is None

    def test_stale_schema_is_a_logged_miss(self, tmp_path, caplog):
        import json
        import logging

        cache, task = self._seed_entry(tmp_path)
        path = cache.entry_path(cache.key(task))
        envelope = json.loads(path.read_text())
        envelope["schema"] = ResultCache.SCHEMA - 1
        path.write_text(json.dumps(envelope))
        with caplog.at_level(logging.WARNING, logger="repro.analysis.executor"):
            assert cache.load(task) is None
        assert any("stale schema" in message for message in caplog.messages)

    def test_checksum_mismatch_is_a_miss(self, tmp_path):
        import json

        cache, task = self._seed_entry(tmp_path)
        path = cache.entry_path(cache.key(task))
        envelope = json.loads(path.read_text())
        envelope["checksum"] = "0" * 64
        path.write_text(json.dumps(envelope))
        assert cache.load(task) is None

    def test_corrupt_entry_recovers_by_recomputing(self, tmp_path):
        cache, task = self._seed_entry(tmp_path)
        cache.entry_path(cache.key(task)).write_text("garbage")
        grid = _Grid([(task.algorithm, task.n, task.t, task.attack, task.seed)])
        executor = SweepExecutor(workers=1, cache=cache)
        rows = executor.run(grid)
        assert executor.stats.executed == 1
        assert not rows[0].failed
        assert cache.load(task) is not None  # re-stored after recompute


class TestCacheDurability:
    """`store` must be atomic and durable: fsync the temp file, then
    `os.replace`. A process killed at *any* point during a put leaves
    either no entry (a plain miss) or the complete entry — never a torn
    file at the entry path."""

    def _task(self):
        return RunTask(algorithm="alg1", n=4, t=1, attack="silent", seed=0)

    def test_store_fsyncs_before_replace(self, tmp_path, monkeypatch):
        import os

        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            os, "replace",
            lambda a, b: (calls.append("replace"), real_replace(a, b))[1],
        )
        cache = ResultCache(tmp_path / "cache")
        task = self._task()
        cache.store(task, execute_task(task))
        assert "fsync" in calls and "replace" in calls
        assert calls.index("fsync") < calls.index("replace")

    def test_kill_before_replace_is_a_plain_miss(self, tmp_path, monkeypatch):
        # Simulate SIGKILL between the temp-file write and os.replace: the
        # entry path never appears, the next load is a miss, nothing raises.
        import os

        cache = ResultCache(tmp_path / "cache")
        task = self._task()
        summary = execute_task(task)
        monkeypatch.setattr(
            os, "replace", lambda a, b: (_ for _ in ()).throw(KeyboardInterrupt)
        )
        with pytest.raises(KeyboardInterrupt):
            cache.store(task, summary)
        monkeypatch.undo()
        assert not cache.entry_path(cache.key(task)).exists()
        assert cache.load(task) is None  # miss, not a crash
        leftovers = list((tmp_path / "cache").glob("*.tmp"))
        assert leftovers and leftovers[0].read_text()  # torn temp remains

    def test_leftover_torn_temp_never_breaks_the_next_put(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = self._task()
        path = cache.entry_path(cache.key(task))
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text('{"torn": tru')  # a killed writer's debris
        cache.store(task, execute_task(task))
        assert cache.load(task) is not None
        assert not tmp.exists()  # consumed by the successful replace


class TestExperimentSummary:
    def test_roundtrips_through_json_dict(self):
        task = RunTask(
            algorithm="alg1", n=4, t=1, attack="silent", seed=0,
            collect_trace=True,
        )
        summary = execute_task(task)
        clone = ExperimentSummary.from_dict(summary.to_dict())
        assert clone.to_dict() == summary.to_dict()
        assert clone.report.names == summary.report.names
        assert clone.max_name == summary.max_name
        assert clone.effective_rounds == summary.effective_rounds

    def test_effective_rounds_prefers_settled_round(self):
        untraced = execute_task(
            RunTask(algorithm="floodset", n=5, t=1, attack="crash", seed=0)
        )
        assert untraced.settled_round is None
        assert untraced.effective_rounds == untraced.rounds

        # cht idles to a fixed horizon and logs when each process settles.
        traced = execute_task(
            RunTask(
                algorithm="cht", n=5, t=1, attack="crash", seed=0,
                collect_trace=True,
            )
        )
        assert traced.settled_round is not None
        assert traced.effective_rounds == traced.settled_round
        assert traced.effective_rounds <= traced.rounds

    def test_records_run_wall_clock(self):
        summary = execute_task(
            RunTask(algorithm="alg1", n=4, t=1, attack="silent", seed=0)
        )
        assert summary.elapsed_s > 0
        assert not summary.cached
