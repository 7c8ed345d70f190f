"""Tests for id workload generators and canned scenarios."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads import (
    DEFAULT_NAMESPACE,
    get_scenario,
    make_ids,
    scenario_names,
    workload_names,
)


class TestGenerators:
    @pytest.mark.parametrize("kind", ["uniform", "dense", "clustered", "extreme"])
    @given(n=st.integers(min_value=2, max_value=40), seed=st.integers(0, 50))
    def test_unique_positive_in_namespace(self, kind, n, seed):
        ids = make_ids(kind, n, seed=seed)
        assert len(ids) == n
        assert len(set(ids)) == n
        assert all(1 <= identifier <= DEFAULT_NAMESPACE for identifier in ids)

    def test_deterministic(self):
        assert make_ids("uniform", 9, seed=3) == make_ids("uniform", 9, seed=3)

    def test_seed_varies_uniform(self):
        assert make_ids("uniform", 9, seed=3) != make_ids("uniform", 9, seed=4)

    def test_dense_consecutive(self):
        ids = make_ids("dense", 6, seed=0)
        assert ids == list(range(ids[0], ids[0] + 6))

    def test_clustered_has_gap(self):
        ids = sorted(make_ids("clustered", 10, seed=0))
        gaps = [b - a for a, b in zip(ids, ids[1:])]
        assert max(gaps) > 100 * min(gaps)

    def test_extreme_touches_both_ends(self):
        ids = make_ids("extreme", 6, seed=0)
        assert 1 in ids
        assert DEFAULT_NAMESPACE in ids

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            make_ids("bogus", 5)

    def test_names_listing(self):
        assert "uniform" in workload_names()


class TestScenarios:
    def test_all_scenarios_consistent(self):
        for scenario in map(get_scenario, scenario_names()):
            assert scenario.n > scenario.t >= 0
            assert scenario.workload in workload_names()

    def test_lookup(self):
        scenario = get_scenario("saturation")
        assert scenario.attack == "id-forging"

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            get_scenario("bogus")

    def test_names_sorted(self):
        names = scenario_names()
        assert names == sorted(names)

    def test_scenarios_runnable(self):
        from repro.analysis import run_experiment
        from repro.workloads import make_ids

        scenario = get_scenario("silent-minority")
        ids = make_ids(scenario.workload, scenario.n, seed=0)
        record = run_experiment(
            "alg1", scenario.n, scenario.t, ids, attack=scenario.attack
        )
        assert record.report.ok
