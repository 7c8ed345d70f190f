"""Scenario-driven integration: every canned scenario runs end-to-end
through every algorithm whose regime, attack and model support cover it.

Classic-model scenarios must come out clean (``ok_without_order`` plus
order preservation where promised). Scenarios under a non-classic model are
judged against the model's registered expectations instead: a typed
``SimulationError`` is an acceptable in-run detection, and a finished run
may only break properties the model lists as degradable — a guaranteed
property breaking inside the model's bound is a real failure.
"""

from __future__ import annotations

import pytest

from repro.analysis import ALGORITHMS, run_experiment
from repro.sim import SimulationError, parse_model
from repro.workloads import get_scenario, make_ids, scenario_names

SCENARIOS = [get_scenario(name) for name in scenario_names()]


def compatible_algorithms(scenario):
    model = parse_model(scenario.model)
    names = []
    for name, spec in sorted(ALGORITHMS.items()):
        if (
            spec.supports(scenario.n, scenario.t)
            and scenario.attack in spec.attacks
            and model.kind in spec.models
        ):
            names.append(name)
    return names


@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=[scenario.name for scenario in SCENARIOS]
)
def test_scenario_runs_on_all_compatible_algorithms(scenario):
    algorithms = compatible_algorithms(scenario)
    assert algorithms, f"scenario {scenario.name} matches no algorithm"
    model = parse_model(scenario.model)
    expectations = model.expectations()
    ids = make_ids(scenario.workload, scenario.n, seed=0)
    for algorithm in algorithms:
        spec = ALGORITHMS[algorithm]
        try:
            record = run_experiment(
                algorithm,
                scenario.n,
                scenario.t,
                ids,
                attack=scenario.attack,
                model=model,
            )
        except SimulationError:
            # A typed in-run detection (e.g. a protocol invariant check
            # tripping on withheld frames) is an acceptable outcome under a
            # degradable model — but never under classic.
            assert not model.is_classic, (scenario.name, algorithm)
            continue
        report = record.report
        if model.is_inert:
            assert report.ok_without_order(), (
                scenario.name,
                algorithm,
                report.violations,
            )
            if spec.order_preserving:
                assert report.order_preservation, (scenario.name, algorithm)
        else:
            verdicts = expectations.classify(report.broken)
            unexpected = {
                prop
                for prop, verdict in verdicts.items()
                if verdict == "unexpected"
                and (prop != "order_preservation" or spec.order_preserving)
            }
            assert not unexpected, (
                scenario.name,
                algorithm,
                unexpected,
                report.violations,
            )


def test_alg1_covers_every_scenario():
    """Alg. 1 (the paper's main algorithm) must be runnable on each scenario
    except those built for the fast algorithm's attack surface."""
    for scenario in SCENARIOS:
        algorithms = compatible_algorithms(scenario)
        if scenario.attack.startswith("selective-echo"):
            assert "alg4" in algorithms
        else:
            assert "alg1" in algorithms, scenario.name


def test_model_scenarios_exist_for_every_non_classic_kind():
    """Each registered non-classic model kind ships at least one scenario."""
    kinds = {parse_model(s.model).kind for s in SCENARIOS}
    assert {"impersonation", "partial-synchrony"} <= kinds
