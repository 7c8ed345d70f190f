"""Unit tests for the beyond-model fault layer: plans, injector, monitor."""

from __future__ import annotations

import pickle

import pytest

from helpers import standard_ids
from repro.core.messages import IdMessage, RanksMessage
from repro.sim import (
    BROADCAST,
    ChaosInjector,
    ConfigurationError,
    FaultPlan,
    SafetyMonitor,
    SafetyPolicy,
    SafetyViolation,
    run_protocol,
)
from repro.core.renaming import OrderPreservingRenaming


class TestFaultPlan:
    @pytest.mark.parametrize("axis", ["drop", "duplicate", "corrupt"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, 2.0])
    def test_rejects_non_probabilities(self, axis, value):
        with pytest.raises(ConfigurationError):
            FaultPlan(**{axis: value})

    def test_rejects_negative_extra_crashes(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(extra_crashes=-1)

    def test_rejects_crash_round_zero(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(crash_round=0)

    def test_rejects_bad_crash_entries(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(crashes=((-1, 1),))
        with pytest.raises(ConfigurationError):
            FaultPlan(crashes=((0, 0),))

    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty
        assert FaultPlan(seed=99).is_empty  # a seed alone injects nothing
        assert not FaultPlan(drop=0.1).is_empty
        assert not FaultPlan(crashes=((0, 1),)).is_empty
        assert not FaultPlan(extra_crashes=1).is_empty

    def test_describe_names_every_axis(self):
        text = FaultPlan(
            seed=7, drop=0.1, duplicate=0.2, corrupt=0.3,
            crashes=((0, 2),), extra_crashes=1, crash_round=3,
        ).describe()
        for fragment in ("drop=0.1", "dup=0.2", "corrupt=0.3", "crash=0@2",
                         "crash+1@3", "seed=7"):
            assert fragment in text
        assert FaultPlan().describe() == "none"


class TestChaosInjector:
    def test_rejects_crash_of_byzantine_slot(self):
        with pytest.raises(ConfigurationError, match="Byzantine"):
            ChaosInjector(FaultPlan(crashes=((2, 1),)), n=4, byzantine=(2,))

    def test_rejects_crash_out_of_range(self):
        with pytest.raises(ConfigurationError, match="n=4"):
            ChaosInjector(FaultPlan(crashes=((4, 1),)), n=4)

    def test_rejects_more_extra_crashes_than_correct_processes(self):
        with pytest.raises(ConfigurationError, match="extra"):
            ChaosInjector(FaultPlan(extra_crashes=4), n=4, byzantine=(0,))

    def test_perturbation_is_deterministic(self):
        plan = FaultPlan(seed=5, drop=0.4, duplicate=0.4)
        outbox = {BROADCAST: [IdMessage(10), IdMessage(20)]}
        first = ChaosInjector(plan, n=4).perturb(3, {0: outbox}, {})
        second = ChaosInjector(plan, n=4).perturb(3, {0: outbox}, {})
        assert first == second

    def test_drop_everything_spares_the_self_loop(self):
        injector = ChaosInjector(FaultPlan(drop=1.0), n=4)
        correct, _ = injector.perturb(1, {0: {BROADCAST: [IdMessage(10)]}}, {})
        delivered = {
            link: msgs for link, msgs in correct[0].items() if msgs
        }
        # Only the self-loop (label n=4) survives total network loss.
        assert delivered == {4: [IdMessage(10)]}
        assert injector.report.dropped == 3

    def test_duplicate_everything_doubles_network_links(self):
        injector = ChaosInjector(FaultPlan(duplicate=1.0), n=4)
        correct, _ = injector.perturb(1, {0: {BROADCAST: [IdMessage(10)]}}, {})
        for link in (1, 2, 3):
            assert correct[0][link] == [IdMessage(10), IdMessage(10)]
        assert correct[0][4] == [IdMessage(10)]  # self-loop untouched
        assert injector.report.duplicated == 3

    def test_crash_empties_outbox_from_crash_round(self):
        injector = ChaosInjector(FaultPlan(crashes=((0, 2),)), n=4)
        outboxes = {0: {BROADCAST: [IdMessage(10)]}, 1: {BROADCAST: [IdMessage(20)]}}
        before, _ = injector.perturb(1, outboxes, {})
        assert before[0] != {}
        assert injector.report.crash_engaged == ()
        after, _ = injector.perturb(2, outboxes, {})
        assert after[0] == {}
        assert after[1] != {}
        assert injector.report.crash_engaged == ((0, 2),)

    def test_inputs_are_never_mutated(self):
        injector = ChaosInjector(FaultPlan(drop=1.0, crashes=((0, 1),)), n=4)
        outbox = {BROADCAST: [IdMessage(10)]}
        injector.perturb(1, {0: outbox, 1: outbox}, {})
        assert outbox == {BROADCAST: [IdMessage(10)]}

    def test_corruption_goes_through_the_codec(self):
        injector = ChaosInjector(FaultPlan(seed=11, corrupt=1.0), n=4)
        correct, _ = injector.perturb(1, {0: {BROADCAST: [IdMessage(10)]}}, {})
        report = injector.report
        # Every network copy was either re-decoded to something (possibly a
        # different type) or discarded as an unparseable frame.
        assert report.corrupted + report.corrupted_dropped == 3
        survivors = [m for link in (1, 2, 3) for m in correct[0][link]]
        assert len(survivors) == report.corrupted
        assert correct[0][4] == [IdMessage(10)]

    def test_unencodable_byzantine_vote_passes_through(self):
        """A Byzantine NaN rank has no wire encoding: corruption cannot
        apply, so the vote is delivered unchanged (receive-side hygiene
        rejects it) rather than crashing the injector."""
        vote = RanksMessage(entries=((7, float("nan")),))
        injector = ChaosInjector(FaultPlan(corrupt=1.0), n=4, byzantine=(3,))
        _, byzantine = injector.perturb(1, {0: {}}, {3: {1: [vote]}})
        assert byzantine[3][1] == [vote]
        assert injector.report.corrupted == 0
        assert injector.report.corrupted_dropped == 0

    def test_report_labels_and_dict(self):
        injector = ChaosInjector(FaultPlan(drop=1.0, crashes=((1, 1),)), n=4)
        injector.perturb(1, {0: {BROADCAST: [IdMessage(10)]}, 1: {}}, {})
        report = injector.report
        assert report.injected
        assert any(label.startswith("drop") for label in report.labels())
        assert any(label.startswith("crash") for label in report.labels())
        assert report.as_dict()["dropped"] == 3
        assert report.as_dict()["crash_engaged"] == [[1, 1]]


class TestRunnerIntegration:
    def test_empty_plan_installs_no_injector(self):
        result = run_protocol(
            OrderPreservingRenaming, n=4, t=1, ids=standard_ids(4), seed=0,
            chaos=FaultPlan(),
        )
        assert result.chaos is None

    def test_non_empty_plan_reports(self):
        result = run_protocol(
            OrderPreservingRenaming, n=4, t=1, ids=standard_ids(4), seed=0,
            chaos=FaultPlan(seed=3, duplicate=0.5), max_rounds=32,
        )
        assert result.chaos is not None
        assert result.chaos.duplicated > 0


class _StubProcess:
    def __init__(self, done=False, output=None):
        self.done = done
        self.output_value = output


class TestSafetyMonitor:
    def test_round_budget_watchdog(self):
        monitor = SafetyMonitor(SafetyPolicy(round_budget=5), ids={})
        monitor.begin_round(5)  # at budget: fine
        with pytest.raises(SafetyViolation) as excinfo:
            monitor.begin_round(6)
        assert excinfo.value.violated == "round-budget"
        assert excinfo.value.round_no == 6

    def test_validity_checked_as_names_are_emitted(self):
        monitor = SafetyMonitor(SafetyPolicy(namespace=4), ids={0: 10})
        monitor.after_deliver(1, {0: _StubProcess()})  # not done: no check
        with pytest.raises(SafetyViolation) as excinfo:
            monitor.after_deliver(2, {0: _StubProcess(done=True, output=9)})
        assert excinfo.value.violated == "validity"
        assert excinfo.value.ids == (10,)
        assert excinfo.value.round_no == 2

    def test_validity_rejects_bool_and_non_int(self):
        for garbage in (True, "3", 2.5):
            monitor = SafetyMonitor(SafetyPolicy(namespace=4), ids={0: 10})
            with pytest.raises(SafetyViolation):
                monitor.after_deliver(1, {0: _StubProcess(done=True, output=garbage)})

    def test_uniqueness_names_both_offenders(self):
        monitor = SafetyMonitor(SafetyPolicy(), ids={0: 10, 1: 20})
        monitor.after_deliver(1, {0: _StubProcess(done=True, output=3)})
        with pytest.raises(SafetyViolation) as excinfo:
            monitor.after_deliver(2, {1: _StubProcess(done=True, output=3)})
        assert excinfo.value.violated == "uniqueness"
        assert set(excinfo.value.ids) == {10, 20}

    def test_each_process_checked_once(self):
        monitor = SafetyMonitor(SafetyPolicy(), ids={0: 10})
        process = _StubProcess(done=True, output=3)
        monitor.after_deliver(1, {0: process})
        monitor.after_deliver(2, {0: process})  # re-seen, not re-claimed

    def test_unhashable_output_is_not_a_name(self):
        monitor = SafetyMonitor(SafetyPolicy(), ids={0: 10, 1: 20})
        monitor.after_deliver(1, {0: _StubProcess(done=True, output=[1, 2])})
        monitor.after_deliver(2, {1: _StubProcess(done=True, output=[1, 2])})

    def test_violation_pickles_with_payload(self):
        try:
            raise SafetyViolation(
                "boom", violated="validity", round_no=3, ids=(10,),
                trace_pointer=7,
            )
        except SafetyViolation as exc:
            clone = pickle.loads(pickle.dumps(exc))
        assert str(clone) == "boom"
        assert clone.violated == "validity"
        assert clone.round_no == 3
        assert clone.ids == (10,)
        assert clone.trace_pointer == 7
