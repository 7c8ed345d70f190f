"""Integration tests for Algorithm 1 (Theorem IV.10 and its lemmas)."""

from __future__ import annotations

from fractions import Fraction
from functools import partial

import pytest

from helpers import assert_renaming_ok, standard_ids
from repro import OrderPreservingRenaming, RenamingOptions, SystemParams, run_protocol
from repro.adversary import ALG1_ATTACKS, make_adversary
from repro.core.fast import TWO_STEP_ROUNDS, TwoStepPhase
from repro.core.id_selection import ID_SELECTION_STEPS, IdSelectionResult
from repro.core.renaming import VotingPhase
from repro.sim.compose import PhaseContext
from repro.sim.errors import SafetyViolation
from repro.sim.model import parse_model
from repro.sim.process import ProcessContext

SIZES = [(4, 1), (7, 2), (10, 3), (13, 4)]


class TestTheoremIV10:
    """Validity + termination + uniqueness + order under every attack."""

    @pytest.mark.parametrize("attack", ALG1_ATTACKS)
    @pytest.mark.parametrize("n,t", SIZES)
    def test_properties_hold_under_attack(self, n, t, attack):
        params = SystemParams(n, t)
        for seed in (0, 1):
            result = run_protocol(
                OrderPreservingRenaming,
                n=n,
                t=t,
                ids=standard_ids(n),
                adversary=make_adversary(attack),
                seed=seed,
            )
            assert_renaming_ok(
                result,
                params.namespace_bound,
                context=f"alg1 n={n} t={t} attack={attack} seed={seed}",
            )

    def test_fault_free(self):
        result = run_protocol(
            OrderPreservingRenaming, n=6, t=0, ids=standard_ids(6), seed=0
        )
        assert_renaming_ok(result, 6)
        # With no faults and identical views, names are exactly the ranks.
        assert sorted(result.new_names().values()) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("n,t", SIZES)
    def test_round_complexity_exact(self, n, t):
        params = SystemParams(n, t)
        result = run_protocol(
            OrderPreservingRenaming,
            n=n,
            t=t,
            ids=standard_ids(n),
            adversary=make_adversary("silent"),
            seed=0,
        )
        assert result.metrics.round_count == params.total_rounds

    def test_resilience_enforced(self):
        with pytest.raises(ValueError):
            run_protocol(
                OrderPreservingRenaming, n=6, t=2, ids=standard_ids(6), seed=0
            )

    def test_resilience_check_can_be_disabled(self):
        options = RenamingOptions(enforce_resilience=False)
        result = run_protocol(
            partial(OrderPreservingRenaming, options=options),
            n=6,
            t=1,  # run t=1 actual faults but an over-tight promise is not made
            ids=standard_ids(6),
            adversary=make_adversary("silent"),
            seed=0,
        )
        assert len(result.new_names()) == 5


class TestIdSelectionLemmas:
    """White-box checks of Lemmas IV.1–IV.3 via the trace."""

    def run_traced(self, attack, n=7, t=2, seed=0):
        return run_protocol(
            OrderPreservingRenaming,
            n=n,
            t=t,
            ids=standard_ids(n),
            adversary=make_adversary(attack),
            seed=seed,
            collect_trace=True,
        )

    def collect(self, result, event):
        return {
            e.process: e.detail
            for e in result.trace.select(event=event)
            if e.process in result.correct
        }

    @pytest.mark.parametrize("attack", ALG1_ATTACKS)
    def test_lemma_iv1_timely_subset_of_all_accepted(self, attack):
        result = self.run_traced(attack)
        timely = self.collect(result, "timely")
        accepted = self.collect(result, "accepted")
        for p, timely_p in timely.items():
            for q, accepted_q in accepted.items():
                assert set(timely_p) <= set(accepted_q), (
                    f"attack={attack}: timely of {p} not within accepted of {q}"
                )

    @pytest.mark.parametrize("attack", ALG1_ATTACKS)
    def test_lemma_iv2_correct_ids_timely_everywhere(self, attack):
        result = self.run_traced(attack)
        correct_ids = {result.ids[i] for i in result.correct}
        for process, timely in self.collect(result, "timely").items():
            assert correct_ids <= set(timely), (
                f"attack={attack}: correct ids missing from timely of {process}"
            )

    @pytest.mark.parametrize("attack", ALG1_ATTACKS)
    @pytest.mark.parametrize("n,t", SIZES)
    def test_lemma_iv3_accepted_bound(self, n, t, attack):
        result = self.run_traced(attack, n=n, t=t)
        bound = SystemParams(n, t).accepted_bound
        for process, accepted in self.collect(result, "accepted").items():
            assert len(accepted) <= bound, (
                f"attack={attack} n={n} t={t}: |accepted|={len(accepted)} > {bound}"
            )

    def test_forging_attack_saturates_lemma_iv3(self):
        result = self.run_traced("id-forging")
        bound = SystemParams(7, 2).accepted_bound
        for accepted in self.collect(result, "accepted").values():
            assert len(accepted) == bound

    def test_lemma_iv7_initial_spread_bound(self):
        for attack in ("id-forging", "divergence", "split-world"):
            result = self.run_traced(attack)
            params = SystemParams(7, 2)
            initial = {
                e.process: e.detail
                for e in result.trace.select(event="ranks", round_no=4)
                if e.process in result.correct
            }
            timely = self.collect(result, "timely")
            union_timely = set().union(*timely.values())
            for identifier in union_timely:
                values = [r[identifier] for r in initial.values() if identifier in r]
                if len(values) > 1:
                    assert max(values) - min(values) <= params.initial_spread_bound


class TestVotingPhase:
    def test_lemma_iv8_spread_contracts_each_round(self):
        result = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=make_adversary("divergence"),
            seed=0,
            collect_trace=True,
        )
        params = SystemParams(7, 2)
        correct_ids = {result.ids[i] for i in result.correct}
        spreads = []
        for round_no in range(4, params.total_rounds + 1):
            snapshots = [
                e.detail
                for e in result.trace.select(event="ranks", round_no=round_no)
                if e.process in result.correct
            ]
            if not snapshots:
                continue
            spread = max(
                max(s[i] for s in snapshots) - min(s[i] for s in snapshots)
                for i in correct_ids
            )
            spreads.append(spread)
        # Monotone non-increasing overall, and final below the inversion bar.
        assert spreads[-1] <= spreads[0]
        assert spreads[-1] < params.delta

    def test_exact_arithmetic_is_default(self):
        result = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=make_adversary("rank-skew"),
            seed=0,
            collect_trace=True,
        )
        final = [
            e
            for e in result.trace.select(event="ranks")
            if e.process in result.correct
        ][-1]
        assert all(isinstance(v, (int, Fraction)) for v in final.detail.values())

    def test_zero_voting_rounds_rejected(self):
        with pytest.raises(ValueError):
            options = RenamingOptions(voting_rounds=0)
            OrderPreservingRenaming.__call__  # appease linters
            run_protocol(
                partial(OrderPreservingRenaming, options=options),
                n=7,
                t=2,
                ids=standard_ids(7),
                seed=0,
            )


class TestDeterminism:
    def test_same_seed_same_names(self):
        runs = [
            run_protocol(
                OrderPreservingRenaming,
                n=7,
                t=2,
                ids=standard_ids(7),
                adversary=make_adversary("noise"),
                seed=42,
            )
            for _ in range(2)
        ]
        assert runs[0].new_names() == runs[1].new_names()

    def test_different_workloads_same_guarantees(self):
        from repro.workloads import make_ids, workload_names

        for workload in workload_names():
            ids = make_ids(workload, 7, seed=1)
            result = run_protocol(
                OrderPreservingRenaming,
                n=7,
                t=2,
                ids=ids,
                adversary=make_adversary("id-forging"),
                seed=1,
            )
            assert_renaming_ok(result, 8, context=f"workload={workload}")


class TestInvariantRound:
    """A protocol invariant's SafetyViolation names the global round in
    which it fired, so a detected cell can be traced to its round."""

    def test_voting_phase_construction_carries_its_entry_round(self):
        with pytest.raises(SafetyViolation) as caught:
            run_protocol(
                OrderPreservingRenaming, n=7, t=2, ids=standard_ids(7), seed=0,
                model=parse_model("partial-synchrony:rate=0.3,delay=2"),
            )
        assert caught.value.violated == "invariant"
        assert caught.value.round_no == ID_SELECTION_STEPS

    def test_decide_carries_the_final_voting_round(self):
        ids = (10, 20, 30, 40)
        selection = IdSelectionResult(frozenset(ids), frozenset(ids), ids)
        phase = VotingPhase(
            PhaseContext(ProcessContext(4, 1, 20), 4), selection,
            delta=Fraction(1), voting_rounds=3,
        )
        del phase.ranks[20]
        with pytest.raises(SafetyViolation) as caught:
            phase._decide()
        assert (caught.value.violated, caught.value.round_no) == ("invariant", 7)

    def test_two_step_choice_carries_its_round(self):
        phase = TwoStepPhase(PhaseContext(ProcessContext(4, 1, 20), 3))
        with pytest.raises(SafetyViolation) as caught:
            phase._choose_names()
        assert caught.value.violated == "invariant"
        assert caught.value.round_no == 3 + TWO_STEP_ROUNDS
