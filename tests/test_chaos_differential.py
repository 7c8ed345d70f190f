"""Cross-engine differential contract under fault injection.

The chaos hook sits at the same point in every engine (after the adversary
fills Byzantine outboxes, before routing), so a seeded :class:`FaultPlan`
must produce bit-for-bit identical behaviour on every registered engine —
reference and batched — and on the no-sharing spec
(``helpers.PRIVATE_COPY_ENGINE``), including identical *failures* when an
injection trips a typed error. An empty plan must be indistinguishable
from no plan at all.
"""

from __future__ import annotations

import pytest

from helpers import (
    SPEC_ENGINES,
    assert_runs_identical,
    run_registered,
    standard_ids,
)
from repro.adversary import make_adversary
from repro.analysis import ALGORITHMS
from repro.sim import ENGINES, FaultPlan, SimulationError, run_protocol
from repro.wire import WireError


pytestmark = pytest.mark.usefixtures("no_sharing_engine")


def _chaos_run(algorithm, n, t, *, attack, seed, engine, plan, max_rounds=64):
    """Run one registered algorithm under a plan; errors become data."""
    spec = ALGORITHMS[algorithm]
    ids = standard_ids(n)
    try:
        result = run_protocol(
            spec.build_factory(n, t, ids, seed),
            n=n,
            t=t,
            ids=ids,
            adversary=make_adversary(attack) if t > 0 else None,
            seed=seed,
            engine=engine,
            chaos=plan,
            max_rounds=max_rounds,
            collect_trace=True,
        )
    except (SimulationError, WireError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", result)


def _assert_engines_agree(algorithm, n, t, *, attack, seed, plan):
    outcomes = {
        engine: _chaos_run(
            algorithm, n, t, attack=attack, seed=seed, engine=engine, plan=plan
        )
        for engine in ENGINES
    }
    ref = outcomes.pop("reference")
    ref_chaos = (
        ref[1].chaos.as_dict() if ref[0] == "ok" and ref[1].chaos else None
    )
    for other_engine, other in sorted(outcomes.items()):
        context = (
            f"{algorithm} n={n} t={t} attack={attack} seed={seed} "
            f"plan=[{plan.describe()}] engines=reference/{other_engine}"
        )
        assert ref[0] == other[0], f"{context}: {ref[0]} vs {other[0]}"
        if ref[0] == "error":
            assert ref[1:] == other[1:], context
            continue
        assert_runs_identical(ref[1], other[1], context)
        other_chaos = other[1].chaos.as_dict() if other[1].chaos else None
        assert ref_chaos == other_chaos, context


PLANS = [
    FaultPlan(seed=1, drop=0.3),
    FaultPlan(seed=2, duplicate=0.5),
    FaultPlan(seed=3, corrupt=0.3),
    FaultPlan(seed=4, extra_crashes=1, crash_round=2),
    FaultPlan(seed=5, drop=0.2, duplicate=0.2, corrupt=0.2, extra_crashes=1),
]


class TestEmptyPlanIdentity:
    """FaultPlan() must be bit-for-bit the same as chaos=None."""

    @pytest.mark.parametrize("engine", SPEC_ENGINES)
    @pytest.mark.parametrize("algorithm,n,t", [("alg1", 7, 2), ("alg4", 11, 2)])
    def test_empty_plan_is_a_no_op(self, algorithm, n, t, engine):
        baseline = run_registered(
            algorithm, n, t, attack="silent", seed=0, engine=engine
        )
        status, with_plan = _chaos_run(
            algorithm, n, t, attack="silent", seed=0, engine=engine,
            plan=FaultPlan(), max_rounds=1000,
        )
        assert status == "ok"
        assert with_plan.chaos is None
        assert_runs_identical(baseline, with_plan, f"{algorithm} on {engine}")


class TestFaultedDifferential:
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.describe())
    def test_alg1_engines_agree_under_faults(self, plan):
        _assert_engines_agree("alg1", 7, 2, attack="silent", seed=0, plan=plan)

    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.describe())
    def test_okun_crash_engines_agree_under_faults(self, plan):
        _assert_engines_agree(
            "okun-crash", 5, 1, attack="crash", seed=1, plan=plan
        )

    def test_alg4_engines_agree_under_corruption(self):
        _assert_engines_agree(
            "alg4", 11, 2, attack="silent", seed=0,
            plan=FaultPlan(seed=9, corrupt=0.4),
        )

    def test_explicit_crash_engines_agree(self):
        # Slot picked per seed so it lands on a correct process; if the
        # adversary corrupts that slot the injector rejects the plan — and
        # that rejection, too, must be identical across engines.
        for slot in range(5):
            _assert_engines_agree(
                "alg1", 7, 2, attack="conforming", seed=2,
                plan=FaultPlan(crashes=((slot, 2),)),
            )


@pytest.mark.slow
class TestFaultedDifferentialGrid:
    """Wider sweep: every Byzantine attack x plan x a few seeds."""

    @pytest.mark.parametrize("attack", ALGORITHMS["alg1"].attacks)
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.describe())
    @pytest.mark.parametrize("seed", range(3))
    def test_alg1_grid(self, attack, plan, seed):
        _assert_engines_agree("alg1", 7, 2, attack=attack, seed=seed, plan=plan)

    @pytest.mark.parametrize("attack", ALGORITHMS["alg4"].attacks)
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p.describe())
    @pytest.mark.parametrize("seed", range(3))
    def test_alg4_grid(self, attack, plan, seed):
        _assert_engines_agree("alg4", 11, 2, attack=attack, seed=seed, plan=plan)
