"""Cross-engine differential contract for the system-model axis.

Model injectors sit at the same hook point in every engine as chaos (after
``adversary.send``, before routing), so a seeded :class:`SystemModel` must
produce bit-for-bit identical behaviour on every registered engine —
reference and batched — and on the no-sharing spec
(``helpers.PRIVATE_COPY_ENGINE``). Identical means
identical *everything*: outputs, traces, metrics, the injector's
:class:`ModelReport`, and even identical typed failures when a degraded
network trips a protocol invariant. Degenerate models (``classic``,
``impersonation:k=0``, ``partial-synchrony:rate=0``) must be bit-for-bit
indistinguishable from no model at all.

The tier-1 slice covers a handful of (algorithm, model, seed) cells; the
``slow`` grid sweeps 20 seeds per cell for the nightly job.
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
from repro.sim import ENGINES, FaultPlan, SimulationError, SystemModel, run_protocol
from repro.wire import WireError

MODELS = [
    SystemModel.impersonation(1),
    SystemModel.impersonation(4, seed=3),
    SystemModel.partial_synchrony(0.05, max_delay=2),
    SystemModel.partial_synchrony(0.2, max_delay=1, seed=7),
    SystemModel.partial_synchrony(0.1, max_delay=0, seed=2),  # pure omission
]

INERT_MODELS = [
    SystemModel.classic(),
    SystemModel.impersonation(0),
    SystemModel.partial_synchrony(0.0),
]

# (algorithm, n, t, attack) cells the grids run over; covers both paper
# algorithms, a crash-tolerant baseline, and a full-information protocol.
CELLS = [
    ("alg1", 7, 2, "silent"),
    ("okun-crash", 5, 1, "crash"),
    ("floodset", 5, 1, "silent"),
]


pytestmark = pytest.mark.usefixtures("no_sharing_engine")


def _model_run(algorithm, n, t, *, attack, seed, engine, model, chaos=None,
               max_rounds=64):
    """Run one registered algorithm under a model; errors become data."""
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
            model=model,
            chaos=chaos,
            max_rounds=max_rounds,
            collect_trace=True,
        )
    except (SimulationError, WireError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", result)


def _assert_engines_agree(algorithm, n, t, *, attack, seed, model, chaos=None):
    outcomes = {
        engine: _model_run(
            algorithm, n, t, attack=attack, seed=seed, engine=engine,
            model=model, chaos=chaos,
        )
        for engine in ENGINES
    }
    ref = outcomes.pop("reference")
    ref_report = (
        ref[1].model.as_dict() if ref[0] == "ok" and ref[1].model else None
    )
    for other_engine, other in sorted(outcomes.items()):
        context = (
            f"{algorithm} n={n} t={t} attack={attack} seed={seed} "
            f"model={model.describe()} engines=reference/{other_engine}"
        )
        assert ref[0] == other[0], f"{context}: {ref[0]} vs {other[0]}"
        if ref[0] == "error":
            assert ref[1:] == other[1:], context
            continue
        assert_runs_identical(ref[1], other[1], context)
        other_report = other[1].model.as_dict() if other[1].model else None
        assert ref_report == other_report, context


class TestInertModelIdentity:
    """Degenerate models must be bit-for-bit the same as model=None,
    on every engine — the ISSUE's hard constraint."""

    @pytest.mark.parametrize("engine", SPEC_ENGINES)
    @pytest.mark.parametrize(
        "model", INERT_MODELS, ids=lambda m: m.describe() or m.kind
    )
    @pytest.mark.parametrize("algorithm,n,t,attack", CELLS[:2])
    def test_inert_model_is_a_no_op(self, algorithm, n, t, attack, model, engine):
        baseline = run_registered(
            algorithm, n, t, attack=attack, seed=0, engine=engine
        )
        status, with_model = _model_run(
            algorithm, n, t, attack=attack, seed=0, engine=engine,
            model=model, max_rounds=1000,
        )
        assert status == "ok"
        assert with_model.model is None, "inert model must not install a hook"
        assert_runs_identical(
            baseline, with_model, f"{algorithm} {model.describe()} on {engine}"
        )


class TestModelDifferential:
    """Tier-1 slice: every model on every cell, one seed."""

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
    @pytest.mark.parametrize(
        "algorithm,n,t,attack", CELLS, ids=[c[0] for c in CELLS]
    )
    def test_engines_agree_under_model(self, algorithm, n, t, attack, model):
        _assert_engines_agree(
            algorithm, n, t, attack=attack, seed=0, model=model
        )

    def test_engines_agree_under_model_plus_chaos(self):
        # Model and chaos compose at the same hook point; the composed
        # perturbation must stay engine-identical too.
        _assert_engines_agree(
            "alg1", 7, 2, attack="silent", seed=0,
            model=SystemModel.impersonation(2),
            chaos=FaultPlan(seed=5, drop=0.2),
        )

    @pytest.mark.parametrize("engine", sorted(set(SPEC_ENGINES) - {"reference"}))
    def test_model_report_counts_are_engine_independent(self, engine):
        model = SystemModel.partial_synchrony(0.15, max_delay=2, seed=1)
        status, ref = _model_run(
            "floodset", 5, 1, attack="silent", seed=0, engine="reference",
            model=model,
        )
        assert status == "ok"
        assert ref.model is not None and ref.model.injected > 0
        status, other = _model_run(
            "floodset", 5, 1, attack="silent", seed=0, engine=engine,
            model=model,
        )
        assert status == "ok"
        assert other.model.as_dict() == ref.model.as_dict()


@pytest.mark.slow
class TestModelDifferentialGrid:
    """Nightly: the full algorithm × model × 20-seed grid."""

    SEEDS = range(20)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
    @pytest.mark.parametrize(
        "algorithm,n,t,attack", CELLS, ids=[c[0] for c in CELLS]
    )
    def test_grid_engines_agree(self, algorithm, n, t, attack, model):
        for seed in self.SEEDS:
            _assert_engines_agree(
                algorithm, n, t, attack=attack, seed=seed, model=model
            )
