"""Cross-engine differential harness: every engine ≡ reference, always.

Both engines run the one round loop of :mod:`repro.sim.engine`; they differ
only in the router that turns outboxes into inboxes. The batched router is
only allowed to exist because it is *provably behaviour-identical* to the
reference router. This suite is that proof, in executable form:

* every registered algorithm × every registered-meaningful attack, across
  a seed grid (2 seeds in tier-1, the full ≥20-seed grid nightly via the
  ``slow`` marker) — full output/trace/metrics equality for **every**
  registered engine, and for the no-sharing spec
  (``helpers.PRIVATE_COPY_ENGINE``), against the reference;
* the knob cross-product: ``through_wire``, tracing on/off;
* error identity: all engines raise the same exception types with the
  same messages for round-limit overruns, protocol violations, and
  adversary misconfiguration;
* hypothesis-driven fuzz-adversary runs where the *seed is the
  reproducer*: a failing example prints the (algorithm, seed) pair, and
  ``run_registered(algorithm, ..., attack="fuzz", seed=<seed>, ...)``
  replays it deterministically (see docs/model.md).

The grid iterates ``helpers.SPEC_ENGINES``, so it covers whatever is
registered plus the no-sharing spec, which its tests register through the
``no_sharing_engine`` fixture.

If an engine divergence ever appears, fix the non-reference router — the
reference router is the specification. Because the two engines share the
loop, this suite cannot see a regression in the loop itself; the whole-run
digests in ``tests/test_differential.py`` pin that.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SPEC_ENGINES, assert_runs_identical, run_registered, standard_ids
from repro.analysis import ALGORITHMS
from repro.core.messages import IdMessage
from repro.sim import (
    BROADCAST,
    ConfigurationError,
    Process,
    ProtocolViolationError,
    RoundLimitExceeded,
    engine_names,
    resolve_engine,
    run_protocol,
)

#: Smallest (n, t) at which each registered algorithm's resilience condition
#: holds with t > 0 (so every attack actually gets fault slots to drive).
#: A newly registered algorithm MUST be added here — the grid test below
#: fails loudly otherwise, which is the point: no algorithm ships without
#: differential coverage.
SIZES = {
    "alg1": (7, 2),
    "alg1-constant": (11, 1),
    "alg4": (11, 2),
    "cht": (7, 2),
    "consensus": (7, 2),
    "floodset": (7, 2),
    "okun-crash": (7, 2),
    "translated": (11, 2),
}

GRID = [
    (algorithm, attack)
    for algorithm in sorted(ALGORITHMS)
    for attack in ALGORITHMS[algorithm].attacks
]

FAST_SEEDS = range(2)
FULL_SEEDS = range(20)

#: All registered engines, pinned at import. ``reference`` is always first
#: (it is the oracle every other engine is compared against).
ALL_ENGINES = tuple(engine_names())

#: Every comparison over :data:`SPEC_ENGINES` needs the no-sharing spec
#: registered; :func:`test_registry_consistent` runs without it.
no_sharing = pytest.mark.usefixtures("no_sharing_engine")


def _compare(algorithm: str, attack: str, seed: int, **knobs) -> None:
    if algorithm not in SIZES:
        pytest.fail(
            f"algorithm {algorithm!r} has no differential size — add it to "
            "tests/test_engine_differential.py::SIZES"
        )
    n, t = SIZES[algorithm]
    runs = {
        engine: run_registered(
            algorithm, n, t, attack=attack, seed=seed, engine=engine, **knobs
        )
        for engine in SPEC_ENGINES
    }
    for engine, run in runs.items():
        if engine == "reference":
            continue
        assert_runs_identical(
            runs["reference"],
            run,
            context=f"{algorithm}/{attack}/seed={seed}/{engine}/{knobs}",
        )


@no_sharing
@pytest.mark.parametrize("algorithm,attack", GRID)
def test_engines_identical(algorithm, attack):
    """Tier-1 core: every algorithm × attack, traced, two seeds."""
    for seed in FAST_SEEDS:
        _compare(algorithm, attack, seed)


@pytest.mark.slow
@no_sharing
@pytest.mark.parametrize("algorithm,attack", GRID)
def test_engines_identical_full_seed_grid(algorithm, attack):
    """The acceptance grid: every algorithm × attack × 20 seeds."""
    for seed in FULL_SEEDS:
        _compare(algorithm, attack, seed)


@no_sharing
@pytest.mark.parametrize(
    "algorithm,attack",
    [("alg1", "id-forging"), ("alg4", "selective-echo"), ("consensus", "fuzz")],
)
def test_engines_identical_through_wire(algorithm, attack):
    """The codec round-trip drill must not open an engine gap."""
    for seed in FAST_SEEDS:
        _compare(algorithm, attack, seed, through_wire=True)


@no_sharing
@pytest.mark.parametrize("algorithm", ["alg1", "consensus"])
def test_engines_identical_without_trace(algorithm):
    _compare(algorithm, "conforming", 0, collect_trace=False)


# --------------------------------------------------------------- error identity


class _Forever(Process):
    def send(self, round_no):
        return {}

    def deliver(self, round_no, inbox):
        pass


class _BadLink(Process):
    def send(self, round_no):
        return {999: [IdMessage(self.ctx.my_id)]}

    def deliver(self, round_no, inbox):
        pass


class _NonMessage(Process):
    def send(self, round_no):
        return {BROADCAST: ["not a message"]}

    def deliver(self, round_no, inbox):
        pass


def _error_text(factory, engine, n=4):
    with pytest.raises((RoundLimitExceeded, ProtocolViolationError)) as info:
        run_protocol(
            factory, n=n, t=0, ids=standard_ids(n), seed=0, max_rounds=5,
            engine=engine,
        )
    return type(info.value), str(info.value)


@pytest.mark.parametrize("factory", [_Forever, _BadLink, _NonMessage])
def test_error_identity(factory):
    """Same exception type, same message, from every engine."""
    texts = {_error_text(factory, engine) for engine in ALL_ENGINES}
    assert len(texts) == 1, texts


def test_adversary_as_correct_process_rejected_identically():
    from repro.sim import Adversary

    class Impostor(Adversary):
        def send(self, round_no, correct_outboxes):
            return {0: {}}  # slot 0 is correct when byzantine is pinned to {3}

    errors = {}
    for engine in engine_names():
        with pytest.raises(ConfigurationError) as info:
            run_protocol(
                _Forever, n=4, t=1, ids=standard_ids(4), byzantine=[3],
                adversary=Impostor(), seed=0, max_rounds=5, engine=engine,
            )
        errors[engine] = str(info.value)
    assert len(set(errors.values())) == 1
    assert "adversary tried to send as correct process 0" in errors["batched"]


# --------------------------------------------------------------- engine registry


def test_unknown_engine_rejected():
    with pytest.raises(ConfigurationError, match="unknown engine 'warp'"):
        run_protocol(_Forever, n=3, t=0, ids=standard_ids(3), engine="warp")


def test_registry_consistent():
    assert engine_names() == ["batched", "reference"]
    for name in engine_names():
        assert resolve_engine(name).name == name


def test_default_engine_is_batched():
    from repro.sim import DEFAULT_ENGINE

    assert DEFAULT_ENGINE == "batched"


# ------------------------------------------------------ hypothesis fuzz harness

FUZZ_ALGORITHMS = ["alg1", "alg1-constant", "alg4", "consensus"]


@no_sharing
@settings(max_examples=20, deadline=None)
@given(
    algorithm=st.sampled_from(FUZZ_ALGORITHMS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fuzz_adversary_differential(algorithm, seed):
    """The fuzz adversary throws seed-derived garbage at the protocol; both
    engines must process it identically. The failing (algorithm, seed) pair
    IS the reproducer — replay with run_registered(algorithm, *SIZES[...],
    attack="fuzz", seed=seed, engine=...)."""
    _compare(algorithm, "fuzz", seed)


@pytest.mark.slow
@no_sharing
@settings(max_examples=200, deadline=None)
@given(
    algorithm=st.sampled_from(FUZZ_ALGORITHMS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    through_wire=st.booleans(),
)
def test_fuzz_adversary_differential_deep(algorithm, seed, through_wire):
    _compare(algorithm, "fuzz", seed, through_wire=through_wire)


@pytest.mark.slow
@no_sharing
def test_engines_identical_large_n():
    """A paper-scale configuration (the kind sweeps actually run)."""
    for algorithm, n, t in [("alg1", 25, 8), ("alg4", 37, 4)]:
        attack = ALGORITHMS[algorithm].attacks[-1]
        runs = {
            engine: run_registered(
                algorithm, n, t, attack=attack, seed=0, engine=engine
            )
            for engine in SPEC_ENGINES
        }
        for engine, run in runs.items():
            if engine != "reference":
                assert_runs_identical(
                    runs["reference"], run, f"{algorithm}@{n}:{t}/{engine}"
                )
