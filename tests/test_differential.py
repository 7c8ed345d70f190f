"""Differential tests: independent execution modes must agree.

Two implementations of the same semantics are a free oracle for each other:

* exact (Fraction) vs float arithmetic — the float path is an approximation
  of the exact one and must produce identical *names* (the δ margins dwarf
  double-precision error at these scales);
* live runs vs their JSON archives — serialisation must be lossless;
* the golden corpus — canonical runs' exact outputs are pinned so silent
  semantic drift (a changed threshold, an off-by-one in a round count)
  cannot slip through a refactor.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial

import pytest

from helpers import run_registered, standard_ids
from repro import (
    OrderPreservingRenaming,
    RenamingOptions,
    TwoStepRenaming,
    run_protocol,
)
from repro.adversary import ALG1_ATTACKS, make_adversary
from repro.sim import FaultPlan, SafetyPolicy, SimulationError, SystemModel


class TestExactVsFloat:
    @pytest.mark.parametrize("attack", ALG1_ATTACKS)
    def test_names_agree(self, attack):
        n, t, seed = 7, 2, 5
        exact = run_protocol(
            OrderPreservingRenaming,
            n=n,
            t=t,
            ids=standard_ids(n),
            adversary=make_adversary(attack),
            seed=seed,
        )
        floaty = run_protocol(
            partial(
                OrderPreservingRenaming,
                options=RenamingOptions(exact_arithmetic=False),
            ),
            n=n,
            t=t,
            ids=standard_ids(n),
            adversary=make_adversary(attack),
            seed=seed,
        )
        assert exact.new_names() == floaty.new_names(), attack


class TestWireFidelity:
    """Running every correct message through the binary codec must change
    nothing — the codec carries the full protocol losslessly."""

    @pytest.mark.parametrize(
        "attack", ["silent", "id-forging", "divergence", "rank-skew"]
    )
    def test_alg1_through_wire(self, attack):
        kwargs = dict(
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=make_adversary(attack),
            seed=3,
        )
        base = run_protocol(OrderPreservingRenaming, **kwargs)
        wired = run_protocol(
            OrderPreservingRenaming, through_wire=True, **kwargs
        )
        assert base.new_names() == wired.new_names()
        assert base.metrics.round_count == wired.metrics.round_count

    def test_alg4_through_wire(self):
        kwargs = dict(
            n=11,
            t=2,
            ids=standard_ids(11),
            adversary=make_adversary("selective-echo"),
            seed=1,
        )
        base = run_protocol(TwoStepRenaming, **kwargs)
        wired = run_protocol(TwoStepRenaming, through_wire=True, **kwargs)
        assert base.new_names() == wired.new_names()

    def test_baselines_through_wire(self):
        from repro.baselines import FloodSetRenaming, OkunCrashRenaming

        for cls in (OkunCrashRenaming, FloodSetRenaming):
            kwargs = dict(
                n=7,
                t=2,
                ids=standard_ids(7),
                adversary=make_adversary("crash"),
                seed=2,
            )
            base = run_protocol(cls, **kwargs)
            wired = run_protocol(cls, through_wire=True, **kwargs)
            assert base.new_names() == wired.new_names(), cls.__name__


class TestArchiveFidelity:
    def test_every_attack_roundtrips(self, tmp_path):
        from repro.analysis import dump_run, load_run

        for attack in ("id-forging", "divergence", "rank-skew"):
            result = run_protocol(
                OrderPreservingRenaming,
                n=7,
                t=2,
                ids=standard_ids(7),
                adversary=make_adversary(attack),
                seed=1,
                collect_trace=True,
            )
            archive = load_run(dump_run(result, tmp_path / f"{attack}.json"))
            assert archive.new_names() == result.new_names()
            assert len(archive.trace) == len(list(result.trace))


class TestGoldenCorpus:
    """Exact expected outputs of canonical runs. If one of these changes,
    the protocol semantics changed — bump deliberately, never casually."""

    def test_alg1_fault_free(self):
        result = run_protocol(
            OrderPreservingRenaming,
            n=6,
            t=0,
            ids=[31, 7, 99, 54, 18, 76],
            seed=0,
        )
        assert result.new_names() == {7: 1, 18: 2, 31: 3, 54: 4, 76: 5, 99: 6}

    def test_alg1_under_forging_seed7(self):
        result = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=[103_441, 55_200, 910_210, 8_118, 77_077, 150_150, 42_424],
            adversary=make_adversary("id-forging"),
            seed=7,
        )
        assert result.byzantine == (1, 6)
        assert result.new_names() == {
            8_118: 1,
            77_077: 5,
            103_441: 6,
            150_150: 7,
            910_210: 8,
        }

    def test_alg4_under_selective_echo_seed99(self):
        result = run_protocol(
            TwoStepRenaming,
            n=11,
            t=2,
            ids=[1_303, 2_771, 4_042, 4_979, 6_331, 7_177, 8_214, 8_846,
                 9_555, 10_203, 11_498],
            adversary=make_adversary("selective-echo"),
            seed=99,
        )
        names = result.new_names()
        assert len(names) == 9
        values = [names[i] for i in sorted(names)]
        assert values == sorted(values)
        assert result.metrics.round_count == 2

    def test_alg1_divergence_seed2_metrics(self):
        result = run_protocol(
            OrderPreservingRenaming,
            n=7,
            t=2,
            ids=standard_ids(7),
            adversary=make_adversary("divergence"),
            seed=2,
        )
        assert result.metrics.round_count == 10
        assert result.metrics.correct_messages == 693
        names = result.new_names()
        assert sorted(names.values()) == [1, 2, 3, 4, 5]


#: sha256 of the canonical serialised run — ``run_to_dict`` (outputs,
#: per-round metrics, the full trace with every intermediate rank as an exact
#: ``Fraction``) dumped as sorted-key JSON — for ``(algorithm, n, t, attack)``
#: at seed 3 with standard ids. rank-skew and boundary-votes share a digest:
#: both attacks' votes land at the extremes every round, are trimmed at every
#: correct process, and so leave identical correct-process traces.
GOLDEN_RANK_TRACES = {
    ("alg1", 10, 3, "divergence"):
        "abeda4e7a664ca259b9bcfbe56bdae67d935367a42d42ff1b0c37c1618b306fc",
    ("alg1", 10, 3, "rank-skew"):
        "ec574ff0bd31c89eba8f78a0830d3602166a4b4141cb8104d501c8352f8a1e19",
    ("alg1", 10, 3, "id-forging"):
        "e4f97271a5c17f8fdbc0d6ccf4d2fa03bc83f39766b770fe7b307255d9f4cb70",
    ("alg1", 10, 3, "boundary-votes"):
        "ec574ff0bd31c89eba8f78a0830d3602166a4b4141cb8104d501c8352f8a1e19",
    ("alg1-constant", 11, 1, "order-inversion"):
        "d735711baee1ce553d71024d03b32ee75aa2bcad16d2405a8c5f2209259fab4d",
    ("okun-crash", 7, 2, "crash"):
        "978f2933076ea44c8623a16d794450dba407a10aa6ea581091253c3e3177ebcf",
}


class TestGoldenRankTraces:
    """Byte-level pins on whole runs, not just their rounded names.

    A change to the voting fold or the vote filter that shifted any
    intermediate rank — even one that every final rounding absorbed —
    changes these digests. They were captured from the pure-``Fraction``
    implementation of ``isValid`` and the trimmed fold (``Fraction``
    subtraction and ``sum``), before those moved to integer arithmetic, so
    they certify that the integer paths are value-identical. Both the
    default batched engine and the reference engine must reproduce them.
    """

    @pytest.mark.parametrize("engine", ["batched", "reference"])
    @pytest.mark.parametrize(
        "algorithm,n,t,attack",
        sorted(GOLDEN_RANK_TRACES),
        ids=[f"{a}-{n}-{t}-{attack}" for a, n, t, attack in sorted(GOLDEN_RANK_TRACES)],
    )
    def test_digest(self, algorithm, n, t, attack, engine):
        from repro.analysis.serialization import run_to_dict

        result = run_registered(algorithm, n, t, attack=attack, seed=3, engine=engine)
        canonical = json.dumps(run_to_dict(result), sort_keys=True).encode()
        digest = hashlib.sha256(canonical).hexdigest()
        assert digest == GOLDEN_RANK_TRACES[(algorithm, n, t, attack)]


def _golden_run_digest(case: str, engine: str) -> str:
    """sha256 of one pinned run's full observable outcome.

    A finished run hashes ``run_to_dict`` plus the chaos and model reports;
    a run that raises a simulator error hashes its type and message
    instead, so *how* a run fails is pinned as tightly as how it succeeds.
    """
    from repro.analysis import ALGORITHMS
    from repro.analysis.serialization import run_to_dict

    algorithm, n, t, attack, seed, options = GOLDEN_RUN_CASES[case]
    build_factory = (
        _GOLDEN_FACTORIES.get(algorithm) or ALGORITHMS[algorithm].build_factory
    )
    ids = standard_ids(n)
    try:
        result = run_protocol(
            build_factory(n, t, ids, seed),
            n=n,
            t=t,
            ids=ids,
            adversary=make_adversary(attack),
            seed=seed,
            collect_trace=True,
            engine=engine,
            **options,
        )
    except SimulationError as exc:
        outcome = {"error": type(exc).__name__, "message": str(exc)}
    else:
        outcome = {
            "run": run_to_dict(result),
            "chaos": result.chaos.as_dict() if result.chaos is not None else None,
            "model": result.model.as_dict() if result.model is not None else None,
        }
    canonical = json.dumps(outcome, sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()


#: Unregistered variants a golden case may name in place of an algorithm.
_GOLDEN_FACTORIES = {
    "alg1-float": lambda n, t, ids, seed: partial(
        OrderPreservingRenaming, options=RenamingOptions(exact_arithmetic=False)
    ),
}

#: ``case -> (algorithm, n, t, attack, seed, run_protocol options)``. One
#: run per registered algorithm, then one per opt-in feature of the round
#: loop: a system model composed with a chaos plan (pins that the model
#: perturbs before chaos does), impersonation, the wire round trip, a
#: safety monitor that aborts, and a run that hits its round limit. The
#: receive-side caches on shared messages get their own cases: Alg. 1 in
#: float mode (the tolerance-keyed isValid verdict), per-link Byzantine
#: votes that every recipient must check afresh, and EIG consensus at the
#: smallest fault budgets, where the resolve tree is one or two levels deep.
GOLDEN_RUN_CASES = {
    "alg1": ("alg1", 7, 2, "id-forging", 1, {}),
    "alg1-float": ("alg1-float", 7, 2, "rank-skew", 1, {}),
    "alg1-constant": ("alg1-constant", 11, 1, "divergence", 1, {}),
    "alg1-constant-rank-skew": ("alg1-constant", 11, 1, "rank-skew", 2, {}),
    "alg4": ("alg4", 11, 2, "selective-echo", 1, {}),
    "okun-crash": ("okun-crash", 7, 2, "crash", 1, {}),
    "okun-crash-divergence": ("okun-crash", 7, 2, "divergence", 1, {}),
    "cht": ("cht", 7, 2, "crash", 1, {}),
    "floodset": ("floodset", 7, 2, "crash", 1, {}),
    "translated": ("translated", 7, 2, "crash", 1, {}),
    "consensus": ("consensus", 7, 2, "split-world", 1, {}),
    "consensus-t0": ("consensus", 4, 0, "silent", 1, {}),
    "consensus-t1": ("consensus", 5, 1, "split-world", 1, {}),
    "partial-synchrony+chaos": (
        "floodset", 7, 2, "crash", 2,
        {
            "model": SystemModel.partial_synchrony(0.3, max_delay=2),
            "chaos": FaultPlan(
                seed=5, drop=0.05, duplicate=0.05, corrupt=0.05, crashes=((3, 2),)
            ),
        },
    ),
    "impersonation": (
        "alg1", 7, 2, "divergence", 3, {"model": SystemModel.impersonation(k=2)}
    ),
    "through-wire": ("alg4", 11, 2, "selective-echo", 4, {"through_wire": True}),
    "safety-violation": (
        "alg1", 7, 2, "id-forging", 1, {"safety": SafetyPolicy(namespace=3)}
    ),
    "round-limit": ("alg1", 7, 2, "rank-skew", 1, {"max_rounds": 3}),
}

#: Captured before the two engines' round loops were merged into one; the
#: float-mode, per-link-vote and small-t consensus cases before the
#: receive-side caches on shared messages.
GOLDEN_RUN_DIGESTS = {
    "alg1":
        "66d67575fd5eadbb48961918ba43ffcccaf26ec414445d1cb2e20c2dbd0b4840",
    "alg1-constant":
        "a2d5cdd667f1de680a2d7e2f0efbb2c8263fb844d0193e5123c713a879048e2b",
    "alg1-constant-rank-skew":
        "334458880b15e0b40879eff5e53c34d60c861981d588a978ed0485ab1542f3f6",
    "alg1-float":
        "260632b111298c3e331d3c50654154d71928375998e13f988c98b738535fb078",
    "alg4":
        "729843e1e7391bc9c984171eccff05a6695c8b14b3f6cde76b3fcd2cc040b018",
    "cht":
        "b22b9e508c4445e41199d77ac42e8b52740149d4f2ff3421b8d1832afc54e035",
    "consensus":
        "4945b104bce95bc11d459a2e5de65a6727ec45d391229281c89b34ccf6547f36",
    "consensus-t0":
        "1e32686e15d0bdea128c1d9469b92d5b5e7fdfe968d7158f2fbc8ec9bafb7cba",
    "consensus-t1":
        "a38c0bcf30fc43fa426891d0cdbe91d2f99fa660f5a71d3052b3893d3ec608ce",
    "floodset":
        "787a53cd40a8fff1cec9c7749f6d01c6acc3103495f45685c80fca52cd7a6090",
    "impersonation":
        "dc2b6217a3a9d04154f66a5db29ca7807dcd11657b7f637cb04ce9a113d8dd62",
    "okun-crash":
        "cdcd8b06bc759586921bc3b7cf090b3ac677a989520e72903160880fa256dc4e",
    "okun-crash-divergence":
        "4abcb9fb0a9bc845d915c95ccadb12786724454cd99fb01cd33a5aeb29832a75",
    "partial-synchrony+chaos":
        "634d2ab69e5db25f1c48bafbbe9d4b1769d84804361c7abf03387c61f1bfaf54",
    "round-limit":
        "a0f22fbbc6d2da277e9cf8ca0e4e6d297efd7e5bec6d27dbfcb7c982cb081320",
    "safety-violation":
        "929f7af6e288095b29378a9243258ce1ec4dca0873e06c451d22aa47bbd556ba",
    "through-wire":
        "2226e6dcc1ae8e8d9992c856c5dc4b06a6b821f64a548f5b69c5990041215e7e",
    "translated":
        "8e81f9b60c019779f23544296d3109107a0f2b2233ab4be096d6d2787d3aa832",
}


class TestGoldenRuns:
    """Whole-run pins for every feature the round loop threads through.

    The cross-engine differential harness only checks the engines against
    each other, so a regression in code both engines share passes it. These
    digests pin each run's absolute outcome on both engines.
    """

    @pytest.mark.parametrize("engine", ["batched", "reference"])
    @pytest.mark.parametrize("case", sorted(GOLDEN_RUN_CASES))
    def test_digest(self, case, engine):
        assert _golden_run_digest(case, engine) == GOLDEN_RUN_DIGESTS[case]
