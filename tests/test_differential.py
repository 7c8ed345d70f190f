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
