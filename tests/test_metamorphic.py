"""Metamorphic invariance: the model's symmetries, held as test properties.

The ports model (Section II) promises that nothing observable depends on
*concrete* link labels — labels are private per-endpoint names — and the
renaming problem promises that only the *order* of original ids matters,
not their values. Each symmetry yields a metamorphic relation we can test
without knowing the expected output:

* **Link relabeling** — rerunning with a different label permutation
  (``topology_seed``) must leave every correct process's output, keyed by
  original id, unchanged. ``topology_seed`` perturbs *only* the labelling:
  fault slots, process randomness, and the adversary stream all still
  derive from ``seed``.
* **Order-preserving id translation** — applying ``x -> a*x + b`` (a > 0)
  to the original ids must translate the output keys and leave the chosen
  names identical, for any algorithm that solves order-preserving
  renaming from id *order* alone.

Each relation is asserted per attack family. Excluded families (with the
reason in the list definitions below) are the ones whose *adversary* is
not symmetric under the transform — e.g. the crash adversary keeps a
random subset of concrete link labels, so relabeling legitimately changes
which messages survive. Runs are deterministic, so these are exact
assertions, not statistical ones.
"""

from __future__ import annotations

import pytest

from helpers import run_registered, standard_ids
from repro.analysis import ALGORITHMS

#: (n, t) per algorithm under metamorphic test: Alg. 1, the constant-time
#: variant, and the two-step Alg. 4 — the paper's three renaming protocols —
#: plus the identified-model consensus baseline, whose factory re-derives
#: the wiring and so must follow ``topology_seed``.
SIZES = {
    "alg1": (7, 2),
    "alg1-constant": (11, 1),
    "alg4": (11, 2),
    "consensus": (7, 2),
}

#: Attack families whose adversary never touches concrete link labels:
#: they pick victims by global process index and craft payloads from
#: observed message *content*. For these, relabeling is a pure symmetry.
#: Excluded: ``crash`` (keeps a random subset of concrete labels),
#: ``noise`` and ``fuzz`` (draw target links label-by-label from the rng).
_LABEL_DEPENDENT = {"crash", "noise", "fuzz"}

#: Attack families that never manufacture concrete id values: everything
#: they emit is derived from observed ids/ranks, so an affine translation
#: of the workload translates their traffic consistently too. Excluded:
#: ``noise`` and ``fuzz`` (emit rng-drawn concrete ids that do not follow
#: the translation). The forging attacks stay: they interpolate between
#: *observed* ids, which commutes with order-preserving translation.
_VALUE_DEPENDENT = {"noise", "fuzz"}

SEEDS = range(2)
TRANSLATIONS = [(3, 7), (11, 1000)]  # x -> a*x + b, a > 0


def _families(algorithm: str, excluded: set) -> list:
    return [a for a in ALGORITHMS[algorithm].attacks if a not in excluded]


RELABEL_GRID = [
    (algorithm, attack)
    for algorithm in SIZES
    for attack in _families(algorithm, _LABEL_DEPENDENT)
]
TRANSLATE_GRID = [
    (algorithm, attack)
    for algorithm in SIZES
    for attack in _families(algorithm, _VALUE_DEPENDENT)
]


@pytest.mark.parametrize("algorithm,attack", RELABEL_GRID)
def test_outputs_invariant_under_link_relabeling(algorithm, attack):
    n, t = SIZES[algorithm]
    for seed in SEEDS:
        base = run_registered(
            algorithm, n, t, attack=attack, seed=seed, engine="batched",
            collect_trace=False,
        )
        relabeled = run_registered(
            algorithm, n, t, attack=attack, seed=seed, engine="batched",
            collect_trace=False, topology_seed=seed + 10_000,
        )
        assert base.byzantine == relabeled.byzantine, (
            "topology_seed must not move fault slots"
        )
        assert base.outputs_by_id() == relabeled.outputs_by_id(), (
            f"{algorithm}/{attack}/seed={seed}: outputs depend on concrete "
            f"link labels"
        )


@pytest.mark.parametrize("algorithm,attack", TRANSLATE_GRID)
def test_names_invariant_under_id_translation(algorithm, attack):
    for a, b in TRANSLATIONS:
        n, t = SIZES[algorithm]
        base_ids = standard_ids(n)
        translated_ids = [a * x + b for x in base_ids]
        for seed in SEEDS:
            base = run_registered(
                algorithm, n, t, attack=attack, seed=seed, engine="batched",
                collect_trace=False, ids=base_ids,
            )
            translated = run_registered(
                algorithm, n, t, attack=attack, seed=seed, engine="batched",
                collect_trace=False, ids=translated_ids,
            )
            expected = {a * k + b: v for k, v in base.new_names().items()}
            assert expected == translated.new_names(), (
                f"{algorithm}/{attack}/seed={seed}/x->{a}x+{b}: names depend "
                f"on concrete id values, not just their order"
            )


def test_relabeling_changes_the_wiring_it_claims_to_change():
    """Sanity check on the instrument itself: a different topology_seed
    really does permute labels (otherwise every relabeling test above is
    vacuous), while the default reproduces the original wiring."""
    from repro.sim.topology import FullMeshTopology

    base = FullMeshTopology(7, seed=0)
    same = FullMeshTopology(7, seed=0)
    other = FullMeshTopology(7, seed=10_000)
    wiring = lambda topo: topo.port_rows
    assert wiring(base) == wiring(same)
    assert wiring(base) != wiring(other)


def test_relabeled_run_still_counts_the_same_traffic():
    """Relabeling permutes who-hears-what-on-which-link but not how much
    correct traffic flows (label-oblivious attack, so byz traffic too)."""
    base = run_registered(
        "alg1", 7, 2, attack="divergence", seed=0, engine="batched",
        collect_trace=False,
    )
    relabeled = run_registered(
        "alg1", 7, 2, attack="divergence", seed=0, engine="batched",
        collect_trace=False, topology_seed=99,
    )
    assert base.metrics.correct_messages == relabeled.metrics.correct_messages
    assert base.metrics.correct_bits == relabeled.metrics.correct_bits
    assert base.metrics.round_count == relabeled.metrics.round_count
