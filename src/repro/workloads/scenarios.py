"""Canned end-to-end scenarios: (workload, size, attack, model) bundles.

Examples and integration tests reference scenarios by name so that "the
saturation worst case" or "the crash-heavy run" means the same configuration
everywhere. ``model`` is a :func:`repro.sim.parse_model` spec string
(``"classic"`` for the paper's model — the default); scenarios carry the
spec rather than a :class:`~repro.sim.SystemModel` so the table stays a
plain-string artifact (CLI help, docs, JSON) and parsing stays in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Scenario:
    """A named, fully-specified experiment setup."""

    name: str
    description: str
    n: int
    t: int
    workload: str
    attack: str
    #: System-model spec (see :func:`repro.sim.parse_model`).
    model: str = "classic"

    @property
    def size(self) -> Tuple[int, int]:
        return self.n, self.t


_SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in [
        Scenario(
            name="fault-free",
            description="No faults at all; the trivial sanity anchor.",
            n=8,
            t=0,
            workload="uniform",
            attack="silent",
        ),
        Scenario(
            name="silent-minority",
            description="t slots crash before sending anything (pure omission).",
            n=7,
            t=2,
            workload="uniform",
            attack="silent",
        ),
        Scenario(
            name="saturation",
            description=(
                "Colluding id forging drives |accepted| to the Lemma IV.3 "
                "maximum at every correct process."
            ),
            n=7,
            t=2,
            workload="dense",
            attack="id-forging",
        ),
        Scenario(
            name="divergent-views",
            description=(
                "Asymmetric forging gives t victim processes accepted sets "
                "nobody else has — the overlapping-AA-ranges hazard."
            ),
            n=10,
            t=3,
            workload="clustered",
            attack="divergence",
        ),
        Scenario(
            name="vote-poisoning",
            description="Valid-but-extreme AA votes (equivocating skew).",
            n=13,
            t=4,
            workload="uniform",
            attack="rank-skew",
        ),
        Scenario(
            name="crash-storm",
            description="Crash faults spread across the whole run.",
            n=10,
            t=3,
            workload="uniform",
            attack="crash",
        ),
        Scenario(
            name="fast-echo-attack",
            description=(
                "Selective MultiEcho against Alg. 4 — the Lemma VI.1 worst "
                "case (Δ = 2t²)."
            ),
            n=11,
            t=2,
            workload="uniform",
            attack="selective-echo",
        ),
        Scenario(
            name="fuzzed",
            description=(
                "Seeded random composition of Byzantine behaviour atoms "
                "(the coverage-widening adversary)."
            ),
            n=10,
            t=3,
            workload="clustered",
            attack="fuzz",
        ),
        Scenario(
            name="forged-senders",
            description=(
                "Okun-style impersonation: an external adversary injects 2 "
                "forged-sender frames per round through the real codec, "
                "without corrupting any process."
            ),
            n=7,
            t=2,
            workload="uniform",
            attack="silent",
            model="impersonation:k=2",
        ),
        Scenario(
            name="lossy-rounds",
            description=(
                "Partial synchrony: each network transmission is "
                "independently delayed up to 2 rounds (or lost at run end) "
                "with probability 0.05."
            ),
            n=7,
            t=2,
            workload="uniform",
            attack="silent",
            model="partial-synchrony:rate=0.05,delay=2",
        ),
        Scenario(
            name="sustained-divergence",
            description=(
                "Valid-vote divergence sustained through the voting phase — "
                "the slowest-converging traffic the isValid filter admits."
            ),
            n=13,
            t=4,
            workload="uniform",
            attack="divergence-valid",
        ),
    ]
}


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def scenario_names() -> List[str]:
    """All scenario names, sorted."""
    return sorted(_SCENARIOS)
