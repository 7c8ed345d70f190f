"""Fault injection *beyond* the paper's model.

Every theorem in the paper holds inside a strict model: reliable synchronous
links, at most ``t`` adversary-controlled slots, ``N > 3t`` (or the tighter
regimes of Algorithms 1-constant and 4). The simulator enforces that model —
adversaries in :mod:`repro.adversary` can only misbehave through the ``t``
faulty slots the runner hands them. This module deliberately breaks the
model, so the reproduction can characterise *how the system fails* when its
assumptions do not hold — the boundary probed by impersonation-style attacks
in the related literature (Okun & Barak).

A :class:`FaultPlan` is a declarative, seeded description of model
violations; a :class:`ChaosInjector` (built per run from the plan) perturbs
delivery between outbox collection and routing, as one of the perturbers of
the round loop both engines share:

* **drop** — per-link message loss (breaks "reliable links");
* **duplicate** — per-link message duplication (breaks "exactly-once");
* **corrupt** — payload corruption through the real wire codec: the message
  is encoded, 1–3 bits are flipped, and the result is decoded. Frames the
  codec rejects are discarded (a real link layer drops bad checksums);
  frames that still parse are delivered *as whatever they now decode to* —
  including a different message type;
* **crash** — send-crash of *correct* processes at a given round. Combined
  with the ``t`` adversary slots this yields over-threshold fault
  populations (``t' > t``), the canonical beyond-model regime.

Determinism: every random choice derives from ``FaultPlan.seed`` via
:func:`repro.sim.rng.derive_rng` with a per-round token, and the injector
walks outboxes in their (engine-identical) insertion order — so a plan
perturbs a run identically under the reference and the batched engine, and
the cross-engine differential contract extends to chaotic runs. An *empty*
plan is never installed at all (:func:`repro.sim.runner.run_protocol` skips
the hook entirely), so chaos costs nothing when disabled.

The self-loop link (label ``n``) is exempt from perturbation: it models
process-local delivery, not a network link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import ConfigurationError
from .process import Outboxes, perturb_links
from .rng import derive_rng

__all__ = ["ChaosInjector", "ChaosReport", "FaultPlan"]


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, declarative specification of beyond-model fault injection.

    Probabilities are per link transmission. ``crashes`` pins explicit
    ``(global index, round)`` send-crashes of correct processes;
    ``extra_crashes`` additionally crashes that many correct processes
    (chosen deterministically from ``seed``) at ``crash_round``. A crashed
    process stops transmitting — on every link, self-loop included — from
    its crash round onward, but keeps receiving; that is exactly a crash
    fault outside the adversary's ``t`` budget.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    crashes: Tuple[Tuple[int, int], ...] = ()
    extra_crashes: int = 0
    crash_round: int = 1

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"fault plan {name} must be a probability in [0, 1], "
                    f"got {value!r}"
                )
        if self.extra_crashes < 0:
            raise ConfigurationError(
                f"extra_crashes must be >= 0, got {self.extra_crashes}"
            )
        if self.crash_round < 1:
            raise ConfigurationError(
                f"crash_round must be >= 1, got {self.crash_round}"
            )
        for index, round_no in self.crashes:
            if index < 0 or round_no < 1:
                raise ConfigurationError(
                    f"invalid crash entry ({index}, {round_no}): need "
                    f"index >= 0 and round >= 1"
                )

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing (the hook is then skipped)."""
        return (
            self.drop == 0.0
            and self.duplicate == 0.0
            and self.corrupt == 0.0
            and not self.crashes
            and self.extra_crashes == 0
        )

    def describe(self) -> str:
        """Compact human-readable summary (used in triage tables)."""
        if self.is_empty:
            return "none"
        parts = []
        if self.drop:
            parts.append(f"drop={self.drop:g}")
        if self.duplicate:
            parts.append(f"dup={self.duplicate:g}")
        if self.corrupt:
            parts.append(f"corrupt={self.corrupt:g}")
        if self.crashes:
            parts.append(
                "crash=" + ",".join(f"{i}@{r}" for i, r in self.crashes)
            )
        if self.extra_crashes:
            parts.append(f"crash+{self.extra_crashes}@{self.crash_round}")
        parts.append(f"seed={self.seed}")
        return " ".join(parts)


@dataclass
class ChaosReport:
    """What a :class:`ChaosInjector` actually did during one run.

    Picklable and cheap: plain counters plus the resolved crash schedule.
    ``crashed`` lists every planned ``(global index, round)`` send-crash
    (explicit and seed-chosen); ``crash_engaged`` the subset whose round was
    actually reached before the run ended.
    """

    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    corrupted_dropped: int = 0
    crashed: Tuple[Tuple[int, int], ...] = ()
    crash_engaged: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)

    @property
    def injected(self) -> bool:
        """True when at least one model violation actually happened."""
        return bool(
            self.dropped
            or self.duplicated
            or self.corrupted
            or self.corrupted_dropped
            or self.crash_engaged
        )

    def labels(self) -> Tuple[str, ...]:
        """The kinds of violation that occurred, as stable short labels."""
        out: List[str] = []
        if self.dropped:
            out.append(f"drop x{self.dropped}")
        if self.duplicated:
            out.append(f"duplicate x{self.duplicated}")
        if self.corrupted:
            out.append(f"corrupt x{self.corrupted}")
        if self.corrupted_dropped:
            out.append(f"corrupt-drop x{self.corrupted_dropped}")
        if self.crash_engaged:
            out.append(
                "crash " + ",".join(f"{i}@{r}" for i, r in self.crash_engaged)
            )
        return tuple(out)

    def as_dict(self) -> dict:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "corrupted_dropped": self.corrupted_dropped,
            "crashed": [list(pair) for pair in self.crashed],
            "crash_engaged": [list(pair) for pair in self.crash_engaged],
        }


class ChaosInjector:
    """Per-run fault injector compiled from a :class:`FaultPlan`.

    The round loop calls :meth:`perturb` after the (rushing) adversary has
    chosen the Byzantine outboxes and the system model (if any) has
    perturbed them, before routing — the same dictionaries in the same
    order whichever engine routes, so the injected perturbation is
    engine-independent. Link-level chaos (drop, duplicate,
    corrupt) applies to correct *and* Byzantine traffic alike (the network
    does not know who is faulty); crashes apply only to correct processes —
    the adversary's slots are already under hostile control.
    """

    def __init__(
        self, plan: FaultPlan, *, n: int, byzantine: Tuple[int, ...] = ()
    ) -> None:
        self.plan = plan
        self._n = n
        byz = set(byzantine)
        crash_at: Dict[int, int] = {}
        for index, round_no in plan.crashes:
            if index >= n:
                raise ConfigurationError(
                    f"crash entry names process {index}, but n={n}"
                )
            if index in byz:
                raise ConfigurationError(
                    f"crash entry names Byzantine slot {index}; crashes "
                    f"model faults beyond the adversary's budget, so they "
                    f"must hit correct processes"
                )
            crash_at[index] = min(round_no, crash_at.get(index, round_no))
        if plan.extra_crashes:
            candidates = [
                i for i in range(n) if i not in byz and i not in crash_at
            ]
            if plan.extra_crashes > len(candidates):
                raise ConfigurationError(
                    f"cannot crash {plan.extra_crashes} extra processes: "
                    f"only {len(candidates)} correct processes available"
                )
            rng = derive_rng(plan.seed, "chaos", "extra-crashes")
            for index in sorted(rng.sample(candidates, plan.extra_crashes)):
                crash_at[index] = plan.crash_round
        self._crash_at = crash_at
        self._engaged: Dict[int, int] = {}
        self.report = ChaosReport(crashed=tuple(sorted(crash_at.items())))

    # ------------------------------------------------------------- round hook

    def perturb(
        self, round_no: int, correct_outboxes: Outboxes, byz_outboxes: Outboxes
    ) -> Tuple[Outboxes, Outboxes]:
        """Apply the plan to one round's outboxes; returns perturbed copies
        (:func:`~repro.sim.process.perturb_links` passes untouched ones on).

        Inputs are never mutated (the adversary may alias its own
        structures). The per-round RNG is re-derived from the plan seed, so
        the perturbation is a pure function of (plan, round, outboxes).
        """
        plan, report = self.plan, self.report
        rng = derive_rng(plan.seed, "chaos", round_no)
        random = rng.random
        drop, corrupt, duplicate = plan.drop, plan.corrupt, plan.duplicate
        link_chaos = drop or duplicate or corrupt

        def fate(label, message):
            """One copy's fate: drop, corrupt, then duplicate."""
            if drop and random() < drop:
                report.dropped += 1
                return ()
            delivered = message
            if corrupt and random() < corrupt:
                delivered = self._corrupt(rng, message)
                if delivered is None:
                    report.corrupted_dropped += 1
                    return ()
            if duplicate and random() < duplicate:
                report.duplicated += 1
                return (delivered, delivered)
            return None if delivered is message else (delivered,)

        new_correct: Outboxes = {}
        for sender, outbox in correct_outboxes.items():
            crash_round = self._crash_at.get(sender)
            if crash_round is not None and round_no >= crash_round:
                if sender not in self._engaged:
                    self._engaged[sender] = crash_round
                    self.report.crash_engaged = tuple(
                        sorted(self._engaged.items())
                    )
                new_correct[sender] = {}
                continue
            new_correct[sender] = (
                perturb_links(outbox, self._n, fate) if link_chaos else outbox
            )
        if not link_chaos:
            return new_correct, byz_outboxes
        new_byz = {
            sender: perturb_links(outbox, self._n, fate)
            for sender, outbox in byz_outboxes.items()
        }
        return new_correct, new_byz

    # ---------------------------------------------------------------- helpers

    def _corrupt(self, rng, message):
        """Flip 1–3 bits of the wire encoding and re-decode.

        Returns the decoded (possibly type-confused) message, the original
        message when the codec does not know its type (Byzantine senders may
        emit arbitrary objects), or ``None`` when the corrupted frame no
        longer parses — the link layer's checksum would have discarded it.
        """
        # Lazy import: the codec lives above the simulator substrate.
        from ..wire import WireError, decode_message, encode_message

        try:
            blob = bytearray(encode_message(message))
        except WireError:
            return message
        flips = rng.randrange(1, 4)
        for _ in range(flips):
            position = rng.randrange(len(blob) * 8)
            blob[position // 8] ^= 1 << (position % 8)
        try:
            corrupted = decode_message(bytes(blob))
        except WireError:
            return None
        self.report.corrupted += 1
        return corrupted
