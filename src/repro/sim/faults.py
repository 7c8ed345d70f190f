"""Adversary interface: how faulty process slots are driven.

The simulator gives the adversary the strongest standard synchronous powers:

* it controls all ``t`` faulty slots jointly (full collusion);
* it knows the whole configuration — every process's original id, the
  complete link labelling, and the protocol being run;
* it is *rushing*: in each round it chooses the faulty processes' messages
  after observing every correct process's messages for that same round;
* each faulty slot can send arbitrary, mutually contradictory messages on
  each of its links (equivocation), or stay silent.

Concrete attack strategies live in :mod:`repro.adversary`; this module only
defines the contract the runner speaks, so that the simulator substrate has no
dependency on any particular attack.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, Mapping, Sequence, Tuple

from .errors import ConfigurationError
from .process import Inbox, Outbox, Process
from .topology import FullMeshTopology


@dataclass
class AdversaryContext:
    """Run configuration revealed to the adversary (i.e., everything).

    ``make_process`` builds a fresh *correct* protocol instance for a given
    global index — used by conforming/crash strategies that run the real
    protocol and deviate only in when/what they transmit.
    """

    n: int
    t: int
    byzantine: Tuple[int, ...]
    ids: Mapping[int, int]
    topology: FullMeshTopology
    rng: Random
    make_process: Callable[[int], Process]

    @property
    def correct(self) -> Tuple[int, ...]:
        """Global indices of the correct processes."""
        byz = set(self.byzantine)
        return tuple(i for i in range(self.n) if i not in byz)

    def correct_ids(self) -> Tuple[int, ...]:
        """Original ids held by correct processes, ascending."""
        return tuple(sorted(self.ids[i] for i in self.correct))


class Adversary(ABC):
    """Drives the faulty slots of a run.

    The runner calls :meth:`bind` once, then each round :meth:`send` (with the
    rushing view of correct outboxes keyed by *global sender index*) and
    :meth:`observe` (with the inboxes delivered to faulty slots). ``send``
    returns, per faulty global index, an outbox keyed by that slot's local
    link labels — exactly the addressing a correct process uses, so Byzantine
    traffic flows through the same delivery path.
    """

    ctx: AdversaryContext

    #: Whether the runner should build faulty-slot inboxes and call
    #: :meth:`observe` each round. Adversaries that discard observations set
    #: this to ``False`` so the runner can skip the per-round freeze work.
    wants_observations: bool = True

    def bind(self, ctx: AdversaryContext) -> None:
        """Attach the run configuration. Called once before round 1."""
        self.ctx = ctx

    @abstractmethod
    def send(
        self, round_no: int, correct_outboxes: Mapping[int, Outbox]
    ) -> Dict[int, Outbox]:
        """Choose this round's Byzantine messages (rushing: sees correct ones)."""

    def observe(self, round_no: int, inboxes: Mapping[int, Inbox]) -> None:
        """Receive what was delivered to the faulty slots (optional hook)."""


class NullAdversary(Adversary):
    """Faulty slots that never send anything (pure omission of everything).

    Also the stand-in used when a run has no faulty slots at all.
    """

    wants_observations = False

    def send(
        self, round_no: int, correct_outboxes: Mapping[int, Outbox]
    ) -> Dict[int, Outbox]:
        return {}


def split_fault_slots(
    n: int, t: int, rng: Random, *, fixed: Sequence[int] = ()
) -> Tuple[int, ...]:
    """Pick which global indices are faulty.

    ``fixed`` pins specific indices (tests use this); the remainder are chosen
    uniformly at random from the rest. A pinned index outside ``range(n)``,
    or more than ``t`` of them, is a :class:`ConfigurationError`.
    """
    chosen = list(dict.fromkeys(fixed))
    for index in chosen:
        if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < n:
            raise ConfigurationError(
                f"fault slot {index!r} is not a process index in 0..{n - 1}"
            )
    if len(chosen) > t:
        raise ConfigurationError(f"{len(chosen)} fixed fault slots exceed t={t}")
    pool = [i for i in range(n) if i not in chosen]
    rng.shuffle(pool)
    chosen.extend(pool[: t - len(chosen)])
    return tuple(sorted(chosen))
