"""Okun's crash-tolerant strong order-preserving renaming [14] (reconstruction).

The algorithm this paper generalises to Byzantine faults. Reconstructed from
the paper's own description (Section III): processes exchange ids, propose a
rank per id, and run per-id *approximate agreement* until all proposals sit
within a safe distance, then round.

Structure (crash model — every message content is honest):

* **Round 1** — broadcast the own id. Everything received is ``timely``.
* **Round 2** — echo all ids seen (union gossip). Everything received is
  ``known``; since a correct process's round-1 set is echoed to everyone,
  ``timely_p ⊆ known_q`` for correct ``p, q`` — the crash-model analogue of
  Lemma IV.1 that the δ-spacing validation relies on.
* **Rounds 3 …** — the same voting loop as Alg. 1, with *no trimming*
  (``trim=0``: honest votes need no Byzantine filtering, averaging the whole
  multiset maximises contraction) and the same ``isValid`` δ-spacing filter,
  which here only screens out stale vectors from processes that crashed
  before completing the exchange.

Round complexity ``2 + (3⌈log₂ t⌉ + 3)`` — the ``O(log f)``-flavoured
schedule of [14]/[1] — and namespace ``N`` (nobody can forge ids in the
crash model, so ``|known| ≤ N``): strong order-preserving renaming.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..core.approximation import approximate, nearest_int
from ..core.messages import (
    EchoMessage, IdMessage, Rank, RanksMessage, announced_ids, first_vote,
)
from ..core.params import SystemParams
from ..core.renaming import STABILITY_ROUNDS, votes_agree
from ..core.validation import VoteCheck, gather_votes, sound_ids_by_tuple
from ..sim.errors import SafetyViolation
from ..sim.process import Inbox, Outbox, Process, ProcessContext

#: Id-exchange rounds before voting starts.
EXCHANGE_ROUNDS = 2


class OkunCrashRenaming(Process):
    """A correct process running the reconstructed crash-fault algorithm.

    ``early_deciding=True`` enables the Alistarh-et-al.-style extension
    that [1] actually proved for this crash algorithm: freeze once every
    received vote agreed with the local ranks for
    :data:`~repro.core.renaming.STABILITY_ROUNDS` consecutive rounds.
    In the crash model every vote is honest, so unanimity directly means
    all live processes hold the common value — the fixed-point argument is
    immediate (and simpler than the Byzantine one in
    ``RenamingOptions.early_deciding``).
    """

    def __init__(
        self,
        ctx: ProcessContext,
        voting_rounds: Optional[int] = None,
        early_deciding: bool = False,
    ) -> None:
        super().__init__(ctx)
        self.params = SystemParams(ctx.n, ctx.t)
        self.delta = self.params.delta
        self.voting_rounds = (
            self.params.voting_rounds if voting_rounds is None else voting_rounds
        )
        self.total_rounds = EXCHANGE_ROUNDS + self.voting_rounds
        self.timely: Set[int] = set()
        self._check = VoteCheck((), self.delta)  # isValid on timely, after round 1
        self.known: Set[int] = set()
        self.ranks: Dict[int, Rank] = {}
        self.early_deciding = early_deciding
        self._stable_rounds = 0
        self.frozen_at: Optional[int] = None

    # ------------------------------------------------------------------ rounds

    def send(self, round_no: int) -> Outbox:
        if round_no == 1:
            return self.broadcast(IdMessage(self.ctx.my_id))
        if round_no == 2:
            return self.broadcast(
                *[EchoMessage(identifier) for identifier in sorted(self.timely)]
            )
        return self.broadcast(RanksMessage.from_dict(self.ranks))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        if round_no == 1:
            self.timely.update(identifier for _, identifier in announced_ids(inbox))
            self.known = set(self.timely)
            self._check = VoteCheck(self.timely, self.delta)
        elif round_no == 2:
            for ids, _ in sound_ids_by_tuple(inbox, EchoMessage):
                self.known.update(ids)
            self._initialise_ranks()
        else:
            self._voting_step(round_no, inbox)
            if round_no == self.total_rounds:
                own_rank = self.ranks.get(self.ctx.my_id)
                if own_rank is None:
                    # In the crash model the own id is always timely (the
                    # self-loop is reliable) and δ-validation keeps it in
                    # every accepted vote; only beyond-model message loss
                    # can fold it out of the rank vector.
                    raise SafetyViolation(
                        f"own id {self.ctx.my_id} lost from the rank vector"
                        " — cannot happen in the crash model",
                        violated="invariant",
                        round_no=round_no,
                        ids=(self.ctx.my_id,),
                    )
                self.output_value = nearest_int(own_rank)

    # ------------------------------------------------------------- phase logic

    def _initialise_ranks(self) -> None:
        ordered = sorted(self.known)
        self.ranks = {
            identifier: position * self.delta
            for position, identifier in enumerate(ordered, start=1)
        }
        self.ctx.log(EXCHANGE_ROUNDS, "known", tuple(ordered))
        self.ctx.log(EXCHANGE_ROUNDS, "ranks", dict(self.ranks))

    def _voting_step(self, round_no: int, inbox: Inbox) -> None:
        votes = gather_votes(inbox, self._check, first_vote)
        if self.frozen_at is not None:
            return  # frozen: keep broadcasting, stop folding
        if self.early_deciding and self._check_stability(round_no, votes):
            return
        self.ranks, self.known = approximate(
            self.ranks, set(self.known), votes, self.ctx.n, self.ctx.t, trim=0
        )
        self.ctx.log(round_no, "ranks", dict(self.ranks))

    def _check_stability(self, round_no: int, votes) -> bool:
        if votes and votes_agree(votes, self.ranks, self.known):
            self._stable_rounds += 1
        else:
            self._stable_rounds = 0
        if self._stable_rounds >= STABILITY_ROUNDS:
            self.frozen_at = round_no
            self.ctx.log(round_no, "early_frozen", dict(self.ranks))
            return True
        return False
