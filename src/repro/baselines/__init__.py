"""Baseline algorithms the paper compares against.

* :class:`OkunCrashRenaming` — crash-tolerant order-preserving strong
  renaming [14], the algorithm this paper generalises.
* :class:`BitSplitRenaming` — CHT-style bit-by-bit strong renaming [6]
  (crash model, ``O(log N)`` decision latency).
* :class:`FloodSetRenaming` — ``t+1``-round exact crash renaming.
* :class:`TranslatedByzantineRenaming` — cost envelope of [15]: namespace
  ``2N``, echo-doubled rounds, non-order-preserving.
* :class:`ConsensusRenaming` — the introduction's strawman: EIG interactive
  consistency then rank (``t+1`` rounds, exponential messages).
"""

from .cht import BitSplitRenaming
from .consensus_renaming import ConsensusRenaming, consensus_renaming_factory
from .floodset import FloodSetRenaming
from .okun_crash import EXCHANGE_ROUNDS, OkunCrashRenaming
from .splitting import (
    ClaimMessage, Interval, IntervalSplitPhase, IntervalSplitter, interval_rounds,
)
from .translated_byzantine import TranslatedByzantineRenaming

__all__ = [
    "BitSplitRenaming",
    "ClaimMessage",
    "ConsensusRenaming",
    "EXCHANGE_ROUNDS",
    "FloodSetRenaming",
    "Interval",
    "IntervalSplitPhase",
    "IntervalSplitter",
    "OkunCrashRenaming",
    "TranslatedByzantineRenaming",
    "consensus_renaming_factory",
    "interval_rounds",
]
