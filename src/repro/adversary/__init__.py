"""Byzantine attack strategies for the fault slots of a run.

The library covers the adversarial constructions used in the paper's own
proofs (id forging for Lemma IV.3, vote skew for Lemma IV.8, selective
echoing for Lemma VI.1), the benign anchors (silent, conforming, crash), and
generic robustness noise. Use :func:`make_adversary` / the name lists for
sweeps.
"""

from .aa_attacks import ValueSplitAdversary
from .base import ConformingAdversary, ProtocolDrivenAdversary, per_link_outbox
from .divergence import AsymmetricForgingAdversary, DivergenceAdversary
from .equivocation import SplitWorldAdversary
from .fast_attacks import SelectiveEchoAdversary
from .forging import IdForgingAdversary, forge_fake_ids, plan_announcements
from .fuzz import FuzzAdversary
from .passive import CrashAdversary, SilentAdversary
from .rank_attacks import (
    BoundaryVoteAdversary,
    OrderInversionAdversary,
    RankCompressionAdversary,
    RankSkewAdversary,
)
from .registry import (
    ALG1_ATTACKS,
    ALG4_ATTACKS,
    adversary_names,
    make_adversary,
    register,
)
from .spam import RandomNoiseAdversary, ReplayAdversary

__all__ = [
    "ALG1_ATTACKS",
    "ALG4_ATTACKS",
    "AsymmetricForgingAdversary",
    "BoundaryVoteAdversary",
    "DivergenceAdversary",
    "ConformingAdversary",
    "CrashAdversary",
    "FuzzAdversary",
    "IdForgingAdversary",
    "OrderInversionAdversary",
    "ProtocolDrivenAdversary",
    "RandomNoiseAdversary",
    "RankCompressionAdversary",
    "RankSkewAdversary",
    "ReplayAdversary",
    "SelectiveEchoAdversary",
    "SilentAdversary",
    "SplitWorldAdversary",
    "ValueSplitAdversary",
    "adversary_names",
    "forge_fake_ids",
    "make_adversary",
    "per_link_outbox",
    "plan_announcements",
    "register",
]
