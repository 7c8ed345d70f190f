"""Deterministic random-stream derivation.

Every source of randomness in a run (topology shuffling, adversary choices,
workload generation, crash schedules) draws from an independent stream derived
from a single integer *run seed* plus a tuple of string/int tokens naming the
consumer. Runs are therefore reproducible bit-for-bit from the seed alone, and
adding a new randomness consumer never perturbs the streams of existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

Token = Union[str, int]


def derive_seed(seed: int, *tokens: Token) -> int:
    """Derive a 64-bit child seed from ``seed`` and a token path.

    The derivation is a SHA-256 hash of a canonical encoding, so it is stable
    across Python versions and platforms (unlike ``hash()``).
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(seed)).encode("ascii"))
    for token in tokens:
        hasher.update(b"/")
        hasher.update(repr(token).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


def derive_rng(seed: int, *tokens: Token) -> random.Random:
    """Return a :class:`random.Random` seeded from ``derive_seed``."""
    return random.Random(derive_seed(seed, *tokens))
