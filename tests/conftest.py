"""Pytest fixtures for the test suite.

Importable helpers live in tests/helpers.py; this file only registers
fixtures (pytest loads it by path, so it must not be imported by name).
"""

from __future__ import annotations

import pytest

from helpers import PRIVATE_COPY_ENGINE, standard_ids
from repro.sim import ENGINES


@pytest.fixture
def ids7():
    """Seven evenly spaced ids (the canonical N=7, t=2 configuration)."""
    return standard_ids(7)


@pytest.fixture
def ids11():
    """Eleven evenly spaced ids (the canonical N=11, t=2 configuration for
    Alg. 4, which needs N > 2t^2 + t)."""
    return standard_ids(11)


@pytest.fixture
def no_sharing_engine(monkeypatch):
    """Register ``helpers.PRIVATE_COPY_ENGINE``, so a comparison over every
    registered engine also checks the run with no object shared between
    recipients: a perturber that leaves an outbox untouched passes its
    broadcast on to the shared tuples and round memos (DESIGN.md §8)."""
    monkeypatch.setitem(ENGINES, "private-copy", PRIVATE_COPY_ENGINE)
