"""Tests for the shared convergence analytics."""

from __future__ import annotations

from fractions import Fraction

from helpers import standard_ids
from repro import OrderPreservingRenaming, SystemParams, run_protocol
from repro.adversary import make_adversary
from repro.analysis import (
    contraction_factors,
    spread_for_ids,
    spread_series,
)


def traced_run(attack="divergence-valid", seed=0):
    return run_protocol(
        OrderPreservingRenaming,
        n=7,
        t=2,
        ids=standard_ids(7),
        adversary=make_adversary(attack),
        seed=seed,
        collect_trace=True,
    )


class TestSpreadSeries:
    def test_covers_selection_and_voting_rounds(self):
        result = traced_run()
        series = spread_series(result)
        params = SystemParams(7, 2)
        assert sorted(series) == list(range(4, params.total_rounds + 1))

    def test_monotone_under_valid_attack(self):
        series = spread_series(traced_run())
        ordered = [series[k] for k in sorted(series)]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))

    def test_untraced_returns_empty(self):
        result = run_protocol(
            OrderPreservingRenaming, n=7, t=2, ids=standard_ids(7), seed=0
        )
        assert spread_series(result) == {}

    def test_restricting_ids(self):
        result = traced_run()
        one_id = sorted(result.ids[i] for i in result.correct)[:1]
        series = spread_series(result, ids=one_id)
        full = spread_series(result)
        for round_no, spread in series.items():
            assert spread <= full[round_no]


class TestSpreadForIds:
    def test_basic(self):
        snapshots = [{1: Fraction(0), 2: Fraction(5)}, {1: Fraction(2), 2: Fraction(5)}]
        assert spread_for_ids(snapshots, [1, 2]) == Fraction(2)

    def test_missing_ids_skipped(self):
        snapshots = [{1: Fraction(0)}, {2: Fraction(9)}]
        assert spread_for_ids(snapshots, [1, 2]) is None


class TestContractionFactors:
    def test_from_dict(self):
        series = {4: Fraction(8), 5: Fraction(4), 6: Fraction(2)}
        assert contraction_factors(series) == [2.0, 2.0]

    def test_from_sequence_with_zero(self):
        assert contraction_factors([Fraction(4), Fraction(0)]) == [float("inf")]

    def test_measured_contraction_at_least_realized_sigma(self):
        result = traced_run()
        series = spread_series(result)
        params = SystemParams(7, 2)
        voting_only = {k: v for k, v in series.items() if k >= 5}
        factors = contraction_factors(voting_only)
        assert all(f >= params.realized_sigma - 1e-9 for f in factors)
