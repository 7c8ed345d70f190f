"""Unit and property tests for the isValid vote filter (Alg. 2)."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.core import SystemParams, is_valid_ranks
from repro.core.validation import OrderedIds

DELTA = SystemParams(7, 2).delta


def spaced_ranks(ids, delta=DELTA, start=Fraction(1)):
    return {identifier: start + index * delta for index, identifier in enumerate(ids)}


class TestIsValid:
    def test_accepts_exact_delta_spacing(self):
        ranks = spaced_ranks([10, 20, 30])
        assert is_valid_ranks([10, 20, 30], ranks, DELTA)

    def test_accepts_wider_spacing(self):
        ranks = spaced_ranks([10, 20, 30], delta=2 * DELTA)
        assert is_valid_ranks([10, 20, 30], ranks, DELTA)

    def test_rejects_missing_timely_id(self):
        ranks = spaced_ranks([10, 30])
        assert not is_valid_ranks([10, 20, 30], ranks, DELTA)

    def test_rejects_too_tight_spacing(self):
        ranks = {10: Fraction(1), 20: Fraction(1) + DELTA / 2}
        assert not is_valid_ranks([10, 20], ranks, DELTA)

    def test_rejects_inverted_order(self):
        ranks = {10: Fraction(5), 20: Fraction(1)}
        assert not is_valid_ranks([10, 20], ranks, DELTA)

    def test_rejects_equal_ranks(self):
        ranks = {10: Fraction(3), 20: Fraction(3)}
        assert not is_valid_ranks([10, 20], ranks, DELTA)

    def test_extra_non_timely_ids_unconstrained(self):
        # Ranks may contain ids outside timely in any arrangement.
        ranks = spaced_ranks([10, 20, 30])
        ranks[99] = Fraction(-100)
        ranks[98] = ranks[10]  # clashes with a timely rank but 98 not timely
        assert is_valid_ranks([10, 20, 30], ranks, DELTA)

    def test_empty_timely_accepts_anything(self):
        assert is_valid_ranks([], {}, DELTA)
        assert is_valid_ranks([], {5: Fraction(1)}, DELTA)

    def test_single_timely_id_needs_presence_only(self):
        assert is_valid_ranks([10], {10: Fraction(-5)}, DELTA)
        assert not is_valid_ranks([10], {}, DELTA)

    def test_a_float_rank_is_judged_by_its_exact_value(self):
        # The float difference rounds up to δ; the exact one falls short.
        ranks = {10: Fraction(-118, 17), 20: -5.904139433551198}
        assert ranks[20] - ranks[10] >= DELTA
        assert Fraction(ranks[20]) - ranks[10] < DELTA
        assert not is_valid_ranks([10, 20], ranks, DELTA)

    def test_duplicate_timely_entries_deduplicated(self):
        ranks = spaced_ranks([10, 20])
        assert is_valid_ranks([10, 10, 20], ranks, DELTA)


class TestIsValidProperties:
    @given(
        ids=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1,
                     max_size=12, unique=True),
        start=st.fractions(min_value=-100, max_value=100),
    )
    def test_honest_construction_always_valid(self, ids, start):
        """Any δ-spaced layout over the timely set passes — the Lemma IV.4
        shape: correct processes always produce valid votes."""
        ranks = spaced_ranks(sorted(ids), start=start)
        assert is_valid_ranks(ids, ranks, DELTA)

    @given(
        ids=st.lists(st.integers(min_value=1, max_value=10**6), min_size=2,
                     max_size=12, unique=True),
        shift=st.fractions(min_value=-1000, max_value=1000),
    )
    def test_uniform_shift_preserves_validity(self, ids, shift):
        """Uniform shifts keep spacing — the RankSkew attack is valid traffic."""
        ranks = spaced_ranks(sorted(ids))
        shifted = {identifier: rank + shift for identifier, rank in ranks.items()}
        assert is_valid_ranks(ids, shifted, DELTA)

    @given(
        ids=st.lists(st.integers(min_value=1, max_value=10**6), min_size=2,
                     max_size=12, unique=True),
        data=st.data(),
    )
    def test_swapping_any_adjacent_pair_invalidates(self, ids, data):
        """Every pairwise inversion is caught (the OrderInversion attack is
        always filtered)."""
        ordered = sorted(ids)
        ranks = spaced_ranks(ordered)
        position = data.draw(st.integers(min_value=0, max_value=len(ordered) - 2))
        a, b = ordered[position], ordered[position + 1]
        ranks[a], ranks[b] = ranks[b], ranks[a]
        assert not is_valid_ranks(ids, ranks, DELTA)

    @given(
        ids=st.lists(st.integers(min_value=1, max_value=10**6), min_size=2,
                     max_size=10, unique=True),
        data=st.data(),
    )
    def test_dropping_any_timely_id_invalidates(self, ids, data):
        ranks = spaced_ranks(sorted(ids))
        victim = data.draw(st.sampled_from(sorted(ids)))
        del ranks[victim]
        assert not is_valid_ranks(ids, ranks, DELTA)


def all_pairs_is_valid(timely, ranks, delta):
    """The paper's Alg. 2 verbatim: every timely id present, every ordered
    pair of timely ids at least δ apart."""
    ids = set(timely)
    if any(identifier not in ranks for identifier in ids):
        return False
    return all(
        ranks[larger] - ranks[smaller] >= delta
        for smaller in ids
        for larger in ids
        if smaller < larger
    )


@st.composite
def spacing_cases(draw, gap_st, start_st):
    """``(timely, ranks)``: ranks built from consecutive gaps that straddle
    δ — exactly δ, just under, zero, negative — plus extra non-timely ids and
    an occasional missing timely id."""
    ids = draw(st.lists(st.integers(1, 10**6), min_size=0, max_size=10, unique=True))
    ordered = sorted(ids)
    rank = draw(start_st)
    ranks = {}
    for identifier in ordered:
        ranks[identifier] = rank
        rank = rank + draw(gap_st)
    extra_ids = st.integers(10**6 + 1, 2 * 10**6)
    extra = draw(st.dictionaries(extra_ids, start_st, max_size=3))
    ranks.update(extra)
    if ordered and draw(st.booleans()) and draw(st.booleans()):
        del ranks[draw(st.sampled_from(ordered))]
    timely = draw(st.permutations(ids + ids[:2]))  # order and duplicates vary
    return timely, ranks


EXACT_GAPS = st.sampled_from(
    [DELTA, DELTA - Fraction(1, 10**12), 2 * DELTA, DELTA + Fraction(1, 7),
     Fraction(0), -DELTA, DELTA / 2]
) | st.fractions(min_value=-3, max_value=5)


class TestFastPathMatchesAllPairs:
    """The cross-multiplied consecutive-pair check against the paper's
    all-pairs loop, on the inputs where they could disagree."""

    @given(spacing_cases(EXACT_GAPS, st.fractions(min_value=-50, max_value=50)))
    def test_fraction_ranks(self, case):
        timely, ranks = case
        expected = all_pairs_is_valid(timely, ranks, DELTA)
        assert is_valid_ranks(timely, ranks, DELTA) is expected
        assert is_valid_ranks(OrderedIds(timely), ranks, DELTA) is expected

    @given(
        spacing_cases(st.integers(-2, 3), st.integers(-50, 50)),
        st.sampled_from([Fraction(1), DELTA, Fraction(3, 2), Fraction(2), 1, 2]),
    )
    def test_int_ranks_with_fraction_or_int_threshold(self, case, delta):
        timely, ranks = case
        assert is_valid_ranks(timely, ranks, delta) is all_pairs_is_valid(
            timely, ranks, delta
        )

    @given(
        spacing_cases(
            EXACT_GAPS | st.floats(-3, 5),
            st.fractions(min_value=-50, max_value=50) | st.floats(-50, 50),
        )
    )
    def test_byzantine_floats_in_exact_mode(self, case):
        """A float rank is judged by its exact value, as the receive
        boundary reads it, not by float differences."""
        timely, ranks = case
        exact = {identifier: Fraction(rank) for identifier, rank in ranks.items()}
        assert is_valid_ranks(timely, ranks, DELTA) is all_pairs_is_valid(
            timely, exact, DELTA
        )

    def test_exactly_delta_spaced_accepted_just_under_rejected(self):
        ranks = spaced_ranks([10, 20, 30])
        assert is_valid_ranks(OrderedIds([30, 10, 20]), ranks, DELTA)
        ranks[30] -= Fraction(1, 10**30)
        assert not is_valid_ranks([10, 20, 30], ranks, DELTA)

    def test_ordered_ids_sorts_and_deduplicates(self):
        assert OrderedIds([30, 10, 20, 10]) == (10, 20, 30)
        assert type(OrderedIds([])) is OrderedIds
