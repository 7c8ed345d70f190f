"""Tests for the agreement substrates: Byzantine AA and EIG."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import standard_ids
from repro import SystemParams, run_protocol
from repro.adversary import make_adversary
from repro.agreement import (
    DEFAULT_VALUE,
    ApproximateAgreement,
    EIGInteractiveConsistency,
    initial_values_factory,
    make_identified_factory,
)
from repro.sim import ProcessContext


def aa_run(n, t, values_by_id, rounds, attack="silent", seed=0, ids=None):
    ids = ids or sorted(values_by_id)
    return run_protocol(
        initial_values_factory(values_by_id, rounds=rounds),
        n=n,
        t=t,
        ids=ids,
        adversary=make_adversary(attack) if t else None,
        seed=seed,
    )


class TestApproximateAgreement:
    def test_validity_range_containment(self):
        values = {10: Fraction(0), 20: Fraction(4), 30: Fraction(8),
                  40: Fraction(2), 50: Fraction(6), 60: Fraction(1), 70: Fraction(3)}
        result = aa_run(7, 2, values, rounds=5, attack="noise")
        correct_inputs = [values[result.ids[i]] for i in result.correct]
        for index in result.correct:
            assert min(correct_inputs) <= result.outputs[index] <= max(correct_inputs)

    def test_convergence_rate_at_least_sigma(self):
        params = SystemParams(7, 2)
        values = {identifier: Fraction(identifier) for identifier in standard_ids(7)}
        rounds = 6
        result = aa_run(7, 2, values, rounds=rounds, attack="noise", seed=3)
        outputs = [result.outputs[i] for i in result.correct]
        initial_spread = Fraction(60)
        final_spread = max(outputs) - min(outputs)
        assert final_spread <= initial_spread / params.sigma**rounds

    def test_fault_free_single_round_converges(self):
        values = {identifier: Fraction(identifier) for identifier in standard_ids(5)}
        result = aa_run(5, 0, values, rounds=1)
        outputs = {result.outputs[i] for i in result.correct}
        assert len(outputs) == 1

    def test_agreement_unaffected_by_silent_faults(self):
        values = {identifier: Fraction(identifier) for identifier in standard_ids(7)}
        result = aa_run(7, 2, values, rounds=6, attack="silent")
        outputs = [result.outputs[i] for i in result.correct]
        assert max(outputs) - min(outputs) < Fraction(1)

    def test_requires_n_over_2t(self):
        with pytest.raises(ValueError):
            run_protocol(
                initial_values_factory({1: Fraction(0), 2: Fraction(0),
                                        3: Fraction(0), 4: Fraction(0)}, rounds=2),
                n=4,
                t=2,
                ids=[1, 2, 3, 4],
                seed=0,
            )

    def test_rejects_zero_rounds(self):
        from repro.sim import ProcessContext

        with pytest.raises(ValueError):
            ApproximateAgreement(
                ProcessContext(n=5, t=1, my_id=1), initial=Fraction(0), rounds=0
            )

    @settings(max_examples=20, deadline=None)
    @given(
        values=st.lists(
            st.fractions(min_value=-50, max_value=50), min_size=7, max_size=7
        ),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_property_validity_and_contraction(self, values, seed):
        ids = standard_ids(7)
        values_by_id = dict(zip(ids, values))
        result = aa_run(7, 2, values_by_id, rounds=4, attack="rank-skew", seed=seed)
        correct_inputs = [values_by_id[result.ids[i]] for i in result.correct]
        lo, hi = min(correct_inputs), max(correct_inputs)
        outputs = [result.outputs[i] for i in result.correct]
        assert all(lo <= out <= hi for out in outputs)
        assert max(outputs) - min(outputs) <= (hi - lo) / 2**4 + Fraction(1, 10**9)


class TestEIG:
    def eig_factory(self, n, ids, seed, values_by_id):
        return make_identified_factory(
            n,
            ids,
            seed,
            lambda ctx, me, links: EIGInteractiveConsistency(
                ctx, me, links, value=values_by_id[ctx.my_id]
            ),
        )

    @pytest.mark.parametrize("attack", ["silent", "noise", "replay"])
    def test_interactive_consistency(self, attack):
        n, t, seed = 7, 2, 4
        ids = standard_ids(n)
        values = {identifier: identifier * 3 for identifier in ids}
        result = run_protocol(
            self.eig_factory(n, ids, seed, values),
            n=n,
            t=t,
            ids=ids,
            adversary=make_adversary(attack),
            seed=seed,
        )
        vectors = [result.outputs[i] for i in result.correct]
        # Agreement: all correct processes output the same vector.
        assert len(set(vectors)) == 1
        # Validity: correct slots carry the real values.
        vector = vectors[0]
        for index in result.correct:
            assert vector[index] == values[result.ids[index]]

    def test_round_complexity_t_plus_one(self):
        n, t, seed = 7, 2, 5
        ids = standard_ids(n)
        values = {identifier: 1 for identifier in ids}
        result = run_protocol(
            self.eig_factory(n, ids, seed, values),
            n=n,
            t=t,
            ids=ids,
            seed=seed,
        )
        assert result.metrics.round_count == t + 1

    def test_requires_n_over_3t(self):
        from repro.sim import ProcessContext

        with pytest.raises(ValueError):
            EIGInteractiveConsistency(
                ProcessContext(n=6, t=2, my_id=1), 0, {}, value=1
            )


def sorted_counts_resolve(tree, n, rounds, path):
    """The EIG resolver as written before the majority count: counts sorted
    by value, the first strictly larger count wins, then the strict-majority
    test. The oracle for :meth:`EIGInteractiveConsistency._resolve`."""
    if len(path) == rounds:
        return tree.get(path, DEFAULT_VALUE)
    children = [
        sorted_counts_resolve(tree, n, rounds, path + (j,))
        for j in range(n)
        if j not in path
    ]
    counts = {}
    for child in children:
        counts[child] = counts.get(child, 0) + 1
    best, best_count = DEFAULT_VALUE, 0
    for value, count in sorted(counts.items()):
        if count > best_count:
            best, best_count = value, count
    if best_count * 2 > len(children):
        return best
    return DEFAULT_VALUE


@st.composite
def eig_trees(draw):
    """``(tree, n, rounds)``: every path of distinct indices up to depth
    ``rounds``, each present with a value from a tiny pool (ties, negative
    ints, bools equal to 0/1) or missing."""
    rounds = draw(st.integers(1, 3))
    n = draw(st.integers(rounds + 1, rounds + 3))
    values = st.sampled_from([-2, -1, 0, 1, 2, 7, True, False])
    pool = draw(st.lists(values, min_size=1, max_size=3))
    tree = {}
    frontier = [()]
    for _ in range(rounds):
        frontier = [path + (j,) for path in frontier for j in range(n) if j not in path]
        for path in frontier:
            if draw(st.integers(0, 4)):  # 1 in 5 missing
                tree[path] = draw(st.sampled_from(pool))
    return tree, n, rounds


class TestEIGResolve:
    @settings(max_examples=300, deadline=None)
    @given(eig_trees())
    def test_majority_count_matches_sorted_counts(self, case):
        tree, n, rounds = case
        process = EIGInteractiveConsistency.__new__(EIGInteractiveConsistency)
        process.ctx = ProcessContext(n=n, t=rounds - 1, my_id=1)
        process.tree = tree
        process.rounds = rounds
        for j in range(n):
            got = process._resolve((j,))
            want = sorted_counts_resolve(tree, n, rounds, (j,))
            assert got == want and type(got) is type(want)

    def test_single_round_reads_the_leaves(self):
        """t=0: the level-1 paths are the leaves themselves."""
        process = EIGInteractiveConsistency.__new__(EIGInteractiveConsistency)
        process.ctx = ProcessContext(n=3, t=0, my_id=1)
        process.tree = {(0,): 5, (2,): 9}
        process.rounds = 1
        assert [process._resolve((j,)) for j in range(3)] == [5, DEFAULT_VALUE, 9]
