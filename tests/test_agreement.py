"""Tests for the agreement substrates: Byzantine AA and EIG."""

from __future__ import annotations

import gc
import itertools
import random
import weakref
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
    EIGBroadcast,
    EIGInteractiveConsistency,
    RelayMessage,
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


def relay_entries(rng, n, level):
    """A relay's entries at ``level``: most paths of ``level`` distinct
    indices (some with the sender inside, or off the broadcast's source), a
    few repeated with another value, and one malformed path, each with a
    value from a tiny pool holding a non-int."""
    paths = list(itertools.permutations(range(n), level))
    values = [-1, 0, 1, 2, True, 1.5]
    entries = [(path, rng.choice(values)) for path in paths if rng.random() < 0.8]
    entries += [(rng.choice(paths), rng.choice(values)) for _ in range(rng.randint(0, 2))]
    entries.append(((n,) + paths[0][1:] if level else (0,), rng.choice(values)))
    return tuple(entries)


def plain_tree(n, source, links, inboxes, root):
    """The tree as gathered before resolution was shared: each link's first
    relay in ascending link order, every well-formed entry with an int
    value, all levels entered."""
    tree = dict(root)
    for level, inbox in enumerate(inboxes):
        for link in sorted(inbox):
            sender = links.get(link)
            relays = [m for m in inbox[link] if isinstance(m, RelayMessage)]
            if sender is None or not relays:
                continue
            for path, value in relays[0].entries:
                well_formed = (
                    len(path) == level
                    and len(set(path)) == level
                    and sender not in path
                    and all(0 <= j < n for j in path)
                )
                if source is not None:
                    scoped = sender == source if level == 0 else path[:1] == (source,)
                    well_formed = well_formed and scoped
                if well_formed and isinstance(value, int):
                    tree[path + (sender,)] = value
    return tree


@st.composite
def receivers_of_one_pool(draw):
    """``(n, t, source, receivers)``: one run's canonical relays, one per
    level and sender, and 2-4 receivers, each ``(my_index, links,
    inboxes)`` with its own link labels (one may be unknown). Half of the
    receivers get exactly the canonical relays on every link; the others
    miss some links and get distinct objects on some, equal copies or
    other entries."""
    t = draw(st.integers(0, 2))
    n = draw(st.integers(max(2, 3 * t + 1), 3 * t + 2))
    rng = draw(st.randoms(use_true_random=False))
    pool = {
        (level, sender): RelayMessage(entries=relay_entries(rng, n, level))
        for level in range(t + 1)
        for sender in range(n)
    }
    receivers = []
    for my_index in rng.sample(range(n), draw(st.integers(2, min(n, 4)))):
        senders = rng.sample(range(n), n)
        links = {link: sender for link, sender in enumerate(senders, start=1)}
        if rng.random() < 0.2:
            del links[rng.randint(1, n)]
        noisy = rng.random() < 0.5
        inboxes = []
        for level in range(t + 1):
            inbox = {}
            for link, sender in enumerate(senders, start=1):
                relay, roll = pool[level, sender], rng.random()
                if noisy and roll < 0.15:
                    continue
                if noisy and roll < 0.25:
                    relay = RelayMessage(entries=relay.entries)
                elif noisy and roll < 0.35:
                    relay = RelayMessage(entries=relay_entries(rng, n, level))
                inbox[link] = (relay,)
            inboxes.append(inbox)
        receivers.append((my_index, links, inboxes))
    return n, t, rng.randrange(n), receivers


def feed(process, inboxes):
    for level, inbox in enumerate(inboxes):
        process.deliver(level + 1, inbox)
    return process.output_value


def broadcast_receiver(n, t, source, my_index, links):
    ctx = ProcessContext(n=n, t=t, my_id=my_index + 1)
    value = 5 if my_index == source else None
    return EIGBroadcast(ctx, source, my_index, links, value)


class TestEIGSharedResolve:
    """Receivers holding the very same relays share one resolution per
    instance (DESIGN.md §8): each must still get exactly what resolving its
    own fully gathered tree gives."""

    @settings(max_examples=80, deadline=None)
    @given(receivers_of_one_pool())
    def test_broadcast_receivers_get_their_plain_resolution(self, case):
        n, t, source, receivers = case
        for my_index, links, inboxes in receivers:
            got = feed(broadcast_receiver(n, t, source, my_index, links), inboxes)
            if my_index == source:
                want = 5
            else:
                tree = plain_tree(n, source, links, inboxes, {})
                want = sorted_counts_resolve(tree, n, t + 1, (source,))
            assert got == want and type(got) is type(want)

    @settings(max_examples=80, deadline=None)
    @given(receivers_of_one_pool())
    def test_interactive_consistency_receivers_get_their_plain_vectors(self, case):
        n, t, _, receivers = case
        for my_index, links, inboxes in receivers:
            process = EIGInteractiveConsistency(
                ProcessContext(n=n, t=t, my_id=my_index + 1), my_index, links, 9
            )
            got = feed(process, inboxes)
            tree = plain_tree(n, None, links, inboxes, {(): 9})
            want = tuple(
                9 if j == my_index else sorted_counts_resolve(tree, n, t + 1, (j,))
                for j in range(n)
            )
            assert [(v, type(v)) for v in got] == [(v, type(v)) for v in want]

    N, T, SOURCE = 7, 2, 3

    @classmethod
    def _pool(cls):
        """One canonical relay per level and sender."""
        rng = random.Random(4)
        return {
            (level, sender): RelayMessage(entries=relay_entries(rng, cls.N, level))
            for level in range(cls.T + 1)
            for sender in range(cls.N)
        }

    @classmethod
    def _inboxes(cls, pool, links):
        """Each level's inbox: the pool's relay of every link's sender."""
        return [
            {link: (pool[level, sender],) for link, sender in sorted(links.items())}
            for level in range(cls.T + 1)
        ]

    @classmethod
    def _receiver(cls, my_index, links):
        return broadcast_receiver(cls.N, cls.T, cls.SOURCE, my_index, links)

    def _count_walks(self, monkeypatch):
        roots = []
        resolve = EIGBroadcast._resolve

        def counted(self, path):
            if len(path) == 1:
                roots.append(path)
            return resolve(self, path)

        monkeypatch.setattr(EIGBroadcast, "_resolve", counted)
        return roots

    def test_equal_but_distinct_relays_never_share_an_entry(self, monkeypatch):
        roots = self._count_walks(monkeypatch)
        pool = self._pool()
        links = {link: link - 1 for link in range(1, self.N + 1)}
        reversed_links = {link: self.N - link for link in range(1, self.N + 1)}
        copies = {key: RelayMessage(entries=m.entries) for key, m in pool.items()}
        first, theirs = self._receiver(0, links), self._receiver(1, links)
        again = self._receiver(2, reversed_links)
        assert (
            feed(first, self._inboxes(pool, links))
            == feed(theirs, self._inboxes(copies, links))
            == feed(again, self._inboxes(pool, reversed_links))
        )
        assert roots == [(self.SOURCE,)] * 2
        # The receiver that reused the resolution never entered the leaves.
        assert max(map(len, again.tree)) == self.T < max(map(len, first.tree))
        for relay in copies.values():
            for others, _ in relay.once_per_key("resolutions", dict).values():
                assert not any(a is b for a in others for b in pool.values())

    def test_the_same_relays_from_other_senders_resolve_apart(self):
        """One set of relay objects, but the second receiver's link labels
        put the source's claim and one report on other senders: it must not
        reuse the first receiver's resolution."""
        n, t, source = 4, 1, 0
        claim = RelayMessage(entries=(((), 5),))
        reports = [RelayMessage(entries=(((0,), v),)) for v in (5, 5, 7)]
        inboxes = [{1: (claim,)}, {2: (reports[0],), 3: (reports[1],), 4: (reports[2],)}]
        plain = {1: 0, 2: 1, 3: 2, 4: 3}
        swapped = {1: 1, 2: 0, 3: 2, 4: 3}
        assert feed(broadcast_receiver(n, t, source, 1, plain), inboxes) == 5
        assert feed(broadcast_receiver(n, t, source, 2, swapped), inboxes) == DEFAULT_VALUE

    def test_the_memo_does_not_outlive_the_run(self):
        pool = self._pool()
        links = {link: link - 1 for link in range(1, self.N + 1)}
        inboxes = self._inboxes(pool, links)
        receivers = [self._receiver(i, links) for i in range(3)]
        assert len({feed(receiver, inboxes) for receiver in receivers}) == 1
        assert any(relay.once_per_key("resolutions", dict) for relay in pool.values())
        watched = [weakref.ref(relay) for relay in pool.values()]
        del pool, inboxes, receivers
        gc.collect()
        assert [ref() for ref in watched] == [None] * len(watched)

    def test_a_source_without_relays_resolves_to_the_default(self, monkeypatch):
        def walk(self, path):
            raise AssertionError("an empty instance walked its tree")

        monkeypatch.setattr(EIGBroadcast, "_resolve", walk)
        n, t = 10, 3
        links = {link: link - 1 for link in range(1, n + 1)}
        receiver = broadcast_receiver(n, t, 4, 0, links)
        assert feed(receiver, [{}] * (t + 1)) == DEFAULT_VALUE
