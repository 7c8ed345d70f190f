"""Unit tests for the Process base class and its helpers."""

from __future__ import annotations

from copy import deepcopy

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import expand_links
from repro.core.messages import EchoMessage, IdMessage
from repro.sim import BROADCAST, Process, ProcessContext, group_links, ordered_links
from repro.sim.process import perturb_links


class Trivial(Process):
    def send(self, round_no):
        return {}

    def deliver(self, round_no, inbox):
        pass


class TestProcessBase:
    def test_broadcast_helper(self):
        outbox = Process.broadcast(IdMessage(1), IdMessage(2))
        assert outbox == {BROADCAST: [IdMessage(1), IdMessage(2)]}

    def test_done_flag(self):
        process = Trivial(ProcessContext(n=3, t=0, my_id=1))
        assert not process.done
        process.output_value = 5
        assert process.done

    def test_zero_output_counts_as_done(self):
        # `done` must test for None, not truthiness: 0 is a valid output.
        process = Trivial(ProcessContext(n=3, t=0, my_id=1))
        process.output_value = 0
        assert process.done


class TestProcessContext:
    def test_self_link_is_n(self):
        assert ProcessContext(n=9, t=2, my_id=5).self_link == 9

    def test_log_noop_without_trace(self):
        ctx = ProcessContext(n=3, t=0, my_id=1)
        ctx.log(1, "event", "detail")  # must not raise

    def test_log_forwards_to_trace(self):
        seen = []
        ctx = ProcessContext(
            n=3, t=0, my_id=1, trace=lambda r, e, d: seen.append((r, e, d))
        )
        ctx.log(4, "ranks", {"x": 1})
        assert seen == [(4, "ranks", {"x": 1})]

    def test_default_rng_is_deterministic(self):
        # A factory that forgets to derive an rng must still yield
        # reproducible runs: the default is a fixed-seed generator, and every
        # context gets its own instance (no shared stream between processes).
        a = ProcessContext(n=3, t=0, my_id=1)
        b = ProcessContext(n=3, t=0, my_id=2)
        assert a.rng is not b.rng
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]


class TestOrderedLinks:
    def test_sorted_input_kept_as_is(self):
        inbox = {1: (), 2: (), 5: ()}
        assert ordered_links(inbox) == [1, 2, 5]

    def test_unsorted_input_sorted(self):
        inbox = dict.fromkeys([4, 1, 3], ())
        assert ordered_links(inbox) == [1, 3, 4]

    def test_empty_and_singleton(self):
        assert ordered_links({}) == []
        assert ordered_links({7: ()}) == [7]


class TestGroupLinks:
    def test_link_order_and_grouping(self):
        shared = (IdMessage(10), EchoMessage(11))
        inbox = {
            3: (IdMessage(30),),
            4: shared,
            1: shared,
            2: (IdMessage(10), EchoMessage(11)),  # equal, a distinct object
        }
        groups = group_links(inbox)
        assert [(got, links) for got, links in groups] == [
            (shared, [1, 4]),
            (shared, [2]),
            (inbox[3], [3]),
        ]
        assert groups[0][0] is shared and groups[1][0] is inbox[2]

    def test_pick_names_the_object_or_skips_the_link(self):
        echo = EchoMessage(11)
        inbox = {2: (IdMessage(20), echo), 1: (echo,), 3: (IdMessage(30),)}
        groups = group_links(inbox, lambda link, got: got[-1] if link < 3 else None)
        assert groups == [(echo, [1, 2])]

    def test_empty(self):
        assert group_links({}) == []


#: A corrupted copy: any message the walker did not receive.
CORRUPTED = IdMessage(-1)


def scripted_fate(script):
    """A fate that answers its k-th call from ``script[k % len(script)]``
    and records every ``(label, message)`` it is asked about."""
    calls = []

    def fate(label, message):
        kind = script[len(calls) % len(script)]
        calls.append((label, message))
        return {
            "keep": None,
            "drop": (),
            "corrupt": (CORRUPTED,),
            "duplicate": (message, message),
        }[kind]

    return fate, calls


@st.composite
def walker_outboxes(draw):
    """An outbox over n links: any mix of BROADCAST, unicast, self-loop and
    invalid entries (empty included), each with 0-3 distinct messages."""
    n = draw(st.integers(min_value=1, max_value=6))
    labels = draw(
        st.lists(
            st.sampled_from([BROADCAST, *range(1, n + 1), -1, n + 1]),
            max_size=4,
            unique=True,
        )
    )
    outbox = {
        label: [
            IdMessage(draw(st.integers(min_value=0, max_value=99)))
            for _ in range(draw(st.integers(min_value=0, max_value=3)))
        ]
        for label in labels
    }
    return n, outbox


class TestPerturbLinks:
    @settings(deadline=None, max_examples=200)
    @given(
        drawn=walker_outboxes(),
        script=st.lists(
            st.sampled_from(["keep", "drop", "corrupt", "duplicate"]),
            min_size=1,
            max_size=6,
        ),
    )
    def test_matches_the_expansion_oracle(self, drawn, script):
        n, outbox = drawn
        snapshot = deepcopy(outbox)
        buckets = {label: messages for label, messages in outbox.items()}
        fate, calls = scripted_fate(script)
        result = perturb_links(outbox, n, fate)

        assert outbox == snapshot, "the input must never be mutated"
        assert all(outbox[label] is buckets[label] for label in outbox)
        oracle_fate, oracle_calls = scripted_fate(script)
        expected = expand_links(outbox, n, oracle_fate)
        # The fate sees every network copy, in the oracle's order.
        assert [(label, id(m)) for label, m in calls] == [
            (label, id(m)) for label, m in oracle_calls
        ]
        untouched = all(
            script[k % len(script)] == "keep" for k in range(len(calls))
        )
        if calls and untouched and (len(outbox) == 1 or BROADCAST not in outbox):
            assert result is outbox
        else:
            assert result is not outbox
            # Same buckets in the same insertion order, none aliased.
            assert list(result.items()) == list(expected.items())
            assert not any(
                result.get(label) is bucket for label, bucket in buckets.items()
            )
        # A perturber walking the result next asks in the order it would on
        # the oracle's expansion, passed through or not.
        again, again_calls = scripted_fate(["keep"])
        oracle_again, oracle_again_calls = scripted_fate(["keep"])
        perturb_links(result, n, again)
        expand_links(expected, n, oracle_again)
        assert [(label, id(m)) for label, m in again_calls] == [
            (label, id(m)) for label, m in oracle_again_calls
        ]

    def test_untouched_broadcast_passes_through(self):
        outbox = {BROADCAST: [IdMessage(1), IdMessage(2)]}
        fate, calls = scripted_fate(["keep"])
        assert perturb_links(outbox, 4, fate) is outbox
        # Links 1..3 asked, message by message; the self-loop (4) is not.
        assert [label for label, _ in calls] == [1, 1, 2, 2, 3, 3]

    def test_an_untouched_mixed_outbox_is_expanded(self):
        # Passed through, {BROADCAST: [a], 2: [b]} would be walked (1, a),
        # (2, a), (3, a), (2, b) by a later perturber, which walks the
        # per-label lists (1, a), (2, a), (2, b), (3, a).
        a, b = IdMessage(1), IdMessage(2)
        fate, calls = scripted_fate(["keep"])
        result = perturb_links({BROADCAST: [a], 2: [b]}, 4, fate)
        assert calls == [(1, a), (2, a), (3, a), (2, b)]
        assert list(result.items()) == [(1, [a]), (2, [a, b]), (3, [a]), (4, [a])]

    def test_one_touched_copy_expands_the_whole_outbox(self):
        a, b = IdMessage(1), IdMessage(2)
        fate, _ = scripted_fate(["keep", "keep", "drop", "keep", "keep", "keep"])
        result = perturb_links({BROADCAST: [a, b], 9: [b]}, 3, fate)
        assert list(result.items()) == [
            (1, [a, b]), (2, [b]), (3, [a, b]), (9, [b]),
        ]

