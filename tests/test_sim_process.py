"""Unit tests for the Process base class and its helpers."""

from __future__ import annotations

from repro.core.messages import EchoMessage, IdMessage
from repro.sim import BROADCAST, Process, ProcessContext, group_links, ordered_links


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
