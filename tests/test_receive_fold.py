"""The per-tuple receive fold against the per-link walk it replaces.

Id-collection steps (Alg. 1's echo and ready steps, FloodSet, Okun's echo
round, Alg. 4's MultiEcho count) group an inbox's links by the identity of
what they delivered and do each distinct tuple's work once
(``sim.process.group_links``, ``core.validation.sound_ids_by_tuple``;
DESIGN.md §8). These tests drive each of them with hand-built inboxes — one
tuple object on several links, an id a link repeats, unsound ids, links in
unsorted order — and compare the resulting state, including the key order
of every dict that is traced or iterated later, with the plain per-link
walk written out here as the oracle.
"""

from __future__ import annotations

from repro.baselines.floodset import FloodSetRenaming
from repro.baselines.okun_crash import OkunCrashRenaming
from repro.core.fast import TwoStepPhase
from repro.core.id_selection import IdSelectionPhase
from repro.core.messages import EchoMessage, IdMessage, MultiEchoMessage, ReadyMessage
from repro.core.validation import is_sound_id, sound_ids_by_tuple
from repro.sim.compose import PhaseContext
from repro.sim.process import ProcessContext

SHARED_ECHOES = (EchoMessage(50), EchoMessage(30), EchoMessage(50))
SHARED_READIES = (ReadyMessage(50), ReadyMessage(30), ReadyMessage(50))


def _id_inbox(shared, kind):
    """Links in unsorted order; ``shared`` (which repeats id 50) sits on
    links 6, 2 and 5; link 3 mixes a sound id with unsound ones and a
    message of another kind; an equal but distinct copy of ``shared`` sits
    on link 4."""
    return {
        6: shared,
        2: shared,
        3: (kind(70), kind(-1), kind(0), kind(True), kind("x"), IdMessage(80)),
        1: (kind(30), kind(10)),
        5: shared,
        4: shared[:1] + shared[1:],  # equal, but a distinct object
        7: (IdMessage(90),),
    }


def _per_link_links(inbox, kind):
    links = {}
    for link in sorted(inbox):
        for message in inbox[link]:
            if isinstance(message, kind) and is_sound_id(message.id):
                links.setdefault(message.id, set()).add(link)
    return links


def _per_link_ids(inbox, kind):
    known = set()
    for link in sorted(inbox):
        for message in inbox[link]:
            if isinstance(message, kind) and is_sound_id(message.id):
                known.add(message.id)
    return known


class TestHelpers:
    def test_sound_ids_by_tuple_keeps_repeats_and_drops_unsound(self):
        inbox = _id_inbox(SHARED_ECHOES, EchoMessage)
        assert list(sound_ids_by_tuple(inbox, EchoMessage)) == [
            ([30, 10], [1]),
            ([50, 30, 50], [2, 5, 6]),
            ([70], [3]),
            ([50, 30, 50], [4]),
        ]


class TestIdSelection:
    def _phase(self):
        return IdSelectionPhase(n=7, t=2, my_id=10)

    def test_echo_step_matches_the_per_link_walk(self):
        inbox = _id_inbox(SHARED_ECHOES, EchoMessage)
        phase = self._phase()
        phase.deliver_step(2, inbox)
        expected = _per_link_links(inbox, EchoMessage)
        assert phase._echo_links == expected
        assert list(phase._echo_links) == list(expected)

    def test_ready_steps_match_the_per_link_walk(self):
        step3 = _id_inbox(SHARED_READIES, ReadyMessage)
        step4 = {7: (ReadyMessage(90),), 2: (ReadyMessage(30), ReadyMessage(90))}
        phase = self._phase()
        phase.deliver_step(3, step3)
        expected = _per_link_links(step3, ReadyMessage)
        assert phase._ready_links == expected
        assert list(phase._ready_links) == list(expected)
        phase.deliver_step(4, step4)
        for identifier, links in _per_link_links(step4, ReadyMessage).items():
            expected.setdefault(identifier, set()).update(links)
        assert phase._ready_links == expected
        assert list(phase._ready_links) == list(expected)


class TestBaselines:
    def test_floodset_known_matches_the_per_link_walk(self):
        inbox = _id_inbox(SHARED_ECHOES, EchoMessage)
        process = FloodSetRenaming(ProcessContext(n=7, t=2, my_id=10))
        process.deliver(1, inbox)
        kinds = (IdMessage, EchoMessage)
        assert process.known == {10} | _per_link_ids(inbox, kinds)

    def test_okun_echo_round_known_matches_the_per_link_walk(self):
        announcements = {link: (IdMessage(10 * link),) for link in range(1, 8)}
        inbox = _id_inbox(SHARED_ECHOES, EchoMessage)
        process = OkunCrashRenaming(ProcessContext(n=7, t=2, my_id=10))
        process.deliver(1, announcements)
        process.deliver(2, inbox)
        expected = set(range(10, 80, 10)) | _per_link_ids(inbox, EchoMessage)
        assert process.known == expected


class TestTwoStepCounter:
    N, T = 9, 1

    def _oracle(self, phase, inbox):
        """Alg. 4 lines 13–17, one link at a time."""
        counter = {}
        for link in sorted(inbox):
            echo = next(
                (m for m in inbox[link] if isinstance(m, MultiEchoMessage)), None
            )
            if echo is None or link not in phase.link_id:
                continue
            ids = echo.sound_ids()
            if (
                ids is None
                or len(ids) > self.N
                or len(phase.timely & ids) < self.N - self.T
            ):
                continue
            for identifier in ids:
                counter[identifier] = counter.get(identifier, 0) + 1
        return counter

    def test_counter_and_its_key_order_match_the_per_link_walk(self):
        ids = [10 * link for link in range(1, self.N + 1)]
        # Link 1 announces nothing, so timely is ids[1:] and a valid echo
        # must carry all of it (N - t = 8).
        announced = {link: (IdMessage(ids[link - 1]),) for link in range(2, 10)}
        full = MultiEchoMessage.from_ids(ids)
        other = MultiEchoMessage.from_ids(ids[1:] + [5])
        unsound = MultiEchoMessage.from_ids(ids[1:] + [0])
        thin = MultiEchoMessage.from_ids(ids[:4])
        inbox = {
            1: (full,),  # unannounced link: ignored
            9: (other,),
            3: (other,),
            4: (IdMessage(1), full),  # the first MultiEcho on a link counts
            7: (full, other),
            2: (unsound,),
            5: (thin,),
            8: (MultiEchoMessage.from_ids(ids),),  # equal to ``full``, distinct
            6: (IdMessage(60),),
        }
        phase = TwoStepPhase(PhaseContext(ProcessContext(self.N, self.T, 20), 0))
        phase.deliver_step(1, announced)
        expected = self._oracle(phase, inbox)
        phase.deliver_step(2, inbox)
        assert phase.counter == expected
        assert list(phase.counter) == list(expected)
        # ``other`` is first counted on link 3 and ``full`` on link 4, though
        # ``full`` is first *seen* on link 1: 5 must precede 10.
        keys = list(phase.counter)
        assert keys.index(5) < keys.index(10)
        assert phase.counter[10] == 3 and phase.counter[5] == 2
