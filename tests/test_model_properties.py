"""Property-based tests for the system-model injectors.

Two metamorphic anchors from the model contract (see
:mod:`repro.sim.model`):

* **Impersonation is append-only.** Forged frames are codec round-trips of
  this round's real traffic, appended to network-link buckets; stripping
  every appended frame reconstructs the classic round byte-for-byte, so an
  impersonation adversary can never perturb correct↔correct traffic.
* **Partial synchrony conserves frames.** Every transmission is delivered
  on time, delivered late, or counted as omitted — nothing is duplicated
  or silently lost — and the self-loop is exempt.

Plus the degenerate-model identity: ``impersonation:k=0`` and
``partial-synchrony:rate=0`` are bit-for-bit ``classic`` on every engine.
"""

from __future__ import annotations

from copy import deepcopy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import assert_runs_identical, run_registered
from repro.sim import BROADCAST, ENGINES, SystemModel
from repro.wire import IdMessage, decode_message, encode_message

COMMON = dict(
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def outboxes_strategy(draw, n, allow_broadcast=False):
    """Random per-sender outboxes: {sender: {label: [messages]}}.

    Labels are explicit links 1..n (n is the self-loop); buckets are
    non-empty so "strip forgeries" has an exact inverse to compare against.
    """
    labels = list(range(1, n + 1)) + ([BROADCAST] if allow_broadcast else [])
    senders = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1, max_size=n, unique=True,
        )
    )
    outboxes = {}
    for sender in senders:
        chosen = draw(
            st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True)
        )
        outboxes[sender] = {
            label: [
                IdMessage(draw(st.integers(min_value=0, max_value=10_000)))
                for _ in range(draw(st.integers(min_value=1, max_value=3)))
            ]
            for label in chosen
        }
    return outboxes


def count_frames(outboxes, n):
    """Frames on the wire: a broadcast frame goes out on all n links."""
    return sum(
        len(bucket) * (n if label == BROADCAST else 1)
        for outbox in outboxes.values()
        for label, bucket in outbox.items()
    )


class TestImpersonationMetamorphic:
    @settings(**COMMON)
    @given(
        n=st.integers(min_value=2, max_value=7),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=999),
        round_no=st.integers(min_value=0, max_value=30),
        data=st.data(),
    )
    def test_forgeries_append_only_and_roundtrip(self, n, k, seed, round_no, data):
        outboxes = data.draw(outboxes_strategy(n))
        snapshot = deepcopy(outboxes)
        model = SystemModel.impersonation(k, seed=seed)
        injector = model.build_injector(n=n)
        new_correct, new_byz = injector.perturb(round_no, outboxes, {})

        assert outboxes == snapshot, "inputs must never be mutated"
        assert new_byz == {}
        templates = [
            message
            for outbox in snapshot.values()
            for bucket in outbox.values()
            for message in bucket
        ]
        appended_total = 0
        stripped = {}
        for sender, outbox in new_correct.items():
            original = snapshot.get(sender, {})
            kept = {}
            for label, bucket in outbox.items():
                base = original.get(label, [])
                # Correct traffic intact, in order, ahead of any forgery.
                assert bucket[: len(base)] == base
                extra = bucket[len(base):]
                for frame in extra:
                    assert 1 <= label <= n - 1, "self-loop cannot be forged onto"
                    assert frame in templates, "forgeries replay real traffic"
                    assert decode_message(encode_message(frame)) == frame
                appended_total += len(extra)
                if base:
                    kept[label] = base
            # Nothing the sender actually sent is dropped.
            assert set(original) <= set(outbox)
            if sender in snapshot:
                stripped[sender] = kept
        # Metamorphic anchor: strip-forgeries reconstructs the classic round.
        assert stripped == snapshot
        assert injector.report.forged == appended_total
        assert appended_total <= k
        assert injector.report.as_dict().get("forged") == appended_total


class TestPartialSynchronyConservation:
    @settings(**COMMON)
    @given(
        n=st.integers(min_value=2, max_value=6),
        rate=st.floats(min_value=0.01, max_value=1.0),
        max_delay=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=999),
        data=st.data(),
    )
    def test_every_frame_delivered_or_omitted(self, n, rate, max_delay, seed, data):
        model = SystemModel.partial_synchrony(rate, max_delay=max_delay, seed=seed)
        injector = model.build_injector(n=n)
        total_in = delivered = 0
        # Fresh traffic in every round, so late frames come due in rounds
        # that also carry (possibly untouched) fresh outboxes.
        for round_no in range(data.draw(st.integers(min_value=1, max_value=4))):
            outboxes = data.draw(outboxes_strategy(n, allow_broadcast=True))
            snapshot = deepcopy(outboxes)
            # A broadcast frame becomes n copies, each fated on its own.
            total_in += count_frames(snapshot, n)
            delivered += count_frames(injector.perturb(round_no, outboxes, {})[0], n)
            assert outboxes == snapshot, "inputs must never be mutated"
        for late in range(round_no + 1, round_no + max_delay + 1):  # drain
            delivered += count_frames(injector.perturb(late, {}, {})[0], n)
        report = injector.report
        assert delivered + report.omitted == total_in
        assert report.delivered_late == report.delayed
        assert report.undelivered == 0

    def test_late_frames_never_land_in_a_passed_through_outbox(self):
        # A sender's outbox the round left untouched is passed through as
        # is; its late frames from earlier rounds go to a per-label copy,
        # behind their label's on-time copy, where a chaos plan that
        # follows meets them.
        n = 4
        injector = SystemModel.partial_synchrony(0.5, max_delay=1).build_injector(n=n)
        untouched_with_late = 0
        for round_no in range(30):
            fresh = {sender: IdMessage(100 * round_no + sender) for sender in range(n)}
            outboxes = {sender: {BROADCAST: [m]} for sender, m in fresh.items()}
            snapshot = deepcopy(outboxes)
            new_correct, _ = injector.perturb(round_no, outboxes, {})
            assert outboxes == snapshot, f"round {round_no} mutated its input"
            for sender, outbox in new_correct.items():
                if outbox is outboxes[sender]:
                    continue
                assert BROADCAST not in outbox
                on_time = all(
                    outbox.get(label, [])[:1] == [fresh[sender]]
                    for label in range(1, n)
                )
                late = sum(map(len, outbox.values())) > n
                untouched_with_late += on_time and late
        assert untouched_with_late, "no round exercised the case"

    @pytest.mark.parametrize("outbox", [{}, {3: [IdMessage(2)]}])
    def test_late_frames_never_land_in_an_outbox_with_no_network_copy(
        self, outbox
    ):
        # Nothing to fate leaves the outbox as it is; a late frame for its
        # sender still goes to a copy.
        n = 3
        injector = SystemModel.partial_synchrony(1.0, max_delay=1).build_injector(n=n)
        injector.perturb(0, {0: {BROADCAST: [IdMessage(1)]}}, {})  # all late
        snapshot = deepcopy(outbox)
        new_correct, _ = injector.perturb(1, {0: outbox}, {})
        assert outbox == snapshot, "inputs must never be mutated"
        assert new_correct[0] == {**outbox, 1: [IdMessage(1)], 2: [IdMessage(1)]}

    def test_self_loop_is_exempt_even_at_full_loss(self):
        n = 4
        model = SystemModel.partial_synchrony(1.0, max_delay=0, seed=0)
        injector = model.build_injector(n=n)
        outboxes = {0: {n: [IdMessage(7)], 1: [IdMessage(8), IdMessage(9)]}}
        new_correct, _ = injector.perturb(0, outboxes, {})
        assert new_correct[0][n] == [IdMessage(7)]
        assert new_correct[0][1] == []
        assert injector.report.omitted == 2

    def test_broadcast_keeps_the_self_loop_copy(self):
        n = 3
        model = SystemModel.partial_synchrony(1.0, max_delay=0, seed=0)
        injector = model.build_injector(n=n)
        new_correct, _ = injector.perturb(0, {1: {BROADCAST: [IdMessage(5)]}}, {})
        # Links 1..n-1 dropped, the process-local copy survives.
        assert new_correct[1][n] == [IdMessage(5)]
        assert new_correct[1][1] == [] and new_correct[1][2] == []
        assert injector.report.omitted == n - 1


class TestDegenerateModelIdentity:
    @settings(deadline=None, max_examples=12,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=500),
        model=st.sampled_from([
            SystemModel.impersonation(0),
            SystemModel.partial_synchrony(0.0),
            SystemModel.classic(),
        ]),
        engine=st.sampled_from(sorted(ENGINES)),
    )
    def test_bit_identical_to_classic_on_every_engine(self, seed, model, engine):
        assert model.is_inert
        baseline = run_registered(
            "floodset", 5, 1, attack="silent", seed=seed, engine=engine
        )
        with_model = run_registered(
            "floodset", 5, 1, attack="silent", seed=seed, engine=engine,
            model=model,
        )
        assert with_model.model is None, "inert model must not install a hook"
        assert_runs_identical(
            baseline, with_model,
            f"floodset seed={seed} {model.describe()} on {engine}",
        )
