"""Every injected network fault surfaces as a *typed* client outcome.

The chaos proxy sits between :func:`run_session` and a real in-process
daemon; each test forces one fault kind with probability 1 and asserts
the client's :class:`SessionOutcome` is the matching typed status — never
an escaped exception, never a hang (every test runs under asyncio with
client timeouts far below the pytest timeout), and never a silent wrong
answer (a "completed" through a fault still passes client-side
re-validation by construction of run_session). The final test closes the
loop: tokened sessions driven through a faulty proxy with retries all
complete, and the journal shows no token ever executed twice.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager

import pytest

from repro.service.journal import SessionJournal, scan_session_journal
from repro.service.load import run_load, run_session
from repro.service.messages import ERROR_CODES
from repro.service.proxy import ChaosProxy, ProxyFaults
from repro.service.server import RenamingService
from repro.sim.errors import ConfigurationError
from repro.workloads import make_ids

#: Outcomes a faulted transport may legitimately produce. Anything else —
#: "invalid", "violation", an exception — is a contract breach.
_TRANSPORT_OUTCOMES = {
    "refused", "timeout", "disconnected", "wire-error", "rejected",
    "completed", "busy",
}


@asynccontextmanager
async def proxied_service(faults, *, seed=0, journal=None, **kwargs):
    kwargs.setdefault("max_sessions", 8)
    kwargs.setdefault("session_deadline_s", 5.0)
    kwargs.setdefault("idle_timeout_s", 2.0)
    kwargs.setdefault("drain_grace_s", 1.0)
    svc = RenamingService(
        install_signal_handlers=False, journal=journal, **kwargs
    )
    await svc.start()
    runner = asyncio.create_task(svc.serve_forever())
    host, port = svc.bound_address
    proxy = ChaosProxy(host, port, faults=faults, seed=seed)
    await proxy.start()
    try:
        yield svc, proxy
    finally:
        await proxy.close()
        if not runner.done():
            svc.initiate_drain()
            svc.initiate_drain()
        await runner


async def _through_proxy(proxy, *, timeout_s=5.0, session_id="", seed=1):
    host, port = proxy.bound_address
    return await run_session(
        host, port, ids=make_ids("uniform", 6, seed=seed), seed=seed,
        timeout_s=timeout_s, session_id=session_id,
    )


class TestFaultConfig:
    def test_probabilities_are_validated(self):
        with pytest.raises(ConfigurationError):
            ProxyFaults(reset=1.5)
        with pytest.raises(ConfigurationError):
            ProxyFaults(direction="sideways")


class TestPassthrough:
    def test_no_faults_is_transparent(self):
        async def main():
            async with proxied_service(ProxyFaults()) as (svc, proxy):
                outcome = await _through_proxy(proxy)
                assert outcome.status == "completed", outcome
                assert proxy.stats.connections == 1
                assert proxy.stats.forwarded_bytes > 0
                assert svc.stats.completed == 1

        asyncio.run(main())

    def test_same_seed_same_fault_schedule(self):
        faults = ProxyFaults(reset=0.5, truncate=0.5)
        plans = []
        for _ in range(2):
            proxy = ChaosProxy("127.0.0.1", 1, faults=faults, seed=42)
            import random

            from repro.sim.rng import derive_seed

            plans.append([
                (plan.kind, plan.direction, plan.offset)
                for index in range(20)
                for plan in [proxy._draw_plan(
                    random.Random(derive_seed(42, "proxy-conn", index))
                )]
            ])
        assert plans[0] == plans[1]
        assert any(kind for kind, _, _ in plans[0])


class TestEachFaultIsTyped:
    def _assert_typed(self, faults, expected, *, timeout_s=5.0):
        async def main():
            async with proxied_service(faults) as (svc, proxy):
                outcome = await _through_proxy(proxy, timeout_s=timeout_s)
                assert outcome.status in expected, outcome
                assert outcome.status in _TRANSPORT_OUTCOMES
                if outcome.status == "rejected":
                    assert outcome.code in ERROR_CODES

        asyncio.run(main())

    def test_reset_down(self):
        self._assert_typed(
            ProxyFaults(reset=1.0, direction="down"),
            {"disconnected", "refused", "wire-error"},
        )

    def test_reset_up(self):
        self._assert_typed(
            ProxyFaults(reset=1.0, direction="up"),
            {"disconnected", "refused", "timeout", "wire-error"},
        )

    def test_truncate_down(self):
        # Part of a frame, then EOF: read_frame sees the mid-frame end.
        self._assert_typed(
            ProxyFaults(truncate=1.0, direction="down"), {"disconnected"}
        )

    def test_truncate_up(self):
        # The daemon saw a torn request; the client observes its half of
        # the conversation die (or the daemon's typed reject).
        self._assert_typed(
            ProxyFaults(truncate=1.0, direction="up"),
            {"disconnected", "timeout", "rejected"},
        )

    def test_corrupt_down(self):
        # A flipped byte in the response: frame-layer or codec-level
        # WireError, or (if the flip lands on a length header) a bounded
        # declared-length reject — typed either way. A flip may also land
        # on a don't-care byte and decode into an unexpected-but-valid
        # frame, which run_session reports as disconnected.
        self._assert_typed(
            ProxyFaults(corrupt=1.0, direction="down"),
            {"wire-error", "disconnected"},
        )

    def test_corrupt_up(self):
        self._assert_typed(
            ProxyFaults(corrupt=1.0, direction="up"),
            {"rejected", "disconnected", "timeout", "wire-error"},
        )

    def test_stall_becomes_a_client_timeout(self):
        self._assert_typed(
            ProxyFaults(stall=1.0, stall_s=30.0, direction="down"),
            {"timeout"},
            timeout_s=0.5,
        )

    def test_duplicate_is_typed_never_a_double_run(self):
        async def main():
            faults = ProxyFaults(duplicate=1.0, direction="up")
            async with proxied_service(faults) as (svc, proxy):
                outcome = await _through_proxy(proxy)
                # A duplicated request chunk replays frames the protocol
                # state machine already consumed — a typed protocol/config
                # reject or a clean completion if the duplicate landed on
                # a frame boundary the server tolerates (chunked ids).
                assert outcome.status in _TRANSPORT_OUTCOMES, outcome
                assert svc.stats.completed <= 1

        asyncio.run(main())


class TestRetriesThroughChaos:
    def test_tokened_retries_complete_and_never_double_run(self, tmp_path):
        journal = SessionJournal.open_or_create(tmp_path / "s.jsonl")
        faults = ProxyFaults(reset=0.2, truncate=0.2, corrupt=0.1)

        async def main():
            async with proxied_service(
                faults, seed=9, journal=journal
            ) as (svc, proxy):
                host, port = proxy.bound_address
                for index in range(8):
                    outcome = await run_session(
                        host, port,
                        retries=20,
                        session_id=f"chaos-{index}",
                        ids=make_ids("uniform", 6, seed=index),
                        seed=index,
                        timeout_s=5.0,
                    )
                    assert outcome.status == "completed", (index, outcome)
                assert proxy.stats.resets + proxy.stats.truncations + \
                    proxy.stats.corruptions > 0, "chaos never fired"
                # Replays may answer retries, but each token ran at most
                # once on the engine.
                assert svc.stats.completed == 8

        asyncio.run(main())
        state = scan_session_journal(tmp_path / "s.jsonl")
        for index in range(8):
            record = state.sessions[f"chaos-{index}"]
            assert record.state == "completed", record
            # accepted may exceed 1 only if a crash had interrupted the
            # run; in-process the daemon never dies, so exactly one.
            assert record.accepted == 1, record

    def test_anonymous_load_through_chaos_stays_typed(self):
        faults = ProxyFaults(reset=0.15, truncate=0.15)

        async def main():
            async with proxied_service(faults, seed=3) as (svc, proxy):
                host, port = proxy.bound_address
                report = await run_load(
                    host, port, sessions=12, concurrency=4,
                    ids_per_session=5, timeout_s=5.0,
                )
                assert set(report.counts) <= _TRANSPORT_OUTCOMES
                assert report.counts.get("invalid", 0) == 0
                assert report.counts.get("violation", 0) == 0

        asyncio.run(main())

    def test_upstream_down_is_contained(self):
        async def main():
            proxy = ChaosProxy("127.0.0.1", 9)  # discard port: nobody home
            await proxy.start()
            try:
                host, port = proxy.bound_address
                outcome = await run_session(
                    host, port, ids=[3, 7, 11], timeout_s=2.0
                )
                assert outcome.status in ("disconnected", "refused"), outcome
                assert proxy.stats.upstream_failures == 1
            finally:
                await proxy.close()

        asyncio.run(main())
