"""The renaming daemon's robustness contract, exercised in-process.

Every test spins a real :class:`repro.service.server.RenamingService` on a
loopback socket inside ``asyncio.run`` — real frames over real TCP, no
subprocesses (the signal/exit-code story is ``test_service_drain.py``).

Covered here: the happy path (auto and explicit algorithms, adversarial
sessions), backpressure, every typed rejection (wire garbage, protocol
violations, config errors, slow-loris idle timeout, session deadline),
mid-session disconnect containment, drain semantics, budget isolation,
and the load generator's client-side re-validation.
"""

from __future__ import annotations

import asyncio
import struct
from contextlib import asynccontextmanager

import pytest

from repro.analysis.budget import CellBudget, run_isolated
from repro.core import SystemParams
from repro.service.frames import encode_frame, read_frame, write_frame
from repro.service.load import run_load, run_query, run_session, validate_names
from repro.service.messages import (
    CertificateMessage,
    CloseSessionMessage,
    ERROR_CODES,
    NamesAssignedMessage,
    OpenSessionMessage,
    QueryRequestMessage,
    QueryResponseMessage,
    RegisterIdsMessage,
    ServerBusyMessage,
    SessionErrorMessage,
    SessionWelcomeMessage,
)
from repro.service.server import RenamingService
from repro.service.session import SessionRequest, execute_session, select_algorithm
from repro.sim import ConfigurationError, ResourceBudgetExceeded
from repro.workloads import make_ids


@asynccontextmanager
async def service(**kwargs):
    """A live daemon plus its serve_forever task; drains on exit."""
    kwargs.setdefault("max_sessions", 8)
    kwargs.setdefault("session_deadline_s", 5.0)
    kwargs.setdefault("idle_timeout_s", 2.0)
    kwargs.setdefault("drain_grace_s", 1.0)
    svc = RenamingService(install_signal_handlers=False, **kwargs)
    await svc.start()
    runner = asyncio.create_task(svc.serve_forever())
    try:
        yield svc, runner
    finally:
        if not runner.done():
            svc.initiate_drain()
            svc.initiate_drain()  # second call forces the shed
        await runner


async def connect(svc):
    host, port = svc.bound_address
    return await asyncio.open_connection(host, port)


async def expect(reader, message_type, timeout=5.0):
    message = await asyncio.wait_for(read_frame(reader), timeout)
    assert isinstance(message, message_type), f"got {message!r}"
    return message


async def drive(svc, **kwargs):
    host, port = svc.bound_address
    kwargs.setdefault("ids", make_ids("uniform", 8, seed=1))
    return await run_session(host, port, **kwargs)


class TestHappyPath:
    def test_auto_session_returns_validated_names(self):
        async def main():
            async with service() as (svc, _):
                outcome = await drive(svc)
                assert outcome.status == "completed", outcome
                assert outcome.algorithm == "alg4"  # t=0 is the fast regime
                assert outcome.rounds == 2
                assert svc.stats.completed == 1
                assert svc.stats.violations == 0

        asyncio.run(main())

    def test_explicit_adversarial_session(self):
        async def main():
            async with service() as (svc, _):
                outcome = await drive(
                    svc,
                    ids=make_ids("uniform", 8, seed=2),
                    algorithm="alg1",
                    t=1,
                    attack="conforming",
                )
                assert outcome.status == "completed", outcome
                assert outcome.algorithm == "alg1"

        asyncio.run(main())

    def test_ids_may_arrive_in_chunks(self):
        async def main():
            async with service() as (svc, _):
                outcome = await drive(
                    svc, ids=make_ids("uniform", 9, seed=3), register_chunk=2
                )
                assert outcome.status == "completed", outcome

        asyncio.run(main())


class TestBackpressure:
    def test_busy_is_explicit_never_a_silent_drop(self):
        async def main():
            async with service(max_sessions=1) as (svc, _):
                reader, writer = await connect(svc)
                await expect(reader, SessionWelcomeMessage)  # slot taken
                outcome = await drive(svc)
                assert outcome.status == "busy", outcome
                assert svc.stats.busy == 1
                writer.close()
                await writer.wait_closed()

        asyncio.run(main())

    def test_slot_frees_after_session_ends(self):
        async def main():
            async with service(max_sessions=1) as (svc, _):
                first = await drive(svc)
                assert first.status == "completed"
                second = await drive(svc)
                assert second.status == "completed"

        asyncio.run(main())


class TestTypedRejection:
    def test_wire_garbage_gets_wire_error(self):
        async def main():
            async with service() as (svc, _):
                reader, writer = await connect(svc)
                await expect(reader, SessionWelcomeMessage)
                payload = b"\xfe" * 6  # valid frame, unregistered tag
                writer.write(struct.pack(">I", len(payload)) + payload)
                await writer.drain()
                error = await expect(reader, SessionErrorMessage)
                assert error.code == "wire"
                writer.close()

        asyncio.run(main())

    def test_register_before_open_is_a_protocol_error(self):
        async def main():
            async with service() as (svc, _):
                reader, writer = await connect(svc)
                await expect(reader, SessionWelcomeMessage)
                await write_frame(writer, RegisterIdsMessage(ids=(4, 5)))
                error = await expect(reader, SessionErrorMessage)
                assert error.code == "protocol"
                writer.close()

        asyncio.run(main())

    def test_close_with_no_ids_is_a_config_error(self):
        async def main():
            async with service() as (svc, _):
                reader, writer = await connect(svc)
                await expect(reader, SessionWelcomeMessage)
                await write_frame(writer, OpenSessionMessage())
                await write_frame(writer, CloseSessionMessage())
                error = await expect(reader, SessionErrorMessage)
                assert error.code == "config"
                writer.close()

        asyncio.run(main())

    def test_unknown_algorithm_is_a_config_error(self):
        async def main():
            async with service() as (svc, _):
                outcome = await drive(svc, algorithm="not-a-thing")
                assert outcome.status == "rejected"
                assert outcome.code == "config"

        asyncio.run(main())

    def test_id_cap_is_enforced(self):
        async def main():
            async with service(max_ids=4) as (svc, _):
                outcome = await drive(svc, ids=make_ids("uniform", 8, seed=4))
                assert outcome.status == "rejected"
                assert outcome.code == "config"

        asyncio.run(main())

    def test_every_reported_code_is_registered(self):
        async def main():
            async with service(max_ids=4) as (svc, _):
                await drive(svc, algorithm="nope")
                await drive(svc, ids=make_ids("uniform", 8, seed=5))
                assert set(svc.stats.error_codes) <= set(ERROR_CODES)

        asyncio.run(main())

    def test_error_codes_count_per_code(self):
        """A long-lived daemon's reject tally is bounded by the registered
        codes, not by how many sessions it rejected."""
        async def main():
            async with service() as (svc, _):
                for _ in range(12):
                    await drive(svc, algorithm="nope")
                assert dict(svc.stats.error_codes) == {"config": 12}

        asyncio.run(main())


class TestDeadlines:
    def test_slow_loris_gets_idle_timeout(self):
        async def main():
            async with service(idle_timeout_s=0.2, session_deadline_s=10.0) as (
                svc,
                _,
            ):
                reader, writer = await connect(svc)
                await expect(reader, SessionWelcomeMessage)
                await write_frame(writer, OpenSessionMessage())
                # ... then stall. The server must not wait for the distant
                # session deadline.
                error = await expect(reader, SessionErrorMessage, timeout=2.0)
                assert error.code == "idle-timeout"
                writer.close()

        asyncio.run(main())

    def test_deadline_closes_a_registered_quorum(self):
        async def main():
            async with service(session_deadline_s=0.3, idle_timeout_s=5.0) as (
                svc,
                _,
            ):
                reader, writer = await connect(svc)
                welcome = await expect(reader, SessionWelcomeMessage)
                assert welcome.deadline_ms == 300
                await write_frame(writer, OpenSessionMessage())
                await write_frame(
                    writer, RegisterIdsMessage.from_ids(make_ids("uniform", 6))
                )
                # No CloseSession: the deadline must run the quorum.
                names = await expect(reader, NamesAssignedMessage, timeout=5.0)
                certificate = await expect(reader, CertificateMessage)
                assert len(names.entries) == 6
                assert certificate.ok
                writer.close()

        asyncio.run(main())

    def test_deadline_with_nothing_registered_rejects(self):
        async def main():
            async with service(session_deadline_s=0.2, idle_timeout_s=5.0) as (
                svc,
                _,
            ):
                reader, writer = await connect(svc)
                await expect(reader, SessionWelcomeMessage)
                await write_frame(writer, OpenSessionMessage())
                error = await expect(reader, SessionErrorMessage, timeout=5.0)
                assert error.code == "deadline"
                writer.close()

        asyncio.run(main())


class TestContainment:
    def test_disconnect_mid_session_leaves_others_untouched(self):
        async def main():
            async with service() as (svc, _):
                reader, writer = await connect(svc)
                await expect(reader, SessionWelcomeMessage)
                await write_frame(writer, OpenSessionMessage())
                await write_frame(writer, RegisterIdsMessage(ids=(7, 9)))
                well_behaved = asyncio.create_task(drive(svc))
                writer.close()  # vanish mid-session
                await writer.wait_closed()
                outcome = await well_behaved
                assert outcome.status == "completed", outcome
                for _ in range(100):
                    if svc.stats.disconnected:
                        break
                    await asyncio.sleep(0.02)
                assert svc.stats.disconnected == 1
                assert svc.stats.infra == 0

        asyncio.run(main())

    def test_budget_breach_is_typed_and_contained(self, monkeypatch):
        # The runner child is forked, so it inherits this stalling stub —
        # a deterministic way to make a session overstay its wall budget.
        import time

        import repro.service.session as session_module

        def stalling(request):
            time.sleep(30.0)
            raise AssertionError("the budget should have killed this child")

        monkeypatch.setattr(session_module, "execute_session", stalling)

        async def main():
            async with service(
                budget=CellBudget(wall_s=0.2), session_deadline_s=10.0
            ) as (svc, _):
                outcome = await drive(svc)
                assert outcome.status == "rejected", outcome
                assert outcome.code == "wall-budget"

        asyncio.run(main())

    def test_unpicklable_child_exception_is_infra_with_its_text(
        self, monkeypatch
    ):
        # An exception holding a lambda cannot cross the process boundary;
        # the child relays its text instead, and the daemon answers at once.
        import time

        import repro.service.session as session_module

        def unpicklable(request):
            exc = RuntimeError("the session runner broke")
            exc.hook = lambda: None  # pickled with the exception: fails
            raise exc

        monkeypatch.setattr(session_module, "execute_session", unpicklable)

        async def main():
            async with service(budget=CellBudget(wall_s=30.0)) as (svc, _):
                started = time.monotonic()
                outcome = await drive(svc)
                assert time.monotonic() - started < 0.9
                assert outcome.status == "rejected", outcome
                assert outcome.code == "infra"
                assert outcome.detail == (
                    "RuntimeError: the session runner broke"
                )
                assert svc.stats.infra == 1

        asyncio.run(main())


class TestDrain:
    def test_drain_finishes_in_flight_and_turns_new_connects_away(self):
        async def main():
            async with service(drain_grace_s=5.0) as (svc, runner):
                reader, writer = await connect(svc)
                await expect(reader, SessionWelcomeMessage)
                await write_frame(writer, OpenSessionMessage())
                await write_frame(writer, RegisterIdsMessage(ids=(3, 8, 21)))
                svc.initiate_drain()
                late = await drive(svc)
                assert late.status == "busy", late
                await write_frame(writer, CloseSessionMessage())
                names = await expect(reader, NamesAssignedMessage)
                certificate = await expect(reader, CertificateMessage)
                assert len(names.entries) == 3 and certificate.ok
                writer.close()
                code = await asyncio.wait_for(runner, timeout=5.0)
                assert code == 0
                assert svc.stats.shed == 0

        asyncio.run(main())

    def test_drain_sheds_stragglers_with_a_typed_shutdown(self):
        async def main():
            async with service(
                drain_grace_s=0.2, session_deadline_s=30.0, idle_timeout_s=30.0
            ) as (svc, runner):
                reader, writer = await connect(svc)
                await expect(reader, SessionWelcomeMessage)
                await write_frame(writer, OpenSessionMessage())
                svc.initiate_drain()
                error = await expect(reader, SessionErrorMessage, timeout=5.0)
                assert error.code == "shutdown"
                writer.close()
                code = await asyncio.wait_for(runner, timeout=5.0)
                assert code == 4
                assert svc.stats.shed == 1

        asyncio.run(main())

    def test_drain_finishes_busy_rejects_still_closing(self, caplog, monkeypatch):
        """A connection turned away as busy holds no session slot; the drain
        must still wait for it, or the loop's shutdown cancels it inside
        ``_close`` and asyncio logs ``Exception in callback`` with a
        CancelledError traceback."""
        close = RenamingService._close

        async def slow_close(self, writer):
            await asyncio.sleep(0.3)
            await close(self, writer)

        monkeypatch.setattr(RenamingService, "_close", slow_close)

        async def main():
            svc = RenamingService(
                install_signal_handlers=False, max_sessions=1, drain_grace_s=5.0
            )
            await svc.start()
            runner = asyncio.create_task(svc.serve_forever())
            reader, writer = await connect(svc)
            await expect(reader, SessionWelcomeMessage)
            late_reader, late_writer = await connect(svc)
            await expect(late_reader, ServerBusyMessage)
            svc.initiate_drain()
            writer.close()  # the one session ends; the reject is still closing
            code = await asyncio.wait_for(runner, timeout=5.0)
            late_writer.close()
            return code, svc.stats.busy

        with caplog.at_level("ERROR", logger="asyncio"):
            assert asyncio.run(main()) == (0, 1)
        records = [r for r in caplog.records if r.name == "asyncio"]
        assert not records, [r.getMessage() for r in records]

    def test_exit_code_precedence(self):
        svc = RenamingService(install_signal_handlers=False)
        assert svc.exit_code() == 0
        svc.stats.violations = 1
        assert svc.exit_code() == 2
        svc.stats.shed = 1
        assert svc.exit_code() == 4
        svc.stats.infra = 1
        assert svc.exit_code() == 3


class TestLoadGenerator:
    def test_load_reports_latency_and_validates_client_side(self):
        async def main():
            async with service(max_sessions=16) as (svc, _):
                host, port = svc.bound_address
                report = await run_load(
                    host, port, sessions=12, concurrency=6, ids_per_session=6
                )
                assert report.completed == 12
                assert report.exit_code() == 0
                assert report.p50_s > 0
                assert report.p99_s >= report.p50_s
                assert report.sessions_per_sec > 0

        asyncio.run(main())

    def test_connection_refused_is_an_outcome_not_a_crash(self):
        async def main():
            outcome = await run_session("127.0.0.1", 1, ids=[1, 2, 3])
            assert outcome.status == "refused"

        asyncio.run(main())


def _against_stub(handler, client):
    """(outcome, connections): ``client(host, port)`` against a stub server
    that runs ``handler`` on every connection, then closes it."""

    async def main():
        connections = 0

        async def on_connect(reader, writer):
            nonlocal connections
            connections += 1
            try:
                await handler(reader, writer)
            finally:
                writer.close()

        server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
        async with server:
            host, port = server.sockets[0].getsockname()[:2]
            outcome = await client(host, port)
        return outcome, connections

    return asyncio.run(main())


async def _welcome(writer):
    await write_frame(
        writer, SessionWelcomeMessage(session_id=1, max_ids=64, deadline_ms=1000)
    )


class TestClientRetries:
    """Which failures ``retries=`` re-sends. Nothing written yet → always,
    token or not; after the first request frame → only under a token;
    ``busy`` → never (only ``run_load`` budgets it)."""

    def _drive_stub(self, handler, *, session_id):
        return _against_stub(
            handler,
            lambda host, port: run_session(
                host, port, ids=[1, 2, 3], session_id=session_id,
                retries=2, timeout_s=5.0,
            ),
        )

    @pytest.mark.parametrize("session_id", ["", "tok"])
    def test_close_before_welcome_is_retried_without_a_token(self, session_id):
        async def close_at_once(reader, writer):
            pass

        outcome, connections = self._drive_stub(
            close_at_once, session_id=session_id
        )
        assert (outcome.status, outcome.detail) == (
            "disconnected", "no welcome frame"
        )
        assert connections == 3

    @pytest.mark.parametrize("session_id, expected", [("", 1), ("tok", 3)])
    def test_close_after_the_request_is_retried_only_under_a_token(
        self, session_id, expected
    ):
        async def welcome_then_close(reader, writer):
            await _welcome(writer)
            assert isinstance(await read_frame(reader), OpenSessionMessage)

        outcome, connections = self._drive_stub(
            welcome_then_close, session_id=session_id
        )
        assert outcome.status == "disconnected", outcome
        assert connections == expected

    def test_busy_is_final(self):
        async def busy(reader, writer):
            await write_frame(writer, ServerBusyMessage(active=1, limit=1))

        outcome, connections = self._drive_stub(busy, session_id="tok")
        assert outcome.status == "busy"
        assert connections == 1


class TestQueryReplay:
    @pytest.mark.parametrize("state", ["completed", "failed"])
    def test_replay_that_contradicts_the_state_is_disconnected(self, state):
        wrong = {
            "completed": SessionErrorMessage(code="config", detail="x"),
            "failed": NamesAssignedMessage(entries=((3, 1),), algorithm="a", rounds=1),
        }[state]

        async def contradict(reader, writer):
            await _welcome(writer)
            assert isinstance(await read_frame(reader), QueryRequestMessage)
            await write_frame(
                writer, QueryResponseMessage(session_id="tok", state=state)
            )
            await write_frame(writer, wrong)
            await write_frame(
                writer,
                CertificateMessage(namespace=1, ok=True, checked=(), violations=()),
            )

        outcome, _ = _against_stub(
            contradict, lambda host, port: run_query(host, port, "tok")
        )
        assert (outcome.status, outcome.detail) == (
            "disconnected", f"journaled {state} result missing"
        )


class TestValidateNames:
    def test_good_assignment_passes(self):
        assert validate_names([(3, 1), (9, 2)], namespace=4, expected_count=2) == []

    def test_duplicate_names_are_caught(self):
        problems = validate_names(
            [(3, 1), (9, 1)], namespace=4, expected_count=2
        )
        assert any("uniqueness" in p for p in problems)

    def test_order_violation_is_caught_only_when_promised(self):
        swapped = [(3, 2), (9, 1)]
        assert validate_names(swapped, namespace=4, expected_count=2)
        assert (
            validate_names(
                swapped, namespace=4, expected_count=2, order_preserving=False
            )
            == []
        )

    def test_missing_decisions_break_termination(self):
        problems = validate_names([(3, 1)], namespace=4, expected_count=2)
        assert any("termination" in p for p in problems)


class TestSessionExecution:
    def test_select_algorithm_follows_the_regimes(self):
        assert select_algorithm(SystemParams(8, 0)) == "alg4"
        assert select_algorithm(SystemParams(11, 2)) == "alg4"  # 11 > 2·4+2
        assert select_algorithm(SystemParams(9, 2)) == "alg1-constant"  # 9 > 4+4
        assert select_algorithm(SystemParams(7, 2)) == "alg1"  # 7 > 6 only
        with pytest.raises(ConfigurationError):
            select_algorithm(SystemParams(6, 2))

    def test_execute_session_certifies_the_run(self):
        result = execute_session(
            SessionRequest(ids=tuple(make_ids("uniform", 8, seed=6)))
        )
        assert result.ok
        assert result.algorithm == "alg4"
        assert "order_preservation" in result.checked
        assert len(result.names) == 8

    def test_bad_attack_pairing_is_a_config_error(self):
        with pytest.raises(ConfigurationError, match="attack"):
            execute_session(
                SessionRequest(
                    ids=tuple(make_ids("uniform", 11, seed=7)),
                    algorithm="alg4",
                    t=2,
                    attack="divergence",  # an alg1-only strategy
                )
            )

    def test_isolated_execution_matches_inline(self):
        request = SessionRequest(ids=tuple(make_ids("uniform", 6, seed=9)))
        isolated = run_isolated(
            execute_session, request, CellBudget(wall_s=30.0)
        )
        assert isolated == execute_session(request)

    def test_isolated_execution_reraises_typed_errors(self):
        request = SessionRequest(
            ids=tuple(make_ids("uniform", 6, seed=10)), algorithm="nope"
        )
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            run_isolated(execute_session, request, CellBudget(wall_s=30.0))

    def test_isolated_wall_breach_is_typed(self):
        import time

        request = SessionRequest(ids=(3, 5, 8))
        with pytest.raises(ResourceBudgetExceeded) as info:
            run_isolated(
                lambda request: time.sleep(30.0), request, CellBudget(wall_s=0.1)
            )
        assert info.value.violated == "wall-budget"

    def test_out_of_regime_is_a_config_error(self):
        with pytest.raises(ConfigurationError, match="regime"):
            execute_session(
                SessionRequest(
                    ids=tuple(make_ids("uniform", 7, seed=8)),
                    algorithm="alg4",
                    t=2,  # 7 <= 2t²+t = 10
                )
            )
