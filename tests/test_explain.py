"""``repro-renaming explain``: re-execute a run, a stored cell or a journaled
session from its identity, and check the re-run against the stored record.

The flags form must print exactly what the removed ``inspect`` verb
printed (pinned as digests captured from it). A store cell or a session
token is re-run in-process with tracing on; the verdict is its exit code
(0 reproduced and the properties hold, 2 reproduced a violation or typed
error, 3 does not reproduce / not re-runnable / unknown / unreadable).
Nothing is ever written to the store or the journal.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis import LocalDirStore, RunTask
from repro.analysis.envelope import seal, unseal
from repro.analysis.store import STORE_SCHEMA
from repro.analysis.worker import failed_cell
from repro.cli import EXIT_INFRA, EXIT_OK, EXIT_VIOLATION, main
from repro.service import session as session_module
from repro.service.journal import SessionJournal, request_fingerprint
from repro.service.load import run_session
from repro.service.server import RenamingService
from repro.sim import SafetyViolation
from repro.workloads import make_ids

#: ``explain`` flags -> (exit code, sha256 of stdout), captured from the
#: ``inspect`` verb with the same flags before ``explain`` replaced it.
INSPECT_OUTPUT = {
    "--algorithm alg1 --n 7 --t 2 --attack divergence --seed 2":
        (0, "cc2d31357d71f10d2014ba903a13e840c9684c98f69452d8340170c488c5996a"),
    "--algorithm alg1 --n 7 --t 2":
        (0, "27719a2545ebad9fa87e3b7a5724a6d8e9053bd87e285966e1ee1ef51c951af2"),
    "--algorithm alg4 --n 11 --t 2 --attack selective-echo --seed 1":
        (0, "97ea4155360a1e3231b2907a8e63cff6f90944b817574223d139268b742f449a"),
    "--algorithm floodset --n 7 --t 2 --attack crash --seed 3":
        (0, "1e228e41da6b07d5d74e6bfd933aefb91876042b97be1ebbe0833e7b31a54c5c"),
    "--algorithm okun-crash --n 7 --t 2 --attack crash --workload clustered":
        (0, "63c224d328bde527b3530a95e9754d2ff98bb2f725323e62a4e161487f6219be"),
    "--algorithm alg1-constant --n 11 --t 1 --attack order-inversion "
    "--engine reference":
        (0, "d14e3b5fcfb9619dceccdd1e2e8a6be7e0f25b75bb1612de93f2472abef290c6"),
    "--algorithm alg1 --n 7 --t 2 --attack id-forging --model impersonation:k=2":
        (0, "da62b80734b3c3f5b537dc64959e4ec0536ec88f338639e8e96acb6776a0c0d7"),
    "--algorithm floodset --n 7 --t 2 "
    "--model partial-synchrony:rate=0.3,delay=2 --seed 4":
        (0, "84f34c9b29fdbbb25c2b7edc8b682b7a50babdea5be46df49d10c55068c0d8d8"),
    "--algorithm cht --n 7 --t 2 --attack crash":
        (0, "f302ae2c9918fb1493989baba11a2878486ccd9e1cff3d3c44e26231b5891669"),
    "--algorithm translated --n 7 --t 2 --attack crash":
        (0, "1ec99cc783f596569a92ac4679744cd3d17148ac6e87367dec772b6377ddd4d7"),
    "--algorithm consensus --n 7 --t 2 --attack noise":
        (0, "1e0178478573a3ce7b11e471dcbc6d82b0976392595ef5f56d02f9b2d1e69076"),
    "--algorithm cht --n 7 --t 2 "
    "--model partial-synchrony:rate=0.5,delay=2 --seed 1":
        (2, "b31bbe8c1d4d819241bb60606f5d247eb0c846e257a25bb7a2a5204d4ac38607"),
}


def explain(capsys, *argv):
    code = main(["explain", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def snapshot(root: Path) -> dict:
    """Every file under ``root`` (or ``root`` itself) and its bytes."""
    if root.is_file():
        return {root: root.read_bytes()}
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


# ---------------------------------------------------------------- flags


class TestFlagsForm:
    @pytest.mark.parametrize("flags", sorted(INSPECT_OUTPUT))
    def test_prints_what_inspect_printed(self, capsys, flags):
        code, out, _ = explain(capsys, *flags.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == INSPECT_OUTPUT[flags]

    def test_typed_error_is_printed_with_its_round(self, capsys):
        code, out, _ = explain(
            capsys, "--algorithm", "alg1", "--n", "7", "--t", "2",
            "--model", "partial-synchrony:rate=0.3,delay=2",
        )
        assert code == EXIT_VIOLATION
        assert "SafetyViolation (invariant) in round" in out

    def test_meaningless_configuration_is_infra(self, capsys):
        code, out, _ = explain(
            capsys, "--algorithm", "okun-crash", "--n", "7", "--t", "2",
            "--attack", "id-forging",
        )
        assert code == EXIT_INFRA
        assert "ConfigurationError" in out

    @pytest.mark.parametrize("argv", [
        (),
        ("--algorithm", "alg1", "--n", "7"),
        ("--cell", "x#0", "--session", "y#z"),
        ("--cell", "x#0", "--seed", "1"),
        ("--session", "y#z", "--engine", "reference"),
    ])
    def test_targets_combined_wrongly_are_infra(self, capsys, argv):
        code, _, err = explain(capsys, *argv)
        assert code == EXIT_INFRA
        assert "explain" in err


# ---------------------------------------------------------------- cells


def _terminal_path(root: Path, cell: int) -> Path:
    return root / "terminal" / f"{cell}.json"


def _edit_terminal(root: Path, cell: int, edit) -> None:
    """Rewrite cell's terminal record through ``edit(body)``, re-sealed so
    that only the edited field differs."""
    path = _terminal_path(root, cell)
    body = unseal(json.loads(path.read_text()), schema=STORE_SCHEMA)
    edit(body)
    path.write_text(json.dumps(seal(body, schema=STORE_SCHEMA)))


@pytest.fixture(scope="module")
def sweep_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("explain") / "sweep"
    assert main([
        "sweep", "--algorithms", "alg1", "alg4", "floodset", "--sizes", "7:2",
        "--attacks", "divergence", "crash", "--seeds", "0", "--workers", "1",
        "--store", str(root),
    ]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def chaos_store(tmp_path_factory):
    runs = tmp_path_factory.mktemp("explain") / "runs"
    assert main([
        "chaos", "--algorithms", "alg1", "--sizes", "7:2", "--seeds", "0",
        "--chaos-seeds", "0", "--preset", "smoke", "--workers", "1",
        "--journal", str(runs), "--run-id", "c",
    ]) == EXIT_OK
    return runs / "c"


def _statuses(root: Path) -> list:
    store = LocalDirStore(root)
    return [store.peek_terminal(cell)["payload"]["status"]
            for cell in range(store.cells)]


class TestStoreCells:
    def test_every_finished_sweep_cell_reproduces(self, capsys, sweep_store):
        before = snapshot(sweep_store)
        for cell in range(LocalDirStore(sweep_store).cells):
            code, out, _ = explain(capsys, "--cell", f"dir:{sweep_store}#{cell}")
            assert code == EXIT_OK, out
            assert "rank spread" in out or "round" in out
            assert "reproduced — the re-run matches the stored record" in out
        assert snapshot(sweep_store) == before

    def test_chaos_cells_reproduce_clean_and_detected(self, capsys, chaos_store):
        statuses = _statuses(chaos_store)
        assert "clean" in statuses and "detected" in statuses
        before = snapshot(chaos_store)
        for cell, status in enumerate(statuses):
            code, out, _ = explain(capsys, "--cell", f"{chaos_store}#{cell}")
            assert "reproduced" in out, out
            if status == "detected":
                assert code == EXIT_VIOLATION
                assert "run aborted — " in out
            else:
                assert code == EXIT_OK
        assert snapshot(chaos_store) == before

    def test_edited_field_is_named_and_infra(self, capsys, sweep_store, tmp_path):
        import shutil

        root = tmp_path / "store"
        shutil.copytree(sweep_store, root)

        def bump(body):
            body["payload"]["rounds"] += 1

        _edit_terminal(root, 0, bump)
        code, out, _ = explain(capsys, "--cell", f"{root}#0")
        assert code == EXIT_INFRA
        assert "does not reproduce" in out
        assert "rounds: stored" in out
        assert "report." not in out

        def rename(body):
            names = body["payload"]["report"]["names"]
            names[sorted(names)[0]] += 100

        _edit_terminal(root, 1, rename)
        code, out, _ = explain(capsys, "--cell", f"{root}#1")
        assert code == EXIT_INFRA
        assert "report.names: stored" in out

    def test_edited_detected_error_is_named(self, capsys, chaos_store, tmp_path):
        import shutil

        root = tmp_path / "store"
        shutil.copytree(chaos_store, root)
        cell = _statuses(root).index("detected")

        def reword(body):
            body["payload"]["error"] += " (edited)"

        _edit_terminal(root, cell, reword)
        code, out, _ = explain(capsys, "--cell", f"{root}#{cell}")
        assert code == EXIT_INFRA
        assert "error: stored" in out

    def test_quarantined_and_failed_cells_are_not_rerun(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.cli as cli

        def boom(task):
            raise AssertionError("a failed record must not be re-run")

        monkeypatch.setattr(cli, "task_record", boom)
        task = RunTask("alg1", 7, 2, "silent", 0)
        store = LocalDirStore(tmp_path / "store")
        store.seed(kind="chaos", run_id="q", fingerprint="f",
                   cells=[task.to_dict()] * 3)
        hung = failed_cell("chaos", task, "wall-budget",
                           "ResourceBudgetExceeded: cell ran 60s").payload
        store.write_terminal(0, "quarantined", hung, reason="wall-budget")
        store.write_terminal(1, "failed", None, reason="lease expired 3 times")
        before = snapshot(store.root)

        code, out, _ = explain(capsys, "--cell", f"{store.root}#0")
        assert code == EXIT_INFRA
        assert "quarantined (wall-budget): ResourceBudgetExceeded" in out
        assert "reproducer: python -m repro.cli chaos --algorithms alg1" in out
        code, out, _ = explain(capsys, "--cell", f"{store.root}#1")
        assert code == EXIT_INFRA
        assert "failed (lease expired 3 times)" in out
        assert snapshot(store.root) == before

    def test_pending_cell_is_rerun_with_nothing_to_compare(self, capsys, tmp_path):
        task = RunTask("floodset", 7, 2, "crash", 1)
        store = LocalDirStore(tmp_path / "store")
        store.seed(kind="sweep", run_id="p", fingerprint="f",
                   cells=[task.to_dict()])
        before = snapshot(store.root)
        code, out, _ = explain(capsys, "--cell", f"{store.root}#0")
        assert code == EXIT_OK
        assert "nothing stored to compare" in out
        assert snapshot(store.root) == before

    def test_unknown_and_unreadable_targets_are_infra(self, capsys, sweep_store, tmp_path):
        missing = tmp_path / "missing"
        for target in (f"{sweep_store}#99", f"{sweep_store}#x", f"{missing}#0",
                       f"{tmp_path}#0"):
            code, _, _ = explain(capsys, "--cell", target)
            assert code == EXIT_INFRA, target
        assert not missing.exists()

    def test_torn_terminal_record_is_infra_and_left_alone(
        self, capsys, sweep_store, tmp_path
    ):
        import shutil

        root = tmp_path / "store"
        shutil.copytree(sweep_store, root)
        _terminal_path(root, 0).write_text('{"schema": 1, "chec')
        before = snapshot(root)
        code, _, err = explain(capsys, "--cell", f"{root}#0")
        assert code == EXIT_INFRA
        assert "unreadable" in err
        assert snapshot(root) == before


# ------------------------------------------------------------- sessions


async def _journaled_sessions(path: Path, requests) -> None:
    """Run tokened sessions on an in-process daemon journaling to ``path``."""
    with SessionJournal.open_or_create(path) as journal:
        svc = RenamingService(
            install_signal_handlers=False, journal=journal,
            session_deadline_s=5.0, idle_timeout_s=2.0, drain_grace_s=1.0,
        )
        await svc.start()
        runner = asyncio.create_task(svc.serve_forever())
        host, port = svc.bound_address
        try:
            for token, kwargs in requests:
                await run_session(host, port, session_id=token, **kwargs)
        finally:
            svc.initiate_drain()
            svc.initiate_drain()
            await runner


def _request(token, ids, **kwargs):
    request = {"session_id": token, "algorithm": "auto", "t": 0,
               "attack": "silent", "seed": 0, "ids": list(ids)}
    request.update(kwargs)
    return request


@pytest.fixture(scope="module")
def journal_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("explain") / "sessions.jsonl"
    asyncio.run(_journaled_sessions(path, [
        ("done", dict(ids=make_ids("uniform", 8, seed=1), seed=1)),
        ("adv", dict(ids=make_ids("uniform", 8, seed=2), algorithm="alg1",
                     t=1, attack="conforming", seed=2)),
        ("cfg", dict(ids=make_ids("uniform", 6, seed=3), t=2)),
    ]))
    with SessionJournal.open_or_create(path) as journal:
        budget = _request("budget", [4, 9, 17])
        journal.accepted("budget", request_fingerprint(budget), budget)
        journal.failed("budget", request_fingerprint(budget),
                       code="wall-budget", detail="session ran 30s")
        flight = _request("flight", make_ids("uniform", 7, seed=4))
        journal.accepted("flight", request_fingerprint(flight), flight)
    return path


class TestSessions:
    @pytest.mark.parametrize("token", ["done", "adv"])
    def test_completed_frames_equal_the_journal(self, capsys, journal_path, token):
        code, out, _ = explain(capsys, "--session", f"{journal_path}#{token}")
        assert code == EXIT_OK, out
        assert "properties: OK" in out
        assert "re-run matches the stored record" in out

    def test_config_failure_fails_again(self, capsys, journal_path):
        code, out, err = explain(capsys, "--session", f"{journal_path}#cfg")
        assert code == EXIT_VIOLATION
        assert "N > 3t" in out or "N > 3t" in err
        assert "reproduced" in out

    def test_budget_failure_is_not_rerun(self, capsys, journal_path, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a budget breach must not be re-run")

        monkeypatch.setattr(session_module, "session_experiment", boom)
        code, out, _ = explain(capsys, "--session", f"{journal_path}#budget")
        assert code == EXIT_INFRA
        assert "wall-budget: session ran 30s" in out

    def test_in_flight_token_reruns_with_nothing_to_compare(
        self, capsys, journal_path
    ):
        code, out, _ = explain(capsys, "--session", f"{journal_path}#flight")
        assert code == EXIT_OK
        assert "nothing stored to compare" in out

    def test_unknown_token_and_bad_targets_are_infra(
        self, capsys, journal_path, tmp_path
    ):
        for target in (f"{journal_path}#nope", f"{journal_path}",
                       f"{tmp_path / 'none.jsonl'}#done"):
            code, _, _ = explain(capsys, "--session", target)
            assert code == EXIT_INFRA, target

    def test_edited_frames_are_named(self, capsys, journal_path, tmp_path):
        path = tmp_path / "s.jsonl"
        real = session_module.execute_session(session_module.SessionRequest(
            ids=tuple(make_ids("uniform", 8, seed=1)), seed=1
        ))
        names, _ = session_module.response_frames(real)
        request = _request("edit", make_ids("uniform", 8, seed=1), seed=1)
        with SessionJournal.open_or_create(path) as journal:
            journal.accepted("edit", request_fingerprint(request), request)
            journal.completed("edit", request_fingerprint(request),
                              names_hex=names.hex(), certificate_hex="00",
                              ok=True)
        code, out, _ = explain(capsys, "--session", f"{path}#edit")
        assert code == EXIT_INFRA
        assert "certificate_hex: stored '00'" in out
        assert "names_hex" not in out

    def test_safety_violation_is_reproduced_with_its_round(
        self, capsys, tmp_path, monkeypatch
    ):
        def violating(*args, **kwargs):
            raise SafetyViolation(
                "name 2 claimed twice", violated="uniqueness", round_no=4
            )

        path = tmp_path / "s.jsonl"
        with monkeypatch.context() as patch:
            patch.setattr(session_module, "run_experiment", violating)
            asyncio.run(_journaled_sessions(path, [
                ("bad", dict(ids=make_ids("uniform", 8, seed=5))),
            ]))
            code, out, _ = explain(capsys, "--session", f"{path}#bad")
        assert code == EXIT_VIOLATION
        assert "SafetyViolation (uniqueness) in round 4" in out
        assert "reproduced" in out
        # Unpatched, the run completes: the journaled violation does not
        # reproduce.
        code, out, _ = explain(capsys, "--session", f"{path}#bad")
        assert code == EXIT_INFRA
        assert "does not reproduce" in out

    def test_journal_with_torn_tail_is_read_not_repaired(
        self, capsys, journal_path, tmp_path
    ):
        path = tmp_path / "s.jsonl"
        path.write_bytes(journal_path.read_bytes() + b'{"v":1,"seq')
        before = snapshot(path)
        code, _, _ = explain(capsys, "--session", f"{path}#done")
        assert code == EXIT_OK
        assert snapshot(path) == before

    def test_sessions_show_points_failed_tokens_at_explain(
        self, capsys, journal_path
    ):
        for token in ("cfg", "flight"):
            main(["sessions", "show", token, "--journal", str(journal_path)])
            out = capsys.readouterr().out
            assert f"explain --session {journal_path}#{token}" in out
            assert "trace:" not in out
