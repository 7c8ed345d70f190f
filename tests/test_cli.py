"""Tests for the command-line driver."""

from __future__ import annotations

import pytest

from repro.analysis import LocalDirStore
from repro.cli import (
    EXIT_INFRA,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_VIOLATION,
    build_parser,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "--algorithm", "alg1", "--n", "7", "--t", "2"]
        )
        assert args.algorithm == "alg1"
        assert args.attack == "silent"

    def test_size_parsing(self):
        args = build_parser().parse_args(
            ["sweep", "--algorithms", "alg1", "--sizes", "7:2", "10:3"]
        )
        assert args.sizes == [(7, 2), (10, 3)]

    def test_bad_size_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--algorithms", "alg1", "--sizes", "7-2"]
            )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--algorithm", "bogus", "--n", "7", "--t", "2"]
            )


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "alg1" in out and "id-forging" in out and "uniform" in out

    def test_run_ok(self, capsys):
        code = main(
            ["run", "--algorithm", "alg1", "--n", "7", "--t", "2",
             "--attack", "id-forging", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "->" in out

    def test_run_alg4(self, capsys):
        code = main(
            ["run", "--algorithm", "alg4", "--n", "11", "--t", "2",
             "--attack", "selective-echo"]
        )
        assert code == 0

    def test_scenario(self, capsys):
        code = main(["scenario", "saturation"])
        assert code == 0
        assert "forging" in capsys.readouterr().out

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "--algorithms", "alg1", "alg4", "--sizes", "7:2", "11:2",
             "--attacks", "silent", "noise", "--seeds", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alg1" in out and "alg4" in out

    def test_sweep_parallel_and_cached(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "sweep", "--algorithms", "alg1", "--sizes", "7:2",
            "--attacks", "silent", "--seeds", "0", "1",
            "--workers", "2", "--cache", str(cache),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 cached" in out
        # Second invocation hits the cache: zero runs executed.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 cached" in out

    def test_run_rejects_meaningless_pairing(self, capsys):
        code = main(
            ["run", "--algorithm", "okun-crash", "--n", "7", "--t", "2",
             "--attack", "id-forging"]
        )
        # Configuration errors are infra failures (3), not violations (2):
        # the measurement never happened.
        assert code == 3
        assert "valid attacks" in capsys.readouterr().err

    def test_sweep_csv(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code = main(
            ["sweep", "--algorithms", "alg1", "--sizes", "7:2",
             "--attacks", "silent", "--csv", str(target)]
        )
        assert code == 0
        assert target.exists()
        assert "algorithm" in target.read_text().splitlines()[0]

    def test_bounds(self, capsys):
        code = main(["bounds", "7:2", "11:2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "N>3t" in out and "28/27" in out


class TestExitCodeContract:
    """The documented exit codes (docs/robustness.md) are append-only API."""

    def test_contract_values(self):
        assert EXIT_OK == 0
        assert EXIT_VIOLATION == 2
        assert EXIT_INFRA == 3
        assert EXIT_INTERRUPTED == 4

    def test_success_is_zero(self):
        assert main(
            ["run", "--algorithm", "alg1", "--n", "7", "--t", "2"]
        ) == EXIT_OK

    def test_configuration_error_is_infra(self, capsys):
        code = main(
            ["run", "--algorithm", "alg1", "--n", "6", "--t", "2"]
        )
        assert code == EXIT_INFRA
        capsys.readouterr()

    def test_chaos_max_rounds_below_one_is_infra(self, capsys):
        """A zero round budget is a bad configuration, not a cell whose
        round-limit error counts as a detected fault."""
        code = main([
            "chaos", "--algorithms", "alg1", "--sizes", "4:1", "--seeds", "0",
            "--max-rounds", "0",
        ])
        assert code == EXIT_INFRA
        assert "max_rounds must be at least 1" in capsys.readouterr().err

    def test_chaos_bad_fault_value_is_infra_before_any_cell(
        self, capsys, caplog
    ):
        code = main([
            "chaos", "--algorithms", "alg1", "--sizes", "7:2",
            "--drop", "1.5", "--workers", "1",
        ])
        assert code == EXIT_INFRA
        assert "drop must be a probability" in capsys.readouterr().err
        # Refused while building the grid, not crashed and retried per cell.
        assert "crashed" not in caplog.text

    def test_undecodable_stored_cell_is_infra(self, capsys, tmp_path):
        """A checksummed cell with an unknown field is a StoreError naming
        the cell, not a raw TypeError."""
        cell = {
            "algorithm": "alg1", "n": 7, "t": 2, "attack": "silent",
            "seed": 0, "retired_knob": True,
        }
        LocalDirStore(tmp_path / "s1").seed(
            kind="sweep", run_id="s1", fingerprint="f" * 64, cells=[cell],
        )
        code = main([
            "runs", "resume", "s1", "--runs-dir", str(tmp_path),
            "--workers", "1",
        ])
        assert code == EXIT_INFRA
        err = capsys.readouterr().err
        assert "retired_knob" in err and "another release" in err

    def test_unusable_journal_is_infra(self, capsys, tmp_path):
        code = main(
            ["runs", "resume", "missing", "--runs-dir", str(tmp_path)]
        )
        assert code == EXIT_INFRA
        assert "cannot read journal" in capsys.readouterr().err

    def test_duplicate_run_id_is_infra(self, capsys, tmp_path):
        argv = [
            "sweep", "--algorithms", "alg1", "--sizes", "7:2", "--seeds", "0",
            "--workers", "1", "--journal", str(tmp_path), "--run-id", "dup",
        ]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert main(argv) == EXIT_INFRA
        assert "already exists" in capsys.readouterr().err

    def test_bad_run_id_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["runs", "resume", "../escape", "--runs-dir", "x"]
            )


class TestRunsCommands:
    def _journaled_sweep(self, tmp_path, run_id="r1"):
        return main([
            "sweep", "--algorithms", "alg1", "--sizes", "7:2",
            "--seeds", "0", "1", "--workers", "1",
            "--journal", str(tmp_path), "--run-id", run_id,
        ])

    def test_list_empty(self, capsys, tmp_path):
        assert main(["runs", "list", "--runs-dir", str(tmp_path)]) == EXIT_OK
        assert "no journals" in capsys.readouterr().out

    def test_journaled_sweep_then_list(self, capsys, tmp_path):
        assert self._journaled_sweep(tmp_path) == EXIT_OK
        capsys.readouterr()
        assert main(["runs", "list", "--runs-dir", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "r1" in out and "sweep" in out and "complete" in out

    def test_resume_complete_run_executes_nothing(self, capsys, tmp_path):
        assert self._journaled_sweep(tmp_path) == EXIT_OK
        capsys.readouterr()
        code = main([
            "runs", "resume", "r1", "--runs-dir", str(tmp_path),
            "--workers", "1",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0 executed" in out and "2 restored" in out

    def test_doctor_asserts_no_reexecution(self, capsys, tmp_path):
        assert self._journaled_sweep(tmp_path) == EXIT_OK
        main(["runs", "resume", "r1", "--runs-dir", str(tmp_path),
              "--workers", "1"])
        capsys.readouterr()
        code = main([
            "runs", "doctor", "r1", "--runs-dir", str(tmp_path),
            "--assert-no-reexecution",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "reexecution: none" in out
        assert "complete" in out

    def test_doctor_missing_header_is_infra(self, capsys, tmp_path):
        # A run directory killed before its header became durable: damaged.
        (tmp_path / "bad").mkdir()
        code = main(["runs", "doctor", "bad", "--runs-dir", str(tmp_path)])
        assert code == EXIT_INFRA
        assert "no header" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", ["dir:", ""])
    def test_doctor_on_a_missing_store_is_infra_and_creates_nothing(
        self, capsys, tmp_path, prefix
    ):
        missing = tmp_path / "typo-store"
        code = main(["runs", "doctor", "--store", f"{prefix}{missing}"])
        assert code == EXIT_INFRA
        assert "no such store" in capsys.readouterr().err
        assert not missing.exists()

    def test_journaled_chaos_round_trip(self, capsys, tmp_path):
        argv = [
            "chaos", "--algorithms", "alg1", "--sizes", "7:2",
            "--seeds", "0", "--chaos-seeds", "0", "--drop", "0.2",
            "--workers", "1", "--journal", str(tmp_path), "--run-id", "c1",
        ]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        code = main([
            "runs", "resume", "c1", "--runs-dir", str(tmp_path),
            "--workers", "1",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "already terminal, 0 to execute" in out


class TestSessionsCommands:
    def _journal(self, path):
        from repro.service.frames import encode_frame
        from repro.service.journal import SessionJournal
        from repro.service.messages import CertificateMessage, NamesAssignedMessage

        names = NamesAssignedMessage(
            entries=((3, 1), (9, 2)), algorithm="alg1", rounds=7
        )
        certificate = CertificateMessage(
            namespace=4, ok=True, checked=("uniqueness",), violations=()
        )
        with SessionJournal.open_or_create(path) as journal:
            journal.accepted("done", "f" * 64, {"ids": [3, 9]})
            journal.completed(
                "done", "f" * 64,
                names_hex=encode_frame(names).hex(),
                certificate_hex=encode_frame(certificate).hex(),
                ok=True,
            )
            journal.accepted("bad", "e" * 64, {"ids": [3]})
            journal.failed("bad", "e" * 64, code="config", detail="N must exceed 3t")
        return str(path)

    def test_show_decodes_the_journaled_frames(self, capsys, tmp_path):
        journal = self._journal(tmp_path / "s.jsonl")
        assert main(["sessions", "show", "done", "--journal", journal]) == EXIT_OK
        out = capsys.readouterr().out
        assert "alg1, 7 round(s), namespace 4, certificate ok" in out
        assert "3 -> 1" in out and "9 -> 2" in out

        assert main(["sessions", "show", "bad", "--journal", journal]) == EXIT_VIOLATION
        assert "config: N must exceed 3t" in capsys.readouterr().out

        assert main(["sessions", "show", "nope", "--journal", journal]) == EXIT_INFRA
        assert "not in" in capsys.readouterr().err

    def test_torn_tail_is_cut_once(self, capsys, tmp_path):
        path = tmp_path / "s.jsonl"
        journal = self._journal(path)
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"crc": "to')
        assert main(["sessions", "list", "--journal", journal]) == EXIT_OK
        assert "torn tail: 11 byte(s)" in capsys.readouterr().out
        assert path.stat().st_size == intact
        assert main(["sessions", "list", "--journal", journal]) == EXIT_OK
        assert "torn tail" not in capsys.readouterr().out
