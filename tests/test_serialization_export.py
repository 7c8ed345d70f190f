"""Tests for sweep export (CSV)."""

from __future__ import annotations

import csv

from repro import OrderPreservingRenaming, run_protocol
from repro.adversary import make_adversary
from repro.analysis import (
    CSV_FIELDS,
    SweepConfig,
    export_csv,
    run_sweep,
)


class TestCsvExport:
    def test_schema_and_rows(self, tmp_path):
        records = run_sweep(
            SweepConfig(algorithms=["alg1"], sizes=[(7, 2)], seeds=[0, 1])
        )
        path = export_csv(records, tmp_path / "sweep.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == CSV_FIELDS
        assert len(rows) == 3
        by_field = dict(zip(CSV_FIELDS, rows[1]))
        assert by_field["algorithm"] == "alg1"
        assert by_field["order_preservation"] == "1"
        assert by_field["violations"] == ""

    def test_violations_recorded(self, tmp_path):
        from functools import partial

        from repro import RenamingOptions
        from repro.analysis import check_renaming, run_experiment
        from repro.analysis.experiments import ExperimentRecord

        # Build a record from an ablated run that breaks, and check the CSV
        # row carries the violation text.
        from repro.workloads import make_ids

        ids = make_ids("uniform", 7, seed=0)
        result = run_protocol(
            partial(
                OrderPreservingRenaming,
                options=RenamingOptions(validate_votes=False),
            ),
            n=7,
            t=2,
            ids=ids,
            adversary=make_adversary("divergence"),
            seed=0,
        )
        report = check_renaming(result, 8)
        record = ExperimentRecord(
            algorithm="alg1-ablated",
            n=7,
            t=2,
            attack="divergence",
            seed=0,
            rounds=result.metrics.round_count,
            correct_messages=result.metrics.correct_messages,
            correct_bits=result.metrics.correct_bits,
            peak_message_bits=result.metrics.peak_message_bits,
            report=report,
            result=result,
        )
        path = export_csv([record], tmp_path / "bad.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        by_field = dict(zip(CSV_FIELDS, rows[1]))
        assert by_field["uniqueness"] == "0" or by_field["order_preservation"] == "0"
        assert by_field["violations"]
