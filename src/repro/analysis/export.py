"""CSV export of experiment sweeps.

The benchmark harness prints ASCII tables; downstream users who want to
plot or post-process sweep results get a stable CSV schema instead. One row
per run, flat columns, loadable by pandas/R/spreadsheets without adapters.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, List, Union

from .envelope import atomic_writer
from .executor import ExperimentSummary
from .experiments import ExperimentRecord

#: Row types the exporter accepts: the slim transferable summary (what
#: ``run_sweep`` returns) or the full in-process record — the schema reads
#: only the fields the two share.
RecordLike = Union[ExperimentRecord, ExperimentSummary]

#: Column order of the CSV schema (stable; append-only by policy).
CSV_FIELDS: List[str] = [
    "algorithm",
    "n",
    "t",
    "attack",
    "seed",
    "rounds",
    "correct_messages",
    "correct_bits",
    "peak_message_bits",
    "max_name",
    "validity",
    "termination",
    "uniqueness",
    "order_preservation",
    "violations",
]


def record_row(record: RecordLike) -> List[object]:
    """Flatten one experiment record into the CSV schema."""
    report = record.report
    return [
        record.algorithm,
        record.n,
        record.t,
        record.attack,
        record.seed,
        record.rounds,
        record.correct_messages,
        record.correct_bits,
        record.peak_message_bits,
        record.max_name,
        int(report.validity),
        int(report.termination),
        int(report.uniqueness),
        int(report.order_preservation),
        "; ".join(report.violations),
    ]


def export_csv(
    records: Iterable[RecordLike], path: Union[str, Path]
) -> Path:
    """Write records to ``path`` as CSV; returns the path written.

    The write is atomic (:func:`~repro.analysis.envelope.atomic_writer`):
    a killed export leaves the previous file or the complete new one, never
    a torn CSV that a downstream plot would silently truncate.

    ``records`` is consumed lazily, one row at a time, straight into the
    temp file — exporting a streamed fabric sweep holds O(1) rows in
    memory no matter how many cells the grid has.
    """
    with atomic_writer(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for record in records:
            writer.writerow(record_row(record))
    return Path(path)
