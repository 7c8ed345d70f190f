#!/usr/bin/env python
"""Store-fabric throughput: claim cycles, streamed rows, bounded memory.

Standalone capture script (``make bench-store``), not a pytest bench: the
numbers are environment-bound and get checked in to
``benchmarks/results/store_throughput.txt`` as *expectations*, the way the
E10 engine-scaling capture is.

Three measurements, on synthetic no-op cells so the store is the only
thing timed:

* **claim cycles/s** — full lease lifecycles (claim → finish) through each
  backend at 10k cells: the fabric's scheduling overhead ceiling. Cells
  that cost less than ``1/rate`` seconds should not go on that store.
* **streamed rows/s** — coordinator-side decode of an already-complete
  10k-cell store: the read path a resume or a report regeneration pays.
* **bounded memory** — a 50k-cell store streamed through a running
  aggregation while sampling RSS: the peak growth over baseline must stay
  flat (O(1) rows held), not proportional to the row count.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

from repro.analysis.coordinator import Coordinator  # noqa: E402
from repro.analysis.store import (  # noqa: E402
    LocalDirStore,
    SqliteStore,
)
from repro.analysis.budget import rss_mb_of  # noqa: E402
from repro.analysis.worker import RUNNERS, CellRunner  # noqa: E402

#: Synthetic no-op run kind: decode/execute/encode are identity-shaped, so
#: every measured second is store time, not simulation time.
RUNNERS.setdefault(
    "synthetic",
    CellRunner(
        kind="synthetic",
        decode=lambda payload: payload,
        execute=lambda task: {"cell": task["cell"], "value": task["cell"] * 3},
        encode=lambda result, attempts: result,
        failure=lambda task, detail, attempts: {"failed": True,
                                                "detail": detail},
        failure_state="failed",
        budget_failure=lambda task, kind, detail: {"failed": True,
                                                   "detail": detail},
        decode_row=lambda task, payload: payload,
        lease_row=lambda task, reason: {"failed": True, "detail": reason},
    ),
)


def make_store(backend: str, root: Path):
    if backend == "dir":
        return LocalDirStore(root / "store")
    return SqliteStore(root / "store.sqlite")


def seeded(backend: str, root: Path, cells: int):
    store = make_store(backend, root)
    store.seed(
        kind="synthetic", run_id=f"bench-{backend}", fingerprint="bench",
        cells=[{"cell": i} for i in range(cells)],
    )
    return store


def bench_claim_cycles(backend: str, cells: int) -> float:
    """Full claim→finish lifecycles per second."""
    with tempfile.TemporaryDirectory() as tmp:
        store = seeded(backend, Path(tmp), cells)
        start = time.perf_counter()
        while True:
            claim = store.claim("bench")
            if claim is None:
                break
            store.finish(claim, {"cell": claim.cell,
                                 "value": claim.cell * 3})
        elapsed = time.perf_counter() - start
        assert store.complete
        return cells / elapsed


def bench_stream_rows(backend: str, cells: int) -> float:
    """Coordinator-side decoded rows per second from a complete store."""
    with tempfile.TemporaryDirectory() as tmp:
        store = seeded(backend, Path(tmp), cells)
        for index in range(cells):
            store.write_terminal(
                index, "finished", {"cell": index, "value": index * 3}
            )
        coordinator = Coordinator(store)
        grid = [{"cell": i} for i in range(cells)]
        start = time.perf_counter()
        count = 0
        for _ in coordinator.stream(
            "synthetic", grid, fingerprint="bench"
        ):
            count += 1
        elapsed = time.perf_counter() - start
        assert count == cells
        return cells / elapsed


def bench_bounded_memory(backend: str, cells: int):
    """Stream ``cells`` rows through a running aggregation, sampling RSS.

    Returns (rows, aggregate, baseline_mb, peak_growth_mb). The growth is
    the bounded-memory claim: it must not scale with ``cells``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        store = seeded(backend, Path(tmp), cells)
        for index in range(cells):
            store.write_terminal(
                index, "finished", {"cell": index, "value": index * 3}
            )
        coordinator = Coordinator(store)
        grid = [{"cell": i} for i in range(cells)]
        baseline = rss_mb_of(os.getpid()) or 0.0
        peak = baseline
        total = 0
        count = 0
        for row in coordinator.stream(
            "synthetic", grid, fingerprint="bench"
        ):
            total += row["value"]
            count += 1
            if count % 5000 == 0:
                peak = max(peak, rss_mb_of(os.getpid()) or 0.0)
        peak = max(peak, rss_mb_of(os.getpid()) or 0.0)
        assert count == cells
        assert total == 3 * cells * (cells - 1) // 2
        return count, total, baseline, peak - baseline


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=10_000,
                        help="grid size for the throughput measurements")
    parser.add_argument("--demo-cells", type=int, default=50_000,
                        help="grid size for the bounded-memory streaming "
                             "demo (sqlite backend)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the table to PATH")
    args = parser.parse_args()

    lines = [
        f"Store fabric throughput — synthetic no-op cells, "
        f"{args.cells} cells per measurement",
        "",
        "backend  claim cycles/s  streamed rows/s",
        "-------  --------------  ---------------",
    ]
    for backend in ("dir", "sqlite"):
        cycles = bench_claim_cycles(backend, args.cells)
        rows = bench_stream_rows(backend, args.cells)
        lines.append(f"{backend:7}  {cycles:14.0f}  {rows:15.0f}")
        print(lines[-1], flush=True)

    count, total, baseline, growth = bench_bounded_memory(
        "sqlite", args.demo_cells
    )
    lines += [
        "",
        f"Bounded-memory streaming demo (sqlite, {count} cells):",
        f"  aggregate checksum: {total}",
        f"  RSS baseline {baseline:.1f} MB, peak growth +{growth:.1f} MB "
        f"while streaming {count} rows",
        "",
        "Reading the numbers: claim cycles/s is the fabric's scheduling",
        "ceiling — a cell cheaper than 1/rate seconds is dominated by",
        "store overhead and belongs on the in-process pool instead.",
        "Simulation cells run for milliseconds to seconds, orders of",
        "magnitude above it. Peak RSS growth must stay flat as cells",
        "grow: the coordinator holds one decoded row at a time.",
    ]
    output = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(output)
        print(f"wrote {args.out}")
    else:
        print(output)

    # The bounded-memory claim, enforced: 50k tiny rows held all at once
    # would cost hundreds of MB; streaming must stay within a small
    # constant envelope.
    if growth > 64.0:
        print(f"FAIL: streaming RSS grew {growth:.1f} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
