"""Metric definitions, the per-layer roll-up and the printed report.

End-to-end metrics come from untimed-wrapper runs only. Per-layer metrics
come from a traced phase: every span's self time (its duration minus its
child spans') is charged to its layer and divided by the summed wall time
of the ops it served.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perf_trace import CPU, END, FLAG, NAME, OP, PARENT, START, Tracer

#: name -> (unit, better): what a user of the program sees, gated by a
#: bound in BENCHMARK.json.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
#: Printed beside them but not gated: on a shared 2-vCPU host the p99's
#: run-to-run quartile spread (0.2-0.9 of its median) exceeds any bound
#: a gate may use. Traced runs record it as ``latency.p99_ms``.
REPORTED: Dict[str, Tuple[str, str]] = {"latency_p99_ms": ("ms", "lower")}

#: Time metrics are scaled to a host that runs ``reference_kernel`` in this
#: many seconds (its fastest time on a quiet 2-vCPU x86-64 VM, CPython
#: 3.11). On a shared host the speed one thread gets swings by 1.5-2.5x,
#: for seconds or minutes at a time, as neighbours load the machine. The
#: kernel, timed between the ops of each window, slows with it, so a
#: window's figures divided by its kernel slowdown follow the program and
#: not the neighbours. Raw figures are printed beside the scaled ones.
REFERENCE_S = 0.0014

#: Layers in stack order, top (client) to bottom (protocol step). Each is
#: one span name, except ``op.unattributed``: op time no span of the op's
#: own thread or task covers. On the service workloads the daemon's spans
#: run on other tasks and threads while the client waits in
#: ``read_frame.client``, so their shares overlap that one.
LAYERS: Tuple[str, ...] = (
    "op.unattributed",
    "service.load.validate_names",
    "service.frames.write_frame.client",
    "service.frames.read_frame.client",
    "service.frames.read_frame.server",
    "service.frames.write_frame.server",
    "service.frames.decode",
    "service.frames.encode",
    "service.journal.SessionJournal.append",
    "service.session.execute_session",
    "analysis.executor.execute_task",
    "analysis.properties.check_renaming",
    "sim.runner.run_protocol",
    "sim.engine.execute",
    "sim.monitor",
    "adversary.send",
    "adversary.observe",
    "sim.process.send",
    "sim.process.deliver",
    "core.validation.is_valid_ranks",
    "core.approximation.approximate",
)

PROTOCOL_LAYERS = (
    "sim.process.send",
    "sim.process.deliver",
    "core.validation.is_valid_ranks",
    "core.approximation.approximate",
)
SUBSTRATE_LAYERS = ("sim.engine.execute", "sim.runner.run_protocol", "sim.monitor")

#: Exact counts over the probe ops (the first ops of a seed's op sequence).
COUNTS = (
    "probe_ops",
    "rounds",
    "correct_messages",
    "correct_bits",
    "journal_records",
    "isvalid_checked",
    "isvalid_accepted",
)


def per_layer_specs() -> Dict[str, Tuple[str, str]]:
    """name -> (unit, better) for every metric a traced run prints."""
    specs: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        specs[f"{layer}.self_pct"] = ("%", "lower")
        specs[f"{layer}.self_ms_per_op"] = ("ms", "lower")
        specs[f"{layer}.calls_per_op"] = ("count", "lower")
    specs.update(
        {
            "latency.p99_ms": ("ms", "lower"),
            "core.validation.is_valid_ranks.accepted_ratio": ("ratio", "higher"),
            "service.session.execute_session.wall_p50_ms": ("ms", "lower"),
            "service.session.execute_session.wall_p99_ms": ("ms", "lower"),
            "service.session.execute_session.contention_ms_per_op": ("ms", "lower"),
            "service.journal.SessionJournal.append.p50_ms": ("ms", "lower"),
            "service.journal.SessionJournal.append.p99_ms": ("ms", "lower"),
            "service.queue_wait.p50_ms": ("ms", "lower"),
            "service.queue_wait.p50_share_pct": ("%", "lower"),
            "summary.protocol_pct": ("%", "lower"),
            "summary.substrate_pct": ("%", "lower"),
            "trace.ops_per_s_traced": ("1/s", "higher"),
            "trace.ops_per_s_untraced": ("1/s", "higher"),
            "trace.overhead_pct": ("%", "lower"),
            "host.slowdown": ("ratio", "lower"),
        }
    )
    for count in COUNTS:
        specs[f"count.{count}"] = ("count", "lower")
    return specs


# ----------------------------------------------------------------- helpers


def quantile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); a lone value is itself."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def slowdown(reference: Sequence[float]) -> float:
    """How much slower than the reference host these kernel times ran."""
    return statistics.median(reference) / REFERENCE_S if reference else 1.0


def scaled_rate(windows, scaled: bool = True) -> float:
    """Median window throughput, each scaled to the reference host."""
    return statistics.median(
        w.rate * (slowdown(w.reference) if scaled else 1.0) for w in windows
    )


def end_to_end(phase, setup_s: float, rss_mb: float, scaled: bool = True) -> Dict[str, float]:
    """Throughput and latency percentiles as medians over the phase's
    windows, each window scaled to the reference host by the kernel times
    taken inside it (unscaled with ``scaled=False``)."""
    windows = phase.windows

    def latency_ms(q):
        return 1000 * statistics.median(
            quantile(w.latencies, q) / (slowdown(w.reference) if scaled else 1.0)
            for w in windows
        )

    return {
        "setup_s": setup_s,
        "ops_per_s": scaled_rate(windows, scaled),
        "latency_p50_ms": latency_ms(50),
        "latency_p99_ms": latency_ms(99),
        "peak_rss_mb": rss_mb,
    }


# ------------------------------------------------------------ layer roll-up


def layer_rollup(tracer: Tracer, op_ids: Iterable[str]):
    """Per-layer calls, busy and self seconds over the traced ops.

    Returns ``(layers, per_op)``: ``layers[name] = [calls, busy, self]``
    and ``per_op[op] = {"op": wall, "server": server-side busy}``.
    """
    op_set = set(op_ids)
    child: Dict[int, float] = {}
    for record in tracer.spans:
        parent = record[PARENT]
        if parent is not None:
            child[id(parent)] = child.get(id(parent), 0.0) + record[END] - record[START]
    layers: Dict[str, List[float]] = {name: [0, 0.0, 0.0] for name in LAYERS}
    per_op: Dict[str, Dict[str, float]] = {}
    for record in tracer.spans:
        name = record[NAME]
        duration = record[END] - record[START]
        if name == "op":
            name = "op.unattributed"
            per_op.setdefault(record[OP], {})["op"] = duration
        elif record[PARENT] is None and record[OP] in op_set and name in (
            "service.session.execute_session",
            "service.journal.SessionJournal.append",
        ):
            entry = per_op.setdefault(record[OP], {})
            entry["server"] = entry.get("server", 0.0) + duration
        row = layers.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - child.get(id(record), 0.0)
    return layers, per_op


def layer_metrics(tracer: Tracer, traced, untraced):
    """Every per-layer metric of a traced run (see :func:`per_layer_specs`)."""
    ops = traced.ops
    n_ops = len(ops)
    layers, per_op = layer_rollup(tracer, (op.op_id for op in ops))
    op_wall = sum(entry.get("op", 0.0) for entry in per_op.values()) or 1e-12
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        calls, _busy, self_s = layers[layer]
        metrics[f"{layer}.self_pct"] = 100.0 * self_s / op_wall
        metrics[f"{layer}.self_ms_per_op"] = 1000.0 * self_s / n_ops
        metrics[f"{layer}.calls_per_op"] = calls / n_ops

    def durations(name, cpu=False):
        return [
            (r[END] - r[START]) - (r[CPU] if cpu else 0.0)
            for r in tracer.spans
            if r[NAME] == name
        ]

    verdicts = [r[FLAG] for r in tracer.spans if r[NAME] == "core.validation.is_valid_ranks"]
    metrics["core.validation.is_valid_ranks.accepted_ratio"] = (
        sum(verdicts) / len(verdicts) if verdicts else 0.0
    )
    session_wall = durations("service.session.execute_session")
    metrics["service.session.execute_session.wall_p50_ms"] = _ms_quantile(session_wall, 50)
    metrics["service.session.execute_session.wall_p99_ms"] = _ms_quantile(session_wall, 99)
    metrics["service.session.execute_session.contention_ms_per_op"] = (
        1000.0 * sum(durations("service.session.execute_session", cpu=True)) / n_ops
    )
    appends = durations("service.journal.SessionJournal.append")
    metrics["service.journal.SessionJournal.append.p50_ms"] = _ms_quantile(appends, 50)
    metrics["service.journal.SessionJournal.append.p99_ms"] = _ms_quantile(appends, 99)
    server_side = [entry for entry in per_op.values() if "server" in entry and "op" in entry]
    if server_side:
        queue = [entry["op"] - entry["server"] for entry in server_side]
        latency_p50 = quantile([entry["op"] for entry in server_side], 50)
        metrics["service.queue_wait.p50_ms"] = quantile(queue, 50) * 1000
        metrics["service.queue_wait.p50_share_pct"] = 100.0 * quantile(queue, 50) / latency_p50
    else:
        metrics["service.queue_wait.p50_ms"] = 0.0
        metrics["service.queue_wait.p50_share_pct"] = 0.0
    metrics["summary.protocol_pct"] = sum(
        metrics[f"{layer}.self_pct"] for layer in PROTOCOL_LAYERS
    )
    metrics["summary.substrate_pct"] = sum(
        metrics[f"{layer}.self_pct"] for layer in SUBSTRATE_LAYERS
    )
    traced_rate = scaled_rate(traced.windows)
    untraced_rate = scaled_rate(untraced.windows)
    metrics["trace.ops_per_s_traced"] = traced_rate
    metrics["trace.ops_per_s_untraced"] = untraced_rate
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    # The ms figures above are unscaled; this reads them against the host.
    metrics["host.slowdown"] = statistics.median(slowdown(w.reference) for w in traced.windows)
    metrics["latency.p99_ms"] = end_to_end(untraced, 0.0, 0.0)["latency_p99_ms"]
    return metrics, layers


def _ms_quantile(values: Sequence[float], q: int) -> float:
    return quantile(values, q) * 1000 if values else 0.0


def probe_counts(probe_ids: Sequence[str], ops, tracer: Optional[Tracer]) -> Dict[str, int]:
    """Exact counts over the probe ops; traced runs add what only spans see.

    Counts an untraced run cannot see (isValid verdicts; RunMetrics of runs
    inside the daemon) are omitted rather than reported as zero.
    """
    probe = set(probe_ids)
    by_id = {op.op_id: op for op in ops if op.op_id in probe}
    counts: Dict[str, int] = {"probe_ops": len(by_id)}
    for op in by_id.values():
        for key, value in op.counts.items():
            counts[key] = counts.get(key, 0) + value
    if tracer is not None:
        checked = accepted = 0
        for record in tracer.spans:
            if record[NAME] == "core.validation.is_valid_ranks" and record[OP] in probe:
                checked += 1
                accepted += bool(record[FLAG])
        counts["isvalid_checked"] = checked
        counts["isvalid_accepted"] = accepted
        if "correct_messages" not in counts:
            for op_id, messages, bits in tracer.run_metrics:
                if op_id in probe:
                    counts["correct_messages"] = counts.get("correct_messages", 0) + messages
                    counts["correct_bits"] = counts.get("correct_bits", 0) + bits
    return counts


# ------------------------------------------------------------- environment


def environment(root: Path, journal_dir: Optional[Path]) -> Dict[str, object]:
    """What a later run needs to tell a code change from a machine change."""
    import repro.sim

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "default_engine": repro.sim.DEFAULT_ENGINE,
        "journal_fs": filesystem_type(journal_dir) if journal_dir else "n/a",
        "platform": platform.platform(),
    }


def git_sha(root: Path) -> str:
    """HEAD's commit, read from ``.git`` directly ('unknown' outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


# ---------------------------------------------------------------- printing


def print_end_to_end(
    values: Dict[str, float], raw: Dict[str, float], phase, failed: int, attempted: int
):
    out = sys.stdout
    sizes = sorted(len(w.latencies) for w in phase.windows)
    host = statistics.median(slowdown(w.reference) for w in phase.windows)
    out.write(
        f"end-to-end ({len(phase.ops)} ops timed; medians over {len(sizes)} windows "
        f"of {sizes[0]}-{sizes[-1]} ops; host {host:.2f}x slower than the reference, "
        f"raw figures in brackets):\n"
    )
    for name, (unit, better) in END_TO_END.items():
        out.write(
            f"  {name:<16} {values[name]:>12.4f} {unit:<4} [{raw[name]:>10.4f}] "
            f"({better} is better)\n"
        )
    for name, (unit, _) in REPORTED.items():
        out.write(
            f"  {name:<16} {values[name]:>12.4f} {unit:<4} [{raw[name]:>10.4f}] "
            f"(reported, not gated)\n"
        )
    ratio = failed / attempted if attempted else 0.0
    out.write(f"  {'failed_ratio':<16} {ratio:>12.4f}      ({failed}/{attempted})\n")


def print_layer_table(layers, metrics: Dict[str, float], n_ops: int) -> None:
    out = sys.stdout
    out.write(f"per-layer, traced phase ({n_ops} ops; self = span minus child spans):\n")
    out.write(f"  {'layer':<40} {'calls/op':>10} {'busy ms/op':>11} {'self ms/op':>11} {'self %':>7}\n")
    for layer in LAYERS:
        calls, busy, self_s = layers[layer]
        if not calls:
            continue
        out.write(
            f"  {layer:<40} {calls / n_ops:>10.1f} {1000 * busy / n_ops:>11.3f} "
            f"{1000 * self_s / n_ops:>11.3f} {metrics[f'{layer}.self_pct']:>7.1f}\n"
        )
    out.write(
        f"  protocol step {metrics['summary.protocol_pct']:.1f}% of op wall, "
        f"substrate {metrics['summary.substrate_pct']:.1f}%\n"
    )
    if metrics["service.queue_wait.p50_ms"]:
        out.write(
            f"  queue wait p50 {metrics['service.queue_wait.p50_ms']:.2f} ms = "
            f"{metrics['service.queue_wait.p50_share_pct']:.1f}% of the session p50\n"
        )
    out.write(
        f"  tracing overhead: {metrics['trace.ops_per_s_traced']:.2f} ops/s traced vs "
        f"{metrics['trace.ops_per_s_untraced']:.2f} untraced "
        f"({metrics['trace.overhead_pct']:+.1f}%)\n"
    )
