#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` measures with no wrapper installed and prints every
end-to-end metric; ``--trace 1`` alternates traced and untraced slices and
prints every per-layer metric plus the tracing overhead. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans and results land in
``.perfbench/`` at the checkout root.

The program is imported from ``src/`` of the same checkout; without it
the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("sweep", "flood", "service-journal", "service-alg1")
#: Setup repetitions in fresh processes, beside this process's own setup
#: (end-to-end runs only; ``setup_s`` is their median).
SETUP_REPEATS = 6
#: Reference-kernel timings that scale each setup (see perf_report).
SETUP_REFERENCE_SAMPLES = 5
#: Alternating traced/untraced slices of a traced run.
TRACE_SLICES = 6


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program at {src / 'repro'}; nothing to measure\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {src}\n")
        raise SystemExit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up, tear down, print setup_s"
    )
    return parser.parse_args(argv)


def build(name: str, seed: int):
    from perf_workloads import WORKLOADS

    cls = WORKLOADS[name]
    if name.startswith("service"):
        return cls(seed, OUT / "tmp")
    return cls(seed)


def setup_samples(args) -> list:
    """(scaled, raw) setup times of fresh processes doing exactly this
    run's setup."""
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if child.returncode != 0:
            raise RuntimeError(f"setup repeat failed: {child.stderr.strip()[-500:]}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
        samples.append((result["setup_s"], result["raw_setup_s"]))
    return samples


def timed_setup(workload):
    """Set up; return (scaled, raw) seconds from process start to now.

    The scaled figure divides by the host slowdown the reference kernel
    shows right after, as the run's time metrics do.
    """
    from perf_report import slowdown
    from perf_workloads import HostSpeed

    workload.setup()
    raw = process_age()
    host = HostSpeed()
    return raw / slowdown([host.sample() for _ in range(SETUP_REFERENCE_SAMPLES)]), raw


def process_age() -> float:
    """Seconds since this process was started, interpreter start-up included.

    Reads the start time from ``/proc/self/stat`` (clock ticks since boot);
    where that is unavailable, falls back to when this script began to run.
    """
    try:
        with open("/proc/self/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _STARTED


def declared_metrics(trace: int):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_traced(workload, seconds: float, tracer):
    """Alternate traced and untraced slices, starting traced (so the count
    probe is traced); interleaving keeps machine drift out of the
    overhead estimate. Returns the merged (traced, untraced) phases."""
    from perf_trace import install
    from perf_workloads import merge_phases

    op_of_seed = getattr(workload, "op_of_seed", {})
    traced, untraced = [], []
    for slice_no in range(TRACE_SLICES):
        if slice_no % 2:
            untraced.append(workload.run(seconds / TRACE_SLICES))
            continue
        install(tracer, lambda key: op_of_seed.get(key, key))
        try:
            traced.append(workload.run(seconds / TRACE_SLICES, tracer))
        finally:
            tracer.restore()
    return merge_phases(traced), merge_phases(untraced)


def run_one(args) -> int:
    import perf_report as report
    from perf_trace import Tracer

    workload = build(args.workload, args.seed)
    setup_s, raw_setup_s = timed_setup(workload)
    if args.setup_only:
        workload.teardown()
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        measured, untraced = run_traced(workload, args.seconds, tracer)
    else:
        measured = untraced = workload.run(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rechecks = workload.recheck()
    journal_dir = getattr(workload, "journal_dir", None)
    env = report.environment(ROOT, Path(journal_dir) if journal_dir else OUT)
    workload.teardown()

    ops = measured.ops + (untraced.ops if untraced is not measured else [])
    attempted = len(ops) + len(rechecks)
    problems = [f"{op.op_id}: {op.problem}" for op in ops + rechecks if op.failed]
    failed_ops = len(problems)
    by_id = {op.op_id: op for op in ops}
    for again in rechecks:
        first = by_id.get(again.op_id)
        earlier = {key: first.counts.get(key) for key in again.counts} if first else None
        if earlier != again.counts:
            problems.append(f"{again.op_id}: re-run counts {again.counts} != {earlier}")
    counts = report.probe_counts(workload.probe_ids(), measured.ops, tracer)
    problem = workload.final_check()
    if problem:
        problems.append(problem)
    # Failed whole-run checks count as one more failed op.
    failed = min(attempted, failed_ops + (len(problems) > failed_ops))

    # Only end-to-end runs report setup_s, so only they pay for repeats.
    setup = [(setup_s, raw_setup_s)] + (setup_samples(args) if not args.trace else [])
    values = report.end_to_end(untraced, statistics.median(s for s, _ in setup), rss_mb)
    raw = report.end_to_end(
        untraced, statistics.median(r for _, r in setup), rss_mb, scaled=False
    )

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    report.print_end_to_end(values, raw, untraced, failed, attempted)
    print("  setup samples (s): " + ", ".join(f"{s:.4f} [{r:.4f}]" for s, r in setup))
    print("counts over the probe ops (exact for a seed): "
          + "  ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    results = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": env, "end_to_end": values, "raw_end_to_end": raw,
               "setup_samples": setup,
               "counts": counts, "problems": problems}
    if tracer is not None:
        layer_values, layers = report.layer_metrics(tracer, measured, untraced)
        layer_values.update({f"count.{k}": counts.get(k, 0) for k in report.COUNTS})
        report.print_layer_table(layers, layer_values, len(measured.ops))
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.csv.gz"
        print(f"  {tracer.write(spans)} spans written to {spans.relative_to(ROOT)}")
        results["per_layer"] = layer_values
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, (unit, _) in report.per_layer_specs().items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in report.END_TO_END.items()}
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        problems.append(f"metrics {sorted(set(metrics) ^ declared)} disagree with BENCHMARK.json")
        failed = max(failed, 1)
    for problem in problems[:10]:
        print(f"  FAILED {problem}")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n"
    )
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; metrics prefixed by workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = child.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
        if child.returncode not in (0, 1) or not lines:
            sys.stderr.write(child.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
