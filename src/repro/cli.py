"""Command-line driver: run any algorithm × attack × (N, t) from a shell.

Examples::

    repro-renaming list
    repro-renaming run --algorithm alg1 --n 7 --t 2 --attack id-forging
    repro-renaming run --algorithm alg4 --n 11 --t 2 --attack selective-echo
    repro-renaming scenario saturation
    repro-renaming sweep --algorithms alg1 alg4 --sizes 7:2 11:2 --attacks silent noise
    repro-renaming inspect --algorithm alg1 --n 7 --t 2 --attack divergence
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .adversary import adversary_names
from .analysis import (
    ALGORITHMS,
    CHAOS_PRESETS,
    CellBudget,
    ChaosCampaign,
    RunTask,
    SweepConfig,
    SweepExecutor,
    chaos_grid,
    format_table,
    group_by,
    open_store,
    render_timeline,
    run_experiment,
    store_doctor,
    summarize_views,
)
from .analysis.store import DEFAULT_LEASE_S
from .analysis.worker import run_kind
from .sim import (
    ConfigurationError,
    DEFAULT_ENGINE,
    JournalError,
    RunInterrupted,
    StoreError,
    MODEL_KINDS,
    SystemModel,
    engine_names,
    parse_model,
    resolve_engine,
)
from .workloads import get_scenario, make_ids, scenario_names, workload_names

# Exit-code contract (documented in docs/robustness.md, asserted in
# tests/test_cli.py). Scripts and CI branch on these — append-only.
EXIT_OK = 0            # ran to completion, every checked property held
EXIT_VIOLATION = 2     # ran to completion, a verified property was violated
EXIT_INFRA = 3         # infra/config failure: bad config, unhealthy
#                        campaign (quarantine/silent success), unusable
#                        store or journal — the *measurement* never happened
EXIT_INTERRUPTED = 4   # preempted (SIGINT/SIGTERM) but drained into the
#                        store: re-run `runs resume` to continue

#: Default directory for ``--journal`` run stores (``--runs-dir``).
DEFAULT_RUNS_DIR = ".repro-runs"


def _parse_workers(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer, got {text!r}"
        ) from None
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 1, got {workers}"
        )
    return workers


def _parse_size(text: str) -> Tuple[int, int]:
    try:
        n_text, t_text = text.split(":")
        return int(n_text), int(t_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sizes are N:T pairs like 7:2, got {text!r}"
        ) from None


def _parse_run_id(text: str) -> str:
    ok = text and all(c.isalnum() or c in "._-" for c in text)
    if not ok:
        raise argparse.ArgumentTypeError(
            f"run ids use letters, digits, '.', '_', '-'; got {text!r}"
        )
    return text


def _add_durability_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--journal", metavar="DIR", default=None,
        help="make the run durable and resumable: shorthand for --store "
             "DIR/<run-id> (SIGINT/SIGTERM drain in-flight cells and exit "
             "resumable; continue with 'runs resume')",
    )
    command.add_argument(
        "--run-id", type=_parse_run_id, default=None, metavar="NAME",
        help="run name under --journal DIR (default: derived from the "
             "config fingerprint)",
    )
    command.add_argument(
        "--cell-wall", type=float, default=None, metavar="S",
        help="per-cell wall-clock budget in seconds (store-backed runs; a "
             "breach kills the cell's child process and quarantines it)",
    )
    command.add_argument(
        "--cell-rss", type=float, default=None, metavar="MB",
        help="per-cell RSS budget in MiB (store-backed runs, Linux)",
    )


def _add_store_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--store", metavar="URL", default=None,
        help="run on the coordinator/worker fabric over a shared result "
             "store directory (a path, or dir:PATH); mutually exclusive "
             "with --journal",
    )
    command.add_argument(
        "--coordinator-only", action="store_true",
        help="with --store: seed the store and stream results but start no "
             "workers — separately started 'repro-renaming worker --store "
             "URL' processes execute the cells",
    )


def _add_grid_flags(command: argparse.ArgumentParser) -> None:
    """The configuration-grid flags ``sweep`` and ``chaos`` share."""
    command.add_argument("--algorithms", nargs="+", required=True,
                         choices=sorted(ALGORITHMS))
    command.add_argument("--sizes", nargs="+", type=_parse_size,
                         required=True, metavar="N:T")
    command.add_argument("--attacks", nargs="+", default=["silent"],
                         choices=adversary_names())
    command.add_argument("--seeds", nargs="+", type=int, default=[0])
    command.add_argument("--workload", default="uniform",
                         choices=workload_names())
    command.add_argument(
        "--workers", type=_parse_workers, default=None, metavar="N",
        help="worker processes for the grid (default: one per CPU; 1 = "
             "serial in-process)",
    )


def _parse_model_flag(text: str) -> SystemModel:
    try:
        return parse_model(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_model_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--model",
        type=_parse_model_flag,
        default=None,
        metavar="SPEC",
        help="system model to run under: classic (the paper's model, the "
             "default), impersonation:k=K[,seed=S] (Okun-style forged-sender "
             "frames), or partial-synchrony:rate=P[,delay=D][,seed=S] "
             "(lossy rounds); for scenarios this overrides the scenario's "
             "own model",
    )


def _add_engine_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--engine", default=DEFAULT_ENGINE, metavar="ENGINE",
        help="simulator round-loop implementation, one of "
             f"{', '.join(engine_names())} (results are identical; "
             "'reference' is the slow oracle 'batched' is differentially "
             "tested against)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-renaming",
        description=(
            "Order-preserving Byzantine renaming (Denysyuk & Rodrigues, "
            "ICDCS 2013) — reproduction driver."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list algorithms, attacks, workloads, scenarios")

    run = commands.add_parser("run", help="execute one configuration")
    run.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
    run.add_argument("--n", type=int, required=True, help="number of processes")
    run.add_argument("--t", type=int, required=True, help="fault bound")
    run.add_argument("--attack", default="silent", choices=adversary_names())
    run.add_argument("--workload", default="uniform", choices=workload_names())
    run.add_argument("--seed", type=int, default=0)
    _add_model_flag(run)
    _add_engine_flag(run)

    scenario = commands.add_parser("scenario", help="execute a canned scenario")
    scenario.add_argument("name", choices=scenario_names())
    scenario.add_argument("--algorithm", default="alg1", choices=sorted(ALGORITHMS))
    scenario.add_argument("--seed", type=int, default=0)
    _add_model_flag(scenario)
    _add_engine_flag(scenario)

    commands.add_parser(
        "verify",
        help="condensed one-command check of every reproduced claim",
    )

    bounds = commands.add_parser(
        "bounds", help="print every closed-form bound for given (N, t) sizes"
    )
    bounds.add_argument("sizes", nargs="+", type=_parse_size, metavar="N:T")

    inspect = commands.add_parser(
        "inspect", help="run one configuration with tracing and show a timeline"
    )
    inspect.add_argument("--algorithm", required=True, choices=sorted(ALGORITHMS))
    inspect.add_argument("--n", type=int, required=True)
    inspect.add_argument("--t", type=int, required=True)
    inspect.add_argument("--attack", default="silent", choices=adversary_names())
    inspect.add_argument("--workload", default="uniform", choices=workload_names())
    inspect.add_argument("--seed", type=int, default=0)
    inspect.add_argument(
        "--save", metavar="PATH", default=None,
        help="archive the traced run as JSON for offline analysis",
    )
    _add_model_flag(inspect)
    _add_engine_flag(inspect)

    replay = commands.add_parser(
        "replay", help="re-render the timeline of an archived run"
    )
    replay.add_argument("path", help="JSON archive written by inspect --save")

    chaos = commands.add_parser(
        "chaos",
        help="run a crash-contained beyond-model fault-injection campaign",
    )
    _add_grid_flags(chaos)
    chaos.add_argument("--engines", nargs="+", default=[DEFAULT_ENGINE],
                       metavar="ENGINE")
    chaos.add_argument("--chaos-seeds", nargs="+", type=int, default=[0],
                       help="seeds for the fault plans (independent of run seeds)")
    chaos.add_argument("--drop", nargs="+", type=float, default=[],
                       metavar="P", help="per-link drop probabilities to try")
    chaos.add_argument("--duplicate", nargs="+", type=float, default=[],
                       metavar="P", help="per-link duplication probabilities to try")
    chaos.add_argument("--corrupt", nargs="+", type=float, default=[],
                       metavar="P", help="per-link payload-corruption probabilities")
    chaos.add_argument("--crash-extra", nargs="+", type=int, default=[],
                       metavar="K", help="extra correct-process send-crashes "
                       "(beyond the t budget) to try")
    chaos.add_argument("--crash-round", type=int, default=1,
                       help="round at which extra crashes engage")
    chaos.add_argument("--combine", action="store_true",
                       help="merge one value per fault axis into a single "
                       "combined plan (used by quarantine reproducers)")
    chaos.add_argument("--preset", choices=sorted(CHAOS_PRESETS), default=None,
                       help="named fault-axis bundle (overridden by explicit "
                       "fault flags)")
    chaos.add_argument("--no-clean", action="store_true",
                       help="skip the no-fault control cell per configuration")
    chaos.add_argument("--no-monitor", action="store_true",
                       help="disable the in-run safety monitor (post-hoc "
                       "property checks still run)")
    chaos.add_argument("--max-rounds", type=int, default=64,
                       help="hard round cap per run (chaos runs must never spin)")
    chaos.add_argument("--timeout", type=float, default=120.0, metavar="S",
                       help="per-cycle hang timeout in seconds")
    chaos.add_argument("--json", metavar="PATH", default=None,
                       help="also write the full triage report as JSON to PATH")
    _add_durability_flags(chaos)
    _add_store_flags(chaos)

    sweep = commands.add_parser("sweep", help="run a configuration grid")
    _add_grid_flags(sweep)
    sweep.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write one CSV row per run to PATH",
    )
    sweep.add_argument(
        "--cache", metavar="DIR", default=None,
        help="reuse cached results from DIR; only changed configurations "
             "are executed",
    )
    _add_model_flag(sweep)
    _add_engine_flag(sweep)
    _add_durability_flags(sweep)
    _add_store_flags(sweep)

    worker = commands.add_parser(
        "worker",
        help="pull-based fabric worker: claim cell leases from a shared "
             "result store, execute them, push results back (start any "
             "number of these against one store)",
    )
    worker.add_argument(
        "--store", metavar="URL", required=True,
        help="the result store to pull from (same URL forms as sweep "
             "--store)",
    )
    worker.add_argument(
        "--worker-id", default=None, metavar="NAME",
        help="identity recorded on leases and events (default: host-pid)",
    )
    worker.add_argument(
        "--lease", type=float, default=DEFAULT_LEASE_S, metavar="S",
        help="cell lease duration in seconds (renewed at a third of this "
             "while executing; a dead worker's cells are reclaimed after "
             "one lease window)",
    )
    worker.add_argument(
        "--poll", type=float, default=0.2, metavar="S",
        help="floor of the idle backoff between claim attempts (the sleep "
             "grows with jittered exponential backoff while nothing is "
             "claimable and resets on a successful claim)",
    )
    worker.add_argument(
        "--poll-cap", type=float, default=5.0, metavar="S",
        help="ceiling of the idle backoff between claim attempts",
    )
    worker.add_argument(
        "--wait-for-store", type=float, default=0.0, metavar="S",
        help="block up to S seconds for the coordinator to seed the store "
             "(default: require an already-seeded store)",
    )
    worker.add_argument(
        "--max-idle", type=float, default=None, metavar="S",
        help="exit after S seconds with no claimable cell while the store "
             "is incomplete (default: wait forever)",
    )
    worker.add_argument(
        "--cell-wall", type=float, default=None, metavar="S",
        help="per-cell wall-clock budget (cells run in disposable child "
             "processes; a breach SIGKILLs and quarantines the cell)",
    )
    worker.add_argument(
        "--cell-rss", type=float, default=None, metavar="MB",
        help="per-cell child RSS budget in MiB (Linux)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the renaming session daemon: accept concurrent sessions "
             "over TCP, run the selected algorithm per session, return "
             "names plus a validated property certificate",
    )
    serve.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    serve.add_argument(
        "--port", type=int, default=7341, metavar="PORT",
        help="listen port (0 picks a free port; see --port-file)",
    )
    serve.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound host:port to PATH once listening (handshake "
             "for scripts that start the daemon with --port 0)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=64, metavar="K",
        help="admission bound: additional connections get a typed "
             "ServerBusy frame instead of queueing silently",
    )
    serve.add_argument(
        "--session-deadline", type=float, default=5.0, metavar="S",
        help="per-session wall budget; expiry closes the quorum with the "
             "ids registered so far (or rejects an empty session)",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=2.0, metavar="S",
        help="per-read deadline: a client that stalls mid-frame gets a "
             "typed idle-timeout error (slow-loris defense)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=None, metavar="S",
        help="on SIGTERM/SIGINT, let in-flight sessions finish for up to "
             "S seconds before shedding them (default: session deadline "
             "+ 2s; a second signal sheds immediately)",
    )
    serve.add_argument(
        "--max-ids", type=int, default=128, metavar="K",
        help="cap on ids one session may register",
    )
    serve.add_argument(
        "--session-wall", type=float, default=None, metavar="S",
        help="per-session wall budget enforced in a disposable child "
             "process (breach -> typed wall-budget error)",
    )
    serve.add_argument(
        "--session-rss", type=float, default=None, metavar="MB",
        help="per-session child RSS budget in MiB (Linux)",
    )
    serve.add_argument(
        "--session-journal", default=None, metavar="PATH",
        help="durable session journal: tokened sessions are journaled "
             "(accepted -> completed/failed, fsync'd before the response) "
             "so a restarted daemon answers repeat submissions and "
             "queries from the journal — byte-identical, never re-run",
    )
    _add_engine_flag(serve)

    load = commands.add_parser(
        "load",
        help="drive concurrent sessions against a running daemon and "
             "report throughput + p50/p99 latency (every completed "
             "session is re-validated client-side)",
    )
    load.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    load.add_argument("--port", type=int, default=7341, metavar="PORT")
    load.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="read host:port from PATH (written by serve --port-file), "
             "overriding --host/--port",
    )
    load.add_argument("--sessions", type=int, default=100, metavar="K")
    load.add_argument(
        "--concurrency", type=int, default=32, metavar="K",
        help="sessions in flight at once",
    )
    load.add_argument(
        "--ids", type=int, default=8, metavar="N",
        help="original ids registered per session",
    )
    load.add_argument(
        "--algorithm", default="auto",
        help="algorithm requested per session (default: server auto-select)",
    )
    load.add_argument("--t", type=int, default=0, help="faulty slots per session")
    load.add_argument(
        "--attack", default="silent", choices=adversary_names(),
        help="adversary strategy when --t > 0",
    )
    load.add_argument(
        "--workload", default="uniform", choices=workload_names(),
        help="id workload per session",
    )
    load.add_argument("--seed", type=int, default=0)
    load.add_argument(
        "--timeout", type=float, default=30.0, metavar="S",
        help="client-side timeout per protocol step",
    )
    load.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the report to PATH",
    )
    load.add_argument(
        "--session-prefix", default="", metavar="PREFIX",
        help="stamp each session with idempotency token PREFIX-<index> "
             "(daemon must run with --session-journal); makes retries "
             "and crash recovery exactly-once",
    )
    load.add_argument(
        "--retries", type=int, default=0, metavar="K",
        help="transport-level retries per session through the shared "
             "jittered backoff (mid-session retries need --session-prefix)",
    )
    load.add_argument(
        "--busy-retries", type=int, default=8, metavar="K",
        help="ServerBusy responses absorbed per session by backoff before "
             "'busy' becomes the outcome (reported separately from errors)",
    )

    query = commands.add_parser(
        "query",
        help="ask a --session-journal daemon what happened to an "
             "idempotency token: completed (certificate replayed "
             "byte-identically), failed, in-flight, or unknown",
    )
    query.add_argument("session_id", metavar="TOKEN")
    query.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    query.add_argument("--port", type=int, default=7341, metavar="PORT")
    query.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="read host:port from PATH (written by serve --port-file), "
             "overriding --host/--port",
    )
    query.add_argument(
        "--timeout", type=float, default=30.0, metavar="S",
        help="client-side timeout per protocol step",
    )
    query.add_argument(
        "--retries", type=int, default=0, metavar="K",
        help="retries for transport-level failures (queries are read-only, "
             "always safe to retry)",
    )

    sessions = commands.add_parser(
        "sessions",
        help="read a session journal offline (doctor-style): list "
             "finished/failed/interrupted sessions, show a session's "
             "certificate or error",
    )
    sessions_commands = sessions.add_subparsers(
        dest="sessions_command", required=True
    )
    sessions_list = sessions_commands.add_parser(
        "list", help="list every token in a session journal"
    )
    sessions_list.add_argument("--journal", required=True, metavar="PATH",
                               help="session journal path (serve "
                                    "--session-journal)")
    sessions_show = sessions_commands.add_parser(
        "show", help="show one token's journaled certificate or error"
    )
    sessions_show.add_argument("session_id", metavar="TOKEN")
    sessions_show.add_argument("--journal", required=True, metavar="PATH")

    proxy = commands.add_parser(
        "proxy",
        help="seeded network-fault chaos proxy: forward client<->daemon "
             "traffic injecting resets, mid-frame truncation, byte "
             "corruption, stalls, and duplicate delivery",
    )
    proxy.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    proxy.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="listen port (0 picks a free port; see --port-file)",
    )
    proxy.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound host:port to PATH once listening",
    )
    proxy.add_argument(
        "--upstream", default=None, metavar="HOST:PORT",
        help="the daemon to forward to",
    )
    proxy.add_argument(
        "--upstream-file", default=None, metavar="PATH",
        help="read the daemon's host:port from PATH (serve --port-file)",
    )
    for kind, what in (
        ("reset", "abruptly reset the connection"),
        ("truncate", "forward part of a frame, then close"),
        ("corrupt", "flip one byte mid-stream"),
        ("stall", "stop forwarding for --stall-s seconds"),
        ("duplicate", "deliver one chunk twice"),
    ):
        proxy.add_argument(
            f"--{kind}", type=float, default=0.0, metavar="P",
            help=f"per-connection probability to {what}",
        )
    proxy.add_argument(
        "--stall-s", type=float, default=5.0, metavar="S",
        help="how long a stall stops forwarding",
    )
    proxy.add_argument(
        "--direction", default="both", choices=("up", "down", "both"),
        help="which half faults hit: client->server (up), server->client "
             "(down), or RNG-chosen per connection",
    )
    proxy.add_argument("--seed", type=int, default=0,
                       help="fault-schedule seed (deterministic per "
                            "connection index)")

    runs = commands.add_parser(
        "runs", help="manage durable (--journal) runs: list, resume, triage"
    )
    runs_commands = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_commands.add_parser(
        "list", help="list the run stores in a runs directory"
    )
    runs_list.add_argument("--runs-dir", default=DEFAULT_RUNS_DIR,
                           metavar="DIR")

    runs_resume = runs_commands.add_parser(
        "resume",
        help="continue an interrupted run: re-run the coordinator on its "
             "store, skipping terminal cells (a cell killed mid-flight "
             "re-runs once its lease expires)",
    )
    runs_resume.add_argument("run_id", type=_parse_run_id)
    runs_resume.add_argument("--runs-dir", default=DEFAULT_RUNS_DIR,
                             metavar="DIR")
    runs_resume.add_argument(
        "--workers", type=_parse_workers, default=None, metavar="N",
        help="worker processes for the remaining cells (default: one per "
             "CPU; results are identical for any worker count)",
    )
    runs_resume.add_argument("--csv", metavar="PATH", default=None,
                             help="(sweep runs) write the final CSV to PATH")
    runs_resume.add_argument("--json", metavar="PATH", default=None,
                             help="(chaos runs) write the triage JSON to PATH")
    runs_resume.add_argument(
        "--cell-wall", type=float, default=None, metavar="S",
        help="override the recorded per-cell wall budget",
    )
    runs_resume.add_argument(
        "--cell-rss", type=float, default=None, metavar="MB",
        help="override the recorded per-cell RSS budget",
    )

    runs_doctor = runs_commands.add_parser(
        "doctor",
        help="triage a run store: cell states, lease health, reclaims, "
             "claim races, double executions",
    )
    runs_doctor.add_argument("run_id", type=_parse_run_id, nargs="?",
                             default=None)
    runs_doctor.add_argument("--runs-dir", default=DEFAULT_RUNS_DIR,
                             metavar="DIR")
    runs_doctor.add_argument(
        "--store", metavar="URL", default=None,
        help="triage the result store at URL instead of a run under "
             "--runs-dir",
    )
    runs_doctor.add_argument(
        "--assert-no-reexecution", action="store_true",
        help="exit with the infra code if any finished cell was "
             "re-executed (the resume-smoke and fabric-smoke CI invariant)",
    )
    return parser


def _print_record(record) -> None:
    report = record.report
    print(
        format_table(
            ["algorithm", "n", "t", "attack", "rounds", "messages", "kbits",
             "max name", "properties"],
            [[
                record.algorithm,
                record.n,
                record.t,
                record.attack,
                record.rounds,
                record.correct_messages,
                record.correct_bits // 1000,
                record.max_name,
                "OK" if report.ok else "; ".join(report.violations),
            ]],
        )
    )
    if report.model is not None:
        injected = ", ".join(
            f"{kind}={count}" for kind, count in sorted(report.injected.items())
        )
        print(f"\nmodel {report.model}: injected {injected or 'nothing'}")
    print("\nnew names (original -> new):")
    for original, name in sorted(report.names.items()):
        print(f"  {original:>8} -> {name}")


def cmd_list() -> int:
    print("algorithms:", ", ".join(sorted(ALGORITHMS)))
    print("attacks:   ", ", ".join(adversary_names()))
    print("workloads: ", ", ".join(workload_names()))
    print("scenarios: ", ", ".join(scenario_names()))
    print("models:    ", ", ".join(MODEL_KINDS))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    ids = make_ids(args.workload, args.n, seed=args.seed)
    record = run_experiment(
        args.algorithm, args.n, args.t, ids, attack=args.attack, seed=args.seed,
        model=args.model, engine=args.engine,
    )
    _print_record(record)
    return EXIT_OK if record.report.ok_without_order() else EXIT_VIOLATION


def cmd_scenario(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.name)
    print(f"{scenario.name}: {scenario.description}")
    model = args.model if args.model is not None else parse_model(scenario.model)
    if not model.is_classic:
        print(f"model: {model.describe()}")
    ids = make_ids(scenario.workload, scenario.n, seed=args.seed)
    record = run_experiment(
        args.algorithm,
        scenario.n,
        scenario.t,
        ids,
        attack=scenario.attack,
        seed=args.seed,
        model=model,
        engine=args.engine,
    )
    _print_record(record)
    return EXIT_OK if record.report.ok_without_order() else EXIT_VIOLATION


def cmd_verify() -> int:
    from .analysis import verify_reproduction

    results = verify_reproduction()
    for claim in results:
        print(claim.line())
    failed = [claim for claim in results if not claim.passed]
    print(
        f"\n{len(results) - len(failed)}/{len(results)} claims verified"
        + ("" if not failed else " — REPRODUCTION BROKEN")
    )
    return EXIT_VIOLATION if failed else EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    from .core import SystemParams

    rows = []
    for n, t in args.sizes:
        params = SystemParams(n, t)
        regimes = []
        if params.tolerates_byzantine:
            regimes.append("N>3t")
        if params.in_constant_time_regime:
            regimes.append("N>t^2+2t")
        if params.in_fast_regime:
            regimes.append("N>2t^2+t")
        rows.append([
            n,
            t,
            " ".join(regimes) or "none",
            params.total_rounds if params.tolerates_byzantine else "-",
            params.namespace_bound if params.tolerates_byzantine else "-",
            params.accepted_bound if n > 2 * t else "-",
            f"{params.sigma}/{params.realized_sigma}" if t else "-",
            str(params.delta),
        ])
    print(
        format_table(
            ["n", "t", "regimes", "alg1 rounds", "namespace", "|accepted| bound",
             "sigma paper/real", "delta"],
            rows,
        )
    )
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    ids = make_ids(args.workload, args.n, seed=args.seed)
    record = run_experiment(
        args.algorithm,
        args.n,
        args.t,
        ids,
        attack=args.attack,
        seed=args.seed,
        collect_trace=True,
        model=args.model,
        engine=args.engine,
    )
    print(render_timeline(record.result))
    views = summarize_views(record.result)
    if views is not None:
        print("\naccepted-set views:\n" + views)
    report = record.report
    print(f"\nproperties: {'OK' if report.ok else '; '.join(report.violations)}")
    if args.save is not None:
        from .analysis import dump_run

        path = dump_run(record.result, args.save)
        print(f"run archived to {path}")
    return EXIT_OK if report.ok_without_order() else EXIT_VIOLATION


def cmd_replay(args: argparse.Namespace) -> int:
    from .analysis import load_run, summarize_views

    view = load_run(args.path).as_result_view()
    print(render_timeline(view))
    views = summarize_views(view)
    if views is not None:
        print("\naccepted-set views:\n" + views)
    return 0


def _budget_from(args, fallback: Optional[dict] = None) -> Optional[CellBudget]:
    """A :class:`CellBudget` from CLI flags, else the store's recorded one."""
    fallback = fallback or {}
    wall = args.cell_wall if args.cell_wall is not None else fallback.get("wall_s")
    rss = args.cell_rss if args.cell_rss is not None else fallback.get("rss_mb")
    if wall is None and rss is None:
        return None
    return CellBudget(wall_s=wall, rss_mb=rss)


def _durable_store(args, kind: str, fingerprint) -> Tuple[Optional[str], str]:
    """Resolve ``--store URL`` / ``--journal DIR [--run-id ID]`` to
    ``(store URL or None, run id)``.

    ``--journal DIR`` is exactly ``--store DIR/<run-id>`` on the directory
    backend, except that it refuses to start over an existing run —
    ``runs resume`` continues one. ``fingerprint`` is a zero-argument
    callable, evaluated only for durable runs.
    """
    if args.store is None and args.journal is None:
        return None, "fabric"
    run_id = args.run_id or f"{kind}-{fingerprint()[:10]}"
    if args.journal is None:
        return args.store, run_id
    root = Path(args.journal) / run_id
    if (root / "header.json").exists():
        raise StoreError(
            f"run {run_id!r} already exists under {args.journal} — resume "
            f"it with 'runs resume {run_id} --runs-dir {args.journal}' "
            f"instead of starting over"
        )
    return f"dir:{root}", run_id


def _run_store(runs_dir: str, run_id: str) -> str:
    """The store URL of ``--journal`` run ``run_id`` under ``runs_dir``."""
    root = Path(runs_dir) / run_id
    if not (root / "header.json").is_file():
        raise StoreError(
            f"cannot read journal {root}: it has no header — not a seeded "
            f"run store"
        )
    return f"dir:{root}"


def _interrupted(exc: RunInterrupted, runs_dir: Optional[str], run_id: str) -> int:
    """Report a drained run and how to continue it."""
    if runs_dir is not None:
        how = f"repro-renaming runs resume {run_id} --runs-dir {runs_dir}"
    else:
        how = "the same command (re-seeding the store resumes the run)"
    print(
        f"\n{exc}\ninterrupted — everything completed so far is durable in "
        f"the store; continue with:\n  {how}",
        file=sys.stderr,
    )
    return EXIT_INTERRUPTED


def _finish_chaos(report, json_path: Optional[str]) -> int:
    print(report.render())
    if json_path is not None:
        import json

        from .analysis import atomic_write_text

        path = atomic_write_text(
            json_path, json.dumps(report.to_json(), indent=2)
        )
        print(f"\ntriage report written to {path}")
    return EXIT_OK if report.ok else EXIT_INFRA


def _store_flags_error(args) -> Optional[str]:
    """Validate the --store/--journal/--coordinator-only combination."""
    if args.store is not None and args.journal is not None:
        return (
            "--journal and --store are mutually exclusive: --journal DIR "
            "is shorthand for --store DIR/<run-id>"
        )
    if args.coordinator_only and args.store is None:
        return "--coordinator-only requires --store"
    return None


def cmd_chaos(args: argparse.Namespace) -> int:
    fault_axes = {
        "drop": tuple(args.drop),
        "duplicate": tuple(args.duplicate),
        "corrupt": tuple(args.corrupt),
        "extra_crashes": tuple(args.crash_extra),
    }
    if args.preset is not None and not any(fault_axes.values()):
        fault_axes = {
            axis: tuple(values)
            for axis, values in CHAOS_PRESETS[args.preset].items()
        }
    tasks = chaos_grid(
        args.algorithms,
        args.sizes,
        attacks=args.attacks,
        seeds=args.seeds,
        engines=args.engines,
        chaos_seeds=args.chaos_seeds,
        crash_round=args.crash_round,
        combine=args.combine,
        include_clean=not args.no_clean,
        workload=args.workload,
        max_rounds=args.max_rounds,
        monitor=not args.no_monitor,
        **fault_axes,
    )
    if not tasks:
        print("error: empty campaign grid", file=sys.stderr)
        return EXIT_INFRA
    flag_error = _store_flags_error(args)
    if flag_error is not None:
        print(f"error: {flag_error}", file=sys.stderr)
        return EXIT_INFRA
    store, run_id = _durable_store(
        args, "chaos", lambda: ChaosCampaign.fingerprint(tasks)
    )
    if store is not None:
        print(f"run {run_id!r} on store {store}")
    campaign = ChaosCampaign(workers=args.workers, timeout_s=args.timeout)
    try:
        report = campaign.run(
            tasks, store=store, budget=_budget_from(args),
            coordinator_only=args.coordinator_only, run_id=run_id,
        )
    except RunInterrupted as exc:
        return _interrupted(exc, args.journal, run_id)
    return _finish_chaos(report, args.json)


def _finish_sweep(records, executor, csv_path: Optional[str]) -> int:
    rows = []
    for (algorithm, n, t, attack), group in group_by(
        records, "algorithm", "n", "t", "attack"
    ).items():
        rows.append([
            algorithm,
            n,
            t,
            attack,
            max(r.rounds for r in group),
            max(r.max_name for r in group),
            sum(1 for r in group if r.report.ok_without_order()),
            len(group),
        ])
    print(
        format_table(
            ["algorithm", "n", "t", "attack", "rounds", "max name", "ok", "runs"],
            rows,
        )
    )
    stats = executor.stats
    restored = f", {stats.restored} restored" if stats.restored else ""
    print(
        f"\n{len(records)} runs ({stats.executed} executed, "
        f"{stats.from_cache} cached{restored}) in {stats.elapsed_s:.2f}s "
        f"on {executor.workers} worker(s)"
    )
    if csv_path is not None:
        from .analysis import export_csv

        path = export_csv(records, csv_path)
        print(f"{len(records)} rows written to {path}")
    bad = [r for r in records if not r.report.ok_without_order()]
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        algorithms=args.algorithms,
        sizes=args.sizes,
        attacks=args.attacks,
        seeds=args.seeds,
        workload=args.workload,
        engine=args.engine,
        model=args.model,
    )
    flag_error = _store_flags_error(args)
    if flag_error is not None:
        print(f"error: {flag_error}", file=sys.stderr)
        return EXIT_INFRA
    store, run_id = _durable_store(
        args, "sweep",
        lambda: SweepExecutor.fingerprint(SweepExecutor.tasks_for(config)),
    )
    if store is not None:
        print(f"run {run_id!r} on store {store}")
    executor = SweepExecutor(workers=args.workers, cache=args.cache)
    try:
        records = executor.run(
            config, store=store, budget=_budget_from(args),
            coordinator_only=args.coordinator_only, run_id=run_id,
        )
    except RunInterrupted as exc:
        return _interrupted(exc, args.journal, run_id)
    return _finish_sweep(records, executor, args.csv)


def cmd_worker(args: argparse.Namespace) -> int:
    import signal

    from .analysis import Worker

    worker = Worker(
        args.store,
        worker_id=args.worker_id,
        budget=_budget_from(args),
        lease_s=args.lease,
        poll_s=args.poll,
        poll_cap_s=args.poll_cap,
        wait_store_s=args.wait_for_store,
        max_idle_s=args.max_idle,
    )

    def _drain(signum, frame):  # noqa: ARG001 — signal handler signature
        worker.stop()

    # Restored on the way out, so an in-process call leaves the caller's
    # handlers (and those of processes it forks later) as they were.
    previous = {
        signum: signal.signal(signum, _drain)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        stats = worker.run()
        print(
            f"worker {stats.worker_id} ({stats.kind}): {stats.claimed} "
            f"claimed, {stats.completed} completed, {stats.failed} failed, "
            f"{stats.retried} retried, {stats.budget_kills} budget-killed, "
            f"{stats.lease_lost} lease(s) lost"
        )
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .analysis import atomic_write_text
    from .service.server import RenamingService

    budget = None
    if args.session_wall is not None or args.session_rss is not None:
        budget = CellBudget(wall_s=args.session_wall, rss_mb=args.session_rss)
    journal = None
    if args.session_journal is not None:
        from .service.journal import SessionJournal

        journal = SessionJournal.open_or_create(args.session_journal)
        known = len(journal.state.sessions)
        in_flight = len(journal.state.in_flight())
        print(
            f"serve: session journal {args.session_journal} — {known} "
            f"token(s) known, {in_flight} in flight at the last crash",
            flush=True,
        )
    service = RenamingService(
        args.host,
        args.port,
        max_sessions=args.max_sessions,
        session_deadline_s=args.session_deadline,
        idle_timeout_s=args.idle_timeout,
        drain_grace_s=args.drain_grace,
        max_ids=args.max_ids,
        budget=budget,
        engine=args.engine,
        journal=journal,
    )

    async def _serve() -> int:
        await service.start()
        host, port = service.bound_address
        print(f"serve: listening on {host}:{port}", flush=True)
        if args.port_file is not None:
            atomic_write_text(args.port_file, f"{host}:{port}\n")
        return await service.serve_forever()

    code = asyncio.run(_serve())
    stats = service.stats
    print(
        f"serve: {stats.admitted} admitted, {stats.completed} completed, "
        f"{stats.violations} violation(s), {stats.rejected} rejected, "
        f"{stats.busy} busy, {stats.disconnected} disconnected, "
        f"{stats.shed} shed, {stats.infra} infra, "
        f"{stats.replayed} replayed, {stats.queries} queried"
    )
    return code


def _service_address(args: argparse.Namespace) -> Tuple[str, int]:
    if args.port_file is not None:
        text = Path(args.port_file).read_text().strip()
        host, _, port = text.rpartition(":")
        return host, int(port)
    return args.host, args.port


def cmd_load(args: argparse.Namespace) -> int:
    import asyncio

    from .service.load import run_load

    host, port = _service_address(args)
    report = asyncio.run(
        run_load(
            host,
            port,
            sessions=args.sessions,
            concurrency=args.concurrency,
            ids_per_session=args.ids,
            algorithm=args.algorithm,
            t=args.t,
            attack=args.attack,
            seed=args.seed,
            timeout_s=args.timeout,
            workload=args.workload,
            session_prefix=args.session_prefix,
            retries=args.retries,
            busy_retries=args.busy_retries,
        )
    )
    text = report.as_text()
    print(text)
    for failure in report.failures:
        print(f"  {failure}", file=sys.stderr)
    if args.report is not None:
        from .analysis import atomic_write_text

        atomic_write_text(args.report, text + "\n")
    return report.exit_code()


def cmd_query(args: argparse.Namespace) -> int:
    """Exit codes mirror the run-command contract: 0 = journaled completed
    with an ok certificate, 2 = journaled failure (or a not-ok
    certificate), 3 = unknown token or transport failure, 4 = in flight."""
    import asyncio

    from .service.load import run_query

    host, port = _service_address(args)
    outcome = asyncio.run(
        run_query(
            host, port, args.session_id,
            retries=args.retries, timeout_s=args.timeout,
        )
    )
    token = args.session_id
    if outcome.status == "completed":
        certificate = outcome.certificate
        verdict = "ok" if certificate is not None and certificate.ok else "NOT OK"
        print(
            f"{token}: completed — {outcome.algorithm}, "
            f"{outcome.rounds} round(s), certificate {verdict}"
        )
        for original, name in outcome.entries:
            print(f"  {original} -> {name}")
        if certificate is not None and not certificate.ok:
            for violation in certificate.violations:
                print(f"  violation: {violation}", file=sys.stderr)
            return EXIT_VIOLATION
        return EXIT_OK
    if outcome.status == "failed":
        print(f"{token}: failed — {outcome.code}: {outcome.detail}")
        return EXIT_VIOLATION
    if outcome.status == "in-flight":
        print(f"{token}: in flight — executing now, or interrupted by a "
              f"crash and awaiting the client's retry")
        return EXIT_INTERRUPTED
    if outcome.status == "unknown":
        print(f"{token}: unknown — the journal has never accepted this token")
        return EXIT_INFRA
    detail = f" ({outcome.detail})" if outcome.detail else ""
    code = f" [{outcome.code}]" if outcome.code else ""
    print(f"error: query {outcome.status}{code}{detail}", file=sys.stderr)
    return EXIT_INFRA


def _session_result_column(record) -> str:
    if record.state == "completed":
        return "certificate ok" if record.ok else "certificate NOT OK"
    if record.state == "failed":
        return record.code
    retried = f", retried x{record.accepted - 1}" if record.accepted > 1 else ""
    return f"interrupted{retried}" if record.accepted else "?"


def cmd_sessions(args: argparse.Namespace) -> int:
    from .service.journal import scan_session_journal, truncate_torn_tail

    path = Path(args.journal)
    state = scan_session_journal(path)
    if state.header is None:
        print(f"error: session journal {path} has no header record",
              file=sys.stderr)
        return EXIT_INFRA
    if state.torn:
        torn_bytes = truncate_torn_tail(state)
        print(
            f"torn tail: {torn_bytes} byte(s) cut mid-append by a crash — "
            f"truncated (by fsync ordering no client was ever answered "
            f"from them)"
        )
    if args.sessions_command == "list":
        if not state.sessions:
            print(f"session journal {path}: no sessions journaled")
            return EXIT_OK
        rows = []
        for record in state.sessions.values():
            request = record.request
            rows.append([
                record.session_id,
                record.state if record.state != "in-flight" else "interrupted",
                request.get("algorithm", "?"),
                len(request.get("ids", [])) or "?",
                record.accepted,
                _session_result_column(record),
            ])
        print(format_table(
            ["token", "state", "algorithm", "ids", "accepted", "result"],
            rows,
        ))
        return EXIT_OK
    # show
    record = state.sessions.get(args.session_id)
    if record is None:
        print(f"error: token {args.session_id!r} not in {path}",
              file=sys.stderr)
        return EXIT_INFRA
    request = record.request
    print(f"token {record.session_id!r} in {path}")
    print(f"  state:       "
          f"{record.state if record.state != 'in-flight' else 'interrupted'}")
    print(f"  accepted:    {record.accepted} time(s)")
    print(f"  fingerprint: {record.fingerprint[:16]}…")
    if request:
        print(
            f"  request:     algorithm={request.get('algorithm')} "
            f"t={request.get('t')} attack={request.get('attack')} "
            f"seed={request.get('seed')} ids={request.get('ids')}"
        )
    if record.state == "completed":
        from .service.frames import decode_frame

        names = decode_frame(bytes.fromhex(record.names_hex))
        certificate = decode_frame(bytes.fromhex(record.certificate_hex))
        print(
            f"  result:      {names.algorithm}, {names.rounds} round(s), "
            f"namespace {certificate.namespace}, certificate "
            f"{'ok' if certificate.ok else 'NOT OK'}"
        )
        for original, name in names.entries:
            print(f"    {original} -> {name}")
        for violation in certificate.violations:
            print(f"    violation: {violation}")
        return EXIT_OK if certificate.ok else EXIT_VIOLATION
    if record.state == "failed":
        print(f"  error:       {record.code}: {record.detail}")
        if record.trace_pointer >= 0:
            print(f"  trace:       round {record.trace_pointer}")
        return EXIT_VIOLATION
    print(
        "  note:        accepted but never finished — in flight when the "
        "daemon died; a client retry with this token re-admits it "
        "exactly once"
    )
    return EXIT_INTERRUPTED


def cmd_proxy(args: argparse.Namespace) -> int:
    import asyncio

    from .analysis import atomic_write_text
    from .service.proxy import ChaosProxy, ProxyFaults

    if (args.upstream is None) == (args.upstream_file is None):
        print("error: proxy needs exactly one of --upstream or "
              "--upstream-file", file=sys.stderr)
        return EXIT_INFRA
    if args.upstream_file is not None:
        text = Path(args.upstream_file).read_text().strip()
    else:
        text = args.upstream
    upstream_host, _, upstream_port = text.rpartition(":")
    if not upstream_host or not upstream_port.isdigit():
        print(f"error: bad upstream address {text!r} (expected host:port)",
              file=sys.stderr)
        return EXIT_INFRA
    faults = ProxyFaults(
        reset=args.reset,
        truncate=args.truncate,
        corrupt=args.corrupt,
        stall=args.stall,
        duplicate=args.duplicate,
        stall_s=args.stall_s,
        direction=args.direction,
    )
    proxy = ChaosProxy(
        upstream_host,
        int(upstream_port),
        host=args.host,
        port=args.port,
        faults=faults,
        seed=args.seed,
    )

    async def _run() -> None:
        import signal as signal_module

        await proxy.start()
        host, port = proxy.bound_address
        print(
            f"proxy: {host}:{port} -> {upstream_host}:{upstream_port} "
            f"(seed {args.seed})",
            flush=True,
        )
        if args.port_file is not None:
            atomic_write_text(args.port_file, f"{host}:{port}\n")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        try:
            await stop.wait()
        finally:
            await proxy.close()

    asyncio.run(_run())
    stats = proxy.stats
    print(
        f"proxy: {stats.connections} connection(s), "
        f"{stats.forwarded_bytes} byte(s) forwarded, "
        f"{stats.resets} reset, {stats.truncations} truncated, "
        f"{stats.corruptions} corrupted, {stats.stalls} stalled, "
        f"{stats.duplicates} duplicated, "
        f"{stats.upstream_failures} upstream failure(s)"
    )
    return EXIT_OK


def _run_status(report: dict) -> str:
    """A store's status word from its :func:`store_doctor` report."""
    if report["complete"]:
        return "complete"
    return "interrupted" if report["interrupted"] else "in-progress"


def cmd_runs_list(args: argparse.Namespace) -> int:
    runs_dir = Path(args.runs_dir)
    roots = (
        sorted(path for path in runs_dir.iterdir() if path.is_dir())
        if runs_dir.is_dir() else []
    )
    if not roots:
        print(f"no journals under {args.runs_dir}")
        return EXIT_OK
    rows = []
    for root in roots:
        try:
            report = store_doctor(open_store(f"dir:{root}"))
        except StoreError:
            report = {"header": None}
        header = report["header"]
        if header is None:
            rows.append([root.name, "?", "?", "?", "?", "?", "?", "damaged"])
            continue
        counts = report["counts"]
        rows.append([
            root.name, header["kind"], counts["cells"], counts["finished"],
            counts["failed"], counts["quarantined"], counts["leased"],
            _run_status(report),
        ])
    print(
        format_table(
            ["run id", "kind", "cells", "finished", "failed", "quarantined",
             "leased", "status"],
            rows,
        )
    )
    return EXIT_OK


def cmd_runs_resume(args: argparse.Namespace) -> int:
    url = _run_store(args.runs_dir, args.run_id)
    store = open_store(url)
    header = store.header()
    config = header.get("config") or {}
    budget = _budget_from(args, fallback=config.get("budget"))
    counts = store.counts()
    remaining = counts["pending"] + counts["leased"]
    print(
        f"resuming {header['kind']} run {header['run_id']!r}: "
        f"{counts['cells'] - remaining}/{counts['cells']} cells already "
        f"terminal, {remaining} to execute"
    )
    run_kind(header["kind"])
    tasks = [
        RunTask.from_dict(store.task(index)) for index in range(counts["cells"])
    ]
    try:
        if header["kind"] == "sweep":
            executor = SweepExecutor(
                workers=args.workers, cache=config.get("cache")
            )
            records = executor.run(
                tasks, store=url, budget=budget, run_id=header["run_id"],
            )
            return _finish_sweep(records, executor, args.csv)
        campaign = ChaosCampaign(
            workers=args.workers, timeout_s=config.get("timeout_s", 120.0),
        )
        report = campaign.run(
            tasks, store=url, budget=budget, run_id=header["run_id"],
        )
        return _finish_chaos(report, args.json)
    except RunInterrupted as exc:
        return _interrupted(exc, args.runs_dir, args.run_id)


def cmd_runs_doctor(args: argparse.Namespace) -> int:
    if args.store is not None:
        store = open_store(args.store)
    elif args.run_id is not None:
        store = open_store(_run_store(args.runs_dir, args.run_id))
    else:
        print("error: runs doctor needs a run_id or --store URL",
              file=sys.stderr)
        return EXIT_INFRA
    torn = store.truncate_torn_events()
    report = store_doctor(store)
    header = report["header"]
    if header is None:
        print(f"error: store {store.url} is not seeded", file=sys.stderr)
        return EXIT_INFRA
    counts = report["counts"]
    print(f"run {header['run_id']!r} ({header['kind']}), store {store.url}")
    print(f"  fingerprint: {header.get('fingerprint', '?')[:16]}…")
    if torn:
        print(
            f"  torn tail:   {torn} byte(s) of the event log cut mid-append "
            f"by a crash — truncated"
        )
    print(
        f"  cells:       {counts['cells']} total — {counts['finished']} "
        f"finished, {counts['failed']} failed, {counts['quarantined']} "
        f"quarantined, {counts['leased']} leased, {counts['pending']} "
        f"pending"
    )
    if report["expired_leases"]:
        print(
            f"  expired:     leases on cells {report['expired_leases']} "
            f"(dead workers — reclaimed on the next claim or policing pass)"
        )
    if report["orphaned_claims"]:
        print(
            f"  orphaned:    leases on terminal cells "
            f"{report['orphaned_claims']} (worker died after its result "
            f"landed; harmless)"
        )
    if report["reclaims"]:
        print(
            f"  reclaims:    {report['reclaims']} lease takeover(s) on "
            f"cells {report['reclaimed_cells']}"
        )
    if report["double_claims"]:
        print(
            f"  claim races: {report['double_claims']} lost race(s) "
            f"(no cell was executed twice for these)"
        )
    if report["stale_results"]:
        print(
            f"  stale:       {report['stale_results']} result(s) refused "
            f"from taken-over workers (first durable result won)"
        )
    if report["exhausted_cells"]:
        print(
            f"  exhausted:   cells {report['exhausted_cells']} recorded as "
            f"failed after repeated lease expiry"
        )
    if report["torn_results"]:
        print(
            f"  torn:        corrupt terminal records on cells "
            f"{report['torn_results']} were dropped and re-executed"
        )
    if report["double_executions"]:
        print(
            f"  REEXECUTED:  cells {report['double_executions']} produced "
            f"a second terminal result — the exactly-once discipline was "
            f"violated"
        )
        if args.assert_no_reexecution:
            return EXIT_INFRA
    elif args.assert_no_reexecution:
        print(
            "  reexecution: none — every cell produced exactly one "
            "terminal result"
        )
    status = _run_status(report)
    if not report["complete"] and args.store is None:
        status += (
            f" — resume with 'runs resume {args.run_id} "
            f"--runs-dir {args.runs_dir}'"
        )
    print(f"  status:      {status}")
    return EXIT_OK


def cmd_runs(args: argparse.Namespace) -> int:
    if args.runs_command == "list":
        return cmd_runs_list(args)
    if args.runs_command == "resume":
        return cmd_runs_resume(args)
    if args.runs_command == "doctor":
        return cmd_runs_doctor(args)
    raise AssertionError(f"unhandled runs command {args.runs_command!r}")


def _check_engines(args: argparse.Namespace) -> None:
    """Resolve every requested engine up front, so an unknown name is a
    configuration error (exit 3) before any work starts."""
    for name in [getattr(args, "engine", None), *getattr(args, "engines", ())]:
        if name is not None:
            resolve_engine(name)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_engines(args)
        return _dispatch(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    except RunInterrupted as exc:
        # Commands catch this themselves to print a resume hint; this is the
        # safety net for any store-backed path that doesn't.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "scenario":
        return cmd_scenario(args)
    if args.command == "verify":
        return cmd_verify()
    if args.command == "bounds":
        return cmd_bounds(args)
    if args.command == "inspect":
        return cmd_inspect(args)
    if args.command == "replay":
        return cmd_replay(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "worker":
        return cmd_worker(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "load":
        return cmd_load(args)
    if args.command == "query":
        return cmd_query(args)
    if args.command == "sessions":
        return cmd_sessions(args)
    if args.command == "proxy":
        return cmd_proxy(args)
    if args.command == "runs":
        return cmd_runs(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
