"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs, runs ops against the
program's public entry points with its default engine and settings,
checks every op's output, and reports one :class:`Op` per op. Only inputs
cross into the program: cell seeds for the sweep, id lists and session
seeds for the flood and the service.

* ``sweep`` — serial, uncached ``run_sweep(..., workers=1)``, one call per
  cell of a fixed grid; one op is one cell.
* ``flood`` — E10's substrate flood through ``run_protocol``; one op is
  one run.
* ``service-journal`` — an in-process daemon with a session journal, two
  closed-loop clients sending tokened 8-id sessions, one in ten a retry of
  a completed token; one op is one session.
* ``service-alg1`` — the same daemon without a journal, two closed-loop
  clients sending anonymous sessions that ``auto`` runs on Alg. 1 under a
  Byzantine attack; one op is one session.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Ids are drawn from the paper's huge original namespace.
ID_SPACE = 2**20

#: Service workloads time the reference kernel this often (seconds).
REFERENCE_EVERY_S = 0.1


def reference_kernel() -> int:
    """Fixed pure-Python work: small tuples into dict-held lists, then
    sorting them, the object churn the simulator and the daemon live on.
    It never changes with the program, so its time says only how fast the
    host runs Python at that moment."""
    buckets: Dict[int, list] = {}
    for k in range(10000):
        buckets.setdefault(k % 97, []).append((k, k * 3))
    for bucket in buckets.values():
        bucket.sort(reverse=True)
    return len(buckets)


class HostSpeed:
    """Reference-kernel timings taken between ops: when each ended, its
    wall time and its thread CPU time. The CPU time leaves out waits for
    the GIL, so the daemon's own threads do not read as a slower host."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float]] = []

    def sample(self) -> float:
        # No collections inside: their cost depends on the program's heap.
        collecting = gc.isenabled()
        gc.disable()
        started, cpu = time.perf_counter(), time.thread_time()
        try:
            reference_kernel()
        finally:
            cpu, ended = time.thread_time() - cpu, time.perf_counter()
            if collecting:
                gc.enable()
        self.samples.append((ended, ended - started, cpu))
        return cpu

    def between(self, start: float, end: float) -> Tuple[List[float], float]:
        """CPU times of the samples that ended in ``[start, end)``, and the
        wall time they took together."""
        inside = [sample for sample in self.samples if start <= sample[0] < end]
        return [cpu for _, _, cpu in inside], sum(wall for _, wall, _ in inside)


@dataclass
class Op:
    """One measured op: its id, client-observed latency and verdict."""

    op_id: str
    latency_s: float
    failed: bool = False
    #: Exact counts for this op (rounds, messages, ...), when it has any.
    counts: Dict[str, int] = field(default_factory=dict)
    problem: str = ""


@dataclass
class Window:
    """A slice of a timed phase: its throughput (reference-kernel time
    left out), its ops' latencies and the kernel CPU times taken inside it."""

    rate: float
    latencies: List[float]
    reference: List[float]


@dataclass
class Phase:
    """The ops of one timed phase and its windows (a grid pass, a group of
    runs, or a time slice). End-to-end figures scale each window by the
    reference kernel's speed inside it, then take the median over windows
    (see ``perf_report``)."""

    ops: List[Op]
    windows: List[Window]


def merge_phases(phases: List[Phase]) -> Phase:
    return Phase(
        [op for phase in phases for op in phase.ops],
        [window for phase in phases for window in phase.windows],
    )


def rng_for(*parts) -> random.Random:
    """A generator keyed by a string, so inputs never depend on hash
    randomisation or on the program's own seed derivation."""
    return random.Random("perfbench/" + "/".join(str(part) for part in parts))


def make_id_list(rng: random.Random, n: int) -> List[int]:
    return sorted(rng.sample(range(1, ID_SPACE + 1), n))


def _traced(tracer, op_id):
    return tracer.op(op_id) if tracer is not None else contextlib.nullcontext()


# --------------------------------------------------------------------- sweep


class SweepWorkload:
    """The paper's algorithms at experiment scale, one cell per op."""

    name = "sweep"
    #: (algorithm, n, t, attack): every registered family at the
    #: small-to-moderate sizes the experiments use, under Byzantine and
    #: crash attacks. No EIG at t >= 4 or Alg. 1 at t >= 8 (seconds per
    #: cell). Ordered so one pass interleaves heavy and light cells.
    GRID: Tuple[Tuple[str, int, int, str], ...] = (
        ("alg1", 7, 2, "id-forging"),
        ("alg4", 11, 2, "selective-echo"),
        ("consensus", 7, 2, "conforming"),
        ("alg1", 10, 3, "rank-skew"),
        ("floodset", 7, 2, "crash"),
        ("alg1-constant", 9, 1, "id-forging"),
        ("okun-crash", 7, 2, "crash"),
        ("alg1", 13, 4, "divergence"),
        ("alg4", 22, 3, "noise"),
        ("consensus", 10, 3, "id-forging"),
        ("alg1", 7, 2, "split-world"),
        ("alg1-constant", 16, 2, "rank-skew"),
        ("floodset", 13, 4, "crash"),
        ("okun-crash", 13, 4, "conforming"),
        ("alg4", 37, 4, "selective-echo"),
        ("alg1", 10, 3, "divergence"),
        ("consensus", 4, 1, "id-forging"),
        ("alg1-constant", 9, 1, "order-inversion"),
        ("okun-crash", 10, 3, "crash"),
        ("alg4", 22, 3, "fuzz"),
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._next_pass = 0

    def setup(self) -> None:
        from repro.analysis import ALGORITHMS, SweepConfig, run_sweep

        self._algorithms = ALGORITHMS
        self._config = SweepConfig
        self._run_sweep = run_sweep
        self._op("warm-up", *self.GRID[0], self._cell_seed("warm-up", 0))

    def teardown(self) -> None:
        pass

    def final_check(self) -> str:
        return ""

    def _cell_seed(self, pass_no, index) -> int:
        return rng_for("sweep", self.seed, pass_no, index).randrange(2**31)

    def _op(self, op_id, algorithm, n, t, attack, cell_seed) -> Op:
        config = self._config(
            algorithms=[algorithm], sizes=[(n, t)], attacks=[attack], seeds=[cell_seed]
        )
        started = time.perf_counter()
        rows = self._run_sweep(config, workers=1)
        latency = time.perf_counter() - started
        if len(rows) != 1:
            return Op(op_id, latency, True, problem=f"{len(rows)} rows for one cell")
        row = rows[0]
        if self._algorithms[algorithm].order_preserving:
            ok = row.report.ok
        else:
            ok = row.report.ok_without_order()
        counts = {
            "rounds": row.rounds,
            "correct_messages": row.correct_messages,
            "correct_bits": row.correct_bits,
        }
        problem = "" if ok and not row.failed else f"{algorithm} n={n} t={t} " + str(
            row.error or row.report
        )
        return Op(op_id, latency, bool(problem), counts, problem)

    def run(self, seconds: float, tracer=None) -> Phase:
        """Whole grid passes until ``seconds`` have elapsed (at least one),
        the reference kernel timed after every cell."""
        ops: List[Op] = []
        windows: List[Window] = []
        host = HostSpeed()
        started = time.perf_counter()
        while True:
            pass_no = self._next_pass
            self._next_pass += 1
            pass_started = time.perf_counter()
            cells: List[Op] = []
            for index, cell in enumerate(self.GRID):
                op_id = f"c{pass_no}.{index}"
                with _traced(tracer, op_id):
                    cells.append(self._op(op_id, *cell, self._cell_seed(pass_no, index)))
                host.sample()
            now = time.perf_counter()
            reference, paused = host.between(pass_started, now)
            ops += cells
            windows.append(
                Window(
                    len(cells) / (now - pass_started - paused),
                    [op.latency_s for op in cells],
                    reference,
                )
            )
            if now - started >= seconds:
                return Phase(ops, windows)

    def probe_ids(self) -> List[str]:
        return [f"c0.{index}" for index in range(len(self.GRID))]

    def recheck(self) -> List[Op]:
        """Re-run the first cells of pass 0 (untimed) for the determinism check."""
        return [
            self._op(f"c0.{index}", *self.GRID[index], self._cell_seed(0, index))
            for index in range(4)
        ]


# --------------------------------------------------------------------- flood


class FloodWorkload:
    """All-to-all broadcast with near-zero protocol work (E10's flood)."""

    name = "flood"
    N = 200
    ROUNDS = 10
    PROBE_OPS = 3
    WINDOW_OPS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._next_op = 0

    def setup(self) -> None:
        import repro
        from repro.core.messages import IdMessage
        from repro.sim import Process

        rounds = self.ROUNDS

        class SubstrateFlood(Process):
            """Broadcast the own id every round; decide after the last."""

            def send(self, round_no):
                return self.broadcast(IdMessage(self.ctx.my_id))

            def deliver(self, round_no, inbox):
                if round_no == rounds:
                    self.output_value = self.ctx.my_id

        self._protocol = SubstrateFlood
        # Looked up per call: a traced phase patches the module attribute.
        self._repro = repro
        self._op("warm-up", rng_for("flood", self.seed, "warm-up"))

    def teardown(self) -> None:
        pass

    def final_check(self) -> str:
        return ""

    def _op(self, op_id, rng) -> Op:
        n = self.N
        ids = make_id_list(rng, n)
        run_seed = rng.randrange(2**31)
        started = time.perf_counter()
        result = self._repro.run_protocol(
            self._protocol, n=n, t=0, ids=ids, seed=run_seed
        )
        latency = time.perf_counter() - started
        metrics = result.metrics
        counts = {
            "rounds": metrics.round_count,
            "correct_messages": metrics.correct_messages,
            "correct_bits": metrics.correct_bits,
        }
        problem = ""
        if metrics.correct_messages != self.ROUNDS * n * n:
            problem = (
                f"{metrics.correct_messages} correct messages, expected "
                f"{self.ROUNDS * n * n}"
            )
        elif metrics.round_count != self.ROUNDS:
            problem = f"{metrics.round_count} rounds, expected {self.ROUNDS}"
        elif result.outputs_by_id() != {i: i for i in ids}:
            problem = "a process decided something other than its own id"
        return Op(op_id, latency, bool(problem), counts, problem)

    def run(self, seconds: float, tracer=None) -> Phase:
        """Runs until ``seconds`` have elapsed and the probe has run,
        windowed by ``WINDOW_OPS`` consecutive runs, the reference kernel
        timed after every run."""
        ops: List[Op] = []
        windows: List[Window] = []
        host = HostSpeed()
        started = window_started = time.perf_counter()
        while self._next_op < self.PROBE_OPS or time.perf_counter() - started < seconds:
            index = self._next_op
            self._next_op += 1
            op_id = f"r{index}"
            with _traced(tracer, op_id):
                ops.append(self._op(op_id, rng_for("flood", self.seed, index)))
            host.sample()
            if len(ops) % self.WINDOW_OPS == 0:
                now = time.perf_counter()
                recent = ops[-self.WINDOW_OPS:]
                reference, paused = host.between(window_started, now)
                windows.append(
                    Window(
                        len(recent) / (now - window_started - paused),
                        [op.latency_s for op in recent],
                        reference,
                    )
                )
                window_started = now
        if not windows:
            now = time.perf_counter()
            reference, paused = host.between(started, now)
            windows.append(
                Window(
                    len(ops) / (now - started - paused),
                    [op.latency_s for op in ops],
                    reference,
                )
            )
        return Phase(ops, windows)

    def probe_ids(self) -> List[str]:
        return [f"r{index}" for index in range(self.PROBE_OPS)]

    def recheck(self) -> List[Op]:
        return [self._op("r0", rng_for("flood", self.seed, 0))]


# ------------------------------------------------------------------- service


class ServiceWorkload:
    """An in-process daemon driven by a closed loop of two clients."""

    CLIENTS = 2
    #: Window length (seconds) for throughput and latency.
    WINDOW_S = 1.0
    #: Per-client sessions that always run: the count probe.
    PROBE_PER_CLIENT = 20

    journaled = False
    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self._next_index = [0] * self.CLIENTS
        #: Temporary directory holding the session journal (journaled only).
        self.journal_dir: Optional[str] = None
        #: Completed tokens' first responses, for replay checks.
        self._originals: Dict[str, tuple] = {}
        self.daemon_exit: Optional[int] = None
        #: Session seed -> op id, for server-side spans.
        self.op_of_seed: Dict[int, str] = {}

    # ---------------------------------------------------------- lifecycle

    def setup(self) -> None:
        from repro.service.load import run_session
        from repro.service.server import RenamingService

        self._run_session = run_session
        journal = None
        if self.journaled:
            from repro.service.journal import SessionJournal

            self.scratch.mkdir(parents=True, exist_ok=True)
            self.journal_dir = tempfile.mkdtemp(prefix="journal-", dir=self.scratch)
            journal = SessionJournal.open_or_create(
                Path(self.journal_dir) / "sessions.jsonl"
            )
        self.journal = journal
        self.loop = asyncio.new_event_loop()
        self.service = RenamingService(install_signal_handlers=False, journal=journal)
        self.loop.run_until_complete(self.service.start())
        self.host, self.port = self.service.bound_address
        self._server_task = self.loop.create_task(self.service.serve_forever())
        warm = self.loop.run_until_complete(self._session(-1, 0, None))
        if warm.failed:
            self.teardown()
            raise RuntimeError(f"warm-up session failed: {warm.problem}")

    def teardown(self) -> None:
        try:
            self.service.initiate_drain()
            self.daemon_exit = self.loop.run_until_complete(self._server_task)
        finally:
            self.loop.close()
            if self.journal_dir is not None:
                shutil.rmtree(self.journal_dir, ignore_errors=True)

    # --------------------------------------------------------------- ops

    def request(self, client: int, index: int):
        """(token, ids, t, attack, seed) of one session; overridden."""
        raise NotImplementedError

    def op_id(self, client: int, index: int) -> str:
        return f"s{client}.{index}"

    async def _session(self, client: int, index: int, tracer) -> Op:
        token, ids, t, attack, seed = self.request(client, index)
        op_id = self.op_id(client, index)
        replay_of = self._replay_target(client, index)
        if replay_of is None:
            self.op_of_seed[seed] = op_id
        with _traced(tracer, op_id):
            started = time.perf_counter()
            outcome = await self._run_session(
                self.host, self.port, ids=ids, t=t, attack=attack, seed=seed,
                session_id=token,
            )
            latency = time.perf_counter() - started
        counts = {"rounds": outcome.rounds}
        problem = self.check(outcome, ids, t, token, replay_of)
        if not problem and token and replay_of is None:
            self._originals[token] = (outcome.entries, outcome.certificate)
        if (client, index) == (0, 0):
            self._first_entries = outcome.entries
        return Op(op_id, latency, bool(problem), counts, problem)

    def _replay_target(self, client: int, index: int) -> Optional[str]:
        return None

    def check(self, outcome, ids, t, token, replay_of) -> str:
        if outcome.status != "completed":
            return f"session {token or ids[:2]} ended {outcome.status}: {outcome.detail}"
        if len(outcome.entries) != len(ids) - t:
            return f"{len(outcome.entries)} names for {len(ids)} ids, t={t}"
        if outcome.algorithm != self.EXPECTED_ALGORITHM:
            return f"auto chose {outcome.algorithm}, expected {self.EXPECTED_ALGORITHM}"
        if replay_of is not None:
            original = self._originals.get(replay_of)
            if original != (outcome.entries, outcome.certificate):
                return f"replay of {replay_of} differs from its original response"
        return ""

    async def _client(self, client, deadline, tracer, ops, finished) -> None:
        while (
            self._next_index[client] < self.PROBE_PER_CLIENT
            or time.perf_counter() < deadline
        ):
            index = self._next_index[client]
            self._next_index[client] += 1
            op = await self._session(client, index, tracer)
            ops.append(op)
            finished.append((time.perf_counter(), op.latency_s))

    def run(self, seconds: float, tracer=None) -> Phase:
        ops: List[Op] = []
        finished: List[Tuple[float, float]] = []
        host = HostSpeed()
        started = time.perf_counter()
        deadline = started + seconds

        async def sample_host():
            # On the loop itself: the kernel stalls clients and daemon alike
            # for its few milliseconds, which each slice's rate leaves out.
            while time.perf_counter() < deadline:
                host.sample()
                await asyncio.sleep(REFERENCE_EVERY_S)

        async def clients():
            await asyncio.gather(
                sample_host(),
                *(self._client(c, deadline, tracer, ops, finished)
                  for c in range(self.CLIENTS)),
            )

        self.loop.run_until_complete(clients())
        now = time.perf_counter()
        # Sessions by completion time into equal slices of about WINDOW_S,
        # up to the deadline: the tail after it has one client or none.
        # A slice's rate is its completions over the time from its first
        # to its last one, so it is not quantised to whole sessions.
        count = max(1, int(seconds // self.WINDOW_S))
        width = seconds / count
        slices: Dict[int, List[Tuple[float, float]]] = {}
        for stamp, latency in finished:
            index = int((stamp - started) // width)
            if index < count:
                slices.setdefault(index, []).append((stamp, latency))
        windows = []
        for done in slices.values():
            first, last = done[0][0], done[-1][0]
            reference, paused = host.between(first, last)
            if len(done) > 2 and reference:
                windows.append(
                    Window(
                        (len(done) - 1) / (last - first - paused),
                        [latency for _, latency in done],
                        reference,
                    )
                )
        if not windows:
            reference, paused = host.between(started, now)
            windows.append(
                Window(
                    len(ops) / (now - started - paused),
                    [op.latency_s for op in ops],
                    reference,
                )
            )
        return Phase(ops, windows)

    def probe_ids(self) -> List[str]:
        """Op ids of the count probe: each client's first sessions."""
        return [
            self.op_id(client, index)
            for client in range(self.CLIENTS)
            for index in range(self.PROBE_PER_CLIENT)
        ]

    def recheck(self) -> List[Op]:
        """Re-submit client 0's first session anonymously (untimed): the
        daemon must assign the same names in the same rounds."""
        _, ids, t, attack, seed = self.request(0, 0)
        outcome = self.loop.run_until_complete(
            self._run_session(self.host, self.port, ids=ids, t=t, attack=attack, seed=seed)
        )
        problem = ""
        if outcome.status != "completed":
            problem = f"re-run ended {outcome.status}: {outcome.detail}"
        elif outcome.entries != self._first_entries:
            problem = "re-run assigned different names than the first run"
        return [
            Op(self.op_id(0, 0), outcome.latency_s, bool(problem),
               {"rounds": outcome.rounds}, problem)
        ]

    def final_check(self) -> str:
        """Whole-run checks after teardown ('' when they pass)."""
        if self.daemon_exit != 0:
            return f"daemon exited {self.daemon_exit} after drain, expected 0"
        return ""


class JournalServiceWorkload(ServiceWorkload):
    """Tokened 8-id, t=0 sessions; one in ten retries a completed token."""

    name = "service-journal"
    journaled = True
    EXPECTED_ALGORITHM = "alg4"
    IDS = 8
    #: Session ``index`` with ``index % 10 == 9`` re-submits ``index - 5``.
    REPLAY_EVERY = 10
    REPLAY_LAG = 5

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        #: Sessions that ran (not replays): each journals exactly 2 records.
        self._fresh = 0

    def _replay_target(self, client, index):
        if index >= 0 and index % self.REPLAY_EVERY == self.REPLAY_EVERY - 1:
            return self._token(client, index - self.REPLAY_LAG)
        return None

    def _token(self, client, index):
        return f"t{self.seed}-{client}-{index}"

    def request(self, client, index):
        target = self._replay_target(client, index)
        if target is not None:
            index = index - self.REPLAY_LAG
        rng = rng_for(self.name, self.seed, client, index)
        ids = make_id_list(rng, self.IDS)
        return self._token(client, index), ids, 0, "silent", rng.randrange(2**31)

    def op_id(self, client, index):
        # A replay shares its target's token; tag it so op ids stay unique.
        token = self.request(client, index)[0]
        return token + ("~replay" if self._replay_target(client, index) else "")

    async def _session(self, client, index, tracer):
        op = await super()._session(client, index, tracer)
        token = self.request(client, index)[0]
        replay = self._replay_target(client, index) is not None
        if not replay:
            self._fresh += 1
            op.counts["journal_records"] = self._records_for(token)
        if not op.failed:
            record = self.journal.lookup(token)
            if record is None or record.state != "completed" or record.accepted != 1:
                op.failed = True
                op.problem = f"token {token} journaled as {record}, expected one run"
        if index >= 0 and not replay:
            # Keep only the originals a later replay can still name.
            self._originals.pop(self._token(client, index - self.REPLAY_EVERY), None)
        return op

    def _records_for(self, token: str) -> int:
        record = self.journal.lookup(token)
        if record is None:
            return 0
        return record.accepted + (record.state != "in-flight")

    def final_check(self) -> str:
        problem = super().final_check()
        # Header, then accepted + completed per fresh token; replays add none.
        expected = 1 + 2 * self._fresh
        if not problem and self.journal.state.records != expected:
            problem = (
                f"journal holds {self.journal.state.records} records, expected "
                f"{expected} for {self._fresh} fresh sessions"
            )
        return problem


class Alg1ServiceWorkload(ServiceWorkload):
    """Anonymous 7–8-id, t=2 sessions under id forging: ``auto`` runs Alg. 1."""

    name = "service-alg1"
    EXPECTED_ALGORITHM = "alg1"
    #: Alg. 1 is auto's choice for t=2 exactly when 3t < N <= t² + 2t.
    SIZES = (7, 8)
    T = 2
    ATTACK = "id-forging"

    def request(self, client, index):
        rng = rng_for(self.name, self.seed, client, index)
        ids = make_id_list(rng, self.SIZES[index % len(self.SIZES)])
        return "", ids, self.T, self.ATTACK, rng.randrange(2**31)


WORKLOADS = {
    "sweep": SweepWorkload,
    "flood": FloodWorkload,
    "service-journal": JournalServiceWorkload,
    "service-alg1": Alg1ServiceWorkload,
}
