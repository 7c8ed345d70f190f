"""Network-fault chaos proxy: the PR 4 chaos philosophy applied to the wire.

A seeded asyncio TCP proxy that sits between a client and the renaming
daemon and injects the faults a real network serves up: abrupt connection
**resets**, **mid-frame truncation** (forward part of a frame, then
close), byte-level **corruption** (one flipped byte), **stalls** (stop
forwarding long enough to trip the client's timeout), and **duplicate
delivery** (the same chunk twice). The recovery suite and ``make
recovery-smoke`` drive client traffic through it to prove the typed-error
contract: every injected fault surfaces on the client as a typed
:class:`~repro.service.load.SessionOutcome` status — never a hang, never
a silent wrong answer — and, with idempotency tokens, a retry through the
journal loses nothing.

Faults are drawn per connection from a :func:`repro.sim.rng.derive_seed`
stream keyed on ``(seed, "proxy-conn", index)``: the same seed yields the
same fault schedule for the same connection order. At most one fault
fires per connection (the probabilities are tried in a fixed order), on a
byte offset early in the chosen direction's stream so small frames are
still hit.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from ..sim.errors import ConfigurationError
from ..sim.rng import derive_seed

__all__ = ["ChaosProxy", "ProxyFaults", "ProxyStats"]

#: Fault kinds, in the order probabilities are tried per connection.
FAULT_KINDS = ("reset", "truncate", "corrupt", "stall", "duplicate")

#: Directions a fault may target: client→server ("up") or server→client
#: ("down"). "both" lets the per-connection RNG pick.
DIRECTIONS = ("up", "down", "both")

#: Injected faults land within the first this-many bytes of the chosen
#: direction's stream — early enough to hit even a Welcome-sized frame.
_MAX_FAULT_OFFSET = 24


@dataclass(frozen=True)
class ProxyFaults:
    """Per-connection fault probabilities (each in [0, 1]).

    ``stall_s`` is how long a stall stops forwarding — set it beyond the
    client's timeout to turn a stall into a client-observed timeout.
    ``direction`` restricts which half of the conversation faults hit
    (useful for deterministic tests); ``"both"`` picks per connection.
    """

    reset: float = 0.0
    truncate: float = 0.0
    corrupt: float = 0.0
    stall: float = 0.0
    duplicate: float = 0.0
    stall_s: float = 5.0
    direction: str = "both"

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            probability = getattr(self, kind)
            if not 0.0 <= probability <= 1.0:
                raise ConfigurationError(
                    f"fault probability {kind}={probability} outside [0, 1]"
                )
        if self.direction not in DIRECTIONS:
            raise ConfigurationError(
                f"unknown fault direction {self.direction!r} "
                f"(expected one of {DIRECTIONS})"
            )


@dataclass
class ProxyStats:
    """What the proxy did, per fault kind."""

    connections: int = 0
    upstream_failures: int = 0  # daemon connect failed; client closed
    resets: int = 0
    truncations: int = 0
    corruptions: int = 0
    stalls: int = 0
    duplicates: int = 0
    forwarded_bytes: int = 0


class _Abort(Exception):
    """Internal: stop this connection now (clean close or hard reset)."""

    def __init__(self, hard: bool) -> None:
        super().__init__("abort")
        self.hard = hard


@dataclass
class _Plan:
    """The (at most one) fault this connection will suffer."""

    kind: Optional[str] = None
    direction: str = "down"
    offset: int = 0


class ChaosProxy:
    """A seeded TCP proxy injecting network faults between two peers."""

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        faults: Optional[ProxyFaults] = None,
        seed: int = 0,
    ) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.host = host
        self.port = port
        self.faults = faults if faults is not None else ProxyFaults()
        self.seed = seed
        self.stats = ProxyStats()
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        self._next_index = 0

    # ------------------------------------------------------------ lifecycle

    @property
    def bound_address(self) -> Tuple[str, int]:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("proxy is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro-renaming proxy`` loop)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # ---------------------------------------------------------- fault plans

    def _draw_plan(self, rng: random.Random) -> _Plan:
        plan = _Plan()
        for kind in FAULT_KINDS:
            if rng.random() < getattr(self.faults, kind):
                plan.kind = kind
                break
        if plan.kind is None:
            return plan
        if self.faults.direction == "both":
            plan.direction = rng.choice(("up", "down"))
        else:
            plan.direction = self.faults.direction
        plan.offset = rng.randrange(1, _MAX_FAULT_OFFSET)
        return plan

    # -------------------------------------------------------- per-connection

    async def _handle(
        self, client_reader: asyncio.StreamReader, client_writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        index = self._next_index
        self._next_index += 1
        self.stats.connections += 1
        rng = random.Random(derive_seed(self.seed, "proxy-conn", index))
        plan = self._draw_plan(rng)
        try:
            try:
                upstream_reader, upstream_writer = await asyncio.open_connection(
                    self.upstream_host, self.upstream_port
                )
            except (ConnectionError, OSError):
                self.stats.upstream_failures += 1
                await self._shutdown_writer(client_writer, hard=False)
                return
            up = asyncio.ensure_future(
                self._pump(
                    client_reader,
                    upstream_writer,
                    plan if plan.direction == "up" else _Plan(),
                )
            )
            down = asyncio.ensure_future(
                self._pump(
                    upstream_reader,
                    client_writer,
                    plan if plan.direction == "down" else _Plan(),
                )
            )
            hard = False
            try:
                done, pending = await asyncio.wait(
                    {up, down}, return_when=asyncio.FIRST_COMPLETED
                )
                for finished in done:
                    exc = finished.exception()
                    if isinstance(exc, _Abort):
                        hard = exc.hard
                for pump in pending:
                    pump.cancel()
                await asyncio.gather(up, down, return_exceptions=True)
            finally:
                await self._shutdown_writer(client_writer, hard=hard)
                await self._shutdown_writer(upstream_writer, hard=hard)
        except asyncio.CancelledError:
            await self._shutdown_writer(client_writer, hard=True)
            raise
        finally:
            self._connections.discard(task)

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        plan: _Plan,
    ) -> None:
        """Forward one direction, applying the plan's fault at its offset."""
        kind = plan.kind
        sent = 0
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                if kind is not None and sent <= plan.offset < sent + len(chunk):
                    cut = plan.offset - sent
                    if kind == "reset":
                        self.stats.resets += 1
                        raise _Abort(hard=True)
                    if kind == "truncate":
                        writer.write(chunk[:cut])
                        await writer.drain()
                        self.stats.forwarded_bytes += cut
                        self.stats.truncations += 1
                        raise _Abort(hard=False)
                    if kind == "corrupt":
                        chunk = (
                            chunk[:cut]
                            + bytes([chunk[cut] ^ 0xFF])
                            + chunk[cut + 1:]
                        )
                        self.stats.corruptions += 1
                    elif kind == "stall":
                        writer.write(chunk[:cut])
                        await writer.drain()
                        self.stats.forwarded_bytes += cut
                        self.stats.stalls += 1
                        await asyncio.sleep(self.faults.stall_s)
                        chunk = chunk[cut:]
                    elif kind == "duplicate":
                        self.stats.duplicates += 1
                        chunk = chunk + chunk
                    kind = None  # one firing per connection
                writer.write(chunk)
                await writer.drain()
                sent += len(chunk)
                self.stats.forwarded_bytes += len(chunk)
        except (ConnectionError, OSError):
            return

    async def _shutdown_writer(
        self, writer: asyncio.StreamWriter, *, hard: bool
    ) -> None:
        try:
            if hard:
                transport = writer.transport
                if transport is not None:
                    transport.abort()
                return
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
