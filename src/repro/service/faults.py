"""Fault injection: a seeded `FaultPlan` and an in-process chaos proxy.

The paper's claims are adversarial — bad placements must be short-lived,
competitiveness must survive hostile inputs — and the serving layer makes
the analogous claim operationally: the client/server pair must degrade
gracefully under network misbehaviour. This module is the instrument that
*produces* that misbehaviour, deterministically, so tests can assert exact
outcomes instead of "it usually survives".

Two pieces:

:class:`FaultPlan`
    A frozen description of *what* to inject: per-frame probabilities for
    delay, drop, reset, truncate and corrupt, plus a root seed. A plan is
    pure data; :meth:`FaultPlan.stream` derives the per-connection,
    per-direction decision stream. Streams are keyed by
    ``(seed, connection index, direction)`` through
    :func:`repro.rng.derive_seed`, so the i-th frame of a given direction
    of a given connection always meets the same fate — replaying a
    deterministic client twice yields identical fault sequences and hence
    identical retry/timeout/rejection counters.

:class:`ChaosProxy`
    An asyncio TCP proxy that sits between a client and a
    :class:`~repro.service.server.CacheServer`, forwarding whole wire
    frames — either framing, split by the same
    :class:`~repro.service.framing.FrameSplitter` the server uses — and
    applying one :class:`FaultPlan`. It never parses JSON — faults happen
    at the byte/frame layer, exactly where a real network would hurt you.

Determinism caveat: fault *decisions* are deterministic per
``(connection, direction, frame index)``. With a single sequential client
(the pipelined load generator) connection indices are deterministic too,
so end-to-end counter equality holds; with concurrent clients the
connection-accept order — and therefore which stream a client gets — is
up to the event loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
from dataclasses import dataclass, fields
from typing import Any

from repro.errors import ConfigurationError, ProtocolError
from repro.rng import derive_seed
from repro.service.framing import FrameSplitter
from repro.service.frontend import Listener
from repro.service.protocol import BINARY_HEADER_SIZE, BINARY_TAG, MAX_FRAME_BYTES, MAX_LINE_BYTES

__all__ = [
    "FAULT_ACTIONS",
    "DIRECTIONS",
    "FaultPlan",
    "FaultStream",
    "FaultStats",
    "ChaosProxy",
    "running_proxy",
]

#: Everything a stream can do to one frame, in cumulative-probability order.
FAULT_ACTIONS = ("delay", "drop", "reset", "truncate", "corrupt")

#: Traffic directions a plan may target: client-to-server, server-to-client.
DIRECTIONS = ("c2s", "s2c", "both")

#: Newline never appears inside an NDJSON frame body; corruption must
#: preserve that so a corrupted frame stays *one* frame (one response per
#: request). The binary tag byte is likewise off-limits at position 0 —
#: it would reframe the line as a binary header and desync the stream.
_NEWLINE = 0x0A

#: Socket read size of the relay pumps.
_READ_CHUNK = 1 << 16


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic description of the faults to inject.

    Rates are independent per-frame probabilities; their sum must be
    ``<= 1`` (the remainder is clean forwarding). ``delay`` pauses the
    frame (and everything queued behind it in that direction) for
    ``delay_s`` seconds; ``drop`` silently swallows the frame; ``reset``
    aborts both sides of the connection; ``truncate`` forwards a prefix of
    the frame and then aborts (a mid-frame disconnect); ``corrupt``
    rewrites random bytes in the frame body (never the trailing newline,
    so framing survives and every request still gets exactly one
    response).
    """

    seed: int = 0
    delay_rate: float = 0.0
    delay_s: float = 0.002
    drop_rate: float = 0.0
    reset_rate: float = 0.0
    truncate_rate: float = 0.0
    corrupt_rate: float = 0.0
    direction: str = "both"

    def __post_init__(self) -> None:
        for name in ("delay_rate", "drop_rate", "reset_rate", "truncate_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")
        if self.fault_rate > 1.0:
            raise ConfigurationError(
                f"fault rates must sum to <= 1, got {self.fault_rate}"
            )
        if self.delay_s < 0:
            raise ConfigurationError(f"delay_s must be non-negative, got {self.delay_s}")
        if self.direction not in DIRECTIONS:
            raise ConfigurationError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )

    @property
    def fault_rate(self) -> float:
        """Total per-frame probability of *any* fault."""
        return (
            self.delay_rate
            + self.drop_rate
            + self.reset_rate
            + self.truncate_rate
            + self.corrupt_rate
        )

    def applies_to(self, direction: str) -> bool:
        return self.direction == "both" or self.direction == direction

    def stream(self, conn_id: int, direction: str) -> "FaultStream":
        """The decision stream for one direction of one connection."""
        return FaultStream(self, conn_id, direction)


class FaultStream:
    """Deterministic per-(connection, direction) fault decisions.

    One :meth:`decide` call per frame; the i-th call always returns the
    same action for the same ``(plan.seed, conn_id, direction)``, no
    matter what the other direction or other connections are doing.
    """

    def __init__(self, plan: FaultPlan, conn_id: int, direction: str):
        if direction not in ("c2s", "s2c"):
            raise ConfigurationError(f"stream direction must be c2s or s2c, got {direction!r}")
        self.plan = plan
        self.conn_id = conn_id
        self.direction = direction
        self._rng = random.Random(derive_seed(plan.seed, "fault-stream", conn_id, direction))

    def decide(self) -> str:
        """Fate of the next frame: ``"forward"`` or one of FAULT_ACTIONS."""
        plan = self.plan
        if not plan.applies_to(self.direction):
            return "forward"
        u = self._rng.random()
        for action in FAULT_ACTIONS:
            u -= getattr(plan, f"{action}_rate")
            if u < 0:
                return action
        return "forward"

    def corrupt(self, frame: bytes, *, binary: bool = False) -> bytes:
        """Rewrite 1–4 random body bytes; the framing always survives.

        NDJSON: the trailing newline is untouched and position 0 never
        becomes the binary tag (either would reframe the stream). Binary:
        only body bytes past the 5-byte header are rewritten — the
        declared length still matches, so the peer reads one complete
        frame of garbage JSON and answers it with one error.
        """
        body = bytearray(frame)
        if binary:
            if len(body) <= BINARY_HEADER_SIZE:
                return frame
            for _ in range(self._rng.randint(1, 4)):
                pos = self._rng.randrange(BINARY_HEADER_SIZE, len(body))
                body[pos] = self._rng.randrange(256)
            return bytes(body)
        limit = len(body) - 1 if frame.endswith(b"\n") else len(body)
        if limit <= 0:
            return frame
        for _ in range(self._rng.randint(1, 4)):
            pos = self._rng.randrange(limit)
            byte = self._rng.randrange(255)
            byte = byte + 1 if byte >= _NEWLINE else byte  # skip 0x0A
            if pos == 0 and byte == BINARY_TAG:
                byte = BINARY_TAG + 1  # a leading tag byte would reframe the line
            body[pos] = byte
        return bytes(body)

    def truncate(self, frame: bytes) -> bytes:
        """A proper prefix of ``frame`` (what a mid-frame disconnect sends)."""
        if len(frame) <= 1:
            return b""
        return frame[: self._rng.randrange(1, len(frame))]


@dataclass
class FaultStats:
    """What one :class:`ChaosProxy` actually did, by category.

    ``frames`` counts cleanly forwarded frames (including delayed and
    corrupted ones — those still reach the peer); the fault counters count
    injection events. Decision counters are deterministic per plan for a
    deterministic client; ``frames`` on the server-to-client path can race
    with connection aborts and is excluded from determinism claims.
    """

    connections: int = 0
    frames: int = 0
    delays: int = 0
    drops: int = 0
    resets: int = 0
    truncations: int = 0
    corruptions: int = 0
    upstream_failures: int = 0

    @property
    def faults(self) -> int:
        return self.delays + self.drops + self.resets + self.truncations + self.corruptions

    def as_dict(self) -> dict[str, int]:
        snap = {f.name: getattr(self, f.name) for f in fields(self)}
        snap["faults"] = self.faults
        return snap

    def decision_counts(self) -> dict[str, int]:
        """Only the deterministic injection counters (for replay equality)."""
        return {
            "delays": self.delays,
            "drops": self.drops,
            "resets": self.resets,
            "truncations": self.truncations,
            "corruptions": self.corruptions,
        }


class ChaosProxy(Listener):
    """Newline-framed TCP proxy that applies one :class:`FaultPlan`.

    Accepts on ``host:port`` (``port=0`` = ephemeral; read :attr:`port`
    after :meth:`start`) and forwards each connection to
    ``upstream_host:upstream_port``. Each accepted connection gets the
    next connection index and two independent fault streams, one per
    direction. The listener lifecycle is the serving front end's
    (:class:`~repro.service.frontend.Listener`).
    """

    stream_limit = 2 * MAX_LINE_BYTES

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: FaultPlan,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__(host, port)
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan = plan
        self.stats = FaultStats()

    async def _handle_connection(
        self,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
        conn_id: int,
    ) -> None:
        self.stats.connections += 1
        upstream_writer: asyncio.StreamWriter | None = None
        try:
            try:
                upstream_reader, upstream_writer = await asyncio.open_connection(
                    self.upstream_host, self.upstream_port, limit=self.stream_limit
                )
            except OSError:
                self.stats.upstream_failures += 1
                return
            pumps = [
                asyncio.create_task(
                    self._pump(client_reader, upstream_writer, self.plan.stream(conn_id, "c2s"))
                ),
                asyncio.create_task(
                    self._pump(upstream_reader, client_writer, self.plan.stream(conn_id, "s2c"))
                ),
            ]
            try:
                done, pending = await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
                aborted = any(t.result() == "reset" for t in done if not t.cancelled())
            finally:
                for pump in pumps:
                    pump.cancel()
                await asyncio.gather(*pumps, return_exceptions=True)
            if aborted:
                for writer in (client_writer, upstream_writer):
                    with contextlib.suppress(Exception):
                        writer.transport.abort()
        except asyncio.CancelledError:
            pass  # proxy shutting down
        finally:
            for writer in (client_writer, upstream_writer):
                if writer is None:
                    continue
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()

    async def _pump(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, stream: FaultStream
    ) -> str:
        """Forward frames one way, applying the stream; returns why it ended."""
        # the relay's frame bound is looser than the endpoints' so the
        # proxy never rejects what a server would still answer
        splitter = FrameSplitter(max_frame=2 * MAX_FRAME_BYTES)
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    return "eof"
                try:
                    frames = splitter.feed(chunk)
                except ProtocolError:
                    return "error"  # unparseable stream; drop the connection
                for frame in frames:
                    action = stream.decide()
                    if action == "drop":
                        self.stats.drops += 1
                        continue
                    if action == "reset":
                        self.stats.resets += 1
                        return "reset"
                    if action == "truncate":
                        self.stats.truncations += 1
                        writer.write(stream.truncate(frame.raw))
                        with contextlib.suppress(Exception):
                            await writer.drain()
                        return "reset"  # a mid-frame disconnect follows the prefix
                    if action == "delay":
                        self.stats.delays += 1
                        await asyncio.sleep(self.plan.delay_s)
                    data = frame.raw
                    if action == "corrupt":
                        self.stats.corruptions += 1
                        data = stream.corrupt(frame.raw, binary=frame.binary)
                    writer.write(data)
                    await writer.drain()
                    self.stats.frames += 1
        except (ConnectionResetError, BrokenPipeError, OSError, ValueError):
            return "error"  # peer vanished or the relay write failed


def running_proxy(
    upstream_host: str, upstream_port: int, plan: FaultPlan, **kwargs: Any
) -> ChaosProxy:
    """``async with running_proxy(host, port, plan) as proxy:`` bracket."""
    return ChaosProxy(upstream_host, upstream_port, plan, **kwargs)
