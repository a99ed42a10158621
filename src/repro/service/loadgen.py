"""Trace-replay load generator.

Replays any :class:`~repro.traces.base.Trace`, array or
:class:`~repro.traces.streaming.TraceStream` against a running cache
server as a stream of GETs. Every connection walks one shard's chunks
with the same window generator: an array, and each strided shard of it,
is wrapped as a zero-copy :class:`~repro.traces.streaming.ArrayTraceStream`,
and a stream replays at O(chunk + window) client memory. Two modes:

- ``"pipeline"`` (default): one connection, requests pipelined in windows
  of ``concurrency`` in-flight requests. Per-connection ordering means
  the policy sees the trace in **exact trace order**, so the server's
  STATS hit rate equals the offline ``policy.run(trace)`` hit rate *bit
  for bit* — this mode is both the throughput workhorse and the
  correctness cross-check. ``connections > 1`` runs that many pipelined
  connections over strided shards of the trace (required to saturate a
  sharded store); ordering — and exact parity — then holds only per
  connection.
- ``"workers"``: ``concurrency`` independent connections, each replaying
  a strided shard (worker ``i`` gets accesses ``i, i+N, i+2N, …``),
  windowed within the shard. The interleaving at the server is whatever
  the event loop produces — this is the "live concurrent traffic" regime,
  where the aggregate hit rate is only statistically (not bitwise)
  comparable to the offline run.

Throughput knobs: ``batch`` groups every window's keys into ``MGET``
frames of up to that many keys (one frame per batch instead of one per
key — exact parity is preserved, accesses stay in order), and ``frame``
selects the wire framing (``"binary"`` negotiates the length-prefixed
codec at connect time).

Robustness knobs: ``retry`` switches shards to
:class:`~repro.service.client.ResilientClient` (bounded retries,
reconnects; a window that exhausts its attempts is *counted* as errors,
never raised — the replay always completes), ``timeout`` bounds every
network wait, and ``faults`` interposes an in-process
:class:`~repro.service.faults.ChaosProxy` between the clients and the
server, so one call exercises the whole failure surface. Under faults and
retries, replayed windows reach the policy more than once; exact offline
parity is a *clean-network* property (assert ``report.retries == 0``
before relying on it).
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, ServiceError
from repro.service.client import (
    DEFAULT_TIMEOUT,
    ClientStats,
    ResilientClient,
    RetryPolicy,
    ServiceClient,
)
from repro.service.faults import FaultPlan, running_proxy
from repro.service.protocol import FRAME_NDJSON, FRAMES, MAX_BATCH_KEYS
from repro.traces.base import Trace, as_page_array
from repro.traces.streaming import ArrayTraceStream, TraceStream

__all__ = ["LoadReport", "replay_trace", "run_replay"]

MODES = ("pipeline", "workers")

#: STATS counters diffed into :attr:`LoadReport.server_delta`.
_DELTA_KEYS = ("accesses", "hits", "misses", "gets", "puts", "dels", "errors")


class _LiveCounters:
    """Shared mutable progress counters, updated by every replay shard.

    Loop-local (single event loop), so plain ints are race-free; the
    progress reporter task reads them between awaits.
    """

    __slots__ = ("total", "ops", "hits", "errors")

    def __init__(self, total: int):
        self.total = total
        self.ops = 0
        self.hits = 0
        self.errors = 0


async def _report_progress(live: _LiveCounters, interval: float) -> None:
    start = time.perf_counter()
    while True:
        await asyncio.sleep(interval)
        elapsed = time.perf_counter() - start
        rate = live.hits / live.ops if live.ops else 0.0
        # streams of unknown length replay with total == 0: no percentage
        pct = f"{100.0 * live.ops / live.total:.1f}%" if live.total else "?"
        total = live.total if live.total else "?"
        print(
            f"  progress : {live.ops}/{total} ops ({pct}), "
            f"hit rate {rate:.4f}, {live.errors} errors, "
            f"{live.ops / max(elapsed, 1e-9):,.0f}/s",
            flush=True,
        )


def _stats_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    delta: dict[str, Any] = {
        key: after.get(key, 0) - before.get(key, 0) for key in _DELTA_KEYS
    }
    delta["hit_rate"] = delta["hits"] / delta["accesses"] if delta["accesses"] else 0.0
    return delta


@dataclass(frozen=True)
class LoadReport:
    """Client-side view of one replay, plus the server's STATS snapshot."""

    ops: int
    hits: int
    errors: int
    seconds: float
    mode: str
    concurrency: int
    server_stats: dict[str, Any] = field(default_factory=dict)
    client_stats: dict[str, int] = field(default_factory=dict)
    fault_stats: dict[str, int] = field(default_factory=dict)
    #: Server-side STATS counters diffed across the replay (after - before),
    #: so client-observed hits can be cross-checked against the server's own
    #: accounting even when the server was not freshly started.
    server_delta: dict[str, Any] = field(default_factory=dict)
    #: Wire configuration of the run (defaults match the PR-2 behaviour).
    batch: int = 1
    frame: str = FRAME_NDJSON
    connections: int = 1
    #: One entry per replay connection: ops/hits/errors/seconds and the
    #: connection's own ops-per-second, in shard order.
    per_connection: list[dict[str, Any]] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.ops if self.ops else 0.0

    @property
    def ops_per_second(self) -> float:
        return self.ops / self.seconds if self.seconds > 0 else 0.0

    @property
    def retries(self) -> int:
        return self.client_stats.get("retries", 0)

    @property
    def timeouts(self) -> int:
        return self.client_stats.get("timeouts", 0)

    def summary(self) -> str:
        lat = self.server_stats.get("latency", {})
        lines = [
            f"mode       : {self.mode} (concurrency {self.concurrency})",
            f"wire       : frame={self.frame}, batch={self.batch}, "
            f"connections={self.connections}",
            f"ops        : {self.ops}  ({self.ops_per_second:,.0f}/s over {self.seconds:.2f}s)",
            f"hits       : {self.hits}  (rate {self.hit_rate:.4f})",
            f"errors     : {self.errors}",
        ]
        if len(self.per_connection) > 1:
            for i, conn in enumerate(self.per_connection):
                lines.append(
                    f"  conn {i:<4d}: {conn['ops']} ops "
                    f"({conn['ops_per_second']:,.0f}/s over {conn['seconds']:.2f}s), "
                    f"{conn['hits']} hits, {conn['errors']} errors"
                )
        if self.client_stats:
            c = self.client_stats
            lines.append(
                f"resilience : {c.get('retries', 0)} retries, "
                f"{c.get('timeouts', 0)} timeouts, "
                f"{c.get('reconnects', 0)} reconnects, "
                f"{c.get('overloaded', 0)} overloaded, "
                f"{c.get('failures', 0)} gave up"
            )
        if self.fault_stats:
            f_ = self.fault_stats
            lines.append(
                f"faults     : {f_.get('faults', 0)} injected "
                f"({f_.get('delays', 0)} delay, {f_.get('drops', 0)} drop, "
                f"{f_.get('resets', 0)} reset, {f_.get('truncations', 0)} truncate, "
                f"{f_.get('corruptions', 0)} corrupt)"
            )
        if self.server_stats:
            lines += [
                f"server     : {self.server_stats.get('policy')} "
                f"(capacity {self.server_stats.get('capacity')}, "
                f"resident {self.server_stats.get('resident')}, "
                f"evictions {self.server_stats.get('evictions')})",
                f"server hit : {self.server_stats.get('hit_rate'):.4f}",
            ]
            if self.server_delta:
                d = self.server_delta
                lines.append(
                    f"server Δ   : {d.get('accesses', 0)} accesses this run, "
                    f"hit rate {d.get('hit_rate', 0.0):.4f} "
                    f"({d.get('hits', 0)} hits, {d.get('misses', 0)} misses)"
                )
            if "sink_occupancy" in self.server_stats:
                lines.append(f"sink occ.  : {self.server_stats['sink_occupancy']:.3f}")
            if lat:
                lines.append(
                    f"latency    : p50 {lat.get('p50_us')}µs  "
                    f"p99 {lat.get('p99_us')}µs  max {lat.get('max_us')}µs"
                )
        return "\n".join(lines)


async def replay_trace(
    trace: "Trace | np.ndarray | TraceStream",
    *,
    host: str,
    port: int,
    mode: str = "pipeline",
    concurrency: int = 32,
    batch: int = 1,
    connections: int = 1,
    frame: str = FRAME_NDJSON,
    fetch_stats: bool = True,
    timeout: float | None = DEFAULT_TIMEOUT,
    retry: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    report_interval: float | None = None,
) -> LoadReport:
    """Replay ``trace`` as GETs against ``host:port``; see module docs.

    ``report_interval`` (seconds) prints a progress line that often while
    the replay runs; ``None``/``0`` disables it.

    A :class:`~repro.traces.streaming.TraceStream` replays at O(chunk)
    memory — multi-hour traces never materialize client-side. Streamed
    replay is single-connection pipeline only (``mode="pipeline"``,
    ``connections=1``): sharding would need the whole sequence up front,
    and exact-order parity is the mode's reason to exist anyway.
    """
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    if concurrency < 1:
        raise ConfigurationError(f"concurrency must be >= 1, got {concurrency}")
    if batch < 1 or batch > MAX_BATCH_KEYS:
        raise ConfigurationError(f"batch must be in [1, {MAX_BATCH_KEYS}], got {batch}")
    if connections < 1:
        raise ConfigurationError(f"connections must be >= 1, got {connections}")
    if mode == "workers" and connections > 1:
        raise ConfigurationError(
            "connections applies to pipeline mode only; workers mode already "
            "opens one connection per worker (use concurrency)"
        )
    if frame not in FRAMES:
        raise ConfigurationError(f"unknown frame {frame!r}; expected one of {list(FRAMES)}")
    if report_interval is not None and report_interval < 0:
        raise ConfigurationError(
            f"report_interval must be non-negative, got {report_interval}"
        )
    pages: "np.ndarray | TraceStream"
    if isinstance(trace, TraceStream):
        if mode != "pipeline" or connections != 1:
            raise ConfigurationError(
                "streamed replay supports mode='pipeline' with connections=1 "
                "only (a stream has no random access to shard)"
            )
        pages = trace
    else:
        pages = as_page_array(trace)

    if faults is not None:
        async with running_proxy(host, port, faults) as proxy:
            report = await _replay(
                pages, proxy.host, proxy.port, mode=mode, concurrency=concurrency,
                batch=batch, connections=connections, frame=frame,
                fetch_stats=fetch_stats, timeout=timeout, retry=retry,
                report_interval=report_interval,
            )
        return replace(report, fault_stats=proxy.stats.as_dict())
    return await _replay(
        pages, host, port, mode=mode, concurrency=concurrency,
        batch=batch, connections=connections, frame=frame,
        fetch_stats=fetch_stats, timeout=timeout, retry=retry,
        report_interval=report_interval,
    )


def _stream_windows(stream: TraceStream, window: int):
    """Ordered key windows over a shard, O(chunk + window) memory."""
    carry: list[int] = []
    for chunk in stream.chunks():
        part = carry + chunk.tolist() if carry else chunk.tolist()
        full = len(part) - (len(part) % window)
        for lo in range(0, full, window):
            yield part[lo : lo + window]
        carry = part[full:]
    if carry:
        yield carry


async def _replay(
    pages: "np.ndarray | TraceStream",
    host: str,
    port: int,
    *,
    mode: str,
    concurrency: int,
    batch: int,
    connections: int,
    frame: str,
    fetch_stats: bool,
    timeout: float | None,
    retry: RetryPolicy | None,
    report_interval: float | None = None,
) -> LoadReport:
    # STATS is policy-neutral, so the before-snapshot does not perturb the
    # access stream it is about to measure.
    before: dict[str, Any] = {}
    if fetch_stats:
        with contextlib.suppress(ServiceError):
            before = await _fetch_stats(host, port, timeout=timeout, retry=retry)

    # `concurrency` counts in-flight *requests*; with batching each MGET
    # frame carries `batch` keys, so the key window per round trip scales
    # with both.
    # In workers mode each connection is one shard with a fixed window.
    window = concurrency * batch if mode == "pipeline" else 32 * batch
    if isinstance(pages, TraceStream):  # replay_trace pinned pipeline/1-connection
        shards = [pages]
    else:
        ways = connections if mode == "pipeline" else concurrency
        shards = [ArrayTraceStream(pages[i::ways]) for i in range(min(ways, pages.size))]
    live = _LiveCounters(total=sum(shard.length or 0 for shard in shards))
    reporter: asyncio.Task | None = None
    if report_interval:
        reporter = asyncio.create_task(_report_progress(live, report_interval))
    start = time.perf_counter()
    try:
        counts = await asyncio.gather(
            *(
                _replay_shard(_stream_windows(shard, window), host, port, batch=batch,
                              frame=frame, timeout=timeout, retry=retry, live=live)
                for shard in shards
            )
        )
    finally:
        if reporter is not None:
            reporter.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await reporter
    seconds = time.perf_counter() - start

    client_stats: dict[str, int] = {}
    if retry is not None:
        totals = ClientStats()
        for _, _, _, stats, _ in counts:
            if stats is None:
                continue
            for name in ("attempts", "retries", "timeouts", "overloaded", "connects", "failures"):
                setattr(totals, name, getattr(totals, name) + getattr(stats, name))
        client_stats = totals.as_dict()

    stats_snapshot: dict[str, Any] = {}
    if fetch_stats:
        with contextlib.suppress(ServiceError):
            stats_snapshot = await _fetch_stats(host, port, timeout=timeout, retry=retry)
    return LoadReport(
        ops=sum(c[0] for c in counts),
        hits=sum(c[1] for c in counts),
        errors=sum(c[2] for c in counts),
        seconds=seconds,
        mode=mode,
        concurrency=concurrency,
        server_stats=stats_snapshot,
        client_stats=client_stats,
        server_delta=_stats_delta(before, stats_snapshot)
        if before and stats_snapshot
        else {},
        batch=batch,
        frame=frame,
        connections=connections if mode == "pipeline" else concurrency,
        per_connection=[
            {
                "ops": c[0],
                "hits": c[1],
                "errors": c[2],
                "seconds": round(c[4], 6),
                "ops_per_second": c[0] / c[4] if c[4] > 0 else 0.0,
            }
            for c in counts
        ],
    )


async def _replay_shard(
    windows,
    host: str,
    port: int,
    *,
    batch: int = 1,
    frame: str = FRAME_NDJSON,
    timeout: float | None,
    retry: RetryPolicy | None,
    live: _LiveCounters | None = None,
) -> tuple[int, int, int, ClientStats | None, float]:
    """Replay an iterable of ordered key windows over one (logical)
    connection.

    Consuming windows (not a materialized list) is what lets streamed
    replay run at O(window) client memory, for array shards and streams
    alike (:func:`_stream_windows`). Returns ``(ops, hits, errors,
    client_stats, seconds)``. With a retry policy, a window whose
    attempts are exhausted is charged to ``errors`` and the replay
    presses on — graceful degradation is the point, a chaos run must
    never crash the generator. ``live`` (shared across shards) feeds the
    progress reporter.
    """
    ops = hits = errors = 0
    start = time.perf_counter()

    def _count(response: dict[str, Any]) -> None:
        nonlocal ops, hits, errors
        ops += 1
        if not response.get("ok"):
            errors += 1
        elif response.get("hit"):
            hits += 1

    def _sync_live(d_ops: int, d_hits: int, d_errors: int) -> None:
        if live is not None:
            live.ops += d_ops
            live.hits += d_hits
            live.errors += d_errors

    if retry is None:
        async with await ServiceClient.connect(
            host, port, timeout=timeout, frame=frame
        ) as client:
            for keys in windows:
                o0, h0, e0 = ops, hits, errors
                for response in await client.get_window(keys, batch=batch):
                    _count(response)
                _sync_live(ops - o0, hits - h0, errors - e0)
        return ops, hits, errors, None, time.perf_counter() - start

    async with ResilientClient(
        host, port, retry=retry, timeout=timeout, frame=frame
    ) as client:
        for keys in windows:
            o0, h0, e0 = ops, hits, errors
            try:
                responses = await client.get_window(keys, batch=batch)
            except ServiceError:
                ops += len(keys)
                errors += len(keys)
            else:
                for response in responses:
                    _count(response)
            _sync_live(ops - o0, hits - h0, errors - e0)
        return ops, hits, errors, client.counters, time.perf_counter() - start


async def _fetch_stats(
    host: str, port: int, *, timeout: float | None, retry: RetryPolicy | None
) -> dict[str, Any]:
    if retry is None:
        async with await ServiceClient.connect(host, port, timeout=timeout) as client:
            return await client.stats()
    async with ResilientClient(host, port, retry=retry, timeout=timeout) as client:
        return await client.stats()


def run_replay(trace: "Trace | np.ndarray | TraceStream", **kwargs: Any) -> LoadReport:
    """Synchronous wrapper: ``asyncio.run`` the replay (CLI entry point)."""
    return asyncio.run(replay_trace(trace, **kwargs))
