"""Open-loop SLO load generation: fixed arrival rate, honest tails.

The replay generator (:mod:`repro.service.loadgen`) is *closed-loop*:
each window of requests waits for the previous window's responses, so
when the server slows down the generator slows down with it — the
classic *coordinated omission* failure mode, where the measured p99
politely excludes exactly the moments the server was drowning.

This module measures the question an SLO actually asks: **at a fixed
offered rate, what latency do clients see?** Requests are released on a
seeded arrival schedule regardless of completions (Poisson arrivals at
``rate``/s, or bursty clumps with ``burst`` mean size at the same
long-run rate), and every request's latency is measured from its
*scheduled* arrival time — a request that queued behind a stall is
charged the stall, exactly as a real client would experience it.

One code path serves arrays and streams. The schedule is generated as
requests are sent, not precomputed: one sender walks the input's chunks
(an array is one chunk, a :class:`~repro.traces.streaming.TraceStream`
yields its ``chunks()``), sleeps until each arrival drawn from
:func:`_arrival_offsets`, and sends key *i* on connection
``i % connections``. One reader per connection pairs each response, FIFO,
with its scheduled arrival and counts hits, errors and SLO violations
exactly. Only the latency store differs: exact values for an array, a
bounded log₂ :class:`~repro.obs.metrics.Histogram` for a stream (the
report sets ``approx_percentiles``), so a stream runs in O(chunk) memory.

Honesty requires one more check: if the *generator* cannot keep up (the
event loop scheduled a send late), the run is measuring the load
generator and not the server. Each send records its scheduler lag, and
the report carries the p99 lag plus a ``lag_ok`` verdict against
:data:`MAX_LAG_FRACTION` of the SLO (absolute floor
:data:`MAX_LAG_SECONDS`); a report with ``lag_ok == False`` should be
discarded, not celebrated.

Determinism: the schedule is drawn from a seeded generator
(``derive_seed(seed, "open-loop")``), so two runs at the same rate
offer byte-identical arrival processes, and :func:`arrival_schedule`
returns exactly the offsets a run would send.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import Histogram
from repro.rng import derive_seed
from repro.service.client import DEFAULT_TIMEOUT, ServiceClient
from repro.service.protocol import FRAME_NDJSON, FRAMES, Request, encode_request
from repro.traces.base import Trace, as_page_array
from repro.traces.streaming import TraceStream

__all__ = ["SLOReport", "arrival_schedule", "open_loop_replay", "run_open_loop"]

#: Scheduler lag p99 must stay under this fraction of the SLO bound...
MAX_LAG_FRACTION = 0.25
#: ...and under this absolute floor when no SLO bound was given (seconds).
MAX_LAG_SECONDS = 0.005


def _arrival_offsets(rate: float, burst: float, seed: int) -> Iterator[float]:
    """Unbounded arrival offsets (seconds from start) at ``rate`` requests/s.

    ``burst == 1`` gives a Poisson process (i.i.d. exponential gaps).
    ``burst > 1`` clumps arrivals: burst sizes are geometric with mean
    ``burst``, burst gaps exponential with mean ``burst / rate``, so the
    long-run rate is still ``rate`` but arrivals land in simultaneous
    spikes — the adversarial shape for queue-depth tails.

    ``rate`` and ``burst`` are checked when this is called, not at the
    first draw, so a bad value fails before any connection opens.
    """
    if rate <= 0:
        raise ConfigurationError(f"rate must be > 0, got {rate}")
    if burst < 1.0:
        raise ConfigurationError(f"burst must be >= 1, got {burst}")
    rng = np.random.default_rng(derive_seed(seed, "open-loop"))

    def poisson() -> Iterator[float]:
        t = 0.0
        while True:
            offsets = t + np.cumsum(rng.exponential(1.0 / rate, size=4096))
            t = float(offsets[-1])
            yield from offsets.tolist()

    def bursty() -> Iterator[float]:
        t = 0.0
        while True:
            t += float(rng.exponential(burst / rate))
            yield from itertools.repeat(t, int(rng.geometric(1.0 / burst)))

    return poisson() if burst == 1.0 else bursty()


def arrival_schedule(
    n: int, rate: float, *, burst: float = 1.0, seed: int = 0
) -> np.ndarray:
    """The first ``n`` arrival offsets of a run: see :func:`_arrival_offsets`.

    The same generator drives :func:`open_loop_replay`, so this is
    exactly the schedule a run with the same ``rate``, ``burst`` and
    ``seed`` sends, whatever its input kind.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return np.fromiter(_arrival_offsets(rate, burst, seed), dtype=np.float64, count=n)


class _ExactLatencies(list):
    """Every observed value, behind the read interface of
    :class:`~repro.obs.metrics.Histogram` (exact nearest-rank percentiles)."""

    observe = list.append
    count = property(len)

    @property
    def max(self) -> float:
        return max(self, default=0.0)

    @property
    def mean(self) -> float:
        return sum(self) / len(self) if self else 0.0

    def percentile(self, q: float) -> float:
        if not self:
            return 0.0
        self.sort()  # in place: a sorted list re-sorts in O(n)
        return self[max(1, min(len(self), int(q * len(self) + 0.5))) - 1]


@dataclass(frozen=True)
class SLOReport:
    """One open-loop run: offered rate, observed tails, SLO verdict."""

    ops: int
    hits: int
    errors: int
    seconds: float
    rate: float  # offered (requested) arrival rate, req/s
    burst: float
    connections: int
    frame: str
    #: Client-observed latencies (scheduled arrival → response), ms.
    p50_ms: float
    p90_ms: float
    p99_ms: float
    p999_ms: float
    max_ms: float
    mean_ms: float
    #: SLO accounting (zero / 0.0 when no bound was given).
    slo_ms: float | None = None
    violations: int = 0
    violation_fraction: float = 0.0
    #: Generator self-check: p99 lag between scheduled and actual send.
    lag_p99_ms: float = 0.0
    lag_max_ms: float = 0.0
    lag_ok: bool = True
    server_stats: dict[str, Any] = field(default_factory=dict)
    #: True for streamed runs: percentiles come from a log₂-bucketed
    #: histogram (≤ 2× overestimates) instead of exact sorted latencies.
    approx_percentiles: bool = False

    @property
    def achieved_rate(self) -> float:
        return self.ops / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-able form (``--slo-json`` / ``BENCH_slo.json``)."""
        return {
            "ops": self.ops,
            "hits": self.hits,
            "errors": self.errors,
            "seconds": round(self.seconds, 6),
            "rate": self.rate,
            "achieved_rate": round(self.achieved_rate, 3),
            "burst": self.burst,
            "connections": self.connections,
            "frame": self.frame,
            "p50_ms": round(self.p50_ms, 4),
            "p90_ms": round(self.p90_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "p999_ms": round(self.p999_ms, 4),
            "max_ms": round(self.max_ms, 4),
            "mean_ms": round(self.mean_ms, 4),
            "slo_ms": self.slo_ms,
            "violations": self.violations,
            "violation_fraction": round(self.violation_fraction, 6),
            "lag_p99_ms": round(self.lag_p99_ms, 4),
            "lag_max_ms": round(self.lag_max_ms, 4),
            "lag_ok": self.lag_ok,
            "approx_percentiles": self.approx_percentiles,
        }

    def summary(self) -> str:
        lines = [
            f"open-loop  : {self.rate:,.0f} req/s offered "
            f"(achieved {self.achieved_rate:,.0f}/s, burst {self.burst:g}, "
            f"{self.connections} connections, frame={self.frame})",
            f"ops        : {self.ops}  ({self.hits} hits, {self.errors} errors, "
            f"{self.seconds:.2f}s)",
            f"latency    : p50 {self.p50_ms:.3f}ms  p90 {self.p90_ms:.3f}ms  "
            f"p99 {self.p99_ms:.3f}ms  p99.9 {self.p999_ms:.3f}ms  "
            f"max {self.max_ms:.3f}ms",
        ]
        if self.slo_ms is not None:
            lines.append(
                f"SLO {self.slo_ms:g}ms : {self.violations} violations "
                f"({100.0 * self.violation_fraction:.3f}% of requests)"
            )
        lag = (
            f"lag        : p99 {self.lag_p99_ms:.3f}ms  max {self.lag_max_ms:.3f}ms"
        )
        lines.append(lag + ("" if self.lag_ok else "  ** GENERATOR LAGGED — discard **"))
        return "\n".join(lines)


async def open_loop_replay(
    trace: "Trace | np.ndarray | TraceStream",
    *,
    host: str,
    port: int,
    rate: float,
    burst: float = 1.0,
    connections: int = 4,
    frame: str = FRAME_NDJSON,
    slo_ms: float | None = None,
    timeout: float | None = DEFAULT_TIMEOUT,
    seed: int = 0,
    fetch_stats: bool = True,
) -> SLOReport:
    """Offer ``trace`` as GETs at a fixed arrival rate; see module docs.

    Arrivals round-robin across ``connections`` pipelined connections
    (each connection is FIFO, so per-connection response matching is
    positional); sends never wait for completions, so queueing delay
    under overload lands in the measured latency instead of silently
    throttling the offered load. A
    :class:`~repro.traces.streaming.TraceStream` runs in O(chunk) memory.
    """
    if connections < 1:
        raise ConfigurationError(f"connections must be >= 1, got {connections}")
    if frame not in FRAMES:
        raise ConfigurationError(f"unknown frame {frame!r}; expected one of {list(FRAMES)}")
    if slo_ms is not None and slo_ms <= 0:
        raise ConfigurationError(f"slo_ms must be > 0, got {slo_ms}")
    offsets = _arrival_offsets(rate, burst, seed)
    streamed = isinstance(trace, TraceStream)
    chunks: Iterable[np.ndarray]
    if streamed:
        chunks = trace.chunks()
        # 30 buckets from 1 µs: overflow starts around 9 minutes of latency
        latencies: Any = Histogram(base=1e-6, num_buckets=30)
        lags: Any = Histogram(base=1e-6, num_buckets=30)
    else:
        chunks = (as_page_array(trace),)
        latencies, lags = _ExactLatencies(), _ExactLatencies()
    slo_bound = slo_ms / 1e3 if slo_ms is not None else math.inf
    counts = {"hits": 0, "errors": 0, "violations": 0}

    clients: list[ServiceClient] = []
    try:
        for _ in range(connections):
            clients.append(await ServiceClient.connect(host, port, timeout=timeout, frame=frame))
        pending: list[asyncio.Queue] = [asyncio.Queue() for _ in clients]
        start = time.perf_counter() + 0.01  # small lead so arrival 0 is not late
        tasks = [asyncio.create_task(_send(clients, pending, chunks, offsets, start, lags))]
        tasks += [
            asyncio.create_task(_read(client, queue, latencies, slo_bound, counts))
            for client, queue in zip(clients, pending)
        ]
        try:
            await asyncio.gather(*tasks)
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        seconds = time.perf_counter() - start
        server_stats: dict[str, Any] = {}
        if fetch_stats:
            server_stats = await clients[0].stats()
    finally:
        await asyncio.gather(*(c.close() for c in clients), return_exceptions=True)

    lag_p99 = lags.percentile(0.99)
    lag_bound = (
        MAX_LAG_FRACTION * slo_ms / 1e3 if slo_ms is not None else MAX_LAG_SECONDS
    )
    ops = latencies.count
    return SLOReport(
        ops=ops,
        hits=counts["hits"],
        errors=counts["errors"],
        seconds=seconds,
        rate=rate,
        burst=burst,
        connections=connections,
        frame=frame,
        p50_ms=latencies.percentile(0.50) * 1e3,
        p90_ms=latencies.percentile(0.90) * 1e3,
        p99_ms=latencies.percentile(0.99) * 1e3,
        p999_ms=latencies.percentile(0.999) * 1e3,
        max_ms=latencies.max * 1e3,
        mean_ms=latencies.mean * 1e3,
        slo_ms=slo_ms,
        violations=counts["violations"],
        violation_fraction=counts["violations"] / ops if ops else 0.0,
        lag_p99_ms=lag_p99 * 1e3,
        lag_max_ms=lags.max * 1e3,
        lag_ok=lag_p99 <= lag_bound,
        server_stats=server_stats,
        approx_percentiles=streamed,
    )


async def _send(
    clients: list[ServiceClient],
    pending: list[asyncio.Queue],
    chunks: Iterable[np.ndarray],
    offsets: Iterator[float],
    start: float,
    lags: Any,
) -> None:
    """Release key *i* at its scheduled arrival on ``clients[i % n]``.

    Never waits for a response — the readers run as their own tasks, and
    that decoupling *is* the open loop. Each connection's reader gets the
    scheduled time before the send and a ``None`` after the last one.
    """
    keys = itertools.chain.from_iterable(chunk.tolist() for chunk in chunks)
    lanes = itertools.cycle(zip(clients, pending))
    for key, offset, (client, queue) in zip(keys, offsets, lanes):
        scheduled = start + offset
        delay = scheduled - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.observe(max(0.0, time.perf_counter() - scheduled))
        queue.put_nowait(scheduled)
        await client._send(encode_request(Request("GET", key=key), frame=client.frame))
    for queue in pending:
        queue.put_nowait(None)


async def _read(
    client: ServiceClient,
    pending: asyncio.Queue,
    latencies: Any,
    slo_bound: float,
    counts: dict[str, int],
) -> None:
    """Pair one connection's responses, FIFO, with their scheduled arrivals.

    Latency runs from the scheduled arrival, so send-queue time counts too.
    """
    while (scheduled := await pending.get()) is not None:
        response = await client._read_response()
        latency = time.perf_counter() - scheduled
        latencies.observe(latency)
        if latency > slo_bound:
            counts["violations"] += 1
        if not response.get("ok"):
            counts["errors"] += 1
        elif response.get("hit"):
            counts["hits"] += 1


def run_open_loop(trace: "Trace | np.ndarray | TraceStream", **kwargs: Any) -> SLOReport:
    """Synchronous wrapper: ``asyncio.run`` the open-loop run (CLI entry)."""
    return asyncio.run(open_loop_replay(trace, **kwargs))
