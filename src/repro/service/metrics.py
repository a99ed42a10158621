"""Service-side observability: counters, latency histograms, gauges.

Everything here is loop-local (mutated only from the server's event loop)
so plain ints suffice — no atomics, no locks. The snapshot the ``STATS``
op returns is a plain JSON-able dict; field meanings are documented in
``docs/service.md``.

The latency histograms are :class:`repro.obs.metrics.Histogram` —
fixed log-spaced buckets (powers of two above one microsecond) like the
HDR-histogram family of tools: O(1) record, bounded memory, and
percentile estimates whose relative error is bounded by the bucket
ratio. Request service time is recorded twice: once into the combined
histogram (kept for ``STATS`` backward compatibility) and once into the
per-op histogram of GET/PUT/DEL, so slow PUTs can no longer hide inside
a GET-dominated aggregate.

For Prometheus scrapes (the ``METRICS`` op and the ``--metrics-port``
HTTP endpoint), :func:`build_registry` assembles a
:class:`~repro.obs.metrics.MetricsRegistry` per scrape: counters are
copied (they are plain ints), histograms are *registered live* so bucket
data is never duplicated. Metric names are documented in
``docs/observability.md``.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "ConnectionMetrics",
    "LatencyHistogram",
    "RecentWindow",
    "ServiceMetrics",
    "build_registry",
]

#: Ops that get a dedicated latency histogram (HELLO/METRICS/STATS/PING
#: share only the combined one — they never touch the policy).
PER_OP_LATENCY = ("GET", "PUT", "DEL", "MGET", "MPUT")


class LatencyHistogram(Histogram):
    """Log₂-bucketed histogram of durations in seconds.

    A unit-presenting subclass of :class:`repro.obs.metrics.Histogram`
    (which inherited this class's original implementation): buckets span
    ``base * 2**i`` for ``i = 0 .. num_buckets-1`` (default 1 µs … ~8.6 s),
    durations beyond the last boundary land in a final overflow bucket,
    and percentiles report the upper boundary of the rank's bucket — a
    ≤ 2× overestimate by construction, the right bias for alerting. Ranks
    landing in the overflow bucket report the observed :attr:`max`.

    :meth:`snapshot` presents microseconds, as served by ``STATS``.
    """

    def snapshot(self) -> dict[str, Any]:
        """JSON-able summary (microsecond units, as served by ``STATS``).

        Besides the headline percentiles this carries ``sum_us`` and the
        cumulative ``buckets`` dump (``[upper_bound_us, count_le]`` pairs,
        overflow folded into a final ``null``-bound entry), which is what
        lets exposition emit exact Prometheus histogram buckets from a
        snapshot alone.
        """
        return {
            "count": self.count,
            "mean_us": round(self.mean * 1e6, 3),
            "p50_us": round(self.percentile(0.50) * 1e6, 3),
            "p90_us": round(self.percentile(0.90) * 1e6, 3),
            "p99_us": round(self.percentile(0.99) * 1e6, 3),
            "max_us": round(self.max * 1e6, 3),
            "sum_us": round(self.total * 1e6, 3),
            "buckets": [
                [None if bound == float("inf") else round(bound * 1e6, 6), count]
                for bound, count in self.buckets()
            ],
        }


class RecentWindow:
    """Sliding-window request rate + latency percentiles (last ~30 s).

    Lifetime histograms answer "how has this server behaved since boot";
    a watcher staring at ``stats --watch`` wants "how is it behaving *now*".
    This keeps ``slices`` rotating sub-histograms of ``window_s / slices``
    seconds each: a record lands in the slice owning its timestamp
    (stale slices are reset lazily, O(1) per record, no timer task), and
    a snapshot merges the slices still inside the window — so tails decay
    within ``window_s`` instead of being pinned forever by one bad spike.
    """

    def __init__(self, *, window_s: float = 30.0, slices: int = 6):
        if window_s <= 0 or slices < 2:
            raise ValueError(f"bad window shape: window_s={window_s}, slices={slices}")
        self.window_s = window_s
        self.slice_s = window_s / slices
        self._epochs = [-1] * slices
        self._hists = [LatencyHistogram() for _ in range(slices)]
        self._born = time.monotonic()

    def record(self, seconds: float, *, now: float | None = None) -> None:
        if now is None:
            now = time.monotonic()
        epoch = int(now / self.slice_s)
        idx = epoch % len(self._hists)
        if self._epochs[idx] != epoch:
            self._epochs[idx] = epoch
            self._hists[idx] = LatencyHistogram()
        self._hists[idx].record(seconds)

    def snapshot(self, *, now: float | None = None) -> dict[str, Any]:
        """Merged view of the live slices (microseconds, like ``STATS``)."""
        if now is None:
            now = time.monotonic()
        epoch = int(now / self.slice_s)
        slices = len(self._hists)
        merged = LatencyHistogram()
        for idx, hist_epoch in enumerate(self._epochs):
            if epoch - slices < hist_epoch <= epoch:
                hist = self._hists[idx]
                for i, c in enumerate(hist._counts):
                    merged._counts[i] += c
                merged.count += hist.count
                merged.total += hist.total
                merged.max = max(merged.max, hist.max)
        # the live slices start at (epoch - slices + 1) * slice_s; a young
        # window is clamped to its own age so early rates are not diluted
        covered = min(now - (epoch - slices + 1) * self.slice_s, now - self._born)
        covered = max(covered, self.slice_s * 1e-3)
        return {
            "window_s": round(min(covered, self.window_s), 3),
            "count": merged.count,
            "rate": round(merged.count / covered, 3),
            "mean_us": round(merged.mean * 1e6, 3),
            "p50_us": round(merged.percentile(0.50) * 1e6, 3),
            "p99_us": round(merged.percentile(0.99) * 1e6, 3),
            "max_us": round(merged.max * 1e6, 3),
        }


class ConnectionMetrics:
    """What the connection front end counts, for the server and the router.

    :class:`~repro.service.frontend.FrontEnd` writes every field here:
    error answers, shed connections, write-timeout drops, connection
    counts, and each request's latency (defined in
    :mod:`repro.service.frontend` and ``docs/service.md``).
    """

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.errors = 0
        self.rejected = 0  # connections shed by the max_connections cap
        self.write_timeouts = 0  # connections dropped for not reading responses
        self.connections_opened = 0
        self.connections_closed = 0
        self.latency = LatencyHistogram()
        self.latency_by_op = {op: LatencyHistogram() for op in PER_OP_LATENCY}
        self.recent = RecentWindow()

    def record_op(self, op: str | None, seconds: float) -> None:
        """Record one request's latency (combined + per-op + recent)."""
        self.latency.record(seconds)
        self.recent.record(seconds)
        per_op = self.latency_by_op.get(op) if op is not None else None
        if per_op is not None:
            per_op.record(seconds)

    def register(self, reg: MetricsRegistry) -> None:
        """Add the front end's instruments to a scrape (histograms live)."""
        reg.counter("repro_rejected_total", "connections shed by the connection cap").inc(
            self.rejected
        )
        reg.counter("repro_write_timeouts_total", "connections dropped for not reading").inc(
            self.write_timeouts
        )
        reg.counter("repro_connections_total", "connections accepted").inc(
            self.connections_opened
        )
        reg.gauge("repro_connections_open", "currently open connections").set(
            self.connections_opened - self.connections_closed
        )
        reg.register("repro_request_latency_seconds", self.latency, "request latency, all ops")
        for op, hist in self.latency_by_op.items():
            reg.register(
                "repro_op_latency_seconds",
                hist,
                "request latency, by op",
                labels={"op": op.lower()},
            )


class ServiceMetrics(ConnectionMetrics):
    """Counters and gauges for one :class:`~repro.service.store.PolicyStore`.

    ``hits``/``misses`` count *policy accesses* (GET and PUT both access),
    so ``hits / (hits + misses)`` is directly comparable to an offline
    :class:`~repro.core.base.SimResult` hit rate over the same key
    sequence — the parity the test suite asserts.
    """

    def __init__(self) -> None:
        super().__init__()
        self.gets = 0
        self.puts = 0
        self.dels = 0
        self.hits = 0
        self.misses = 0
        self.kernel_batches = 0  # MGET/MPUT groups served by one kernel call

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "gets": self.gets,
            "puts": self.puts,
            "dels": self.dels,
            "hits": self.hits,
            "misses": self.misses,
            "accesses": self.accesses,
            "hit_rate": self.hit_rate,
            "kernel_batches": self.kernel_batches,
            "errors": self.errors,
            "rejected": self.rejected,
            "write_timeouts": self.write_timeouts,
            "connections_open": self.connections_opened - self.connections_closed,
            "connections_total": self.connections_opened,
            "latency": self.latency.snapshot(),
            "latency_by_op": {
                op.lower(): hist.snapshot() for op, hist in self.latency_by_op.items()
            },
            "recent": self.recent.snapshot(),
        }


def build_registry(
    metrics: ServiceMetrics,
    *,
    gauges: Mapping[str, float] | None = None,
    counters: Mapping[str, float] | None = None,
) -> MetricsRegistry:
    """Assemble the exposition registry for one scrape.

    ``gauges``/``counters`` carry the store-level values only the caller
    can see (resident pages, capacity, evictions, sink occupancy);
    plain-int counters are copied into fresh instruments, live histograms
    are registered by reference.
    """
    reg = MetricsRegistry()
    reg.gauge("repro_uptime_seconds", "seconds since the store was created").set(
        time.monotonic() - metrics.started
    )
    for op, value in (("get", metrics.gets), ("put", metrics.puts), ("del", metrics.dels)):
        reg.counter(
            "repro_ops_total", "operations served, by op", labels={"op": op}
        ).inc(value)
    reg.counter("repro_hits_total", "policy-access hits").inc(metrics.hits)
    reg.counter("repro_misses_total", "policy-access misses").inc(metrics.misses)
    reg.counter(
        "repro_kernel_batches_total", "batched ops served by one kernel call"
    ).inc(metrics.kernel_batches)
    reg.counter("repro_errors_total", "protocol/internal errors answered").inc(
        metrics.errors
    )
    reg.gauge("repro_hit_ratio", "hits / accesses since start").set(metrics.hit_rate)
    for name, value in (gauges or {}).items():
        reg.gauge(name).set(value)
    for name, value in (counters or {}).items():
        reg.counter(name).inc(value)
    metrics.register(reg)
    return reg
