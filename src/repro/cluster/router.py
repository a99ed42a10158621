"""The cluster's front door: an asyncio router over worker processes.

One :class:`RouterServer` listens where a plain
:class:`~repro.service.server.CacheServer` would, speaks the same two
wire framings (clients cannot tell them apart short of ``STATS``), and
owns no policy at all — every data operation is forwarded to the worker
that owns the key on the consistent-hash ring
(:class:`~repro.cluster.ring.HashRing`), over persistent pipelined
binary links (:class:`~repro.cluster.link.WorkerChannel`).

The listener, connection admission, the frame pump, ordered response
flushing and the framing/``HELLO`` rules are the connection front end
shared with the single-process server
(:class:`~repro.service.frontend.FrontEnd`); this class supplies the
per-request dispatch. Design points:

- **Per-connection order is preserved end to end.** The front end's
  dispatch loop calls :meth:`RouterServer._dispatch` in frame order, which
  *sends upstream at once* and returns a coroutine; the front end's
  flusher awaits those coroutines and writes the responses back in the
  same order. Forwarded requests pipeline: the dispatch loop does not wait
  for worker responses, the flusher does. Because a client connection is
  pinned to one link per worker, each worker sees that connection's ops
  in order — which is what keeps a one-connection replay through the
  router bit-identical to the ring-partitioned offline reference.
- **Cheap re-framing, no re-serialization.** Both framings carry the
  same JSON body, so NDJSON→binary is "strip the newline, prepend the
  5-byte header" and back — a forwarded GET's body bytes are the exact
  bytes the client sent.
- **MGET/MPUT fan out per owner** and reassemble in key order; a batch
  whose keys all land on one worker is forwarded as-is.
- **Backpressure propagates.** Bounded frame and response queues per
  client connection, a bounded in-flight window per worker link: a slow
  worker stalls the flusher, the queues fill, the reader stops reading,
  TCP pushes back on the client.
- **Failure isolation + retry accounting.** A worker timeout or link
  failure fails only the requests riding that link; idempotent ops
  (GET/MGET/PEEK and the admin reads) are retried on a fresh connection,
  everything else surfaces as an ``upstream-error`` response. All of it
  is counted (``router`` section of STATS).

Live resharding (the ``RESHARD`` op) — see ``docs/service.md``:

1. the ring is updated and the previous ring is frozen as ``old_ring``;
2. during the **migration window** every single-key op consults both
   owners: GET reads the new owner first and falls back to a
   non-mutating ``PEEK`` on the old owner (migrating the key on the
   spot), PUT writes the new owner and invalidates the old, DEL hits
   both — so acknowledged writes are never lost and reads never miss a
   value that exists anywhere;
3. a background sweep walks the old owners' resident keys (``KEYS``) and
   moves every key whose owner changed (PEEK old → PUT new → DEL old),
   each key under a lock shared with the client path;
4. the window closes, routing goes back to single-owner lookups.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Any, Awaitable, Coroutine, Sequence

from repro.errors import ConfigurationError, ProtocolError, ServiceError, ServiceTimeout
from repro.cluster.link import (
    DEFAULT_MAX_PENDING,
    DEFAULT_UPSTREAM_TIMEOUT,
    WorkerChannel,
    WorkerLink,
)
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.hashing import splitmix64
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.service.framing import Frame
from repro.service.frontend import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_WRITE_TIMEOUT,
    FrontEnd,
    Slot,
    encode_payload,
)
from repro.service.metrics import ConnectionMetrics
from repro.service.protocol import (
    BINARY_TAG,
    CODE_REJECTED,
    CODE_UPSTREAM,
    FRAMES,
    IDEMPOTENT_OPS,
    Request,
    decode_response,
    encode_frame,
    encode_response,
    encode_traced_frame,
    wrap_traced_body,
    error_payload,
)

__all__ = ["RouterMetrics", "RouterServer", "running_router"]

#: Single-key data ops the router forwards to exactly one worker.
_SINGLE_KEY_OPS = frozenset({"GET", "PUT", "DEL", "PEEK"})

#: Route-cache entries kept before the cache is cleared.
_ROUTE_CACHE_MAX = 1 << 16


def _json_body(payload: dict[str, Any]) -> bytes:
    """A response's bare JSON body (no framing)."""
    return encode_response(payload)[:-1]  # NDJSON encoding minus the newline


def _frame_body(body: bytes, binary: bool) -> bytes:
    """Wrap a JSON body in the client's framing."""
    if binary:
        return BINARY_TAG.to_bytes(1, "big") + len(body).to_bytes(4, "big") + body
    return body + b"\n"


def _upstream_frame(frame: Frame, ctx: str | None) -> bytes:
    """The upstream bytes for a forwarded frame, splicing ``ctx`` if tracing.

    Links speak binary framing only. The body bytes are always forwarded
    verbatim; with a context only the traced-frame header around them
    changes, so the worker's spans parent to the router's link span
    instead of the client's root.
    """
    if frame.binary and ctx is None:
        return frame.raw
    body = frame.payload if frame.binary else frame.payload.rstrip(b"\r\n")
    return _frame_body(body, True) if ctx is None else wrap_traced_body(body, ctx)


class RouterMetrics(ConnectionMetrics):
    """Router-side counters; worker counters live in the workers."""

    def __init__(self) -> None:
        super().__init__()
        self.requests = 0  # requests handed to the router's dispatch
        self.forwarded = 0  # single-worker forwards (single-key + whole batches)
        self.fanouts = 0  # multi-worker batch/admin fan-outs
        self.local = 0  # answered without touching a worker
        self.migration_ops = 0  # data ops served through the double-read path
        self.upstream_retries = 0
        self.upstream_timeouts = 0
        self.upstream_errors = 0
        self.migrated_keys = 0
        self.reshards = 0


class _Migration:
    """State of one live reshard (exists only while the window is open)."""

    def __init__(self, old_ring: HashRing, node: str, removing: bool):
        self.old_ring = old_ring
        self.node = node
        self.removing = removing
        self.moved_keys: list[int] = []
        self.error: str | None = None
        self.task: asyncio.Task | None = None
        self.done = asyncio.Event()


class RouterServer(FrontEnd):
    """Route cache traffic across worker processes; see module docs.

    Parameters
    ----------
    workers:
        ``(node, host, port)`` triples of the initial worker tier. Node
        names are the ring identities — the offline reference partition
        must use the same names (the supervisor uses ``w0..wN-1``).
    ring:
        Pre-built :class:`HashRing` (defaults to one over ``workers``'
        node names with ``vnodes`` virtual nodes each).
    pool:
        Persistent connections per worker.
    upstream_timeout / upstream_retries:
        Per-response worker deadline, and how many times an idempotent
        request is replayed after a link failure before answering
        ``upstream-error``.
    max_connections / max_inflight / write_timeout / frames:
        Client-side knobs with :class:`~repro.service.server.CacheServer`
        semantics.
    """

    span_name = "router"

    def __init__(
        self,
        workers: Sequence[tuple[str, str, int]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ring: HashRing | None = None,
        vnodes: int = DEFAULT_VNODES,
        pool: int = 2,
        upstream_timeout: float | None = DEFAULT_UPSTREAM_TIMEOUT,
        upstream_retries: int = 1,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_connections: int | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        write_timeout: float | None = DEFAULT_WRITE_TIMEOUT,
        frames: tuple[str, ...] = FRAMES,
    ):
        if not workers:
            raise ConfigurationError("RouterServer needs at least one worker")
        if upstream_retries < 0:
            raise ConfigurationError(f"upstream_retries must be >= 0, got {upstream_retries}")
        super().__init__(
            host=host,
            port=port,
            max_connections=max_connections,
            max_inflight=max_inflight,
            write_timeout=write_timeout,
            frames=frames,
        )
        names = [node for node, _, _ in workers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate worker node names: {names}")
        self.pool = pool
        self.upstream_timeout = upstream_timeout
        self.upstream_retries = upstream_retries
        self.max_pending = max_pending
        self.ring = ring if ring is not None else HashRing(names, vnodes=vnodes)
        if self.ring.nodes != set(names):
            raise ConfigurationError(
                f"ring nodes {sorted(self.ring.nodes)} != worker nodes {sorted(names)}"
            )
        self.metrics = RouterMetrics()
        self._worker_order: list[str] = list(names)
        self._channels: dict[str, WorkerChannel] = {
            node: self._make_channel(node, whost, wport) for node, whost, wport in workers
        }
        self._route_cache: dict[int, str] = {}
        self._migration: _Migration | None = None
        self._admin_lock = asyncio.Lock()
        self._key_locks = [asyncio.Lock() for _ in range(256)]
        self.last_reshard: dict[str, Any] | None = None

    def _make_channel(self, node: str, host: str, port: int) -> WorkerChannel:
        return WorkerChannel(
            node,
            host,
            port,
            pool=self.pool,
            timeout=self.upstream_timeout,
            max_pending=self.max_pending,
        )

    # -- lifecycle -----------------------------------------------------------
    async def stop(self, *, drain: float | None = None) -> None:
        """Stop accepting; optionally drain in-flight connections first.

        ``drain`` waits up to that many seconds for open client
        connections to finish naturally (idle clients are cut at the
        deadline); ``None`` cancels them immediately, as the shared
        :meth:`~repro.service.frontend.Listener.stop` does.
        """
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        if drain and self._conn_tasks:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*tuple(self._conn_tasks), return_exceptions=True),
                    drain,
                )
        migration = self._migration
        if migration is not None and migration.task is not None:
            migration.task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await migration.task
        await super().stop()
        for channel in self._channels.values():
            await channel.close()

    @property
    def workers(self) -> list[str]:
        return list(self._worker_order)

    @property
    def migrating(self) -> bool:
        return self._migration is not None

    # -- dispatch (the shared front end calls this in frame order) ----------
    async def _dispatch(
        self, frame: Frame, request: Request, conn_index: int, span: tracing.Span | None
    ) -> Slot:
        """Start one request's work; return its response slot.

        Forwarded requests are *sent here* (in frame order) but settled
        by the front end's flusher, which awaits the returned coroutine —
        that is what pipelines the upstream links.
        """
        metrics = self.metrics
        metrics.requests += 1
        op = request.op
        binary = frame.binary
        if op in _SINGLE_KEY_OPS:
            assert request.key is not None
            if self._migration is not None:
                metrics.migration_ops += 1
                return self._finish(self._migrating_single(request), binary)
            return await self._forward(
                frame, self._owner_of(request.key), conn_index, op in IDEMPOTENT_OPS, span
            )
        if op in ("MGET", "MPUT"):
            assert request.keys is not None
            if self._migration is not None:
                metrics.migration_ops += 1
                return self._finish(self._migrating_batch(request), binary)
            return await self._forward_batch(request, frame, conn_index, span)
        if op == "PING":
            metrics.local += 1
            return encode_payload({"ok": True, "pong": True}, binary)
        if op == "STATS":
            return self._finish(self._stats_answer(), binary)
        if op == "METRICS":
            return self._finish(self._metrics_answer(), binary)
        if op == "KEYS":
            return self._finish(self._keys_answer(), binary)
        assert op == "RESHARD"
        return self._finish(self._reshard_answer(request), binary, CODE_REJECTED)

    # -- routing -------------------------------------------------------------
    def _owner_of(self, key: int) -> str:
        cache = self._route_cache
        node = cache.get(key)
        if node is None:
            node = self.ring.owner(key)
            if len(cache) >= _ROUTE_CACHE_MAX:
                cache.clear()
            cache[key] = node
        return node

    def _key_lock(self, key: int) -> asyncio.Lock:
        return self._key_locks[int(splitmix64(key)) & 0xFF]

    async def _send(self, link: WorkerLink, upstream: bytes) -> asyncio.Future | None:
        """Send upstream now; ``None`` when the send itself failed."""
        try:
            return await link.send(upstream)
        except ServiceError:
            self.metrics.upstream_errors += 1
            return None  # the finisher will retry or fail it

    async def _forward(
        self, frame: Frame, node: str, conn_index: int, retryable: bool, rspan: Any
    ) -> Coroutine[Any, Any, bytes]:
        """Send a whole client frame to ``node`` now; return the settle slot."""
        link = self._channels[node].link_for(conn_index)
        lspan = rspan.start_child("router.link", node=link.node) if rspan is not None else None
        upstream = _upstream_frame(frame, lspan.ctx if lspan is not None else None)
        self.metrics.forwarded += 1
        future = await self._send(link, upstream)
        return self._finish_forward(link, future, upstream, retryable, frame.binary, lspan)

    async def _forward_batch(
        self, request: Request, frame: Frame, conn_index: int, rspan: Any
    ) -> Coroutine[Any, Any, bytes]:
        """Split an MGET/MPUT by owner; send sub-batches now, merge later."""
        assert request.keys is not None
        keys = request.keys
        groups: dict[str, list[int]] = {}
        for position, key in enumerate(keys):
            groups.setdefault(self._owner_of(key), []).append(position)
        retryable = request.op in IDEMPOTENT_OPS
        if len(groups) == 1:
            # one owner: the worker's response is exactly the client's
            (node,) = groups
            return await self._forward(frame, node, conn_index, retryable, rspan)
        self.metrics.fanouts += 1
        parts: list[tuple[WorkerLink, asyncio.Future | None, bytes, list[int], Any]] = []
        for node, positions in groups.items():
            sub_payload: dict[str, Any] = {
                "op": request.op,
                "keys": [keys[i] for i in positions],
            }
            if request.op == "MPUT":
                assert request.values is not None
                sub_payload["values"] = [request.values[i] for i in positions]
            link = self._channels[node].link_for(conn_index)
            lspan = (
                rspan.start_child("router.link", node=link.node, n=len(positions))
                if rspan is not None
                else None
            )
            if lspan is not None:
                sub_frame = encode_traced_frame(sub_payload, lspan.ctx)
            else:
                sub_frame = encode_frame(sub_payload)
            future = await self._send(link, sub_frame)
            parts.append((link, future, sub_frame, positions, lspan))
        return self._finish_batch(request.op, parts, len(keys), retryable, frame.binary)

    # -- response finishers (run inside the flusher, in request order) -------
    async def _finish_forward(
        self,
        link: WorkerLink,
        future: asyncio.Future | None,
        upstream: bytes,
        retryable: bool,
        binary: bool,
        lspan: Any,
    ) -> bytes:
        try:
            body = await self._settle_or_retry(link, future, upstream, retryable)
        finally:
            if lspan is not None:
                lspan.end()
        return _frame_body(body, binary)

    async def _settle_or_retry(
        self, link: WorkerLink, future: asyncio.Future | None, upstream: bytes, retryable: bool
    ) -> bytes:
        if future is None:  # the send itself failed (e.g. worker down)
            return await self._retry_body(link, upstream, retryable, "link unavailable")
        try:
            return await link.settle(future)
        except ServiceTimeout:
            self.metrics.upstream_timeouts += 1
            return await self._retry_body(link, upstream, retryable, "response timed out")
        except ServiceError as exc:
            self.metrics.upstream_errors += 1
            return await self._retry_body(link, upstream, retryable, str(exc))

    async def _retry_body(
        self, link: WorkerLink, upstream: bytes, retryable: bool, why: str
    ) -> bytes:
        if retryable:
            for _ in range(self.upstream_retries):
                self.metrics.upstream_retries += 1
                try:
                    return await link.call(upstream)
                except ServiceTimeout:
                    self.metrics.upstream_timeouts += 1
                    why = "response timed out"
                except ServiceError as exc:
                    self.metrics.upstream_errors += 1
                    why = str(exc)
        self.metrics.errors += 1
        return _json_body(
            error_payload(f"worker {link.node} unavailable: {why}", code=CODE_UPSTREAM)
        )

    async def _finish_batch(
        self,
        op: str,
        parts: list[tuple[WorkerLink, asyncio.Future | None, bytes, list[int], Any]],
        total: int,
        retryable: bool,
        binary: bool,
    ) -> bytes:
        hits: list[Any] = [False] * total
        values: list[Any] = [None] * total
        settled = 0
        try:
            for link, future, upstream, positions, lspan in parts:
                body = await self._settle_or_retry(link, future, upstream, retryable)
                settled += 1
                if lspan is not None:
                    lspan.end()
                try:
                    payload = decode_response(body)
                except ProtocolError as exc:
                    # a garbled-but-well-framed body (FIFO alignment is
                    # intact, so the link survives); fail the frame only
                    self.metrics.upstream_errors += 1
                    return self._error_answer(
                        f"worker {link.node} answered an unparseable body: {exc}", binary
                    )
                if not payload.get("ok"):
                    # one failed sub-batch fails the whole frame (the client's
                    # batch_responses explodes it into per-key errors)
                    return encode_payload(payload, binary)
                part_hits = payload.get("hits") or []
                part_values = payload.get("values") or [None] * len(positions)
                if len(part_hits) != len(positions):
                    return self._error_answer(
                        f"worker {link.node} answered {len(part_hits)} hits "
                        f"for {len(positions)} keys",
                        binary,
                    )
                for position, hit, value in zip(positions, part_hits, part_values):
                    hits[position] = hit
                    values[position] = value
        finally:
            # an early return leaves later parts unsettled in span terms
            # only (FIFO links still deliver); close their link spans
            for part in parts[settled:]:
                if part[4] is not None:
                    part[4].end()
        payload = {"ok": True, "hits": hits}
        if op == "MGET":
            payload["values"] = values
        return encode_payload(payload, binary)

    def _error_answer(self, message: str, binary: bool, code: str = CODE_UPSTREAM) -> bytes:
        """Count and frame an error answer the router produced itself."""
        self.metrics.errors += 1
        return encode_payload(error_payload(message, code=code), binary)

    # -- admin calls (retried; ride each channel's admin link) ---------------
    async def _admin_call(
        self, channel: WorkerChannel, payload: dict[str, Any], *, retryable: bool = True
    ) -> dict[str, Any]:
        upstream = encode_frame(payload)
        attempts = 1 + (self.upstream_retries if retryable else 0)
        last: ServiceError | None = None
        for attempt in range(attempts):
            if attempt:
                self.metrics.upstream_retries += 1
            try:
                return decode_response(await channel.admin.call(upstream))
            except ServiceTimeout as exc:
                self.metrics.upstream_timeouts += 1
                last = exc
            except ServiceError as exc:
                self.metrics.upstream_errors += 1
                last = exc
        assert last is not None
        raise last

    async def _checked_admin_call(
        self, channel: WorkerChannel, payload: dict[str, Any], *, retryable: bool = True
    ) -> dict[str, Any]:
        response = await self._admin_call(channel, payload, retryable=retryable)
        if not response.get("ok"):
            raise ServiceError(
                f"worker {channel.node} rejected {payload.get('op')}: "
                f"{response.get('error')}"
            )
        return response

    # -- aggregation ---------------------------------------------------------
    async def stats(self) -> dict[str, Any]:
        """Merged cluster snapshot, shaped like ``ShardedPolicyStore.stats``.

        Worker op/hit/miss counters are summed; a ``per_worker`` section
        carries each worker's gauges; router-side counters (latency as
        observed at the front door, upstream retry/timeout accounting,
        migration state) ride in the top level and the ``router`` section.
        An unreachable worker degrades the snapshot (its entry carries an
        ``error`` field and ``degraded`` is set) instead of failing it.
        """
        totals = dict.fromkeys(("gets", "puts", "dels", "hits", "misses"), 0)
        per_worker: list[dict[str, Any]] = []
        resident = capacity = evictions = worker_errors = 0
        policy: str | None = None
        occupancies: list[float] = []
        degraded = False
        for node in list(self._worker_order):
            channel = self._channels.get(node)
            if channel is None:
                continue
            try:
                snap = (await self._checked_admin_call(channel, {"op": "STATS"}))["stats"]
            except ServiceError as exc:
                degraded = True
                per_worker.append({"node": node, "error": str(exc)})
                continue
            for field in totals:
                totals[field] += snap[field]
            worker_errors += snap["errors"]
            resident += snap["resident"]
            capacity += snap["capacity"]
            evictions += snap["evictions"]
            policy = snap["policy"]
            entry = {
                "node": node,
                "capacity": snap["capacity"],
                "resident": snap["resident"],
                "hits": snap["hits"],
                "misses": snap["misses"],
                "evictions": snap["evictions"],
                "connections_open": snap["connections_open"],
            }
            if "sink_occupancy" in snap:
                entry["sink_occupancy"] = snap["sink_occupancy"]
                occupancies.append(snap["sink_occupancy"])
            per_worker.append(entry)
        m = self.metrics
        accesses = totals["hits"] + totals["misses"]
        merged: dict[str, Any] = {
            "uptime_s": round(time.monotonic() - m.started, 3),
            **totals,
            "accesses": accesses,
            "hit_rate": totals["hits"] / accesses if accesses else 0.0,
            "errors": m.errors + worker_errors,
            "rejected": m.rejected,
            "write_timeouts": m.write_timeouts,
            "connections_open": m.connections_opened - m.connections_closed,
            "connections_total": m.connections_opened,
            "policy": policy,
            "capacity": capacity,
            "resident": resident,
            "evictions": evictions,
            "workers": len(self._worker_order),
            "per_worker": per_worker,
            "latency": m.latency.snapshot(),
            "latency_by_op": {
                op.lower(): hist.snapshot() for op, hist in m.latency_by_op.items()
            },
            "recent": m.recent.snapshot(),
            "router": {
                "requests": m.requests,
                "forwarded": m.forwarded,
                "fanouts": m.fanouts,
                "local": m.local,
                "migration_ops": m.migration_ops,
                "upstream_retries": m.upstream_retries,
                "upstream_timeouts": m.upstream_timeouts,
                "upstream_errors": m.upstream_errors,
                "upstream_connects": sum(c.connects for c in self._channels.values()),
                "migrated_keys": m.migrated_keys,
                "reshards": m.reshards,
                "migrating": self._migration is not None,
            },
        }
        if occupancies and len(occupancies) == len(per_worker):
            merged["sink_occupancy"] = sum(occupancies) / len(occupancies)
        if degraded:
            merged["degraded"] = True
        return merged

    async def metrics_registry(self) -> MetricsRegistry:
        """Prometheus exposition of the merged snapshot + router counters."""
        snap = await self.stats()
        reg = MetricsRegistry()
        reg.gauge("repro_uptime_seconds", "seconds since the router started").set(
            snap["uptime_s"]
        )
        for op in ("get", "put", "del"):
            reg.counter(
                "repro_ops_total", "operations served, by op", labels={"op": op}
            ).inc(snap[f"{op}s"])
        reg.counter("repro_hits_total", "policy-access hits").inc(snap["hits"])
        reg.counter("repro_misses_total", "policy-access misses").inc(snap["misses"])
        reg.counter("repro_errors_total", "error responses").inc(snap["errors"])
        reg.gauge("repro_hit_ratio", "hits / accesses since start").set(snap["hit_rate"])
        reg.gauge("repro_resident_pages", "resident pages, cluster-wide").set(
            float(snap["resident"])
        )
        reg.gauge("repro_capacity_slots", "capacity slots, cluster-wide").set(
            float(snap["capacity"])
        )
        reg.gauge("repro_cluster_workers", "workers on the ring").set(
            float(snap["workers"])
        )
        reg.gauge("repro_cluster_migrating", "1 while a reshard window is open").set(
            1.0 if snap["router"]["migrating"] else 0.0
        )
        for name in (
            "forwarded",
            "fanouts",
            "local",
            "upstream_retries",
            "upstream_timeouts",
            "upstream_errors",
            "migrated_keys",
            "reshards",
        ):
            reg.counter(f"repro_router_{name}_total", f"router {name.replace('_', ' ')}").inc(
                snap["router"][name]
            )
        for entry in snap["per_worker"]:
            labels = {"node": entry["node"]}
            if "error" in entry:
                reg.gauge(
                    "repro_worker_up", "1 when the worker answered STATS", labels=labels
                ).set(0)
                continue
            reg.gauge(
                "repro_worker_up", "1 when the worker answered STATS", labels=labels
            ).set(1)
            reg.gauge(
                "repro_worker_resident_pages", "resident pages, by worker", labels=labels
            ).set(float(entry["resident"]))
            reg.gauge(
                "repro_worker_capacity_slots", "capacity slots, by worker", labels=labels
            ).set(float(entry["capacity"]))
        self.metrics.register(reg)
        return reg

    async def metrics_text(self) -> str:
        return (await self.metrics_registry()).render()

    # -- slot finishers for the admin ops (run inside the flusher) ----------
    async def _finish(
        self, work: Awaitable[dict[str, Any]], binary: bool, code: str = CODE_UPSTREAM
    ) -> bytes:
        """Frame the answer ``work`` computes; a ServiceError becomes an error answer."""
        try:
            return encode_payload(await work, binary)
        except ServiceError as exc:
            return self._error_answer(str(exc), binary, code)

    async def _stats_answer(self) -> dict[str, Any]:
        stats = await self.stats()
        self.metrics.fanouts += 1
        return {"ok": True, "stats": stats}

    async def _metrics_answer(self) -> dict[str, Any]:
        text = await self.metrics_text()
        self.metrics.fanouts += 1
        return {"ok": True, "text": text}

    async def _keys_answer(self) -> dict[str, Any]:
        merged: list[int] = []
        for node in list(self._worker_order):
            response = await self._checked_admin_call(self._channels[node], {"op": "KEYS"})
            merged.extend(response.get("keys", []))
        self.metrics.fanouts += 1
        # dedup: a migrated key stays *resident* on its old owner with the
        # payload dropped (DEL never evicts), so two workers may both report it
        return {"ok": True, "keys": sorted(set(merged))}

    # -- resharding ----------------------------------------------------------
    async def _reshard_answer(self, request: Request) -> dict[str, Any]:
        async with self._admin_lock:
            if request.node is None:
                return {"ok": True, **self.reshard_status()}
            if request.remove:
                return await self._begin_reshard_remove(request.node)
            assert request.host is not None and request.port is not None
            return await self._begin_reshard_add(request.node, request.host, request.port)

    def reshard_status(self) -> dict[str, Any]:
        """Migration state (also the bare-``RESHARD`` response body)."""
        status: dict[str, Any] = {
            "migrating": self._migration is not None,
            "workers": list(self._worker_order),
            "migrated_keys": self.metrics.migrated_keys,
            "reshards": self.metrics.reshards,
        }
        if self._migration is not None:
            status["node"] = self._migration.node
            status["removing"] = self._migration.removing
        if self.last_reshard is not None:
            status["last_reshard"] = self.last_reshard
        return status

    async def reshard_add(self, node: str, host: str, port: int) -> dict[str, Any]:
        """Programmatic RESHARD-add (the wire op calls this under the lock)."""
        async with self._admin_lock:
            return await self._begin_reshard_add(node, host, port)

    async def reshard_remove(self, node: str) -> dict[str, Any]:
        """Programmatic RESHARD-remove."""
        async with self._admin_lock:
            return await self._begin_reshard_remove(node)

    async def wait_reshard(self, timeout: float | None = None) -> None:
        """Block until the open migration window (if any) closes."""
        migration = self._migration
        if migration is None:
            return
        if timeout is None:
            await migration.done.wait()
        else:
            await asyncio.wait_for(migration.done.wait(), timeout)

    async def _begin_reshard_add(self, node: str, host: str, port: int) -> dict[str, Any]:
        if self._migration is not None:
            raise ServiceError(
                f"a reshard is already migrating ({self._migration.node}); retry later"
            )
        if node in self.ring:
            raise ServiceError(f"node {node!r} is already on the ring")
        channel = self._make_channel(node, host, port)
        try:
            await self._checked_admin_call(channel, {"op": "PING"})
        except ServiceError:
            await channel.close()
            raise ServiceError(f"new worker {node!r} at {host}:{port} is not answering")
        old_ring = self.ring.copy()
        self.ring.add_node(node)
        self._channels[node] = channel
        self._worker_order.append(node)
        self._route_cache.clear()
        self._start_migration(old_ring, node, removing=False)
        return {"ok": True, "node": node, "migrating": True, "workers": self.workers}

    async def _begin_reshard_remove(self, node: str) -> dict[str, Any]:
        if self._migration is not None:
            raise ServiceError(
                f"a reshard is already migrating ({self._migration.node}); retry later"
            )
        if node not in self.ring:
            raise ServiceError(f"node {node!r} is not on the ring")
        if len(self.ring) == 1:
            raise ServiceError("cannot remove the last worker")
        old_ring = self.ring.copy()
        self.ring.remove_node(node)
        self._route_cache.clear()
        self._start_migration(old_ring, node, removing=True)
        return {"ok": True, "node": node, "migrating": True, "workers": self.workers}

    def _start_migration(self, old_ring: HashRing, node: str, *, removing: bool) -> None:
        migration = _Migration(old_ring, node, removing)
        self._migration = migration
        self.metrics.reshards += 1
        migration.task = asyncio.create_task(self._run_migration(migration))

    async def _run_migration(self, migration: _Migration) -> None:
        """Background sweep: move every resident key whose owner changed."""
        try:
            if migration.removing:
                sources = [migration.node]
            else:
                sources = [n for n in self._worker_order if n != migration.node]
            for source in sources:
                channel = self._channels[source]
                response = await self._checked_admin_call(channel, {"op": "KEYS"})
                for key in response.get("keys", []):
                    if self.ring.owner(key) == source:
                        continue
                    async with self._key_lock(key):
                        await self._migrate_key(int(key), source, migration)
        except asyncio.CancelledError:
            migration.error = "migration cancelled by shutdown"
            raise
        except ServiceError as exc:
            # the window closes anyway: unmoved keys simply surface as
            # cluster-level misses, which cache semantics tolerate
            migration.error = str(exc)
        finally:
            await self._end_migration(migration)

    async def _migrate_key(self, key: int, source: str, migration: _Migration) -> None:
        source_channel = self._channels.get(source)
        if source_channel is None:
            return
        peek = await self._checked_admin_call(source_channel, {"op": "PEEK", "key": key})
        if not peek.get("stored"):
            # Nothing to move: either the key never had a payload (DEL drops
            # payloads while residency persists) or the double-read window
            # already migrated it — in which case the old owner is resident
            # but payload-less, and re-migrating would clobber the real
            # value on the new owner with None.
            return
        target = self._channels[self.ring.owner(key)]
        await self._checked_admin_call(
            target, {"op": "PUT", "key": key, "value": peek.get("value")}, retryable=False
        )
        await self._checked_admin_call(source_channel, {"op": "DEL", "key": key})
        migration.moved_keys.append(key)
        self.metrics.migrated_keys += 1

    async def _end_migration(self, migration: _Migration) -> None:
        self.last_reshard = {
            "node": migration.node,
            "removing": migration.removing,
            "moved": len(migration.moved_keys),
            "error": migration.error,
        }
        if migration.removing:
            self._worker_order.remove(migration.node)
            channel = self._channels.pop(migration.node, None)
            if channel is not None:
                await channel.close()
        self._migration = None
        self._route_cache.clear()
        migration.done.set()

    # -- migration-window data path ------------------------------------------
    async def _migrating_single(self, request: Request) -> dict[str, Any]:
        """One single-key op under the double-read window (module docs §2)."""
        key = request.key
        assert key is not None
        migration = self._migration
        if migration is None:
            # the window closed while this frame sat in the queue
            channel = self._channels[self.ring.owner(key)]
            return await self._admin_call(
                channel,
                _request_body(request),
                retryable=request.op in IDEMPOTENT_OPS,
            )
        async with self._key_lock(key):
            new_owner = self.ring.owner(key)
            old_owner = migration.old_ring.owner(key)
            new_channel = self._channels[new_owner]
            old_channel = self._channels.get(old_owner)
            if old_owner == new_owner or old_channel is None:
                return await self._admin_call(
                    new_channel,
                    _request_body(request),
                    retryable=request.op in IDEMPOTENT_OPS,
                )
            op = request.op
            if op == "GET":
                response = await self._admin_call(new_channel, {"op": "GET", "key": key})
                if not response.get("ok") or response.get("hit"):
                    return response
                peek = await self._admin_call(old_channel, {"op": "PEEK", "key": key})
                if not (peek.get("ok") and peek.get("hit")):
                    return response  # a true cluster-wide miss
                value = peek.get("value")
                await self._checked_admin_call(
                    new_channel, {"op": "PUT", "key": key, "value": value}, retryable=False
                )
                await self._checked_admin_call(old_channel, {"op": "DEL", "key": key})
                self.metrics.migrated_keys += 1
                return {"ok": True, "hit": True, "value": value}
            if op == "PUT":
                response = await self._admin_call(
                    new_channel,
                    {"op": "PUT", "key": key, "value": request.value},
                    retryable=False,
                )
                if response.get("ok"):
                    # the old copy is now stale; drop it before acking so a
                    # later fallback read can never resurrect the old value
                    await self._checked_admin_call(old_channel, {"op": "DEL", "key": key})
                return response
            if op == "DEL":
                response = await self._admin_call(new_channel, {"op": "DEL", "key": key})
                old = await self._admin_call(old_channel, {"op": "DEL", "key": key})
                if response.get("ok") and old.get("ok"):
                    return {
                        "ok": True,
                        "deleted": bool(response.get("deleted") or old.get("deleted")),
                    }
                return response if not response.get("ok") else old
            assert op == "PEEK"
            response = await self._admin_call(new_channel, {"op": "PEEK", "key": key})
            if not response.get("ok") or response.get("hit"):
                return response
            return await self._admin_call(old_channel, {"op": "PEEK", "key": key})

    async def _migrating_batch(self, request: Request) -> dict[str, Any]:
        """MGET/MPUT during the window: per-key double-read path, in order."""
        assert request.keys is not None
        hits: list[Any] = []
        values: list[Any] = []
        for position, key in enumerate(request.keys):
            if request.op == "MGET":
                sub = Request("GET", key=key)
            else:
                assert request.values is not None
                sub = Request("PUT", key=key, value=request.values[position])
            response = await self._migrating_single(sub)
            if not response.get("ok"):
                raise ServiceError(f"key {key}: {response.get('error', 'worker error')}")
            hits.append(bool(response.get("hit")))
            values.append(response.get("value"))
        payload: dict[str, Any] = {"ok": True, "hits": hits}
        if request.op == "MGET":
            payload["values"] = values
        return payload


def _request_body(request: Request) -> dict[str, Any]:
    """The upstream JSON body of a single-key request."""
    body: dict[str, Any] = {"op": request.op, "key": request.key}
    if request.op == "PUT":
        body["value"] = request.value
    return body


def running_router(
    workers: Sequence[tuple[str, str, int]],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> RouterServer:
    """``async with running_router(workers) as router:`` start/stop bracket."""
    return RouterServer(workers, host=host, port=port, **kwargs)
