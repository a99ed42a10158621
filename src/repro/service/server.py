"""The asyncio TCP server.

One :class:`CacheServer` owns one store — a
:class:`~repro.service.store.PolicyStore` or a
:class:`~repro.service.sharding.ShardedPolicyStore` — and answers each
request in the framing it arrived in. The listener, admission and
backpressure, the frame pump, ordered flushing, per-connection error
isolation and the framing/``HELLO`` rules are the connection front end
of :mod:`repro.service.frontend`; this class supplies only the dispatch
onto the store. Its dominant responses — GET-hit and GET-miss with no
stored payload — are the shared singleton dicts
:data:`~repro.service.protocol.RESPONSE_GET_HIT` /
:data:`~repro.service.protocol.RESPONSE_GET_MISS`, sent as pre-encoded
bytes. :meth:`CacheServer.stop` cancels open connections and awaits their
handlers, so STATS counters are final when it returns.
"""

from __future__ import annotations

from typing import Any, Union

from repro.obs import tracing
from repro.service.framing import Frame
from repro.service.frontend import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_WRITE_TIMEOUT,
    FrontEnd,
    encode_payload,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    CODE_REJECTED,
    FRAMES,
    RESPONSE_GET_HIT,
    RESPONSE_GET_MISS,
    Request,
    error_payload,
)
from repro.service.sharding import ShardedPolicyStore
from repro.service.store import PolicyStore

__all__ = ["DEFAULT_WRITE_TIMEOUT", "DEFAULT_MAX_INFLIGHT", "CacheServer", "running_server"]

Store = Union[PolicyStore, ShardedPolicyStore]


class CacheServer(FrontEnd):
    """Serve one policy store over TCP.

    Parameters
    ----------
    store:
        The policy-backed store all connections share (single
        :class:`PolicyStore` or :class:`ShardedPolicyStore`).
    host, port:
        Bind address. ``port=0`` (the default) binds an ephemeral port;
        read :attr:`port` after :meth:`start` for the actual one.
    max_connections:
        Concurrent-connection cap; connections beyond it receive one
        ``overloaded`` error response and are closed immediately.
        ``None`` (default) = unlimited.
    max_inflight:
        Per-connection bound on pipelined requests buffered ahead of the
        processor; TCP flow control enforces the excess.
    write_timeout:
        Deadline for draining one response; a client that will not read
        for this long is disconnected. ``None`` = wait forever.
    frames:
        Framings accepted for data operations. ``HELLO`` is exempt (it is
        the negotiation op and must be reachable in any framing); a data
        request arriving in a framing not listed here gets a
        ``bad-request`` answer in that framing.
    """

    span_name = "server"

    def __init__(
        self,
        store: Store,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        write_timeout: float | None = DEFAULT_WRITE_TIMEOUT,
        frames: tuple[str, ...] = FRAMES,
    ):
        super().__init__(
            host=host,
            port=port,
            max_connections=max_connections,
            max_inflight=max_inflight,
            write_timeout=write_timeout,
            frames=frames,
        )
        self.store = store

    @property
    def metrics(self) -> ServiceMetrics:
        return self.store.metrics

    async def _dispatch(
        self, frame: Frame, request: Request, conn_index: int, span: tracing.Span | None
    ) -> bytes:
        if span is None:
            return encode_payload(await self._respond(request), frame.binary)
        with tracing.ambient(span):  # the store's spans nest under the request
            return encode_payload(await self._respond(request), frame.binary)

    async def _respond(self, request: Request) -> dict[str, Any]:
        op = request.op
        if op == "GET":
            assert request.key is not None
            hit, value = await self.store.get(request.key)
            if value is None:
                # template singletons: encode_payload recognizes these by
                # identity and sends pre-encoded bytes
                return RESPONSE_GET_HIT if hit else RESPONSE_GET_MISS
            return {"ok": True, "hit": hit, "value": value}
        if op == "PUT":
            assert request.key is not None
            hit = await self.store.put(request.key, request.value)
            return {"ok": True, "hit": hit}
        if op == "DEL":
            assert request.key is not None
            existed = await self.store.delete(request.key)
            return {"ok": True, "deleted": existed}
        if op == "MGET":
            assert request.keys is not None
            results = await self.store.get_many(request.keys)
            return {
                "ok": True,
                "hits": [hit for hit, _ in results],
                "values": [value for _, value in results],
            }
        if op == "MPUT":
            assert request.keys is not None and request.values is not None
            hits = await self.store.put_many(request.keys, request.values)
            return {"ok": True, "hits": list(hits)}
        if op == "PEEK":
            assert request.key is not None
            resident, value, stored = await self.store.peek(request.key)
            return {"ok": True, "hit": resident, "value": value, "stored": stored}
        if op == "KEYS":
            return {"ok": True, "keys": [int(k) for k in await self.store.keys()]}
        if op == "RESHARD":
            return error_payload(
                "RESHARD is a cluster-router operation; this server fronts a single store",
                code=CODE_REJECTED,
            )
        if op == "STATS":
            return {"ok": True, "stats": await self.store.stats()}
        if op == "METRICS":
            return {"ok": True, "text": await self.store.metrics_text()}
        assert op == "PING"
        return {"ok": True, "pong": True}


def running_server(
    store: Store, *, host: str = "127.0.0.1", port: int = 0, **kwargs: Any
) -> CacheServer:
    """``async with running_server(store) as server:`` — start/stop bracket.

    Keyword arguments (``max_connections``, ``max_inflight``,
    ``write_timeout``, ``frames``) pass through to :class:`CacheServer`.
    """
    return CacheServer(store, host=host, port=port, **kwargs)
