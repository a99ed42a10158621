"""Asyncio clients for the cache service.

Two layers:

:class:`ServiceClient`
    One TCP connection, ordered request/response, windowed pipelining
    (`get_window`, optionally batched into ``MGET`` frames). Every
    awaited network step — connect, write-drain, response read — carries
    a timeout (default :data:`DEFAULT_TIMEOUT`) surfaced as
    :class:`~repro.errors.ServiceTimeout`, so an unresponsive peer can
    never hang the caller forever. Because the transport and the server
    both preserve per-connection order, pipelining changes throughput,
    never semantics. ``frame="binary"`` negotiates the length-prefixed
    binary framing at connect time via ``HELLO`` (the probe itself
    travels as NDJSON, which every server accepts); after the switch,
    truncated binary frames surface as
    :class:`~repro.errors.ProtocolError`, never a hang — every read is
    exact-length and deadline-bounded.

:class:`ResilientClient`
    A reconnecting wrapper that adds bounded retries with exponential
    backoff and decorrelated jitter (:class:`RetryPolicy`). Retry rules
    are idempotency-aware: GET/STATS/PING are retried by default, PUT/DEL
    only when the caller opts in (``retry_unsafe=True`` or a per-call
    ``idempotent=True``), and an ``overloaded`` rejection is always
    retried because the server refuses *before* touching the policy.
    Every failure mode is counted in :class:`ClientStats` so chaos tests
    can assert exact, reproducible behaviour.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, fields, replace
from typing import Any, Awaitable, Callable, Iterator, Sequence, TypeVar

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
)
from repro.obs import tracing
from repro.rng import derive_seed
from repro.service.framing import read_binary_frame
from repro.service.protocol import (
    CODE_OVERLOADED,
    FEATURE_TRACE,
    FRAME_BINARY,
    FRAME_NDJSON,
    FRAMES,
    IDEMPOTENT_OPS,
    MAX_BATCH_KEYS,
    MAX_LINE_BYTES,
    Request,
    batch_responses,
    decode_response,
    encode_frame,
    encode_request,
    encode_traced_frame,
    request_payload,
)

__all__ = [
    "DEFAULT_TIMEOUT",
    "DEFAULT_CONNECT_TIMEOUT",
    "ServiceClient",
    "RetryPolicy",
    "ClientStats",
    "ResilientClient",
]

#: Default per-operation deadline (response read, write drain), seconds.
DEFAULT_TIMEOUT = 30.0

#: Default TCP-connect deadline, seconds.
DEFAULT_CONNECT_TIMEOUT = 10.0

_T = TypeVar("_T")


class ServiceClient:
    """One connection to a :class:`~repro.service.server.CacheServer`.

    Use :meth:`connect` to build one. Not safe for concurrent use from
    multiple tasks — open one client per task instead; connections are
    cheap and the server serializes policy access anyway.

    ``timeout`` bounds every single network wait (``None`` disables the
    guard — only sensible inside tests that control both endpoints).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        timeout: float | None = DEFAULT_TIMEOUT,
    ):
        self._reader = reader
        self._writer = writer
        self.timeout = timeout
        self.frame = FRAME_NDJSON
        #: Capabilities the server's HELLO advertised (empty until a probe).
        self.features: tuple[str, ...] = ()

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        timeout: float | None = DEFAULT_TIMEOUT,
        connect_timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
        frame: str = FRAME_NDJSON,
    ) -> "ServiceClient":
        if frame not in FRAMES:
            raise ConfigurationError(f"unknown frame {frame!r}; expected one of {list(FRAMES)}")
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port, limit=MAX_LINE_BYTES),
                connect_timeout,
            )
        except asyncio.TimeoutError:
            raise ServiceTimeout(
                f"connecting to {host}:{port} timed out after {connect_timeout}s"
            ) from None
        except OSError as exc:
            raise ServiceError(f"cannot connect to {host}:{port}: {exc}") from exc
        client = cls(reader, writer, timeout=timeout)
        if frame == FRAME_BINARY:
            # probe in NDJSON (every server accepts it), switch only after
            # the server confirms — never talk binary to a peer that won't
            try:
                response = await client.hello(frame=FRAME_BINARY)
            except ServiceError:
                await client.close()
                raise
            if not response.get("ok") or FRAME_BINARY not in response.get("frames", ()):
                await client.close()
                raise ServiceError(
                    f"server does not accept binary framing: {response.get('error', response)}"
                )
            client.frame = FRAME_BINARY
            client.features = tuple(response.get("features", ()))
        return client

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- single requests ----------------------------------------------------
    async def request(self, req: Request) -> dict[str, Any]:
        """Send one request and await its response (raw payload dict).

        With tracing configured, each request becomes the root span of a
        new trace (``client.request``) and its context rides the wire, so
        server/router/worker spans stitch under it.
        """
        if tracing.ENABLED:
            root = tracing.start_trace("client.request", op=req.op, activate=False)
            if root is not None:
                try:
                    await self._send(self._traced_bytes(req, root))
                    return await self._read_response()
                finally:
                    root.end()
        await self._send(encode_request(req, frame=self.frame))
        return await self._read_response()

    async def get(self, key: int) -> dict[str, Any]:
        return await self.request(Request("GET", key=key))

    async def put(self, key: int, value: Any) -> dict[str, Any]:
        return await self.request(Request("PUT", key=key, value=value))

    async def delete(self, key: int) -> dict[str, Any]:
        return await self.request(Request("DEL", key=key))

    async def mget(self, keys: Sequence[int]) -> dict[str, Any]:
        """Batched GET; the response carries parallel ``hits``/``values``."""
        return await self.request(Request("MGET", keys=tuple(keys)))

    async def mput(self, keys: Sequence[int], values: Sequence[Any]) -> dict[str, Any]:
        """Batched PUT; the response carries per-key ``hits``."""
        return await self.request(Request("MPUT", keys=tuple(keys), values=tuple(values)))

    async def peek(self, key: int) -> dict[str, Any]:
        """Non-mutating residency probe (no policy access on the server)."""
        return await self.request(Request("PEEK", key=key))

    async def keys(self) -> list[int]:
        """The server's sorted resident key set (admin/migration op)."""
        response = await self.request(Request("KEYS"))
        if not response.get("ok"):
            raise ServiceError(f"KEYS failed: {response.get('error')}")
        return list(response.get("keys", []))

    async def reshard(
        self,
        node: str | None = None,
        *,
        host: str | None = None,
        port: int | None = None,
        remove: bool = False,
    ) -> dict[str, Any]:
        """Cluster-router admin op: add/remove a worker, or query status."""
        return await self.request(
            Request("RESHARD", node=node, host=host, port=port, remove=remove)
        )

    async def hello(self, frame: str | None = None) -> dict[str, Any]:
        """Capability probe; the response lists accepted framings."""
        return await self.request(Request("HELLO", frame=frame))

    async def stats(self) -> dict[str, Any]:
        response = await self.request(Request("STATS"))
        if not response.get("ok"):
            raise ServiceError(f"STATS failed: {response.get('error')}")
        return response["stats"]

    async def ping(self) -> bool:
        response = await self.request(Request("PING"))
        return bool(response.get("pong"))

    async def metrics(self) -> str:
        """Prometheus text exposition from the in-band ``METRICS`` op."""
        response = await self.request(Request("METRICS"))
        if not response.get("ok"):
            raise ServiceError(f"METRICS failed: {response.get('error')}")
        return response["text"]

    # -- pipelining ---------------------------------------------------------
    async def get_window(self, keys: Sequence[int], *, batch: int = 1) -> list[dict[str, Any]]:
        """Pipeline GETs for ``keys``; per-key responses in the same order.

        All requests are written before any response is read, so the
        round-trip cost is paid once per window instead of once per key.
        ``batch > 1`` additionally groups keys into ``MGET`` frames of up
        to ``batch`` keys, amortizing framing overhead; batched responses
        are exploded back into per-key dicts
        (:func:`~repro.service.protocol.batch_responses`), so callers see
        the same shape either way. Each response read gets its own
        ``timeout`` budget.
        """
        if batch < 1 or batch > MAX_BATCH_KEYS:
            raise ConfigurationError(f"batch must be in [1, {MAX_BATCH_KEYS}], got {batch}")
        if not keys:
            return []
        if tracing.ENABLED:
            return await self._get_window_traced(keys, batch)
        if batch == 1:
            await self._send(
                b"".join(encode_request(Request("GET", key=k), frame=self.frame) for k in keys)
            )
            return [await self._read_response() for _ in keys]
        chunks = [tuple(keys[i : i + batch]) for i in range(0, len(keys), batch)]
        await self._send(
            b"".join(encode_request(Request("MGET", keys=c), frame=self.frame) for c in chunks)
        )
        out: list[dict[str, Any]] = []
        for chunk in chunks:
            out.extend(batch_responses(await self._read_response(), len(chunk)))
        return out

    # -- internals ----------------------------------------------------------
    async def _get_window_traced(self, keys: Sequence[int], batch: int) -> list[dict[str, Any]]:
        """:meth:`get_window` with one root span per pipelined frame.

        Roots end as their responses arrive (FIFO); a window that dies
        mid-read still ends the outstanding roots (``error`` attribute)
        so sampled traces never lose their root.
        """
        if batch == 1:
            requests = [(Request("GET", key=k), 0) for k in keys]
        else:
            requests = [
                (Request("MGET", keys=tuple(keys[i : i + batch])), len(keys[i : i + batch]))
                for i in range(0, len(keys), batch)
            ]
        roots: list[tracing.Span | None] = []
        parts: list[bytes] = []
        for req, _ in requests:
            root = tracing.start_trace("client.request", op=req.op, activate=False)
            roots.append(root)
            parts.append(self._traced_bytes(req, root))
        await self._send(b"".join(parts))
        out: list[dict[str, Any]] = []
        try:
            for i, (_, n) in enumerate(requests):
                response = await self._read_response()
                root, roots[i] = roots[i], None
                if root is not None:
                    root.end()
                if n:
                    out.extend(batch_responses(response, n))
                else:
                    out.append(response)
        finally:
            for root in roots:
                if root is not None:
                    root.end(error=True)
        return out

    def _traced_bytes(self, req: Request, root: "tracing.Span | None") -> bytes:
        """Encode ``req`` carrying ``root``'s context (or plainly if unsampled)."""
        if root is None:
            return encode_request(req, frame=self.frame)
        if self.frame == FRAME_BINARY:
            if FEATURE_TRACE in self.features:
                return encode_traced_frame(request_payload(req), root.ctx)
            # pre-tracing server: the context travels as a JSON field,
            # which old decoders ignore — never send an unnegotiated 0xB2
            payload = request_payload(req)
            payload["trace"] = root.ctx
            return encode_frame(payload)
        return encode_request(replace(req, trace=root.ctx), frame=self.frame)

    async def _send(self, data: bytes) -> None:
        writer = self._writer
        try:
            writer.write(data)
            transport = writer.transport
            if transport.get_write_buffer_size() <= transport.get_write_buffer_limits()[0]:
                # at or under the low-water mark writing is not paused, so
                # drain() cannot block: no deadline, no wait_for task hop
                await writer.drain()
            else:
                await self._await(writer.drain(), "write")
        except ServiceError:
            raise  # ServiceTimeout is a TimeoutError and hence an OSError
        except OSError as exc:
            raise ServiceError(f"connection lost while writing: {exc}") from exc

    async def _read_response(self) -> dict[str, Any]:
        # under the operation deadline; a binary frame cut off mid-body
        # fails fast with ProtocolError: it can never hang, and it can never
        # be mistaken for a complete response
        if self.frame == FRAME_BINARY:
            read = read_binary_frame(self._reader)
        else:
            read = self._reader.readline()
        try:
            body = await self._await(read, "response read")
        except ServiceError:
            raise  # ServiceTimeout is a TimeoutError and hence an OSError
        except OSError as exc:
            raise ServiceError(f"connection lost while reading: {exc}") from exc
        if not body:
            raise ServiceError("server closed the connection")
        try:
            return decode_response(body)
        except ProtocolError as exc:
            raise ServiceError(f"unparseable server response: {exc}") from exc

    async def _await(self, awaitable: Awaitable[_T], what: str) -> _T:
        if self.timeout is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, self.timeout)
        except asyncio.TimeoutError:
            raise ServiceTimeout(f"{what} timed out after {self.timeout}s") from None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and decorrelated jitter.

    The backoff sequence starts at ``base_delay`` and then follows the
    decorrelated-jitter recurrence ``sleep = min(max_delay,
    uniform(base_delay, 3 * previous))`` — exponential in expectation, but
    desynchronized across clients so a herd of retriers does not stampede
    the server in lockstep. A ``seed`` makes the jitter reproducible
    (chaos tests replay plans and assert *identical* counters); ``None``
    draws fresh entropy.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ConfigurationError(f"base_delay must be non-negative, got {self.base_delay}")
        if self.max_delay < self.base_delay:
            raise ConfigurationError(
                f"max_delay {self.max_delay} must be >= base_delay {self.base_delay}"
            )

    def backoffs(self) -> Iterator[float]:
        """Infinite backoff-delay sequence (one value per retry)."""
        rng = random.Random(None if self.seed is None else derive_seed(self.seed, "retry"))
        delay = self.base_delay
        while True:
            yield delay
            delay = min(self.max_delay, rng.uniform(self.base_delay, 3 * delay))


@dataclass
class ClientStats:
    """Counters for one :class:`ResilientClient` (all monotonic)."""

    attempts: int = 0  # operations attempted, including retries
    retries: int = 0  # attempts beyond the first, per operation
    timeouts: int = 0  # attempts that died on a ServiceTimeout
    overloaded: int = 0  # attempts rejected with the `overloaded` code
    connects: int = 0  # successful TCP connects (reconnects = connects - 1)
    failures: int = 0  # operations that exhausted every attempt

    @property
    def reconnects(self) -> int:
        return max(0, self.connects - 1)

    def as_dict(self) -> dict[str, int]:
        snap = {f.name: getattr(self, f.name) for f in fields(self)}
        snap["reconnects"] = self.reconnects
        return snap


class ResilientClient:
    """Reconnecting, retrying wrapper around :class:`ServiceClient`.

    Connection state is lazy: the first operation connects, any transport
    failure invalidates the connection, and the next attempt reconnects —
    so one flaky link costs one retry, not a dead client. Retry decisions:

    - transport failures (timeout, reset, EOF, garbage) retry only
      *idempotent* operations — GET/STATS/PING by default, everything if
      the client was built with ``retry_unsafe=True``, and per-call
      overrides via ``request(..., idempotent=...)``;
    - an ``overloaded`` rejection retries **any** operation (the server
      refused before reading the request) and raises
      :class:`~repro.errors.ServiceOverloaded` once attempts are spent;
    - protocol-level errors inside an ``ok: false`` response are *not*
      retried — they are answers, not failures.

    A retried GET replays the access against the policy state machine;
    that is the documented cost of at-least-once delivery (see
    ``docs/service.md``), harmless for cache semantics but visible in
    server-side access counters.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry: RetryPolicy | None = None,
        timeout: float | None = DEFAULT_TIMEOUT,
        connect_timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
        retry_unsafe: bool = False,
        frame: str = FRAME_NDJSON,
    ):
        if frame not in FRAMES:
            raise ConfigurationError(f"unknown frame {frame!r}; expected one of {list(FRAMES)}")
        self.host = host
        self.port = port
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retry_unsafe = retry_unsafe
        self.frame = frame
        self.counters = ClientStats()
        self._client: ServiceClient | None = None

    async def close(self) -> None:
        if self._client is not None:
            await self._client.close()
            self._client = None

    async def __aenter__(self) -> "ResilientClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- operations ---------------------------------------------------------
    async def request(self, req: Request, *, idempotent: bool | None = None) -> dict[str, Any]:
        if idempotent is None:
            idempotent = self.retry_unsafe or req.op in IDEMPOTENT_OPS
        response = await self._call(lambda c: c.request(req), retryable=idempotent)
        assert isinstance(response, dict)
        return response

    async def get(self, key: int) -> dict[str, Any]:
        return await self.request(Request("GET", key=key))

    async def put(self, key: int, value: Any, *, idempotent: bool | None = None) -> dict[str, Any]:
        return await self.request(Request("PUT", key=key, value=value), idempotent=idempotent)

    async def delete(self, key: int, *, idempotent: bool | None = None) -> dict[str, Any]:
        return await self.request(Request("DEL", key=key), idempotent=idempotent)

    async def mget(self, keys: Sequence[int]) -> dict[str, Any]:
        return await self.request(Request("MGET", keys=tuple(keys)))

    async def mput(
        self, keys: Sequence[int], values: Sequence[Any], *, idempotent: bool | None = None
    ) -> dict[str, Any]:
        return await self.request(
            Request("MPUT", keys=tuple(keys), values=tuple(values)), idempotent=idempotent
        )

    async def stats(self) -> dict[str, Any]:
        response = await self.request(Request("STATS"))
        if not response.get("ok"):
            raise ServiceError(f"STATS failed: {response.get('error')}")
        return response["stats"]

    async def ping(self) -> bool:
        response = await self.request(Request("PING"))
        return bool(response.get("pong"))

    async def metrics(self) -> str:
        """Prometheus text exposition from the in-band ``METRICS`` op."""
        response = await self.request(Request("METRICS"))
        if not response.get("ok"):
            raise ServiceError(f"METRICS failed: {response.get('error')}")
        return response["text"]

    async def get_window(self, keys: Sequence[int], *, batch: int = 1) -> list[dict[str, Any]]:
        """Pipelined (optionally MGET-batched) GETs with whole-window retry.

        A window that fails mid-flight is discarded and replayed from its
        first key on a fresh connection (the framing of a half-read window
        is unrecoverable). GETs are idempotent for cache semantics, so the
        only side effect is extra accesses in server counters.
        """
        if not keys:
            return []
        responses = await self._call(lambda c: c.get_window(keys, batch=batch), retryable=True)
        assert isinstance(responses, list)
        return responses

    # -- retry engine -------------------------------------------------------
    async def _call(
        self,
        op: Callable[[ServiceClient], Awaitable[Any]],
        *,
        retryable: bool,
    ) -> Any:
        backoffs = self.retry.backoffs()
        last_error: ServiceError | None = None
        for attempt in range(self.retry.max_attempts):
            if attempt:
                self.counters.retries += 1
                await asyncio.sleep(next(backoffs))
            self.counters.attempts += 1
            try:
                client = await self._ensure_connected()
                result = await op(client)
                self._raise_if_overloaded(result)
            except ServiceOverloaded as exc:
                self.counters.overloaded += 1
                last_error = exc
                await self._invalidate()  # server closes overloaded conns; follow suit
            except ServiceTimeout as exc:
                self.counters.timeouts += 1
                last_error = exc
                await self._invalidate()
                if not retryable:
                    break
            except ServiceError as exc:
                last_error = exc
                await self._invalidate()
                if not retryable:
                    break
            else:
                return result
        self.counters.failures += 1
        assert last_error is not None
        raise last_error

    async def _ensure_connected(self) -> ServiceClient:
        if self._client is None:
            # frame negotiation happens inside connect(), so every
            # reconnect re-negotiates — a fresh connection starts in
            # NDJSON no matter what the dead one had agreed to
            self._client = await ServiceClient.connect(
                self.host,
                self.port,
                timeout=self.timeout,
                connect_timeout=self.connect_timeout,
                frame=self.frame,
            )
            self.counters.connects += 1
        return self._client

    async def _invalidate(self) -> None:
        if self._client is not None:
            client, self._client = self._client, None
            await client.close()

    @staticmethod
    def _raise_if_overloaded(result: Any) -> None:
        payloads = result if isinstance(result, list) else [result]
        for payload in payloads:
            if isinstance(payload, dict) and payload.get("code") == CODE_OVERLOADED:
                raise ServiceOverloaded(str(payload.get("error", "server overloaded")))
