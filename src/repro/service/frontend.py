"""The connection front end shared by the cache server and the cluster router.

:class:`~repro.service.server.CacheServer` and
:class:`~repro.cluster.router.RouterServer` accept clients the same way and
differ only in what answers a decoded request, so everything else lives
here once. :class:`Listener` binds, accepts, numbers and tracks connection
tasks, and cancels them on stop (the fault-injection
:class:`~repro.service.faults.ChaosProxy` is one too). :class:`FrontEnd`
adds the wire protocol. Per connection:

- **admission** — past ``max_connections`` a connection gets one
  ``overloaded`` answer and is closed (``rejected``);
- **a connection loop** — reads bytes, splits them into frames with a
  :class:`~repro.service.framing.FrameSplitter`, answers garbage, refused
  framings and ``HELLO`` itself and hands every other request, in frame
  order, to the subclass's :meth:`~FrontEnd._dispatch`, which returns a
  *response slot*: the answer's bytes, or an awaitable yielding them (the
  router sends upstream at once and settles later, which pipelines its
  links). The loop queues each slot for the flusher; the queue holds at
  most ``max_inflight`` slots, and while it is full the socket is not read
  and TCP pushes back on the sender;
- **a flusher task** — settles the slots in order, writes them, and drains
  under ``write_timeout``. A client that will not read for that long
  (``write_timeouts``), or a slot that raises, drops the connection.

An oversized frame is answered with ``overflow`` and ends the connection;
at EOF the slots already queued are still flushed.

**Request latency** has one definition for both servers: from the moment
the connection loop starts answering the frame to the moment the flusher
hands the settled response to the transport. **Spans**: a traced request
opens ``<span_name>.request`` (joining the client's trace, never rooting
one) with a back-dated ``.parse`` child and a ``.queue`` child for its wait
in the response queue; the flusher ends them.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Awaitable, TypeVar, Union

from repro.errors import ConfigurationError, ProtocolError, ReproError, ServiceError
from repro.obs import tracing
from repro.service.framing import Frame, FrameSplitter
from repro.service.protocol import (
    CODE_INTERNAL,
    CODE_OVERFLOW,
    CODE_REJECTED,
    FEATURES,
    FRAME_BINARY,
    FRAME_NDJSON,
    FRAMES,
    MAX_LINE_BYTES,
    RESPONSE_GET_HIT,
    RESPONSE_GET_MISS,
    Request,
    decode_request,
    encode_response,
    error_payload,
    overload_payload,
)

__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_WRITE_TIMEOUT",
    "FrontEnd",
    "Listener",
    "Slot",
    "encode_payload",
]

#: Default deadline for draining one response to a slow client, seconds.
DEFAULT_WRITE_TIMEOUT = 30.0

#: Default per-connection pipelined-request buffer (responses queued for
#: the flusher before the front end stops reading that connection).
DEFAULT_MAX_INFLIGHT = 32

#: A response slot: the framed answer, or an awaitable that yields it.
Slot = Union[bytes, Awaitable[bytes]]

_L = TypeVar("_L", bound="Listener")

#: Socket read size of the connection loop.
_READ_CHUNK = 1 << 16

#: Response-queue sentinel: the end of a connection's response stream.
_DONE = object()

_OVERFLOW_BYTES = encode_response(error_payload("frame too long", code=CODE_OVERFLOW))

#: Pre-encoded bytes of the template GET responses, indexed by ``binary``.
_HIT_BYTES = (
    encode_response(RESPONSE_GET_HIT),
    encode_response(RESPONSE_GET_HIT, frame=FRAME_BINARY),
)
_MISS_BYTES = (
    encode_response(RESPONSE_GET_MISS),
    encode_response(RESPONSE_GET_MISS, frame=FRAME_BINARY),
)


def encode_payload(payload: dict[str, Any], binary: bool) -> bytes:
    """Frame a response mapping in the client's framing.

    The template GET answers are recognised by identity and sent as
    pre-encoded bytes, never re-serialized.
    """
    if payload is RESPONSE_GET_HIT:
        return _HIT_BYTES[binary]
    if payload is RESPONSE_GET_MISS:
        return _MISS_BYTES[binary]
    return encode_response(payload, frame=FRAME_BINARY if binary else FRAME_NDJSON)


class Listener:
    """A TCP listener that tracks one task per accepted connection.

    Subclasses implement :meth:`_handle_connection`; ``port=0`` binds an
    ephemeral port, readable from :attr:`port` after :meth:`start`.
    ``async with listener:`` brackets :meth:`start` and :meth:`stop`.
    """

    #: ``StreamReader`` buffer limit of accepted connections.
    stream_limit = MAX_LINE_BYTES

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._accepted = 0

    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately)."""
        if self._server is not None:
            raise ServiceError(f"{type(self).__name__} is already running")
        try:
            self._server = await asyncio.start_server(
                self._accept, self.host, self.port, limit=self.stream_limit
            )
        except OSError as exc:
            raise ServiceError(f"cannot bind {self.host}:{self.port}: {exc}") from exc
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or task cancellation)."""
        if self._server is None:
            raise ServiceError("call start() before serve_forever()")
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, cancel every connection task, release the port."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        for task in tuple(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._server = None

    @property
    def is_serving(self) -> bool:
        return self._server is not None

    async def __aenter__(self: _L) -> _L:
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        index = self._accepted
        self._accepted += 1
        try:
            await self._handle_connection(reader, writer, index)
        finally:
            self._conn_tasks.discard(task)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, index: int
    ) -> None:
        raise NotImplementedError


class FrontEnd(Listener):
    """The wire-protocol listener; subclasses supply :meth:`_dispatch`.

    Subclasses also provide :attr:`metrics` (a
    :class:`~repro.service.metrics.ConnectionMetrics`) and
    :attr:`span_name`. The knobs are those of
    :class:`~repro.service.server.CacheServer`.
    """

    span_name: str
    metrics: Any

    def __init__(
        self,
        *,
        host: str,
        port: int,
        max_connections: int | None,
        max_inflight: int,
        write_timeout: float | None,
        frames: tuple[str, ...],
    ):
        if max_connections is not None and max_connections < 1:
            raise ConfigurationError(
                f"max_connections must be >= 1 or None, got {max_connections}"
            )
        if max_inflight < 1:
            raise ConfigurationError(f"max_inflight must be >= 1, got {max_inflight}")
        if write_timeout is not None and write_timeout <= 0:
            raise ConfigurationError(
                f"write_timeout must be positive or None, got {write_timeout}"
            )
        if not frames or any(f not in FRAMES for f in frames):
            raise ConfigurationError(
                f"frames must be a non-empty subset of {list(FRAMES)}, got {frames!r}"
            )
        super().__init__(host, port)
        self.max_connections = max_connections
        self.max_inflight = max_inflight
        self.write_timeout = write_timeout
        self.frames = tuple(frames)

    async def _dispatch(
        self, frame: Frame, request: Request, conn_index: int, span: tracing.Span | None
    ) -> Slot:
        """Start answering one decoded request; return its response slot.

        Called in frame order. ``conn_index`` numbers the connection;
        ``span`` is the request's span (``None`` when untraced). A
        :class:`~repro.errors.ReproError` becomes a ``rejected`` answer,
        any other exception an ``internal-error`` one.
        """
        raise NotImplementedError

    # -- one connection -------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, index: int
    ) -> None:
        metrics = self.metrics
        metrics.connections_opened += 1
        try:
            if self.max_connections is not None and len(self._conn_tasks) > self.max_connections:
                # Load shedding: answer fast so the client can back off and
                # retry, instead of silently queueing into a death spiral.
                metrics.rejected += 1
                writer.write(encode_response(overload_payload()))
                await self._drain(writer)
            else:
                await self._serve_connection(reader, writer, index)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client vanished or shutting down; nothing to answer
        finally:
            metrics.connections_closed += 1
            writer.close()
            # CancelledError is a BaseException: during shutdown the task
            # is cancelled while awaiting wait_closed, and letting it
            # escape here prints "exception never retrieved" noise.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, index: int
    ) -> None:
        loop = asyncio.get_running_loop()
        metrics = self.metrics
        queue_span = f"{self.span_name}.queue"
        responses: asyncio.Queue[Any] = asyncio.Queue(maxsize=self.max_inflight)
        transport = writer.transport
        splitter = FrameSplitter()
        flushing = asyncio.create_task(self._flush(writer, responses))
        try:
            while not transport.is_closing():  # closing: dropped by the flusher
                try:
                    chunk = await reader.read(_READ_CHUNK)
                except (ConnectionResetError, BrokenPipeError, OSError):
                    chunk = b""
                if not chunk:
                    break
                try:
                    frames = splitter.feed(chunk)
                except ProtocolError:
                    # the stream is no longer parseable: answer once, then
                    # end this connection only
                    metrics.errors += 1
                    await responses.put((loop.time(), None, _OVERFLOW_BYTES, None, None))
                    break
                for frame in frames:
                    if transport.is_closing():
                        break
                    start = loop.time()
                    op, slot, span = await self._answer(frame, index)
                    # opened at enqueue, ended by the flusher when it pops the
                    # slot: head-of-line blocking shows up as its own span
                    qspan = span.start_child(queue_span) if span is not None else None
                    # blocks while max_inflight answers are queued, and the
                    # socket is not read meanwhile: TCP pushes back
                    await responses.put((start, op, slot, span, qspan))
        finally:
            try:
                # let the flusher finish everything already queued
                await responses.put(_DONE)
                await flushing
            finally:
                if not flushing.done():
                    flushing.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await flushing
                _discard_queued(responses)

    async def _answer(
        self, frame: Frame, index: int
    ) -> tuple[str | None, Slot, tracing.Span | None]:
        """Decode one frame and start its answer: ``(op, slot, span)``.

        The op is ``None`` when the frame never parsed into a request —
        the latency of answering garbage still lands in the combined
        histogram, just not in any per-op one.
        """
        metrics = self.metrics
        binary = frame.binary
        t0 = tracing.clock() if tracing.ENABLED else 0
        try:
            request = decode_request(frame.payload)
        except ProtocolError as exc:
            metrics.errors += 1
            return None, encode_payload(error_payload(str(exc)), binary), None
        op = request.op
        span = None
        if tracing.ENABLED:
            # join the client's trace, never root one: a traced binary
            # frame carries the context in its header, an NDJSON request
            # in its "trace" field, and the header wins
            span = tracing.start_remote(
                frame.trace or request.trace,
                f"{self.span_name}.request",
                op=op,
                activate=False,
            )
            if span is not None:
                span.child(f"{self.span_name}.parse", start_ns=t0)
        if op == "HELLO":
            return op, encode_payload(self._hello(request), binary), span
        arrived = FRAME_BINARY if binary else FRAME_NDJSON
        if arrived not in self.frames:
            metrics.errors += 1
            payload = error_payload(f"{arrived} framing not accepted here; negotiate via HELLO")
            return op, encode_payload(payload, binary), span
        try:
            return op, await self._dispatch(frame, request, index, span), span
        except ReproError as exc:
            metrics.errors += 1
            payload = error_payload(str(exc), code=CODE_REJECTED)
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            metrics.errors += 1
            payload = error_payload(f"{type(exc).__name__}: {exc}", code=CODE_INTERNAL)
        return op, encode_payload(payload, binary), span

    def _hello(self, request: Request) -> dict[str, Any]:
        requested = request.frame or FRAME_NDJSON
        if requested not in self.frames:
            return error_payload(
                f"{requested} framing not accepted here; accepted: {list(self.frames)}"
            )
        return {
            "ok": True,
            "frame": requested,
            "frames": list(self.frames),
            "features": list(FEATURES),
        }

    async def _flush(self, writer: asyncio.StreamWriter, responses: asyncio.Queue) -> None:
        """Settle and write response slots in request order.

        After the connection is dropped the flusher keeps consuming (and
        settling) slots without writing, so the connection loop can never
        block on a full queue; it sees the closing transport and stops.
        """
        loop = asyncio.get_running_loop()
        metrics = self.metrics
        transport = writer.transport
        while True:
            item = await responses.get()
            if item is _DONE:
                return
            start, op, slot, span, qspan = item
            if qspan is not None:
                qspan.end()
            if not isinstance(slot, bytes):
                try:
                    slot = await slot
                except Exception:
                    # a slot bug must drop this connection, never wedge it
                    metrics.errors += 1
                    if span is not None:
                        span.end(error=True)
                    transport.abort()
                    continue
            if transport.is_closing():
                if span is not None:
                    span.end(aborted=True)
                continue
            metrics.record_op(op, loop.time() - start)
            writer.write(slot)
            ok = await self._drain(writer)
            if span is not None:
                span.end()
            if not ok:
                transport.abort()  # unsent bytes are discarded; the reader sees EOF

    async def _drain(self, writer: asyncio.StreamWriter) -> bool:
        """Flush to the client under ``write_timeout``; False = drop them."""
        transport = writer.transport
        if transport.is_closing():
            return False
        if transport.get_write_buffer_size() <= transport.get_write_buffer_limits()[1]:
            return True  # under the high-water mark drain() returns at once
        try:
            if self.write_timeout is None:
                await writer.drain()
            else:
                await asyncio.wait_for(writer.drain(), self.write_timeout)
        except asyncio.TimeoutError:
            self.metrics.write_timeouts += 1
            return False
        except (ConnectionResetError, BrokenPipeError, OSError):
            return False
        return True


def _discard_queued(responses: asyncio.Queue) -> None:
    """Close never-awaited slots and their spans on connection teardown."""
    while True:
        try:
            item = responses.get_nowait()
        except asyncio.QueueEmpty:
            return
        if item is _DONE:
            continue
        _, _, slot, span, qspan = item
        if not isinstance(slot, bytes) and hasattr(slot, "close"):
            slot.close()
        for sp in (qspan, span):
            if sp is not None:
                sp.end(aborted=True)
