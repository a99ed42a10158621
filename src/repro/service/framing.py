"""Incremental frame splitting, shared by server, proxy, and tests.

Both wire framings (newline-delimited JSON and tag + length binary, see
:mod:`repro.service.protocol`) coexist on one TCP stream: a frame's first
byte decides its framing. NDJSON frames begin with JSON text (always
ASCII ``{`` in practice, never a UTF-8 continuation byte), binary frames
begin with :data:`~repro.service.protocol.BINARY_TAG` (``0xB1``, a
continuation byte). That one-byte disambiguation is what lets the server
accept both framings without negotiation state, and lets the chaos proxy
apply faults *per frame* without knowing what the endpoints agreed on.

:class:`FrameSplitter` is a plain incremental parser: feed it byte
chunks, get back complete :class:`Frame` objects. It never inspects JSON
— only framing — so corrupted bodies pass straight through (the decoder
at the endpoint answers them), while framing violations (an oversized
line, a binary header declaring an oversized body) raise
:class:`~repro.errors.ProtocolError`, after which the stream is
unparseable and the connection must be dropped.

:func:`read_binary_frame` is the reading side's counterpart for peers
that only ever answer in binary (the client's binary mode, the router's
worker links): one response frame off a stream reader, bounded and
never mistaken for a complete frame when the stream is cut.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.service.protocol import (
    BINARY_HEADER_SIZE,
    BINARY_TAG,
    MAX_FRAME_BYTES,
    TRACE_TAG,
)

__all__ = ["Frame", "FrameSplitter", "read_binary_frame"]


@dataclass(frozen=True)
class Frame:
    """One complete wire frame.

    ``raw`` is the exact byte sequence on the wire (framing included) —
    what a proxy forwards, truncates, or corrupts. ``payload`` is the
    JSON body: for NDJSON it equals ``raw`` (the decoder strips the
    newline), for binary it is ``raw`` minus the 5-byte header — and
    minus the context prefix for traced frames (tag 0xB2), whose wire
    trace context lands in ``trace`` instead.
    """

    raw: bytes
    payload: bytes
    binary: bool
    trace: str | None = None


class FrameSplitter:
    """Split a byte stream into frames, auto-detecting the framing per frame.

    ``feed`` returns every frame completed by the new chunk; partial
    frames stay buffered. ``max_frame`` bounds both framings (for NDJSON,
    the bound applies to the newline-terminated line; a buffer that grows
    past it without a newline is already a violation — no need to wait
    for one).
    """

    def __init__(self, *, max_frame: int = MAX_FRAME_BYTES):
        if max_frame < BINARY_HEADER_SIZE + 1:
            raise ValueError(f"max_frame must be >= {BINARY_HEADER_SIZE + 1}, got {max_frame}")
        self.max_frame = max_frame
        self._buf = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered toward an incomplete frame (0 = at a boundary)."""
        return len(self._buf)

    def feed(self, data: bytes | bytearray) -> list[Frame]:
        """Consume a chunk; return the frames it completed, in order."""
        self._buf += data
        frames: list[Frame] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _next_frame(self) -> Frame | None:
        buf = self._buf
        if not buf:
            return None
        if buf[0] == BINARY_TAG or buf[0] == TRACE_TAG:
            if len(buf) < BINARY_HEADER_SIZE:
                return None  # header still arriving
            length = int.from_bytes(buf[1:BINARY_HEADER_SIZE], "big")
            total = BINARY_HEADER_SIZE + length
            if total > self.max_frame:
                raise ProtocolError(
                    f"binary frame of {total} bytes exceeds {self.max_frame}"
                )
            if len(buf) < total:
                return None
            raw = bytes(buf[:total])
            del buf[:total]
            if raw[0] == BINARY_TAG:
                return Frame(raw=raw, payload=raw[BINARY_HEADER_SIZE:], binary=True)
            return self._traced_frame(raw, length)
        end = buf.find(b"\n")
        return self._ndjson_frame(buf, end)

    @staticmethod
    def _traced_frame(raw: bytes, length: int) -> Frame:
        # traced body region: 1-byte context length, ASCII context, JSON body
        if length < 2:
            raise ProtocolError(f"traced frame body of {length} bytes has no room for a context")
        ctx_len = raw[BINARY_HEADER_SIZE]
        if ctx_len == 0 or 1 + ctx_len >= length:
            raise ProtocolError(
                f"traced frame declares a {ctx_len}-byte context in a {length}-byte body"
            )
        ctx_start = BINARY_HEADER_SIZE + 1
        try:
            trace = raw[ctx_start : ctx_start + ctx_len].decode("ascii")
        except UnicodeDecodeError:
            raise ProtocolError("traced frame context is not ASCII") from None
        return Frame(raw=raw, payload=raw[ctx_start + ctx_len :], binary=True, trace=trace)

    def _ndjson_frame(self, buf: bytearray, end: int) -> Frame | None:
        if end < 0:
            if len(buf) > self.max_frame:
                raise ProtocolError(
                    f"line of {len(buf)} bytes and no newline exceeds {self.max_frame}"
                )
            return None
        if end + 1 > self.max_frame:
            raise ProtocolError(f"line of {end + 1} bytes exceeds {self.max_frame}")
        raw = bytes(buf[: end + 1])
        del buf[: end + 1]
        return Frame(raw=raw, payload=raw, binary=False)


async def read_binary_frame(reader: asyncio.StreamReader) -> bytes:
    """Read one binary (tag ``0xB1``) response frame; return its body.

    Like ``StreamReader.readline``, ``b""`` means the stream ended
    cleanly between frames (a response body holds JSON, so it is never
    empty). A wrong tag, an empty body, a header declaring more than
    :data:`~repro.service.protocol.MAX_FRAME_BYTES`, or a stream that ends
    mid-frame raise :class:`~repro.errors.ProtocolError`.
    """
    try:
        header = await reader.readexactly(BINARY_HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""
        raise _truncated(len(exc.partial)) from None
    tag, length = header[0], int.from_bytes(header[1:], "big")
    if tag != BINARY_TAG:
        raise ProtocolError(f"bad binary frame tag 0x{tag:02x}; expected 0x{BINARY_TAG:02x}")
    if length == 0:
        raise ProtocolError("empty binary frame")
    if BINARY_HEADER_SIZE + length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"binary frame of {BINARY_HEADER_SIZE + length} bytes exceeds {MAX_FRAME_BYTES}"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise _truncated(BINARY_HEADER_SIZE + len(exc.partial)) from None


def _truncated(received: int) -> ProtocolError:
    return ProtocolError(f"truncated binary frame: connection closed after {received} bytes")
