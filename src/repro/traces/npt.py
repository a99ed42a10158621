"""``.npt`` — the compact chunked binary trace format.

``.npz`` (one compressed array + JSON metadata) is fine for small
traces but cannot stream: NumPy must inflate the whole array to read
any of it. ``.npt`` is the streaming-native alternative: raw
little-endian page-id chunks written back to back, each downcast to
the smallest unsigned dtype that holds its max id (a zipf trace over
16M pages stores 4 bytes/access instead of 8), plus a JSON index
footer that makes the file **seekable** — any chunk, or any contiguous
window of chunks, can be replayed without touching the rest.

Layout (all integers little-endian)::

    offset 0         magic  b"REPRONPT"
    offset 8         version byte (currently 1)
    offset 9         chunk 0 payload  (count * itemsize bytes)
                     chunk 1 payload
                     ...
    end-16-len       JSON footer: {"version", "name", "params",
                     "length", "chunks": [{"offset", "count", "dtype"}...]}
    end-16           u64 footer byte length
    end-8            tail magic  b"TPNORPER"

The footer lives at the *end* so writing is single-pass append-only;
the fixed-size trailer makes it O(1) to locate. Truncation anywhere —
lost tail, clipped footer, clipped chunk payload — is detected and
raised as :class:`~repro.errors.TraceFormatError`, never returned as
silently shortened data.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, TraceError, TraceFormatError
from repro.traces.base import Trace, as_page_array
from repro.traces.streaming import DEFAULT_CHUNK, TraceStream, as_trace_stream

__all__ = ["NptWriter", "NptTraceStream", "write_npt", "read_npt"]

MAGIC = b"REPRONPT"
TAIL_MAGIC = b"TPNORPER"
VERSION = 1
_TRAILER = struct.Struct("<Q8s")  # footer length + tail magic

#: allowed on-disk dtypes, smallest first (selection order for writes)
_DTYPES = ("<u1", "<u2", "<u4", "<i8")
_DTYPE_MAX = {"<u1": 1 << 8, "<u2": 1 << 16, "<u4": 1 << 32}


def _pick_dtype(max_page: int) -> str:
    for code in _DTYPES[:-1]:
        if max_page < _DTYPE_MAX[code]:
            return code
    return "<i8"


@dataclass(frozen=True)
class _ChunkEntry:
    offset: int
    count: int
    dtype: str

    @property
    def nbytes(self) -> int:
        return self.count * np.dtype(self.dtype).itemsize


class NptWriter:
    """Append-only single-pass ``.npt`` writer.

    Feed page chunks via :meth:`append`; :meth:`close` (or exiting the
    context manager) seals the file with the index footer. A file that
    was never closed has no valid trailer and is rejected by readers —
    half-written output cannot masquerade as a complete trace.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        name: str = "trace",
        params: Mapping | None = None,
    ) -> None:
        self.path = Path(path)
        self._handle = self.path.open("wb")
        self._handle.write(MAGIC)
        self._handle.write(bytes([VERSION]))
        self._index: list[_ChunkEntry] = []
        self._length = 0
        self._name = name
        self._params = dict(params or {})
        self._closed = False

    def append(self, pages: np.ndarray | Sequence[int]) -> None:
        """Write one chunk (empty chunks are skipped)."""
        if self._closed:
            raise TraceError(f"NptWriter for {self.path} is already closed")
        block = as_page_array(pages)
        if block.size == 0:
            return
        code = _pick_dtype(int(block.max()))
        payload = block.astype(np.dtype(code), copy=False)
        entry = _ChunkEntry(self._handle.tell(), int(block.size), code)
        self._handle.write(payload.tobytes())
        self._index.append(entry)
        self._length += entry.count

    def close(self) -> Path:
        if self._closed:
            return self.path
        footer = json.dumps(
            {
                "version": VERSION,
                "name": self._name,
                "params": self._params,
                "length": self._length,
                "chunks": [
                    {"offset": e.offset, "count": e.count, "dtype": e.dtype}
                    for e in self._index
                ],
            }
        ).encode("utf-8")
        self._handle.write(footer)
        self._handle.write(_TRAILER.pack(len(footer), TAIL_MAGIC))
        self._handle.close()
        self._closed = True
        return self.path

    def __enter__(self) -> "NptWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # leave no sealed-looking file behind a failed write
            self._handle.close()
            self._closed = True


def write_npt(
    trace: "TraceStream | Trace | np.ndarray | Sequence[int]",
    path: str | os.PathLike,
    *,
    chunk: int = DEFAULT_CHUNK,
) -> Path:
    """Write any trace or stream to ``path`` as ``.npt`` (one pass)."""
    stream = as_trace_stream(trace, chunk=chunk)
    with NptWriter(path, name=stream.name, params=dict(stream.params)) as writer:
        for block in stream.chunks():
            writer.append(block)
    return Path(path)


def _parse_index(path: Path) -> tuple[dict, list[_ChunkEntry], int]:
    """Read and validate the footer; returns (meta, index, data_end)."""
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise TraceError(f"trace file not found: {path}") from exc
    header_len = len(MAGIC) + 1
    if size < header_len + _TRAILER.size:
        raise TraceFormatError(
            f"file too short ({size} bytes) to be an .npt trace", path=path
        )
    with path.open("rb") as handle:
        head = handle.read(header_len)
        if head[: len(MAGIC)] != MAGIC:
            raise TraceFormatError("bad magic — not an .npt trace", path=path)
        version = head[len(MAGIC)]
        if version != VERSION:
            raise TraceFormatError(f"unsupported .npt version {version}", path=path)
        handle.seek(size - _TRAILER.size)
        footer_len, tail = _TRAILER.unpack(handle.read(_TRAILER.size))
        if tail != TAIL_MAGIC:
            raise TraceFormatError(
                "missing tail magic — file is truncated or was never sealed",
                path=path,
            )
        data_end = size - _TRAILER.size - footer_len
        if footer_len <= 0 or data_end < header_len:
            raise TraceFormatError(
                f"implausible footer length {footer_len}", path=path
            )
        handle.seek(data_end)
        try:
            meta = json.loads(handle.read(footer_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceFormatError("corrupt index footer", path=path) from exc
    if not isinstance(meta, dict) or "chunks" not in meta:
        raise TraceFormatError("index footer missing 'chunks'", path=path)
    if not isinstance(meta["chunks"], list):
        raise TraceFormatError("index footer 'chunks' is not a list", path=path)
    if not isinstance(meta.get("params") or {}, dict):
        raise TraceFormatError("index footer 'params' is not an object", path=path)
    index: list[_ChunkEntry] = []
    for i, raw in enumerate(meta["chunks"]):
        try:
            entry = _ChunkEntry(int(raw["offset"]), int(raw["count"]), str(raw["dtype"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed index entry {i}", path=path) from exc
        if entry.dtype not in _DTYPES:
            raise TraceFormatError(
                f"index entry {i} has unknown dtype {entry.dtype!r}", path=path
            )
        if entry.count <= 0 or entry.offset < header_len:
            raise TraceFormatError(f"index entry {i} out of bounds", path=path)
        if entry.offset + entry.nbytes > data_end:
            raise TraceFormatError(
                f"index entry {i} extends past the data region "
                f"(offset {entry.offset} + {entry.nbytes} bytes > {data_end}) — "
                "chunk payload is truncated",
                path=path,
            )
        index.append(entry)
    return meta, index, data_end


class NptTraceStream(TraceStream):
    """Seekable chunked replay of an ``.npt`` file.

    The index footer is parsed once at construction; ``chunks()`` then
    reads only the selected window ``[start_chunk, stop_chunk)`` of
    stored chunks, so shards of a huge trace replay independently
    (:meth:`chunk_slice` builds the shard streams). With ``chunk`` set,
    stored chunks are re-buffered into exactly ``chunk``-sized outputs
    (except the last); otherwise the file's native chunking is yielded.
    Chunks come out in the stored dtype (``uint8`` … ``int64``, per
    chunk), as read-only views of the payload just read: the one
    widening to ``int64`` happens downstream, in the
    :class:`~repro.traces.streaming.Prefetcher` ring or at ``policy.run``.

    Pickles as (path, window, chunk) — workers re-parse the index on
    first use, so shipping one to a ``run_sweep`` pool costs bytes.
    """

    cheap_pickle = True

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        chunk: int | None = None,
        start_chunk: int = 0,
        stop_chunk: int | None = None,
    ) -> None:
        self.path = Path(path)
        if chunk is not None and chunk <= 0:
            raise ConfigurationError(f"chunk must be positive, got {chunk}")
        meta, index, _ = _parse_index(self.path)
        total = len(index)
        if start_chunk < 0 or start_chunk > total:
            raise ConfigurationError(
                f"start_chunk {start_chunk} outside [0, {total}]"
            )
        stop = total if stop_chunk is None else stop_chunk
        if stop < start_chunk or stop > total:
            raise ConfigurationError(
                f"stop_chunk {stop_chunk} outside [{start_chunk}, {total}]"
            )
        self.start_chunk = int(start_chunk)
        self.stop_chunk = int(stop)
        self._index = index
        self._rechunk = None if chunk is None else int(chunk)
        self.name = str(meta.get("name", self.path.stem))
        self.params = dict(meta.get("params") or {})
        window = index[self.start_chunk : self.stop_chunk]
        self.length = sum(e.count for e in window)
        self.chunk = (
            self._rechunk
            if self._rechunk is not None
            else max((e.count for e in window), default=DEFAULT_CHUNK)
        )

    @property
    def num_chunks(self) -> int:
        """Stored chunks in this stream's window."""
        return self.stop_chunk - self.start_chunk

    def chunk_slice(self, start: int, stop: int | None = None) -> "NptTraceStream":
        """A sub-stream over stored chunks ``[start, stop)`` of this window."""
        base = self.start_chunk
        stop_abs = self.stop_chunk if stop is None else base + stop
        return NptTraceStream(
            self.path,
            chunk=self._rechunk,
            start_chunk=base + start,
            stop_chunk=stop_abs,
        )

    def __getstate__(self) -> dict:
        return {
            "path": str(self.path),
            "chunk": self._rechunk,
            "start_chunk": self.start_chunk,
            "stop_chunk": self.stop_chunk,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["path"],
            chunk=state["chunk"],
            start_chunk=state["start_chunk"],
            stop_chunk=state["stop_chunk"],
        )

    def _read_chunk(self, handle, entry: _ChunkEntry) -> np.ndarray:
        """One stored chunk as a read-only view of its payload, in the
        stored dtype (no widening copy)."""
        handle.seek(entry.offset)
        payload = handle.read(entry.nbytes)
        if len(payload) != entry.nbytes:
            raise TraceFormatError(
                f"short read at offset {entry.offset} "
                f"({len(payload)}/{entry.nbytes} bytes) — file truncated",
                path=self.path,
            )
        return np.frombuffer(payload, dtype=np.dtype(entry.dtype))

    def _read_stored(self) -> Iterator[np.ndarray]:
        with self.path.open("rb") as handle:
            for entry in self._index[self.start_chunk : self.stop_chunk]:
                # yielded straight from the call: this frame keeps no
                # reference, so a payload dies as soon as its consumer
                # drops it, before the next one is read
                yield self._read_chunk(handle, entry)

    def chunks(self) -> Iterator[np.ndarray]:
        if self._rechunk is None:
            yield from self._read_stored()
            return
        want = self._rechunk
        pending: list[np.ndarray] = []
        buffered = 0
        # only `pending` keeps payloads alive across a read, and only the
        # part not yet yielded
        for block in self._read_stored():
            pending.append(block)
            buffered += block.size
            del block
            while buffered >= want:
                merged = pending[0] if len(pending) == 1 else np.concatenate(pending)
                pending = [merged[want:]] if merged.size > want else []
                buffered -= want
                yield merged[:want]
                del merged
        if buffered:
            yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def read_npt(path: str | os.PathLike) -> Trace:
    """Materialize an ``.npt`` file into an in-memory :class:`Trace`."""
    return NptTraceStream(path).materialize()
