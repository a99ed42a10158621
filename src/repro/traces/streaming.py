"""Streaming traces: constant-memory access sequences of unbounded length.

A :class:`TraceStream` is the chunked dual of :class:`~repro.traces.base.Trace`:
instead of one resident ``int64`` array it yields a sequence of bounded
integer ndarray chunks, so a 10⁸-access replay costs O(chunk) memory
end to end. The fast kernels already guarantee bit-exact ``reset=False``
continuations at arbitrary access boundaries (see
:mod:`repro.sim.kernels`), which makes chunk stitching *exactly*
equivalent to the materialized run — the engine entry point is
:func:`repro.sim.engine.run_policy`.

Adapters cover every trace source in the repo:

- :class:`ArrayTraceStream` — wrap an in-memory :class:`Trace`/ndarray;
- :class:`ZipfTraceStream` / :class:`UniformTraceStream` — synthetic
  generators that draw each chunk on demand (the 10⁸-access path);
- :class:`MsrCsvStream` — incremental MSR-format CSV via
  :func:`repro.traces.io.iter_msr_pages`;
- :class:`repro.traces.npt.NptTraceStream` — the seekable ``.npt``
  binary format (re-exported here via :func:`open_trace_stream`).

Two combinators complete the pipeline: :class:`RemappedStream` applies
lazy first-appearance token remapping with a dictionary that spills to
an on-disk ``dbm`` store once it exceeds a resident budget, and
:class:`Prefetcher` double-buffers any stream through a background
reader thread so chunk N+1 is decoded while the kernel runs chunk N.

Every stream is **re-iterable**: each ``chunks()`` call restarts from
the beginning and yields the identical sequence (synthetic adapters
re-derive their RNG from the stored seed), so multi-pass consumers —
warmup analysis, equality tests, repeated sweeps — need no rewind
protocol.
"""

from __future__ import annotations

import contextlib
import dbm
import os
import queue
import tempfile
import threading
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, TraceError
from repro.rng import SeedLike, make_rng
from repro.traces.base import Trace, as_page_array, as_page_block

__all__ = [
    "DEFAULT_CHUNK",
    "TraceStream",
    "ArrayTraceStream",
    "ZipfTraceStream",
    "UniformTraceStream",
    "MsrCsvStream",
    "IncrementalRemapper",
    "RemappedStream",
    "Prefetcher",
    "as_trace_stream",
    "open_trace_stream",
]

#: default accesses per chunk; 1M int64 = 8 MB resident per buffer
DEFAULT_CHUNK = 1_000_000
#: Prefetcher ring buffers: the consumer holds one while the reader fills the other
RING_DEPTH = 2


def _check_chunk(chunk: int) -> int:
    if chunk <= 0:
        raise ConfigurationError(f"chunk must be positive, got {chunk}")
    return int(chunk)


class TraceStream:
    """Base class for chunked access streams.

    Subclasses implement :meth:`chunks` — a fresh iterator of 1-D
    non-negative integer ndarrays, of any integer dtype, per call — and
    set ``name``/``params``/``length``
    (``None`` when the total is unknown up front, e.g. CSV input) and
    ``chunk`` (the nominal chunk size, for reporting). A chunk may be a
    read-only view in its stored dtype (``.npt`` yields ``uint8`` to
    ``int64`` as the file holds them); consumers widen it once, through
    :func:`~repro.traces.base.as_page_array` or the :class:`Prefetcher`
    ring.

    ``cheap_pickle`` marks streams whose pickled form is small (a path
    or generator parameters, not data); :func:`repro.sim.sweep.run_sweep`
    ships those to workers directly and routes everything else through
    a shared-memory segment ring.
    """

    name: str = "stream"
    params: Mapping[str, Any] = {}
    length: int | None = None
    chunk: int = DEFAULT_CHUNK
    cheap_pickle: bool = False

    def chunks(self) -> Iterator[np.ndarray]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[int]:
        for block in self.chunks():
            yield from block.tolist()

    def materialize(self, max_accesses: int | None = None) -> Trace:
        """Collect (a prefix of) the stream into an in-memory trace.

        This is the bridge used by bit-equality tests: the materialized
        prefix fed to ``policy.run`` must produce the identical result
        as streaming the same prefix chunk by chunk.
        """
        parts: list[np.ndarray] = []
        taken = 0
        for block in self.chunks():
            if max_accesses is not None and taken + block.size > max_accesses:
                parts.append(block[: max_accesses - taken].copy())
                taken = max_accesses
                break
            parts.append(block.copy())
            taken += block.size
        pages = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        return Trace(pages, name=self.name, params=dict(self.params))

    def remapped(self, *, max_resident: int = 1 << 20, spill_dir=None) -> "RemappedStream":
        """Wrap this stream in lazy dense token remapping."""
        return RemappedStream(self, max_resident=max_resident, spill_dir=spill_dir)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        length = "?" if self.length is None else self.length
        return f"{type(self).__name__}(name={self.name!r}, length={length}, chunk={self.chunk})"


class ArrayTraceStream(TraceStream):
    """Chunked view over an in-memory trace (zero-copy slices)."""

    def __init__(
        self,
        trace: Trace | np.ndarray | Sequence[int],
        *,
        chunk: int = DEFAULT_CHUNK,
    ) -> None:
        self._pages = as_page_array(trace)
        self.chunk = _check_chunk(chunk)
        if isinstance(trace, Trace):
            self.name = trace.name
            self.params = dict(trace.params)
        else:
            self.name = "array"
            self.params = {}
        self.length = int(self._pages.size)

    def chunks(self) -> Iterator[np.ndarray]:
        pages = self._pages
        for lo in range(0, pages.size, self.chunk):
            yield pages[lo : lo + self.chunk]


class _SyntheticStream(TraceStream):
    """Shared machinery for seeded generators drawing chunks on demand."""

    cheap_pickle = True

    def __init__(self, length: int, *, seed: SeedLike, chunk: int) -> None:
        if length <= 0:
            raise ConfigurationError(f"length must be positive, got {length}")
        self.length = int(length)
        self.seed = seed
        self.chunk = _check_chunk(chunk)

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def _fresh_rng(self) -> np.random.Generator:
        return make_rng(self.seed)

    def chunks(self) -> Iterator[np.ndarray]:
        rng = self._fresh_rng()
        left = self.length
        while left > 0:
            count = min(self.chunk, left)
            yield self._draw(rng, count)
            left -= count


class UniformTraceStream(_SyntheticStream):
    """Streaming counterpart of :func:`repro.traces.synthetic.uniform_trace`.

    Draw-for-draw identical to the materialized generator: ``rng.integers``
    consumes the bit stream in the same order chunked or not, so
    ``stream.materialize() == uniform_trace(...)`` for equal seeds.
    """

    name = "uniform"

    def __init__(
        self,
        num_pages: int,
        length: int,
        *,
        seed: SeedLike = None,
        chunk: int = DEFAULT_CHUNK,
    ) -> None:
        if num_pages <= 0:
            raise ConfigurationError(f"num_pages must be positive, got {num_pages}")
        super().__init__(length, seed=seed, chunk=chunk)
        self.num_pages = int(num_pages)
        self.params = {"num_pages": self.num_pages, "length": self.length}

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.integers(0, self.num_pages, size=count, dtype=np.int64)


class ZipfTraceStream(_SyntheticStream):
    """Streaming Zipf(``alpha``) generator (the 10⁸-access workhorse).

    Keeps only the O(``num_pages``) popularity CDF and rank permutation
    resident — never the access sequence. The rank permutation is drawn
    *before* any uniforms so the per-chunk draws form one contiguous
    uniform stream; this differs from :func:`zipf_trace`'s draw order
    (uniforms first), so the two are distinct-but-deterministic families.
    Equality tests compare against ``stream.materialize()``.
    """

    name = "zipf"

    def __init__(
        self,
        num_pages: int,
        length: int,
        *,
        alpha: float = 1.0,
        seed: SeedLike = None,
        shuffle_ranks: bool = True,
        chunk: int = DEFAULT_CHUNK,
    ) -> None:
        if num_pages <= 0:
            raise ConfigurationError(f"num_pages must be positive, got {num_pages}")
        if alpha < 0:
            raise ConfigurationError(f"alpha must be non-negative, got {alpha}")
        super().__init__(length, seed=seed, chunk=chunk)
        self.num_pages = int(num_pages)
        self.alpha = float(alpha)
        self.shuffle_ranks = bool(shuffle_ranks)
        self.params = {
            "num_pages": self.num_pages,
            "length": self.length,
            "alpha": self.alpha,
        }
        weights = (np.arange(1, self.num_pages + 1, dtype=np.float64)) ** (-self.alpha)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        self._cdf = cdf

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_cdf"]  # recomputable; keeps the pickled form tiny
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        weights = (np.arange(1, self.num_pages + 1, dtype=np.float64)) ** (-self.alpha)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        self._cdf = cdf

    def chunks(self) -> Iterator[np.ndarray]:
        rng = self._fresh_rng()
        perm = (
            rng.permutation(self.num_pages).astype(np.int64) if self.shuffle_ranks else None
        )
        left = self.length
        while left > 0:
            count = min(self.chunk, left)
            ranks = np.searchsorted(self._cdf, rng.random(count), side="left").astype(
                np.int64
            )
            yield perm[ranks] if perm is not None else ranks
            left -= count


class MsrCsvStream(TraceStream):
    """Stream page accesses out of an MSR-format CSV file incrementally.

    A thin re-iterable wrapper over :func:`repro.traces.io.iter_msr_pages`;
    the file is reopened on every ``chunks()`` call. ``length`` is unknown
    (``None``) until a full pass completes, then holds that pass's count.
    """

    cheap_pickle = True

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        block_bytes: int | None = None,
        request_types: Sequence[str] = ("Read", "Write"),
        expand_multiblock: bool = True,
        max_accesses: int | None = None,
        chunk: int = DEFAULT_CHUNK,
    ) -> None:
        from repro.traces.io import DEFAULT_BLOCK_BYTES

        self.path = Path(path)
        if not self.path.exists():
            raise TraceError(f"trace file not found: {self.path}")
        self.block_bytes = DEFAULT_BLOCK_BYTES if block_bytes is None else int(block_bytes)
        self.request_types = tuple(request_types)
        self.expand_multiblock = bool(expand_multiblock)
        self.max_accesses = max_accesses
        self.chunk = _check_chunk(chunk)
        self.name = self.path.stem
        self.params = {"format": "msr", "block_bytes": self.block_bytes}
        self.length = None

    def chunks(self) -> Iterator[np.ndarray]:
        from repro.traces.io import iter_msr_pages

        seen = 0
        for block in iter_msr_pages(
            self.path,
            block_bytes=self.block_bytes,
            request_types=self.request_types,
            expand_multiblock=self.expand_multiblock,
            max_accesses=self.max_accesses,
            chunk=self.chunk,
        ):
            seen += block.size
            yield block
        self.length = seen


class IncrementalRemapper:
    """Dense page-id renumbering with a spillable dictionary.

    Assigns each distinct page id a token ``0..k-1`` on first appearance
    and replays that assignment for every later occurrence. The hot map
    is an in-memory dict; once it exceeds ``max_resident`` entries it is
    flushed into an on-disk ``dbm`` store, so remapping a trace with
    billions of distinct ids costs bounded RAM (at the price of disk
    lookups for cold ids).

    New ids inside one chunk are numbered in ascending id order (the
    chunk is deduplicated via ``np.unique`` so per-chunk Python work is
    O(distinct), not O(chunk)); the numbering is deterministic for a
    given chunk sequence, and — crucially — identical whether or not
    spilling kicked in.
    """

    def __init__(self, *, max_resident: int = 1 << 20, spill_dir=None) -> None:
        if max_resident <= 0:
            raise ConfigurationError(
                f"max_resident must be positive, got {max_resident}"
            )
        self._hot: dict[int, int] = {}
        self._max_resident = int(max_resident)
        self._spill_dir = spill_dir
        self._store = None
        self._store_path: Path | None = None
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._next = 0
        self._spills = 0

    @property
    def num_tokens(self) -> int:
        """Distinct ids seen so far (== next token to be assigned)."""
        return self._next

    @property
    def spills(self) -> int:
        """How many times the hot map overflowed to disk."""
        return self._spills

    def _ensure_store(self):
        if self._store is None:
            if self._spill_dir is None:
                self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-remap-")
                base = Path(self._tmpdir.name)
            else:
                base = Path(self._spill_dir)
                base.mkdir(parents=True, exist_ok=True)
            self._store_path = base / "remap.dbm"
            self._store = dbm.open(str(self._store_path), "c")
        return self._store

    def _spill(self) -> None:
        store = self._ensure_store()
        for page, token in self._hot.items():
            store[str(page)] = str(token)
        self._hot.clear()
        self._spills += 1

    def remap(self, pages: np.ndarray) -> np.ndarray:
        """Translate one chunk of page ids into dense tokens."""
        if pages.size == 0:
            return np.empty(0, dtype=np.int64)
        uniq, inverse = np.unique(pages, return_inverse=True)
        lut = np.empty(uniq.size, dtype=np.int64)
        hot = self._hot
        store = self._store
        for i, page in enumerate(uniq.tolist()):
            token = hot.get(page)
            if token is None and store is not None:
                raw = store.get(str(page))
                if raw is not None:
                    token = int(raw)
            if token is None:
                token = self._next
                self._next = token + 1
                hot[page] = token
                if len(hot) > self._max_resident:
                    self._spill()
            lut[i] = token
        return lut[inverse]

    def close(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "IncrementalRemapper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RemappedStream(TraceStream):
    """Apply :class:`IncrementalRemapper` lazily over an inner stream.

    Each ``chunks()`` pass starts a *fresh* remapper, so re-iteration
    yields the same token sequence every time.
    """

    def __init__(
        self,
        inner: TraceStream,
        *,
        max_resident: int = 1 << 20,
        spill_dir=None,
    ) -> None:
        self._inner = inner
        self._max_resident = int(max_resident)
        self._spill_dir = spill_dir
        self.name = inner.name
        self.params = {**dict(inner.params), "remapped": True}
        self.length = inner.length
        self.chunk = inner.chunk
        self.cheap_pickle = inner.cheap_pickle

    def chunks(self) -> Iterator[np.ndarray]:
        with IncrementalRemapper(
            max_resident=self._max_resident, spill_dir=self._spill_dir
        ) as remapper:
            for block in self._inner.chunks():
                yield remapper.remap(block)


class Prefetcher:
    """Double-buffered background decoding of a stream.

    A reader thread takes a free slot of a ring of ``RING_DEPTH`` reusable
    ``int64`` buffers, pulls the next chunk from the source, and widens
    it straight into that slot with one casting assignment, so chunk N+1
    decodes while the consumer works on chunk N. At any time the ring
    holds its two buffers and the reader at most one source chunk in the
    source's own dtype. Each chunk is validated as
    :func:`~repro.traces.base.as_page_array` validates a trace: a
    non-integer, negative or multi-dimensional chunk raises
    :class:`~repro.errors.TraceError` instead of being truncated into
    the ring. Yielded arrays are **read-only views valid only until the
    next iteration step** — the consumer must finish with (or copy) a
    chunk before advancing, which is exactly the discipline of the
    kernel loop in :func:`repro.sim.engine.run_policy`.

    Exceptions in the reader propagate to the consumer; breaking out of
    the iteration early shuts the thread down cleanly.
    """

    def __init__(self, source: "TraceStream | Iterator[np.ndarray]"):
        self._source = source

    def __iter__(self) -> Iterator[np.ndarray]:
        if isinstance(self._source, TraceStream):
            inner = self._source.chunks()
        else:
            inner = iter(self._source)
        ready: queue.Queue = queue.Queue(maxsize=RING_DEPTH)
        free: queue.Queue = queue.Queue()
        for _ in range(RING_DEPTH):
            free.put(None)  # buffer slots, allocated lazily on first use
        stop = threading.Event()

        def fill(buf: np.ndarray | None) -> tuple[np.ndarray, int] | None:
            """Widen the next source chunk into ``buf``; ``None`` at the end.
            The chunk dies with this frame, before the reader waits again."""
            block = next(inner, None)
            if block is None:
                return None
            block = as_page_block(block)
            if buf is None or buf.size < block.size:
                buf = np.empty(max(block.size, 1), dtype=np.int64)
            buf[: block.size] = block
            return buf, block.size

        def produce() -> None:
            try:
                while True:
                    buf = free.get()  # a free slot first, then decode into it
                    if stop.is_set():
                        return
                    filled = fill(buf)
                    if filled is None:
                        break
                    ready.put(("chunk", *filled))
                    if stop.is_set():
                        return
                ready.put(("end", None, 0))
            except BaseException as exc:  # propagated to the consumer
                with contextlib.suppress(Exception):
                    ready.put(("error", exc, 0))

        worker = threading.Thread(target=produce, name="repro-prefetch", daemon=True)
        worker.start()
        try:
            while True:
                kind, payload, size = ready.get()
                if kind == "end":
                    break
                if kind == "error":
                    raise payload
                view = payload[:size]
                view.setflags(write=False)
                yield view
                view.setflags(write=True)
                free.put(payload)  # recycle once the consumer advanced
        finally:
            stop.set()
            while worker.is_alive():
                with contextlib.suppress(queue.Empty):
                    ready.get_nowait()
                free.put(None)
                worker.join(timeout=0.05)


def as_trace_stream(
    trace: "TraceStream | Trace | np.ndarray | Sequence[int]",
    *,
    chunk: int = DEFAULT_CHUNK,
) -> TraceStream:
    """Coerce any accepted trace representation to a :class:`TraceStream`."""
    if isinstance(trace, TraceStream):
        return trace
    return ArrayTraceStream(trace, chunk=chunk)


def open_trace_stream(
    path: str | os.PathLike, *, chunk: int = DEFAULT_CHUNK
) -> TraceStream:
    """Open a trace file as a stream, dispatching on the suffix.

    ``.npt`` → :class:`~repro.traces.npt.NptTraceStream` (native chunked,
    seekable); ``.csv`` → :class:`MsrCsvStream` (incremental parse);
    ``.npz`` → :class:`ArrayTraceStream` over the loaded trace (the npz
    format is a single compressed array, so it cannot stream — use
    ``repro.cli convert`` to produce an ``.npt``).
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".npt":
        from repro.traces.npt import NptTraceStream

        return NptTraceStream(path, chunk=chunk)
    if suffix == ".csv":
        return MsrCsvStream(path, chunk=chunk)
    if suffix == ".npz":
        from repro.traces.io import load_trace

        return ArrayTraceStream(load_trace(path), chunk=chunk)
    raise TraceError(
        f"cannot stream {path}: unknown trace suffix {suffix!r} "
        "(expected .npt, .csv, or .npz)"
    )
