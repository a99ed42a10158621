"""Process-pool execution for sweeps, with zero-copy trace sharing.

The fan-out follows the SPMD structure of the mpi4py patterns in the HPC
guides, with :class:`concurrent.futures.ProcessPoolExecutor` in place of
``mpiexec``: no shared mutable state, per-task seed streams spawned ahead
of time by the parent, results gathered in submission order. Workers are
regular forked/spawned Python processes, so task callables and arguments
must be picklable (module-level functions, plain data).

Large read-only arrays (multi-million-entry traces) must *not* ride the
pickle channel once per task. :func:`share_array` copies an array into
POSIX shared memory once and returns a tiny picklable
:class:`SharedArrayHandle`; each worker attaches on first use and caches
the mapping for the life of the process, so a sweep of hundreds of tasks
serializes the trace zero times. :func:`shared_trace` scopes the segment
(parent unlinks on exit — POSIX keeps the mapping alive for attached
workers until they drop it).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from repro.errors import ConfigurationError
from repro.traces.streaming import TraceStream

__all__ = [
    "parallel_map",
    "default_workers",
    "SharedArrayHandle",
    "share_array",
    "unlink_shared",
    "shared_trace",
    "SharedChunkStream",
    "shared_stream",
]

T = TypeVar("T")
R = TypeVar("R")


def default_workers() -> int:
    """Default worker count for sweeps.

    Honors a ``REPRO_WORKERS`` environment variable (a validated integer
    ``>= 1``) so CI and batch sweeps can pin parallelism without plumbing
    a flag through every entry point; otherwise falls back to physical
    parallelism minus one, floored at 1.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
        if workers < 1:
            raise ConfigurationError(f"REPRO_WORKERS must be >= 1, got {workers}")
        return workers
    return max(1, (os.cpu_count() or 2) - 1)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int | None = None,
    chunksize: int | None = None,
) -> list[R]:
    """Apply ``fn`` to every item across a process pool; ordered results.

    Serial fallback when ``workers`` resolves to 1 or there is at most one
    item — keeps small sweeps free of pool start-up cost and makes the
    code path identical for debugging.
    """
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    items = list(items)
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if chunksize is None:
        chunksize = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


# -- shared-memory arrays -----------------------------------------------------

#: per-process cache: segment name -> (SharedMemory keep-alive, array view).
#: Keeping the SharedMemory object referenced is what keeps the mapping
#: valid for the view; the cache makes repeat attaches free for reused
#: pool workers.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}

#: names created (not merely attached) by this process — the only ones it
#: may unlink, and the ones the resource tracker already knows about
_OWNED: set[str] = set()


@dataclass(frozen=True)
class SharedArrayHandle:
    """A picklable reference to a shared-memory NumPy array.

    Pickles to a few dozen bytes regardless of array size — that is the
    whole point: task tuples carry the handle, workers call
    :meth:`array` to get a read-only zero-copy view.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str

    def array(self) -> np.ndarray:
        """Attach (cached per process) and return the read-only view."""
        cached = _ATTACHED.get(self.name)
        if cached is None:
            shm = shared_memory.SharedMemory(name=self.name)
            if self.name not in _OWNED:
                # attaching registered the segment with this process's
                # resource tracker, which would unlink it (and warn) on
                # worker exit even though the parent owns cleanup
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:  # pragma: no cover - best-effort, platform-dependent
                    pass
            view = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=shm.buf)
            view.setflags(write=False)
            cached = (shm, view)
            _ATTACHED[self.name] = cached
        return cached[1]


def share_array(arr: np.ndarray) -> SharedArrayHandle:
    """Copy ``arr`` into a new shared-memory segment; return its handle.

    The caller owns the segment and must eventually call
    :func:`unlink_shared` (or use the :func:`shared_trace` context
    manager, which does).
    """
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    view.setflags(write=False)
    _ATTACHED[shm.name] = (shm, view)
    _OWNED.add(shm.name)
    return SharedArrayHandle(name=shm.name, shape=arr.shape, dtype=arr.dtype.str)


def unlink_shared(handle: SharedArrayHandle) -> None:
    """Release a segment created by this process via :func:`share_array`.

    Safe to call once per handle in the creating process; attached
    workers keep their mapping until they exit (POSIX unlink semantics).
    """
    cached = _ATTACHED.pop(handle.name, None)
    if cached is None:
        return
    shm, _ = cached
    shm.close()
    if handle.name in _OWNED:
        _OWNED.discard(handle.name)
        shm.unlink()


@contextmanager
def shared_trace(trace) -> Iterator[SharedArrayHandle]:
    """Scope a trace's page array in shared memory for a sweep.

    Accepts anything :func:`repro.traces.base.as_page_array` accepts.
    """
    from repro.traces.base import as_page_array

    handle = share_array(as_page_array(trace))
    try:
        yield handle
    finally:
        unlink_shared(handle)


# -- shared chunk streams -----------------------------------------------------


class SharedChunkStream(TraceStream):
    """A :class:`~repro.traces.streaming.TraceStream` over a ring of
    shared-memory segments.

    Built by :func:`shared_stream` in the sweep parent: each chunk of the
    source stream lives in its own segment, and this stream pickles as a
    tuple of :class:`SharedArrayHandle` (a few dozen bytes per chunk), so
    every worker of a pool replays the same chunk sequence zero-copy —
    one segment ring instead of per-task trace pickles.
    """

    cheap_pickle = True

    def __init__(
        self,
        handles: Sequence[SharedArrayHandle],
        *,
        name: str = "shared",
        params: dict | None = None,
        chunk: int | None = None,
    ) -> None:
        self._handles = tuple(handles)
        self.name = name
        self.params = dict(params or {})
        self.length = sum(h.shape[0] for h in self._handles)
        self.chunk = chunk or max((h.shape[0] for h in self._handles), default=1)

    def chunks(self) -> Iterator[np.ndarray]:
        for handle in self._handles:
            yield handle.array()

@contextmanager
def shared_stream(stream, *, max_segments: int | None = None) -> Iterator[SharedChunkStream]:
    """Scope a stream's chunks in shared memory for a sweep.

    Materializes the source **into shared memory** (one segment per
    chunk) — total footprint is the full trace once, system-wide, rather
    than once per worker or once per task pickle. Intended for
    array-backed streams; streams that pickle cheaply (synthetic, file
    paths) should be shipped to workers directly instead —
    :func:`repro.sim.sweep.run_sweep` makes exactly that choice.

    ``max_segments`` guards against unbounded sources (a runaway CSV):
    exceeding it raises :class:`~repro.errors.ConfigurationError`.
    """
    handles: list[SharedArrayHandle] = []
    try:
        for block in stream.chunks():
            if max_segments is not None and len(handles) >= max_segments:
                raise ConfigurationError(
                    f"stream produced more than {max_segments} chunks; "
                    "raise max_segments or use a seekable/cheap-pickle stream"
                )
            block = np.ascontiguousarray(block, dtype=np.int64)
            if block.size:
                handles.append(share_array(block))
        yield SharedChunkStream(
            handles,
            name=getattr(stream, "name", "shared"),
            params=dict(getattr(stream, "params", {}) or {}),
            chunk=getattr(stream, "chunk", None),
        )
    finally:
        for handle in handles:
            unlink_shared(handle)
