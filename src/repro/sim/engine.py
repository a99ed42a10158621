"""Single-trace simulation driver.

:func:`run_policy` runs one policy over an array, a
:class:`~repro.traces.base.Trace` or a
:class:`~repro.traces.streaming.TraceStream` through one chunk loop: an
array or ``Trace`` is one zero-copy chunk read in place, a stream yields
its chunks at O(chunk) memory. :func:`run_policy_stream` is a second name
for it. :func:`compare_policies` runs several policies over one trace
into a :class:`ResultsTable`.

Pass ``trace_sink`` to capture a run's structured events into any
:mod:`repro.obs.sinks` sink — it is installed only for the duration of
the run; with no sink the hooks stay disabled and the loop runs at full
speed (``benchmarks/bench_obs.py`` guards the bound).
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.core.base import CachePolicy
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import TraceSink
from repro.sim.results import ResultsTable
from repro.traces.base import Trace, as_page_array
from repro.traces.streaming import Prefetcher, TraceStream

__all__ = ["run_policy", "run_policy_stream", "compare_policies"]


def run_policy(
    policy: CachePolicy,
    trace: "Trace | np.ndarray | TraceStream",
    *,
    warmup_fraction: float = 0.25,
    trace_sink: TraceSink | None = None,
    fast: bool | None = None,
    keep_hits: bool = False,
    prefetch: bool = True,
) -> dict:
    """Run one policy, returning a flat row of headline metrics.

    The policy is reset once, then each chunk continues the run via
    ``policy.run(chunk, reset=False)``; the continuation contract makes
    the stitched run **bit-identical** to one materialized run (hits,
    post-run state, coin-stream position — ``tests/sim/test_stream_engine.py``).
    ``fast`` forwards to :meth:`CachePolicy.run` (``None`` = auto);
    ``prefetch`` decodes a stream's next chunk on a background thread
    (:class:`~repro.traces.streaming.Prefetcher`). An installed
    ``trace_sink`` forces the reference loop; event indices restart per
    chunk.

    The warm-up/steady split is exact when the input's length is known
    before the run: the chunk straddling the cut splits its own hits.
    Only a stream of unknown length (an MSR CSV on its first pass)
    prorates that chunk's misses. ``keep_hits`` adds the per-access
    ``"hits"`` array to the row (one byte per access).
    """
    streamed = isinstance(trace, TraceStream)
    if streamed:
        source = iter(Prefetcher(trace)) if prefetch else trace.chunks()
        length, name = trace.length, trace.name
    else:
        pages = as_page_array(trace)
        source = iter((pages,))
        length, name = pages.size, trace.name if isinstance(trace, Trace) else "array"
    cut = None if length is None else int(length * warmup_fraction)
    kwargs = {} if fast is None else {"fast": fast}
    policy.reset()
    # (accesses, misses) pieces: the chunk straddling a known cut adds two
    pieces: list[tuple[int, int]] = []
    hit_parts: list[np.ndarray] = []
    chunks = seen = 0
    sink_scope = (
        obs_hooks.capturing(trace_sink) if trace_sink is not None else contextlib.nullcontext()
    )
    start = time.perf_counter()
    with sink_scope:
        for chunk in source:
            if chunk.size == 0:
                continue
            result = policy.run(chunk, reset=False, **kwargs)
            size, misses = result.num_accesses, result.num_misses
            if cut is not None and seen < cut < seen + size:
                head = cut - seen
                head_misses = head - int(np.count_nonzero(result.hits[:head]))
                pieces += [(head, head_misses), (size - head, misses - head_misses)]
            else:
                pieces.append((size, misses))
            if keep_hits:
                hit_parts.append(np.array(result.hits, dtype=bool))
            chunks += 1
            seen += size
    elapsed = time.perf_counter() - start
    misses = sum(m for _, m in pieces)
    warm_rate, steady_rate = _split(pieces, warmup_fraction)
    row = {
        "policy": policy.name,
        "capacity": policy.capacity,
        "accesses": seen,
        "misses": misses,
        "miss_rate": misses / seen if seen else float("nan"),
        "steady_miss_rate": steady_rate,
        "warmup_miss_rate": warm_rate,
        "seconds": elapsed,
        "streamed": streamed,
        "chunks": chunks,
        "trace": name,
    }
    if keep_hits:
        row["hits"] = np.concatenate(hit_parts) if hit_parts else np.empty(0, dtype=bool)
    return row


#: the streaming name of :func:`run_policy`, kept for its importers
run_policy_stream = run_policy


def _split(pieces: list[tuple[int, int]], warmup_fraction: float) -> tuple[float, float]:
    """Warm-up/steady miss rates from ``(accesses, misses)`` pieces, cut
    where :func:`repro.analysis.metrics.warmup_split` cuts. Bit-identical
    to it when a piece ends at the cut; a piece straddling the cut
    contributes misses proportionally."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError(f"warmup_fraction must be in [0,1), got {warmup_fraction}")
    total = sum(a for a, _ in pieces)
    if total == 0:
        return float("nan"), float("nan")
    cut = int(total * warmup_fraction)
    warm_misses = 0.0
    seen = 0
    for accesses, misses in pieces:
        if seen + accesses <= cut:
            warm_misses += misses
        elif seen < cut:
            warm_misses += misses * (cut - seen) / accesses
        seen += accesses
    total_misses = sum(m for _, m in pieces)
    head = warm_misses / cut if cut else float("nan")
    tail = (total_misses - warm_misses) / (total - cut) if total > cut else float("nan")
    return head, tail


def compare_policies(
    policies: Mapping[str, CachePolicy | Callable[[], CachePolicy]],
    trace: "Trace | np.ndarray | TraceStream",
    *,
    warmup_fraction: float = 0.25,
    fast: bool | None = None,
) -> ResultsTable:
    """Run several policies over one trace; one table row per policy.

    Values may be policy instances or zero-argument factories (factories
    let callers defer construction, e.g. for policies whose parameters
    depend on the trace). ``fast`` forwards to each run's kernel dispatch.
    Streams are accepted too (each policy re-iterates the stream).
    """
    if not isinstance(trace, (Trace, TraceStream)):
        trace = as_page_array(trace)  # validate once, not once per policy
    table = ResultsTable()
    for label, entry in policies.items():
        policy = entry() if callable(entry) and not isinstance(entry, CachePolicy) else entry
        row = run_policy(policy, trace, warmup_fraction=warmup_fraction, fast=fast)
        row["label"] = label
        table.append(**row)
    return table
