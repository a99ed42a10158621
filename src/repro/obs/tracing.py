"""Distributed request tracing — deterministic spans over the obs sinks.

The cluster's per-request black box (client → router → worker) is opened
with *spans*: compact timing records that share a trace id and form a
tree via parent span ids. The design follows :mod:`repro.obs.hooks`
exactly — a module-level :data:`ENABLED` boolean kept ``True`` only
while at least one span sink is installed, so every emission site in the
serving hot path is written as::

    if tracing.ENABLED:
        span = tracing.start_span("store.op", op="GET")
    ...
    if span is not None:
        span.end()

and costs one module-attribute load and a branch when tracing is off
(``benchmarks/bench_obs.py --check`` gates the disabled overhead at
≤ 5 %, the same bound the event hooks carry).

**Determinism.** Trace and span ids are 16-hex-digit strings drawn from
a splitmix64 stream seeded via :func:`repro.rng.derive_seed` — two runs
with the same seed and workload produce the same ids, so span files
diff cleanly across runs. Sampling (``sample < 1.0``) is decided *once
per trace* at root creation from a second derived stream; an unsampled
root returns ``None``, no context propagates, and every downstream tier
stays silent for that request — sampled traces are always complete
trees, never torsos.

**Propagation.** Within a process the current span rides a
:class:`contextvars.ContextVar` (asyncio tasks inherit it). Across the
wire it travels as the 33-byte ASCII context ``"<trace>:<span>"`` — an
extra ``"trace"`` field in NDJSON requests, a tagged binary frame
(:data:`~repro.service.protocol.TRACE_TAG`) in the binary framing; see
``docs/observability.md`` for the span model and wire details.

Span records are plain dicts (``ev: "span"``) fanned out to the same
sink classes the event hooks use (:mod:`repro.obs.sinks`) — an
:class:`~repro.obs.sinks.NDJSONSink` per process is the normal
deployment, and :func:`repro.obs.spans.read_spans` stitches the files
back into trees.

Everything here is global and single-threaded per process (one asyncio
loop), like the rest of ``repro.obs``; there are no locks.
"""

from __future__ import annotations

import contextlib
import time
from contextvars import ContextVar
from typing import Any, Iterator

from repro.obs.hooks import TraceSink
from repro.obs.sinks import NDJSONSink
from repro.rng import derive_seed

__all__ = [
    "ENABLED",
    "Span",
    "configure",
    "shutdown",
    "recording",
    "install",
    "uninstall",
    "active_sinks",
    "start_trace",
    "start_span",
    "start_remote",
    "span",
    "ambient",
    "current_context",
    "parse_context",
    "clock",
]

#: Module-level fast-path guard. True exactly while >= 1 span sink is installed.
ENABLED = False

_sinks: list[TraceSink] = []
_owned: list[NDJSONSink] = []  # sinks configure() opened itself (closed on shutdown)

_service = "repro"
_sample = 1.0
_sample_state = 0  # splitmix64 stream for the per-trace sampling decision
_id_state = 0  # splitmix64 stream for trace/span ids

#: Ambient trace context of the running task: ``(trace_id, span_id)``.
_current: ContextVar[tuple[str, str] | None] = ContextVar("repro_trace", default=None)

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: ``(new_state, output)`` — tiny, seedable, fast."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) or 1  # ids are never the 0 sentinel


def _next_id() -> str:
    global _id_state
    _id_state, out = _splitmix64(_id_state)
    return f"{out:016x}"


def clock() -> int:
    """The span clock (``time.perf_counter_ns``), for pre-span timestamps."""
    return time.perf_counter_ns()


class Span:
    """One open span; :meth:`end` emits its record and closes it.

    Spans are cheap plain objects, not context managers, because the
    serving paths open and close them across ``await`` points (and the
    router even across *tasks* — dispatch opens, the response flusher
    closes). ``activate=False`` spans never touch the ambient context
    and may be ended from any task.
    """

    __slots__ = ("name", "trace", "span", "parent", "attrs", "_ts", "_t0", "_token")

    def __init__(
        self,
        name: str,
        trace: str,
        span_id: str,
        parent: str | None,
        attrs: dict[str, Any],
        token: Any = None,
    ):
        self.name = name
        self.trace = trace
        self.span = span_id
        self.parent = parent
        self.attrs = attrs
        self._token = token
        self._ts = time.time_ns() // 1000  # wall-clock start, µs
        self._t0 = time.perf_counter_ns()  # monotonic start for the duration

    @property
    def ctx(self) -> str:
        """The wire form of this span's context (``trace:span``)."""
        return f"{self.trace}:{self.span}"

    def start_child(self, name: str, **attrs: Any) -> "Span":
        """Open a child span explicitly parented to this one (never activates)."""
        return Span(name, self.trace, _next_id(), self.span, attrs)

    def child(self, name: str, *, start_ns: int, **attrs: Any) -> None:
        """Emit an already-finished child whose start was ``clock()``-sampled.

        For work that happens *before* its span's identity is knowable —
        request parse runs before the wire context is decoded — callers
        grab ``clock()`` up front and back-date the child here.
        """
        now = time.perf_counter_ns()
        record = {
            "ev": "span",
            "name": name,
            "svc": _service,
            "trace": self.trace,
            "span": _next_id(),
            "parent": self.span,
            "ts": self._ts - (self._t0 - start_ns) // 1000,
            "us": max(0, (now - start_ns) // 1000),
        }
        record.update(attrs)
        for sink in _sinks:
            sink.emit(record)

    def end(self, **attrs: Any) -> None:
        """Emit the span record; restore the ambient context if activated."""
        dur = time.perf_counter_ns() - self._t0
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        record = {
            "ev": "span",
            "name": self.name,
            "svc": _service,
            "trace": self.trace,
            "span": self.span,
            "ts": self._ts,
            "us": max(0, dur // 1000),
        }
        if self.parent is not None:
            record["parent"] = self.parent
        if self.attrs:
            record.update(self.attrs)
        if attrs:
            record.update(attrs)
        for sink in _sinks:
            sink.emit(record)


def start_trace(name: str, *, activate: bool = True, **attrs: Any) -> Span | None:
    """Open a root span (new trace id); ``None`` when off or not sampled.

    The sampling decision made here is the *only* one in the system:
    downstream tiers trace exactly the requests that arrive carrying a
    context, so a sampled trace is complete and an unsampled one is
    invisible everywhere.
    """
    if not ENABLED:
        return None
    if _sample < 1.0:
        global _sample_state
        _sample_state, out = _splitmix64(_sample_state)
        if out / 2**64 >= _sample:
            return None
    trace = _next_id()
    span_id = _next_id()
    token = _current.set((trace, span_id)) if activate else None
    return Span(name, trace, span_id, None, attrs, token)


def start_span(name: str, *, activate: bool = True, **attrs: Any) -> Span | None:
    """Open a child of the ambient span; ``None`` when there is no context."""
    if not ENABLED:
        return None
    ctx = _current.get()
    if ctx is None:
        return None
    trace, parent = ctx
    span_id = _next_id()
    token = _current.set((trace, span_id)) if activate else None
    return Span(name, trace, span_id, parent, attrs, token)


def start_remote(
    ctx: str | None, name: str, *, activate: bool = True, **attrs: Any
) -> Span | None:
    """Open a child of a wire context (``"trace:span"``); ``None`` if absent."""
    if not ENABLED or ctx is None:
        return None
    parsed = parse_context(ctx)
    if parsed is None:
        return None
    trace, parent = parsed
    span_id = _next_id()
    token = _current.set((trace, span_id)) if activate else None
    return Span(name, trace, span_id, parent, attrs, token)


@contextlib.contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span | None]:
    """Lexically scoped :func:`start_span` (no-op without an ambient context)."""
    sp = start_span(name, **attrs)
    try:
        yield sp
    finally:
        if sp is not None:
            sp.end()


@contextlib.contextmanager
def ambient(sp: Span) -> Iterator[None]:
    """Make ``sp`` the ambient parent of spans opened inside the block.

    For a span opened with ``activate=False`` — so that another task may
    end it — whose work still opens children through :func:`start_span`.
    """
    token = _current.set((sp.trace, sp.span))
    try:
        yield
    finally:
        _current.reset(token)


def current_context() -> str | None:
    """The ambient context in wire form, or ``None`` outside any trace."""
    ctx = _current.get()
    if ctx is None:
        return None
    return f"{ctx[0]}:{ctx[1]}"


def parse_context(ctx: str) -> tuple[str, str] | None:
    """Parse a wire context; ``None`` (never an exception) on garbage."""
    if not isinstance(ctx, str) or len(ctx) > 255:
        return None
    trace, sep, span_id = ctx.partition(":")
    if not sep or not trace or not span_id:
        return None
    return trace, span_id


# -- switchboard --------------------------------------------------------------
def configure(
    sink: TraceSink | None = None,
    *,
    path: str | None = None,
    service: str = "repro",
    seed: int = 0,
    sample: float = 1.0,
) -> TraceSink:
    """Install a span sink and set this process's trace identity.

    Pass an existing ``sink``, or a ``path`` to open (and own) an
    :class:`~repro.obs.sinks.NDJSONSink` there — owned sinks are flushed
    and closed by :func:`shutdown`. ``service`` names this tier in every
    record (``"client"``, ``"router"``, ``"w0"``, ...); ``seed`` feeds
    the deterministic id and sampling streams; ``sample`` is the
    per-trace keep probability applied at :func:`start_trace`.
    """
    if (sink is None) == (path is None):
        raise ValueError("configure() takes exactly one of sink= or path=")
    if not 0.0 <= sample <= 1.0:
        raise ValueError(f"sample must be in [0, 1], got {sample}")
    global _service, _sample, _sample_state, _id_state
    _service = service
    _sample = sample
    _id_state = derive_seed(seed, "trace-ids", service)
    _sample_state = derive_seed(seed, "trace-sample", service)
    if path is not None:
        sink = NDJSONSink(path)
        _owned.append(sink)
    assert sink is not None
    install(sink)
    return sink


def shutdown() -> None:
    """Uninstall every sink; flush and close the ones :func:`configure` opened."""
    global ENABLED
    _sinks.clear()
    ENABLED = False
    for sink in _owned:
        with contextlib.suppress(Exception):
            sink.close()
    _owned.clear()


def install(sink: TraceSink) -> None:
    """Install a span sink (idempotent) and raise the :data:`ENABLED` flag."""
    global ENABLED
    if sink not in _sinks:
        _sinks.append(sink)
    ENABLED = True


def uninstall(sink: TraceSink) -> None:
    """Remove a span sink (missing is fine); lower the flag when none remain."""
    global ENABLED
    with contextlib.suppress(ValueError):
        _sinks.remove(sink)
    ENABLED = bool(_sinks)


def active_sinks() -> tuple[TraceSink, ...]:
    """The currently installed span sinks (a snapshot, not the live list)."""
    return tuple(_sinks)


@contextlib.contextmanager
def recording(
    sink: TraceSink, *, service: str = "repro", seed: int = 0, sample: float = 1.0
) -> Iterator[TraceSink]:
    """Scoped :func:`configure`/:func:`shutdown` bracket (tests, examples)."""
    configure(sink, service=service, seed=seed, sample=sample)
    try:
        yield sink
    finally:
        shutdown()
