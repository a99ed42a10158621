"""Price the observability layer (engineering, not paper-reproduction).

Three questions, one file:

1. **What do disabled hooks cost?** The whole design contract of
   :mod:`repro.obs.hooks` is *zero-cost when off*: emission sites are
   guarded by a module-level boolean, and the run loop hoists the check
   out entirely. We verify the contract by racing the instrumented
   :class:`HeatSinkLRU` (hooks present, no sink installed) against a
   baseline subclass whose ``access`` is the pre-instrumentation code
   with every hook guard stripped, both on the reference loop
   (``fast=False``). The acceptance bound is ≤ 5 %
   (``--check`` mode exits non-zero beyond it; CI runs that).
2. **What does disabled request tracing cost?** :mod:`repro.obs.tracing`
   makes the same promise for the serving hot path: every span site in
   :class:`~repro.service.store.PolicyStore` is guarded by
   ``tracing.ENABLED``. Racing the instrumented store against a subclass
   with the pre-tracing ``get``/``put`` bodies bounds the guard cost at
   the same ≤ 5 %.
3. **What does capturing cost?** Benchmarks with a ``NullSink`` (pure
   emission machinery), a ``RingBufferSink`` (flight recorder) and a
   ``SamplingSink`` wrapper show what turning tracing *on* costs, so the
   docs can quote real numbers.

Run under pytest-benchmark::

    pytest benchmarks/bench_obs.py --benchmark-only

or standalone (CI's observability job)::

    python benchmarks/bench_obs.py --check
"""

from __future__ import annotations

import asyncio
import sys
import time
from typing import Any

import repro
from repro.core.assoc.heatsink import _EMPTY, HeatSinkLRU
from repro.core.registry import make_policy as make_registered_policy
from repro.obs import hooks, tracing
from repro.obs.sinks import NullSink, RingBufferSink, SamplingSink
from repro.service.store import PolicyStore
from repro.sim.engine import run_policy
from repro.traces.base import as_page_array

CAPACITY = 1_088  # 64 bins of 16 + 64-slot sink
#: Accesses per hooks-overhead pass: ~0.5 s on the reference loop, for the
#: same reason as STORE_OPS below (200 000, ~0.13 s, failed 3 runs in 10).
LENGTH = 800_000
TRACE = repro.zipf_trace(4 * CAPACITY, LENGTH, alpha=1.0, seed=1)

#: Store ops per tracing-overhead pass. A GET costs ~1.3 µs on a 2020s
#: x86 core, so one pass runs ~0.65 s: long enough that scheduler noise
#: stays under the 5 % bound (50 000 ops, ~0.1 s a pass, failed the gate
#: in 3 runs of 10).
STORE_OPS = 500_000
STORE_KEYS = as_page_array(
    repro.zipf_trace(4 * CAPACITY, STORE_OPS, alpha=1.0, seed=1)
).tolist()


def make_policy(seed: int = 1) -> HeatSinkLRU:
    return HeatSinkLRU(CAPACITY, bin_size=16, sink_size=64, sink_prob=0.05, seed=seed)


class BareHeatSinkLRU(HeatSinkLRU):
    """``access()`` exactly as it was before instrumentation.

    Every ``obs_hooks.ENABLED`` guard is stripped; racing this against
    the instrumented parent (with hooks disabled) isolates what the
    guards themselves cost.
    """

    def access(self, page: int) -> bool:  # noqa: C901 - deliberate verbatim copy
        loc = self._loc.get(page)
        if loc is not None:
            if loc >= 0:
                b = self._bins[loc]
                del b[page]
                b[page] = None
            elif self.sink_policy == "lru":
                sink = self._sink_lru
                del sink[page]
                sink[page] = None
            if self._recorder is not None:
                self._recorder.append(1)
            return True

        bin_idx, s1, s2 = self._hashes(page)
        route_to_sink = self._route_to_sink(page, bin_idx)
        if self._recorder is not None:
            self._recorder.append(-1 if route_to_sink else 0)
        if route_to_sink and self.sink_policy == "lru":
            self._sink_routings += 1
            sink = self._sink_lru
            if len(sink) >= self.sink_size:
                victim = next(iter(sink))
                del sink[victim]
                del self._loc[victim]
                self._sink_evictions += 1
            sink[page] = None
            self._loc[page] = -1
        elif route_to_sink:
            self._sink_routings += 1
            pos = s1 if self._next_uniform() < 0.5 else s2
            victim = int(self._sink_pages[pos])
            if victim != _EMPTY:
                del self._loc[victim]
                self._sink_evictions += 1
            self._sink_pages[pos] = page
            self._loc[page] = -(pos + 1)
        else:
            self._bin_routings += 1
            self._bin_misses[bin_idx] += 1
            b = self._bins[bin_idx]
            if len(b) >= self.bin_size:
                victim = next(iter(b))
                del b[victim]
                del self._loc[victim]
                self._bin_evictions[bin_idx] += 1
            b[page] = None
            self._loc[page] = bin_idx
        return False


def _pass_seconds(policy: HeatSinkLRU) -> float:
    """Wall time of one reference-loop ``run_policy`` pass.

    ``fast=False`` on both sides of the race: kernel dispatch is by exact
    type, so the instrumented :class:`HeatSinkLRU` would otherwise run its
    compiled kernel while the bare subclass runs the reference loop, and
    the ratio would measure the kernel instead of the hook guards.
    """
    start = time.perf_counter()
    run_policy(policy, TRACE, fast=False)
    return time.perf_counter() - start


def disabled_overhead_ratio(repeats: int = 5) -> tuple[float, float, float]:
    """(bare_seconds, instrumented_seconds, ratio) with hooks disabled.

    Best of ``repeats`` interleaved passes per side, so a transient
    machine slowdown hits both sides instead of whichever ran last.
    """
    assert not hooks.ENABLED, "a sink is installed; the comparison would be unfair"
    bare = instrumented = float("inf")
    for _ in range(repeats):
        bare = min(bare, _pass_seconds(
            BareHeatSinkLRU(CAPACITY, bin_size=16, sink_size=64, sink_prob=0.05, seed=1)
        ))
        instrumented = min(instrumented, _pass_seconds(make_policy()))
    return bare, instrumented, instrumented / bare


class BarePolicyStore(PolicyStore):
    """``get``/``put`` exactly as they were before tracing instrumentation.

    No ``tracing.ENABLED`` guard, no ``clock()`` read; racing this
    against the instrumented parent (tracing off) isolates the guard
    cost on the serving hot path.
    """

    async def get(self, key: int) -> tuple[bool, Any]:
        async with self._lock:
            return self._get_locked(key)

    async def put(self, key: int, value: Any) -> bool:
        async with self._lock:
            return self._put_locked(key, value)


def _store_pass_seconds(cls: type[PolicyStore]) -> float:
    """Wall time of STORE_OPS sequential ``get`` calls on a fresh store."""

    async def _run(store: PolicyStore) -> None:
        get = store.get
        for key in STORE_KEYS:
            await get(key)

    store = cls(make_registered_policy("lru", CAPACITY))
    start = time.perf_counter()
    asyncio.run(_run(store))
    return time.perf_counter() - start


def disabled_tracing_ratio(repeats: int = 5) -> tuple[float, float, float]:
    """(bare_seconds, instrumented_seconds, ratio) with tracing disabled.

    Bare and instrumented passes are interleaved so a transient machine
    slowdown hits both sides instead of inflating whichever ran last.
    """
    assert not tracing.ENABLED, "a trace sink is installed; comparison would be unfair"
    bare = instrumented = float("inf")
    for _ in range(repeats):
        bare = min(bare, _store_pass_seconds(BarePolicyStore))
        instrumented = min(instrumented, _store_pass_seconds(PolicyStore))
    return bare, instrumented, instrumented / bare


def check(threshold: float = 1.05, repeats: int = 5) -> bool:
    """CI gate: disabled-hook AND disabled-tracing slowdowns within ``threshold``."""
    bare, instrumented, ratio = disabled_overhead_ratio(repeats)
    rate = LENGTH / instrumented
    print(
        f"hooks   bare        : {bare * 1e3:8.1f} ms  ({LENGTH / bare:,.0f} acc/s)\n"
        f"hooks   instrumented: {instrumented * 1e3:8.1f} ms  ({rate:,.0f} acc/s)\n"
        f"hooks   ratio       : {ratio:.4f}  (bound {threshold:.2f})"
    )
    t_bare, t_instr, t_ratio = disabled_tracing_ratio(repeats)
    print(
        f"tracing bare        : {t_bare * 1e3:8.1f} ms  "
        f"({STORE_OPS / t_bare:,.0f} op/s)\n"
        f"tracing instrumented: {t_instr * 1e3:8.1f} ms  "
        f"({STORE_OPS / t_instr:,.0f} op/s)\n"
        f"tracing ratio       : {t_ratio:.4f}  (bound {threshold:.2f})"
    )
    return ratio <= threshold and t_ratio <= threshold


# -- pytest-benchmark entry points ------------------------------------------

def test_bare_baseline(benchmark):
    benchmark.pedantic(
        lambda: BareHeatSinkLRU(
            CAPACITY, bin_size=16, sink_size=64, sink_prob=0.05, seed=1
        ).run(TRACE, fast=False),
        rounds=3,
        iterations=1,
    )


def test_instrumented_hooks_disabled(benchmark):
    assert not hooks.ENABLED
    benchmark.pedantic(lambda: make_policy().run(TRACE, fast=False), rounds=3, iterations=1)


def test_capture_null_sink(benchmark):
    def once():
        run_policy(make_policy(), TRACE, trace_sink=NullSink())

    benchmark.pedantic(once, rounds=3, iterations=1)


def test_capture_ring_buffer(benchmark):
    def once():
        run_policy(make_policy(), TRACE, trace_sink=RingBufferSink(65_536))

    benchmark.pedantic(once, rounds=3, iterations=1)


def test_capture_sampled_1pct(benchmark):
    def once():
        sink = SamplingSink(RingBufferSink(65_536), rate=0.01, seed=1)
        run_policy(make_policy(), TRACE, trace_sink=sink)

    benchmark.pedantic(once, rounds=3, iterations=1)


def test_disabled_overhead_within_bound():
    """The acceptance bound itself, runnable without --benchmark-only."""
    _, _, ratio = disabled_overhead_ratio(repeats=3)
    assert ratio <= 1.10, f"disabled-hook overhead ratio {ratio:.3f} exceeds 1.10"


def test_disabled_tracing_within_bound():
    """Same contract for the serving hot path's tracing guards."""
    _, _, ratio = disabled_tracing_ratio(repeats=3)
    assert ratio <= 1.10, f"disabled-tracing overhead ratio {ratio:.3f} exceeds 1.10"


if __name__ == "__main__":
    threshold = 1.05
    if "--threshold" in sys.argv:
        threshold = float(sys.argv[sys.argv.index("--threshold") + 1])
    if "--check" in sys.argv:
        sys.exit(0 if check(threshold) else 1)
    bare, instrumented, ratio = disabled_overhead_ratio()
    print(f"ratio {ratio:.4f} (bare {bare:.3f}s, instrumented {instrumented:.3f}s)")
