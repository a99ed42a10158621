"""Differential tests: fast kernels vs the reference per-access loops.

The fast path's contract (see ``CachePolicy.run`` and
``docs/performance.md``) is *bit-for-bit equivalence*: same policy, same
seed, same trace ⇒ identical ``SimResult.hits``, identical
instrumentation, identical post-run policy state. Every kernelized
policy is checked against the reference loop over three trace families
(the Theorem-2 adversarial sequence, Zipf, and phase-change) and three
seeds, plus ``reset=False`` continuations that interleave the two paths
in every order.

Coin-consuming policies buffer pre-drawn uniforms; the kernel draws in
larger chunks than the reference, so the *raw* buffers may differ in
length after a run while the logical stream position is identical. The
stream tests therefore compare "unconsumed tail + future generator
output", which is the observable that matters.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.errors import SimulationError
from repro.obs import hooks
from repro.obs.sinks import ListSink
from repro.sim.kernels import available_kernels, kernel_for

CAP = 256

POLICIES = {
    "heatsink": lambda seed: repro.HeatSinkLRU.from_epsilon(CAP, 0.3, seed=seed),
    "heatsink-heavy-sink": lambda seed: repro.HeatSinkLRU(
        CAP, bin_size=4, sink_size=64, sink_prob=0.4, seed=seed
    ),
    "2-lru": lambda seed: repro.PLruCache(CAP, d=2, seed=seed),
    "8-lru": lambda seed: repro.PLruCache(CAP, d=8, seed=seed),
    "set-assoc": lambda seed: repro.SetAssociativeLRU(CAP, d=8, seed=seed),
    "2-random": lambda seed: repro.DRandomCache(CAP, d=2, seed=seed),
    "4-random-aware": lambda seed: repro.DRandomCache(
        CAP, d=4, seed=seed, occupancy_aware=True
    ),
}

TRACES = {
    "adversarial": lambda: repro.build_theorem2_sequence(CAP, rounds=20, seed=7).trace,
    "zipf": lambda: repro.zipf_trace(4 * CAP, 5_000, alpha=0.8, seed=7),
    "phase": lambda: repro.phase_change_trace(CAP // 2, 1_000, 5, overlap=0.3, seed=7),
}

SEEDS = [0, 1, 12345]


class OddPagesSkipSinkHeatSinkLRU(repro.HeatSinkLRU):
    """A subclass whose routing differs from its parent's: odd pages never
    take the heat-sink. The coin is still drawn, but the parent's kernel
    would route those misses by it, so inheriting it would be wrong."""

    def access(self, page: int) -> bool:
        sink_prob = self.sink_prob
        if page % 2:
            self.sink_prob = 0.0
        try:
            return super().access(page)
        finally:
            self.sink_prob = sink_prob


def _subclass(seed: int) -> OddPagesSkipSinkHeatSinkLRU:
    return OddPagesSkipSinkHeatSinkLRU(CAP, bin_size=8, sink_size=32, sink_prob=0.1, seed=seed)



def _state(policy):
    """Deep-ish snapshot of observable policy state after a run."""
    snap = {"contents": policy.contents(), "extra": None}
    if hasattr(policy, "_instrumentation"):
        snap["extra"] = policy._instrumentation()
    if hasattr(policy, "_slot_page"):  # slotted family
        snap["slots"] = (
            list(policy._slot_page),
            list(policy._slot_time),
            list(policy._slot_birth),
            list(policy._evictions),
            dict(policy._pos_of),
            policy._clock,
        )
    if hasattr(policy, "_bins"):  # heat-sink family
        snap["bins"] = [dict(b) for b in policy._bins]
        snap["sink"] = policy._sink_pages.tolist()
        snap["loc"] = dict(policy._loc)
    return snap


def _assert_same_result(ref, ker):
    np.testing.assert_array_equal(ref.hits, ker.hits)
    assert ref.policy == ker.policy
    assert set(ref.extra) == set(ker.extra)
    for key in ref.extra:
        a, b = ref.extra[key], ker.extra[key]
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b, key


def _assert_same_state(p_ref, p_ker):
    ref, ker = _state(p_ref), _state(p_ker)
    assert ref["contents"] == ker["contents"]
    if ref["extra"] is not None:
        for key in ref["extra"]:
            a, b = ref["extra"][key], ker["extra"][key]
            if isinstance(a, np.ndarray):
                np.testing.assert_array_equal(a, b)
            else:
                assert a == b, key
    for key in ("slots", "bins", "sink", "loc"):
        if key in ref:
            assert ref[key] == ker[key], key


def _future_coins(policy, total=200_000):
    """First *total* values of "unconsumed buffer tail + generator output".

    The invariant the kernels guarantee: this combined stream is
    identical whichever path ran. The *raw* buffers may legitimately
    differ in length (the kernel draws bigger chunks), so the comparison
    must be over a fixed-length prefix of the logical stream, not the
    buffers themselves.
    """
    import copy

    if hasattr(policy, "_uniform_buf"):  # heat-sink
        tail = np.asarray(policy._uniform_buf)[policy._uniform_idx :]
    elif hasattr(policy, "_coin_buf"):  # d-random
        tail = np.asarray(policy._coin_buf, dtype=np.float64)[policy._coin_idx :]
    else:
        return np.empty(0)
    rng = copy.deepcopy(policy._rng)
    return np.concatenate([tail, rng.random(total - tail.size)])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_kernel_bit_for_bit(policy_name, trace_name, seed):
    trace = TRACES[trace_name]()
    p_ref = POLICIES[policy_name](seed)
    p_ker = POLICIES[policy_name](seed)
    assert kernel_for(p_ker) is not None, "policy should have a kernel"

    ref = p_ref.run(trace, fast=False)
    ker = p_ker.run(trace, fast=True)

    _assert_same_result(ref, ker)
    _assert_same_state(p_ref, p_ker)
    np.testing.assert_array_equal(_future_coins(p_ref), _future_coins(p_ker))


@pytest.mark.parametrize("order", ["kernel,kernel", "kernel,ref", "ref,kernel"])
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_continuation_matches(policy_name, order):
    """reset=False continuations agree regardless of which path ran each half."""
    trace = TRACES["zipf"]()
    pages = np.asarray(trace.pages)
    half = pages.size // 2
    fasts = [part == "kernel" for part in order.split(",")]

    p_ref = POLICIES[policy_name](3)
    whole = p_ref.run(pages, fast=False)

    p_mix = POLICIES[policy_name](3)
    first = p_mix.run(pages[:half], fast=fasts[0])
    second = p_mix.run(pages[half:], reset=False, fast=fasts[1])

    np.testing.assert_array_equal(
        whole.hits, np.concatenate([first.hits, second.hits])
    )
    _assert_same_state(p_ref, p_mix)
    np.testing.assert_array_equal(_future_coins(p_ref), _future_coins(p_mix))


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_sparse_page_ids_use_remap(policy_name):
    """Huge page ids force the token-space remap branch; equality must hold."""
    rng = np.random.default_rng(11)
    pages = rng.integers(0, 2**48, size=4_000, dtype=np.int64)
    pages = pages[np.argsort(rng.random(pages.size))]
    # narrow the working set so there are actual hits
    pages = np.concatenate([pages[:200]] * 20)

    p_ref = POLICIES[policy_name](5)
    p_ker = POLICIES[policy_name](5)
    ref = p_ref.run(pages, fast=False)
    ker = p_ker.run(pages, fast=True)
    _assert_same_result(ref, ker)
    _assert_same_state(p_ref, p_ker)


def test_auto_dispatch_equals_forced_kernel():
    trace = TRACES["zipf"]()
    auto = POLICIES["heatsink"](1).run(trace)  # fast=None picks the kernel
    forced = POLICIES["heatsink"](1).run(trace, fast=True)
    np.testing.assert_array_equal(auto.hits, forced.hits)


def test_empty_trace_ok():
    p = POLICIES["heatsink"](0)
    result = p.run(np.empty(0, dtype=np.int64), fast=True)
    assert result.num_accesses == 0


# -- dispatch eligibility ------------------------------------------------------


def test_fast_true_without_kernel_raises():
    with pytest.raises(SimulationError):
        repro.LRUCache(CAP).run(TRACES["zipf"](), fast=True)


def test_fast_true_with_hooks_enabled_raises():
    p = POLICIES["heatsink"](0)
    with hooks.capturing(ListSink()):
        with pytest.raises(SimulationError):
            p.run(TRACES["zipf"](), fast=True)


def test_hooks_enabled_falls_back_to_reference():
    """Auto dispatch must not silently skip observability events."""
    trace = repro.zipf_trace(2 * CAP, 500, alpha=0.8, seed=3)
    p = POLICIES["heatsink"](0)
    with hooks.capturing(ListSink()) as sink:
        p.run(trace)  # fast=None: hooks enabled -> reference loop
    assert len(sink.events) > 0


def test_subclasses_do_not_inherit_kernels():
    p = repro.AdaptiveHeatSinkLRU.from_epsilon(CAP, 0.3, seed=0)
    assert kernel_for(p) is None


def test_recorder_vetoes_heatsink_kernel():
    p = POLICIES["heatsink"](0)
    p.attach_recorder([])
    assert kernel_for(p) is None


def test_lru_sink_vetoes_heatsink_kernel():
    p = repro.HeatSinkLRU(
        CAP, bin_size=8, sink_size=32, sink_prob=0.1, sink_policy="lru", seed=0
    )
    assert kernel_for(p) is None


def test_explicit_hashes_veto_slotted_kernels():
    table = {pg: (pg % 4, (pg + 1) % 4) for pg in range(16)}
    p = repro.PLruCache(4, dist=repro.ExplicitHashes(4, table))
    assert kernel_for(p) is None
    # and the reference loop still serves it fine
    result = p.run(np.arange(16, dtype=np.int64))
    assert result.num_accesses == 16


def test_available_kernels_lists_all_four():
    table = available_kernels()
    assert set(table) == {
        "HeatSinkLRU",
        "PLruCache",
        "SetAssociativeLRU",
        "DRandomCache",
    }


# -- KernelUnavailable: the loud fast=True failure mode ------------------------


class TestKernelUnavailable:
    def test_is_a_simulation_error(self):
        assert issubclass(repro.KernelUnavailable, SimulationError)

    def test_error_names_the_policy(self):
        """The message must say WHICH policy had no kernel and point at the
        fast=None fallback — the debugging breadcrumb the exception exists
        to provide."""
        p = repro.LRUCache(CAP)
        with pytest.raises(repro.KernelUnavailable) as excinfo:
            p.run(TRACES["zipf"](), fast=True)
        message = str(excinfo.value)
        assert p.name in message
        assert "LRUCache" in message
        assert "fast=None" in message

    def test_sketch_heatsink_does_not_inherit_parent_kernel(self):
        """Subclassing HeatSinkLRU must NOT pick up its kernel: the hybrid
        overrides routing, so the parent kernel would silently compute the
        wrong thing. Exact-type dispatch is the guard."""
        p = repro.SketchHeatSinkLRU(
            CAP, bin_size=8, sink_size=32, sink_prob=0.1, seed=0
        )
        assert kernel_for(p) is None
        with pytest.raises(repro.KernelUnavailable) as excinfo:
            p.run(TRACES["zipf"](), fast=True)
        assert "SketchHeatSinkLRU" in str(excinfo.value)

    def test_access_overriding_subclass_does_not_inherit_parent_kernel(self):
        """The same guard on a test-local subclass that overrides ``access``
        itself, so it does not depend on any registered policy: no kernel,
        ``fast=True`` names the subclass, ``fast=None`` is the reference
        loop, and the override really changes what the cache does."""
        trace = TRACES["zipf"]()
        p = _subclass(0)
        assert kernel_for(p) is None
        with pytest.raises(repro.KernelUnavailable) as excinfo:
            p.run(trace, fast=True)
        assert "OddPagesSkipSinkHeatSinkLRU" in str(excinfo.value)
        auto = _subclass(4).run(trace)  # fast=None
        ref = _subclass(4).run(trace, fast=False)
        assert np.array_equal(auto.hits, ref.hits)
        parent = repro.HeatSinkLRU(CAP, bin_size=8, sink_size=32, sink_prob=0.1, seed=4)
        assert not np.array_equal(auto.hits, parent.run(trace).hits)

    def test_fast_none_falls_back_and_matches_reference(self):
        """Auto dispatch on a kernel-less policy = the reference loop."""
        trace = TRACES["zipf"]()
        auto = repro.SketchHeatSinkLRU(
            CAP, bin_size=8, sink_size=32, sink_prob=0.1, seed=4
        ).run(trace)  # fast=None
        ref = repro.SketchHeatSinkLRU(
            CAP, bin_size=8, sink_size=32, sink_prob=0.1, seed=4
        ).run(trace, fast=False)
        assert np.array_equal(auto.hits, ref.hits)
