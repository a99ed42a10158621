"""Unit tests for LIRS semantics."""

from __future__ import annotations

import pytest

from repro.core.fully.lirs import LIRSCache
from repro.core.fully.lru import LRUCache
from repro.errors import ConfigurationError
from repro.traces.synthetic import cyclic_scan_trace, zipf_trace


class TestConstruction:
    def test_partition(self):
        c = LIRSCache(100, hir_fraction=0.1)
        assert c.hir_capacity == 10
        assert c.lir_capacity == 90

    def test_small_capacity(self):
        c = LIRSCache(2)
        assert c.hir_capacity >= 1
        assert c.lir_capacity >= 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LIRSCache(8, hir_fraction=0.0)
        with pytest.raises(ConfigurationError):
            LIRSCache(8, hir_fraction=1.0)
        with pytest.raises(ConfigurationError):
            LIRSCache(8, ghost_factor=0.5)


class TestSemantics:
    def test_cold_start_fills_lir_first(self):
        c = LIRSCache(10, hir_fraction=0.2)  # lir capacity 8
        for p in range(8):
            c.access(p)
        assert c.lir_pages() == frozenset(range(8))

    def test_hir_page_with_short_reuse_promotes(self):
        c = LIRSCache(10, hir_fraction=0.2)
        for p in range(8):
            c.access(p)  # LIR = 0..7
        c.access(100)  # HIR resident, on stack
        c.access(100)  # re-reference while on stack -> promotes to LIR
        assert 100 in c.lir_pages()

    def test_promotion_demotes_bottom_lir(self):
        c = LIRSCache(10, hir_fraction=0.2)
        for p in range(8):
            c.access(p)
        c.access(100)
        c.access(100)
        # LIR capacity is 8: promoting 100 must demote the coldest (0)
        assert 0 not in c.lir_pages()
        assert 0 in c.contents()  # demoted to resident HIR, not evicted

    def test_one_shot_scan_does_not_displace_lir(self):
        c = LIRSCache(10, hir_fraction=0.2)
        for _ in range(2):
            for p in range(8):
                c.access(p)
        for p in range(1000, 1100):  # long one-shot scan
            c.access(p)
        assert c.lir_pages() == frozenset(range(8))
        assert all(c.access(p) for p in range(8))

    def test_ghost_hit_enters_as_lir(self):
        c = LIRSCache(10, hir_fraction=0.2)
        for p in range(8):
            c.access(p)
        c.access(50)  # HIR resident (cache now 9/10)
        c.access(51)  # HIR resident (cache full)
        c.access(52)  # miss at capacity: evicts Q-front 50 -> ghost
        assert 50 not in c.contents()
        c.access(50)  # ghost hit -> re-enters as LIR
        assert 50 in c.lir_pages()

    def test_ghost_bound(self):
        c = LIRSCache(8, hir_fraction=0.25, ghost_factor=2.0)
        for p in range(10_000):
            c.access(p)
        assert len(c._stack) <= 2 * 8 + 4  # bound plus in-flight slack


class TestQuality:
    def test_scan_resistance_vs_lru(self):
        trace = cyclic_scan_trace(600, 60_000)
        lirs_rate = LIRSCache(512).run(trace).miss_rate
        lru_rate = LRUCache(512).run(trace).miss_rate
        assert lru_rate == 1.0
        assert lirs_rate < 0.5

    def test_competitive_with_lru_on_zipf(self):
        trace = zipf_trace(2048, 60_000, alpha=1.0, seed=3)
        lirs_rate = LIRSCache(512).run(trace).miss_rate
        lru_rate = LRUCache(512).run(trace).miss_rate
        assert lirs_rate <= 1.05 * lru_rate

    def test_reset(self):
        c = LIRSCache(8)
        for p in range(50):
            c.access(p)
        c.reset()
        assert len(c) == 0
        assert c.lir_pages() == frozenset()
