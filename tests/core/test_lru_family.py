"""Unit tests for LRU, MRU, FIFO, and CLOCK semantics."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fully.clock import ClockCache
from repro.core.fully.fifo import FIFOCache
from repro.core.fully.lru import LRUCache, MRUCache


class TestLRU:
    def test_evicts_least_recent(self):
        lru = LRUCache(2)
        lru.access(1)
        lru.access(2)
        lru.access(1)  # refresh 1; victim should now be 2
        lru.access(3)
        assert lru.contents() == {1, 3}

    def test_hit_does_not_evict(self):
        lru = LRUCache(2)
        lru.access(1)
        lru.access(2)
        assert lru.access(1) is True
        assert lru.contents() == {1, 2}

    def test_recency_order(self):
        lru = LRUCache(3)
        for p in (1, 2, 3, 1):
            lru.access(p)
        assert lru.recency_order() == [2, 3, 1]

    def test_victim_reporting(self):
        lru = LRUCache(2)
        assert lru.victim() is None
        lru.access(1)
        assert lru.victim() is None  # not full yet
        lru.access(2)
        assert lru.victim() == 1

    def test_known_miss_count_on_cycle(self):
        # cyclic scan of n+1 pages through size-n LRU: every access misses
        pages = np.tile(np.arange(4), 10)
        result = LRUCache(3).run(pages)
        assert result.num_misses == result.num_accesses

    def test_inclusion_property(self):
        """LRU(k) contents are always a subset of LRU(k+1) contents."""
        rng = np.random.Generator(np.random.PCG64(8))
        pages = rng.integers(0, 20, size=500).tolist()
        small, big = LRUCache(4), LRUCache(5)
        for p in pages:
            small.access(p)
            big.access(p)
            assert small.contents() <= big.contents()

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=150), st.integers(1, 8))
    @settings(max_examples=30)
    def test_property_monotone_in_capacity(self, pages, capacity):
        """Bigger LRU caches never miss more (stack property)."""
        arr = np.asarray(pages, dtype=np.int64)
        m_small = LRUCache(capacity).run(arr).num_misses
        m_big = LRUCache(capacity + 1).run(arr).num_misses
        assert m_big <= m_small


class TestMRU:
    def test_evicts_most_recent(self):
        mru = MRUCache(2)
        mru.access(1)
        mru.access(2)
        mru.access(3)  # evicts 2 (most recently used)
        assert mru.contents() == {1, 3}

    def test_optimal_on_cyclic_scan(self):
        """MRU beats LRU decisively on a cyclic scan slightly larger than
        the cache (LRU gets 0 hits; MRU retains most of the loop)."""
        pages = np.tile(np.arange(9), 30)
        lru_misses = LRUCache(8).run(pages).num_misses
        mru_misses = MRUCache(8).run(pages).num_misses
        assert lru_misses == pages.size
        assert mru_misses < 0.3 * pages.size


class TestFIFO:
    def test_evicts_first_in(self):
        fifo = FIFOCache(2)
        fifo.access(1)
        fifo.access(2)
        fifo.access(1)  # hit: does NOT refresh insertion order
        fifo.access(3)  # evicts 1 (inserted first)
        assert fifo.contents() == {2, 3}

    def test_differs_from_lru(self):
        pages = np.array([1, 2, 1, 3, 1, 4, 1, 5])
        fifo = FIFOCache(2).run(pages)
        lru = LRUCache(2).run(pages)
        # page 1 is constantly refreshed: LRU keeps it, FIFO cycles it out
        assert lru.num_misses < fifo.num_misses

    def test_beladys_anomaly_possible(self):
        """The classic Belady anomaly instance: FIFO with a BIGGER cache
        misses MORE. (Guards against accidentally implementing LRU.)"""
        pages = np.array([1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5])
        m3 = FIFOCache(3).run(pages).num_misses
        m4 = FIFOCache(4).run(pages).num_misses
        assert m3 == 9 and m4 == 10


class TestClock:
    def test_second_chance(self):
        clock = ClockCache(2)
        clock.access(1)
        clock.access(2)
        clock.access(1)  # sets 1's reference bit
        clock.access(3)  # hand skips 1 (clearing its bit), evicts 2
        assert clock.contents() == {1, 3}

    def test_degenerates_to_fifo_without_hits(self):
        pages = np.arange(100, dtype=np.int64)  # no re-references
        clock = ClockCache(8).run(pages)
        fifo = FIFOCache(8).run(pages)
        assert np.array_equal(clock.hits, fifo.hits)

    def test_approximates_lru_quality(self, small_zipf_trace):
        """On a Zipf trace CLOCK should land within ~15% of LRU misses."""
        lru = LRUCache(64).run(small_zipf_trace).num_misses
        clk = ClockCache(64).run(small_zipf_trace).num_misses
        assert abs(clk - lru) <= 0.15 * lru

    def test_hand_wraps(self):
        clock = ClockCache(3)
        for p in range(10):
            clock.access(p)
            clock.access(p)  # set every reference bit
        # all bits set; next miss must still find a victim (full rotation)
        clock.access(100)
        assert 100 in clock.contents()
        assert len(clock) == 3
