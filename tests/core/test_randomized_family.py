"""Unit tests for RANDOM, MARKING, and SIEVE semantics."""

from __future__ import annotations

import numpy as np

from repro.core.fully.lru import LRUCache
from repro.core.fully.marking import MarkingCache
from repro.core.fully.random_evict import RandomEvictCache
from repro.core.fully.sieve import SieveCache
from repro.traces.synthetic import zipf_trace


class TestRandomEvict:
    def test_deterministic_under_seed(self):
        rng = np.random.Generator(np.random.PCG64(1))
        pages = rng.integers(0, 30, size=1000, dtype=np.int64)
        a = RandomEvictCache(8, seed=5).run(pages)
        b = RandomEvictCache(8, seed=5).run(pages)
        assert np.array_equal(a.hits, b.hits)

    def test_seeds_differ(self):
        rng = np.random.Generator(np.random.PCG64(1))
        pages = rng.integers(0, 30, size=1000, dtype=np.int64)
        a = RandomEvictCache(8, seed=5).run(pages)
        b = RandomEvictCache(8, seed=6).run(pages)
        assert not np.array_equal(a.hits, b.hits)

    def test_eviction_position_uniform(self):
        """Original residents should all be flushed quickly: the chance a
        specific page survives t uniform evictions among 4 residents decays
        like (3/4)^t, so after 100 insertions none of the originals remain."""
        cache = RandomEvictCache(4, seed=7)
        for p in range(4):
            cache.access(p)
        for fresh in range(100, 200):
            cache.access(fresh)
        assert cache.contents().isdisjoint({0, 1, 2, 3})

    def test_every_eviction_removes_exactly_one(self):
        cache = RandomEvictCache(4, seed=9)
        for p in range(4):
            cache.access(p)
        for fresh in range(100, 150):
            before = set(cache.contents())
            cache.access(fresh)
            after = set(cache.contents())
            assert len(before - after) == 1
            assert after - before == {fresh}

    def test_swap_remove_integrity(self):
        cache = RandomEvictCache(3, seed=2)
        for p in range(100):
            cache.access(p % 7)
            assert len(cache) == len(cache.contents()) <= 3


class TestMarking:
    def test_marked_pages_survive_phase(self):
        m = MarkingCache(3, seed=1)
        m.access(1)
        m.access(2)
        m.access(3)
        # all marked; a miss starts a new phase but the missing page is marked
        m.access(4)
        assert 4 in m.contents()
        assert m.phase == 1

    def test_never_evicts_marked_within_phase(self):
        """Marked pages are safe until the phase resets (a phase reset
        unmarks everything, after which one unmarked page may be evicted)."""
        m = MarkingCache(4, seed=3)
        rng = np.random.Generator(np.random.PCG64(9))
        for p in rng.integers(0, 12, size=2000).tolist():
            before_marked = set(m._marked)
            phase_before = m.phase
            m.access(int(p))
            if m.phase == phase_before:
                assert before_marked <= m.contents()

    def test_phase_counting_on_cycle(self):
        m = MarkingCache(2, seed=5)
        for p in [1, 2, 3, 4, 1, 2]:
            m.access(p)
        assert m.phase >= 2

    def test_competitive_on_cycle_vs_lru(self):
        """On the (k+1)-page cycle, LRU misses 100%; MARKING must do
        strictly better in expectation (its guarantee is O(log k))."""
        pages = np.tile(np.arange(9), 40)
        lru_m = LRUCache(8).run(pages).num_misses
        mark_m = MarkingCache(8, seed=4).run(pages).num_misses
        assert lru_m == pages.size
        assert mark_m < 0.8 * pages.size


class TestSieve:
    def test_visited_pages_survive_sweep(self):
        s = SieveCache(3)
        s.access(1)
        s.access(2)
        s.access(3)
        s.access(1)  # mark 1 visited
        s.access(4)  # hand starts at tail (1): visited -> skip, evict 2
        assert 1 in s.contents()
        assert 2 not in s.contents()

    def test_evicts_tail_when_unvisited(self):
        s = SieveCache(2)
        s.access(1)
        s.access(2)
        s.access(3)
        assert s.contents() == {2, 3}

    def test_hand_persistence(self):
        """SIEVE's hand does not reset to the tail after each eviction."""
        s = SieveCache(3)
        for p in (1, 2, 3):
            s.access(p)
        for p in (1, 2, 3):
            s.access(p)  # all visited
        s.access(4)  # sweeps from tail clearing bits; evicts 1 (tail)
        s.access(5)  # hand is mid-list now; next unvisited is 2
        assert 3 in s.contents()

    def test_capacity_one(self):
        s = SieveCache(1)
        s.access(1)
        s.access(1)
        s.access(2)
        assert s.contents() == {2}

    def test_quality_on_zipf(self):
        """SIEVE should be at least competitive with LRU on Zipf traffic."""
        t = zipf_trace(512, 30_000, alpha=1.0, seed=6)
        sieve_m = SieveCache(128).run(t).num_misses
        lru_m = LRUCache(128).run(t).num_misses
        assert sieve_m <= 1.05 * lru_m

    def test_list_integrity_bulk(self):
        s = SieveCache(8)
        rng = np.random.Generator(np.random.PCG64(11))
        for p in rng.integers(0, 40, size=5000).tolist():
            s.access(int(p))
            assert len(s) <= 8
        # structural walk: list length equals dict size
        count, node = 0, s._head
        seen = set()
        while node is not None:
            assert id(node) not in seen  # no cycles
            seen.add(id(node))
            count += 1
            node = node.next
        assert count == len(s)
