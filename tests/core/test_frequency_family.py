"""Unit tests for LFU, LRU-K, 2Q, and ARC semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fully.arc import ARCCache
from repro.core.fully.lfu import LFUCache
from repro.core.fully.lru import LRUCache
from repro.core.fully.lru_k import LRUKCache
from repro.core.fully.two_q import TwoQCache
from repro.errors import ConfigurationError
from repro.traces.synthetic import zipf_trace


class TestLFU:
    def test_evicts_least_frequent(self):
        lfu = LFUCache(2)
        lfu.access(1)
        lfu.access(1)
        lfu.access(2)
        lfu.access(3)  # 2 has freq 1, 1 has freq 2 -> evict 2
        assert lfu.contents() == {1, 3}

    def test_lru_tiebreak(self):
        lfu = LFUCache(2)
        lfu.access(1)
        lfu.access(2)  # both freq 1; 1 is older
        lfu.access(3)
        assert lfu.contents() == {2, 3}

    def test_frequency_tracking(self):
        lfu = LFUCache(4)
        for _ in range(5):
            lfu.access(7)
        assert lfu.frequency_of(7) == 5
        assert lfu.frequency_of(99) is None

    def test_frequency_resets_on_eviction(self):
        lfu = LFUCache(1)
        for _ in range(10):
            lfu.access(1)
        lfu.access(2)  # evicts 1 despite high frequency (capacity 1)
        lfu.access(1)  # re-enters with frequency 1
        assert lfu.frequency_of(1) == 1

    def test_scan_resistance_vs_lru(self):
        """Hot pages with high counts survive a one-shot scan under LFU."""
        hot = np.tile(np.arange(8), 50)
        scan = np.arange(100, 200)
        probe = np.arange(8)
        trace = np.concatenate([hot, scan, probe])
        lfu_probe_misses = (~LFUCache(16).run(trace).hits[-8:]).sum()
        lru_probe_misses = (~LRUCache(16).run(trace).hits[-8:]).sum()
        assert lfu_probe_misses < lru_probe_misses

    def test_bucket_list_integrity_bulk(self):
        rng = np.random.Generator(np.random.PCG64(4))
        lfu = LFUCache(16)
        for p in rng.integers(0, 64, size=3000).tolist():
            lfu.access(int(p))
            assert len(lfu) <= 16


class TestLRUK:
    def test_k1_matches_lru(self):
        rng = np.random.Generator(np.random.PCG64(2))
        pages = rng.integers(0, 30, size=800, dtype=np.int64)
        assert np.array_equal(
            LRUKCache(8, k=1).run(pages).hits, LRUCache(8).run(pages).hits
        )

    def test_prefers_evicting_single_reference_pages(self):
        c = LRUKCache(3, k=2)
        c.access(1)
        c.access(1)  # 1 has two references
        c.access(2)
        c.access(3)
        c.access(4)  # evict among {2,3} (single-ref) before 1
        assert 1 in c.contents()

    def test_oldest_kth_reference_evicted(self):
        # clocks: 1@{1,2}, 2@{3,4}, then 1@5 -> 1's K-th most recent is 2,
        # 2's is 3; LRU-2 evicts the page with the OLDEST K-th reference (1)
        c = LRUKCache(2, k=2)
        c.access(1)
        c.access(1)
        c.access(2)
        c.access(2)
        c.access(1)
        c.access(3)
        assert c.contents() == {2, 3}

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            LRUKCache(4, k=0)

    def test_name_includes_k(self):
        assert LRUKCache(4, k=2).name == "LRU-2"


class TestTwoQ:
    def test_second_reference_promotes(self):
        q = TwoQCache(8)
        q.access(1)  # into A1in
        # push 1 out of A1in into the ghost A1out
        for p in range(2, 8):
            q.access(p)
        assert 1 not in q.contents() or True  # may be resident or ghosted
        was_resident = 1 in q.contents()
        q.access(1)
        if not was_resident:
            # a ghost hit must bring the page into the Am (hot) list
            assert 1 in q.contents()

    def test_scan_does_not_pollute_hot_list(self):
        q = TwoQCache(16)
        # establish hot pages: 4 hot + 16 fillers overflow the cache by
        # exactly 4, reclaiming the 4 hot pages into the ghost queue; the
        # re-reference then ghost-hits them into the hot Am list
        for p in range(4):
            q.access(p)
        for p in range(100, 116):
            q.access(p)
        for p in range(4):
            q.access(p)
        assert all(p in q._am for p in range(4))
        # a long one-shot scan only ever occupies the probation queue
        for p in range(1000, 1100):
            q.access(p)
        hot_hits = sum(q.access(p) for p in range(4))
        assert hot_hits == 4

    def test_capacity_respected(self):
        q = TwoQCache(4)
        for p in range(100):
            q.access(p)
            assert len(q) <= 4

    def test_invalid_fractions(self):
        with pytest.raises(ConfigurationError):
            TwoQCache(8, kin_fraction=0.0)
        with pytest.raises(ConfigurationError):
            TwoQCache(8, kout_fraction=0.0)

    def test_capacity_one(self):
        q = TwoQCache(1)
        assert q.access(1) is False
        assert q.access(1) is True
        q.access(2)
        assert len(q) == 1


class TestARC:
    def test_t1_hit_promotes_to_t2(self):
        arc = ARCCache(4)
        arc.access(1)  # into t1
        arc.access(1)  # promoted to t2
        assert arc._t2 is not None and 1 in arc._t2

    def test_ghost_hit_adapts_target(self):
        # B1 only receives pages while |T1| < c (FAST'03 Case IV), so first
        # promote one page into T2, then overflow T1
        arc = ARCCache(4)
        arc.access(0)
        arc.access(0)  # 0 -> t2
        for p in range(1, 6):
            arc.access(p)  # t1 overflows -> LRU of t1 ghosts into b1
        assert len(arc._b1) > 0
        ghost = next(iter(arc._b1))
        before = arc.target_t1
        arc.access(ghost)
        assert arc.target_t1 >= before  # b1 hit grows the recency target
        assert ghost in arc.contents()

    def test_capacity_and_ghost_bounds(self):
        arc = ARCCache(6)
        rng = np.random.Generator(np.random.PCG64(3))
        for p in rng.integers(0, 40, size=4000).tolist():
            arc.access(int(p))
            assert len(arc) <= 6
            l1 = len(arc._t1) + len(arc._b1)
            l2 = len(arc._t2) + len(arc._b2)
            assert l1 <= 6
            assert l1 + l2 <= 12

    def test_beats_lru_on_mixed_scan_workload(self):
        """ARC's raison d'être: loops+scans where LRU thrashes."""
        hot = np.tile(np.arange(32), 60)
        scans = np.arange(1000, 3000)
        rng = np.random.Generator(np.random.PCG64(5))
        mix = np.concatenate([hot[:960], scans[:1000], hot[960:], scans[1000:]])
        arc_m = ARCCache(64).run(mix).num_misses
        lru_m = LRUCache(64).run(mix).num_misses
        assert arc_m <= lru_m

    def test_close_to_lru_on_zipf(self):
        t = zipf_trace(512, 30_000, alpha=1.0, seed=3)
        arc_m = ARCCache(128).run(t).num_misses
        lru_m = LRUCache(128).run(t).num_misses
        assert arc_m <= 1.1 * lru_m
