"""Tests for tree-PLRU — hardware pseudo-LRU semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assoc.set_assoc import SetAssociativeLRU
from repro.core.assoc.tree_plru import TreePLRUCache
from repro.errors import ConfigurationError
from repro.traces.synthetic import zipf_trace
from tests.helpers import reference_policy_check


class TestConstruction:
    def test_layout(self):
        c = TreePLRUCache(64, ways=8)
        assert c.num_sets == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TreePLRUCache(64, ways=3)  # not a power of two
        with pytest.raises(ConfigurationError):
            TreePLRUCache(64, ways=1)
        with pytest.raises(ConfigurationError):
            TreePLRUCache(60, ways=8)  # not divisible


class TestSemantics:
    def test_invariants(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for trial in range(8):
            pages = rng.integers(0, 60, size=500, dtype=np.int64)
            reference_policy_check(TreePLRUCache(16, ways=4, seed=trial), pages)

    def test_two_way_tree_is_exact_lru(self):
        """With 2 ways the single tree bit IS exact LRU: the two must agree
        access-for-access when given identical set hashes."""
        tree = TreePLRUCache(32, ways=2, seed=5)
        # build an exact 2-way set-assoc LRU over the SAME set function by
        # driving per-set reference LRU caches manually
        from collections import OrderedDict

        sets: dict[int, OrderedDict] = {i: OrderedDict() for i in range(16)}
        rng = np.random.Generator(np.random.PCG64(2))
        for page in rng.integers(0, 200, size=3000).tolist():
            s = tree.set_of(int(page))
            ref = sets[s]
            expected_hit = page in ref
            if expected_hit:
                ref.move_to_end(page)
            else:
                if len(ref) >= 2:
                    ref.popitem(last=False)
                ref[page] = None
            assert tree.access(int(page)) == expected_hit

    def test_victim_is_never_most_recent(self):
        """PLRU guarantee: the most recently touched way is never evicted."""
        c = TreePLRUCache(8, ways=8, seed=3)
        # all pages in one set (num_sets == 1)
        pages = list(range(20))
        last = None
        for p in pages:
            before = c.contents()
            c.access(p)
            if last is not None and last in before:
                assert last in c.contents(), "most recent way was evicted"
            last = p

    def test_fills_invalid_ways_first(self):
        c = TreePLRUCache(8, ways=8)
        for p in range(8):
            c.access(p)
        assert c.contents() == set(range(8))

    def test_close_to_true_lru_quality(self):
        """Tree-PLRU tracks exact set-assoc LRU within a few percent."""
        trace = zipf_trace(4096, 100_000, alpha=1.0, seed=4)
        plru = TreePLRUCache(512, ways=8, seed=6).run(trace).miss_rate
        exact = SetAssociativeLRU(512, d=8, seed=6).run(trace).miss_rate
        assert plru == pytest.approx(exact, rel=0.06)

    def test_melts_on_adversarial_like_exact_lru(self):
        """The Theorem-2 dance is not an exact-recency artifact."""
        from repro.traces.adversarial import build_theorem2_sequence

        n = 1024
        seq = build_theorem2_sequence(n, rounds=20, seed=7)
        plru = TreePLRUCache(n, ways=2, seed=8)
        result = plru.run(seq.trace)
        miss = ~result.hits[seq.t0 :]
        per = miss.size // 20
        late = miss[: per * 20].reshape(20, per).sum(axis=1)[-5:].mean()
        assert late > 5  # persistent per-round misses, like 2-LRU

    def test_reset(self):
        c = TreePLRUCache(16, ways=4)
        for p in range(50):
            c.access(p)
        c.reset()
        assert len(c) == 0
