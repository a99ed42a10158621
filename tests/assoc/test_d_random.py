"""Tests for 2-RANDOM / d-RANDOM — §2/§4 semantics."""

from __future__ import annotations

import numpy as np

from repro.core.assoc.d_random import DRandomCache
from repro.core.assoc.hashdist import ExplicitHashes
from repro.graphtools.orientation import is_one_orientable


class TestPaperSemantics:
    def test_blind_eviction_ignores_empty_slots(self):
        """The paper's 2-RANDOM may overwrite an occupied slot even when
        the other hash is free; over many seeds both choices must occur."""
        overwrote = kept = 0
        for seed in range(40):
            dist = ExplicitHashes(4, {1: [0, 1], 2: [1, 2]})
            cache = DRandomCache(4, dist=dist, seed=seed)
            cache.access(1)
            if cache.slot_of(1) != 1:
                continue  # need page 1 sitting in the shared slot 1
            cache.access(2)  # slots {1, 2}: slot 2 is empty, slot 1 has page 1
            if 1 in cache.contents():
                kept += 1
            else:
                overwrote += 1
        assert overwrote > 0, "blind 2-RANDOM must sometimes evict despite a free slot"
        assert kept > 0

    def test_occupancy_aware_prefers_empty(self):
        for seed in range(20):
            dist = ExplicitHashes(4, {1: [0, 1], 2: [1, 2]})
            cache = DRandomCache(4, dist=dist, seed=seed, occupancy_aware=True)
            cache.access(1)
            cache.access(2)
            assert 1 in cache.contents()  # never clobbers while 2 has a free slot

    def test_choice_roughly_balanced(self):
        """The placement slot should be ~50/50 between the two hashes."""
        first = 0
        trials = 400
        for seed in range(trials):
            cache = DRandomCache(64, d=2, seed=seed)
            cache.access(7)
            if cache.slot_of(7) == cache.dist.positions(7)[0]:
                first += 1
        assert 0.4 * trials < first < 0.6 * trials

    def test_deterministic_per_seed(self):
        rng = np.random.Generator(np.random.PCG64(1))
        pages = rng.integers(0, 100, size=1500, dtype=np.int64)
        a = DRandomCache(32, d=2, seed=9).run(pages)
        b = DRandomCache(32, d=2, seed=9).run(pages)
        assert np.array_equal(a.hits, b.hits)

    def test_eviction_coins_independent_of_hash_salt(self):
        """Hashes must be predictable (oblivious adversary) while coins are
        a separate stream: two caches with the same seed share hashes."""
        a = DRandomCache(32, d=2, seed=3)
        b = DRandomCache(32, d=2, seed=3)
        for page in range(50):
            assert a.dist.positions(page) == b.dist.positions(page)


class TestHeatDissipationFixedPoint:
    def test_settles_when_orientable(self):
        """Lemma 7's moral: once a compatible placement exists, repeated
        passes over a storable set converge to zero misses."""
        n = 256
        rng = np.random.Generator(np.random.PCG64(5))
        pages = np.arange(n // 16, dtype=np.int64)  # tiny working set
        cache = DRandomCache(n, d=2, seed=6)
        edges = cache.dist.positions_batch(pages)
        assert is_one_orientable(n, edges)  # storable together
        last_pass_misses = None
        for _ in range(60):
            result = cache.run(pages, reset=False)
            last_pass_misses = result.num_misses
        assert last_pass_misses == 0

    def test_never_settles_when_not_orientable(self):
        """Three pages sharing the same two slots can never coexist."""
        dist = ExplicitHashes(8, {1: [0, 1], 2: [0, 1], 3: [0, 1]})
        cache = DRandomCache(8, dist=dist, seed=7)
        pages = np.array([1, 2, 3], dtype=np.int64)
        total_misses = 0
        for _ in range(50):
            total_misses += cache.run(pages, reset=False).num_misses
        assert total_misses >= 50  # at least one miss per pass, forever


class TestGeneralized:
    def test_d4_works(self):
        cache = DRandomCache(64, d=4, seed=8)
        rng = np.random.Generator(np.random.PCG64(9))
        for p in rng.integers(0, 300, size=2000).tolist():
            cache.access(int(p))
            assert cache.slot_of(int(p)) in cache.dist.positions(int(p))

    def test_name_reflects_variant(self):
        assert "RANDOM" in DRandomCache(8, d=2, seed=1).name
        assert "aware" in DRandomCache(8, d=2, seed=1, occupancy_aware=True).name
