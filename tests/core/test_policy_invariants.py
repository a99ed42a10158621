"""Cross-policy property tests: demand-paging invariants for every policy.

These are the library's strongest correctness net: every registered
online policy is driven step-by-step against a reference residency model
on hypothesis-generated traces, and offline Belady is checked against the
same bulk contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fully.belady import BeladyCache
from repro.core.registry import available_policies, make_policy
from tests.helpers import all_online_policy_factories, reference_policy_check

CAPACITY = 8
FACTORIES = all_online_policy_factories(CAPACITY)

traces_strategy = st.lists(st.integers(0, 24), min_size=1, max_size=200).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestOnlinePolicyInvariants:
    @given(pages=traces_strategy)
    @settings(max_examples=25)
    def test_demand_paging_invariants(self, name, pages):
        reference_policy_check(FACTORIES[name](), pages)

    def test_reset_empties_cache(self, name):
        policy = FACTORIES[name]()
        for page in range(CAPACITY * 2):
            policy.access(page)
        policy.reset()
        assert len(policy.contents()) == 0
        assert len(policy) == 0

    def test_run_equals_stepping(self, name):
        rng = np.random.Generator(np.random.PCG64(5))
        pages = rng.integers(0, 30, size=300, dtype=np.int64)
        bulk = FACTORIES[name]().run(pages)
        stepped = FACTORIES[name]()
        stepped.reset()
        manual = np.array([stepped.access(int(p)) for p in pages.tolist()])
        assert np.array_equal(bulk.hits, manual), name

    def test_repeated_access_hits(self, name):
        policy = FACTORIES[name]()
        policy.access(1)
        assert policy.access(1) is True

    def test_miss_count_bounds(self, name):
        """misses >= distinct pages (cold) and <= total accesses."""
        rng = np.random.Generator(np.random.PCG64(6))
        pages = rng.integers(0, 50, size=500, dtype=np.int64)
        result = FACTORIES[name]().run(pages)
        distinct = int(np.unique(pages).size)
        assert distinct <= result.num_misses + 0 or distinct <= result.num_misses
        assert result.num_misses >= min(distinct, 1)
        assert result.num_misses <= result.num_accesses

    def test_small_working_set_all_hits_after_warmup(self, name):
        """A working set that fits must stop missing eventually (policies
        may need several passes to stabilize, e.g. 2-RANDOM)."""
        if name == "heatsink":
            pytest.skip("heatsink's helper kwargs give it a tiny bin region")
        policy = FACTORIES[name]()
        ws = list(range(3))  # 3 pages in a cache of 8
        for _ in range(40):
            for p in ws:
                policy.access(p)
        misses = sum(not policy.access(p) for _ in range(5) for p in ws)
        assert misses == 0, f"{name} still missing on a tiny stable working set"


class TestBeladyContract:
    @given(pages=traces_strategy)
    @settings(max_examples=25)
    def test_belady_beats_every_online_policy(self, pages):
        opt_misses = BeladyCache(4).run(pages).num_misses
        for name, factory in FACTORIES.items():
            policy = make_policy(name, 4, **_small_kwargs(name))
            assert opt_misses <= policy.run(pages).num_misses, name

    def test_offline_flag(self):
        assert BeladyCache(4).is_offline
        for name in sorted(FACTORIES):
            assert not FACTORIES[name]().is_offline


def _small_kwargs(name: str) -> dict:
    from tests.helpers import _extra_kwargs

    kwargs = _extra_kwargs(name, 4)
    if name == "victim":
        kwargs["victim_size"] = 1
    if name == "heatsink":
        kwargs.update(bin_size=2, sink_size=2, sink_prob=0.1)
    if name in {"set-assoc", "skew-assoc"}:
        kwargs["d"] = 2  # defaults exceed a capacity-4 cache
    return kwargs


class TestRegistry:
    def test_all_expected_policies_registered(self):
        names = set(available_policies())
        expected = {
            "lru", "mru", "fifo", "clock", "lfu", "random", "marking",
            "sieve", "arc", "2q", "lru-k", "opt",
            "d-lru", "2-lru", "d-fifo", "d-random", "2-random",
            "set-assoc", "skew-assoc", "victim", "cuckoo", "heatsink",
        }
        assert expected <= names

    def test_unknown_policy_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown policy"):
            make_policy("definitely-not-a-policy", 8)

    def test_duplicate_registration_rejected(self):
        from repro.core.registry import register_policy
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            register_policy("lru", lambda c: None)

    def test_overwrite_allowed(self):
        from repro.core.registry import _REGISTRY, register_policy

        original = _REGISTRY["lru"]
        try:
            register_policy("lru", original, overwrite=True)
        finally:
            _REGISTRY["lru"] = original

    def test_capacity_validation(self):
        from repro.errors import ConfigurationError

        for name in ("lru", "fifo", "opt"):
            with pytest.raises(ConfigurationError):
                make_policy(name, 0)
