"""Tests for SHARDS spatial sampling and the sampled MRC."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.mrc import exact_lru_mrc, mrc_gap, policy_mrc
from repro.core.fully.lru import LRUCache
from repro.errors import ConfigurationError
from repro.traces.sampling import shards_lru_mrc, spatial_sample
from repro.traces.synthetic import zipf_trace


class TestSpatialSample:
    def test_page_closure(self):
        """A page is either fully kept or fully dropped."""
        trace = zipf_trace(256, 20_000, alpha=0.8, seed=1)
        sample = spatial_sample(trace, 0.3, seed=2)
        kept = set(np.unique(sample.pages).tolist())
        for page in kept:
            full_count = int((trace.pages == page).sum())
            kept_count = int((sample.pages == page).sum())
            assert full_count == kept_count

    def test_rate_one_keeps_everything(self):
        trace = zipf_trace(64, 1000, seed=3)
        assert np.array_equal(spatial_sample(trace, 1.0).pages, trace.pages)

    def test_sampled_fraction_of_pages(self):
        trace = zipf_trace(4096, 50_000, alpha=0.0, seed=4)
        sample = spatial_sample(trace, 0.25, seed=5)
        frac = np.unique(sample.pages).size / np.unique(trace.pages).size
        assert 0.2 < frac < 0.3

    def test_deterministic(self):
        trace = zipf_trace(128, 5000, seed=6)
        a = spatial_sample(trace, 0.5, seed=7)
        b = spatial_sample(trace, 0.5, seed=7)
        assert a == b

    def test_order_preserved(self):
        trace = zipf_trace(128, 5000, seed=8)
        sample = spatial_sample(trace, 0.5, seed=9)
        kept_pages = set(np.unique(sample.pages).tolist())
        manual = trace.pages[np.isin(trace.pages, list(kept_pages))]
        assert np.array_equal(sample.pages, manual)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            spatial_sample(np.array([1, 2]), 0.0)
        with pytest.raises(ConfigurationError):
            spatial_sample(np.array([1, 2]), 1.5)


class TestShardsMrc:
    def test_estimates_exact_curve_uniform_popularity(self):
        """With uniform page popularity the raw estimator is already tight;
        SHARDS_adj overcorrects slightly (its hit-crediting assumption is
        tuned for skewed popularity) but stays within a few points."""
        trace = zipf_trace(4096, 150_000, alpha=0.0, seed=10)
        sizes = [256, 1024, 2048]
        exact = exact_lru_mrc(trace, sizes)
        raw = shards_lru_mrc(trace, sizes, rate=0.1, seed=11, adjust=False)
        adjusted = shards_lru_mrc(trace, sizes, rate=0.1, seed=11)
        assert mrc_gap(raw, exact)["max_abs_gap"] < 0.05
        assert mrc_gap(adjusted, exact)["max_abs_gap"] < 0.08

    def test_adjustment_fixes_skewed_bias(self):
        """The SHARDS_adj headline: on skewed popularity at a low rate the
        raw estimator is badly biased and the adjustment repairs it."""
        trace = zipf_trace(16_384, 200_000, alpha=0.9, seed=10)
        sizes = [512, 2048, 8192]
        exact = exact_lru_mrc(trace, sizes)
        raw = shards_lru_mrc(trace, sizes, rate=0.1, seed=11, adjust=False)
        adjusted = shards_lru_mrc(trace, sizes, rate=0.1, seed=11)
        raw_gap = mrc_gap(raw, exact)["max_abs_gap"]
        adj_gap = mrc_gap(adjusted, exact)["max_abs_gap"]
        assert adj_gap < raw_gap
        assert adj_gap < 0.05

    def test_estimates_exact_curve_zipf(self):
        """On skewed popularity the per-seed variance is higher (few
        sampled pages carry most traffic); averaging over seeds the
        estimator still tracks the curve."""
        trace = zipf_trace(8192, 200_000, alpha=0.9, seed=10)
        sizes = [256, 1024, 4096]
        exact = exact_lru_mrc(trace, sizes)
        estimates = [
            shards_lru_mrc(trace, sizes, rate=0.2, seed=s) for s in range(5)
        ]
        mean_estimate = np.mean(estimates, axis=0)
        assert mrc_gap(mean_estimate, exact)["max_abs_gap"] < 0.06

    def test_rate_one_is_exact(self):
        trace = zipf_trace(512, 20_000, alpha=1.0, seed=12)
        sizes = [16, 64, 256]
        assert np.allclose(
            shards_lru_mrc(trace, sizes, rate=1.0), exact_lru_mrc(trace, sizes)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            shards_lru_mrc(np.array([1]), [4], rate=0.0)
        with pytest.raises(ConfigurationError):
            shards_lru_mrc(np.array([1]), [], rate=0.5)
        with pytest.raises(ConfigurationError):
            shards_lru_mrc(np.array([1]), [0], rate=0.5)


class TestMrcModule:
    def test_exact_matches_direct_simulation(self):
        trace = zipf_trace(256, 10_000, alpha=1.0, seed=13)
        sizes = [8, 32, 128]
        curve = exact_lru_mrc(trace, sizes)
        for size, rate in zip(sizes, curve.tolist()):
            assert rate == pytest.approx(LRUCache(size).run(trace).miss_rate)

    def test_policy_mrc_generic(self):
        trace = zipf_trace(256, 5_000, alpha=1.0, seed=14)
        curve = policy_mrc(lambda c: LRUCache(c), trace, [8, 64])
        assert curve[1] <= curve[0]

    def test_gap_summary(self):
        gap = mrc_gap(np.array([0.5, 0.4]), np.array([0.4, 0.4]))
        assert gap["mean_abs_gap"] == pytest.approx(0.05)
        assert gap["max_abs_gap"] == pytest.approx(0.1)
        assert gap["mean_signed_gap"] == pytest.approx(0.05)

    def test_gap_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            mrc_gap(np.array([1.0]), np.array([1.0, 2.0]))

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            exact_lru_mrc(np.empty(0, dtype=np.int64), [4])
