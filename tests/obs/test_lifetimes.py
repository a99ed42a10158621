"""Placement lifetimes and sink occupancy — the heat-dissipation evidence.

The acceptance property here is the paper's §1.1 "heat dissipation"
claim (Lemmas 5–8): placements routed to the heat-sink are evicted much
sooner than placements that won a bin slot, because the sink is a small,
hot region that churns. We capture a real heat-sink run and assert the
lifetime ordering directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.registry import make_policy
from repro.obs import hooks
from repro.obs.lifetimes import (
    occupancy_series,
    placement_lifetimes,
    read_ndjson,
)
from repro.obs.sinks import ListSink, NDJSONSink
from repro.traces.synthetic import zipf_trace


def _capture_heatsink_run():
    trace = zipf_trace(2048, 20000, alpha=1.0, seed=3)
    policy = make_policy(
        "heatsink", 544, bin_size=16, sink_size=32, sink_prob=0.2, seed=1
    )
    with hooks.capturing(ListSink()) as sink:
        policy.run(trace)
    return sink.events


class TestPairing:
    def test_route_evict_pairing_basic(self):
        events = [
            {"ev": "route", "i": 0, "page": 1, "to": "bin", "bin": 0},
            {"ev": "route", "i": 2, "page": 2, "to": "sink"},
            {"ev": "evict", "i": 5, "page": 1, "from": "bin", "bin": 0},
            {"ev": "evict", "i": 6, "page": 2, "from": "sink"},
            {"ev": "route", "i": 7, "page": 3, "to": "bin", "bin": 1},  # censored
        ]
        by_region = placement_lifetimes(events)
        assert by_region["bin"].lifetimes.tolist() == [5]
        assert by_region["sink"].lifetimes.tolist() == [4]
        assert by_region["bin"].censored == 1
        assert by_region["sink"].censored == 0

    def test_unmatched_evicts_ignored(self):
        events = [{"ev": "evict", "i": 3, "page": 9, "from": "bin"}]
        assert placement_lifetimes(events) == {}

    def test_empty_region_moments_are_nan(self):
        events = [{"ev": "route", "i": 0, "page": 1, "to": "sink"}]
        stats = placement_lifetimes(events)["sink"]
        assert stats.count == 0
        assert np.isnan(stats.mean)
        assert np.isnan(stats.median)
        assert np.isnan(stats.survival([10])[10])

    def test_survival_is_monotone(self):
        events = _capture_heatsink_run()
        stats = placement_lifetimes(events)["bin"]
        surv = stats.survival([1, 10, 100, 1000])
        values = [surv[h] for h in (1, 10, 100, 1000)]
        assert values == sorted(values, reverse=True)


class TestHeatDissipation:
    def test_sink_placements_are_shorter_lived_than_bin_placements(self):
        by_region = placement_lifetimes(_capture_heatsink_run())
        bin_stats, sink_stats = by_region["bin"], by_region["sink"]
        # enough completed placements on both sides to mean something
        assert bin_stats.count > 500
        assert sink_stats.count > 100
        # the dissipation ordering, with a margin: sink placements churn
        assert sink_stats.mean < 0.5 * bin_stats.mean
        assert sink_stats.median < bin_stats.median

    def test_sink_occupancy_reaches_and_holds_capacity(self):
        times, counts = occupancy_series(_capture_heatsink_run(), region="sink")
        assert counts.max() <= 32  # never exceeds sink size
        # quasi-steady state: occupancy in the last quarter stays high
        tail = counts[3 * len(counts) // 4 :]
        assert tail.min() >= 30

    def test_occupancy_every_parameter_downsamples(self):
        events = _capture_heatsink_run()
        t1, c1 = occupancy_series(events, region="sink", every=1)
        t10, c10 = occupancy_series(events, region="sink", every=10)
        assert len(t10) == len(t1) // 10
        assert c10.tolist() == c1[9::10].tolist()


class TestNDJSONRoundTrip:
    def test_capture_to_file_and_analyze(self, tmp_path):
        path = tmp_path / "run.ndjson"
        trace = zipf_trace(512, 4000, alpha=1.0, seed=7)
        policy = make_policy(
            "heatsink", 144, bin_size=16, sink_size=16, sink_prob=0.2, seed=2
        )
        with NDJSONSink(path) as file_sink:
            with hooks.capturing(file_sink):
                policy.run(trace)
        events = list(read_ndjson(path))
        assert len(events) == file_sink.written
        by_region = placement_lifetimes(events)
        assert set(by_region) <= {"bin", "sink"}
        assert sum(s.count + s.censored for s in by_region.values()) > 0

    def test_memory_and_file_captures_agree(self, tmp_path):
        path = tmp_path / "run.ndjson"
        trace = zipf_trace(256, 2000, alpha=1.0, seed=9)
        mem = ListSink()
        with NDJSONSink(path) as file_sink:
            with hooks.capturing(mem):
                hooks.install(file_sink)
                make_policy("heatsink", 80, seed=4).run(trace)
                hooks.uninstall(file_sink)
        assert list(read_ndjson(path)) == mem.events
