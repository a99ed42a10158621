"""Open-loop SLO loadgen: arrival schedules, the report, live replays."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

import repro
from repro.core.registry import make_policy
from repro.errors import ConfigurationError
from repro.service.openloop import (
    MAX_LAG_SECONDS,
    SLOReport,
    _arrival_offsets,
    arrival_schedule,
    open_loop_replay,
    run_open_loop,
)
from repro.service.server import running_server
from repro.service.store import PolicyStore
from repro.traces.streaming import ZipfTraceStream


class TestArrivalSchedule:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            arrival_schedule(0, 100.0)
        with pytest.raises(ConfigurationError):
            arrival_schedule(10, 0.0)
        with pytest.raises(ConfigurationError):
            arrival_schedule(10, 100.0, burst=0.5)

    def test_poisson_rate_and_monotonicity(self):
        offsets = arrival_schedule(20_000, 1000.0, seed=1)
        assert len(offsets) == 20_000
        assert np.all(np.diff(offsets) >= 0)
        # 20k exponential gaps: the empirical rate is within a few percent
        assert 20_000 / offsets[-1] == pytest.approx(1000.0, rel=0.05)

    def test_bursty_keeps_long_run_rate(self):
        offsets = arrival_schedule(20_000, 1000.0, burst=8.0, seed=1)
        assert np.all(np.diff(offsets) >= 0)
        assert 20_000 / offsets[-1] == pytest.approx(1000.0, rel=0.10)
        # clumps: many arrivals share an identical timestamp
        same = np.sum(np.diff(offsets) == 0.0)
        assert same > 10_000  # mean burst 8 => ~7/8 of gaps are zero

    def test_deterministic_per_seed(self):
        a = arrival_schedule(500, 2000.0, burst=4.0, seed=9)
        b = arrival_schedule(500, 2000.0, burst=4.0, seed=9)
        c = arrival_schedule(500, 2000.0, burst=4.0, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("burst", [1.0, 4.0])
    @pytest.mark.parametrize("n", [1, 4097, 10_000])
    def test_streamed_offsets_are_the_schedule(self, burst, n):
        # a streamed run draws arrivals as it sends; an array run must get
        # the very same offsets, bit for bit, across the 4096-draw blocks
        schedule = arrival_schedule(n, 2000.0, burst=burst, seed=9)
        offsets = _arrival_offsets(2000.0, burst, seed=9)
        streamed = np.array([next(offsets) for _ in range(n)])
        assert np.array_equal(schedule, streamed)


class TestSLOReport:
    def make_report(self, **over):
        base = dict(
            ops=100, hits=60, errors=0, seconds=1.0, rate=100.0, burst=1.0,
            connections=4, frame="ndjson", p50_ms=1.0, p90_ms=2.0, p99_ms=5.0,
            p999_ms=9.0, max_ms=12.0, mean_ms=1.5, slo_ms=10.0, violations=2,
            violation_fraction=0.02, lag_p99_ms=0.5, lag_max_ms=1.0, lag_ok=True,
        )
        base.update(over)
        return SLOReport(**base)

    def test_as_dict_is_json_able(self):
        payload = json.dumps(self.make_report().as_dict())
        loaded = json.loads(payload)
        assert loaded["violations"] == 2
        assert loaded["achieved_rate"] == pytest.approx(100.0)

    def test_summary_mentions_slo_and_lag(self):
        text = self.make_report().summary()
        assert "SLO 10ms" in text
        assert "2 violations" in text
        assert "LAGGED" not in text

    def test_lagged_run_is_flagged_loudly(self):
        text = self.make_report(lag_ok=False).summary()
        assert "GENERATOR LAGGED" in text

    def test_summary_without_slo_omits_the_line(self):
        text = self.make_report(slo_ms=None, violations=0).summary()
        assert "SLO" not in text


class TestOpenLoopReplay:
    """Live open-loop runs against an in-process server (localhost only).

    Rates are far below the server's ceiling, so these runs always keep
    schedule on any machine fast enough to run the suite at all."""

    def replay(self, trace, **kwargs):
        async def scenario():
            store = PolicyStore(make_policy("lru", 256))
            async with running_server(store) as server:
                return await open_loop_replay(
                    trace, host="127.0.0.1", port=server.port, seed=3, **kwargs
                )

        return asyncio.run(scenario())

    def test_validation(self):
        # port 1 has no server: every bad knob must fail before a connect,
        # for an array and a stream alike
        inputs = (repro.zipf_trace(256, 100, seed=1), ZipfTraceStream(256, 100, seed=1))
        bad = (
            {"connections": 0},
            {"frame": "smoke-signals"},
            {"slo_ms": -1.0},
            {"rate": 0.0},
            {"rate": -5.0},
            {"burst": 0.5},
        )
        for trace in inputs:
            for kwargs in bad:
                kwargs = {"rate": 500.0, **kwargs}
                with pytest.raises(ConfigurationError):
                    asyncio.run(open_loop_replay(trace, host="127.0.0.1", port=1, **kwargs))

    @pytest.mark.parametrize("frame", ["ndjson", "binary"])
    def test_all_requests_answered_and_counted(self, frame):
        trace = repro.zipf_trace(512, 1_500, alpha=1.0, seed=7)
        report = self.replay(trace, rate=3000.0, connections=4, frame=frame)
        assert report.ops == len(trace)
        assert report.errors == 0
        assert report.frame == frame
        # the GETs really reached the policy: server counted every access
        assert report.server_stats["accesses"] == len(trace)
        assert report.hits == report.server_stats["hits"]
        assert report.p50_ms <= report.p99_ms <= report.max_ms

    def test_latency_measured_from_scheduled_arrival(self):
        # 200 requests at a rate that takes ~2s; elapsed must cover the
        # schedule span, proving sends pace the schedule rather than
        # blasting as fast as the socket allows.
        trace = repro.zipf_trace(128, 200, seed=5)
        report = self.replay(trace, rate=100.0, connections=2)
        assert report.seconds >= 1.5
        assert report.lag_p99_ms >= 0.0

    def test_slo_accounting(self):
        trace = repro.zipf_trace(256, 800, seed=2)
        report = self.replay(trace, rate=2000.0, slo_ms=1000.0)
        assert report.slo_ms == 1000.0
        assert report.violations == 0  # a 1s SLO is unmissable on localhost
        assert report.violation_fraction == 0.0
        # the lag bound scales with the SLO: 250ms here, trivially met
        assert report.lag_ok is True

    def test_overload_shows_up_as_latency_not_fewer_ops(self):
        # burst=16 clumps arrivals into spikes; the open loop must still
        # send every request and charge the queueing to latency.
        trace = repro.zipf_trace(256, 1_000, seed=8)
        report = self.replay(trace, rate=4000.0, burst=16.0, connections=2)
        assert report.ops == len(trace)
        assert report.max_ms >= report.p50_ms

    def test_run_open_loop_sync_wrapper_owns_its_loop(self):
        # the wrapper must work with no running event loop; bad config
        # surfaces before any connection is attempted
        trace = repro.zipf_trace(64, 10, seed=1)
        with pytest.raises(ConfigurationError):
            run_open_loop(trace, host="127.0.0.1", port=1, rate=0.0)

    def test_lag_floor_constant_sane(self):
        assert 0 < MAX_LAG_SECONDS < 0.1
