"""Tests for repro.sim.engine, sweep, and parallel execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import warmup_split
from repro.core.fully.fifo import FIFOCache
from repro.core.fully.lru import LRUCache
from repro.core.registry import available_policies, make_policy
from repro.errors import ConfigurationError
from repro.sim.engine import compare_policies, run_policy
from repro.sim.parallel import default_workers, parallel_map
from repro.sim.sweep import ParameterGrid, run_sweep
from repro.traces.synthetic import zipf_trace
from tests.helpers import _extra_kwargs


class TestRunPolicy:
    def test_row_fields(self):
        row = run_policy(LRUCache(16), zipf_trace(64, 2000, seed=1))
        assert row["policy"] == "LRU"
        assert row["capacity"] == 16
        assert row["accesses"] == 2000
        assert 0 <= row["miss_rate"] <= 1
        assert row["seconds"] > 0

    def test_miss_count_consistency(self):
        trace = zipf_trace(64, 2000, seed=2)
        row = run_policy(LRUCache(16), trace)
        assert row["misses"] == LRUCache(16).run(trace).num_misses

    @pytest.mark.parametrize("name", available_policies())
    def test_array_row_equals_run_and_warmup_split(self, name):
        """An array is one chunk: the row is ``policy.run`` plus the
        metrics module's split, bit for bit, for every registered policy."""
        trace = zipf_trace(256, 3001, seed=5)
        kwargs = _extra_kwargs(name, 32)
        result = make_policy(name, 32, **kwargs).run(trace)
        row = run_policy(make_policy(name, 32, **kwargs), trace.pages)
        warm, steady = warmup_split(result)
        assert (row["accesses"], row["misses"]) == (result.num_accesses, result.num_misses)
        assert row["miss_rate"] == result.miss_rate
        assert row["warmup_miss_rate"] == warm
        assert row["steady_miss_rate"] == steady
        assert (row["streamed"], row["chunks"], row["trace"]) == (False, 1, "array")


class TestComparePolicies:
    def test_one_row_per_policy(self):
        trace = zipf_trace(64, 2000, seed=3)
        table = compare_policies({"lru": LRUCache(16), "fifo": FIFOCache(16)}, trace)
        assert len(table) == 2
        labels = {row["label"] for row in table}
        assert labels == {"lru", "fifo"}

    def test_accepts_factories(self):
        trace = zipf_trace(64, 500, seed=4)
        table = compare_policies({"lru": lambda: LRUCache(8)}, trace)
        assert table[0]["policy"] == "LRU"


class TestParameterGrid:
    def test_product(self):
        grid = ParameterGrid(a=[1, 2], b=["x", "y", "z"])
        points = list(grid)
        assert len(grid) == 6
        assert {(p["a"], p["b"]) for p in points} == {
            (1, "x"), (1, "y"), (1, "z"), (2, "x"), (2, "y"), (2, "z")
        }

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParameterGrid()
        with pytest.raises(ConfigurationError):
            ParameterGrid(a=[])


def _task(params: dict, seed) -> dict:
    rng = np.random.Generator(np.random.PCG64(seed))
    return {"value": float(rng.random()) + params["offset"]}


class TestRunSweep:
    def test_rows_and_metadata(self):
        table = run_sweep(_task, ParameterGrid(offset=[0.0, 10.0]), repetitions=3, seed=1)
        assert len(table) == 6
        for row in table:
            assert "value" in row and "offset" in row and "rep" in row

    def test_deterministic(self):
        a = run_sweep(_task, ParameterGrid(offset=[0.0]), repetitions=4, seed=2)
        b = run_sweep(_task, ParameterGrid(offset=[0.0]), repetitions=4, seed=2)
        assert [r["value"] for r in a] == [r["value"] for r in b]

    def test_repetitions_independent(self):
        table = run_sweep(_task, ParameterGrid(offset=[0.0]), repetitions=5, seed=3)
        values = [r["value"] for r in table]
        assert len(set(values)) == 5

    def test_parallel_matches_serial(self):
        serial = run_sweep(_task, ParameterGrid(offset=[0.0, 1.0]), repetitions=2, seed=4)
        parallel = run_sweep(
            _task, ParameterGrid(offset=[0.0, 1.0]), repetitions=2, seed=4, workers=2
        )
        assert sorted(r["value"] for r in serial) == sorted(r["value"] for r in parallel)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_sweep(_task, ParameterGrid(offset=[1.0]), repetitions=0)
        with pytest.raises(ConfigurationError):
            run_sweep(_task, [], repetitions=1)


def _square(x: int) -> int:
    return x * x


class TestParallelMap:
    def test_matches_serial(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=2) == [x * x for x in items]

    def test_serial_fallback(self):
        assert parallel_map(_square, [3], workers=4) == [9]
        assert parallel_map(_square, list(range(5)), workers=1) == [0, 1, 4, 9, 16]

    def test_order_preserved(self):
        out = parallel_map(_square, [5, 1, 3], workers=2)
        assert out == [25, 1, 9]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            parallel_map(_square, [1], workers=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestWorkersEnvVar:
    def test_env_pins_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_env_absent_falls_back(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() >= 1

    @pytest.mark.parametrize("bad", ["zero-ish", "", "2.5", "0", "-4"])
    def test_invalid_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ConfigurationError):
            default_workers()


class TestRunPolicyTraceSink:
    def test_trace_sink_captures_run_and_leaves_hooks_disabled(self):
        from repro.obs import hooks
        from repro.obs.sinks import ListSink

        trace = zipf_trace(128, 1000, alpha=1.0, seed=2)
        sink = ListSink()
        row = run_policy(LRUCache(32), trace, trace_sink=sink)
        assert hooks.ENABLED is False  # capture is scoped to the run
        accesses = [e for e in sink.events if e["ev"] == "access"]
        assert len(accesses) == row["accesses"] == 1000
        assert sum(not e["hit"] for e in accesses) == row["misses"]
        assert accesses[0]["i"] == 0  # clock reset at capture start

    def test_no_sink_means_no_capture(self):
        from repro.obs import hooks

        trace = zipf_trace(128, 200, alpha=1.0, seed=2)
        run_policy(LRUCache(32), trace)
        assert hooks.ENABLED is False
