"""End-to-end integration tests across module boundaries."""

from __future__ import annotations

import numpy as np

import repro
from repro.cli import main
from repro.core.registry import available_policies, make_policy
from repro.sim.results import ResultsTable
from repro.sim.sweep import ParameterGrid, run_sweep
from tests.helpers import _extra_kwargs


class TestCliFlows:
    def test_save_simulate_mrc_round_trip(self, tmp_path, capsys):
        trace = repro.zipf_trace(2048, 30_000, alpha=1.0, seed=5)
        path = repro.save_trace(trace, tmp_path / "t.npz")

        assert main(["simulate", "--trace", str(path), "--policy", "lru",
                     "--capacity", "512", "--window", "5000"]) == 0
        out = capsys.readouterr().out
        assert "miss" in out and "LRU" in out and "windowed" in out

        assert main(["mrc", "--trace", str(path), "--sizes", "128,512,2048"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out and "512" in out

        assert main(["mrc", "--trace", str(path), "--sizes", "128,512",
                     "--shards", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "SHARDS" in out

    def test_simulate_reports_consistent_misses(self, tmp_path, capsys):
        trace = repro.zipf_trace(512, 5_000, alpha=1.0, seed=6)
        path = repro.save_trace(trace, tmp_path / "t.npz")
        main(["simulate", "--trace", str(path), "--policy", "fifo", "--capacity", "128"])
        out = capsys.readouterr().out
        reported = int(out.split("misses   : ")[1].split()[0])
        assert reported == repro.FIFOCache(128).run(trace).num_misses

    def test_experiment_csv_round_trip(self, tmp_path, capsys):
        main(["run", "L6-COMPONENTS", "--scale", "smoke", "--out", str(tmp_path)])
        capsys.readouterr()
        table = ResultsTable.from_csv(tmp_path / "l6-components_smoke.csv")
        assert len(table) > 0
        assert "lemma6_bound" in table.columns


class TestEveryRegisteredPolicyEndToEnd:
    def test_all_policies_run_on_shared_trace(self, small_zipf_trace):
        """Every registry entry simulates cleanly and lands in sane bounds,
        with OPT as the floor."""
        capacity = 64
        opt_misses = repro.belady_miss_count(small_zipf_trace, capacity)
        distinct = small_zipf_trace.num_distinct
        for name in available_policies():
            policy = make_policy(name, capacity, **_extra_kwargs(name, capacity))
            result = policy.run(small_zipf_trace)
            assert result.num_misses >= opt_misses, name
            assert result.num_misses >= min(distinct, capacity), name
            assert result.num_misses <= result.num_accesses, name

    def test_policies_are_reproducible_via_registry(self, small_zipf_trace):
        for name in ("2-random", "heatsink", "marking", "cuckoo", "rearrange"):
            kwargs = _extra_kwargs(name, 64)
            a = make_policy(name, 64, **kwargs).run(small_zipf_trace)
            b = make_policy(name, 64, **kwargs).run(small_zipf_trace)
            assert np.array_equal(a.hits, b.hits), name


def _sweep_task(params: dict, seed) -> dict:
    import repro as _repro

    seed_int = int(seed.generate_state(1)[0])
    trace = _repro.zipf_trace(512, 5_000, alpha=1.0, seed=seed_int)
    policy = _repro.PLruCache(params["capacity"], d=params["d"], seed=seed_int)
    return {"miss_rate": policy.run(trace).miss_rate}


class TestParallelSweepWithPolicies:
    def test_workers_match_serial(self):
        grid = ParameterGrid(capacity=[64, 128], d=[1, 2])
        serial = run_sweep(_sweep_task, grid, repetitions=2, seed=3)
        parallel = run_sweep(_sweep_task, grid, repetitions=2, seed=3, workers=2)
        key = lambda r: (r["capacity"], r["d"], r["rep"])
        s_rows = sorted(serial, key=key)
        p_rows = sorted(parallel, key=key)
        assert [r["miss_rate"] for r in s_rows] == [r["miss_rate"] for r in p_rows]

    def test_more_associativity_helps_in_sweep(self):
        grid = ParameterGrid(capacity=[128], d=[1, 4])
        table = run_sweep(_sweep_task, grid, repetitions=3, seed=4)
        by_d = {}
        for row in table:
            by_d.setdefault(row["d"], []).append(row["miss_rate"])
        assert np.mean(by_d[4]) <= np.mean(by_d[1])


class TestTraceToolchain:
    def test_msr_export_reimport_simulate(self, tmp_path):
        trace = repro.working_set_trace(200, 5_000, locality=0.9, seed=8)
        from repro.traces.io import read_msr_csv, write_msr_csv

        path = tmp_path / "t.csv"
        write_msr_csv(trace, path)
        back = read_msr_csv(path)
        assert np.array_equal(back.pages, trace.pages)
        a = repro.LRUCache(128).run(trace)
        b = repro.LRUCache(128).run(back)
        assert np.array_equal(a.hits, b.hits)

    def test_sampled_workflow_speed_consistency(self):
        """SHARDS preprocessing composes with arbitrary policies: the
        sample is a valid trace for any simulator."""
        trace = repro.zipf_trace(4096, 60_000, alpha=1.0, seed=9)
        sample = repro.spatial_sample(trace, 0.25, seed=10)
        result = repro.LRUCache(256).run(sample)
        assert 0.0 <= result.miss_rate <= 1.0
        assert result.num_accesses == len(sample)
