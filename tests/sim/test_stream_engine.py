"""Streaming engine tests: chunk-stitched runs vs materialized runs.

The contract of :func:`repro.sim.engine.run_policy_stream` is that
feeding a stream chunk by chunk through ``policy.run(chunk, reset=False)``
is *bit-identical* to one materialized run: same hits, same post-run
policy state, same logical coin-stream position. This wall asserts all
three for every registered kernel over three workload regimes (hot:
working set fits; warm: Zipf around capacity; turnover: churn well past
capacity) and three seeds, with a chunk size that never divides the
trace length — every boundary is a mid-run continuation.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro
from repro.core.registry import make_policy
from repro.errors import ConfigurationError, TraceError
from repro.sim.engine import _split, compare_policies, run_policy, run_policy_stream
from repro.sim.kernels import available_kernels
from repro.sim.sweep import ParameterGrid, run_sweep
from repro.traces.npt import NptTraceStream, NptWriter
from repro.traces.streaming import ArrayTraceStream, TraceStream, ZipfTraceStream
from tests.sim.test_kernels import _assert_same_state, _future_coins
from tests.sim.test_tracelevel import knobs

CAP = 256

#: one factory per registered kernel class (asserted exhaustive below)
KERNEL_POLICIES = {
    "HeatSinkLRU": lambda seed: repro.HeatSinkLRU.from_epsilon(CAP, 0.3, seed=seed),
    "PLruCache": lambda seed: repro.PLruCache(CAP, d=2, seed=seed),
    "SetAssociativeLRU": lambda seed: repro.SetAssociativeLRU(CAP, d=8, seed=seed),
    "DRandomCache": lambda seed: repro.DRandomCache(CAP, d=2, seed=seed),
}

#: length deliberately not a multiple of the chunk — boundaries mid-run
LENGTH = 6_000
CHUNK = 701

STREAMS = {
    "hot": lambda seed: ZipfTraceStream(CAP // 2, LENGTH, alpha=1.2, seed=seed, chunk=CHUNK),
    "warm": lambda seed: ZipfTraceStream(4 * CAP, LENGTH, alpha=0.8, seed=seed, chunk=CHUNK),
    "turnover": lambda seed: ZipfTraceStream(
        32 * CAP, LENGTH, alpha=0.4, seed=seed, chunk=CHUNK
    ),
}

SEEDS = [0, 1, 12345]


def test_kernel_policy_table_is_exhaustive():
    assert set(KERNEL_POLICIES) == set(available_kernels())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("regime", sorted(STREAMS))
@pytest.mark.parametrize("policy_name", sorted(KERNEL_POLICIES))
def test_stream_bit_identical_to_materialized(policy_name, regime, seed):
    stream = STREAMS[regime](seed)
    trace = stream.materialize()

    p_mat = KERNEL_POLICIES[policy_name](seed)
    whole = p_mat.run(trace, fast=True)

    p_str = KERNEL_POLICIES[policy_name](seed)
    row = run_policy_stream(p_str, stream, fast=True, keep_hits=True)

    np.testing.assert_array_equal(np.asarray(whole.hits), row["hits"])
    assert row["misses"] == whole.num_misses
    assert row["accesses"] == whole.num_accesses
    _assert_same_state(p_mat, p_str)
    np.testing.assert_array_equal(_future_coins(p_mat), _future_coins(p_str))


def test_prefetch_off_matches_prefetch_on():
    stream = STREAMS["warm"](7)
    a = run_policy_stream(KERNEL_POLICIES["HeatSinkLRU"](7), stream, prefetch=True)
    b = run_policy_stream(KERNEL_POLICIES["HeatSinkLRU"](7), stream, prefetch=False)
    assert a["misses"] == b["misses"]
    assert a["chunks"] == b["chunks"]


def test_non_integer_chunk_raises_the_same_error_with_prefetch_on_and_off():
    class FloatStream(TraceStream):
        def chunks(self):
            yield np.arange(10, dtype=np.int64)
            yield np.array([1.0, 1.5, 2.0])  # 1.5 must not replay as page 1

    messages = []
    for prefetch in (True, False):
        with pytest.raises(TraceError, match="non-integer page ids") as info:
            run_policy_stream(KERNEL_POLICIES["HeatSinkLRU"](0), FloatStream(), prefetch=prefetch)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def _mixed_dtype_npt(path):
    """Four stored chunks, one per ``.npt`` dtype (u1, u2, u4, i8): a hot set
    shared by every chunk plus pages just under each dtype's limit, so each
    chunk boundary is a mid-run continuation across a dtype change."""
    hot = np.arange(CAP // 2)
    with NptWriter(path) as w:
        for i, (top, size) in enumerate(zip((1 << 8, 1 << 16, 1 << 32, 1 << 40),
                                            (701, 523, 997, 611))):
            pool = np.concatenate([hot, top - 1 - np.arange(CAP // 4)])
            block = pool[repro.zipf_trace(pool.size, size, alpha=0.9, seed=i).pages]
            block[0] = top - 1
            w.append(block)
    return path


@pytest.mark.parametrize("policy_name", sorted(KERNEL_POLICIES))
def test_mixed_dtype_npt_streams_bit_identically(policy_name, tmp_path):
    stream = NptTraceStream(_mixed_dtype_npt(tmp_path / "mixed.npt"))
    assert [c.dtype.str for c in stream.chunks()] == ["|u1", "<u2", "<u4", "<i8"]
    # shrunk knobs: every chunk goes through probe, scan and bail-out
    with knobs(PROBE=64, MIN_TRACE=128, CHUNK=32):
        p_mat = KERNEL_POLICIES[policy_name](3)
        whole = p_mat.run(stream.materialize(), fast=True)
        for prefetch in (True, False):
            p_str = KERNEL_POLICIES[policy_name](3)
            row = run_policy_stream(p_str, stream, fast=True, keep_hits=True, prefetch=prefetch)
            np.testing.assert_array_equal(np.asarray(whole.hits), row["hits"])
            _assert_same_state(p_mat, p_str)
            np.testing.assert_array_equal(_future_coins(p_mat), _future_coins(p_str))


def test_streaming_memory_per_chunk_is_two_ring_buffers_and_one_payload(tmp_path):
    """Peak traced memory of a hot ``.npt`` replay, grown per access of
    chunk: the prefetch ring's two ``int64`` buffers, one stored ``u2``
    payload, and a few bytes of per-access flags. Taking the growth
    between two chunk sizes cancels what does not scale with the chunk,
    such as the policies' pre-drawn coin buffers."""
    def peak(chunk: int) -> dict[str, int]:
        path = tmp_path / f"hot-{chunk}.npt"
        ranks = ZipfTraceStream(512, 3 * chunk, alpha=1.0, seed=3, shuffle_ranks=False,
                                chunk=chunk)
        page_of_rank = np.random.default_rng(0).permutation(512)
        with NptWriter(path) as w:
            for block in ranks.chunks():
                w.append(page_of_rank[block])
        stream = NptTraceStream(path)  # 512 pages: stored as u2
        out = {}
        tracemalloc.start()
        try:
            for name, kw in (("heatsink", {"sink_prob": 0.25}), ("2-lru", {}),
                             ("2-random", {}), ("set-assoc", {"d": 8})):
                policy = make_policy(name, 1024, seed=1, **kw)
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run_policy_stream(policy, stream)
                out[name] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return out

    small, large = 1 << 17, 1 << 18  # >= MIN_TRACE: every chunk is probed and scanned
    at_small, at_large = peak(small), peak(large)
    budget = 2 * 8 + 2 + 4  # ring buffers + u2 payload + flags, bytes per access
    for name in at_small:
        per_access = (at_large[name] - at_small[name]) / (large - small)
        assert per_access <= budget, (name, per_access)


def test_reference_loop_stream_matches_kernel_stream():
    """Chunk stitching is a policy-level contract, not a kernel trick."""
    stream = ZipfTraceStream(2 * CAP, 2_000, alpha=1.0, seed=4, chunk=333)
    ker = run_policy_stream(KERNEL_POLICIES["PLruCache"](4), stream, fast=True, keep_hits=True)
    ref = run_policy_stream(KERNEL_POLICIES["PLruCache"](4), stream, fast=False, keep_hits=True)
    np.testing.assert_array_equal(ker["hits"], ref["hits"])


class TestRunPolicyDispatch:
    def test_stream_routes_to_streaming_engine(self):
        stream = STREAMS["warm"](2)
        row = run_policy(KERNEL_POLICIES["HeatSinkLRU"](2), stream)
        assert row["streamed"] is True
        assert row["chunks"] == -(-LENGTH // CHUNK)
        assert row["trace"] == "zipf"
        assert row["accesses"] == LENGTH

    def test_row_matches_materialized_run(self):
        stream = STREAMS["hot"](3)
        streamed = run_policy(KERNEL_POLICIES["DRandomCache"](3), stream)
        plain = run_policy(KERNEL_POLICIES["DRandomCache"](3), stream.materialize())
        assert streamed["misses"] == plain["misses"]
        assert streamed["miss_rate"] == plain["miss_rate"]

    def test_keep_hits_split_matches_exact(self):
        stream = STREAMS["warm"](5)
        row = run_policy_stream(
            KERNEL_POLICIES["SetAssociativeLRU"](5), stream, keep_hits=True
        )
        exact = run_policy(
            KERNEL_POLICIES["SetAssociativeLRU"](5), stream.materialize()
        )
        assert row["steady_miss_rate"] == exact["steady_miss_rate"]
        assert row["warmup_miss_rate"] == exact["warmup_miss_rate"]

    def test_prorated_split_close_to_exact(self):
        stream = STREAMS["warm"](6)
        row = run_policy_stream(KERNEL_POLICIES["HeatSinkLRU"](6), stream)
        exact = run_policy(KERNEL_POLICIES["HeatSinkLRU"](6), stream.materialize())
        # the chunk straddling the cut splits its own hits: no proration
        assert row["steady_miss_rate"] == exact["steady_miss_rate"]

    def test_empty_stream(self):
        stream = ArrayTraceStream(np.empty(0, dtype=np.int64))
        row = run_policy_stream(KERNEL_POLICIES["HeatSinkLRU"](0), stream)
        assert row["accesses"] == 0
        assert np.isnan(row["miss_rate"])


class TestExactSplit:
    """A stream whose length is known before the run splits warm-up from
    steady state at the cut itself, as the materialized run does."""

    @pytest.mark.parametrize("source", ["zipf", "npt", "array"])
    def test_known_length_split_equals_materialized(self, source, tmp_path):
        stream = STREAMS["turnover"](8)
        if source == "npt":
            with NptWriter(tmp_path / "t.npt") as w:
                for block in stream.chunks():
                    w.append(block)
            stream = NptTraceStream(tmp_path / "t.npt")
        elif source == "array":
            stream = ArrayTraceStream(stream.materialize(), chunk=CHUNK)
        row = run_policy(KERNEL_POLICIES["HeatSinkLRU"](8), stream)
        exact = run_policy(KERNEL_POLICIES["HeatSinkLRU"](8), stream.materialize())
        assert row["chunks"] > 1 and (LENGTH // 4) % CHUNK  # the cut lands mid-chunk
        assert row["warmup_miss_rate"] == exact["warmup_miss_rate"]
        assert row["steady_miss_rate"] == exact["steady_miss_rate"]

    def test_msr_csv_prorates_on_its_first_pass_only(self, tmp_path):
        from repro.traces.io import write_msr_csv
        from repro.traces.streaming import MsrCsvStream

        trace = STREAMS["warm"](9).materialize()
        write_msr_csv(trace, tmp_path / "t.csv")
        stream = MsrCsvStream(tmp_path / "t.csv", chunk=CHUNK)
        exact = run_policy(KERNEL_POLICIES["PLruCache"](9), trace)
        assert stream.length is None
        first = run_policy(KERNEL_POLICIES["PLruCache"](9), stream)
        assert np.isfinite(first["warmup_miss_rate"]) and np.isfinite(first["steady_miss_rate"])
        assert first["misses"] == exact["misses"]
        assert stream.length == LENGTH  # the first pass counted it
        second = run_policy(KERNEL_POLICIES["PLruCache"](9), stream)
        assert second["warmup_miss_rate"] == exact["warmup_miss_rate"]
        assert second["steady_miss_rate"] == exact["steady_miss_rate"]


class TestProratedSplit:
    def test_aligned_boundary_is_exact(self):
        # cut = 100 lands exactly on the first chunk boundary
        pieces = [(100, 80), (100, 20), (100, 10), (100, 10)]
        warm, steady = _split(pieces, 0.25)
        assert warm == pytest.approx(0.8)
        assert steady == pytest.approx(40 / 300)

    def test_straddling_chunk_prorated(self):
        pieces = [(100, 50)]
        warm, steady = _split(pieces, 0.5)
        assert warm == pytest.approx(0.5)
        assert steady == pytest.approx(0.5)

    def test_zero_warmup(self):
        warm, steady = _split([(10, 5)], 0.0)
        assert np.isnan(warm)
        assert steady == pytest.approx(0.5)

    def test_empty(self):
        warm, steady = _split([], 0.25)
        assert np.isnan(warm) and np.isnan(steady)

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            _split([(10, 5)], 1.0)


# -- streamed sweeps -----------------------------------------------------------


def _sweep_task(params: dict, seed, stream) -> dict:
    policy = repro.HeatSinkLRU.from_epsilon(params["capacity"], 0.3, seed=123)
    return run_policy(policy, stream, fast=True)


class TestStreamedSweep:
    GRID = ParameterGrid(capacity=[64, 256])

    def _misses(self, table):
        return sorted((r["capacity"], r["misses"]) for r in table)

    def test_serial_stream_sweep(self):
        stream = ZipfTraceStream(512, 3_000, alpha=1.0, seed=9, chunk=500)
        table = run_sweep(_sweep_task, self.GRID, seed=0, trace=stream)
        assert len(table) == 2
        assert all(row["streamed"] for row in table)

    def test_pool_matches_serial_cheap_pickle(self):
        # synthetic stream: pickles as parameters, shipped straight to workers
        stream = ZipfTraceStream(512, 3_000, alpha=1.0, seed=9, chunk=500)
        serial = run_sweep(_sweep_task, self.GRID, seed=0, trace=stream)
        pooled = run_sweep(_sweep_task, self.GRID, seed=0, trace=stream, workers=2)
        assert self._misses(serial) == self._misses(pooled)

    def test_pool_matches_serial_shared_ring(self):
        # in-memory stream: crosses the pool boundary via shared-memory segments
        stream = ArrayTraceStream(
            repro.zipf_trace(512, 3_000, alpha=1.0, seed=9).pages, chunk=500
        )
        assert not stream.cheap_pickle
        serial = run_sweep(_sweep_task, self.GRID, seed=0, trace=stream)
        pooled = run_sweep(_sweep_task, self.GRID, seed=0, trace=stream, workers=2)
        assert self._misses(serial) == self._misses(pooled)


def test_compare_policies_accepts_stream():
    stream = ZipfTraceStream(512, 2_000, alpha=1.0, seed=1, chunk=300)
    table = compare_policies(
        {
            "heatsink": KERNEL_POLICIES["HeatSinkLRU"](0),
            "2-lru": KERNEL_POLICIES["PLruCache"](0),
        },
        stream,
    )
    assert len(table) == 2
    assert all(row["streamed"] and row["accesses"] == 2_000 for row in table)
