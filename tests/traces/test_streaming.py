"""Tests for repro.traces.streaming — chunked constant-memory streams."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.traces.base import Trace
from repro.traces.io import write_msr_csv, save_trace
from repro.traces.npt import write_npt
from repro.traces.streaming import (
    ArrayTraceStream,
    IncrementalRemapper,
    MsrCsvStream,
    Prefetcher,
    RemappedStream,
    TraceStream,
    UniformTraceStream,
    ZipfTraceStream,
    as_trace_stream,
    open_trace_stream,
)
from repro.traces.npt import NptTraceStream
from repro.traces.synthetic import uniform_trace, zipf_trace


def _collect(stream: TraceStream) -> np.ndarray:
    parts = [c.copy() for c in stream.chunks()]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


class TestArrayTraceStream:
    def test_chunking_covers_trace(self):
        t = zipf_trace(64, 1000, alpha=1.0, seed=3)
        s = ArrayTraceStream(t, chunk=96)
        blocks = list(s.chunks())
        assert all(b.size == 96 for b in blocks[:-1])
        assert np.array_equal(np.concatenate(blocks), t.pages)
        assert s.length == len(t)
        assert s.name == t.name
        assert s.params["alpha"] == 1.0

    def test_reiterable(self):
        s = ArrayTraceStream(np.arange(10, dtype=np.int64), chunk=3)
        assert np.array_equal(_collect(s), _collect(s))

    def test_iter_yields_ints(self):
        s = ArrayTraceStream([5, 6, 7], chunk=2)
        assert list(s) == [5, 6, 7]
        assert all(isinstance(x, int) for x in s)

    def test_bad_chunk(self):
        with pytest.raises(ConfigurationError):
            ArrayTraceStream([1], chunk=0)

    def test_materialize_round_trip(self):
        t = zipf_trace(32, 500, alpha=0.8, seed=9)
        back = ArrayTraceStream(t, chunk=77).materialize()
        assert back == t

    def test_materialize_prefix(self):
        s = ArrayTraceStream(np.arange(100, dtype=np.int64), chunk=30)
        prefix = s.materialize(max_accesses=45)
        assert list(prefix) == list(range(45))

    def test_materialize_empty(self):
        s = ArrayTraceStream(np.empty(0, dtype=np.int64))
        assert len(s.materialize()) == 0


class TestSyntheticStreams:
    def test_uniform_matches_materialized_generator(self):
        # rng.integers consumes the bit stream identically chunked or not
        s = UniformTraceStream(128, 5000, seed=7, chunk=999)
        t = uniform_trace(128, 5000, seed=7)
        assert np.array_equal(_collect(s), t.pages)

    def test_uniform_chunk_invariance(self):
        a = UniformTraceStream(64, 2000, seed=1, chunk=100)
        b = UniformTraceStream(64, 2000, seed=1, chunk=1999)
        assert np.array_equal(_collect(a), _collect(b))

    def test_zipf_deterministic_and_reiterable(self):
        s = ZipfTraceStream(256, 3000, alpha=1.1, seed=5, chunk=500)
        first = _collect(s)
        second = _collect(s)
        assert np.array_equal(first, second)
        assert first.size == 3000
        assert first.min() >= 0 and first.max() < 256

    def test_zipf_chunk_size_does_not_change_draws(self):
        a = ZipfTraceStream(100, 1500, alpha=1.0, seed=2, chunk=64)
        b = ZipfTraceStream(100, 1500, alpha=1.0, seed=2, chunk=1500)
        assert np.array_equal(_collect(a), _collect(b))

    def test_zipf_skew(self):
        pages = _collect(ZipfTraceStream(1000, 20_000, alpha=1.2, seed=0, shuffle_ranks=False))
        counts = np.bincount(pages, minlength=1000)
        assert counts[0] > counts[100] > counts[900]

    def test_zipf_pickle_round_trip(self):
        s = ZipfTraceStream(64, 400, alpha=0.9, seed=11, chunk=128)
        clone = pickle.loads(pickle.dumps(s))
        assert np.array_equal(_collect(s), _collect(clone))
        assert len(pickle.dumps(s)) < 2000  # params only, not the CDF

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfTraceStream(0, 10)
        with pytest.raises(ConfigurationError):
            ZipfTraceStream(10, 0)
        with pytest.raises(ConfigurationError):
            ZipfTraceStream(10, 10, alpha=-1.0)
        with pytest.raises(ConfigurationError):
            UniformTraceStream(0, 10)


class TestMsrCsvStream:
    def test_round_trip(self, tmp_path):
        t = zipf_trace(32, 400, alpha=1.0, seed=4)
        path = tmp_path / "t.csv"
        write_msr_csv(t, path)
        s = MsrCsvStream(path, chunk=37)
        assert np.array_equal(_collect(s), t.pages)
        # re-iterable: the file is reopened per pass
        assert np.array_equal(_collect(s), t.pages)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            MsrCsvStream(tmp_path / "nope.csv")

    def test_pickles_as_path(self, tmp_path):
        t = Trace(np.arange(20, dtype=np.int64))
        path = tmp_path / "p.csv"
        write_msr_csv(t, path)
        s = MsrCsvStream(path, chunk=7)
        clone = pickle.loads(pickle.dumps(s))
        assert np.array_equal(_collect(clone), t.pages)
        assert s.cheap_pickle


class TestIncrementalRemapper:
    def test_first_appearance_order(self):
        with IncrementalRemapper() as remapper:
            out = remapper.remap(np.array([50, 10, 50, 99], dtype=np.int64))
            # within one chunk, new ids are numbered in ascending id order
            assert out.tolist() == [1, 0, 1, 2]
            out2 = remapper.remap(np.array([99, 7], dtype=np.int64))
            assert out2.tolist() == [2, 3]
            assert remapper.num_tokens == 4

    def test_spill_equivalence(self, tmp_path):
        rng = np.random.default_rng(0)
        chunks = [rng.integers(0, 500, size=300).astype(np.int64) for _ in range(6)]
        with IncrementalRemapper(max_resident=1 << 20) as big:
            ref = [big.remap(c) for c in chunks]
            assert big.spills == 0
        with IncrementalRemapper(max_resident=16, spill_dir=tmp_path) as small:
            out = [small.remap(c) for c in chunks]
            assert small.spills > 0
            assert small.num_tokens == big.num_tokens
        for a, b in zip(ref, out):
            assert np.array_equal(a, b)

    def test_empty_chunk(self):
        with IncrementalRemapper() as remapper:
            assert remapper.remap(np.empty(0, dtype=np.int64)).size == 0

    def test_bad_max_resident(self):
        with pytest.raises(ConfigurationError):
            IncrementalRemapper(max_resident=0)


class TestRemappedStream:
    def test_dense_tokens(self):
        sparse = ArrayTraceStream(
            np.array([10**12, 5, 10**12, 7, 5], dtype=np.int64), chunk=2
        )
        out = _collect(sparse.remapped())
        assert out.max() < 3
        # same id always maps to the same token
        pages = np.array([10**12, 5, 10**12, 7, 5])
        tokens = {}
        for p, tok in zip(pages.tolist(), out.tolist()):
            assert tokens.setdefault(p, tok) == tok

    def test_reiteration_identical(self):
        s = ZipfTraceStream(64, 800, seed=3, chunk=100).remapped()
        assert np.array_equal(_collect(s), _collect(s))

    def test_spill_matches_no_spill(self, tmp_path):
        inner = UniformTraceStream(400, 3000, seed=6, chunk=250)
        plain = _collect(RemappedStream(inner, max_resident=1 << 20))
        spilled = _collect(RemappedStream(inner, max_resident=8, spill_dir=tmp_path))
        assert np.array_equal(plain, spilled)

    def test_metadata_carried(self):
        s = ZipfTraceStream(32, 100, seed=0).remapped()
        assert s.name == "zipf"
        assert s.params["remapped"] is True
        assert s.length == 100


class TestPrefetcher:
    def test_matches_direct_iteration(self):
        s = ZipfTraceStream(128, 4000, seed=8, chunk=333)
        direct = _collect(s)
        prefetched = np.concatenate([c.copy() for c in Prefetcher(s)])
        assert np.array_equal(direct, prefetched)

    def test_yields_readonly_views(self):
        for block in Prefetcher(ArrayTraceStream(np.arange(10, dtype=np.int64), chunk=4)):
            assert not block.flags.writeable
            with pytest.raises(ValueError):
                block[0] = 99

    def test_error_propagates(self):
        class Exploding(TraceStream):
            def chunks(self):
                yield np.arange(4, dtype=np.int64)
                raise RuntimeError("decoder blew up")

        it = iter(Prefetcher(Exploding()))
        next(it)
        with pytest.raises(RuntimeError, match="decoder blew up"):
            for _ in it:
                pass

    def test_early_break_shuts_down(self):
        s = ZipfTraceStream(64, 100_000, seed=1, chunk=1000)
        for i, _block in enumerate(Prefetcher(s)):
            if i == 2:
                break
        # a second pass still works (no leaked state between iterations)
        assert sum(b.size for b in Prefetcher(s)) == 100_000

    def test_plain_iterator_source(self):
        blocks = [np.arange(3, dtype=np.int64), np.arange(5, dtype=np.int64)]
        out = [b.copy() for b in Prefetcher(iter(blocks))]
        assert [o.tolist() for o in out] == [[0, 1, 2], [0, 1, 2, 3, 4]]

    def test_narrow_chunks_widen_into_the_ring(self):
        blocks = [
            np.array([1, 2, 255], dtype=np.uint8),
            np.array([300, 65_535], dtype=np.uint16),
            np.array([1 << 31], dtype=np.uint32),
            np.array([1 << 40, 7], dtype=np.int64),
        ]
        out = [b.copy() for b in Prefetcher(iter(blocks))]
        assert all(o.dtype == np.int64 for o in out)
        assert [o.tolist() for o in out] == [b.tolist() for b in blocks]

    def test_integral_floats_accepted_as_as_page_array_does(self):
        out = [b.copy() for b in Prefetcher(iter([np.array([1.0, 4.0])]))]
        assert out[0].dtype == np.int64 and out[0].tolist() == [1, 4]

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([1.0, 1.5]), "non-integer"),
            (np.array([3, -1]), "negative"),
            (np.zeros((2, 2), dtype=np.int64), "one-dimensional"),
        ],
    )
    def test_invalid_chunk_raises_trace_error(self, bad, message):
        with pytest.raises(TraceError, match=message):
            list(Prefetcher(iter([np.arange(3), bad])))


class TestCoercionAndOpen:
    def test_as_trace_stream_passthrough(self):
        s = UniformTraceStream(8, 10, seed=0)
        assert as_trace_stream(s) is s

    def test_as_trace_stream_wraps(self):
        t = zipf_trace(16, 50, seed=0)
        s = as_trace_stream(t, chunk=10)
        assert isinstance(s, ArrayTraceStream)
        assert np.array_equal(_collect(s), t.pages)

    def test_open_csv(self, tmp_path):
        t = zipf_trace(16, 80, seed=1)
        path = tmp_path / "a.csv"
        write_msr_csv(t, path)
        s = open_trace_stream(path, chunk=9)
        assert isinstance(s, MsrCsvStream)
        assert np.array_equal(_collect(s), t.pages)

    def test_open_npz(self, tmp_path):
        t = zipf_trace(16, 80, seed=2)
        path = save_trace(t, tmp_path / "a.npz")
        s = open_trace_stream(path)
        assert isinstance(s, ArrayTraceStream)
        assert np.array_equal(_collect(s), t.pages)

    def test_open_npt(self, tmp_path):
        t = zipf_trace(16, 80, seed=3)
        path = tmp_path / "a.npt"
        write_npt(t, path, chunk=32)
        s = open_trace_stream(path)
        assert isinstance(s, NptTraceStream)
        assert np.array_equal(_collect(s), t.pages)

    def test_unknown_suffix(self, tmp_path):
        path = tmp_path / "a.wat"
        path.write_bytes(b"")
        with pytest.raises(TraceError, match="unknown trace suffix"):
            open_trace_stream(path)
