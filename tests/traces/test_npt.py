"""Tests for repro.traces.npt — the chunked binary trace format."""

from __future__ import annotations

import json
import pickle
import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError, TraceFormatError
from repro.traces.base import Trace
from repro.traces.io import read_msr_csv, write_msr_csv
from repro.traces.npt import MAGIC, NptTraceStream, NptWriter, read_npt, write_npt
from repro.traces.streaming import MsrCsvStream, ZipfTraceStream
from repro.traces.synthetic import zipf_trace


def _stream_pages(stream):
    parts = [c.copy() for c in stream.chunks()]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


class TestRoundTrip:
    def test_trace_round_trip(self, tmp_path):
        t = zipf_trace(200, 5000, alpha=1.0, seed=7)
        path = write_npt(t, tmp_path / "t.npt", chunk=777)
        back = read_npt(path)
        assert np.array_equal(back.pages, t.pages)
        assert back.name == t.name
        assert back.params["alpha"] == 1.0

    def test_stream_round_trip(self, tmp_path):
        s = ZipfTraceStream(300, 4000, alpha=1.1, seed=2, chunk=500)
        path = write_npt(s, tmp_path / "s.npt")
        assert np.array_equal(read_npt(path).pages, _stream_pages(s))

    def test_csv_to_npt_to_trace(self, tmp_path):
        # the full conversion chain: CSV -> stream -> .npt -> Trace
        t = zipf_trace(64, 900, alpha=0.9, seed=5)
        csv_path = tmp_path / "t.csv"
        write_msr_csv(t, csv_path)
        npt_path = write_npt(MsrCsvStream(csv_path, chunk=128), tmp_path / "t.npt")
        assert np.array_equal(read_npt(npt_path).pages, read_msr_csv(csv_path).pages)

    def test_empty_trace(self, tmp_path):
        path = write_npt(Trace(np.empty(0, dtype=np.int64)), tmp_path / "e.npt")
        s = NptTraceStream(path)
        assert s.length == 0
        assert s.num_chunks == 0
        assert len(read_npt(path)) == 0

    def test_dtype_downcast_shrinks_file(self, tmp_path):
        pages = np.arange(10_000, dtype=np.int64) % 200  # fits in u1
        small = write_npt(Trace(pages), tmp_path / "small.npt")
        big = write_npt(Trace(pages + (1 << 40)), tmp_path / "big.npt")
        assert small.stat().st_size < big.stat().st_size / 4
        assert np.array_equal(read_npt(small).pages, pages)
        assert np.array_equal(read_npt(big).pages, pages + (1 << 40))

    def test_per_chunk_dtype(self, tmp_path):
        with NptWriter(tmp_path / "m.npt") as w:
            w.append(np.array([1, 2, 3], dtype=np.int64))       # u1
            w.append(np.array([1 << 20], dtype=np.int64))        # u4
        s = NptTraceStream(tmp_path / "m.npt")
        assert _stream_pages(s).tolist() == [1, 2, 3, 1 << 20]

    def test_chunks_are_readonly_views_in_the_stored_dtype(self, tmp_path):
        with NptWriter(tmp_path / "d.npt") as w:
            for top in (200, 1 << 9, 1 << 17, 1 << 33):
                w.append(np.array([0, top - 1], dtype=np.int64))
        blocks = list(NptTraceStream(tmp_path / "d.npt").chunks())
        assert [b.dtype.str for b in blocks] == ["|u1", "<u2", "<u4", "<i8"]
        assert all(not b.flags.writeable for b in blocks)
        assert [int(b[-1]) for b in blocks] == [199, 511, (1 << 17) - 1, (1 << 33) - 1]
        trace = read_npt(tmp_path / "d.npt")
        assert trace.pages.dtype == np.int64
        assert trace.pages.tolist() == [v for b in blocks for v in b.tolist()]
        # rechunking across stored chunks promotes to the wider dtype
        rechunked = NptTraceStream(tmp_path / "d.npt", chunk=3)
        assert _stream_pages(rechunked).tolist() == trace.pages.tolist()


class TestWriter:
    def test_append_after_close(self, tmp_path):
        w = NptWriter(tmp_path / "w.npt")
        w.append([1, 2])
        w.close()
        with pytest.raises(TraceError):
            w.append([3])

    def test_close_idempotent(self, tmp_path):
        w = NptWriter(tmp_path / "w.npt")
        w.append([1])
        assert w.close() == w.close()

    def test_failed_write_leaves_unsealed_file(self, tmp_path):
        path = tmp_path / "boom.npt"
        with pytest.raises(RuntimeError):
            with NptWriter(path) as w:
                w.append([1, 2, 3])
                raise RuntimeError("producer failed")
        # the half-written file must not parse as a sealed trace
        with pytest.raises(TraceFormatError):
            NptTraceStream(path)

    def test_empty_chunks_skipped(self, tmp_path):
        with NptWriter(tmp_path / "w.npt") as w:
            w.append(np.empty(0, dtype=np.int64))
            w.append([5])
            w.append(np.empty(0, dtype=np.int64))
        s = NptTraceStream(tmp_path / "w.npt")
        assert s.num_chunks == 1
        assert _stream_pages(s).tolist() == [5]


class TestCorruptionDetection:
    def _good(self, tmp_path):
        t = zipf_trace(50, 2000, alpha=1.0, seed=1)
        return write_npt(t, tmp_path / "good.npt", chunk=256)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            NptTraceStream(tmp_path / "absent.npt")

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.npt"
        path.write_bytes(b"REPRO")
        with pytest.raises(TraceFormatError, match="too short"):
            NptTraceStream(path)

    def test_bad_magic(self, tmp_path):
        path = self._good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="bad magic"):
            NptTraceStream(path)

    def test_bad_version(self, tmp_path):
        path = self._good(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="version 99"):
            NptTraceStream(path)

    @pytest.mark.parametrize("cut", [1, 8, 100, 2000])
    def test_truncation_detected(self, tmp_path, cut):
        path = self._good(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - cut])
        with pytest.raises(TraceFormatError):
            NptTraceStream(path)

    def test_corrupt_footer_json(self, tmp_path):
        path = self._good(tmp_path)
        raw = bytearray(path.read_bytes())
        footer_len, _ = struct.unpack("<Q8s", raw[-16:])
        start = len(raw) - 16 - footer_len
        raw[start : start + 4] = b"\xff\xfe\x00{"
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError, match="corrupt index footer"):
            NptTraceStream(path)

    def test_footer_missing_chunks_key(self, tmp_path):
        path = tmp_path / "nochunks.npt"
        footer = json.dumps({"version": 1}).encode()
        path.write_bytes(
            MAGIC + bytes([1]) + footer + struct.pack("<Q8s", len(footer), b"TPNORPER")
        )
        with pytest.raises(TraceFormatError, match="missing 'chunks'"):
            NptTraceStream(path)

    def test_index_entry_past_data_region(self, tmp_path):
        path = tmp_path / "overrun.npt"
        footer = json.dumps(
            {"version": 1, "chunks": [{"offset": 9, "count": 1000, "dtype": "<i8"}]}
        ).encode()
        path.write_bytes(
            MAGIC + bytes([1]) + b"\x00" * 16 + footer
            + struct.pack("<Q8s", len(footer), b"TPNORPER")
        )
        with pytest.raises(TraceFormatError, match="truncated"):
            NptTraceStream(path)

    def test_unknown_dtype_in_index(self, tmp_path):
        path = tmp_path / "dtype.npt"
        footer = json.dumps(
            {"version": 1, "chunks": [{"offset": 9, "count": 1, "dtype": "<f8"}]}
        ).encode()
        path.write_bytes(
            MAGIC + bytes([1]) + b"\x00" * 8 + footer
            + struct.pack("<Q8s", len(footer), b"TPNORPER")
        )
        with pytest.raises(TraceFormatError, match="unknown dtype"):
            NptTraceStream(path)

    @pytest.mark.parametrize(
        "footer, message",
        [
            ({"version": 1, "chunks": 5}, "'chunks' is not a list"),
            ({"version": 1, "chunks": None}, "'chunks' is not a list"),
            ({"version": 1, "chunks": {"offset": 9}}, "'chunks' is not a list"),
            ({"version": 1, "chunks": [], "params": 5}, "'params' is not an object"),
            ({"version": 1, "chunks": [], "params": "ab"}, "'params' is not an object"),
            ({"version": 1, "chunks": [], "params": [[1, 2]]}, "'params' is not an object"),
        ],
    )
    def test_malformed_footer_fields(self, tmp_path, footer, message):
        path = tmp_path / "fields.npt"
        raw = json.dumps(footer).encode()
        path.write_bytes(
            MAGIC + bytes([1]) + raw + struct.pack("<Q8s", len(raw), b"TPNORPER")
        )
        with pytest.raises(TraceFormatError, match=message):
            NptTraceStream(path)


class TestStreamWindows:
    def _path(self, tmp_path):
        # 10 stored chunks of 100 accesses each
        with NptWriter(tmp_path / "w.npt", name="windowed") as w:
            for i in range(10):
                w.append(np.full(100, i, dtype=np.int64))
        return tmp_path / "w.npt"

    def test_native_chunking(self, tmp_path):
        s = NptTraceStream(self._path(tmp_path))
        blocks = list(s.chunks())
        assert len(blocks) == 10
        assert all(b.size == 100 for b in blocks)
        assert s.num_chunks == 10
        assert s.length == 1000

    def test_rechunking(self, tmp_path):
        s = NptTraceStream(self._path(tmp_path), chunk=64)
        blocks = list(s.chunks())
        assert all(b.size == 64 for b in blocks[:-1])
        assert sum(b.size for b in blocks) == 1000
        full = NptTraceStream(self._path(tmp_path))
        assert np.array_equal(_stream_pages(s), _stream_pages(full))

    def test_rechunk_larger_than_stored(self, tmp_path):
        s = NptTraceStream(self._path(tmp_path), chunk=350)
        sizes = [b.size for b in s.chunks()]
        assert sizes == [350, 350, 300]

    def test_chunk_slice_shards(self, tmp_path):
        path = self._path(tmp_path)
        full = NptTraceStream(path)
        a = full.chunk_slice(0, 4)
        b = full.chunk_slice(4, 10)
        assert a.length == 400 and b.length == 600
        stitched = np.concatenate([_stream_pages(a), _stream_pages(b)])
        assert np.array_equal(stitched, _stream_pages(full))

    def test_chunk_slice_of_slice(self, tmp_path):
        path = self._path(tmp_path)
        inner = NptTraceStream(path).chunk_slice(2, 8).chunk_slice(1, 3)
        assert _stream_pages(inner).tolist() == [3] * 100 + [4] * 100

    def test_window_bounds_checked(self, tmp_path):
        path = self._path(tmp_path)
        with pytest.raises(ConfigurationError):
            NptTraceStream(path, start_chunk=11)
        with pytest.raises(ConfigurationError):
            NptTraceStream(path, start_chunk=5, stop_chunk=3)
        with pytest.raises(ConfigurationError):
            NptTraceStream(path, chunk=0)

    def test_pickle_round_trip(self, tmp_path):
        s = NptTraceStream(self._path(tmp_path), chunk=130, start_chunk=2, stop_chunk=7)
        clone = pickle.loads(pickle.dumps(s))
        assert np.array_equal(_stream_pages(clone), _stream_pages(s))
        assert clone.length == s.length
        assert s.cheap_pickle
