"""Tests for repro.traces.io — persistence and MSR CSV."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.errors import TraceError, TraceFormatError
from repro.traces.base import Trace
from repro.traces.io import (
    iter_msr_pages,
    load_trace,
    read_msr_csv,
    save_trace,
    write_msr_csv,
)
from repro.traces.streaming import MsrCsvStream
from repro.traces.synthetic import zipf_trace


class TestNpzRoundTrip:
    def test_round_trip(self, tmp_path):
        t = zipf_trace(64, 1000, alpha=1.1, seed=5)
        path = save_trace(t, tmp_path / "t.npz")
        loaded = load_trace(path)
        assert loaded == t
        assert loaded.params["alpha"] == 1.1

    def test_suffix_added(self, tmp_path):
        t = Trace(np.array([1, 2], dtype=np.int64))
        path = save_trace(t, tmp_path / "noext")
        assert path.suffix == ".npz"
        assert load_trace(path) == t

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "absent.npz")

    def test_not_a_trace_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(TraceError):
            load_trace(path)


class TestMsrCsv:
    HEADER_FREE_ROWS = (
        "128166372003061629,hm,1,Read,8192,8192,100\n"
        "128166372003061630,hm,1,Write,0,4096,90\n"
        "128166372003061631,hm,1,Read,4096,12288,80\n"
    )

    def test_basic_parse(self):
        t = read_msr_csv(io.StringIO(self.HEADER_FREE_ROWS), block_bytes=4096)
        # row1: blocks 2,3 ; row2: block 0 ; row3: blocks 1,2,3
        assert list(t) == [2, 3, 0, 1, 2, 3]

    def test_filter_request_types(self):
        t = read_msr_csv(
            io.StringIO(self.HEADER_FREE_ROWS),
            block_bytes=4096,
            request_types=("Read",),
        )
        assert list(t) == [2, 3, 1, 2, 3]

    def test_no_expand(self):
        t = read_msr_csv(
            io.StringIO(self.HEADER_FREE_ROWS), block_bytes=4096, expand_multiblock=False
        )
        assert list(t) == [2, 0, 1]

    def test_max_accesses(self):
        t = read_msr_csv(
            io.StringIO(self.HEADER_FREE_ROWS), block_bytes=4096, max_accesses=3
        )
        assert len(t) == 3

    def test_comments_and_blanks_skipped(self):
        body = "# comment\n\n" + self.HEADER_FREE_ROWS
        t = read_msr_csv(io.StringIO(body), block_bytes=4096)
        assert len(t) == 6

    def test_malformed_row(self):
        with pytest.raises(TraceError):
            read_msr_csv(io.StringIO("1,h,1,Read\n"))
        with pytest.raises(TraceError):
            read_msr_csv(io.StringIO("1,h,1,Read,abc,10,1\n"))
        with pytest.raises(TraceError):
            read_msr_csv(io.StringIO("1,h,1,Read,-5,10,1\n"))

    def test_bad_block_bytes(self):
        with pytest.raises(TraceError):
            read_msr_csv(io.StringIO(""), block_bytes=0)

    def test_write_read_round_trip(self, tmp_path):
        t = zipf_trace(32, 200, alpha=1.0, seed=1)
        path = tmp_path / "msr.csv"
        write_msr_csv(t, path)
        back = read_msr_csv(path)
        assert list(back) == list(t)

    def test_write_to_buffer(self):
        buf = io.StringIO()
        write_msr_csv(Trace(np.array([0, 1], dtype=np.int64)), buf)
        buf.seek(0)
        assert list(read_msr_csv(buf)) == [0, 1]


class TestMsrCsvHardening:
    """Malformed-input behaviour: clear TraceFormatError, line numbers."""

    ROWS = TestMsrCsv.HEADER_FREE_ROWS

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(self.ROWS.replace("\n", "\r\n").encode())
        assert list(read_msr_csv(path, block_bytes=4096)) == [2, 3, 0, 1, 2, 3]

    def test_trailing_commas_tolerated(self):
        body = "\n".join(line + ",," for line in self.ROWS.splitlines()) + "\n"
        t = read_msr_csv(io.StringIO(body), block_bytes=4096)
        assert list(t) == [2, 3, 0, 1, 2, 3]

    def test_blank_and_whitespace_lines(self):
        body = "\n   \n" + self.ROWS + "\t\n"
        assert len(read_msr_csv(io.StringIO(body), block_bytes=4096)) == 6

    def test_non_integer_field_reports_line(self):
        body = self.ROWS + "128,hm,1,Read,xyz,10,1\n"
        with pytest.raises(TraceFormatError, match="line 4") as exc_info:
            read_msr_csv(io.StringIO(body))
        assert exc_info.value.line == 4
        assert "xyz" in str(exc_info.value)

    def test_short_row_reports_line(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            read_msr_csv(io.StringIO("1,h,1,Read,0,10,1\n1,h,Read\n"))

    def test_negative_field_reports_line(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            read_msr_csv(io.StringIO("1,h,1,Read,-5,10,1\n"))

    def test_empty_request_type(self):
        with pytest.raises(TraceFormatError, match="request-type"):
            read_msr_csv(io.StringIO("1,h,1, ,0,10,1\n"))

    def test_path_in_message(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,h,1,Read,abc,10,1\n")
        with pytest.raises(TraceFormatError, match="bad.csv"):
            read_msr_csv(path)
        try:
            read_msr_csv(path)
        except TraceFormatError as exc:
            assert exc.path == path
            assert exc.line == 1

    def test_non_utf8_bytes_report_line(self, tmp_path):
        # past the text decoder's first read-ahead block, so the line is
        # found by looking, not by where decoding happened to stop
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,h,1,Read,0,10,1\n" * 1000 + b"1,h\xff,1,Read,0,10,1\n")
        with pytest.raises(TraceFormatError, match="line 1001: not UTF-8"):
            read_msr_csv(path)
        with pytest.raises(TraceFormatError, match="line 1001"):
            list(MsrCsvStream(path).chunks())

    def test_error_is_trace_error_subclass(self):
        # callers catching the old TraceError keep working
        assert issubclass(TraceFormatError, TraceError)


class TestIterMsrPages:
    """The incremental parser itself: chunk shapes and budgets."""

    def _csv(self, n):
        t = Trace(np.arange(n, dtype=np.int64) % 17)
        buf = io.StringIO()
        write_msr_csv(t, buf)
        return buf

    def test_chunk_sizes_bounded(self):
        buf = self._csv(1000)
        buf.seek(0)
        chunks = list(iter_msr_pages(buf, chunk=64))
        assert all(c.size == 64 for c in chunks[:-1])
        assert sum(c.size for c in chunks) == 1000
        assert all(c.dtype == np.int64 for c in chunks)

    def test_matches_materializing_wrapper(self):
        buf = self._csv(500)
        buf.seek(0)
        streamed = np.concatenate(list(iter_msr_pages(buf, chunk=33)))
        buf.seek(0)
        assert np.array_equal(streamed, read_msr_csv(buf).pages)

    def test_max_accesses_mid_row(self):
        # one request covering 4 blocks, budget cuts inside the expansion
        body = "1,h,1,Read,0,16384,1\n"
        out = np.concatenate(list(iter_msr_pages(io.StringIO(body), max_accesses=3)))
        assert out.tolist() == [0, 1, 2]

    def test_max_accesses_stops_reading(self):
        body = "1,h,1,Read,0,4096,1\n" + "garbage-line-that-would-fail\n"
        out = list(iter_msr_pages(io.StringIO(body), max_accesses=1))
        assert np.concatenate(out).tolist() == [0]

    def test_bad_chunk(self):
        with pytest.raises(TraceError):
            list(iter_msr_pages(io.StringIO(""), chunk=0))
