"""Offline span analysis: reading, stitching, and the tail summary."""

from __future__ import annotations

import json

import pytest

from repro.errors import TraceFormatError
from repro.obs.spans import format_summary, read_spans, stitch, summarize


def span(name, trace, span_id, parent=None, us=100.0, **attrs):
    record = {"ev": "span", "name": name, "svc": "t", "trace": trace,
              "span": span_id, "ts": 1, "us": us, **attrs}
    if parent is not None:
        record["parent"] = parent
    return record


def complete_trace(trace_id, root_us=1000.0):
    """client -> router -> worker tree, the shape the cluster emits."""
    return [
        span("client.request", trace_id, "c1", us=root_us, op="GET"),
        span("router.request", trace_id, "r1", parent="c1", us=root_us * 0.8),
        span("router.link", trace_id, "l1", parent="r1", us=root_us * 0.5),
        span("server.request", trace_id, "s1", parent="l1", us=root_us * 0.2),
    ]


class TestReadSpans:
    def test_skips_non_span_events_and_blank_lines(self, tmp_path):
        path = tmp_path / "mixed.ndjson"
        lines = [
            json.dumps({"ev": "access", "page": 1, "hit": True}),
            "",
            json.dumps(span("client.request", "t1", "a1")),
        ]
        path.write_text("\n".join(lines) + "\n")
        spans = read_spans([path])
        assert len(spans) == 1 and spans[0]["name"] == "client.request"

    def test_multiple_files_concatenate(self, tmp_path):
        for i in range(2):
            (tmp_path / f"f{i}.ndjson").write_text(
                json.dumps(span("x", f"t{i}", "s1")) + "\n"
            )
        assert len(read_spans(sorted(tmp_path.glob("*.ndjson")))) == 2

    def test_garbage_line_raises(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("{not json\n")
        with pytest.raises(TraceFormatError, match="line 1") as exc_info:
            read_spans([path])
        assert exc_info.value.path == path

    @pytest.mark.parametrize(
        "body, line",
        [(b"[1, 2]\n", 1), (b'{"ev": "span"}\n\n\xff\xfe\n', 3)],
        ids=["json-array", "not-utf8"],
    )
    def test_bad_record_names_file_and_line(self, tmp_path, body, line):
        path = tmp_path / "bad.ndjson"
        path.write_bytes(body)
        with pytest.raises(TraceFormatError, match=f"bad.ndjson: line {line}: "):
            read_spans([path])


class TestStitch:
    def test_complete_tree_is_clean(self):
        trees = stitch(complete_trace("t1") + complete_trace("t2"))
        assert sorted(trees["traces"]) == ["t1", "t2"]
        assert trees["roots"]["t1"]["name"] == "client.request"
        assert trees["orphans"] == []
        assert trees["multi_root"] == []

    def test_dangling_parent_is_an_orphan(self):
        spans = complete_trace("t1") + [span("server.request", "t1", "s9", parent="gone")]
        trees = stitch(spans)
        assert [o["span"] for o in trees["orphans"]] == ["s9"]

    def test_two_roots_flagged(self):
        spans = [span("a", "t1", "s1"), span("b", "t1", "s2")]
        assert stitch(spans)["multi_root"] == ["t1"]

    def test_cross_file_stitching_by_trace_id(self):
        # same trace id arriving from different "files" (list order) stitches
        tree = complete_trace("t1")
        trees = stitch(tree[2:] + tree[:2])
        assert trees["orphans"] == []


class TestSummarize:
    def test_names_table_and_counts(self):
        summary = summarize(complete_trace("t1") + complete_trace("t2", root_us=2000.0))
        assert summary["traces"] == 2
        assert summary["orphans"] == 0
        assert summary["names"]["client.request"]["count"] == 2
        assert summary["names"]["client.request"]["max_us"] == 2000.0

    def test_breakdown_attributes_children_one_level(self):
        summary = summarize(complete_trace("t1"), tail_quantile=0.5)
        row = summary["breakdown"]["GET"]
        assert row["traces"] == 1
        # only the direct child of the root is attributed
        assert set(row["children_us"]) == {"router.request"}
        assert row["children_us"]["router.request"] == pytest.approx(800.0)
        assert row["other_us"] == pytest.approx(200.0)

    def test_format_summary_renders(self):
        text = format_summary(summarize(complete_trace("t1")))
        assert "client.request" in text
        assert "orphans 0" in text
        assert "GET" in text
