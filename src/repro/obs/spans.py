"""Span-file analysis: stitch NDJSON span records into trees, explain p99.

The tracing runtime (:mod:`repro.obs.tracing`) writes one NDJSON file
per process. This module is the offline half: read any number of those
files, stitch records into per-trace trees, verify completeness (every
parent id resolves, every trace has exactly one root), and summarize
where the tail latency goes — for the slowest traces, how their root
duration splits across child span names. The ``repro trace`` CLI is a
thin wrapper over :func:`summarize` / :func:`format_summary`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.errors import TraceFormatError

__all__ = ["read_spans", "stitch", "summarize", "format_summary"]


def read_spans(paths: Iterable[str | Path]) -> list[dict[str, Any]]:
    """Load span records (``ev == "span"``) from NDJSON files, in file order.

    Non-span events sharing the file (the sinks are the same classes the
    event hooks use) are skipped; a line that is not a UTF-8 JSON object
    raises :class:`~repro.errors.TraceFormatError` naming the file and
    line — a span file is machine-written, so garbage means a real bug,
    not dirty data.
    """
    spans: list[dict[str, Any]] = []
    for path in paths:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
                    raise TraceFormatError(
                        f"not a JSON span record: {exc}", path=path, line=lineno
                    ) from None
                if not isinstance(record, dict):
                    raise TraceFormatError(
                        f"expected a JSON object, got {type(record).__name__}",
                        path=path, line=lineno,
                    )
                if record.get("ev") == "span":
                    spans.append(record)
    return spans


def stitch(spans: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Group spans by trace and check tree integrity.

    Returns ``{"traces": {trace_id: [span, ...]}, "roots": {trace_id:
    root-span}, "orphans": [span, ...], "multi_root": [trace_id, ...]}``.
    An *orphan* is a non-root span whose parent id does not appear in its
    own trace — the smoking gun for a tier that dropped or mangled the
    wire context.
    """
    traces: dict[str, list[dict[str, Any]]] = {}
    for record in spans:
        traces.setdefault(record["trace"], []).append(record)
    roots: dict[str, dict[str, Any]] = {}
    orphans: list[dict[str, Any]] = []
    multi_root: list[str] = []
    for trace_id, members in traces.items():
        ids = {record["span"] for record in members}
        trace_roots = [r for r in members if "parent" not in r]
        if trace_roots:
            roots[trace_id] = trace_roots[0]
        if len(trace_roots) > 1:
            multi_root.append(trace_id)
        orphans.extend(
            r for r in members if "parent" in r and r["parent"] not in ids
        )
    return {"traces": traces, "roots": roots, "orphans": orphans, "multi_root": multi_root}


def _percentile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile over raw values (no bucketing error)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return float(ordered[rank])


def summarize(
    spans: Sequence[dict[str, Any]], *, tail_quantile: float = 0.99
) -> dict[str, Any]:
    """Per-name latency table + a tail breakdown of the slowest traces.

    The breakdown answers "where does p99 time go": for each root-span
    group (by ``op`` attribute, falling back to span name), take the
    traces whose root duration is at or beyond ``tail_quantile``, and
    report the mean microseconds each child span name contributes to
    those roots — unattributed time (framing, queue residence between
    spans, scheduling) appears as ``"(other)"``.
    """
    stitched = stitch(spans)
    by_name: dict[str, list[float]] = {}
    for record in spans:
        by_name.setdefault(record["name"], []).append(float(record["us"]))
    names = {
        name: {
            "count": len(vals),
            "p50_us": _percentile(vals, 0.50),
            "p99_us": _percentile(vals, tail_quantile),
            "max_us": max(vals),
        }
        for name, vals in sorted(by_name.items())
    }

    groups: dict[str, list[tuple[float, str]]] = {}  # op -> [(root_us, trace_id)]
    for trace_id, root in stitched["roots"].items():
        op = str(root.get("op", root["name"]))
        groups.setdefault(op, []).append((float(root["us"]), trace_id))
    breakdown: dict[str, Any] = {}
    for op, members in sorted(groups.items()):
        durations = [d for d, _ in members]
        cut = _percentile(durations, tail_quantile)
        tail = [(d, t) for d, t in members if d >= cut]
        child_us: dict[str, float] = {}
        total_root = sum(d for d, _ in tail)
        attributed = 0.0
        for _, trace_id in tail:
            root_span = stitched["roots"][trace_id]["span"]
            for record in stitched["traces"][trace_id]:
                if record.get("parent") == root_span:
                    # direct children partition the root's time; deeper
                    # levels refine their parent, so only count one level
                    child_us[record["name"]] = child_us.get(record["name"], 0.0) + float(
                        record["us"]
                    )
                    attributed += float(record["us"])
        n = len(tail)
        breakdown[op] = {
            "traces": len(members),
            "tail_traces": n,
            "tail_cut_us": cut,
            "mean_root_us": total_root / n if n else 0.0,
            "children_us": {k: v / n for k, v in sorted(child_us.items())},
            "other_us": max(0.0, (total_root - attributed) / n) if n else 0.0,
        }
    return {
        "spans": len(spans),
        "traces": len(stitched["traces"]),
        "orphans": len(stitched["orphans"]),
        "multi_root": len(stitched["multi_root"]),
        "names": names,
        "tail_quantile": tail_quantile,
        "breakdown": breakdown,
    }


def format_summary(summary: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize` output."""
    lines = [
        f"spans {summary['spans']}  traces {summary['traces']}  "
        f"orphans {summary['orphans']}  multi-root {summary['multi_root']}",
        "",
        f"{'span':<24} {'count':>8} {'p50 µs':>10} {'p99 µs':>10} {'max µs':>10}",
    ]
    for name, row in summary["names"].items():
        lines.append(
            f"{name:<24} {row['count']:>8} {row['p50_us']:>10.0f} "
            f"{row['p99_us']:>10.0f} {row['max_us']:>10.0f}"
        )
    q = summary["tail_quantile"]
    for op, row in summary["breakdown"].items():
        lines.append("")
        lines.append(
            f"{op}: p{q * 100:g} tail = {row['tail_traces']}/{row['traces']} traces, "
            f"mean root {row['mean_root_us']:.0f} µs (cut {row['tail_cut_us']:.0f} µs)"
        )
        total = row["mean_root_us"] or 1.0
        for child, us in row["children_us"].items():
            lines.append(f"  {child:<22} {us:>10.0f} µs  ({100 * us / total:>5.1f}%)")
        if row["other_us"]:
            lines.append(
                f"  {'(other)':<22} {row['other_us']:>10.0f} µs  "
                f"({100 * row['other_us'] / total:>5.1f}%)"
            )
    return "\n".join(lines)
