"""The traced run: a per-layer ledger timed from the benchmark's own code.

No tracing is added inside the program. Every span here wraps a call the
benchmark makes into one module's public functions, on the workload's own
keys, and self time is a span's duration minus what its children cover.

Every workload is peeled through both stacks, so every per-layer metric
exists on every workload:

- **simulator stack** on the workload's ``.npt`` trace: ``traces.npt``
  decode, ``traces.streaming`` prefetch wait, ``sim.kernels.pagemap``
  ``token_space``, and the kernels. The adaptive driver of
  ``sim.kernels.tracelevel`` is re-driven chunk by chunk from its public
  pieces (``run_heatsink``/``run_plru``/``run_drandom``, ``scan_*``,
  ``PROBE``/``MIN_TRACE``/``MISS_THRESHOLD``), which yields the route
  counters (probed, scanned, per-access, bails). The stitched misses must
  equal an untraced ``run_policy_stream`` of the same policy.
- **serving stack** on the workload's requests: ``policy.access`` →
  ``batch_hits`` → ``PolicyStore`` → protocol codec → ``FrameSplitter`` →
  an in-process server over loopback → an in-process router in front of
  it. Each row is timed alone, in µs per key. A short open-loop segment
  against the same in-process server gives the generator's own lag.

The workload's own route decides which stack's ledger is the end-to-end
one: ``ledger.unattributed_share`` is the simulator's untraced share
(driver self time over run time) on ``sim-*`` and the serving stack's
(in-process loopback time its layers do not explain) on ``serve-*``.
Serving workloads additionally replay their closed loop against the real
server process untraced and then with client tracing on
(``ledger.trace_overhead``); ``serve-cluster`` runs the cluster with
``--trace-dir`` and prints the program's own spans as a cross-check.
"""

from __future__ import annotations

import asyncio
import glob
import shutil
import statistics
import time
from pathlib import Path
from typing import Any

import numpy as np

import _harness as H
import serving as S
import workloads as W
from repro.cluster.router import running_router
from repro.core.assoc.d_lru import PLruCache
from repro.core.assoc.d_random import DRandomCache
from repro.core.assoc.heatsink import HeatSinkLRU
from repro.core.assoc.set_assoc import SetAssociativeLRU
from repro.obs import tracing
from repro.obs.sinks import ListSink
from repro.obs.spans import read_spans, summarize
from repro.service.client import ServiceClient
from repro.service.framing import FrameSplitter
from repro.service.openloop import open_loop_replay
from repro.service.protocol import (
    RESPONSE_GET_HIT,
    Request,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.service.server import running_server
from repro.service.store import BATCH_KERNEL_MIN, PolicyStore
from repro.sim.kernels import tracelevel as tl
from repro.sim.kernels.batched import batch_hits
from repro.sim.kernels.heatsink import run_heatsink
from repro.sim.kernels.pagemap import token_space
from repro.sim.kernels.registry import kernel_for
from repro.sim.kernels.slotted import run_drandom, run_plru
from repro.traces.npt import NptTraceStream
from repro.traces.streaming import Prefetcher

#: the per-access kernel, trace-level scan and registered kernel of each
#: simulated policy type — the pieces ``tracelevel._adaptive`` stitches
PIECES = {
    HeatSinkLRU: (run_heatsink, tl.scan_heatsink, "heatsink-v2"),
    PLruCache: (run_plru, tl.scan_plru, "plru-v2"),
    SetAssociativeLRU: (run_plru, tl.scan_plru, "plru-v2"),
    DRandomCache: (run_drandom, tl.scan_drandom, "drandom-v2"),
}
#: GET traffic is grouped into batches of this many keys for the batch layers
GET_GROUP = 256
#: cluster span names reported next to the ledger (emitted inside the program)
PROGRAM_SPANS = ("server.parse", "store.op", "store.lock.wait", "router.queue", "router.link")


# -- simulator stack -------------------------------------------------------------

def _adaptive_step(rec: H.SpanRecorder, policy, pages: np.ndarray, peraccess, scan,
                   route: dict[str, int]) -> np.ndarray:
    """One chunk through the adaptive driver's pieces, as
    ``tracelevel._adaptive`` composes them, with a span around each piece;
    returns the chunk's hit flags."""
    n = pages.size
    probe = tl.PROBE
    route["accesses"] += n
    if n < tl.MIN_TRACE or n <= probe:
        with rec.span("sim.kernels.per_access"):
            parts = [peraccess(policy, pages).hits]
        route["per_access"] += n
    else:
        with rec.span("sim.kernels.tracelevel.probe"):
            head = peraccess(policy, pages[:probe])
        route["probed"] += probe
        parts = [head.hits]
        tail = head.hits[probe // 2 :]
        if tail.size and 1.0 - float(tail.mean()) > tl.MISS_THRESHOLD:
            with rec.span("sim.kernels.per_access"):
                parts.append(peraccess(policy, pages[probe:]).hits)
            route["per_access"] += n - probe
        else:
            with rec.span("sim.kernels.tracelevel.scan"):
                hits, consumed = scan(policy, pages[probe:])
            parts.append(hits)
            route["scanned"] += consumed
            if probe + consumed < n:
                route["bails"] += 1
                with rec.span("sim.kernels.per_access"):
                    parts.append(peraccess(policy, pages[probe + consumed :]).hits)
                route["per_access"] += n - probe - consumed
    return np.concatenate(parts)


def sim_stack(rec: H.SpanRecorder, path: Path) -> dict[str, Any]:
    """Decode, token_space, and a traced stitched replay of every policy,
    next to an untraced ``run_policy_stream`` of the same policy."""
    stream = NptTraceStream(path)
    with rec.span("traces.npt.decode"):
        length = sum(chunk.size for chunk in stream.chunks())
    for chunk in stream.chunks():
        with rec.span("sim.kernels.pagemap.token_space"):
            token_space(chunk, ())

    untraced: dict[str, dict[str, Any]] = {}
    steps_ms: dict[str, list[float]] = {}
    routes: dict[str, dict[str, int]] = {}
    mirrors_ok = True
    for (name, policy), (_, plain) in zip(W.sim_policies(), W.sim_policies()):
        untraced[name] = W.timed_stream_run(plain, stream, steps_ms.setdefault(name, []))
        peraccess, scan, kernel_name = PIECES[type(policy)]
        kernel = kernel_for(policy)
        mirrors_ok = mirrors_ok and kernel is not None and kernel.name == kernel_name
        route = dict(accesses=0, probed=0, scanned=0, per_access=0, bails=0, misses=0)
        policy.reset()
        with rec.span("sim.run", policy=name):
            chunks = iter(Prefetcher(stream))
            while True:
                with rec.span("traces.streaming.prefetch_wait"):
                    chunk = next(chunks, None)
                if chunk is None:
                    break
                with rec.span("sim.engine.chunk"):
                    hits = _adaptive_step(rec, policy, chunk, peraccess, scan, route)
                route["misses"] += int(hits.size - np.count_nonzero(hits))
        routes[name] = route
    return {"length": length, "untraced": untraced, "steps_ms": steps_ms, "routes": routes,
            "mirrors_ok": mirrors_ok}


def _per(total_ns: int, count: int) -> float:
    """ns per item; 0 when the route never took this piece."""
    return total_ns / count if count else 0.0


def sim_metrics(rec: H.SpanRecorder, sim: dict[str, Any]) -> dict[str, tuple[float, str]]:
    selfs = rec.self_ns()
    routes = sim["routes"].values()
    accesses = sum(r["accesses"] for r in routes)
    probed = sum(r["probed"] for r in routes)
    scanned = sum(r["scanned"] for r in routes)
    probe = rec.total_ns("sim.kernels.tracelevel.probe")
    scan = rec.total_ns("sim.kernels.tracelevel.scan")
    per_access = rec.total_ns("sim.kernels.per_access")
    out = {
        "traces.npt.decode_ns": (rec.total_ns("traces.npt.decode") / sim["length"], "ns"),
        "traces.streaming.prefetch_wait_ns": (
            rec.total_ns("traces.streaming.prefetch_wait") / accesses, "ns"),
        "sim.kernels.pagemap.token_space_ns": (
            rec.total_ns("sim.kernels.pagemap.token_space") / sim["length"], "ns"),
        "sim.kernels.per_access_ns": (
            _per(probe + per_access, probed + sum(r["per_access"] for r in routes)), "ns"),
        "sim.kernels.tracelevel.probe_ns": (_per(probe, probed), "ns"),
        "sim.kernels.tracelevel.probe_time_share": (probe / (probe + scan + per_access), "fraction"),
        "sim.kernels.tracelevel.scan_ns": (_per(scan, scanned), "ns"),
        "sim.kernels.tracelevel.scan_share": (scanned / accesses, "fraction"),
        "sim.kernels.tracelevel.bails": (sum(r["bails"] for r in routes), "count"),
        "sim.engine.self_ns": (selfs.get("sim.engine.chunk", 0) / accesses, "ns"),
    }
    for name, row in sim["untraced"].items():
        out[f"sim.policy.{name}.ns"] = (row["seconds"] * 1e9 / row["accesses"], "ns")
    return out


def sim_notes(sim: dict[str, Any]) -> list[str]:
    lines = []
    for name, r in sim["routes"].items():
        lines.append(
            f"  route {name:<9}: {r['accesses']} accesses = {r['probed']} probed + "
            f"{r['scanned']} scanned + {r['per_access']} per-access, {r['bails']} bails, "
            f"{r['misses']} misses (untraced {sim['untraced'][name]['misses']})"
        )
    return lines


# -- serving stack ---------------------------------------------------------------

def _request(op: str, keys: list[int], values: list[int] | None) -> Request:
    if op == "GET":
        return Request("GET", key=keys[0])
    if op == "MGET":
        return Request("MGET", keys=tuple(keys))
    return Request("MPUT", keys=tuple(keys), values=tuple(values))


async def _store_op(store: PolicyStore, op: str, keys: list[int], values) -> None:
    if op == "GET":
        await store.get(keys[0])
    elif op == "MGET":
        await store.get_many(keys)
    else:
        await store.put_many(keys, values)


async def _drive(client: ServiceClient, traffic: list[W.Request]) -> None:
    """The workload's request shape over one connection: GETs pipelined 64
    deep, batch requests one at a time."""
    if traffic[0][0] == "GET":
        keys = [ks[0] for _, ks, _ in traffic]
        for lo in range(0, len(keys), 64):
            await client.get_window(keys[lo : lo + 64])
    else:
        await S.batch_pass(client, traffic)


async def service_stack(rec: H.SpanRecorder, traffic: list[W.Request], seed: int,
                        open_keys: int) -> dict[str, float]:
    """Each serving layer alone on the workload's requests, in µs per key,
    and the open-loop generator's lag against the in-process server."""
    flat = [k for _, ks, _ in traffic for k in ks]
    batched = traffic[0][0] != "GET"
    groups = traffic if batched else [
        ("MGET", flat[lo : lo + GET_GROUP], None) for lo in range(0, len(flat), GET_GROUP)
    ]
    per_key = 1e-3 / len(flat)  # ns -> µs per key

    policy = W.serve_policy()
    with rec.span("core.policy.access"):
        for key in flat:
            policy.access(key)
    policy = W.serve_policy()
    with rec.span("sim.kernels.batched.batch_hits"):
        for _, ks, _ in groups:
            batch_hits(policy, ks)

    store = PolicyStore(W.serve_policy())
    with rec.span("service.store.op"):
        for op, ks, vs in traffic:
            await _store_op(store, op, ks, vs)
    if not batched:
        store = PolicyStore(W.serve_policy())
        for op, ks, vs in groups:
            await _store_op(store, op, ks, vs)
    kernel_share = store.metrics.kernel_batches / len(groups)

    hit_bytes = encode_response(RESPONSE_GET_HIT)  # GET answers go out pre-encoded
    wire = [encode_request(_request(op, ks, vs)) for op, ks, vs in traffic]
    with rec.span("service.protocol.codec"):
        for (op, ks, vs), line in zip(traffic, wire):
            encode_request(_request(op, ks, vs))
            decode_request(line)
            if op == "GET":
                decode_response(hit_bytes)
            else:
                body = {"ok": True, "hits": [False] * len(ks)}
                if op == "MGET":
                    body["values"] = [None] * len(ks)
                decode_response(encode_response(body))
    stream = b"".join(wire)
    splitter = FrameSplitter()
    frames = 0
    with rec.span("service.framing.split"):
        for lo in range(0, len(stream), 1 << 16):
            frames += len(splitter.feed(stream[lo : lo + (1 << 16)]))
    if frames != len(traffic):
        raise RuntimeError(f"FrameSplitter returned {frames} frames for {len(traffic)} requests")

    async with running_server(PolicyStore(W.serve_policy())) as server:
        async with await ServiceClient.connect("127.0.0.1", server.port) as client:
            with rec.span("service.server.loopback"):
                await _drive(client, traffic)
        with rec.span("service.openloop.segment"):
            slo = await open_loop_replay(
                flat[:open_keys], host="127.0.0.1", port=server.port, rate=S.OPEN_RATE,
                connections=2, seed=seed, fetch_stats=False)
    if slo.errors:
        raise RuntimeError(f"{slo.errors} open-loop requests failed against the loopback server")
    async with running_server(PolicyStore(W.serve_policy())) as worker:
        async with running_router([("w0", "127.0.0.1", worker.port)]) as router:
            async with await ServiceClient.connect("127.0.0.1", router.port) as client:
                with rec.span("cluster.router.loopback"):
                    await _drive(client, traffic)

    us = {name: rec.total_ns(name) * per_key for name in (
        "core.policy.access", "sim.kernels.batched.batch_hits", "service.store.op",
        "service.protocol.codec", "service.framing.split", "service.server.loopback",
        "cluster.router.loopback")}
    return {**us, "kernel_share": kernel_share, "lag_p99_ms": slo.lag_p99_ms,
            "kernel_share_expected": sum(len(ks) >= BATCH_KERNEL_MIN for _, ks, _ in groups)
            / len(groups)}


# -- serving end to end, untraced vs traced ----------------------------------------

async def serve_e2e(w: W.Workload, seed: int, seconds: float, plan: W.Plan, keys: np.ndarray,
                    layout: W.BatchLayout | None, rec: H.SpanRecorder,
                    results: Path) -> dict[str, Any]:
    """Against the real server process: the untraced measurement of the
    end-to-end run for ~45% of the time, then closed-loop passes with the
    program's client tracing on for ~40%."""
    trace_dir = None
    if w.kind == "cluster":
        trace_dir = results / f"cluster-spans.seed{seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    server = S.ServerProcess(S.server_argv(w, trace_dir))
    client_spans = ListSink()
    key_list = keys.tolist()
    per_pass = plan.cluster_pass if w.kind == "cluster" else plan.get_pass
    await server.start()
    try:
        before = await server.client.stats()
        if layout is not None:
            plain = await S.measure_batch(server, layout, 0.45 * seconds, plan)
        else:
            plain = await S.measure_get(server, w, seed, key_list, 0.45 * seconds, plan)
        pos, sent, hits, errors = plain["pos"], plain["sent"], plain["hits"], plain["errors"]
        traced: list[float] = []
        tracing.configure(rec, service="client", seed=seed)
        tracing.install(client_spans)
        try:
            deadline = time.perf_counter() + 0.4 * seconds
            while len(traced) < plan.min_passes or time.perf_counter() < deadline:
                if layout is not None:
                    if pos + plan.batch_pass > len(layout):
                        break
                    batch = await S.batch_pass(
                        server.client, layout.requests(pos, pos + plan.batch_pass))
                    pos += plan.batch_pass
                    sent += len(batch["hits"])
                    hits += sum(batch["hits"])
                    errors += batch["errors"]
                    traced.append(batch["rate"])
                else:
                    if pos + per_pass > len(key_list):
                        break
                    rep = await S.closed_loop_pass(server.port, key_list[pos : pos + per_pass])
                    pos += per_pass
                    sent += rep.ops
                    hits += rep.hits
                    errors += rep.errors
                    traced.append(rep.ops_per_second)
        finally:
            tracing.shutdown()
        after = await server.client.stats()
    finally:
        await server.stop()
    if len(traced) < plan.min_passes:
        raise RuntimeError(f"{w.name}: input too short for the traced passes")
    checks = {
        "no request failed": errors == 0,
        "STATS accesses delta equals keys sent": after["accesses"] - before["accesses"] == sent,
        "STATS hits delta equals client-observed hits": after["hits"] - before["hits"] == hits,
    }
    notes = plain["notes"] + [f"  traced closed loop: {len(traced)} passes"]
    if trace_dir is not None:
        notes += _program_spans(trace_dir, client_spans.events)
    untraced_rate = statistics.median(plain["rates"])
    return {
        "e2e_ns": 1e9 / untraced_rate,
        "p50_ms": plain["p50_ms"],
        "trace_overhead": untraced_rate / statistics.median(traced),
        "checks": checks,
        "notes": notes,
        "sent": sent,
        "errors": errors,
    }


def _program_spans(trace_dir: Path, client_events: list[dict[str, Any]]) -> list[str]:
    """The program's own cluster spans, summarized as a cross-check."""
    spans = read_spans(sorted(glob.glob(str(trace_dir / "*.ndjson")))) + client_events
    summary = summarize(spans)
    lines = [f"  program spans (--trace-dir): {summary['spans']} spans, "
             f"{summary['traces']} traces, {summary['orphans']} orphans"]
    for name in PROGRAM_SPANS:
        row = summary["names"].get(name)
        if row:
            lines.append(f"    {name:<16} n={row['count']:<7} p50 {row['p50_us']:>8.1f} µs  "
                         f"p99 {row['p99_us']:>8.1f} µs")
    return lines


# -- the whole ledger ----------------------------------------------------------------

def run(w: W.Workload, seed: int, seconds: float, smoke: bool, results: Path) -> dict[str, Any]:
    plan = W.plan_for(smoke)
    rec = H.SpanRecorder()
    path = W.input_trace(w, seed, smoke)
    keys = NptTraceStream(path).materialize().pages
    layout = W.BatchLayout(w, seed, keys) if w.kind == "batch" else None
    checks: dict[str, bool] = {}
    notes: list[str] = []
    attempted = failed = 0

    e2e = None
    if w.kind != "sim":
        e2e = asyncio.run(serve_e2e(w, seed, seconds, plan, keys, layout, rec, results))
        checks.update(e2e["checks"])
        notes += e2e["notes"]
        attempted, failed = e2e["sent"], e2e["errors"]

    sim = sim_stack(rec, path)
    metrics = sim_metrics(rec, sim)
    notes += sim_notes(sim)
    routes = sim["routes"]
    checks["tracelevel mirror matches the registered kernels"] = sim["mirrors_ok"]
    checks["traced stitched misses equal the untraced run's"] = all(
        routes[n]["misses"] == sim["untraced"][n]["misses"] for n in routes
    )
    if w.name == "sim-hot":
        checks["sim-hot: every policy scans >= 95% and never bails"] = all(
            r["scanned"] >= 0.95 * r["accesses"] and r["bails"] == 0 for r in routes.values()
        )
    if w.name == "sim-turnover":
        checks["sim-turnover: the scan never engages"] = all(
            r["scanned"] == 0 for r in routes.values()
        )

    if w.kind == "batch":
        traffic = layout.requests(0, plan.peel_requests)
    else:
        traffic = [("GET", [k], None) for k in keys[: plan.peel_keys].tolist()]
    open_keys = int(S.OPEN_RATE * plan.open_segment_s)
    svc = asyncio.run(service_stack(rec, traffic, seed, open_keys))
    hop = svc["cluster.router.loopback"] - svc["service.server.loopback"]
    metrics.update({
        "core.policy.access_us": (svc["core.policy.access"], "us"),
        "sim.kernels.batched.batch_hits_us": (svc["sim.kernels.batched.batch_hits"], "us"),
        "service.store.op_us": (svc["service.store.op"], "us"),
        "service.store.kernel_batch_share": (svc["kernel_share"], "fraction"),
        "service.protocol.codec_us": (svc["service.protocol.codec"], "us"),
        "service.framing.split_us": (svc["service.framing.split"], "us"),
        "service.server.loopback_us": (svc["service.server.loopback"], "us"),
        "cluster.router.hop_us": (hop, "us"),
        "service.openloop.lag_p99_ms": (svc["lag_p99_ms"], "ms"),
    })
    checks["kernel_batch_share equals the share of batches of >= "
           f"{BATCH_KERNEL_MIN} keys"] = abs(svc["kernel_share"] - svc["kernel_share_expected"]) < 1e-12

    if w.kind == "sim":
        total = sum(row["seconds"] for row in sim["untraced"].values())
        e2e_ns = total * 1e9 / sum(row["accesses"] for row in sim["untraced"].values())
        p50_ms = W.chunk_p50(sim["steps_ms"])
        unattributed = rec.self_ns()["sim.run"] / rec.total_ns("sim.run")
        overhead = rec.total_ns("sim.run") / (total * 1e9)
        attempted = 2 * sum(r["accesses"] for r in routes.values())
    else:
        attributed = svc["service.store.op"] + svc["service.protocol.codec"] + svc[
            "service.framing.split"]
        deepest = svc["service.server.loopback"]
        if w.kind == "cluster":
            attributed += hop
            deepest += hop
        unattributed = 1.0 - attributed / deepest
        e2e_ns, p50_ms, overhead = e2e["e2e_ns"], e2e["p50_ms"], e2e["trace_overhead"]
    metrics.update({
        "ledger.e2e_ns": (e2e_ns, "ns"),
        "ledger.p50_ms": (p50_ms, "ms"),
        "ledger.unattributed_share": (unattributed, "fraction"),
        "ledger.trace_overhead": (overhead, "ratio"),
    })
    notes.append(
        f"  serving stack (µs/key, {len(traffic)} requests): policy {svc['core.policy.access']:.3f}"
        f" | batch_hits {svc['sim.kernels.batched.batch_hits']:.3f}"
        f" | store {svc['service.store.op']:.3f} | codec {svc['service.protocol.codec']:.3f}"
        f" | split {svc['service.framing.split']:.3f}"
        f" | loopback {svc['service.server.loopback']:.3f} | router hop {hop:.3f}"
    )
    out_path = results / f"layers_trace.{w.name}.ndjson"
    rec.write(out_path)
    notes.append(f"  {len(rec.spans)} spans written to {out_path.relative_to(W.ROOT)}")
    return {"metrics": metrics, "checks": checks, "notes": notes,
            "attempted": max(attempted, 1), "failed": failed}
