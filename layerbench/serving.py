"""The program's server in its own process, and the load the benchmark puts on it.

The server is started through the real CLI (``python -m repro.cli
serve|cluster --port 0``) and its port is parsed from its first line. The
load comes from the benchmark's own process: at most two connections, no
extra threads.
"""

from __future__ import annotations

import re
import signal
import statistics
import time
from pathlib import Path
from typing import Any

import _harness as H
import workloads as W
from repro.rng import derive_seed
from repro.service.client import ServiceClient
from repro.service.loadgen import replay_trace
from repro.service.openloop import open_loop_replay

#: the served policy, with the CLI's heat-sink defaults
SERVE_ARGS = ["--policy", "heatsink", "--capacity", str(W.CAPACITY), "--seed", str(W.POLICY_SEED)]
#: offered rate of the open-loop phase, requests/s; the Python generator
#: itself lags near 8k/s on a 2-CPU host, so the rate stays well below that
OPEN_RATE = 2000.0

_PORT_LINE = re.compile(r" on [^\s:]+:(\d+) ")


def server_argv(w: W.Workload, trace_dir: Path | None = None) -> list[str]:
    if w.kind == "cluster":
        argv = ["cluster", "--workers", "2", *SERVE_ARGS, "--port", "0"]
        return argv + (["--trace-dir", str(trace_dir)] if trace_dir is not None else [])
    return ["serve", *SERVE_ARGS, "--port", "0"]


class ServerProcess:
    """The program under test in its own process, started through the real CLI."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.proc = None
        self.port = 0
        self.client: ServiceClient | None = None

    async def start(self) -> float:
        """Spawn, wait for the port line, connect and PING; return the seconds taken."""
        t0 = time.perf_counter()
        self.proc = H.spawn(["-m", "repro.cli", *self.argv], cwd=W.ROOT, env=W.child_env())
        while True:
            line = H.read_line(self.proc, timeout=120.0)
            if not line:
                raise RuntimeError(f"`repro.cli {self.argv[0]}` exited before printing its port")
            match = _PORT_LINE.search(line)
            if match:
                self.port = int(match.group(1))
                break
        self.client = await ServiceClient.connect("127.0.0.1", self.port)
        if not await self.client.ping():
            raise RuntimeError("server did not answer PING")
        return time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server's whole process tree (router + workers)."""
        return H.tree_vmhwm_mb(H.process_tree(self.proc.pid))

    async def stop(self) -> None:
        if self.client is not None:
            await self.client.close()
            self.client = None
        if self.proc is not None:
            H.stop_process(self.proc, sig=signal.SIGINT)
            self.proc.stdout.close()
            self.proc = None


async def setup_samples(w: W.Workload, n: int) -> list[float]:
    """Start and stop the server ``n`` times; the seconds each start took."""
    out: list[float] = []
    for _ in range(n):
        server = ServerProcess(server_argv(w))
        try:
            out.append(await server.start())
        finally:
            await server.stop()
    return out


async def closed_loop_pass(port: int, keys: list[int]):
    """Pipelined GETs, 64 in flight on each of 2 connections (the closed loop)."""
    return await replay_trace(
        keys, host="127.0.0.1", port=port, mode="pipeline", concurrency=64,
        batch=1, connections=2, frame="ndjson", fetch_stats=False,
    )


async def batch_pass(client: ServiceClient, requests: list[W.Request]) -> dict[str, Any]:
    """Issue MGET/MPUT requests one at a time; time each round trip."""
    hits: list[bool] = []
    lat_ms: list[float] = []
    errors = 0
    t_pass = time.perf_counter()
    for op, keys, values in requests:
        t0 = time.perf_counter()
        resp = await (client.mget(keys) if op == "MGET" else client.mput(keys, values))
        lat_ms.append((time.perf_counter() - t0) * 1e3)
        if resp.get("ok"):
            hits.extend(bool(h) for h in resp["hits"])
        else:
            errors += 1
            hits.extend([False] * len(keys))
    seconds = time.perf_counter() - t_pass
    return {"hits": hits, "lat_ms": lat_ms, "errors": errors, "rate": len(hits) / seconds}


async def measure_get(server: ServerProcess, w: W.Workload, seed: int, keys: list[int],
                      seconds: float, plan: W.Plan) -> dict[str, Any]:
    """A warm-up, then closed-loop passes alternating with open-loop segments
    for ``seconds``, so both phases sample the whole window (the host's
    speed drifts within seconds). Consumes ``keys`` from the start."""
    per_pass = plan.cluster_pass if w.kind == "cluster" else plan.get_pass
    seg_len = int(OPEN_RATE * plan.open_segment_s)
    warm = await closed_loop_pass(server.port, keys[: plan.warmup])
    pos = sent = warm.ops
    hits, errors = warm.hits, warm.errors
    rates: list[float] = []
    closed_ops = closed_hits = 0
    p50s: list[float] = []
    p99s: list[float] = []
    lags: list[float] = []
    lagged = 0
    deadline = time.perf_counter() + seconds
    while pos + per_pass + seg_len <= len(keys) and (
        min(len(rates), len(p50s)) < plan.min_passes or time.perf_counter() < deadline
    ):
        rep = await closed_loop_pass(server.port, keys[pos : pos + per_pass])
        pos += per_pass
        sent += rep.ops
        hits += rep.hits
        errors += rep.errors
        closed_ops += rep.ops
        closed_hits += rep.hits
        rates.append(rep.ops_per_second)

        slo = await open_loop_replay(
            keys[pos : pos + seg_len], host="127.0.0.1", port=server.port, rate=OPEN_RATE,
            connections=2, seed=derive_seed(seed, "open", len(p50s) + lagged), fetch_stats=False,
        )
        pos += seg_len
        sent += seg_len
        hits += slo.hits
        errors += slo.errors
        if not slo.lag_ok:  # the generator, not the server, fell behind: not counted
            lagged += 1
            if lagged > 3 * max(plan.min_passes, len(p50s)):
                raise RuntimeError("open-loop generator kept lagging; latencies would be invalid")
            continue
        p50s.append(slo.p50_ms)
        p99s.append(slo.p99_ms)
        lags.append(slo.lag_p99_ms)
    if min(len(rates), len(p50s)) < plan.min_passes:
        raise RuntimeError(f"{w.name}: input too short for {plan.min_passes} passes per phase")
    return {
        "rates": rates,
        "miss_rate": 1.0 - closed_hits / closed_ops,
        "p50_ms": statistics.median(p50s),
        "p99_ms": statistics.median(p99s),
        "pos": pos,
        "sent": sent,
        "hits": hits,
        "errors": errors,
        "notes": [
            f"  closed loop: {len(rates)} passes of {per_pass} GETs, 2 connections x 64 in flight",
            f"  open loop: {len(p50s)} segments of {seg_len} Poisson arrivals at {OPEN_RATE:g}/s "
            f"on 2 connections, latency from the scheduled arrival ({lagged} segments dropped "
            "for generator lag); p50/p99 are medians over segments",
            f"  service.openloop.lag_p99_ms (median of segments): {statistics.median(lags):.4f}",
        ],
    }


async def measure_batch(server: ServerProcess, layout: W.BatchLayout, seconds: float,
                        plan: W.Plan) -> dict[str, Any]:
    """A warm-up, then passes of MGET/MPUT requests, one at a time on one
    connection, for ``seconds``. Consumes the layout from its first request."""
    warm = max(1, plan.warmup // 400)
    served = (await batch_pass(server.client, layout.requests(0, warm)))["hits"]
    pos = warm
    errors = 0
    rates: list[float] = []
    lat_ms: list[float] = []
    measured_keys = measured_hits = 0
    deadline = time.perf_counter() + seconds
    while pos + plan.batch_pass <= len(layout) and (
        len(rates) < plan.min_passes or time.perf_counter() < deadline
    ):
        rep = await batch_pass(server.client, layout.requests(pos, pos + plan.batch_pass))
        pos += plan.batch_pass
        served += rep["hits"]
        errors += rep["errors"]
        rates.append(rep["rate"])
        lat_ms += rep["lat_ms"]
        measured_keys += len(rep["hits"])
        measured_hits += sum(rep["hits"])
    if len(rates) < plan.min_passes:
        raise RuntimeError(f"serve-batch: input too short for {plan.min_passes} passes")
    lat_ms.sort()
    return {
        "rates": rates,
        "miss_rate": 1.0 - measured_hits / measured_keys,
        "p50_ms": H.percentile(lat_ms, 0.50),
        "p99_ms": H.percentile(lat_ms, 0.99),
        "pos": pos,
        "sent": len(served),
        "hits": sum(served),
        "served": served,
        "errors": errors,
        "notes": [
            f"  {len(rates)} passes of {plan.batch_pass} requests, one connection, one at a time; "
            f"p50/p99 over {len(lat_ms)} round trips",
        ],
    }
