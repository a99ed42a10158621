"""Command-line interface: experiments, ad-hoc simulation, MRCs, serving.

Usage::

    repro-experiment list
    repro-experiment policies
    repro-experiment run T4-HEATSINK --scale small --seed 0
    repro-experiment run-all --scale smoke --out results/
    repro-experiment simulate --trace t.npz --policy lru --capacity 1024
    repro-experiment simulate --zipf 16000000,100000000 --policy heatsink \
        --capacity 65536 --fast on   # streamed: 10^8 accesses, O(chunk) RSS
    repro-experiment convert t.csv t.npt   # chunked seekable binary trace
    repro-experiment mrc --trace t.npz --sizes 256,1024,4096 [--shards 0.1]
    repro-experiment serve --policy heatsink --capacity 1024 --port 7070
    repro-experiment loadgen --port 7070 --zipf 4096,200000,1.0
    repro-experiment loadgen --port 7070 --zipf 4096,50000 \
        --arrival-rate 2000 --burst 4 --slo 5
    repro-experiment stats --port 7070 [--prom] [--watch 2]
    repro-experiment trace spans/*.ndjson

Experiment runs print their rows as markdown tables and can persist CSV;
``simulate`` and ``mrc`` make the library usable as a one-shot trace
analysis tool on saved ``.npz`` traces (see ``repro.save_trace``);
``serve``/``loadgen`` put a policy behind live TCP traffic (see
``docs/service.md``). ``run``/``run-all`` apply each experiment's
``check`` to its table: every failed predicate prints one ``check failed:
<ID>: <predicate>`` line on stderr and the command exits 1 once all
experiments have run. A typed library error (:class:`~repro.errors.ReproError`:
an unknown policy, a malformed trace, ...) prints one ``error: ...`` line
on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.experiments.registry import available_experiments, get_check, run_experiment

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Run the paper-reproduction experiments of the repro library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiment ids")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help="experiment id (see `list`)")
    _add_run_args(run_p)

    all_p = sub.add_parser("run-all", help="run every experiment")
    _add_run_args(all_p)

    sim_p = sub.add_parser("simulate", help="run one policy over a saved trace")
    sim_source = sim_p.add_mutually_exclusive_group(required=True)
    sim_source.add_argument("--trace", type=Path, help=".npz trace file")
    sim_source.add_argument(
        "--trace-file", type=Path,
        help="stream a trace file (.npt/.csv/.npz) at O(chunk) memory",
    )
    sim_source.add_argument(
        "--zipf", metavar="PAGES,LENGTH[,ALPHA]",
        help="stream a synthetic Zipf trace of any length without "
        "materializing it, e.g. 16000000,100000000,1.0",
    )
    sim_source.add_argument(
        "--uniform", metavar="PAGES,LENGTH",
        help="stream a synthetic uniform trace, e.g. 4096,100000000",
    )
    sim_p.add_argument(
        "--chunk", type=int, default=1_000_000,
        help="accesses per streamed chunk (streamed sources only)",
    )
    sim_p.add_argument("--policy", required=True, help="registered policy name")
    sim_p.add_argument("--capacity", type=int, required=True, help="cache slots")
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument(
        "--fast", default="auto", choices=["auto", "on", "off"],
        help="vectorized kernel dispatch: auto = use one when eligible, "
        "on = require one (error if none), off = reference loop",
    )
    sim_p.add_argument(
        "--window", type=int, default=None,
        help="also print a windowed miss-rate sparkline with this window "
        "(any source; keeps one byte per access)",
    )

    mrc_p = sub.add_parser("mrc", help="LRU miss-rate curve of a saved trace")
    mrc_p.add_argument("--trace", type=Path, required=True, help=".npz trace file")
    mrc_p.add_argument(
        "--sizes", required=True, help="comma-separated cache sizes, e.g. 256,1024"
    )
    mrc_p.add_argument(
        "--shards", type=float, default=None,
        help="SHARDS sampling rate in (0,1] (default: exact computation)",
    )
    mrc_p.add_argument("--seed", type=int, default=0)

    char_p = sub.add_parser(
        "characterize", help="profile a saved trace (footprint, skew, reuse)"
    )
    char_p.add_argument("--trace", type=Path, required=True, help=".npz trace file")
    char_p.add_argument("--windows", type=int, default=20)

    conv_p = sub.add_parser(
        "convert", help="convert a trace file to the chunked streaming .npt format"
    )
    conv_p.add_argument("input", type=Path, help="source trace (.npz/.csv/.npt)")
    conv_p.add_argument("output", type=Path, help="destination .npt file")
    conv_p.add_argument(
        "--chunk", type=int, default=1_000_000, help="accesses per stored chunk"
    )

    sub.add_parser(
        "policies", help="list registered policy names and constructor parameters"
    )

    serve_p = sub.add_parser("serve", help="serve a policy-backed cache over TCP")
    serve_p.add_argument("--policy", default="heatsink", help="registered policy name")
    serve_p.add_argument("--capacity", type=int, default=1024, help="cache slots")
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=7070, help="TCP port (0 = ephemeral)"
    )
    serve_p.add_argument(
        "--shards", type=int, default=1,
        help="split capacity across N independent policy shards "
        "(1 = single-store behaviour, bit-identical to earlier releases)",
    )
    serve_p.add_argument(
        "--frame", default="auto", choices=["auto", "ndjson", "binary"],
        help="accepted wire framings: auto = both (clients negotiate via "
        "HELLO), ndjson/binary = that framing only for data ops",
    )
    serve_p.add_argument(
        "--max-connections", type=int, default=0,
        help="reject connections beyond this many with a fast 'overloaded' "
        "response (0 = unlimited)",
    )
    serve_p.add_argument(
        "--max-inflight", type=int, default=32,
        help="per-connection pipelined-request window before TCP backpressure",
    )
    serve_p.add_argument(
        "--write-timeout", type=float, default=30.0,
        help="drop a client that will not read responses for this many "
        "seconds (0 = wait forever)",
    )
    serve_p.add_argument(
        "--metrics-port", type=int, default=0,
        help="also serve Prometheus text on http://HOST:PORT/metrics "
        "(0 = disabled)",
    )
    serve_p.add_argument(
        "--stats-interval", type=float, default=0.0,
        help="print a one-line stats snapshot every N seconds (0 = never)",
    )
    serve_p.add_argument(
        "--no-batch-kernel", action="store_true",
        help="serve MGET/MPUT as per-key loops even when the policy has a "
        "fast kernel (default: batch through the kernel)",
    )

    cluster_p = sub.add_parser(
        "cluster",
        help="serve a policy-backed cache across worker processes behind a router",
    )
    cluster_p.add_argument("--policy", default="heatsink", help="registered policy name")
    cluster_p.add_argument(
        "--capacity", type=int, default=1024,
        help="total cache slots, split evenly across workers",
    )
    cluster_p.add_argument("--seed", type=int, default=0)
    cluster_p.add_argument("--host", default="127.0.0.1")
    cluster_p.add_argument(
        "--port", type=int, default=7070, help="router TCP port (0 = ephemeral)"
    )
    cluster_p.add_argument(
        "--workers", type=int, default=4,
        help="worker processes (each owns one policy shard, seeded like "
        "--shards of the same count)",
    )
    cluster_p.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per worker on the consistent-hash ring",
    )
    cluster_p.add_argument(
        "--frame", default="auto", choices=["auto", "ndjson", "binary"],
        help="accepted wire framings: auto = both (clients negotiate via "
        "HELLO), ndjson/binary = that framing only for data ops",
    )
    cluster_p.add_argument(
        "--max-connections", type=int, default=0,
        help="reject client connections beyond this many (0 = unlimited)",
    )
    cluster_p.add_argument(
        "--max-inflight", type=int, default=32,
        help="per-connection pipelined-request window before TCP backpressure",
    )
    cluster_p.add_argument(
        "--write-timeout", type=float, default=30.0,
        help="drop a client that will not read responses for this many "
        "seconds (0 = wait forever)",
    )
    cluster_p.add_argument(
        "--pool", type=int, default=2,
        help="persistent router connections per worker",
    )
    cluster_p.add_argument(
        "--upstream-retries", type=int, default=1,
        help="replays of an idempotent request after a worker link failure",
    )
    cluster_p.add_argument(
        "--drain", type=float, default=5.0,
        help="seconds to let in-flight client connections finish on "
        "SIGTERM/Ctrl-C before cutting them (0 = cut immediately)",
    )
    cluster_p.add_argument(
        "--metrics-port", type=int, default=0,
        help="also serve merged Prometheus text on http://HOST:PORT/metrics "
        "(0 = disabled)",
    )
    cluster_p.add_argument(
        "--stats-interval", type=float, default=0.0,
        help="print a one-line merged stats snapshot every N seconds (0 = never)",
    )
    cluster_p.add_argument(
        "--trace-dir", type=Path, default=None,
        help="write request-tracing span NDJSON files into this directory "
        "(spans-router.ndjson + one per worker; summarize with `trace`)",
    )
    cluster_p.add_argument(
        "--trace-sample", type=float, default=1.0,
        help="per-trace keep probability when --trace-dir is set",
    )
    cluster_p.add_argument(
        "--no-batch-kernel", action="store_true",
        help="workers serve MGET/MPUT as per-key loops even when the policy "
        "has a fast kernel (default: batch through the kernel)",
    )

    load_p = sub.add_parser("loadgen", help="replay a trace against a running server")
    load_p.add_argument("--host", default="127.0.0.1")
    load_p.add_argument("--port", type=int, default=7070)
    source = load_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", type=Path, help=".npz trace file to replay")
    source.add_argument(
        "--trace-file", type=Path,
        help="stream a trace file (.npt/.csv/.npz) at O(chunk) client "
        "memory — multi-hour replays never materialize "
        "(pipeline mode with 1 connection only)",
    )
    source.add_argument(
        "--zipf", metavar="PAGES,LENGTH[,ALPHA]",
        help="generate a Zipf trace, e.g. 4096,200000,1.0",
    )
    source.add_argument(
        "--uniform", metavar="PAGES,LENGTH",
        help="generate a uniform trace, e.g. 4096,200000",
    )
    load_p.add_argument("--seed", type=int, default=0, help="synthetic-trace seed")
    load_p.add_argument(
        "--chunk", type=int, default=1_000_000,
        help="accesses per streamed chunk (--trace-file only)",
    )
    load_p.add_argument(
        "--mode", default="pipeline", choices=["pipeline", "workers"],
        help="pipeline = one ordered connection (exact replay); "
        "workers = N concurrent connections (live-traffic regime)",
    )
    load_p.add_argument(
        "--concurrency", type=int, default=32,
        help="in-flight requests per connection (pipeline) or "
        "worker-connection count (workers)",
    )
    load_p.add_argument(
        "--batch", type=int, default=1,
        help="keys per MGET frame (1 = plain per-key GETs)",
    )
    load_p.add_argument(
        "--connections", type=int, default=1,
        help="concurrent pipelined connections over strided trace shards "
        "(pipeline mode only; needed to saturate a sharded server)",
    )
    load_p.add_argument(
        "--frame", default="ndjson", choices=["ndjson", "binary"],
        help="wire framing (binary negotiates via HELLO at connect)",
    )
    load_p.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-operation network deadline in seconds (0 = no deadline)",
    )
    load_p.add_argument(
        "--retries", type=int, default=0,
        help="retry failed idempotent requests up to N extra times "
        "(0 = fail fast, no resilience wrapper)",
    )
    load_p.add_argument(
        "--retry-base", type=float, default=0.05,
        help="base backoff delay in seconds (decorrelated jitter grows it)",
    )
    for fault in ("delay", "drop", "reset", "truncate", "corrupt"):
        load_p.add_argument(
            f"--fault-{fault}", type=float, default=0.0, metavar="RATE",
            help=f"per-frame {fault} probability via an in-process chaos proxy",
        )
    load_p.add_argument(
        "--fault-delay-s", type=float, default=0.002,
        help="seconds each delayed frame is held",
    )
    load_p.add_argument(
        "--fault-seed", type=int, default=0, help="fault-plan seed (deterministic)"
    )
    load_p.add_argument(
        "--report-interval", type=float, default=0.0,
        help="print a progress line every N seconds while replaying (0 = never)",
    )
    load_p.add_argument(
        "--arrival-rate", type=float, default=0.0, metavar="REQ_PER_S",
        help="open-loop mode: offer the trace at this fixed Poisson arrival "
        "rate and report latency-under-SLO (ignores --mode/--concurrency/"
        "--batch; measures from scheduled arrival, no coordinated omission)",
    )
    load_p.add_argument(
        "--burst", type=float, default=1.0,
        help="open-loop burstiness: mean arrivals per clump (1 = Poisson)",
    )
    load_p.add_argument(
        "--slo", type=float, default=0.0, metavar="MS",
        help="open-loop latency objective in milliseconds; the report "
        "counts violations against it (0 = report percentiles only)",
    )
    load_p.add_argument(
        "--slo-json", type=Path, default=None, metavar="FILE",
        help="also write the open-loop SLO report as JSON to FILE",
    )

    trace_p = sub.add_parser(
        "trace", help="summarize span NDJSON files (where p99 time goes)"
    )
    trace_p.add_argument(
        "paths", nargs="+", type=Path,
        help="span files written by repro.obs.tracing (one per process)",
    )
    trace_p.add_argument(
        "--tail", type=float, default=0.99,
        help="tail quantile whose traces get the per-op breakdown",
    )

    stats_p = sub.add_parser("stats", help="query a running server's metrics")
    stats_p.add_argument("--host", default="127.0.0.1")
    stats_p.add_argument("--port", type=int, default=7070)
    stats_p.add_argument(
        "--prom", action="store_true",
        help="print the raw Prometheus text exposition (METRICS op) instead "
        "of the formatted STATS snapshot",
    )
    stats_p.add_argument(
        "--watch", type=float, default=0.0, metavar="SECONDS",
        help="refresh every N seconds until interrupted (0 = one shot)",
    )
    stats_p.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-operation network deadline in seconds (0 = no deadline)",
    )
    return parser


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default="small",
        choices=["smoke", "small", "full"],
        help="experiment size (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed (default: 0)")
    parser.add_argument(
        "--workers", type=int, default=None, help="process-pool size (default: serial)"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="directory to write CSV results into"
    )
    parser.add_argument(
        "--fast", default="auto", choices=["auto", "on", "off"],
        help="vectorized kernel dispatch for kernel-aware experiments: "
        "auto = use one when eligible, on = require one (error if a "
        "policy has none), off = reference loop",
    )


def _run_one(experiment: str, args: argparse.Namespace) -> bool:
    """Run, print and save one experiment, then apply its ``check``.

    Prints one ``check failed: <ID>: <predicate>`` line on stderr per
    failed predicate and returns whether the table passed.
    """
    from repro.experiments.common import resolve_fast

    start = time.perf_counter()
    table = run_experiment(
        experiment,
        args.scale,
        seed=args.seed,
        workers=args.workers,
        fast=resolve_fast(args.fast),
    )
    elapsed = time.perf_counter() - start
    print(f"\n== {experiment} (scale={args.scale}, seed={args.seed}, {elapsed:.1f}s) ==")
    print(table.to_markdown())
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{experiment.lower()}_{args.scale}.csv"
        table.to_csv(path)
        print(f"wrote {path}")
    failed = get_check(experiment)(table)
    for predicate in failed:
        print(f"check failed: {experiment}: {predicate}", file=sys.stderr)
    return not failed


def _parse_stream_spec(spec: str, n_min: int, n_max: int, flag: str) -> list[float]:
    from repro.errors import ConfigurationError

    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if not n_min <= len(parts) <= n_max:
        raise ConfigurationError(f"bad {flag} value: {spec!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigurationError(f"bad {flag} value: {spec!r}") from None


def _stream_from_args(args: argparse.Namespace):
    """Build a TraceStream from --trace-file/--zipf/--uniform, or None."""
    chunk = getattr(args, "chunk", 1_000_000)
    if getattr(args, "trace_file", None) is not None:
        from repro.traces.streaming import open_trace_stream

        return open_trace_stream(args.trace_file, chunk=chunk)
    if getattr(args, "zipf", None) is not None:
        from repro.traces.streaming import ZipfTraceStream

        parts = _parse_stream_spec(args.zipf, 2, 3, "--zipf")
        alpha = parts[2] if len(parts) == 3 else 1.0
        return ZipfTraceStream(
            int(parts[0]), int(parts[1]), alpha=alpha, seed=args.seed, chunk=chunk
        )
    if getattr(args, "uniform", None) is not None:
        from repro.traces.streaming import UniformTraceStream

        parts = _parse_stream_spec(args.uniform, 2, 2, "--uniform")
        return UniformTraceStream(int(parts[0]), int(parts[1]), seed=args.seed, chunk=chunk)
    return None


def _max_rss_mb() -> float | None:
    try:
        import resource

        # ru_maxrss is KB on Linux, bytes on macOS
        raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return raw / 1024.0 if sys.platform != "darwin" else raw / (1024.0 * 1024.0)
    except Exception:  # pragma: no cover - resource missing off-POSIX
        return None


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.registry import make_policy
    from repro.experiments.common import resolve_fast
    from repro.sim.engine import run_policy

    trace = _stream_from_args(args)
    if trace is None:
        from repro.traces.io import load_trace

        trace = load_trace(args.trace)  # one chunk: no boundaries however large
    try:
        policy = make_policy(args.policy, args.capacity, seed=args.seed)
    except TypeError:
        # deterministic policies (lru, fifo, ...) take no seed argument
        policy = make_policy(args.policy, args.capacity)

    row = run_policy(
        policy, trace, fast=resolve_fast(args.fast), keep_hits=bool(args.window)
    )
    print(f"trace    : {trace!r}")
    print(f"policy   : {policy.name} (capacity {policy.capacity})")
    chunks = row["chunks"]
    print(f"accesses : {row['accesses']}  ({chunks} chunk{'s' * (chunks != 1)})")
    print(f"misses   : {row['misses']}  (rate {row['miss_rate']:.4f})")
    print(
        f"seconds  : {row['seconds']:.2f}  "
        f"({row['accesses'] / max(row['seconds'], 1e-9):,.0f}/s)"
    )
    rss = _max_rss_mb()
    if rss is not None:
        print(f"peak RSS : {rss:,.0f} MB")
    if args.window:
        from repro.core.base import SimResult
        from repro.viz import sparkline

        result = SimResult(row["hits"], policy=policy.name, capacity=policy.capacity)
        series = result.windowed_miss_rate(args.window)
        print(f"windowed : [{sparkline(series, lo=0.0)}]  (window={args.window})")
    return 0


def _cmd_mrc(args: argparse.Namespace) -> int:
    from repro.analysis.mrc import exact_lru_mrc, sampled_lru_mrc
    from repro.errors import ConfigurationError
    from repro.traces.io import load_trace

    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad --sizes value: {args.sizes!r}") from exc
    trace = load_trace(args.trace)
    if args.shards is not None:
        curve = sampled_lru_mrc(trace, sizes, rate=args.shards, seed=args.seed)
        kind = f"SHARDS rate={args.shards}"
    else:
        curve = exact_lru_mrc(trace, sizes)
        kind = "exact"
    print(f"LRU miss-rate curve ({kind}) for {trace}")
    for size, rate in zip(sizes, curve.tolist()):
        print(f"  size {size:>10,d} : {rate:.4f}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.analysis.characterize import characterize, footprint_curve
    from repro.traces.io import load_trace
    from repro.viz import sparkline

    trace = load_trace(args.trace)
    report = characterize(trace, windows=args.windows)
    print(f"profile of {trace}")
    for key, value in report.items():
        print(f"  {key:24s} {value:,.4g}" if isinstance(value, float) else f"  {key:24s} {value:,}")
    window = max(1, len(trace) // args.windows)
    curve = footprint_curve(trace, window=window)
    print(f"  footprint/window         [{sparkline(curve.astype(float), lo=0.0)}]")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.traces.npt import NptTraceStream, write_npt
    from repro.traces.streaming import open_trace_stream

    stream = open_trace_stream(args.input, chunk=args.chunk)
    path = write_npt(stream, args.output, chunk=args.chunk)
    out = NptTraceStream(path)
    size = path.stat().st_size
    print(
        f"wrote {path}: {out.length:,} accesses in {out.num_chunks} chunks "
        f"({size / 1e6:,.1f} MB, {8.0 * size / max(out.length, 1):.2f} bits/access)"
    )
    return 0


def _cmd_policies() -> int:
    from repro.core.registry import describe_policies

    rows = describe_policies()
    width = max(len(name) for name, _ in rows)
    for name, signature in rows:
        print(f"{name:<{width}}  {signature}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from repro.service.loop import install_best_event_loop
    from repro.service.protocol import FRAMES
    from repro.service.server import CacheServer
    from repro.service.sharding import ShardedPolicyStore

    frames = FRAMES if args.frame == "auto" else (args.frame,)

    async def _log_stats(store: "ShardedPolicyStore", interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            snap = await store.stats()
            print(
                f"stats: accesses={snap['accesses']} "
                f"hit_rate={snap['hit_rate']:.4f} "
                f"resident={snap['resident']}/{snap['capacity']} "
                f"conns={snap['connections_open']} errors={snap['errors']}",
                flush=True,
            )

    async def _serve() -> None:
        store = ShardedPolicyStore.build(
            args.policy,
            args.capacity,
            shards=args.shards,
            seed=args.seed,
            batch_kernel=not args.no_batch_kernel,
        )
        server = CacheServer(
            store,
            host=args.host,
            port=args.port,
            max_connections=args.max_connections or None,
            max_inflight=args.max_inflight,
            write_timeout=args.write_timeout or None,
            frames=frames,
        )
        await server.start()
        exporter = None
        if args.metrics_port:
            from repro.obs.httpexpo import MetricsExporter

            exporter = MetricsExporter(
                store.metrics_text, host=args.host, port=args.metrics_port
            )
            await exporter.start()
        stats_task = (
            asyncio.create_task(_log_stats(store, args.stats_interval))
            if args.stats_interval > 0
            else None
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        print(
            f"serving {store.shards[0].policy.name} "
            f"(capacity {store.capacity}, {store.num_shards} shard"
            f"{'s' if store.num_shards != 1 else ''}, "
            f"frames {'/'.join(frames)}) "
            f"on {args.host}:{server.port} — Ctrl-C to stop",
            flush=True,
        )
        if exporter is not None:
            print(
                f"metrics on http://{args.host}:{exporter.port}/metrics", flush=True
            )
        try:
            await stop.wait()
        finally:
            if stats_task is not None:
                stats_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await stats_task
            if exporter is not None:
                await exporter.stop()
            await server.stop()
            snap = await store.stats()
            print(
                f"\nstopped after {snap['uptime_s']}s: {snap['accesses']} accesses, "
                f"hit rate {snap['hit_rate']:.4f}, {snap['errors']} errors"
            )

    print(f"event loop: {install_best_event_loop()}", flush=True)
    asyncio.run(_serve())
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from repro.cluster.supervisor import ClusterSupervisor
    from repro.core.registry import policy_signature
    from repro.service.loop import install_best_event_loop
    from repro.service.protocol import FRAMES

    # an unknown name fails here, not in each spawned worker
    policy_signature(args.policy)
    frames = FRAMES if args.frame == "auto" else (args.frame,)

    async def _log_stats(supervisor: "ClusterSupervisor", interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            snap = await supervisor.stats()
            print(
                f"stats: accesses={snap['accesses']} "
                f"hit_rate={snap['hit_rate']:.4f} "
                f"resident={snap['resident']}/{snap['capacity']} "
                f"workers={snap['workers']} "
                f"conns={snap['connections_open']} errors={snap['errors']}",
                flush=True,
            )

    async def _serve() -> None:
        supervisor = ClusterSupervisor(
            args.policy,
            args.capacity,
            workers=args.workers,
            seed=args.seed,
            host=args.host,
            port=args.port,
            vnodes=args.vnodes,
            frames=frames,
            max_connections=args.max_connections or None,
            max_inflight=args.max_inflight,
            write_timeout=args.write_timeout or None,
            pool=args.pool,
            upstream_retries=args.upstream_retries,
            trace_dir=str(args.trace_dir) if args.trace_dir is not None else None,
            trace_sample=args.trace_sample,
            batch_kernel=not args.no_batch_kernel,
        )
        await supervisor.start()
        router = supervisor.router
        assert router is not None
        exporter = None
        if args.metrics_port:
            from repro.obs.httpexpo import MetricsExporter

            exporter = MetricsExporter(
                router.metrics_text, host=args.host, port=args.metrics_port
            )
            await exporter.start()
        stats_task = (
            asyncio.create_task(_log_stats(supervisor, args.stats_interval))
            if args.stats_interval > 0
            else None
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        print(
            f"cluster: {args.policy} (capacity {args.capacity}, "
            f"{args.workers} worker{'s' if args.workers != 1 else ''}, "
            f"frames {'/'.join(frames)}) "
            f"router on {args.host}:{supervisor.port} — Ctrl-C to stop",
            flush=True,
        )
        if exporter is not None:
            print(
                f"metrics on http://{args.host}:{exporter.port}/metrics", flush=True
            )
        snap = None
        try:
            await stop.wait()
        finally:
            if stats_task is not None:
                stats_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await stats_task
            if exporter is not None:
                await exporter.stop()
            with contextlib.suppress(Exception):
                snap = await supervisor.stats()
            await supervisor.stop(drain=args.drain or None)
            if snap is not None:
                print(
                    f"\nstopped after {snap['uptime_s']}s: "
                    f"{snap['accesses']} accesses, "
                    f"hit rate {snap['hit_rate']:.4f}, {snap['errors']} errors"
                )

    print(f"event loop: {install_best_event_loop()}", flush=True)
    asyncio.run(_serve())
    return 0


def _format_stats(snap: dict) -> str:
    """Render one STATS snapshot for terminal eyes."""
    lat = snap.get("latency", {})
    lines = [
        f"policy     : {snap.get('policy')} "
        f"(capacity {snap.get('capacity')}, resident {snap.get('resident')}, "
        f"evictions {snap.get('evictions')})",
        f"uptime     : {snap.get('uptime_s')}s",
        f"accesses   : {snap.get('accesses')}  (hit rate {snap.get('hit_rate', 0.0):.4f})",
        f"ops        : {snap.get('gets')} get / {snap.get('puts')} put / "
        f"{snap.get('dels')} del",
        f"errors     : {snap.get('errors')}  (rejected {snap.get('rejected')}, "
        f"write timeouts {snap.get('write_timeouts')})",
        f"conns      : {snap.get('connections_open')} open / "
        f"{snap.get('connections_total')} total",
    ]
    if "shards" in snap:
        per_shard = snap.get("per_shard", [])
        resident = "/".join(str(s.get("resident")) for s in per_shard)
        lines.append(f"shards     : {snap['shards']}  (resident {resident})")
    if "workers" in snap:
        per_worker = snap.get("per_worker", [])
        resident = "/".join(str(w.get("resident", "?")) for w in per_worker)
        lines.append(f"workers    : {snap['workers']}  (resident {resident})")
        router = snap.get("router", {})
        if router:
            lines.append(
                f"router     : {router.get('forwarded')} forwarded / "
                f"{router.get('fanouts')} fanouts / {router.get('local')} local"
                f"  (retries {router.get('upstream_retries')}, "
                f"timeouts {router.get('upstream_timeouts')}, "
                f"migrated {router.get('migrated_keys')})"
            )
    if "sink_occupancy" in snap:
        lines.append(f"sink occ.  : {snap['sink_occupancy']:.3f}")
    recent = snap.get("recent", {})
    if recent:
        lines.append(
            f"recent     : {recent.get('rate', 0.0):,.0f}/s over last "
            f"{recent.get('window_s')}s  p50 {recent.get('p50_us')}µs  "
            f"p99 {recent.get('p99_us')}µs  (n={recent.get('count')})"
        )
    if lat:
        lines.append(
            f"latency    : p50 {lat.get('p50_us')}µs  p99 {lat.get('p99_us')}µs  "
            f"max {lat.get('max_us')}µs  (n={lat.get('count')})"
        )
    for op, hist in sorted(snap.get("latency_by_op", {}).items()):
        lines.append(
            f"  {op:<9}: p50 {hist.get('p50_us')}µs  p99 {hist.get('p99_us')}µs  "
            f"max {hist.get('max_us')}µs  (n={hist.get('count')})"
        )
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.spans import format_summary, read_spans, stitch, summarize

    spans = read_spans(args.paths)
    if not spans:
        print("no span records found")
        return 1
    trees = stitch(spans)
    print(format_summary(summarize(spans, tail_quantile=args.tail)))
    if trees["orphans"] or trees["multi_root"]:
        print(
            f"\nWARNING: {len(trees['orphans'])} orphan spans, "
            f"{len(trees['multi_root'])} multi-root traces — "
            "span files are incomplete (missing a tier's file?)"
        )
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.client import ServiceClient

    async def _fetch() -> str:
        async with await ServiceClient.connect(
            args.host, args.port, timeout=args.timeout or None
        ) as client:
            if args.prom:
                return await client.metrics()
            return _format_stats(await client.stats())

    try:
        while True:
            print(asyncio.run(_fetch()), flush=True)
            if not args.watch:
                return 0
            time.sleep(args.watch)
            print()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.service.loadgen import run_replay
    from repro.service.loop import install_best_event_loop

    def _parse_spec(spec: str, n_min: int, n_max: int, flag: str) -> list[float]:
        parts = [p.strip() for p in spec.split(",") if p.strip()]
        if not n_min <= len(parts) <= n_max:
            raise ConfigurationError(f"bad {flag} value: {spec!r}")
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise ConfigurationError(f"bad {flag} value: {spec!r}") from None

    if args.trace_file is not None:
        from repro.traces.streaming import open_trace_stream

        trace = open_trace_stream(args.trace_file, chunk=args.chunk)
    elif args.trace is not None:
        from repro.traces.io import load_trace

        trace = load_trace(args.trace)
    elif args.zipf is not None:
        from repro.traces.synthetic import zipf_trace

        parts = _parse_spec(args.zipf, 2, 3, "--zipf")
        alpha = parts[2] if len(parts) == 3 else 1.0
        trace = zipf_trace(int(parts[0]), int(parts[1]), alpha=alpha, seed=args.seed)
    else:
        from repro.traces.synthetic import uniform_trace

        parts = _parse_spec(args.uniform, 2, 2, "--uniform")
        trace = uniform_trace(int(parts[0]), int(parts[1]), seed=args.seed)

    retry = None
    if args.retries > 0:
        from repro.service.client import RetryPolicy

        retry = RetryPolicy(
            max_attempts=args.retries + 1, base_delay=args.retry_base, seed=args.seed
        )
    faults = None
    fault_rates = {
        name: getattr(args, f"fault_{name}")
        for name in ("delay", "drop", "reset", "truncate", "corrupt")
    }
    if any(fault_rates.values()):
        from repro.service.faults import FaultPlan

        faults = FaultPlan(
            seed=args.fault_seed,
            delay_s=args.fault_delay_s,
            **{f"{name}_rate": rate for name, rate in fault_rates.items()},
        )

    if args.arrival_rate > 0:
        import json

        from repro.service.openloop import run_open_loop

        print(
            f"offering {trace} to {args.host}:{args.port} at "
            f"{args.arrival_rate:,.0f} req/s (open loop) ..."
        )
        print(f"event loop: {install_best_event_loop()}", flush=True)
        slo_report = run_open_loop(
            trace,
            host=args.host,
            port=args.port,
            rate=args.arrival_rate,
            burst=args.burst,
            connections=max(1, args.connections),
            frame=args.frame,
            slo_ms=args.slo or None,
            timeout=args.timeout or None,
            seed=args.seed,
        )
        print(slo_report.summary())
        if args.slo_json is not None:
            args.slo_json.write_text(json.dumps(slo_report.as_dict(), indent=2) + "\n")
            print(f"wrote {args.slo_json}")
        return 0 if slo_report.lag_ok else 1

    print(f"replaying {trace} against {args.host}:{args.port} ...")
    print(f"event loop: {install_best_event_loop()}", flush=True)
    report = run_replay(
        trace,
        host=args.host,
        port=args.port,
        mode=args.mode,
        concurrency=args.concurrency,
        batch=args.batch,
        connections=args.connections,
        frame=args.frame,
        timeout=args.timeout or None,
        retry=retry,
        faults=faults,
        report_interval=args.report_interval or None,
    )
    print(report.summary())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # a typed library error (unknown policy, malformed trace, no
        # eligible kernel, ...): one line for the user, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for exp_id in available_experiments():
            print(exp_id)
        return 0
    if args.command == "run":
        return 0 if _run_one(args.experiment, args) else 1
    if args.command == "run-all":
        passed = [_run_one(exp_id, args) for exp_id in available_experiments()]
        return 0 if all(passed) else 1
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "convert":
        return _cmd_convert(args)
    if args.command == "mrc":
        return _cmd_mrc(args)
    if args.command == "characterize":
        return _cmd_characterize(args)
    if args.command == "policies":
        return _cmd_policies()
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "stats":
        return _cmd_stats(args)
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
