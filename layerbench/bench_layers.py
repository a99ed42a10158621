#!/usr/bin/env python3
"""Layer-ledger benchmark: five named workloads, end-to-end and per-layer metrics.

Run from the repository root; ``src/`` is put on the import path, so no
install is needed::

    python3 layerbench/bench_layers.py --workload sim-hot --seed 1 --seconds 10 --trace 0
    python3 layerbench/bench_layers.py --workload serve-get --trace 1   # per-layer ledger
    python3 layerbench/bench_layers.py                  # all five workloads, untraced
    python3 layerbench/bench_layers.py --smoke          # all five, untraced and traced, fast
    python3 layerbench/bench_layers.py collect --runs 10 --out A.json
    python3 layerbench/bench_layers.py compare A.json B.json

A single-workload run prints its metrics by name and unit, then, as the
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0`` and the per-layer
ledger (:mod:`ledger`) with ``--trace 1``. Every run checks the
program's outputs and exits 1 with ``correct: false`` when a check
fails. README.md lists the metrics, why each workload exists, and which
layer should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import _harness as H  # noqa: E402

try:
    import numpy as np

    import ledger
    import serving as S
    import workloads as W
    from repro.service.store import BATCH_KERNEL_MIN
    from repro.sim.engine import run_policy_stream
    from repro.traces.npt import NptTraceStream
    from repro.traces.streaming import ArrayTraceStream
except ImportError as exc:  # the program under test is not next to the benchmark
    raise SystemExit(f"bench_layers: cannot import the program under test: {exc}")

RESULTS = HERE / "results"


def _split_setup(plan: W.Plan) -> tuple[int, int]:
    """Set-up samples taken before and after the measured process's own one,
    so that they straddle the measured window instead of one moment of it."""
    before = (plan.setup_samples - 1) // 2
    return before, plan.setup_samples - 1 - before


# -- simulator workloads --------------------------------------------------------

def _spawn_sim_child(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start ``sim_child.py``; return it, and the seconds it took, once it is READY."""
    t0 = time.perf_counter()
    proc = H.spawn([str(HERE / "sim_child.py"), *args], cwd=ROOT, env=W.child_env())
    line = H.read_line(proc, timeout=120.0)
    if line.strip() != "READY":
        H.stop_process(proc)
        raise RuntimeError(f"sim child did not get ready: {line!r}")
    return proc, time.perf_counter() - t0


def _sim_setup_samples(path: Path, n: int) -> list[float]:
    out = []
    for _ in range(n):
        proc, t = _spawn_sim_child([str(path), "--setup-only"])
        try:
            proc.communicate(timeout=60)
        finally:
            H.stop_process(proc)
        out.append(t)
    return out


def run_sim(w: W.Workload, seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    plan = W.plan_for(smoke)
    path = W.input_trace(w, seed, smoke)
    before, after = _split_setup(plan)
    setup = _sim_setup_samples(path, before)
    proc, t = _spawn_sim_child([str(path), "--seconds", str(seconds),
                                "--min-passes", str(plan.min_passes)])
    setup.append(t)
    try:
        out, _ = proc.communicate(timeout=seconds + 150)
    finally:
        H.stop_process(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"sim child exited with {proc.returncode}")
    setup += _sim_setup_samples(path, after)
    report = json.loads(out.decode().strip().splitlines()[-1])
    passes = report["passes"]
    rates = [sum(r["accesses"] for r in p.values()) / sum(r["seconds"] for r in p.values())
             for p in passes]
    misses = {name: r["misses"] for name, r in passes[0].items()}
    accesses = sum(r["accesses"] for r in passes[0].values())
    pooled = sorted(ms for steps in report["steps_ms"].values() for ms in steps)

    checks = {"misses identical on every pass": all(
        p[name]["misses"] == misses[name] for p in passes for name in misses
    )}
    pins = json.loads((HERE / "pins.json").read_text()).get(w.name)
    if seed == 1 and not smoke and pins:
        checks["seed-1 misses match pins.json"] = misses == pins
    checks.update(_reference_check(path, w.chunk_for(smoke), plan.prefix))
    return {
        "metrics": {
            "setup_s": (statistics.median(setup), "s"),
            "miss_rate": (sum(misses.values()) / accesses, "fraction"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        },
        "reported": {
            "ops_per_s": (statistics.median(rates), "1/s"),
            "p50_ms": (W.chunk_p50(report["steps_ms"]), "ms"),
            "p99_ms": (H.percentile(pooled, 0.99), "ms"),
            "error_frac": (0.0, "fraction"),
        },
        "samples": {"setup_s": setup, "ops_per_s": rates},
        "checks": checks,
        "attempted": sum(r["accesses"] for p in passes for r in p.values()),
        "failed": 0,
        "notes": [
            f"  per-policy misses per pass: {json.dumps(misses)}",
            f"  {len(passes)} passes x 4 policies; ops_per_s = accesses / run_policy_stream "
            "seconds per pass; p50 = the median policy's median chunk step; "
            f"p99 over all {len(pooled)} chunk steps",
        ],
    }


def _reference_check(path: Path, chunk: int, prefix_len: int) -> dict[str, bool]:
    """Streamed fast-kernel hits on a prefix equal the reference loop's."""
    prefix = NptTraceStream(path).materialize(prefix_len).pages
    ok = True
    for (_, fast_policy), (_, ref_policy) in zip(W.sim_policies(), W.sim_policies()):
        fast = run_policy_stream(fast_policy, ArrayTraceStream(prefix, chunk=chunk), keep_hits=True)
        ok = ok and np.array_equal(fast["hits"], ref_policy.run(prefix, fast=False).hits)
    return {f"{prefix.size}-access prefix equals the reference loop (fast=False)": ok}


# -- serving workloads ------------------------------------------------------------

async def run_serve(w: W.Workload, seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    plan = W.plan_for(smoke)
    keys = NptTraceStream(W.input_trace(w, seed, smoke)).materialize().pages
    layout = W.BatchLayout(w, seed, keys) if w.kind == "batch" else None
    n_before, n_after = _split_setup(plan)
    setup = await S.setup_samples(w, n_before)
    server = S.ServerProcess(S.server_argv(w))
    try:
        setup.append(await server.start())
        before = await server.client.stats()
        if layout is not None:
            out = await S.measure_batch(server, layout, 0.9 * seconds, plan)
        else:
            out = await S.measure_get(server, w, seed, keys.tolist(), 0.9 * seconds, plan)
        after = await server.client.stats()
        rss = server.peak_rss_mb()
    finally:
        await server.stop()
    setup += await S.setup_samples(w, n_after)
    delta = {k: after.get(k, 0) - before.get(k, 0)
             for k in ("accesses", "hits", "errors", "kernel_batches")}
    checks = {
        "no request failed": out["errors"] == 0,
        "STATS accesses delta equals keys sent": delta["accesses"] == out["sent"],
        "STATS hits delta equals client-observed hits": delta["hits"] == out["hits"],
        "server counted no errors": delta["errors"] == 0,
    }
    if layout is not None:
        sent = layout.keys_of_first(out["pos"])
        checks["served hits equal make_policy('heatsink', 1024, seed=1).run(keys), hit for hit"] = (
            np.array_equal(np.asarray(out["served"], dtype=bool), W.serve_policy().run(sent).hits)
        )
        big = int((layout.sizes[: out["pos"]] >= BATCH_KERNEL_MIN).sum())
        checks[f"STATS kernel_batches delta equals requests of >= {BATCH_KERNEL_MIN} keys"] = (
            delta["kernel_batches"] == big
        )
    return {
        "metrics": {
            "setup_s": (statistics.median(setup), "s"),
            "miss_rate": (out["miss_rate"], "fraction"),
            "peak_rss_mb": (rss, "MB"),
        },
        "reported": {
            "ops_per_s": (statistics.median(out["rates"]), "1/s"),
            "p50_ms": (out["p50_ms"], "ms"),
            "p99_ms": (out["p99_ms"], "ms"),
            "error_frac": (out["errors"] / out["sent"], "fraction"),
        },
        "samples": {"setup_s": setup, "ops_per_s": out["rates"]},
        "checks": checks,
        "attempted": out["sent"],
        "failed": out["errors"],
        "notes": out["notes"],
    }


# -- one workload -------------------------------------------------------------------

def _samples_note(out: dict[str, Any], name: str) -> str:
    values = out.get("samples", {}).get(name, ())
    if len(values) < 2:
        return ""
    return f"median of {len(values)} [{min(values):.6g}, {max(values):.6g}]"


def run_workload(args: argparse.Namespace) -> int:
    w = W.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    if args.trace:
        out = ledger.run(w, args.seed, args.seconds, args.smoke, RESULTS)
    elif w.kind == "sim":
        out = run_sim(w, args.seed, args.seconds, args.smoke)
    else:
        out = asyncio.run(run_serve(w, args.seed, args.seconds, args.smoke))
    correct = all(out["checks"].values())
    mode = "per-layer ledger (traced)" if args.trace else "end to end"
    print(f"{w.name} seed={args.seed} seconds={args.seconds:g} {mode}: {w.why}")
    for line in out["notes"]:
        print(line)
    for name, (value, unit) in out["metrics"].items():
        print(H.metric_line(name, value, unit, _samples_note(out, name)))
    for name, (value, unit) in out.get("reported", {}).items():
        print(H.metric_line(name, value, unit, "reported, not gated. " + _samples_note(out, name)))
    for check, ok in out["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {check}")
    print(f"  wall {time.perf_counter() - t0:.1f}s")
    print(H.result_line(correct=correct, attempted=out["attempted"], failed=out["failed"],
                        metrics=out["metrics"]), flush=True)
    return 0 if correct else 1


# -- collect and compare -----------------------------------------------------------

def _run_child(argv: list[str], timeout: float) -> tuple[dict[str, Any] | None, str]:
    """Run one workload in a subprocess; return its result line and its output."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        capture_output=True, text=True, cwd=ROOT, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.stdout + proc.stderr
    except (IndexError, json.JSONDecodeError):
        return None, proc.stdout + proc.stderr


def _workload_argv(name: str, seed: int, args: argparse.Namespace, trace: int) -> list[str]:
    return ["--workload", name, "--seed", str(seed), "--seconds", str(args.seconds),
            "--trace", str(trace)] + (["--smoke"] if args.smoke else [])


def collect(args: argparse.Namespace) -> int:
    """Run each workload ``--runs`` times with seeds ``seed, seed+1, ...`` and
    save every result line (the input of ``compare``)."""
    results: dict[str, list[dict[str, Any]]] = {name: [] for name in W.WORKLOADS}
    ok = True
    for name, runs in results.items():
        for seed in range(args.seed, args.seed + args.runs):
            result, text = _run_child(_workload_argv(name, seed, args, args.trace),
                                      timeout=args.seconds + 900)
            passed = result is not None and result["correct"]
            print(f"{name} seed {seed}: {'ok' if passed else 'FAILED'}", flush=True)
            if not passed:
                ok = False
                print(text.rstrip(), flush=True)
            if result is not None:
                runs.append({"seed": seed, **result})
    Path(args.out).write_text(json.dumps(
        {"provenance": H.provenance(ROOT), "seconds": args.seconds, "trace": args.trace,
         "results": results}, indent=1))
    print(f"wrote {args.out}")
    return 0 if ok else 1


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(q: tuple[float, float, float]) -> float:
    """IQR as a share of the median."""
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def _verdict(a: list[float], b: list[float], bound: float | None, lower: bool) -> str:
    """B against A, runs paired in order (same seeds), by choosing-metrics §6-§8.

    *better*: B wins at least 9/10 of the pairs and the medians differ by
    more than A's IQR. Without a bound (a per-layer metric) *worse* is the
    mirror of that and anything else is *no change shown*. With a bound:
    *unresolved* when either side's spread exceeds it and B does not beat
    every run of A; else *worse* when B's median is worse by more than the
    bound; else *same*.
    """
    aq, bq = _quartiles(a), _quartiles(b)
    pairs = list(zip(a, b))
    wins = sum((y < x) if lower else (y > x) for x, y in pairs)
    losses = sum((y > x) if lower else (y < x) for x, y in pairs)
    clear = abs(bq[1] - aq[1]) > aq[2] - aq[0]
    change = (bq[1] - aq[1]) / abs(aq[1]) if aq[1] else 0.0  # of B's median, signed
    worse_by = change if lower else -change
    if wins >= 0.9 * len(pairs) and clear:
        return f"better (median {change:+.1%})"
    if bound is None:
        if losses >= 0.9 * len(pairs) and clear:
            return f"worse (median {change:+.1%})"
        return f"no change shown (median {change:+.1%})"
    b_beats_all = max(b) < min(a) if lower else min(b) > max(a)
    if max(_spread(aq), _spread(bq)) > bound and not b_beats_all:
        return f"unresolved (spread > bound; median {change:+.1%})"
    if worse_by > bound:
        return f"worse (median {change:+.1%})"
    return f"same (median {change:+.1%}, within bound)"


def compare(args: argparse.Namespace) -> int:
    """One row per workload x metric: each side's median and quartiles, the
    spread (IQR / median) and a verdict against the bound in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a_doc = json.loads(Path(args.a).read_text())["results"]
    b_doc = json.loads(Path(args.b).read_text())["results"]
    print(f"{'workload':<14} {'metric':<40} {'A median [q1, q3]':>36} "
          f"{'B median [q1, q3]':>36} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for workload, a_runs in a_doc.items():
        b_runs = b_doc.get(workload) or []
        if not a_runs or not b_runs:
            continue
        for name, meta in metrics.items():
            a = [r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            if not a or not b:
                continue
            aq, bq = _quartiles(a), _quartiles(b)
            bound = meta.get("bound")
            verdict = _verdict(a, b, bound, meta["better"] == "lower")
            print(f"{workload:<14} {name:<40} "
                  f"{f'{aq[1]:.6g} [{aq[0]:.5g}, {aq[2]:.5g}]':>36} "
                  f"{f'{bq[1]:.6g} [{bq[0]:.5g}, {bq[2]:.5g}]':>36} "
                  f"{_spread(aq):>9.4f} {_spread(bq):>9.4f} "
                  f"{'-' if bound is None else bound:>6}  {verdict}")
    return 0


# -- entry point -------------------------------------------------------------------

def run_all(args: argparse.Namespace) -> int:
    """Every workload once; with --smoke, the traced ledger of each as well."""
    ok = True
    for trace in (0, 1) if args.smoke else (args.trace,):
        for name in W.WORKLOADS:
            result, text = _run_child(_workload_argv(name, args.seed, args, trace),
                                      timeout=args.seconds + 900)
            print(text.rstrip(), flush=True)
            ok = ok and result is not None and result["correct"]
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench_layers.py compare")
        parser.add_argument("a", help="result file of the parent (collect --out)")
        parser.add_argument("b", help="result file of the change")
        return compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    command = None
    if argv[:1] == ["collect"]:
        argv = argv[1:]
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--out", required=True, help="write every result line here")
        command = collect
    else:
        parser.add_argument("--workload", choices=sorted(W.WORKLOADS), default=None,
                            help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default 10; 0.5 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1],
                        help="1 = the traced per-layer ledger instead of end-to-end metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and short runs")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else 10.0
    if command is not None:
        return command(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
