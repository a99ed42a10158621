"""The simulator workloads' process under test, started fresh by ``bench_layers.py``.

It imports only the workload definitions and the program's simulator, so
the parent's set-up clock (spawn until ``READY``) times the interpreter,
``import repro``, opening the ``NptTraceStream`` and building the four
policies. After ``READY`` it replays all four policies pass after pass for
``--seconds`` (at least ``--min-passes`` times) and prints one JSON line.
With ``--setup-only`` it exits right after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent)]

import _harness as H  # noqa: E402
import workloads as W  # noqa: E402
from repro.traces.npt import NptTraceStream  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trace", type=Path, help="the workload's .npt input")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-passes", type=int, default=3)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    stream = NptTraceStream(args.trace)
    policies = W.sim_policies()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    passes: list[dict[str, dict[str, float]]] = []
    steps_ms: dict[str, list[float]] = {name: [] for name, _ in policies}
    start = time.perf_counter()
    while True:
        passes.append(
            {name: W.timed_stream_run(p, stream, steps_ms[name]) for name, p in policies}
        )
        if len(passes) >= args.min_passes and time.perf_counter() - start >= args.seconds:
            break
        policies = W.sim_policies()
    print(json.dumps({"passes": passes, "steps_ms": steps_ms, "peak_rss_mb": H.self_vmhwm_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
