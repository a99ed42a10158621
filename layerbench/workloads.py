"""The five named workloads, their generated inputs, and the simulator passes.

Inputs are made from ``--seed`` only (same seed, same inputs) and cached as
``.npt`` files under ``layerbench/.cache/``. The program under test only
ever sees those generated traces, as files or as requests. This module
imports only the simulator side of the program, because the simulator
child (``sim_child.py``) imports it inside the set-up time it measures.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.registry import make_policy
from repro.rng import derive_seed
from repro.sim.engine import run_policy_stream
from repro.traces.npt import NptWriter
from repro.traces.streaming import ZipfTraceStream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"

#: cache slots of every simulated and served policy
CAPACITY = 1024
#: policy seed; inputs vary with --seed, the program's own coins do not
POLICY_SEED = 1
#: the four simulated policies: heat-sink vs d=2 two-choice vs d=8 set-associative
SIM_POLICIES: tuple[tuple[str, dict[str, Any]], ...] = (
    ("heatsink", {"sink_prob": 0.25}),
    ("2-lru", {}),
    ("2-random", {}),
    ("set-assoc", {"d": 8}),
)
#: serve-batch request sizes (drawn uniformly) and the MGET share of requests
BATCH_SIZES = (16, 64, 256, 1024)
MGET_SHARE = 0.8

Request = tuple[str, list[int], "list[int] | None"]  # (op, keys, values)


@dataclass(frozen=True)
class Workload:
    """One named input set: ``length`` accesses, Zipf(``alpha``) over ``pages``."""

    name: str
    kind: str  # "sim", "get" (one server process), "batch", "cluster"
    pages: int
    alpha: float
    length: int
    chunk: int  # accesses per stored .npt chunk, which is the sim replay chunk
    smoke_length: int
    why: str

    def size(self, smoke: bool) -> int:
        return self.smoke_length if smoke else self.length

    def chunk_for(self, smoke: bool) -> int:
        return min(self.chunk, self.size(smoke))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sim-hot", "sim", 512, 1.0, 10_000_000, 1_000_000, 1_000_000,
            "hit path: decode, prefetch, token_space, probe and the tracelevel scan do the work",
        ),
        Workload(
            "sim-turnover", "sim", 16_384, 0.6, 500_000, 125_000, 200_000,
            "miss path: every probe hands its chunk to the per-access kernels; no scan",
        ),
        Workload(
            "serve-get", "get", 8_192, 1.0, 400_000, 1_000_000, 60_000,
            "per-request costs: framing, codec, server pump, store lock, one policy.access",
        ),
        Workload(
            "serve-batch", "batch", 8_192, 1.0, 3_000_000, 1_000_000, 100_000,
            "batch path: MGET/MPUT of 16-1024 keys through batch_hits and put_many",
        ),
        Workload(
            "serve-cluster", "cluster", 8_192, 1.0, 300_000, 1_000_000, 60_000,
            "router hop: the only workload through cluster.router, link and ring",
        ),
    )
}


@dataclass(frozen=True)
class Plan:
    """Run-shape settings that differ between a full run and ``--smoke``."""

    setup_samples: int  # set-ups per run, half before and half after the measured window
    min_passes: int
    get_pass: int  # GETs per closed-loop pass against one server process
    cluster_pass: int  # GETs per closed-loop pass through the router
    batch_pass: int  # requests per serve-batch pass
    warmup: int  # keys sent before timing starts
    open_segment_s: float  # seconds per open-loop segment
    prefix: int  # accesses of each sim trace checked against the reference loop
    peel_keys: int  # GET keys driven through each layer by the ledger
    peel_requests: int  # batch requests driven through each layer by the ledger


FULL = Plan(setup_samples=9, min_passes=3, get_pass=5_000, cluster_pass=2_500,
            batch_pass=50, warmup=20_000, open_segment_s=0.5, prefix=1 << 18,
            peel_keys=10_000, peel_requests=40)
SMOKE = Plan(setup_samples=1, min_passes=1, get_pass=3_000, cluster_pass=2_000,
             batch_pass=20, warmup=1_000, open_segment_s=0.25, prefix=1 << 16,
             peel_keys=1_000, peel_requests=6)


def plan_for(smoke: bool) -> Plan:
    return SMOKE if smoke else FULL


def sim_policies() -> list[tuple[str, Any]]:
    """Fresh instances of the four simulated policies (``reset`` keeps the
    coin stream where it was, so every pass builds new ones)."""
    return [
        (name, make_policy(name, CAPACITY, seed=POLICY_SEED, **kw)) for name, kw in SIM_POLICIES
    ]


def serve_policy():
    """The served policy exactly as the ``serve`` CLI builds it."""
    return make_policy("heatsink", CAPACITY, seed=POLICY_SEED)


def input_trace(w: Workload, seed: int, smoke: bool) -> Path:
    """The workload's generated ``.npt`` input, cached by (workload, seed, size).

    ``seed`` draws the access sequence. Which page holds which popularity
    rank is fixed per workload: reshuffling it per seed would move hot pages
    into and out of conflicting sets and bins, and with them the miss count
    and the cost of a run, so seeds would differ by more than sampling.
    """
    length = w.size(smoke)
    path = CACHE / f"{w.name}-seed{seed}-n{length}.npt"
    if path.exists():
        path.touch()
        return path
    CACHE.mkdir(parents=True, exist_ok=True)
    chunk = w.chunk_for(smoke)
    ranks = ZipfTraceStream(w.pages, length, alpha=w.alpha, seed=derive_seed(seed, w.name),
                            shuffle_ranks=False, chunk=chunk)
    page_of_rank = np.random.default_rng(derive_seed(0, w.name, "pages")).permutation(w.pages)
    tmp = path.with_name(path.name + ".tmp")
    with NptWriter(tmp, name=w.name, params=dict(ranks.params)) as writer:
        for block in ranks.chunks():
            writer.append(page_of_rank[block])
    tmp.replace(path)
    # keep the cache small: the three most recently used inputs per workload
    for stale in sorted(CACHE.glob(f"{w.name}-seed*.npt"), key=lambda p: p.stat().st_mtime)[:-3]:
        stale.unlink()
    return path


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts: the checkout's
    ``src`` first on the path, temporary files kept inside the checkout."""
    tmp = CACHE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    extra = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": str(SRC) + (os.pathsep + extra if extra else ""),
        "TMPDIR": str(tmp),
    }


class BatchLayout:
    """serve-batch's requests: 80% MGET / 20% MPUT, sizes uniform over
    ``BATCH_SIZES``, consuming the key trace in order. Kept as arrays;
    :meth:`requests` builds the Python request lists a slice at a time."""

    def __init__(self, w: Workload, seed: int, keys: np.ndarray):
        rng = np.random.default_rng(derive_seed(seed, w.name, "layout"))
        most = keys.size // min(BATCH_SIZES)
        sizes = rng.choice(np.asarray(BATCH_SIZES), size=most)
        mget = rng.random(most) < MGET_SHARE
        ends = np.cumsum(sizes)
        n = int(np.searchsorted(ends, keys.size, side="right"))
        self.keys = keys
        self.sizes, self.mget, self.ends = sizes[:n], mget[:n], ends[:n]

    def __len__(self) -> int:
        return len(self.sizes)

    def requests(self, lo: int, hi: int) -> list[Request]:
        out: list[Request] = []
        for i in range(lo, hi):
            keys = self.keys[self.ends[i] - self.sizes[i] : self.ends[i]].tolist()
            # an MPUT's payload is the key itself
            out.append(("MGET", keys, None) if self.mget[i] else ("MPUT", keys, keys))
        return out

    def keys_of_first(self, n: int) -> np.ndarray:
        """Every key the first ``n`` requests carry, in order."""
        return self.keys[: self.ends[n - 1]] if n else self.keys[:0]


# -- simulator passes, shared by the untraced run and the traced ledger -------------

def timed_stream_run(policy, stream, steps_ms: list[float]) -> dict[str, float]:
    """``run_policy_stream``, also recording the wall time of each chunk step."""
    step = policy.run

    def timed(chunk, **kwargs):
        t0 = time.perf_counter_ns()
        result = step(chunk, **kwargs)
        steps_ms.append((time.perf_counter_ns() - t0) / 1e6)
        return result

    policy.run = timed  # an instance attribute: kernel dispatch still sees the class
    try:
        row = run_policy_stream(policy, stream)
    finally:
        del policy.run
    return {"accesses": row["accesses"], "misses": row["misses"], "seconds": row["seconds"]}


def chunk_p50(steps_ms: dict[str, list[float]]) -> float:
    """Median of each policy's median chunk step. The four policies differ in
    speed, so a pooled median would jump between their modes."""
    return statistics.median(statistics.median(v) for v in steps_ms.values())
