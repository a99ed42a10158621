"""Experiment HEAT-DISSIPATION — watching the cache cool (Part 2, Lemma 7).

**Paper claim (narrative + Lemma 7).** Under 2-RANDOM, a bad placement
(into a hot slot) is short-lived and a good placement (into a cold slot)
is long-lived, so load migrates away from hot spots; per-page miss counts
within a phase are dominated by a geometric random variable. Under
2-LRU, the deterministic recency dance can pin contention in place
forever.

**What we measure.** On the Theorem-2 contention workload:

- **timeline rows** — windowed miss rate and eviction concentration
  (Gini, top-1%-slot share) for 2-LRU vs 2-RANDOM: 2-RANDOM's miss rate
  decays toward zero window over window (cooling); 2-LRU's stays flat
  (melting);
- **tail rows** — the distribution ``Pr[per-page misses > i]`` in the
  post-populate suffix for both policies: geometric-looking decay for
  2-RANDOM, a heavy cluster of perpetually-missing pages for 2-LRU.
"""

from __future__ import annotations

import numpy as np

from repro.core.assoc.d_lru import PLruCache
from repro.core.assoc.d_random import DRandomCache
from repro.experiments.common import pick_scale, predicates
from repro.rng import SeedLike, derive_seed
from repro.sim.results import ResultsTable
from repro.traces.adversarial import build_theorem2_sequence
from repro.traces.base import Trace

__all__ = ["run", "check", "EXPERIMENT_ID"]

EXPERIMENT_ID = "HEAT-DISSIPATION"

_SCALES = {
    "smoke": {"n": 1024, "rounds": 24, "windows": 6, "tail_max": 8},
    "small": {"n": 4096, "rounds": 48, "windows": 8, "tail_max": 12},
    "full": {"n": 8192, "rounds": 96, "windows": 12, "tail_max": 16},
}


def _per_page_miss_tail(trace_suffix: np.ndarray, hits_suffix: np.ndarray, max_i: int) -> np.ndarray:
    """``Pr[per-page miss count > i]`` over pages accessed in the suffix."""
    pages = trace_suffix[~hits_suffix]
    if pages.size == 0:
        return np.zeros(max_i + 1)
    _, counts = np.unique(pages, return_counts=True)
    all_pages = np.unique(trace_suffix)
    # pages with zero misses count toward the denominator
    tail = np.empty(max_i + 1)
    for i in range(max_i + 1):
        tail[i] = float((counts > i).sum()) / all_pages.size
    return tail


def run(
    scale: str = "small",
    *,
    seed: SeedLike = 0,
    workers: int | None = None,
    fast: bool | None = None,
) -> ResultsTable:
    cfg = pick_scale(_SCALES, scale)
    n, rounds = cfg["n"], cfg["rounds"]
    seq = build_theorem2_sequence(n, rounds=rounds, seed=derive_seed(seed, "seq"))
    suffix = Trace(seq.trace.pages[seq.t0 :], name="post-populate")
    window = max(1, len(suffix) // cfg["windows"])

    table = ResultsTable()
    policies = {
        "2-LRU": lambda: PLruCache(n, d=2, seed=derive_seed(seed, "l")),
        "2-RANDOM": lambda: DRandomCache(n, d=2, seed=derive_seed(seed, "r")),
    }
    for label, factory in policies.items():
        # warm the policy on the populate prefix, then watch windows
        policy = factory()
        policy.run(seq.trace[: seq.t0], fast=fast)
        prev = policy.eviction_counts()
        from repro.analysis.heat import eviction_gini, hot_fraction

        pages = suffix.pages
        for w in range(cfg["windows"]):
            chunk = pages[w * window : (w + 1) * window]
            if chunk.size == 0:
                break
            result = policy.run(chunk, reset=False, fast=fast)
            now = policy.eviction_counts()
            delta = now - prev
            prev = now
            table.append(
                experiment=EXPERIMENT_ID,
                kind="timeline",
                policy=label,
                n=n,
                window=w,
                miss_rate=result.miss_rate,
                evictions=int(delta.sum()),
                gini=eviction_gini(delta),
                hot1=hot_fraction(delta, 0.01),
            )
        # per-page miss tail over the whole suffix (fresh policy)
        policy2 = factory()
        policy2.run(seq.trace[: seq.t0], fast=fast)
        res = policy2.run(suffix, reset=False, fast=fast)
        tail = _per_page_miss_tail(suffix.pages, res.hits, cfg["tail_max"])
        for i in range(cfg["tail_max"] + 1):
            table.append(
                experiment=EXPERIMENT_ID,
                kind="miss_tail",
                policy=label,
                n=n,
                i=i,
                pr_misses_gt_i=float(tail[i]),
            )
    return table


@predicates
def check(table: ResultsTable):
    """2-RANDOM cools below 2-LRU; 2-LRU keeps perpetual missers."""
    rate: dict[str, float] = {}  # each policy's last-window miss rate (rows ascend in window)
    tail: dict[str, dict[int, float]] = {"2-LRU": {}, "2-RANDOM": {}}
    for r in table:
        if r["kind"] == "timeline":
            rate[r["policy"]] = r["miss_rate"]
        else:
            tail[r["policy"]][r["i"]] = r["pr_misses_gt_i"]
    lru, rnd = tail["2-LRU"], tail["2-RANDOM"]
    yield "final-window miss_rate: 2-RANDOM < 2-LRU", rate.get("2-RANDOM", 1) < rate.get("2-LRU", 0)
    yield "2-LRU keeps perpetual missers: Pr[misses > i_max] > 0", bool(lru) and lru[max(lru)] > 0
    yield "2-RANDOM's miss tail decays: Pr[> 2] < Pr[> 1]", rnd.get(2, 1) < rnd.get(1, 0)
