"""Experiment REARRANGE — the paper's designs vs the rearrangement model.

§1.2 positions the paper against models that allow pages to be
*rearranged* within the cache ([16, 7] and companion caches [5, 15]).
This experiment puts both families on the same workloads at identical
total capacity:

- **no-rearrangement** (the paper's lane): 2-LRU, 2-RANDOM, HEAT-SINK;
- **rearrangement**: :class:`RearrangingCache` (BFS re-orientation with a
  per-miss node budget), cuckoo with bounded kicks, and a companion
  cache.

Reported per design: steady miss rate *and* data movement
(``total_moves`` — pages physically relocated), the cost axis the
rearrangement model hides. The expected shape: rearrangement buys misses
back on contention-heavy workloads at the price of a stream of internal
moves; HEAT-SINK gets most of the miss benefit with zero moves — the
paper's design thesis.
"""

from __future__ import annotations


from repro.core.assoc.companion import CompanionCache
from repro.core.assoc.cuckoo import CuckooCache
from repro.core.assoc.d_lru import PLruCache
from repro.core.assoc.d_random import DRandomCache
from repro.core.assoc.heatsink import HeatSinkLRU
from repro.core.assoc.rearrange import RearrangingCache
from repro.experiments.common import pick_scale, predicates
from repro.rng import SeedLike, derive_seed
from repro.sim.results import ResultsTable
from repro.traces.adversarial import build_theorem2_sequence
from repro.traces.phases import working_set_trace
from repro.traces.synthetic import zipf_trace

__all__ = ["run", "check", "EXPERIMENT_ID"]

EXPERIMENT_ID = "REARRANGE"

_SCALES = {
    "smoke": {"n": 1024, "rounds": 20, "length": 80_000},
    "small": {"n": 4096, "rounds": 40, "length": 300_000},
    "full": {"n": 8192, "rounds": 60, "length": 1_000_000},
}


def _designs(n: int, seed: int):
    sink = max(2, n // 8)
    bins = max(1, (n - sink) // 16)
    yield "2-LRU", PLruCache(n, d=2, seed=derive_seed(seed, "a"))
    yield "2-RANDOM", DRandomCache(n, d=2, seed=derive_seed(seed, "b"))
    yield "HEAT-SINK", HeatSinkLRU(
        bins * 16 + (n - bins * 16), bin_size=16, sink_size=sink,
        sink_prob=0.06, seed=derive_seed(seed, "c"),
    )
    yield "REARRANGE(2,bfs64)", RearrangingCache(
        n, d=2, seed=derive_seed(seed, "d"), max_bfs_nodes=64
    )
    yield "CUCKOO(2,k=8)", CuckooCache(n, d=2, seed=derive_seed(seed, "e"), max_kicks=8)
    yield "COMPANION(4w+n/16)", CompanionCache(
        n, ways=4, companion_size=max(1, n // 16), seed=derive_seed(seed, "f")
    )


def _workloads(n: int, rounds: int, length: int, seed: int):
    seq = build_theorem2_sequence(n, rounds=rounds, seed=derive_seed(seed, "adv"))
    yield "adversarial(T2)", seq.trace, seq.t0
    yield "zipf(1.0)", zipf_trace(8 * n, length, alpha=1.0, seed=derive_seed(seed, "z")), length // 4
    yield (
        "near-full working set",
        working_set_trace(int(0.95 * n), length, locality=1.0, universe=int(0.95 * n), seed=derive_seed(seed, "w")),
        length // 4,
    )


def run(scale: str = "small", *, seed: SeedLike = 0, workers: int | None = None) -> ResultsTable:
    cfg = pick_scale(_SCALES, scale)
    n = cfg["n"]
    table = ResultsTable()
    for workload, trace, warm in _workloads(n, cfg["rounds"], cfg["length"], derive_seed(seed, "wl")):
        for design, policy in _designs(n, derive_seed(seed, "designs")):
            result = policy.run(trace)
            steady = float((~result.hits[warm:]).mean())
            table.append(
                experiment=EXPERIMENT_ID,
                workload=workload,
                design=design,
                n=n,
                capacity=policy.capacity,
                steady_miss_rate=steady,
                total_moves=int(result.extra.get("total_moves", result.extra.get("total_kicks", 0))),
                moves_per_access=float(
                    result.extra.get("total_moves", result.extra.get("total_kicks", 0))
                )
                / max(1, result.num_accesses),
            )
    return table


@predicates
def check(table: ResultsTable):
    """The paper's designs never move pages; rearrangement's wins do."""
    groups = [{r["design"]: r for r in g} for g in table.group_by("workload").values()]
    yield "2-LRU and HEAT-SINK make zero moves", all(
        g[d]["moves_per_access"] == 0 for g in groups for d in ("2-LRU", "HEAT-SINK"))
    yield "REARRANGE's >10% wins over 2-LRU move > 0.01 pages/access", all(
        g["REARRANGE(2,bfs64)"]["moves_per_access"] > 0.01 for g in groups
        if g["REARRANGE(2,bfs64)"]["steady_miss_rate"] < 0.9 * g["2-LRU"]["steady_miss_rate"])
