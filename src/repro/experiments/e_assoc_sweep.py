"""Experiment ASSOC-SWEEP — miss rate vs associativity across designs.

**Paper anchor.** The introduction's motivating question: how does the
choice of low-associativity *design* (not just ``d``) affect achievable
miss rates? ("The competitive ratio of an eviction rule depends not only
on d but on the design of the underlying low-associativity cache.")

**What we measure.** Steady-state miss rate on realistic workloads
(Zipf, phase changes) for every design at matched total capacity, across
``d ∈ {1, 2, 4, 8, 16}`` plus fully-associative LRU/OPT anchors:

- d-LRU and d-RANDOM (uniform hashes),
- set-associative and skewed-associative LRU,
- cuckoo (rearrangement family),
- HEAT-SINK LRU at the ε whose associativity budget matches each d
  (``b = d − 2``),
- victim cache with ``d − 1`` companion slots.

**Expected shape.** All designs converge to LRU as ``d`` grows; at small
``d`` the randomized/hybrid designs (d-RANDOM on hostile traces,
HEAT-SINK broadly) degrade most gracefully, and direct-mapped (d=1) is
worst everywhere.
"""

from __future__ import annotations


from repro.analysis.metrics import steady_state_miss_rate
from repro.core.assoc.cuckoo import CuckooCache
from repro.core.assoc.d_lru import PLruCache
from repro.core.assoc.d_random import DRandomCache
from repro.core.assoc.heatsink import HeatSinkLRU
from repro.core.assoc.set_assoc import SetAssociativeLRU
from repro.core.assoc.skew_assoc import SkewedAssociativeLRU
from repro.core.assoc.tree_plru import TreePLRUCache
from repro.core.assoc.victim import VictimCache
from repro.core.fully.belady import BeladyCache
from repro.core.fully.lru import LRUCache
from repro.experiments.common import pick_scale, predicates
from repro.rng import SeedLike, derive_seed
from repro.sim.results import ResultsTable
from repro.traces.phases import phase_change_trace
from repro.traces.synthetic import zipf_trace

__all__ = ["run", "check", "EXPERIMENT_ID"]

EXPERIMENT_ID = "ASSOC-SWEEP"

_SCALES = {
    "smoke": {"n": 1024, "length": 60_000, "ds": [1, 2, 4]},
    "small": {"n": 4096, "length": 300_000, "ds": [1, 2, 4, 8, 16]},
    "full": {"n": 8192, "length": 1_000_000, "ds": [1, 2, 4, 8, 16, 32]},
}


def _designs(n: int, d: int, seed: int):
    yield "d-LRU", PLruCache(n, d=d, seed=derive_seed(seed, "dl", d))
    yield "d-RANDOM", DRandomCache(n, d=d, seed=derive_seed(seed, "dr", d))
    if d > 1:
        if n % d == 0:
            yield "set-assoc-LRU", SetAssociativeLRU(n, d=d, seed=derive_seed(seed, "sa", d))
            yield "skew-assoc-LRU", SkewedAssociativeLRU(n, d=d, seed=derive_seed(seed, "sk", d))
            if d & (d - 1) == 0:
                yield "tree-PLRU", TreePLRUCache(n, ways=d, seed=derive_seed(seed, "tp", d))
        yield "cuckoo", CuckooCache(n, d=d, seed=derive_seed(seed, "ck", d), max_kicks=8)
        yield "victim", VictimCache(n, victim_size=d - 1, seed=derive_seed(seed, "v", d))
    if d >= 3:
        # heat-sink with the same per-page position budget: b = d - 2
        sink = max(2, int(0.05 * n))
        yield "HEAT-SINK", HeatSinkLRU(
            n,
            bin_size=d - 2,
            sink_size=sink,
            sink_prob=0.05,
            seed=derive_seed(seed, "hs", d),
        )


def _workloads(n: int, length: int, seed: int):
    yield "zipf(a=1.0)", zipf_trace(8 * n, length, alpha=1.0, seed=derive_seed(seed, "z"))
    yield (
        "phases",
        phase_change_trace(
            max(64, int(0.7 * n)),
            max(1, length // 10),
            10,
            overlap=0.25,
            zipf_alpha=0.8,
            seed=derive_seed(seed, "p"),
        ),
    )


def run(
    scale: str = "small",
    *,
    seed: SeedLike = 0,
    workers: int | None = None,
    fast: bool | None = None,
) -> ResultsTable:
    cfg = pick_scale(_SCALES, scale)
    n, length = cfg["n"], cfg["length"]
    table = ResultsTable()
    for workload, trace in _workloads(n, length, derive_seed(seed, "wl")):
        # anchors stay on auto dispatch: LRU/OPT have no kernels, and
        # fast="on" means "require kernels for the designs under test"
        lru_rate = steady_state_miss_rate(LRUCache(n).run(trace))
        opt_rate = steady_state_miss_rate(BeladyCache(n).run(trace))
        table.append(
            experiment=EXPERIMENT_ID, workload=workload, design="LRU(full)", d="full",
            n=n, steady_miss_rate=lru_rate, vs_full_lru=1.0,
        )
        table.append(
            experiment=EXPERIMENT_ID, workload=workload, design="OPT(full)", d="full",
            n=n, steady_miss_rate=opt_rate,
            vs_full_lru=float(opt_rate / max(lru_rate, 1e-12)),
        )
        for d in cfg["ds"]:
            for design, policy in _designs(n, d, derive_seed(seed, "designs")):
                rate = steady_state_miss_rate(policy.run(trace, fast=fast))
                table.append(
                    experiment=EXPERIMENT_ID,
                    workload=workload,
                    design=design,
                    d=d,
                    n=n,
                    steady_miss_rate=rate,
                    vs_full_lru=float(rate / max(lru_rate, 1e-12)),
                )
    return table


@predicates
def check(table: ResultsTable):
    """d-LRU converges toward full LRU as d grows; OPT anchors below LRU."""
    dlru = [
        {r["d"]: r["vs_full_lru"] for r in group if r["design"] == "d-LRU"}
        for group in table.group_by("workload").values()
    ]
    yield "d-LRU at the largest d within 10% (+0.05) of its best", all(
        vs[max(vs)] <= min(vs.values()) * 1.1 + 0.05 for vs in dlru)
    yield "d-LRU: direct-mapped no better than d=4", all(vs[1] >= vs[4] for vs in dlru)
    yield "d-LRU at d=4 within 1.3x of full LRU", all(vs[4] < 1.3 for vs in dlru)
    yield "OPT(full) <= LRU(full)", all(
        r["vs_full_lru"] <= 1 + 1e-9 for r in table if r["design"] == "OPT(full)")
