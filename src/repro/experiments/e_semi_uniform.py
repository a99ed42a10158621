"""Experiment T2-SEMIUNIFORM — the lower bound across hash distributions.

**Paper claim.** Theorem 2 holds for *any* semi-uniform distribution,
even with arbitrary dependencies among the ``d`` hashes: "almost all
natural variations of d-associative LRU cannot asymptotically match the
performance of fully-associative LRU."

**What we measure.** The same per-round melt metric as T2-LOWERBOUND,
for `P`-LRU under four semi-uniform distributions (independent uniform,
fully-dependent offset window, skewed banks, hardware set-associative)
*and* one non-semi-uniform distribution (:class:`HotSpotHashes`), which
probes the paper's open question — whether semi-uniformity is necessary.

**Expected shape.** All semi-uniform variants show persistent late-round
misses (the melt); the relative severity may differ (dependence
concentrates collisions). The rows report the same columns per
distribution so the bench prints one comparable block.
"""

from __future__ import annotations


from repro.core.assoc.d_lru import PLruCache
from repro.core.assoc.hashdist import (
    HotSpotHashes,
    OffsetHashes,
    SetAssociativeHashes,
    SkewedHashes,
    UniformHashes,
)
from repro.core.fully.belady import BeladyCache
from repro.experiments.common import pick_scale, predicates
from repro.rng import SeedLike, derive_seed
from repro.sim.results import ResultsTable
from repro.traces.adversarial import build_theorem2_sequence

__all__ = ["run", "check", "EXPERIMENT_ID"]

EXPERIMENT_ID = "T2-SEMIUNIFORM"

_SCALES = {
    "smoke": {"n": 1024, "d": 2, "rounds": 20},
    "small": {"n": 4096, "d": 2, "rounds": 40},
    "full": {"n": 8192, "d": 4, "rounds": 80},
}


def _distributions(n: int, d: int, seed: int):
    yield "uniform", UniformHashes(n, d, seed=derive_seed(seed, "u"))
    yield "offset-window", OffsetHashes(n, d, seed=derive_seed(seed, "o"))
    if n % d == 0:
        yield "skewed-banks", SkewedHashes(n, d, seed=derive_seed(seed, "sk"))
        yield "set-assoc", SetAssociativeHashes(n, d, seed=derive_seed(seed, "sa"))
    yield (
        "hotspot(non-semi-uniform)",
        HotSpotHashes(
            n, d, hot_slots=max(1, n // 64), hot_prob=0.5, seed=derive_seed(seed, "h")
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
    n, d, rounds = cfg["n"], cfg["d"], cfg["rounds"]
    seq = build_theorem2_sequence(n, rounds=rounds, seed=derive_seed(seed, "seq"))
    opt_after = int(
        (~BeladyCache(max(1, n // 2)).run(seq.trace).hits[seq.t0 :]).sum()
    )
    table = ResultsTable()
    for label, dist in _distributions(n, d, derive_seed(seed, "dists")):
        policy = PLruCache(n, dist=dist)
        result = policy.run(seq.trace, fast=fast)
        miss_after = ~result.hits[seq.t0 :]
        per = miss_after.size // rounds
        per_round = miss_after[: per * rounds].reshape(rounds, per).sum(axis=1)
        table.append(
            experiment=EXPERIMENT_ID,
            n=n,
            d=d,
            distribution=label,
            semi_uniform=dist.is_semi_uniform,
            rounds=rounds,
            plru_misses_post_t0=int(miss_after.sum()),
            early_misses_per_round=float(per_round[:5].mean()),
            late_misses_per_round=float(per_round[-10:].mean()),
            opt_misses_post_t0=opt_after,
            miss_ratio_post_t0=float(miss_after.sum() / max(1, opt_after)),
        )
    return table


@predicates
def check(table: ResultsTable):
    """Every distribution melts, semi-uniform or not."""
    semi = [r for r in table if r["semi_uniform"]]
    yield "at least 3 semi-uniform distributions and a non-semi-uniform one", (
        len(semi) >= 3 and len(semi) < len(table))
    yield "every distribution melts: late_misses_per_round > 5", all(
        r["late_misses_per_round"] > 5 for r in table)
    yield "semi-uniform: miss_ratio_post_t0 > 1", all(r["miss_ratio_post_t0"] > 1 for r in semi)
