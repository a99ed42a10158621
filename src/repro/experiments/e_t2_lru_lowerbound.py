"""Experiment T2-LOWERBOUND — the downfall of d-LRU (Theorem 1/2, Cor. 1).

**Paper claim.** For ``d = o(log n / log log n)`` and any semi-uniform
hash distribution, `P`-LRU is not ``(α, β)``-competitive: on the §3
sequence, OPT (at size ``n / log n``-ish) incurs ``O(n)`` misses while
`P`-LRU incurs ``ω(Kn)`` over ``K`` rounds — i.e. a *persistent per-round
miss count* that never decays.

**What we measure.** For each ``(n, d)``: the adversarial sequence's
per-round d-LRU misses early (rounds 1–5) vs late (last 10 rounds), the
total after the populate phase, OPT's post-populate misses at ``n/β``,
and the miss *ratio* (d-LRU / OPT, post-populate). The Theorem-2 shape is

- ``late_misses_per_round`` stays bounded away from 0 for d-LRU (it
  *melts*: each extra round adds misses linearly), and
- the ratio grows roughly linearly with the number of rounds ``K``,
  which the ``ratio_vs_rounds`` rows show directly, while
- OPT's post-populate misses stay exactly at the ``2·|A|`` cold misses,
  independent of ``K``.

We also report the number of literal *happy pairs* (the paper's
witnesses). At laptop ``n`` their expected count ``n/(log n)^{O(d)}`` is
≪ 1 — the persistent misses instead come from the same contention
mechanism acting through slightly larger light-page clusters, so the
pair count is reported for completeness rather than as the signal.
"""

from __future__ import annotations

import numpy as np

from repro.core.assoc.d_lru import PLruCache
from repro.core.fully.belady import BeladyCache
from repro.experiments.common import pick_scale, predicates
from repro.rng import SeedLike, derive_seed
from repro.sim.results import ResultsTable
from repro.traces.adversarial import build_theorem2_sequence, find_happy_pairs

__all__ = ["run", "check", "EXPERIMENT_ID"]

EXPERIMENT_ID = "T2-LOWERBOUND"

_SCALES = {
    "smoke": {"ns": [1024], "ds": [2], "rounds": 20, "beta": 2, "round_checks": [10, 20]},
    "small": {
        "ns": [1024, 2048, 4096],
        "ds": [2, 3, 4],
        "rounds": 40,
        "beta": 2,
        "round_checks": [10, 20, 40],
    },
    "full": {
        "ns": [2048, 4096, 8192, 16384],
        "ds": [2, 3, 4, 6],
        "rounds": 80,
        "beta": 2,
        "round_checks": [10, 20, 40, 80],
    },
}


def _per_round(miss_flags: np.ndarray, rounds: int) -> np.ndarray:
    """Post-t0 miss flags reshaped to per-round totals."""
    per = miss_flags.size // rounds
    return miss_flags[: per * rounds].reshape(rounds, per).sum(axis=1)


def run(
    scale: str = "small",
    *,
    seed: SeedLike = 0,
    workers: int | None = None,
    fast: bool | None = None,
) -> ResultsTable:
    """Run the experiment; one row per (n, d) plus ratio-vs-K rows."""
    cfg = pick_scale(_SCALES, scale)
    table = ResultsTable()
    for n in cfg["ns"]:
        seq = build_theorem2_sequence(
            n, rounds=cfg["rounds"], seed=derive_seed(seed, "seq", n)
        )
        opt = BeladyCache(max(1, n // cfg["beta"]))
        opt_result = opt.run(seq.trace)
        opt_after = int((~opt_result.hits[seq.t0 :]).sum())
        for d in cfg["ds"]:
            policy_seed = derive_seed(seed, "plru", n, d)
            policy = PLruCache(n, d=d, seed=policy_seed)
            result = policy.run(seq.trace, fast=fast)
            miss_after = ~result.hits[seq.t0 :]
            per_round = _per_round(miss_after, cfg["rounds"])
            pairs = find_happy_pairs(seq, PLruCache(n, d=d, seed=policy_seed))
            row = {
                "experiment": EXPERIMENT_ID,
                "n": n,
                "d": d,
                "rounds": cfg["rounds"],
                "plru_misses_post_t0": int(miss_after.sum()),
                "early_misses_per_round": float(per_round[:5].mean()),
                "late_misses_per_round": float(per_round[-10:].mean()),
                "opt_misses_post_t0": opt_after,
                "opt_cold_misses_expected": int(2 * seq.light_a.size),
                "miss_ratio_post_t0": float(miss_after.sum() / max(1, opt_after)),
                "happy_pairs": len(pairs),
            }
            # ratio as a function of K: competitiveness would require this
            # to be bounded; Theorem 2 predicts ~linear growth
            for k in cfg["round_checks"]:
                cum = int(per_round[:k].sum())
                row[f"ratio_at_K{k}"] = float(cum / max(1, opt_after))
            table.append(**row)
    return table


def _ratios(row) -> np.ndarray:
    """A row's ``ratio_at_K*`` values, K ascending (the order :func:`run` writes)."""
    return np.array([v for k, v in row.items() if k.startswith("ratio_at_K")])


def _late_by_d(group) -> list[float]:
    return [r["late_misses_per_round"] for r in sorted(group, key=lambda r: r["d"])]


@predicates
def check(table: ResultsTable):
    """The melt and the ratio growth at d = 2, and their weakening in d.

    At laptop n the melt rate ``(log n)^-O(d)`` is measurable only at
    d = 2 (d = 3 leaves ~2 misses/round, d = 4 none), so only d = 2 must melt.
    """
    d2 = [r for r in table if r["d"] == 2]
    yield "ratio_at_K never falls as K grows", all((np.diff(_ratios(r)) >= 0).all() for r in table)
    yield "OPT pays only the cold misses: opt_misses_post_t0 == opt_cold_misses_expected", all(
        r["opt_misses_post_t0"] == r["opt_cold_misses_expected"] for r in table)
    yield "d=2 melts: late_misses_per_round > 5", bool(d2) and all(
        r["late_misses_per_round"] > 5 for r in d2)
    yield "d=2 ratio_at_K grows strictly with K", all((np.diff(_ratios(r)) > 0).all() for r in d2)
    yield "late_misses_per_round falls as d grows, at every n", all(
        late == sorted(late, reverse=True) and (len(late) == 1 or late[-1] < late[0])
        for late in map(_late_by_d, table.group_by("n").values()))
