"""Experiment SCALING — empirical asymptotics across cache size n.

The paper's statements are asymptotic; this experiment measures how the
headline effects *trend with n*, with multi-seed confidence intervals:

- **T2 melt persistence**: 2-LRU's late per-round misses on the
  adversarial sequence, normalized by n. Theorem 2 predicts a rate of
  ``1/(log n)^{O(d)}`` — slowly decaying in n but never vanishing at any
  fixed round budget, and in particular not decaying like a transient.
- **T3 healing**: 2-RANDOM's late per-round misses on the same sequence —
  Theorem 3 predicts these go to ~0 at every n once placements settle
  (the per-phase miss budget is O(n) *total*, not per round).
- **melt ratio**: 2-LRU / 2-RANDOM late misses — the separation the two
  theorems jointly predict should *grow* (or at least stay ≫ 1) with n.

This experiment exercises the parallel sweep engine: each (n, seed) cell
is an independent task fanned out over a process pool when ``workers`` is
set.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import bootstrap_ci
from repro.core.assoc.d_lru import PLruCache
from repro.core.assoc.d_random import DRandomCache
from repro.experiments.common import pick_scale, predicates
from repro.rng import SeedLike, derive_seed
from repro.sim.results import ResultsTable
from repro.sim.sweep import ParameterGrid, run_sweep
from repro.traces.adversarial import build_theorem2_sequence

__all__ = ["run", "check", "EXPERIMENT_ID", "scaling_task"]

EXPERIMENT_ID = "SCALING"

_SCALES = {
    "smoke": {"ns": [512, 1024], "rounds": 24, "repetitions": 2},
    "small": {"ns": [512, 1024, 2048, 4096], "rounds": 40, "repetitions": 4},
    "full": {"ns": [1024, 2048, 4096, 8192, 16384], "rounds": 60, "repetitions": 8},
}


def scaling_task(params: dict, seed: np.random.SeedSequence) -> dict:
    """One (n, seed) measurement cell — module-level for process pools."""
    n = int(params["n"])
    rounds = int(params["rounds"])
    fast = params.get("fast")  # rides the grid so pool workers see it too
    seed_int = int(seed.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))
    seq = build_theorem2_sequence(n, rounds=rounds, seed=derive_seed(seed_int, "seq"))
    per = (len(seq.trace) - seq.t0) // rounds

    def late_misses(policy) -> float:
        result = policy.run(seq.trace, fast=fast)
        miss = ~result.hits[seq.t0 :]
        per_round = miss[: per * rounds].reshape(rounds, per).sum(axis=1)
        return float(per_round[-10:].mean())

    late_lru = late_misses(PLruCache(n, d=2, seed=derive_seed(seed_int, "lru")))
    late_rnd = late_misses(DRandomCache(n, d=2, seed=derive_seed(seed_int, "rnd")))
    return {
        "late_2lru": late_lru,
        "late_2random": late_rnd,
        "late_2lru_per_n": late_lru / n,
        "late_2random_per_n": late_rnd / n,
        "melt_ratio": late_lru / max(late_rnd, 0.5),  # 0.5: half-miss floor
    }


def run(
    scale: str = "small",
    *,
    seed: SeedLike = 0,
    workers: int | None = None,
    fast: bool | None = None,
) -> ResultsTable:
    cfg = pick_scale(_SCALES, scale)
    raw = run_sweep(
        scaling_task,
        ParameterGrid(n=cfg["ns"], rounds=[cfg["rounds"]], fast=[fast]),
        repetitions=cfg["repetitions"],
        seed=seed,
        workers=workers,
    )
    table = ResultsTable()
    for (n,), group in sorted(raw.group_by("n").items()):
        rows = list(group)
        def ci(key: str) -> tuple[float, float, float]:
            return bootstrap_ci([r[key] for r in rows], seed=derive_seed(seed, "ci", n))

        lru_mean, lru_lo, lru_hi = ci("late_2lru")
        rnd_mean, rnd_lo, rnd_hi = ci("late_2random")
        ratio_mean, ratio_lo, ratio_hi = ci("melt_ratio")
        table.append(
            experiment=EXPERIMENT_ID,
            n=n,
            rounds=cfg["rounds"],
            repetitions=len(rows),
            late_2lru_mean=lru_mean,
            late_2lru_ci_lo=lru_lo,
            late_2lru_ci_hi=lru_hi,
            late_2random_mean=rnd_mean,
            late_2random_ci_lo=rnd_lo,
            late_2random_ci_hi=rnd_hi,
            late_2lru_per_n=lru_mean / n,
            late_2random_per_n=rnd_mean / n,
            melt_ratio_mean=ratio_mean,
            melt_ratio_ci_lo=ratio_lo,
            melt_ratio_ci_hi=ratio_hi,
        )
    return table


@predicates
def check(table: ResultsTable):
    """The 2-LRU / 2-RANDOM separation holds at every n."""
    yield "late_2lru_mean > late_2random_mean", all(
        r["late_2lru_mean"] > r["late_2random_mean"] for r in table)
    yield "melt_ratio_mean > 1.5", all(r["melt_ratio_mean"] > 1.5 for r in table)
