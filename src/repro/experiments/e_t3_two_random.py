"""Experiment T3-TWORANDOM — the power of randomized choice (Theorem 3).

**Paper claim.** 2-RANDOM (two uniform hashes, evict a uniformly random
one on every miss) is ``(O(1), O(1))``-competitive with fully-associative
OPT — in sharp contrast to 2-LRU, which the very same topology cannot
save (Theorem 2).

**What we measure.** On the Theorem-2 adversarial sequence plus three
standard workloads (Zipf, loop mixture, phase changes), the post-warm-up
miss counts of 2-RANDOM at size ``n`` against OPT at size ``n/β``:

- ``ratio`` = 2-RANDOM misses / OPT misses (bounded ⇒ competitive shape);
- on the adversarial trace, 2-RANDOM's *late* per-round misses decay
  toward 0 (the heat-dissipation fixed point: once a compatible
  placement is found it persists — Lemma 7), while 2-LRU's stay flat;
  both series are reported side by side.

**Expected shape.** Ratios are modest constants across β and workloads;
the adversarial ``late_misses_per_round`` column is near 0 for 2-RANDOM
and large for 2-LRU.
"""

from __future__ import annotations


from repro.core.assoc.d_lru import PLruCache
from repro.core.assoc.d_random import DRandomCache
from repro.core.fully.belady import BeladyCache
from repro.experiments.common import pick_scale, predicates
from repro.rng import SeedLike, derive_seed
from repro.sim.results import ResultsTable
from repro.traces.adversarial import build_theorem2_sequence
from repro.traces.phases import phase_change_trace
from repro.traces.synthetic import loop_mixture_trace, zipf_trace

__all__ = ["run", "check", "EXPERIMENT_ID"]

EXPERIMENT_ID = "T3-TWORANDOM"

_SCALES = {
    "smoke": {"n": 1024, "rounds": 20, "length": 60_000, "betas": [4]},
    "small": {"n": 4096, "rounds": 40, "length": 300_000, "betas": [4, 8]},
    "full": {"n": 8192, "rounds": 80, "length": 1_000_000, "betas": [2, 4, 8, 16]},
}


def _workloads(n: int, length: int, rounds: int, seed: int):
    seq = build_theorem2_sequence(n, rounds=rounds, seed=derive_seed(seed, "adv"))
    yield "adversarial(T2)", seq.trace, seq.t0, rounds
    yield (
        "zipf(a=1.0)",
        zipf_trace(4 * n, length, alpha=1.0, seed=derive_seed(seed, "z")),
        length // 4,
        None,
    )
    yield (
        "loops",
        loop_mixture_trace([n // 2, n, 2 * n], length, seed=derive_seed(seed, "l")),
        length // 4,
        None,
    )
    yield (
        "phases",
        phase_change_trace(n // 2, length // 8, 8, overlap=0.25, seed=derive_seed(seed, "p")),
        length // 4,
        None,
    )


def run(
    scale: str = "small",
    *,
    seed: SeedLike = 0,
    workers: int | None = None,
    fast: bool | None = None,
) -> ResultsTable:
    cfg = pick_scale(_SCALES, scale)
    n = cfg["n"]
    table = ResultsTable()
    for workload, trace, warm_end, rounds in _workloads(
        n, cfg["length"], cfg["rounds"], derive_seed(seed, "wl")
    ):
        two_random = DRandomCache(n, d=2, seed=derive_seed(seed, "rnd"))
        two_lru = PLruCache(n, d=2, seed=derive_seed(seed, "lru"))
        rnd_result = two_random.run(trace, fast=fast)
        lru_result = two_lru.run(trace, fast=fast)
        rnd_after = ~rnd_result.hits[warm_end:]
        lru_after = ~lru_result.hits[warm_end:]

        late_rnd = late_lru = float("nan")
        if rounds is not None:
            per = rnd_after.size // rounds
            per_round_rnd = rnd_after[: per * rounds].reshape(rounds, per).sum(axis=1)
            per_round_lru = lru_after[: per * rounds].reshape(rounds, per).sum(axis=1)
            late_rnd = float(per_round_rnd[-10:].mean())
            late_lru = float(per_round_lru[-10:].mean())

        # the adversarial sequence's post-populate working set is ~n/2 by
        # construction, so only beta = 2 gives OPT the paper's regime
        # (OPT holds everything); larger beta would thrash OPT too
        betas = [2] if rounds is not None else cfg["betas"]
        for beta in betas:
            opt = BeladyCache(max(1, n // beta))
            opt_result = opt.run(trace)
            opt_after = int((~opt_result.hits[warm_end:]).sum())
            table.append(
                experiment=EXPERIMENT_ID,
                workload=workload,
                n=n,
                beta=beta,
                two_random_misses=int(rnd_after.sum()),
                two_lru_misses=int(lru_after.sum()),
                opt_misses=opt_after,
                ratio_2random_vs_opt=float(rnd_after.sum() / max(1, opt_after)),
                ratio_2lru_vs_opt=float(lru_after.sum() / max(1, opt_after)),
                late_misses_per_round_2random=late_rnd,
                late_misses_per_round_2lru=late_lru,
                additive_scale=float(len(trace) / n),
            )
    return table


@predicates
def check(table: ResultsTable):
    """2-RANDOM heals the adversarial melt and stays O(1) vs OPT elsewhere."""
    adversarial = [r for r in table if r["workload"].startswith("adversarial")]
    yield "adversarial late misses/round: 2-RANDOM < 2-LRU", bool(adversarial) and all(
        r["late_misses_per_round_2random"] < r["late_misses_per_round_2lru"] for r in adversarial)
    yield "other workloads: ratio_2random_vs_opt < 3", all(
        r["ratio_2random_vs_opt"] < 3 for r in table if not r["workload"].startswith("adversarial"))
