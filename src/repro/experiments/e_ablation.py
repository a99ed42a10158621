"""Experiment ABLATION — the HEAT-SINK design knobs (§5, footnote 3).

**Paper anchors.** §5 fixes three constants whose roles the proof makes
explicit: bin size ``b = ε⁻³`` (footnote 3: ``ε⁻² polylog ε⁻¹`` also
works), routing coin ``p = ε²`` (Lemma 10/13 balance: too small and hot
bins can't drain, too large and the tiny sink gets all the traffic), and
sink capacity ``εn`` (Lemma 12's orientability head-room). This
experiment turns each knob with the others fixed, plus two structural
ablations:

- **no sink** (``p = 0``): pure binned LRU, the design HEAT-SINK extends;
- **recency-managed sink**: the same sizes, but with the companion
  managed by a victim-cache-style LRU instead of 2-RANDOM — isolating
  the contribution of randomized eviction *inside* the sink;
- **2-RANDOM occupancy-awareness**: paper-faithful blind eviction vs the
  empty-slot-preferring variant (same topology).

**What we measure.** Post-warm-up misses vs fully-associative LRU at the
theorem's ``(1−2ε)n`` size, on two workloads:

- ``saturated`` — a uniform working set sized exactly to the bin
  region's capacity. This is the mechanism's purest stress: mean bin
  load equals ``b``, so roughly half the bins structurally overflow and
  thrash under intra-bin LRU *unless* the per-miss coin drains them into
  the sink. Without the sink (``p = 0``) steady-state misses stay in the
  thousands; with the paper's ``p = ε²`` they drop to ≈ 0.
- ``phases`` — a shifting Zipf phase workload, the realistic mixed case.
"""

from __future__ import annotations

import math


from repro.core.assoc.d_random import DRandomCache
from repro.core.assoc.heatsink import HeatSinkLRU
from repro.core.fully.lru import LRUCache
from repro.experiments.common import pick_scale, predicates
from repro.rng import SeedLike, derive_seed
from repro.sim.results import ResultsTable
from repro.traces.phases import phase_change_trace, working_set_trace

__all__ = ["run", "check", "EXPERIMENT_ID"]

EXPERIMENT_ID = "ABLATION"

_SCALES = {
    "smoke": {"n": 1024, "length": 120_000, "epsilon": 0.25},
    "small": {"n": 4096, "length": 500_000, "epsilon": 0.25},
    "full": {"n": 8192, "length": 1_500_000, "epsilon": 0.2},
}


def run(
    scale: str = "small",
    *,
    seed: SeedLike = 0,
    workers: int | None = None,
    fast: bool | None = None,
) -> ResultsTable:
    cfg = pick_scale(_SCALES, scale)
    n, length, eps = cfg["n"], cfg["length"], cfg["epsilon"]
    warm = length // 5

    b_default = int(math.ceil(eps**-3))
    sink_default = max(2, math.ceil(eps * n))
    p_default = eps**2
    num_bins = max(1, math.ceil(n / b_default))
    main_size = num_bins * b_default
    capacity = main_size + sink_default

    # the saturated workload: uniform over exactly the bin region's
    # capacity, so mean bin load == b and overflow is structural
    saturated = working_set_trace(
        main_size, length, locality=1.0, universe=main_size,
        seed=derive_seed(seed, "sat"),
    )
    phases = phase_change_trace(
        max(64, int(0.8 * n)), max(1, length // 10), 10,
        overlap=0.3, zipf_alpha=0.8, seed=derive_seed(seed, "ph"),
    )
    workloads = [("saturated", saturated), ("phases", phases)]

    table = ResultsTable()
    for workload, trace in workloads:
        lru_ref = LRUCache(max(16, int((1 - 2 * eps) * n)))
        ref_misses = int((~lru_ref.run(trace).hits[warm:]).sum())

        def add(label: str, knob: str, policy, **extra) -> None:
            result = policy.run(trace, fast=fast)
            misses = int((~result.hits[warm:]).sum())
            table.append(
                experiment=EXPERIMENT_ID,
                workload=workload,
                knob=knob,
                variant=label,
                n=n,
                epsilon=eps,
                capacity=policy.capacity,
                misses_post_warm=misses,
                lru_ref_misses=ref_misses,
                ratio_vs_lru=float(misses / max(1, ref_misses)),
                **extra,
            )

        def hs(bin_size=b_default, sink=sink_default, p=p_default, tag=0, policy="2-random"):
            cap = max(1, (capacity - sink) // bin_size) * bin_size + sink
            return HeatSinkLRU(
                cap, bin_size=bin_size, sink_size=sink, sink_prob=p,
                sink_policy=policy, seed=derive_seed(seed, "hs", tag),
            )

        # baseline (the Theorem-4 configuration)
        add("b=eps^-3, s=eps*n, p=eps^2 (paper)", "baseline", hs(tag=1))

        # bin-size knob (footnote 3)
        b_alt = max(1, int(math.ceil(eps**-2 * max(1.0, math.log(1.0 / eps)))))
        add(f"b=eps^-2*log (={b_alt})", "bin_size", hs(bin_size=b_alt, tag=2))
        add(f"b=eps^-1 (={max(1, int(1/eps))})", "bin_size", hs(bin_size=max(1, int(1 / eps)), tag=3))

        # routing-probability knob
        add("p=eps (too eager)", "sink_prob", hs(p=eps, tag=4))
        add("p=eps^3 (too timid)", "sink_prob", hs(p=eps**3, tag=5))
        add("p=0 (no sink routing)", "sink_prob", hs(p=0.0, tag=6))

        # sink-capacity knob
        add("sink=eps*n/2", "sink_size", hs(sink=max(2, sink_default // 2), tag=7))
        add("sink=2*eps*n", "sink_size", hs(sink=2 * sink_default, tag=8))

        # sink policy: the paper's 2-RANDOM sink vs an LRU-managed
        # companion of identical size (isolates randomness inside the sink;
        # note the LRU variant's higher effective associativity)
        add("sink policy = LRU companion", "sink_policy", hs(tag=9, policy="lru"))

        # 2-RANDOM occupancy-awareness (same topology, different blindness)
        two_rand = DRandomCache(capacity, d=2, seed=derive_seed(seed, "r1"))
        add("2-RANDOM (paper, blind)", "sink_policy", two_rand)
        two_rand_aware = DRandomCache(
            capacity, d=2, seed=derive_seed(seed, "r2"), occupancy_aware=True
        )
        add("2-RANDOM (occupancy-aware)", "sink_policy", two_rand_aware)

    return table


@predicates
def check(table: ResultsTable):
    """The sink is load-bearing: p = 0 re-melts the saturated bins."""
    sat = [r for r in table if r["workload"] == "saturated"]
    baseline = [r["misses_post_warm"] for r in sat if r["knob"] == "baseline"]
    no_sink = [r["misses_post_warm"] for r in sat if r["variant"].startswith("p=0 ")]
    yield "saturated: baseline misses < 0.2 * p=0 (no sink) misses", (
        bool(baseline and no_sink) and baseline[0] < 0.2 * no_sink[0])
    yield "every heat-sink variant: ratio_vs_lru < 1", all(
        r["ratio_vs_lru"] < 1 for r in table if r["knob"] != "sink_policy")
    yield "rows cover every knob", {r["knob"] for r in table} == {
        "baseline", "bin_size", "sink_prob", "sink_size", "sink_policy"}
