"""Experiment T4-ACCOUNTING — tracing Theorem 4's proof on live runs.

**What this is.** The strongest reproduction a theory paper admits: run
the §5 analysis' *accounting* on real simulations and check each lemma's
quantity, not just the end-to-end ratio. Per proof phase (``εn`` LRU
misses), we measure:

- Lemma 11's ``Q`` — hot pages as a fraction of the phase working set
  (claim: vanishing);
- Lemma 10's ``k`` — distinct cool pages routed to the sink (claim:
  ``O(ε²n)``; we report ``k / (ε²n)``);
- Lemma 13's subject — HEAT-SINK misses on hot pages (claim: ``ε^{ω(1)}n``
  per phase; we report the fraction of ``εn``);
- the bonus-point ledger (``c₁₀``, ``c₀₁``, ``c₀₀``, sink routings) and
  the final inequality ``C_HS ≤ (1+O(ε))·C_LRU + O(ℓ/n)``.

Rows: one per phase (workload × ε), plus a ``TOTAL`` row per
configuration carrying the theorem check.
"""

from __future__ import annotations


from repro.analysis.prooftrace import trace_theorem4_accounting
from repro.experiments.common import pick_scale, predicates
from repro.rng import SeedLike, derive_seed
from repro.sim.results import ResultsTable
from repro.traces.phases import phase_change_trace
from repro.traces.synthetic import zipf_trace

__all__ = ["run", "check", "EXPERIMENT_ID"]

EXPERIMENT_ID = "T4-ACCOUNTING"

_SCALES = {
    "smoke": {"n": 1024, "length": 60_000, "epsilons": [0.3]},
    "small": {"n": 4096, "length": 250_000, "epsilons": [0.3, 0.2]},
    "full": {"n": 8192, "length": 800_000, "epsilons": [0.3, 0.2, 0.15]},
}

#: cap on per-phase rows emitted per configuration (phases beyond are
#: aggregated into the TOTAL row regardless)
_MAX_PHASE_ROWS = 6


def _workloads(n: int, length: int, seed: int):
    yield "zipf(0.9)", zipf_trace(8 * n, length, alpha=0.9, seed=derive_seed(seed, "z"))
    yield (
        "phases",
        phase_change_trace(
            max(64, int(0.8 * n)), max(1, length // 10), 10,
            overlap=0.3, zipf_alpha=0.8, seed=derive_seed(seed, "p"),
        ),
    )


def run(scale: str = "small", *, seed: SeedLike = 0, workers: int | None = None) -> ResultsTable:
    cfg = pick_scale(_SCALES, scale)
    n, length = cfg["n"], cfg["length"]
    table = ResultsTable()
    for workload, trace in _workloads(n, length, derive_seed(seed, "wl")):
        for eps in cfg["epsilons"]:
            acct = trace_theorem4_accounting(
                trace, nominal_size=n, epsilon=eps, seed=derive_seed(seed, "hs")
            )
            eps2n = eps * eps * n
            for phase in acct.phases[:_MAX_PHASE_ROWS]:
                table.append(
                    experiment=EXPERIMENT_ID,
                    workload=workload,
                    epsilon=eps,
                    row="phase",
                    phase=phase.index,
                    lru_misses=phase.lru_misses,
                    working_pages=phase.working_pages,
                    hot_bins=phase.num_hot_bins,
                    hot_page_fraction=phase.hot_page_fraction,
                    hs_misses=phase.hs_misses,
                    hs_misses_on_hot_frac_of_eps_n=phase.hs_misses_on_hot / max(1.0, eps * n),
                    cool_to_sink_over_eps2n=phase.distinct_cool_to_sink / max(1.0, eps2n),
                    c10=phase.c10,
                    c01=phase.c01,
                    c00=phase.c00,
                )
            hidden = max(0, len(acct.phases) - _MAX_PHASE_ROWS)
            table.append(
                experiment=EXPERIMENT_ID,
                workload=workload,
                epsilon=eps,
                row="TOTAL",
                phases=len(acct.phases),
                phases_not_shown=hidden,
                hs_total_misses=acct.hs_total_misses,
                lru_total_misses=acct.lru_total_misses,
                miss_ratio=acct.miss_ratio,
                bonus_points=acct.bonus_points,
                c10=acct.c10,
                c01=acct.c01,
                c00=acct.c00,
                max_hot_page_fraction=max(
                    (p.hot_page_fraction for p in acct.phases), default=0.0
                ),
                max_cool_to_sink_over_eps2n=max(
                    (p.distinct_cool_to_sink / max(1.0, eps2n) for p in acct.phases),
                    default=0.0,
                ),
                theorem_holds=acct.theorem_inequality_satisfied(),
            )
    return table


@predicates
def check(table: ResultsTable):
    """Theorem 4's inequality and Lemmas 10/11 hold on every TOTAL row."""
    totals = [r for r in table if r["row"] == "TOTAL"]
    yield "theorem_holds", bool(totals) and all(r["theorem_holds"] for r in totals)
    yield "Lemma 11: max_hot_page_fraction < 0.25", all(
        r["max_hot_page_fraction"] < 0.25 for r in totals)
    yield "Lemma 10: max_cool_to_sink_over_eps2n < 8", all(
        r["max_cool_to_sink_over_eps2n"] < 8 for r in totals)
