"""Experiment L6-COMPONENTS — component-size tail of the cuckoo graph (Lemma 6).

**Paper claim.** With ``n/(4e²)`` pages (edges) on ``n`` slots
(vertices), the component containing a given page's edge satisfies
``Pr[|C_x| ≥ i] ≤ 4^-(i-2)`` for all ``i ≥ 3``. The strictly-below-1/2
geometric ratio is load-bearing: it is what makes ``E[2^{|C|}] = O(1)``
in Lemma 8 and hence 2-RANDOM's O(1) expected misses per page.

**What we measure.** The empirical edge-perspective tail
``Pr[|C_x| ≥ i]`` pooled over many sampled graphs, next to the bound
*and* next to the exact branching-process prediction (Borel convolution,
:mod:`repro.theory.cuckoo`), plus the empirical value of ``E[2^{|C|}]``
(the quantity Lemma 8 actually integrates) against its analytic value.
A higher-load control row (``m = n/4``) shows the tail fattening as the
load approaches the critical point — i.e. the bound is about the chosen
load, not an artifact.
"""

from __future__ import annotations

import math

import numpy as np

from repro.experiments.common import pick_scale, predicates
from repro.graphtools.components import component_of_edge, component_size_tail
from repro.graphtools.random_graph import sample_random_multigraph
from repro.rng import SeedLike, spawn_seeds
from repro.sim.results import ResultsTable
from repro.theory.cuckoo import edge_component_tail, mean_two_pow_component

__all__ = ["run", "check", "EXPERIMENT_ID"]

EXPERIMENT_ID = "L6-COMPONENTS"

_SCALES = {
    "smoke": {"n": 2048, "trials": 10, "max_size": 8},
    "small": {"n": 8192, "trials": 40, "max_size": 10},
    "full": {"n": 32768, "trials": 100, "max_size": 12},
}

#: the lemma's load: n/(4e²) edges
_LEMMA_LOAD = 1.0 / (4.0 * math.e**2)


def _tail_rows(
    table: ResultsTable,
    label: str,
    n: int,
    m: int,
    trials: int,
    max_size: int,
    seed: SeedLike,
) -> None:
    per_edge = []
    for child in spawn_seeds(seed, trials):
        edges = sample_random_multigraph(n, m, seed=child)
        if m:
            per_edge.append(component_of_edge(n, edges))
    sizes = np.concatenate(per_edge) if per_edge else np.empty(0, dtype=np.int64)
    tail = component_size_tail(sizes, max_size)
    exp_2c = float(np.mean(2.0 ** np.minimum(sizes, 60))) if sizes.size else float("nan")
    mu = 2.0 * m / n
    predicted_tail = edge_component_tail(mu, max_size) if mu < 1.0 else None
    try:
        predicted_2c = mean_two_pow_component(mu) if mu < 0.4 else float("nan")
    except Exception:
        predicted_2c = float("nan")
    for i in range(3, max_size + 1):
        bound = 4.0 ** (-(i - 2))
        measured = float(tail[i - 1])
        table.append(
            experiment=EXPERIMENT_ID,
            load=label,
            n=n,
            edges=m,
            size_i=i,
            pr_component_ge_i=measured,
            borel_prediction=(
                float(predicted_tail[i - 1]) if predicted_tail is not None else float("nan")
            ),
            lemma6_bound=bound,
            within_bound=measured <= bound,
            mean_2_pow_C=exp_2c,
            mean_2_pow_C_predicted=predicted_2c,
            samples=int(sizes.size),
        )


def run(scale: str = "small", *, seed: SeedLike = 0, workers: int | None = None) -> ResultsTable:
    cfg = pick_scale(_SCALES, scale)
    n, trials, max_size = cfg["n"], cfg["trials"], cfg["max_size"]
    table = ResultsTable()
    _tail_rows(
        table, "lemma (n/(4e^2))", n, int(n * _LEMMA_LOAD), trials, max_size, seed
    )
    # control: heavier load fattens the tail (the bound is load-specific)
    _tail_rows(table, "control (n/4)", n, n // 4, trials, max_size, seed)
    return table


@predicates
def check(table: ResultsTable):
    """Lemma 6's tail bound and a bounded E[2^|C|] hold at the lemma load only."""
    lemma = [r for r in table if r["load"].startswith("lemma")]
    yield "lemma load: pr_component_ge_i <= 1.5 * lemma6_bound", bool(lemma) and all(
        r["pr_component_ge_i"] <= 1.5 * r["lemma6_bound"] for r in lemma)
    yield "lemma load: mean_2_pow_C < 20", all(r["mean_2_pow_C"] < 20 for r in lemma)
    yield "the control load escapes the bound somewhere", any(
        not r["within_bound"] for r in table if r["load"].startswith("control"))
