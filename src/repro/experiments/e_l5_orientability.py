"""Experiment L5-ORIENT — orientability of the cuckoo graph (Lemma 5, Cor 2).

**Paper claim.** A random multigraph with ``n`` vertices and ``n/β``
uniform edges (``β > 2``) is 1-orientable — every page can claim a
distinct slot — with probability ``1 − O(1/n)`` (Lemma 5), sharpening to
``1 − O(1/(βn))`` for super-constant β (Corollary 2).

**What we measure.** Monte-Carlo failure probability across a (β, n)
grid, plus the scaled products ``fail·n`` and ``fail·β·n`` whose
boundedness across the grid is the lemma/corollary shape. A β < 2 row is
included as a control: beyond the 2-core threshold the failure
probability must shoot toward 1.
"""

from __future__ import annotations

from repro.experiments.common import pick_scale, predicates
from repro.graphtools.orientation import orientability_probability
from repro.rng import SeedLike, derive_seed
from repro.sim.results import ResultsTable

__all__ = ["run", "check", "EXPERIMENT_ID"]

EXPERIMENT_ID = "L5-ORIENT"

_SCALES = {
    "smoke": {"ns": [256, 512], "betas": [1.5, 2.5, 4.0], "trials": 100},
    "small": {"ns": [256, 512, 1024, 2048], "betas": [1.5, 2.2, 2.5, 3.0, 4.0, 8.0], "trials": 400},
    "full": {"ns": [512, 1024, 2048, 4096, 8192], "betas": [1.5, 2.05, 2.2, 2.5, 3.0, 4.0, 8.0, 16.0], "trials": 2000},
}


def run(scale: str = "small", *, seed: SeedLike = 0, workers: int | None = None) -> ResultsTable:
    cfg = pick_scale(_SCALES, scale)
    table = ResultsTable()
    for n in cfg["ns"]:
        for beta in cfg["betas"]:
            m = int(n / beta)
            p = orientability_probability(
                n, m, trials=cfg["trials"], seed=derive_seed(seed, "orient", n, int(beta * 100))
            )
            fail = 1.0 - p
            table.append(
                experiment=EXPERIMENT_ID,
                n=n,
                beta=beta,
                edges=m,
                trials=cfg["trials"],
                pr_orientable=p,
                pr_fail=fail,
                fail_times_n=fail * n,
                fail_times_beta_n=fail * beta * n,
                in_lemma_regime=beta > 2.0,
            )
    return table


@predicates
def check(table: ResultsTable):
    """Orientable inside the lemma regime, collapsed well below it."""
    yield "lemma regime: pr_orientable >= 0.9", all(
        r["pr_orientable"] >= 0.9 for r in table if r["in_lemma_regime"])
    yield "beta <= 1.6: pr_orientable <= 0.3", all(
        r["pr_orientable"] <= 0.3 for r in table if r["beta"] <= 1.6)
