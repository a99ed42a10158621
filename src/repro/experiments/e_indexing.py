"""Experiment INDEXING — why low-associativity designs hash at all.

Context for the paper's model: it assumes (semi-)uniform hashed
positions, whereas deployed hardware historically used *modulo* set
indexing (low address bits). This experiment shows the gap those hashes
close, on the classic kernels:

- a power-of-two **strided walk** (stride aligned to the set count):
  under modulo indexing every line maps to a handful of sets → thrash;
  under hashed/skewed indexing the same stream spreads uniformly;
- **column-major traversal** of a row-major matrix (the same pathology in
  its natural-program form);
- a **Zipf control** where modulo indexing is harmless (popular pages are
  scattered in address space).

Policies compared at identical capacity and associativity: modulo
set-assoc, hashed set-assoc, skewed-assoc (Seznec), 2-LRU (uniform
2-hash), and fully-associative LRU as the floor.
"""

from __future__ import annotations


from repro.core.assoc.d_lru import PLruCache
from repro.core.assoc.hashdist import ModuloSetHashes, SetAssociativeHashes, SkewedHashes
from repro.core.fully.lru import LRUCache
from repro.experiments.common import pick_scale, predicates
from repro.rng import SeedLike, derive_seed
from repro.sim.results import ResultsTable
from repro.traces.addresses import matrix_traversal, strided_walk
from repro.traces.synthetic import zipf_trace

__all__ = ["run", "check", "EXPERIMENT_ID"]

EXPERIMENT_ID = "INDEXING"

_SCALES = {
    "smoke": {"n": 512, "d": 4, "repeats": 30, "zipf_len": 60_000},
    "small": {"n": 2048, "d": 8, "repeats": 40, "zipf_len": 300_000},
    "full": {"n": 8192, "d": 8, "repeats": 60, "zipf_len": 1_000_000},
}


def _workloads(n: int, d: int, repeats: int, zipf_len: int, seed: int):
    num_sets = n // d
    line = 64
    # stride aligned to one full "row" of sets: every touched line lands in
    # set 0 under modulo indexing
    stride = line * num_sets
    yield (
        "strided(aligned)",
        strided_walk(2 * d, stride_bytes=stride, repeats=repeats, line_bytes=line),
    )
    yield (
        "strided(coprime)",
        strided_walk(
            2 * d * num_sets // 3 or 2 * d,
            stride_bytes=line * 3,
            repeats=max(1, repeats // 4),
            line_bytes=line,
        ),
    )
    cols = num_sets  # row stride == num_sets lines -> column walk aliases
    yield (
        "matrix(col-major)",
        matrix_traversal(4 * d, cols * (line // 8), order="col", repeats=max(1, repeats // 10), line_bytes=line),
    )
    yield ("zipf(control)", zipf_trace(8 * n, zipf_len, alpha=1.0, seed=derive_seed(seed, "z")))


def run(scale: str = "small", *, seed: SeedLike = 0, workers: int | None = None) -> ResultsTable:
    cfg = pick_scale(_SCALES, scale)
    n, d = cfg["n"], cfg["d"]
    table = ResultsTable()
    for workload, trace in _workloads(n, d, cfg["repeats"], cfg["zipf_len"], derive_seed(seed, "w")):
        designs = {
            "modulo-set": PLruCache(n, dist=ModuloSetHashes(n, d)),
            "hashed-set": PLruCache(n, dist=SetAssociativeHashes(n, d, seed=derive_seed(seed, "h"))),
            "skewed": PLruCache(n, dist=SkewedHashes(n, d, seed=derive_seed(seed, "s"))),
            "2-LRU(uniform)": PLruCache(n, d=2, seed=derive_seed(seed, "u")),
            "LRU(full)": LRUCache(n),
        }
        lru_rate = None
        for design, policy in designs.items():
            result = policy.run(trace)
            rate = result.miss_rate
            if design == "LRU(full)":
                lru_rate = rate
            table.append(
                experiment=EXPERIMENT_ID,
                workload=workload,
                design=design,
                n=n,
                d=d if design != "2-LRU(uniform)" else 2,
                distinct_lines=trace.num_distinct,
                miss_rate=rate,
            )
        # annotate relative-to-LRU in a second pass (LRU measured last)
        for row in table:
            if row["workload"] == workload and "vs_full_lru" not in row:
                row["vs_full_lru"] = float(row["miss_rate"] / max(lru_rate, 1e-12))
    return table


@predicates
def check(table: ResultsTable):
    """Modulo indexing melts on aligned strides; the index barely matters on Zipf."""
    by = {(r["workload"], r["design"]): r["miss_rate"] for r in table}
    aligned, matrix = "strided(aligned)", "matrix(col-major)"
    yield f"{aligned}: modulo-set > 5 * hashed-set", (
        by[aligned, "modulo-set"] > 5 * by[aligned, "hashed-set"])
    yield f"{matrix}: modulo-set > 3 * skewed", by[matrix, "modulo-set"] > 3 * by[matrix, "skewed"]
    zipf = [v for (w, _), v in by.items() if w == "zipf(control)"]
    yield "zipf(control): max miss_rate < 1.2 * min", max(zipf) < 1.2 * min(zipf)
