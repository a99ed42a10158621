"""Theorem-4 proof tracer: check §5's lemmas on live simulations.

The HEAT-SINK analysis reasons about quantities that a simulation can
measure directly. This module runs fully-associative LRU (at the
theorem's ``(1−2ε)n``) and HEAT-SINK LRU side by side over a trace,
decomposes time into the proof's *phases* (segments in which LRU incurs
``εn`` misses), and for every phase computes the objects the lemmas
bound:

- ``A`` — pages resident in LRU's cache at the phase start; ``B`` — pages
  LRU misses during the phase (the proof's exact definitions);
- **hot/cool bins**: bin ``j`` is hot iff ``|{x ∈ A∪B : Bin(x)=j}| > b``;
- **Lemma 11** — the number of hot pages (claim: a vanishing ``ε^{ω(1)}n``
  fraction);
- **Lemma 10** — the number of *distinct cool pages* routed to the
  heat-sink during the phase (claim: ``O(ε²n)``);
- **Lemma 13** — HEAT-SINK's misses on hot pages (claim: ``ε^{ω(1)}n``
  per phase);
- the **bonus-point accounting** of the final proof: counts
  ``c₁₀`` (LRU miss, HEAT-SINK hit), ``c₀₁`` (LRU hit, HEAT-SINK miss),
  ``c₀₀`` (both miss), and the realized bonus supply (``c₁₀`` plus
  sink-routed misses), from which the theorem's inequality
  ``E[C] ≤ ε^{ω(1)}·C_LRU + (1+ε²)·C_LRU + O(ℓ/n)`` is checked
  numerically.

This is the strongest kind of reproduction a theory paper admits: not
just "the ratio comes out right" but *each intermediate quantity scales
as the proof says it must*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assoc.heatsink import HeatSinkLRU
from repro.core.fully.lru import LRUCache
from repro.errors import ConfigurationError
from repro.traces.base import Trace, as_page_array

__all__ = ["PhaseAccount", "Theorem4Trace", "trace_theorem4_accounting"]


@dataclass(frozen=True)
class PhaseAccount:
    """Measured quantities of one proof phase ``W``."""

    index: int
    start: int
    stop: int
    lru_misses: int
    num_bins: int
    num_hot_bins: int
    working_pages: int  #: |A ∪ B|
    hot_pages: int  #: Lemma 11's Q
    hs_misses: int
    hs_misses_on_hot: int  #: Lemma 13's subject
    hs_misses_on_cool: int
    distinct_cool_to_sink: int  #: Lemma 10's k
    c10: int  #: LRU miss, HEAT-SINK hit (earns a bonus point)
    c01: int  #: LRU hit, HEAT-SINK miss
    c00: int  #: both miss
    sink_routed_misses: int

    @property
    def hot_page_fraction(self) -> float:
        return self.hot_pages / max(1, self.working_pages)

    @property
    def length(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class Theorem4Trace:
    """Whole-run accounting plus the per-phase breakdown."""

    phases: list[PhaseAccount]
    epsilon: float
    n: int
    trace_length: int
    hs_total_misses: int
    lru_total_misses: int
    c10: int
    c01: int
    c00: int
    sink_routed_misses: int

    @property
    def bonus_points(self) -> int:
        """Realized bonus supply: LRU-miss/HS-hit events plus sink routings."""
        return self.c10 + self.sink_routed_misses

    @property
    def additive_scale(self) -> float:
        return self.trace_length / max(1, self.n)

    @property
    def miss_ratio(self) -> float:
        return self.hs_total_misses / max(1, self.lru_total_misses)

    def theorem_inequality_satisfied(self, slack: float = 0.0) -> bool:
        """Check ``C_HS ≤ (1 + ε + slack)·C_LRU + O(ℓ/n)`` numerically.

        Uses an O(·) constant of 4 on the additive term (the paper leaves
        the constant unoptimized; 4 covers every configuration we ship).
        """
        budget = (1.0 + self.epsilon + slack) * self.lru_total_misses
        return self.hs_total_misses <= budget + 4.0 * self.additive_scale


def trace_theorem4_accounting(
    trace: Trace | np.ndarray,
    *,
    nominal_size: int,
    epsilon: float,
    seed: int = 0,
    heatsink: HeatSinkLRU | None = None,
) -> Theorem4Trace:
    """Run the side-by-side accounting described in the module docstring.

    Parameters
    ----------
    trace:
        The access sequence.
    nominal_size:
        The theorem's ``n``; HEAT-SINK runs at ``(1+ε)n`` (via
        :meth:`HeatSinkLRU.from_epsilon`) and LRU at ``(1−2ε)n``.
    heatsink:
        Optional pre-built HEAT-SINK instance (must cover the same
        nominal size); used by ablations that trace non-default knobs.
    """
    if not 0.0 < epsilon < 0.5:
        raise ConfigurationError(
            f"epsilon must be in (0, 0.5) for a meaningful (1-2eps)n, got {epsilon}"
        )
    pages = as_page_array(trace)
    if pages.size == 0:
        raise ConfigurationError("cannot trace an empty access sequence")
    n = int(nominal_size)

    hs = heatsink if heatsink is not None else HeatSinkLRU.from_epsilon(n, epsilon, seed=seed)
    lru = LRUCache(max(1, int((1 - 2 * epsilon) * n)))

    # ---- pass 1: LRU with phase boundaries and A-snapshots ----------------
    misses_per_phase = max(1, int(round(epsilon * n)))
    lru_hits = np.empty(pages.size, dtype=bool)
    boundaries: list[int] = [0]
    snapshots: list[frozenset[int]] = [frozenset()]
    miss_count = 0
    lru.reset()
    access = lru.access
    for i, page in enumerate(pages.tolist()):
        hit = access(page)
        lru_hits[i] = hit
        if not hit:
            miss_count += 1
            if miss_count == misses_per_phase and i + 1 < pages.size:
                boundaries.append(i + 1)
                snapshots.append(lru.contents())
                miss_count = 0
    boundaries.append(pages.size)

    # ---- pass 2: HEAT-SINK with routing recorder ---------------------------
    hs.reset()
    recorder: list[int] = []
    hs.attach_recorder(recorder)
    try:
        hs.prefetch_hashes(pages)
        hs_access = hs.access
        for page in pages.tolist():
            hs_access(page)
    finally:
        hs.attach_recorder(None)
    routing = np.asarray(recorder, dtype=np.int8)  # 1 hit, 0 bin-miss, -1 sink-miss
    hs_hits = routing == 1

    # ---- per-phase accounting ----------------------------------------------
    b = hs.bin_size
    phases: list[PhaseAccount] = []
    for k in range(len(boundaries) - 1):
        start, stop = boundaries[k], boundaries[k + 1]
        window_pages = pages[start:stop]
        window_lru_hits = lru_hits[start:stop]
        window_routing = routing[start:stop]

        a_set = snapshots[k]
        b_set = frozenset(window_pages[~window_lru_hits].tolist())
        working = np.asarray(sorted(a_set | b_set), dtype=np.int64)

        # bin loads over A ∪ B via the heat-sink's own Bin(x)
        bins_of = np.asarray([hs.bin_of(int(p)) for p in working.tolist()])
        loads = np.bincount(bins_of, minlength=hs.num_bins)
        hot_bins = np.flatnonzero(loads > b)
        hot_bin_set = set(hot_bins.tolist())
        page_is_hot = {
            int(p): (int(bi) in hot_bin_set) for p, bi in zip(working.tolist(), bins_of.tolist())
        }

        hs_miss_mask = window_routing != 1
        miss_pages = window_pages[hs_miss_mask]
        miss_routes = window_routing[hs_miss_mask]
        hot_flags = np.asarray(
            [page_is_hot.get(int(p), False) for p in miss_pages.tolist()], dtype=bool
        )
        cool_sink_pages = {
            int(p)
            for p, r, h in zip(miss_pages.tolist(), miss_routes.tolist(), hot_flags.tolist())
            if r == -1 and not h
        }

        c10 = int(((~window_lru_hits) & (window_routing == 1)).sum())
        c01 = int((window_lru_hits & (window_routing != 1)).sum())
        c00 = int(((~window_lru_hits) & (window_routing != 1)).sum())

        phases.append(
            PhaseAccount(
                index=k,
                start=start,
                stop=stop,
                lru_misses=int((~window_lru_hits).sum()),
                num_bins=hs.num_bins,
                num_hot_bins=int(hot_bins.size),
                working_pages=int(working.size),
                hot_pages=int(sum(page_is_hot.values())),
                hs_misses=int(hs_miss_mask.sum()),
                hs_misses_on_hot=int(hot_flags.sum()),
                hs_misses_on_cool=int((~hot_flags).sum()),
                distinct_cool_to_sink=len(cool_sink_pages),
                c10=c10,
                c01=c01,
                c00=c00,
                sink_routed_misses=int((window_routing == -1).sum()),
            )
        )

    return Theorem4Trace(
        phases=phases,
        epsilon=epsilon,
        n=n,
        trace_length=int(pages.size),
        hs_total_misses=int((routing != 1).sum()),
        lru_total_misses=int((~lru_hits).sum()),
        c10=sum(p.c10 for p in phases),
        c01=sum(p.c01 for p in phases),
        c00=sum(p.c00 for p in phases),
        sink_routed_misses=int((routing == -1).sum()),
    )
