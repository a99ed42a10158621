"""Working-set and phase-change workloads.

The HEAT-SINK analysis (§5) decomposes time into *phases* in which LRU
incurs ``εn`` misses; workloads whose active working set shifts over time
are exactly the ones that create transient "hot bins" a low-associativity
cache must dissipate. These generators produce such workloads with
controllable phase length, working-set size, and inter-phase overlap.
"""

from __future__ import annotations


import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng
from repro.traces.base import Trace

__all__ = ["working_set_trace", "phase_change_trace"]


def working_set_trace(
    working_set_size: int,
    length: int,
    *,
    locality: float = 0.9,
    universe: int | None = None,
    seed: SeedLike = None,
) -> Trace:
    """Accesses concentrated on a fixed working set with occasional escapes.

    With probability ``locality`` each access is uniform over the working
    set ``{0 … working_set_size-1}``; otherwise it is uniform over the rest
    of a larger universe. This is the textbook "90/10"-style model: a
    cache holding the working set should achieve hit rate ≈ ``locality``.
    """
    if not 0.0 <= locality <= 1.0:
        raise ConfigurationError(f"locality must be in [0,1], got {locality}")
    if working_set_size <= 0 or length <= 0:
        raise ConfigurationError("working_set_size and length must be positive")
    if universe is None:
        universe = working_set_size * 16
    if universe < working_set_size:
        raise ConfigurationError("universe must be at least working_set_size")
    rng = make_rng(seed)
    inside = rng.random(length) < locality
    pages = np.empty(length, dtype=np.int64)
    pages[inside] = rng.integers(0, working_set_size, size=int(inside.sum()))
    cold = universe - working_set_size
    if cold > 0:
        pages[~inside] = working_set_size + rng.integers(
            0, cold, size=int((~inside).sum())
        )
    else:
        pages[~inside] = rng.integers(0, working_set_size, size=int((~inside).sum()))
    return Trace(
        pages,
        name="working_set",
        params={
            "working_set_size": working_set_size,
            "length": length,
            "locality": locality,
            "universe": universe,
        },
    )


def phase_change_trace(
    phase_working_set: int,
    phase_length: int,
    num_phases: int,
    *,
    overlap: float = 0.0,
    locality: float = 1.0,
    zipf_alpha: float | None = None,
    seed: SeedLike = None,
) -> Trace:
    """A sequence of phases, each with its own working set.

    Each phase accesses a working set of ``phase_working_set`` pages for
    ``phase_length`` accesses; consecutive phases share an ``overlap``
    fraction of their pages. A phase transition forces any policy to fault
    in the new working set — the regime where HEAT-SINK LRU's per-miss coin
    flips migrate load away from bins that the new set overloads.

    Parameters
    ----------
    overlap:
        Fraction in ``[0, 1)`` of each phase's pages carried over from the
        previous phase.
    locality:
        Within-phase locality: probability that an access stays in the
        phase's working set (the rest are cold, never-reused pages).
    zipf_alpha:
        If given, accesses within a phase follow a Zipf(``alpha``) law over
        the working set instead of uniform.
    """
    if phase_working_set <= 0 or phase_length <= 0 or num_phases <= 0:
        raise ConfigurationError("phase parameters must be positive")
    if not 0.0 <= overlap < 1.0:
        raise ConfigurationError(f"overlap must be in [0,1), got {overlap}")
    if not 0.0 < locality <= 1.0:
        raise ConfigurationError(f"locality must be in (0,1], got {locality}")
    rng = make_rng(seed)
    carried = int(round(overlap * phase_working_set))
    fresh = phase_working_set - carried

    if zipf_alpha is not None:
        weights = np.arange(1, phase_working_set + 1, dtype=np.float64) ** (-zipf_alpha)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
    else:
        cdf = None

    next_page = 0
    cold_page_base = None  # assigned after all phase pages are known
    phase_sets: list[np.ndarray] = []
    current: np.ndarray | None = None
    for _ in range(num_phases):
        if current is None:
            current = np.arange(next_page, next_page + phase_working_set, dtype=np.int64)
            next_page += phase_working_set
        else:
            keep = rng.choice(current, size=carried, replace=False) if carried else np.empty(0, dtype=np.int64)
            new = np.arange(next_page, next_page + fresh, dtype=np.int64)
            next_page += fresh
            current = np.concatenate([keep, new])
        phase_sets.append(current)
    cold_page_base = next_page

    chunks: list[np.ndarray] = []
    cold_cursor = cold_page_base
    for pages_in_phase in phase_sets:
        if cdf is not None:
            idx = np.searchsorted(cdf, rng.random(phase_length), side="left")
            accesses = pages_in_phase[rng.permutation(phase_working_set)[idx]]
        else:
            accesses = pages_in_phase[rng.integers(0, phase_working_set, size=phase_length)]
        if locality < 1.0:
            escapes = rng.random(phase_length) >= locality
            n_escape = int(escapes.sum())
            accesses = accesses.copy()
            accesses[escapes] = np.arange(cold_cursor, cold_cursor + n_escape, dtype=np.int64)
            cold_cursor += n_escape
        chunks.append(accesses)
    pages = np.concatenate(chunks)
    return Trace(
        pages,
        name="phase_change",
        params={
            "phase_working_set": phase_working_set,
            "phase_length": phase_length,
            "num_phases": num_phases,
            "overlap": overlap,
            "locality": locality,
            "zipf_alpha": zipf_alpha,
        },
    )
