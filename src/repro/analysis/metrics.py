"""Miss-count metrics and miss-rate curves.

Helpers shared by the experiments: sweeping a policy across cache sizes
(miss-rate curves), splitting cold-start transients from steady state,
and the per-window rate series used in heat-dissipation plots.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.base import CachePolicy, SimResult
from repro.errors import ConfigurationError
from repro.traces.base import Trace

__all__ = ["miss_rate_curve", "steady_state_miss_rate", "warmup_split"]


def miss_rate_curve(
    policy_factory: Callable[[int], CachePolicy],
    trace: Trace | np.ndarray,
    cache_sizes: Sequence[int],
) -> np.ndarray:
    """Miss rate of ``policy_factory(size)`` at each cache size.

    The factory is called once per size so each point gets a fresh policy
    instance (stateful policies must not leak across sizes).
    """
    sizes = list(cache_sizes)
    if not sizes:
        raise ConfigurationError("cache_sizes must be non-empty")
    rates = np.empty(len(sizes), dtype=np.float64)
    for i, size in enumerate(sizes):
        rates[i] = policy_factory(int(size)).run(trace).miss_rate
    return rates


def warmup_split(result: SimResult, warmup_fraction: float = 0.25) -> tuple[float, float]:
    """Miss rates of the warm-up prefix and the remaining steady suffix.

    Cold misses concentrate at the front of a trace; competitive statements
    concern sustained behaviour, so experiments usually report the suffix.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError(
            f"warmup_fraction must be in [0,1), got {warmup_fraction}"
        )
    total = result.num_accesses
    if total == 0:
        return float("nan"), float("nan")
    cut = int(total * warmup_fraction)
    head = result.hits[:cut]
    tail = result.hits[cut:]
    head_rate = float((~head).mean()) if head.size else float("nan")
    tail_rate = float((~tail).mean()) if tail.size else float("nan")
    return head_rate, tail_rate


def steady_state_miss_rate(result: SimResult, warmup_fraction: float = 0.25) -> float:
    """Miss rate after discarding the warm-up prefix."""
    return warmup_split(result, warmup_fraction)[1]
