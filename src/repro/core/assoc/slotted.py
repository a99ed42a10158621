"""Shared machinery for slot-addressed (low-associativity) caches.

All d-associative policies share the same physical model: ``n`` numbered
slots, a page resident in at most one slot, and per-page eligible
positions supplied by a :class:`~repro.core.assoc.hashdist.HashDistribution`.
:class:`SlottedCache` implements that model once — slot state, the
page→slot index, per-slot eviction counters (the raw signal behind the
heat analyses), hash-tuple caching and batch prefetch — and leaves a
single decision to subclasses: *which eligible slot takes the incoming
page* (:meth:`SlottedCache._choose_slot`).

Performance note (profile-driven, per the HPC guides): hashes are
computed **vectorized in batch** (`prefetch_hashes`), but the per-access
state lives in plain Python lists and position tuples — at ``d ≤ ~64``
elements, NumPy scalar indexing costs more than it saves, and switching
the inner loop to lists roughly triples simulation throughput.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.core.base import CachePolicy
from repro.core.assoc.hashdist import HashDistribution, UniformHashes
from repro.errors import ConfigurationError
from repro.rng import SeedLike
from repro.traces.base import Trace, as_page_array

__all__ = ["SlottedCache"]

#: sentinel page id for an empty slot
EMPTY = -1


class SlottedCache(CachePolicy):
    """Base class for d-associative caches over explicit slots.

    Parameters
    ----------
    capacity:
        Number of slots ``n``.
    dist:
        The hash distribution assigning eligible positions. If omitted, a
        :class:`UniformHashes` distribution with associativity ``d`` and
        salt derived from ``seed`` is used (the paper's default flavour).
    d:
        Associativity for the default distribution (ignored when ``dist``
        is given).
    seed:
        Salt for the default distribution.
    """

    def __init__(
        self,
        capacity: int,
        *,
        dist: HashDistribution | None = None,
        d: int = 2,
        seed: SeedLike = 0,
    ):
        super().__init__(capacity)
        if dist is None:
            dist = UniformHashes(capacity, d, seed=seed)
        if dist.n != capacity:
            raise ConfigurationError(
                f"hash distribution covers {dist.n} slots but cache has {capacity}"
            )
        self.dist = dist
        self.d = dist.d
        # plain lists: the per-access path reads/writes scalar slots only
        self._slot_page: list[int] = [EMPTY] * capacity
        self._slot_time: list[int] = [0] * capacity  # last access
        self._slot_birth: list[int] = [0] * capacity  # install time
        self._evictions: list[int] = [0] * capacity
        self._pos_of: dict[int, int] = {}
        self._clock = 0
        self._hash_cache: dict[int, tuple[int, ...]] = {}

    # -- subclass decision point --------------------------------------------
    @abc.abstractmethod
    def _choose_slot(self, page: int, positions: tuple[int, ...]) -> int:
        """Pick the slot (one of ``positions``) that receives a missing page."""

    # -- shared mechanics ----------------------------------------------------
    def _positions(self, page: int) -> tuple[int, ...]:
        pos = self._hash_cache.get(page)
        if pos is None:
            row = self.dist.positions_batch(np.asarray([page], dtype=np.int64))[0]
            pos = tuple(int(v) for v in row)
            self._hash_cache[page] = pos
        return pos

    def prefetch_hashes(self, trace: Trace | np.ndarray) -> None:
        """Vectorized hash computation for all distinct pages of a trace.

        Amortizes hashing across the run; :meth:`run` calls this
        automatically, but long-lived interactive users may call it
        directly before a sequence of :meth:`access` calls.
        """
        pages = as_page_array(trace)
        unique = np.unique(pages)
        missing = np.asarray(
            [p for p in unique.tolist() if p not in self._hash_cache], dtype=np.int64
        )
        if missing.size == 0:
            return
        rows = self.dist.positions_batch(missing)
        cache = self._hash_cache
        for i, page in enumerate(missing.tolist()):
            cache[page] = tuple(int(v) for v in rows[i])

    def access(self, page: int) -> bool:
        self._clock += 1
        pos = self._pos_of.get(page)
        if pos is not None:
            self._slot_time[pos] = self._clock
            self._on_hit(page, pos)
            return True
        positions = self._positions(page)
        target = self._choose_slot(page, positions)
        victim = self._slot_page[target]
        if victim != EMPTY:
            del self._pos_of[victim]
            self._evictions[target] += 1
        self._slot_page[target] = page
        self._slot_time[target] = self._clock
        self._slot_birth[target] = self._clock
        self._pos_of[page] = target
        return False

    def _on_hit(self, page: int, pos: int) -> None:
        """Hook for subclasses that track extra per-hit state."""

    def _prepare_run(self, pages: np.ndarray) -> None:
        self.prefetch_hashes(pages)

    def reset(self) -> None:
        n = self.capacity
        self._slot_page = [EMPTY] * n
        self._slot_time = [0] * n
        self._slot_birth = [0] * n
        self._evictions = [0] * n
        self._pos_of.clear()
        self._clock = 0
        # the hash cache is *kept*: hashes are per-page constants

    def contents(self) -> frozenset[int]:
        return frozenset(self._pos_of)

    def __len__(self) -> int:
        return len(self._pos_of)

    # -- diagnostics ----------------------------------------------------------
    def slot_of(self, page: int) -> int | None:
        """Current slot of ``page`` (``None`` if not resident)."""
        return self._pos_of.get(page)

    def slot_pages(self) -> np.ndarray:
        """Snapshot of per-slot occupants (``EMPTY`` = -1) as an array."""
        return np.asarray(self._slot_page, dtype=np.int64)

    def occupancy(self) -> float:
        """Fraction of slots currently holding a page."""
        return len(self._pos_of) / self.capacity

    def eviction_counts(self) -> np.ndarray:
        """Per-slot eviction counts since the last reset (heat signal)."""
        return np.asarray(self._evictions, dtype=np.int64)

    def _instrumentation(self) -> dict[str, Any]:
        return {
            "slot_evictions": self.eviction_counts(),
            "occupancy": self.occupancy(),
        }
