"""Tree-PLRU set-associative cache — the recency rule hardware really ships.

True LRU needs ``O(d log d)`` recency bits per set; actual CPU caches
(e.g. Intel's L1/L2) approximate it with **tree-PLRU**: a complete binary
tree of ``d − 1`` direction bits per set. On a hit/fill, the bits along
the root-to-way path are pointed *away* from the touched way; the victim
is found by *following* the bits from the root. One bit flips per level —
constant-ish work, ``d − 1`` bits of state.

Relevance to the paper: the Theorem-2 lower bound is proved for exact
`P`-LRU, and the folklore designs it indicts ship tree-PLRU. Including
it lets the T2 experiments check that the melt is not an artifact of
exact recency — tree-PLRU follows the same dance (it is within a small
factor of LRU on every workload we measure) and melts the same way.

``ways`` must be a power of two (the hardware constraint).
"""

from __future__ import annotations

from typing import Any


from repro.core.base import CachePolicy
from repro.errors import ConfigurationError
from repro.hashing import hash_to_range
from repro.rng import SeedLike, derive_seed

__all__ = ["TreePLRUCache"]

_EMPTY = -1


class TreePLRUCache(CachePolicy):
    """Set-associative cache with tree-PLRU replacement within each set."""

    def __init__(self, capacity: int, *, ways: int = 8, seed: SeedLike = 0):
        super().__init__(capacity)
        if ways < 2 or ways & (ways - 1):
            raise ConfigurationError(f"ways must be a power of two >= 2, got {ways}")
        if capacity % ways != 0:
            raise ConfigurationError(
                f"tree-PLRU layout needs ways | capacity, got {capacity} % {ways}"
            )
        self.ways = int(ways)
        self.num_sets = capacity // ways
        self._salt = derive_seed(seed, "treeplru")
        # per set: `ways` occupant slots and `ways - 1` tree bits laid out
        # heap-style (node 1 = root; children of i are 2i and 2i+1)
        self._slots: list[list[int]] = [[_EMPTY] * ways for _ in range(self.num_sets)]
        self._bits: list[list[int]] = [[0] * ways for _ in range(self.num_sets)]
        self._way_of: dict[int, int] = {}  # page -> set * ways + way

    @property
    def name(self) -> str:
        return f"tree-PLRU(w={self.ways})"

    def set_of(self, page: int) -> int:
        return int(hash_to_range(page, self.num_sets, salt=self._salt))

    # -- the tree ----------------------------------------------------------
    def _touch(self, set_idx: int, way: int) -> None:
        """Point every bit on the root→way path away from ``way``."""
        bits = self._bits[set_idx]
        node = 1
        lo, hi = 0, self.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                bits[node] = 1  # "go right next time"
                node = 2 * node
                hi = mid
            else:
                bits[node] = 0  # "go left next time"
                node = 2 * node + 1
                lo = mid
        # node bookkeeping only; bits array index 0 unused by construction

    def _victim_way(self, set_idx: int) -> int:
        """Follow the bits from the root to the pseudo-LRU way."""
        bits = self._bits[set_idx]
        node = 1
        lo, hi = 0, self.ways
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bits[node] == 0:
                node = 2 * node
                hi = mid
            else:
                node = 2 * node + 1
                lo = mid
        return lo

    # -- the policy ----------------------------------------------------------
    def access(self, page: int) -> bool:
        loc = self._way_of.get(page)
        if loc is not None:
            set_idx, way = divmod(loc, self.ways)
            self._touch(set_idx, way)
            return True
        set_idx = self.set_of(page)
        slots = self._slots[set_idx]
        try:
            way = slots.index(_EMPTY)  # fill an invalid way first (hardware rule)
        except ValueError:
            way = self._victim_way(set_idx)
            victim = slots[way]
            del self._way_of[victim]
        slots[way] = page
        self._way_of[page] = set_idx * self.ways + way
        self._touch(set_idx, way)
        return False

    def reset(self) -> None:
        for s in self._slots:
            for i in range(self.ways):
                s[i] = _EMPTY
        for b in self._bits:
            for i in range(self.ways):
                b[i] = 0
        self._way_of.clear()

    def contents(self) -> frozenset[int]:
        return frozenset(self._way_of)

    def __len__(self) -> int:
        return len(self._way_of)

    def _instrumentation(self) -> dict[str, Any]:
        return {"num_sets": self.num_sets, "ways": self.ways}
