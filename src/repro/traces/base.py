"""Trace container and validation.

Traces are stored as contiguous ``int64`` NumPy arrays of non-negative page
ids. The :class:`Trace` class is a thin, immutable wrapper adding metadata
(a human-readable name and the generator parameters) without getting in the
way of vectorized consumers: every simulation entry point accepts either a
:class:`Trace` or a bare array via :func:`as_page_array`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import TraceError

__all__ = ["Trace", "as_page_array", "as_page_block", "concat_traces", "trace_stats"]

#: elements converted per block when iterating a Trace element-wise
_ITER_BLOCK = 65_536


def _check_pages(pages: np.ndarray) -> np.ndarray:
    if pages.ndim != 1:
        raise TraceError(f"trace must be one-dimensional, got shape {pages.shape}")
    if pages.size and int(pages.min()) < 0:
        raise TraceError("trace contains negative page ids")
    return pages


def _validate_pages(pages: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(_check_pages(pages), dtype=np.int64)


def as_page_array(trace: "Trace | np.ndarray | Sequence[int]") -> np.ndarray:
    """Coerce any accepted trace representation to a validated int64 array."""
    if isinstance(trace, Trace):
        return trace.pages
    arr = np.asarray(trace)
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f" and arr.size and not np.all(arr == np.floor(arr)):
            raise TraceError("trace contains non-integer page ids")
        arr = arr.astype(np.int64)
    return _validate_pages(arr.astype(np.int64, copy=False))


def as_page_block(trace: "Trace | np.ndarray | Sequence[int]") -> np.ndarray:
    """Validate like :func:`as_page_array`, but without the widening copy.

    An array whose dtype ``int64`` holds exactly (any signed integer,
    unsigned up to 32 bits, bool) comes back as it is, so a caller that
    widens into a buffer of its own copies the pages once. Anything else
    goes through :func:`as_page_array` and comes back as ``int64``.
    """
    arr = trace.pages if isinstance(trace, Trace) else np.asarray(trace)
    if np.can_cast(arr.dtype, np.int64):
        return _check_pages(arr)
    return as_page_array(arr)


@dataclass(frozen=True)
class Trace:
    """An immutable access trace with provenance metadata.

    Parameters
    ----------
    pages:
        The access sequence as a 1-D ``int64`` array of page ids (``>= 0``).
    name:
        Short identifier of the generating workload family.
    params:
        Generator parameters, kept for experiment provenance and persisted
        alongside the pages by :func:`repro.traces.io.save_trace`.
    """

    pages: np.ndarray
    name: str = "trace"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validated = _validate_pages(np.asarray(self.pages, dtype=np.int64))
        validated.setflags(write=False)
        object.__setattr__(self, "pages", validated)
        object.__setattr__(self, "params", dict(self.params))

    def __len__(self) -> int:
        return int(self.pages.size)

    def __iter__(self) -> Iterator[int]:
        # chunked .tolist(): iterating a multi-million-access trace must
        # cost O(block) memory, not one Python int per element up front
        pages = self.pages
        for lo in range(0, pages.size, _ITER_BLOCK):
            yield from pages[lo : lo + _ITER_BLOCK].tolist()

    def __getitem__(self, idx: int | slice) -> "int | Trace":
        if isinstance(idx, slice):
            return Trace(self.pages[idx], name=self.name, params=self.params)
        return int(self.pages[idx])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.name == other.name
            and len(self) == len(other)
            and bool(np.array_equal(self.pages, other.pages))
        )

    @property
    def num_distinct(self) -> int:
        """Number of distinct pages accessed (the paper's working set)."""
        return int(np.unique(self.pages).size) if len(self) else 0

    @property
    def max_page(self) -> int:
        """Largest page id in the trace (``-1`` for an empty trace)."""
        return int(self.pages.max()) if len(self) else -1

    def with_name(self, name: str, **extra_params: Any) -> "Trace":
        """Return a copy with a new name and merged parameters."""
        return Trace(self.pages, name=name, params={**self.params, **extra_params})

    def remapped(self) -> "Trace":
        """Return a trace with pages densely renumbered to ``0..k-1``.

        Preserves the access pattern exactly (same hit/miss behaviour under
        any policy whose hashes are drawn fresh) while normalizing the id
        space, which keeps downstream hash tables small.
        """
        _, inverse = np.unique(self.pages, return_inverse=True)
        return Trace(inverse.astype(np.int64), name=self.name, params=dict(self.params))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(name={self.name!r}, length={len(self)}, "
            f"distinct={self.num_distinct})"
        )


def concat_traces(traces: Iterable[Trace | np.ndarray], name: str = "concat") -> Trace:
    """Concatenate traces in order into a single :class:`Trace`."""
    arrays = [as_page_array(t) for t in traces]
    if not arrays:
        return Trace(np.empty(0, dtype=np.int64), name=name)
    return Trace(np.concatenate(arrays), name=name, params={"segments": len(arrays)})


def trace_stats(trace: Trace | np.ndarray) -> dict[str, float]:
    """Summary statistics of a trace used in experiment reports.

    Returns length, distinct-page count, reuse fraction (accesses that are
    re-references), and the mean/median LRU reuse distance over re-references
    (``inf``-free: first accesses are excluded).
    """
    pages = as_page_array(trace)
    length = int(pages.size)
    if length == 0:
        return {
            "length": 0,
            "distinct": 0,
            "reuse_fraction": 0.0,
            "mean_reuse_gap": float("nan"),
            "median_reuse_gap": float("nan"),
        }
    distinct = int(np.unique(pages).size)
    # index of previous occurrence of each page, vectorized via argsort trick
    order = np.argsort(pages, kind="stable")
    sorted_pages = pages[order]
    same_as_prev = np.empty(length, dtype=bool)
    same_as_prev[0] = False
    same_as_prev[1:] = sorted_pages[1:] == sorted_pages[:-1]
    prev_index = np.full(length, -1, dtype=np.int64)
    prev_index[order[1:]] = np.where(same_as_prev[1:], order[:-1], -1)
    gaps = np.arange(length, dtype=np.int64) - prev_index
    reuse_mask = prev_index >= 0
    reuse_gaps = gaps[reuse_mask]
    return {
        "length": length,
        "distinct": distinct,
        "reuse_fraction": float(reuse_mask.mean()),
        "mean_reuse_gap": float(reuse_gaps.mean()) if reuse_gaps.size else float("nan"),
        "median_reuse_gap": float(np.median(reuse_gaps)) if reuse_gaps.size else float("nan"),
    }
