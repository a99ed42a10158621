"""Trace-level vectorized kernels: hit-runs cost zero per-access work.

The per-access kernels (:mod:`~repro.sim.kernels.heatsink`,
:mod:`~repro.sim.kernels.slotted`) still step one access at a time from
Python. This module removes the interpreter from the *hit path* entirely
by exploiting two structural facts about the kernelized policies:

- a hit never changes which pages are resident — it only reorders
  recency state (intra-bin LRU stacks, slot timestamps), and for the
  2-random sink and d-RANDOM it changes nothing at all;
- recency is a pure function of *last occurrence position*, so it can be
  reconstructed lazily with one vectorized fancy assignment per miss-run
  instead of one dict/list write per hit.

The scan engine (:func:`_scan`) walks the trace in chunks. Per chunk it
probes residency for every access in one vectorized gather
(``resident[sub]``) and collects the non-resident positions — the *miss
candidates*. Hits between candidates are never touched again. Candidates
are processed in trace order through a per-policy miss handler (the same
coin/hash/eviction semantics as the per-access kernels, bit for bit);
each eviction re-arms candidacy for the victim's future occurrences
within the chunk via a small heap, so a page evicted mid-chunk correctly
misses on its next appearance even though the probe saw it as resident.

Recency bookkeeping is an ``eff`` array of *effective access keys*: the
access at trace position ``i`` has key ``base + i + 1`` (the reference
policies' logical clock, which assigns one unique value per access), and
state imported from before the run gets synthetic keys ``< base + 1``
that preserve the imported recency order. Keys are therefore globally
distinct, so LRU victim selection (min over a bin / slot row) and the
export-time rebuild of insertion-ordered bin dicts are deterministic and
exactly match the reference tie-breaks. The lazy fold
``eff[toks[fp:i]] = arange(...)`` is a last-write-wins fancy assignment —
precisely "key of the last occurrence" — applied in ``CHUNK``-sized
blocks (:func:`_fold`), so no kernel temporary grows with the trace.

Miss-heavy stretches would make the scan pointless (every access is a
candidate, and each eviction pays an O(chunk) occurrence search), so two
guards bound the worst case:

- the **adaptive driver** runs the per-access kernel over a short probe
  prefix and only enters trace-level mode when the probe's steady-state
  miss rate is below ``MISS_THRESHOLD``;
- each chunk **bails out** if more than ``BAIL_FRAC`` of its accesses are
  candidates: the scan exports its exact state at the chunk boundary and
  the driver delegates the remainder to the per-access kernel — a legal
  ``reset=False`` continuation, because every kernel hands back identical
  policy state and coin-stream position at any access boundary.

The module-level knobs are deliberately plain attributes so tests can
shrink them and exercise the probe/bail/stitch machinery on small traces.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from repro.core.assoc.d_lru import PLruCache
from repro.core.assoc.d_random import DRandomCache
from repro.core.assoc.heatsink import _EMPTY, HeatSinkLRU
from repro.core.assoc.set_assoc import SetAssociativeLRU
from repro.core.assoc.slotted import EMPTY, SlottedCache
from repro.core.base import SimResult
from repro.hashing import hash_to_range
from repro.sim.kernels.heatsink import run_heatsink, supports_heatsink
from repro.sim.kernels.pagemap import token_space
from repro.sim.kernels.registry import Kernel, register
from repro.sim.kernels.slotted import (
    run_drandom,
    run_plru,
    supports_drandom,
    supports_slotted,
)
from repro.sim.kernels.streams import remaining_tail

__all__ = [
    "run_heatsink_auto",
    "run_plru_auto",
    "run_drandom_auto",
    "scan_heatsink",
    "scan_plru",
    "scan_drandom",
]

#: accesses run through the per-access kernel to estimate the miss rate
PROBE = 16_384
#: traces shorter than this skip the probe entirely (per-access kernel);
#: keeps serving-sized batches (<= 4096 keys) off the probe machinery
MIN_TRACE = 4 * PROBE
#: probe steady-state miss rate above which trace-level mode is skipped
MISS_THRESHOLD = 0.15
#: accesses per residency-probe chunk
CHUNK = 8_192
#: candidate fraction within a chunk that triggers the bail-out
BAIL_FRAC = 0.25

_CHUNK_COINS = 1 << 16  # uniform-stream refill size (matches per-access kernels)


# -- the scan engine -----------------------------------------------------------

def _fold(eff: np.ndarray, toks_arr: np.ndarray, lo: int, hi: int, base: int) -> None:
    """Give the tokens at positions ``[lo, hi)`` their recency keys
    ``base + i + 1``: ``eff[toks_arr[lo:hi]] = arange(...)`` in blocks of at
    most ``CHUNK``, so the key temporary stays O(``CHUNK``) however long the
    span. Blocks go in trace order, so the last occurrence still wins."""
    for a in range(lo, hi, CHUNK):
        b = min(a + CHUNK, hi)
        eff[toks_arr[a:b]] = np.arange(base + a + 1, base + b + 1, dtype=np.int64)


def _scan(
    toks_arr: np.ndarray,
    resident: np.ndarray,
    on_miss: Callable[[int, int], int],
) -> int:
    """Chunked hit-run scan; returns the number of accesses consumed.

    ``on_miss(i, t)`` handles the true miss of token ``t`` at trace
    position ``i`` (coins, marks, placement) and returns the evicted
    token, or ``-1`` when the placement filled an empty slot. The engine
    owns the ``resident`` array: it sets the installed token, clears the
    victim, and re-arms the victim's remaining occurrences in the chunk.

    A return value short of ``toks_arr.size`` is the bail-out: the chunk
    starting there exceeded the candidate budget and was not processed.
    """
    n = toks_arr.size
    pos = 0
    while pos < n:
        end = min(pos + CHUNK, n)
        sub = toks_arr[pos:end]
        cand = np.flatnonzero(~resident[sub])
        if cand.size > BAIL_FRAC * (end - pos):
            return pos
        base_cands = cand.tolist()
        nb = len(base_cands)
        bi = 0
        heap: list[int] = []  # re-armed occurrences of evicted tokens
        last = -1
        while bi < nb or heap:
            if heap and (bi >= nb or heap[0] < base_cands[bi]):
                ci = heapq.heappop(heap)
            else:
                ci = base_cands[bi]
                bi += 1
            if ci <= last:
                continue  # duplicate re-arm for an already-processed position
            t = int(sub[ci])
            if resident[t]:
                continue  # installed earlier in this chunk -> actually a hit
            last = ci
            victim = on_miss(pos + ci, t)
            resident[t] = True
            if victim >= 0:
                resident[victim] = False
                for occ in np.flatnonzero(sub[ci + 1 :] == victim).tolist():
                    heapq.heappush(heap, ci + 1 + occ)
        pos = end
    return n


# -- HEAT-SINK ----------------------------------------------------------------

def scan_heatsink(p: HeatSinkLRU, pages: np.ndarray) -> tuple[np.ndarray, int]:
    """Trace-level scan for :class:`HeatSinkLRU`; returns ``(hits, consumed)``.

    Bins are sets during the scan — order lives in ``eff`` — and are
    rebuilt as recency-ordered dicts at export. The coin stream, marks
    encoding, and post-hoc instrumentation derivation are byte-identical
    to :func:`~repro.sim.kernels.heatsink.run_heatsink`.
    """
    toks_arr, ids, enc, dec, num_tokens = token_space(pages, p._loc)
    num_bins = p.num_bins
    bsize = p.bin_size
    sink_size = p.sink_size
    sp = p.sink_prob

    binh = np.asarray(hash_to_range(ids, num_bins, salt=p._bin_salt), dtype=np.int64)
    s1 = np.asarray(hash_to_range(ids, sink_size, salt=p._sink_salts[0]), dtype=np.int64)
    s2 = np.asarray(hash_to_range(ids, sink_size, salt=p._sink_salts[1]), dtype=np.int64)

    # -- import state: residency + synthetic recency keys ---------------------
    resident = np.zeros(num_tokens, dtype=bool)
    eff = np.zeros(num_tokens, dtype=np.int64)
    imported = sum(len(b) for b in p._bins)
    bins: list[set[int]] = []
    seq = -imported  # keys < 1 (any trace key), ascending in dict (LRU) order
    for b in p._bins:
        s: set[int] = set()
        for pg in b:
            t = enc[pg]
            s.add(t)
            resident[t] = True
            eff[t] = seq
            seq += 1
        bins.append(s)
    fills0 = [len(s) for s in bins]
    sinkp = [-1] * sink_size
    for pos_, pg in enumerate(p._sink_pages.tolist()):
        if pg != _EMPTY:
            t = enc[pg]
            sinkp[pos_] = t
            resident[t] = True
    sink_fill0 = sink_size - sinkp.count(-1)

    # -- import the uniform stream (identical to the per-access kernel) -------
    leftover = p._uniform_buf[p._uniform_idx :]
    drawn = [leftover]
    lt_p = (leftover < sp).tobytes()
    lt_half = (leftover < 0.5).tobytes()
    ncoins = len(lt_p)
    ci = 0
    rand = p._rng.random

    marks = bytearray(pages.size)  # 0 = hit, 1 = bin miss, 2 = sink miss
    fp = 0  # recency fold pointer: eff is exact for positions < fp

    def fold(i: int) -> None:
        nonlocal fp
        _fold(eff, toks_arr, fp, i, 0)
        fp = max(fp, i)

    def on_miss(i: int, t: int) -> int:
        nonlocal ci, ncoins, lt_p, lt_half
        if ci > ncoins - 2:
            chunk = rand(_CHUNK_COINS)
            drawn.append(chunk)
            lt_p = lt_p[ci:] + (chunk < sp).tobytes()
            lt_half = lt_half[ci:] + (chunk < 0.5).tobytes()
            ncoins = len(lt_p)
            ci = 0
        if lt_p[ci]:
            ci += 2
            marks[i] = 2
            pos = int(s1[t]) if lt_half[ci - 1] else int(s2[t])
            victim = sinkp[pos]
            sinkp[pos] = t
            return victim
        ci += 1
        marks[i] = 1
        fold(i)  # LRU victim selection needs recency exact up to here
        b = bins[int(binh[t])]
        if len(b) >= bsize:
            members = list(b)
            victim = members[int(np.argmin(eff[members]))]
            b.discard(victim)
            b.add(t)
            return victim
        b.add(t)
        return -1

    consumed = _scan(toks_arr, resident, on_miss)
    fold(consumed)

    # -- derive hits + instrumentation from the marks --------------------------
    marks_arr = np.frombuffer(marks, dtype=np.uint8)[:consumed]
    hits = marks_arr == 0
    bin_routed = np.flatnonzero(marks_arr == 1)
    num_sink = int(consumed - hits.sum() - bin_routed.size)
    bin_miss_delta = np.bincount(
        binh[toks_arr[:consumed][bin_routed]], minlength=num_bins
    )

    # -- export state back to page space ---------------------------------------
    new_bins: list[dict[int, None]] = []
    for s in bins:
        members = list(s)
        if len(members) > 1:
            order = np.argsort(eff[members])  # keys distinct -> deterministic
            members = [members[int(j)] for j in order]
        new_bins.append({dec[t]: None for t in members})
    p._bins = new_bins
    p._sink_pages = np.asarray(
        [dec[t] if t >= 0 else _EMPTY for t in sinkp], dtype=np.int64
    )
    loc: dict[int, int] = {}
    for j, b in enumerate(p._bins):
        for pg in b:
            loc[pg] = j
    for pos_, t in enumerate(sinkp):
        if t >= 0:
            loc[dec[t]] = -(pos_ + 1)
    p._loc = loc

    p._sink_routings += num_sink
    p._bin_routings += int(bin_routed.size)
    p._bin_misses += bin_miss_delta
    fill_delta = np.asarray([len(b) for b in bins]) - np.asarray(fills0)
    p._bin_evictions += bin_miss_delta - fill_delta
    sink_fill1 = sink_size - sinkp.count(-1)
    p._sink_evictions += num_sink - (sink_fill1 - sink_fill0)

    p._uniform_buf = remaining_tail(drawn, ncoins - ci)
    p._uniform_idx = 0
    return hits, consumed


# -- slotted policies ----------------------------------------------------------

def _import_slotted(p: SlottedCache, pages: np.ndarray):
    """Token space + residency/eff import shared by the slotted scans."""
    toks_arr, ids, enc, dec, num_tokens = token_space(pages, p._pos_of)
    pos_rows = p.dist.positions_batch(ids)  # (num_tokens, d)
    resident = np.zeros(num_tokens, dtype=bool)
    eff = np.zeros(num_tokens, dtype=np.int64)
    spage = [-1] * p.capacity  # slot -> token
    stime = p._slot_time
    for slot, pg in enumerate(p._slot_page):
        if pg != EMPTY:
            t = enc[pg]
            spage[slot] = t
            resident[t] = True
            # occupied-slot timestamps are the occupant's real recency keys:
            # distinct (one unique clock per access) and <= the current clock
            eff[t] = stime[slot]
    return toks_arr, dec, pos_rows, resident, eff, spage


def _export_slotted(
    p: SlottedCache,
    dec,
    eff: np.ndarray,
    spage: list[int],
    consumed: int,
) -> None:
    """Write back slot state; empty slots keep their (stale) timestamps,
    exactly as the reference loop leaves them."""
    stime = p._slot_time
    for slot, t in enumerate(spage):
        if t >= 0:
            stime[slot] = int(eff[t])
    p._clock += consumed
    p._slot_page = [dec[t] if t >= 0 else EMPTY for t in spage]
    p._pos_of = {dec[t]: slot for slot, t in enumerate(spage) if t >= 0}


def scan_plru(p: PLruCache, pages: np.ndarray) -> tuple[np.ndarray, int]:
    """Trace-level scan for `P`-LRU / set-associative LRU."""
    toks_arr, dec, pos_rows, resident, eff, spage = _import_slotted(p, pages)
    sbirth = p._slot_birth
    evictions = p._evictions
    base = p._clock
    marks = bytearray(pages.size)
    fp = 0

    def fold(i: int) -> None:
        nonlocal fp
        _fold(eff, toks_arr, fp, i, base)
        fp = max(fp, i)

    def on_miss(i: int, t: int) -> int:
        fold(i)
        marks[i] = 1
        # first empty eligible slot wins outright; otherwise the least
        # recently accessed occupant — PLruCache._choose_slot verbatim
        target = -1
        best = None
        victim = -1
        for s in pos_rows[t].tolist():
            occ = spage[s]
            if occ < 0:
                target = s
                victim = -1
                break
            e = eff[occ]
            if best is None or e < best:
                best = e
                target = s
                victim = occ
        if victim >= 0:
            evictions[target] += 1
        spage[target] = t
        sbirth[target] = base + i + 1
        return victim

    consumed = _scan(toks_arr, resident, on_miss)
    fold(consumed)
    _export_slotted(p, dec, eff, spage, consumed)
    hits = np.frombuffer(marks, dtype=np.uint8)[:consumed] == 0
    return hits, consumed


def scan_drandom(p: DRandomCache, pages: np.ndarray) -> tuple[np.ndarray, int]:
    """Trace-level scan for d-RANDOM (both occupancy variants).

    Eviction ignores recency entirely, so no folds run during the scan —
    one global fold at export reconstructs every occupied slot's
    timestamp from its occupant's last occurrence.
    """
    toks_arr, dec, pos_rows, resident, eff, spage = _import_slotted(p, pages)
    sbirth = p._slot_birth
    evictions = p._evictions
    base = p._clock
    d = p.d
    aware = p.occupancy_aware
    marks = bytearray(pages.size)

    leftover = np.asarray(p._coin_buf[p._coin_idx :], dtype=np.float64)
    drawn = [leftover]
    if aware:
        coins = leftover.tolist()
    else:
        coins = (leftover * d).astype(np.uint8).tobytes()
    ncoins = len(coins)
    ci = 0
    rand = p._rng.random

    def on_miss(i: int, t: int) -> int:
        nonlocal ci, ncoins, coins
        marks[i] = 1
        if ci >= ncoins:
            chunk = rand(_CHUNK_COINS)
            drawn.append(chunk)
            if aware:
                coins = chunk.tolist()
            else:
                coins = (chunk * d).astype(np.uint8).tobytes()
            ncoins = len(coins)
            ci = 0
        row = pos_rows[t].tolist()
        if aware:
            u = coins[ci]
            ci += 1
            empties = [s for s in row if spage[s] < 0]
            if empties:
                target = empties[int(u * len(empties))]
            else:
                target = row[int(u * d)]
        else:
            target = row[coins[ci]]
            ci += 1
        victim = spage[target]
        if victim >= 0:
            evictions[target] += 1
        spage[target] = t
        sbirth[target] = base + i + 1
        return victim

    consumed = _scan(toks_arr, resident, on_miss)
    _fold(eff, toks_arr, 0, consumed, base)
    _export_slotted(p, dec, eff, spage, consumed)

    tail = remaining_tail(drawn, ncoins - ci)
    p._coin_buf = tail.tolist()
    p._coin_idx = 0
    hits = np.frombuffer(marks, dtype=np.uint8)[:consumed] == 0
    return hits, consumed


# -- the adaptive drivers ------------------------------------------------------

def _adaptive(peraccess, scan):
    """Probe with the per-access kernel, then scan; bail back on turnover.

    Every hand-off happens at an access boundary where the outgoing path
    has exported exact policy state and coin-stream position, so the
    stitched run is bit-identical to either path alone. Instrumentation
    counters are cumulative on the policy, so the final
    ``_instrumentation()`` snapshot is the correct whole-run ``extra``.
    """

    def run_auto(p, pages: np.ndarray) -> SimResult:
        n = pages.size
        if n < MIN_TRACE or n <= PROBE:
            return peraccess(p, pages)
        head = peraccess(p, pages[:PROBE])
        probe_tail = head.hits[PROBE // 2 :]
        parts = [head.hits]
        if probe_tail.size and 1.0 - float(probe_tail.mean()) > MISS_THRESHOLD:
            parts.append(peraccess(p, pages[PROBE:]).hits)
        else:
            hits, consumed = scan(p, pages[PROBE:])
            parts.append(hits)
            if PROBE + consumed < n:
                parts.append(peraccess(p, pages[PROBE + consumed :]).hits)
        return SimResult(
            hits=np.concatenate(parts),
            policy=p.name,
            capacity=p.capacity,
            extra=p._instrumentation(),
        )

    return run_auto


run_heatsink_auto = _adaptive(run_heatsink, scan_heatsink)
run_plru_auto = _adaptive(run_plru, scan_plru)
run_drandom_auto = _adaptive(run_drandom, scan_drandom)

# Re-register over the per-access ("-v1") kernels: the adaptive driver is
# strictly better (it *is* the per-access kernel below MIN_TRACE or above
# MISS_THRESHOLD) and keeps the same eligibility predicates. The raw
# per-access entry points stay importable for benchmarks and tests.
register(
    HeatSinkLRU,
    Kernel(name="heatsink-v2", run=run_heatsink_auto, supports=supports_heatsink),
)
register(PLruCache, Kernel(name="plru-v2", run=run_plru_auto, supports=supports_slotted))
register(
    SetAssociativeLRU,
    Kernel(name="plru-v2", run=run_plru_auto, supports=supports_slotted),
)
register(
    DRandomCache,
    Kernel(name="drandom-v2", run=run_drandom_auto, supports=supports_drandom),
)
