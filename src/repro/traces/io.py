"""Trace persistence.

Three formats are supported:

- **npz** (native): pages plus JSON-encoded metadata, lossless round-trip
  of a :class:`~repro.traces.base.Trace`.
- **MSR-style CSV**: the column layout of the MSR Cambridge block-I/O
  traces (``timestamp,hostname,disk,type,offset,size,latency``), the
  de-facto interchange format for storage-cache research. We cannot ship
  the proprietary traces themselves, so :func:`write_msr_csv` can also
  *export* synthetic traces into this shape, giving downstream users a
  drop-in path for their own real traces. Parsing is **incremental**
  (:func:`iter_msr_pages` yields bounded ndarray chunks), so arbitrarily
  large CSVs stream at O(chunk) memory; :func:`read_msr_csv` is the
  materializing wrapper.
- **npt** (:mod:`repro.traces.npt`): the compact chunked binary format
  with an index footer, built for seekable constant-memory replay.

A truncated or corrupt ``.npz`` raises :class:`~repro.errors.TraceFormatError`
naming the path. Malformed CSV input raises it too, carrying the 1-based
line number (and path, when parsing a file) — never a bare
``ValueError`` from deep inside NumPy or ``int()``. Blank
lines, ``#`` comments, CRLF line endings, and trailing commas are
tolerated (they occur in real exported traces); short rows, non-integer
or negative offset/size fields are errors.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.errors import TraceError, TraceFormatError
from repro.traces.base import Trace, as_page_array

__all__ = [
    "save_trace",
    "load_trace",
    "iter_msr_pages",
    "read_msr_csv",
    "write_msr_csv",
]


def save_trace(trace: Trace, path: str | os.PathLike) -> Path:
    """Persist a trace (pages + metadata) to an ``.npz`` file."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    meta = json.dumps({"name": trace.name, "params": dict(trace.params)})
    np.savez_compressed(path, pages=trace.pages, meta=np.array(meta))
    return path


def load_trace(path: str | os.PathLike) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    if not zipfile.is_zipfile(path):
        raise TraceFormatError("not an .npz archive, or a truncated one", path=path)
    try:
        with np.load(path, allow_pickle=False) as data:
            pages = data["pages"] if "pages" in data else None
            raw_meta = str(data["meta"]) if "meta" in data else None
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise TraceFormatError(f"corrupt .npz archive: {exc}", path=path) from None
    if pages is None:
        raise TraceError(f"{path} is not a repro trace file (no 'pages' array)")
    meta: dict = {"name": path.stem, "params": {}}
    if raw_meta is not None:
        try:
            meta = json.loads(raw_meta)
        except json.JSONDecodeError as exc:
            raise TraceError(f"corrupt metadata in {path}") from exc
    return Trace(pages, name=meta.get("name", path.stem), params=meta.get("params", {}))


#: default block size used to turn byte offsets into page ids
DEFAULT_BLOCK_BYTES = 4096

#: page accesses per chunk yielded by :func:`iter_msr_pages`
DEFAULT_CSV_CHUNK = 1 << 18


@contextlib.contextmanager
def _text_handle(source: str | os.PathLike | io.TextIOBase):
    """Yield ``(handle, path_or_None)``; owns the handle only for paths."""
    if isinstance(source, (str, os.PathLike)):
        path = Path(source)
        # newline="" hands raw line endings to the csv module, which
        # strips CR itself — CRLF exports parse identically to LF ones
        with path.open("r", encoding="utf-8", newline="") as handle:
            yield handle, path
    else:
        yield source, None


def _csv_rows(handle: io.TextIOBase, path: Path | None) -> Iterator[list[str]]:
    """CSV rows of ``handle``; bytes that are not UTF-8 raise
    :class:`~repro.errors.TraceFormatError` naming the first bad line."""
    try:
        yield from csv.reader(handle)
    except UnicodeDecodeError as exc:
        line = None
        if path is not None:  # the decoder reads ahead: find the line itself
            with path.open("rb") as fh:
                line = next(
                    (n for n, raw in enumerate(fh, start=1) if not _is_utf8(raw)), None
                )
        raise TraceFormatError(f"not UTF-8 text ({exc.reason})", path=path, line=line) from None


def _is_utf8(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _parse_int_field(value: str, what: str, lineno: int, path) -> int:
    try:
        parsed = int(value.strip())
    except ValueError:
        raise TraceFormatError(
            f"non-integer {what} field {value.strip()!r}", path=path, line=lineno
        ) from None
    if parsed < 0:
        raise TraceFormatError(f"negative {what} {parsed}", path=path, line=lineno)
    return parsed


def iter_msr_pages(
    source: str | os.PathLike | io.TextIOBase,
    *,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    request_types: Iterable[str] = ("Read", "Write"),
    expand_multiblock: bool = True,
    max_accesses: int | None = None,
    chunk: int = DEFAULT_CSV_CHUNK,
) -> Iterator[np.ndarray]:
    """Incrementally parse MSR-format CSV into ``int64`` page-id chunks.

    The file is consumed row by row and never materialized: each yielded
    array holds at most ``chunk`` page accesses (the final one may be
    shorter), so memory stays O(chunk) regardless of file size. Each I/O
    request covering ``size`` bytes starting at ``offset`` becomes
    accesses to pages ``offset // block_bytes …`` (one access per covered
    block when ``expand_multiblock``, else just the first block).

    ``request_types`` selects which request types to keep (the format's
    4th column); ``max_accesses`` stops after emitting that many page
    accesses. Malformed rows raise
    :class:`~repro.errors.TraceFormatError` with the offending line
    number (bytes that are not UTF-8 included); blank lines, ``#``
    comments, CRLF endings, and trailing commas are tolerated.
    """
    if block_bytes <= 0:
        raise TraceError(f"block_bytes must be positive, got {block_bytes}")
    if chunk <= 0:
        raise TraceError(f"chunk must be positive, got {chunk}")
    wanted = {t.lower() for t in request_types}
    left = max_accesses  # accesses still allowed out; None = unlimited

    with _text_handle(source) as (handle, path):
        out: list[int] = []
        for lineno, row in enumerate(_csv_rows(handle, path), start=1):
            # tolerate blank lines, whitespace-only lines, and comments
            if not row or all(not field.strip() for field in row):
                continue
            if row[0].lstrip().startswith("#"):
                continue
            # tolerate trailing commas: drop empty fields off the tail only
            while len(row) > 6 and not row[-1].strip():
                row.pop()
            if len(row) < 6:
                raise TraceFormatError(
                    f"expected >= 6 columns, got {len(row)}", path=path, line=lineno
                )
            rtype = row[3].strip().lower()
            if not rtype:
                raise TraceFormatError("empty request-type field", path=path, line=lineno)
            if rtype not in wanted:
                continue
            offset = _parse_int_field(row[4], "offset", lineno, path)
            size = _parse_int_field(row[5], "size", lineno, path)
            first = offset // block_bytes
            if expand_multiblock and size > 0:
                last = (offset + size - 1) // block_bytes
                blocks: "range | list[int]" = range(first, last + 1)
            else:
                blocks = [first]
            if left is not None and len(blocks) > left:
                blocks = blocks[: left]
            out.extend(blocks)
            if left is not None:
                left -= len(blocks)
            while len(out) >= chunk:
                yield np.asarray(out[:chunk], dtype=np.int64)
                del out[:chunk]
            if left is not None and left <= 0:
                break
        if out:
            yield np.asarray(out, dtype=np.int64)


def read_msr_csv(
    source: str | os.PathLike | io.TextIOBase,
    *,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    request_types: Iterable[str] = ("Read", "Write"),
    expand_multiblock: bool = True,
    max_accesses: int | None = None,
) -> Trace:
    """Parse an MSR-Cambridge-format CSV into a materialized page trace.

    A thin wrapper over :func:`iter_msr_pages` (one concatenation at the
    end); callers that cannot afford materialization should consume the
    iterator — or wrap it via
    :class:`repro.traces.streaming.MsrCsvStream` — directly.
    """
    chunks = list(
        iter_msr_pages(
            source,
            block_bytes=block_bytes,
            request_types=request_types,
            expand_multiblock=expand_multiblock,
            max_accesses=max_accesses,
        )
    )
    pages = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    )
    name = Path(source).stem if isinstance(source, (str, os.PathLike)) else "msr"
    return Trace(pages, name=name, params={"format": "msr", "block_bytes": block_bytes})


def write_msr_csv(
    trace: Trace | np.ndarray,
    destination: str | os.PathLike | io.TextIOBase,
    *,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    hostname: str = "synthetic",
    disk: int = 0,
) -> None:
    """Export a page trace as MSR-format CSV (one read request per access)."""
    pages = as_page_array(trace)

    def _write(handle: io.TextIOBase) -> None:
        writer = csv.writer(handle)
        for t, page in enumerate(pages.tolist()):
            writer.writerow(
                [t * 1000, hostname, disk, "Read", page * block_bytes, block_bytes, 100]
            )

    if isinstance(destination, (str, os.PathLike)):
        with Path(destination).open("w", newline="") as handle:
            _write(handle)
    else:
        _write(destination)
