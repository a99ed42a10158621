"""Row-oriented results tables.

Experiments produce rows (plain dicts of scalars); :class:`ResultsTable`
collects them and renders CSV or aligned markdown — the "same rows the
paper reports" output format of every bench target. Kept dependency-free
(no pandas) and deliberately simple: experiments filter/aggregate with
NumPy on the column arrays.
"""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ResultsTable"]


class ResultsTable:
    """An append-only table of result rows with uniform rendering."""

    def __init__(self, rows: Iterable[Mapping[str, Any]] = ()):
        self._rows: list[dict[str, Any]] = [dict(r) for r in rows]

    # -- building -------------------------------------------------------------
    def append(self, **row: Any) -> None:
        """Add one row (keyword arguments become columns)."""
        self._rows.append(dict(row))

    def extend(self, rows: Iterable[Mapping[str, Any]]) -> None:
        for row in rows:
            self._rows.append(dict(row))

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._rows)

    def __getitem__(self, idx: int) -> dict[str, Any]:
        return self._rows[idx]

    @property
    def columns(self) -> list[str]:
        """Union of all row keys, in first-appearance order."""
        seen: dict[str, None] = {}
        for row in self._rows:
            for key in row:
                seen.setdefault(key, None)
        return list(seen)

    # -- access ---------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """One column as an array (object dtype if non-numeric/missing)."""
        values = [row.get(name) for row in self._rows]
        if any(v is None for v in values):
            return np.asarray(values, dtype=object)
        try:
            return np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            return np.asarray(values, dtype=object)

    def where(self, predicate: Callable[[Mapping[str, Any]], bool]) -> "ResultsTable":
        """Rows satisfying a predicate, as a new table."""
        return ResultsTable(row for row in self._rows if predicate(row))

    def group_by(self, *keys: str) -> dict[tuple, "ResultsTable"]:
        """Partition rows by the values of ``keys``."""
        groups: dict[tuple, ResultsTable] = {}
        for row in self._rows:
            group_key = tuple(row.get(k) for k in keys)
            groups.setdefault(group_key, ResultsTable()).append(**row)
        return groups

    # -- rendering ------------------------------------------------------------
    @staticmethod
    def _format_value(value: Any) -> str:
        if isinstance(value, float):
            if value != value:  # NaN
                return "nan"
            if value == 0 or 0.001 <= abs(value) < 1e6:
                return f"{value:.4g}"
            return f"{value:.3e}"
        return str(value)

    def to_markdown(self, columns: Sequence[str] | None = None) -> str:
        """Aligned GitHub-style markdown table."""
        cols = list(columns) if columns is not None else self.columns
        if not cols:
            return "(empty table)"
        cells = [[self._format_value(row.get(c, "")) for c in cols] for row in self._rows]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(cols)
        ]
        header = "| " + " | ".join(c.ljust(w) for c, w in zip(cols, widths)) + " |"
        sep = "|-" + "-|-".join("-" * w for w in widths) + "-|"
        body = [
            "| " + " | ".join(cell.ljust(w) for cell, w in zip(r, widths)) + " |"
            for r in cells
        ]
        return "\n".join([header, sep, *body])

    def to_csv(self, destination: str | os.PathLike | io.TextIOBase) -> None:
        """Write the table as CSV (columns = union of row keys)."""
        cols = self.columns
        if not cols:
            raise ConfigurationError("cannot write an empty table")

        def _write(handle: io.TextIOBase) -> None:
            writer = csv.DictWriter(handle, fieldnames=cols, restval="")
            writer.writeheader()
            for row in self._rows:
                writer.writerow(row)

        if isinstance(destination, (str, os.PathLike)):
            with Path(destination).open("w", newline="") as handle:
                _write(handle)
        else:
            _write(destination)

    @classmethod
    def from_csv(cls, source: str | os.PathLike | io.TextIOBase) -> "ResultsTable":
        """Read a table back; numeric-looking cells become floats/ints and
        ``True``/``False`` become bools (the string ``"False"`` is truthy)."""

        def _coerce(text: str) -> Any:
            if text == "":
                return None
            if text in ("True", "False"):
                return text == "True"
            for caster in (int, float):
                try:
                    return caster(text)
                except ValueError:
                    continue
            return text

        def _read(handle: io.TextIOBase) -> "ResultsTable":
            reader = csv.DictReader(handle)
            return cls({k: _coerce(v) for k, v in row.items()} for row in reader)

        if isinstance(source, (str, os.PathLike)):
            with Path(source).open("r", newline="") as handle:
                return _read(handle)
        return _read(source)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultsTable(rows={len(self)}, columns={self.columns})"
