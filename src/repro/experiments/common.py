"""Shared plumbing for experiment modules.

Every experiment supports three *scales*:

- ``smoke`` — seconds; used by the test suite to assert directional claims;
- ``small`` — tens of seconds; the CLI default, and the configuration
  EXPERIMENTS.md and the committed ``results/`` record;
- ``full``  — minutes; larger sizes, longer traces and wider parameter grids.

Scale tables are plain dicts so modules stay declarative about what each
scale means.

Every experiment also exposes ``check(table) -> list[str]``: the
predicates its EXPERIMENTS.md verdict rests on, returning the ones that
fail (an empty list is a pass). They hold at ``smoke`` and ``small``;
the CLI applies them after every ``run``/``run-all``.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import ConfigurationError, ExperimentError

__all__ = ["pick_scale", "predicates", "resolve_fast", "SCALES"]

SCALES = ("smoke", "small", "full")

#: CLI spelling of the kernel-dispatch tri-state (``--fast``).
FAST_MODES = {"auto": None, "on": True, "off": False}


def resolve_fast(mode: str | bool | None) -> bool | None:
    """Map a ``--fast`` spelling onto ``CachePolicy.run``'s ``fast=``.

    ``"auto"`` → ``None`` (use a kernel when one is eligible), ``"on"`` →
    ``True`` (require a kernel; :class:`~repro.errors.KernelUnavailable`
    names the policy when it has none), ``"off"`` → ``False`` (reference
    loop). Already-resolved values pass through so runners can forward
    whatever they were given.
    """
    if mode is None or isinstance(mode, bool):
        return mode
    try:
        return FAST_MODES[mode]
    except KeyError:
        raise ConfigurationError(
            f"bad fast mode {mode!r}; expected one of {', '.join(FAST_MODES)}"
        ) from None


def pick_scale(table: Mapping[str, Mapping[str, Any]], scale: str) -> dict[str, Any]:
    """Select a scale configuration, with a helpful error for typos."""
    if scale not in table:
        raise ExperimentError(
            f"unknown scale {scale!r}; available: {', '.join(sorted(table))}"
        )
    return dict(table[scale])


def predicates(gen: Callable[[Any], Iterator[tuple[str, bool]]]) -> Callable[[Any], list[str]]:
    """Turn a generator of ``(predicate, holds)`` pairs into a ``check``.

    The returned ``check(table)`` lists the predicates that do not hold,
    in the order the generator yields them; ``[]`` means the table passes.
    An empty table fails one predicate of its own before any other runs.
    """

    @functools.wraps(gen)
    def check(table: Sequence[Mapping[str, Any]]) -> list[str]:
        if not len(table):
            return ["the table has rows"]
        return [predicate for predicate, holds in gen(table) if not holds]

    return check
