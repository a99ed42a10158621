"""Shared plumbing for experiment modules.

Every experiment supports three *scales*:

- ``smoke`` — seconds; used by the test suite to assert directional claims;
- ``small`` — tens of seconds; the default for benches and the CLI, and
  the configuration EXPERIMENTS.md records;
- ``full``  — minutes; larger sizes, longer traces and wider parameter grids.

Scale tables are plain dicts so modules stay declarative about what each
scale means.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ConfigurationError, ExperimentError

__all__ = ["pick_scale", "resolve_fast", "SCALES"]

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
