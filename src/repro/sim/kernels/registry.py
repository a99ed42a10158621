"""The fast-kernel registry: exact-type dispatch with per-instance vetoes.

A *kernel* is an array-backed reimplementation of one policy's ``run``
loop that is bit-for-bit equivalent to the reference driver — same seed ⇒
identical ``SimResult`` (hits *and* instrumentation) and identical
post-run policy state, so ``reset=False`` continuations may freely mix
kernel and reference segments.

Dispatch is deliberately conservative:

- **Exact type match.** A kernel registered for ``HeatSinkLRU`` never
  fires for a subclass: a subclass may override a decision method or
  ``access`` itself (say, to route misses by a different rule), and
  silently inheriting the parent's kernel would change results. Subclasses that *want* the kernel register it
  explicitly.
- **Per-instance ``supports`` veto.** Some configurations of a kernelized
  type stay on the reference loop (an attached per-access recorder, the
  ``lru``-sink ablation variant, absurd associativity). The predicate
  runs at dispatch time against the concrete instance.

:meth:`repro.core.base.CachePolicy.run` consults :func:`kernel_for` when
``fast`` is ``True``/``None``; this module therefore must not import any
policy module at import time (the concrete kernels do, and are pulled in
lazily by the package ``__init__``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import CachePolicy, SimResult

__all__ = ["Kernel", "register", "kernel_for", "available_kernels"]


@dataclass(frozen=True)
class Kernel:
    """A registered fast path for one exact policy type.

    Attributes
    ----------
    name:
        Short identifier used in benchmarks and docs.
    run:
        ``(policy, pages) -> SimResult``; ``pages`` is a validated int64
        array. The kernel must leave ``policy`` in exactly the state the
        reference loop would have.
    supports:
        Instance-level eligibility predicate; ``False`` routes the run to
        the reference loop (or raises under ``fast=True``).
    """

    name: str
    run: Callable[["CachePolicy", np.ndarray], "SimResult"]
    supports: Callable[["CachePolicy"], bool] = field(default=lambda policy: True)


_REGISTRY: dict[type, Kernel] = {}


def register(policy_type: type, kernel: Kernel) -> None:
    """Register ``kernel`` as the fast path for exactly ``policy_type``."""
    _REGISTRY[policy_type] = kernel


def kernel_for(policy: "CachePolicy") -> Kernel | None:
    """The eligible kernel for this instance, or ``None``.

    Exact-type lookup (no MRO walk — see the module docstring), then the
    kernel's ``supports`` predicate against the concrete instance.
    """
    kernel = _REGISTRY.get(type(policy))
    if kernel is not None and kernel.supports(policy):
        return kernel
    return None


def available_kernels() -> dict[str, str]:
    """Mapping of registered policy type name → kernel name (for docs/CLI)."""
    return {cls.__name__: kernel.name for cls, kernel in _REGISTRY.items()}
