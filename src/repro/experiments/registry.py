"""Experiment registry: stable ids → runners and their checks.

The ids here are the ones DESIGN.md's per-experiment index and the CLI
use. Each runner has signature
``run(scale="small", *, seed=0, workers=None) -> ResultsTable``;
kernel-aware runners additionally accept ``fast=None`` and thread it to
:meth:`~repro.core.base.CachePolicy.run`. :func:`run_experiment` forwards
``fast`` only to runners that declare it, so simulation-free experiments
keep their narrow signature. Next to each runner, :func:`get_check`
returns the module's ``check(table) -> list[str]``: the predicates its
EXPERIMENTS.md verdict rests on that the table fails (``[]`` = pass).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from types import ModuleType
from typing import Callable

from repro.errors import ExperimentError
from repro.sim.results import ResultsTable


def _modules() -> dict[str, ModuleType]:
    """Every ``e_*`` module of this package, keyed by its ``EXPERIMENT_ID``."""
    import repro.experiments as package

    modules = (
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name.startswith("e_")
    )
    return {m.EXPERIMENT_ID: m for m in modules}


def available_experiments() -> list[str]:
    """Sorted list of experiment ids."""
    return sorted(_modules())


def _module(experiment_id: str) -> ModuleType:
    modules = _modules()
    for key, module in modules.items():
        if key.lower() == experiment_id.lower():
            return module
    raise ExperimentError(
        f"unknown experiment {experiment_id!r}; available: {', '.join(sorted(modules))}"
    )


def get_experiment(experiment_id: str) -> Callable:
    """Look up a runner by id (case-insensitive)."""
    return _module(experiment_id).run


def get_check(experiment_id: str) -> Callable[[ResultsTable], list[str]]:
    """Look up an experiment's ``check(table) -> list[str]`` by id."""
    return _module(experiment_id).check


def run_experiment(
    experiment_id: str,
    scale: str = "small",
    *,
    seed=0,
    workers: int | None = None,
    fast: bool | None = None,
) -> ResultsTable:
    """Run an experiment by id.

    ``fast`` follows the :meth:`~repro.core.base.CachePolicy.run`
    convention (``None`` auto / ``True`` require kernels / ``False``
    reference loop) and reaches only runners that declare the keyword —
    forcing ``fast=True`` on an experiment that never simulates is a
    no-op, not an error.
    """
    runner = get_experiment(experiment_id)
    kwargs: dict = {"seed": seed, "workers": workers}
    if fast is not None and "fast" in inspect.signature(runner).parameters:
        kwargs["fast"] = fast
    return runner(scale, **kwargs)
