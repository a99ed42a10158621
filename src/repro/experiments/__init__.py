"""Registered experiments: one per theorem/lemma of the paper.

Each experiment module exposes ``run(scale=..., seed=..., workers=...) ->
ResultsTable``, ``check(table) -> list[str]`` (the failed predicates of its
verdict) and a module-level docstring stating the paper anchor, the
prediction, and how the rows validate it. The registry maps stable
experiment ids (used by the CLI) to these runners and checks.

The id → paper-anchor index is DESIGN.md §5.
"""

from repro.experiments.registry import (
    available_experiments,
    get_check,
    get_experiment,
    run_experiment,
)

__all__ = ["available_experiments", "get_check", "get_experiment", "run_experiment"]
