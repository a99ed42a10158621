"""Smoke + directional tests for every registered experiment.

Each experiment runs at ``smoke`` scale and we assert the *shape* of its
theorem's claim — these are the statements EXPERIMENTS.md reports at
larger scale, and each module's ``check`` must pass on its smoke table.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments.registry import (
    available_experiments,
    get_check,
    get_experiment,
    run_experiment,
)
from repro.sim.results import ResultsTable

# module-level cache: smoke runs are cheap but not free, and several tests
# inspect the same table
_CACHE: dict[str, object] = {}


def smoke(experiment_id: str):
    if experiment_id not in _CACHE:
        _CACHE[experiment_id] = run_experiment(experiment_id, "smoke", seed=0)
    return _CACHE[experiment_id]


class TestRegistry:
    def test_all_ids_present(self):
        assert set(available_experiments()) == {
            "T2-LOWERBOUND",
            "T2-SEMIUNIFORM",
            "T3-TWORANDOM",
            "T4-HEATSINK",
            "L5-ORIENT",
            "L6-COMPONENTS",
            "HEAT-DISSIPATION",
            "ASSOC-SWEEP",
            "ABLATION",
            "SCALING",
            "INDEXING",
            "REARRANGE",
            "T4-ACCOUNTING",
        }

    def test_case_insensitive_lookup(self):
        assert get_experiment("t4-heatsink") is get_experiment("T4-HEATSINK")

    def test_unknown_id(self):
        with pytest.raises(ExperimentError):
            get_experiment("NOPE")

    def test_unknown_scale(self):
        with pytest.raises(ExperimentError):
            run_experiment("T2-LOWERBOUND", "galactic")


@pytest.mark.parametrize("experiment_id", sorted(available_experiments()))
def test_smoke_produces_rows(experiment_id):
    table = smoke(experiment_id)
    assert len(table) > 0
    assert all(row.get("experiment") == experiment_id for row in table)
    assert get_check(experiment_id)(table) == []


@pytest.mark.parametrize("experiment_id", sorted(available_experiments()))
def test_registered_experiment_exposes_check(experiment_id):
    check = get_check(experiment_id)
    assert callable(check)
    assert check.__module__ == get_experiment(experiment_id).__module__


RESULTS = Path(__file__).resolve().parents[2] / "results"


@pytest.mark.parametrize("path", sorted(RESULTS.glob("*_small.csv")), ids=lambda p: p.name)
def test_committed_results_pass_their_check(path):
    """The committed tables, read back from CSV (bools included), pass."""
    table = ResultsTable.from_csv(path)
    assert get_check(table[0]["experiment"])(table) == []


#: (experiment, the row to doctor, its doctored values, text of the predicate it must fail)
DOCTORED = [
    ("T4-HEATSINK", {}, {"ratio_vs_lru_small": 9.0}, "theorem_budget"),
    ("T4-HEATSINK", {}, {"sink_miss_share": 0.9}, "sink_prob"),
    ("ABLATION", {"variant": "p=0 (no sink routing)"}, {"misses_post_warm": 0}, "p=0"),
    ("T2-LOWERBOUND", {"d": 2}, {"ratio_at_K10": 3.0, "ratio_at_K20": 3.0}, "grows strictly"),
    ("T2-SEMIUNIFORM", {}, {"late_misses_per_round": 0.0}, "late_misses"),
    ("T3-TWORANDOM", {"beta": 2}, {"late_misses_per_round_2random": 1e9}, "2-RANDOM < 2-LRU"),
    ("L5-ORIENT", {"in_lemma_regime": True}, {"pr_orientable": 0.5}, "lemma regime"),
    ("L6-COMPONENTS", {}, {"pr_component_ge_i": 1.0}, "lemma6_bound"),
    ("HEAT-DISSIPATION", {"policy": "2-RANDOM", "i": 2}, {"pr_misses_gt_i": 1.0}, "decays"),
    ("ASSOC-SWEEP", {"design": "OPT(full)"}, {"vs_full_lru": 1.5}, "OPT"),
    ("SCALING", {}, {"melt_ratio_mean": 1.0}, "melt_ratio_mean"),
    ("INDEXING", {"design": "modulo-set"}, {"miss_rate": 0.0}, "modulo-set"),
    ("REARRANGE", {"design": "HEAT-SINK"}, {"moves_per_access": 0.5}, "zero moves"),
    ("T4-ACCOUNTING", {"row": "TOTAL"}, {"theorem_holds": False}, "theorem_holds"),
]


@pytest.mark.parametrize(
    "experiment_id, match, changes, predicate", DOCTORED, ids=[f"{c[0]}:{c[3]}" for c in DOCTORED]
)
def test_check_flags_doctored_table(experiment_id, match, changes, predicate):
    rows = [dict(row) for row in smoke(experiment_id)]
    next(r for r in rows if match.items() <= r.items()).update(changes)
    failed = get_check(experiment_id)(ResultsTable(rows))
    assert any(predicate in line for line in failed), failed


def assert_holds(experiment_id: str, *predicates: str) -> None:
    """Each named predicate of the experiment's ``check()`` holds on its
    smoke table; a name ``check()`` does not yield fails instead of
    passing vacuously."""
    check = get_check(experiment_id)
    table = smoke(experiment_id)
    known = [predicate for predicate, _ in check.__wrapped__(table)]
    failed = check(table)
    for predicate in predicates:
        assert predicate in known, predicate
        assert predicate not in failed


# The directional tests name the check() predicates that carry each
# theorem's shape at smoke scale; the predicates themselves live in the
# experiment modules.


class TestT2Directional:
    def test_plru_melts_while_opt_is_cold(self):
        # smoke runs d = 2 only, so "d=2 melts" covers every row
        assert_holds(
            "T2-LOWERBOUND",
            "d=2 melts: late_misses_per_round > 5",
            "OPT pays only the cold misses: opt_misses_post_t0 == opt_cold_misses_expected",
        )

    def test_ratio_grows_with_rounds(self):
        assert_holds("T2-LOWERBOUND", "d=2 ratio_at_K grows strictly with K")


class TestSemiUniformDirectional:
    def test_every_distribution_melts(self):
        assert_holds("T2-SEMIUNIFORM", "every distribution melts: late_misses_per_round > 5")

    def test_covers_semi_and_non_semi_uniform(self):
        assert_holds(
            "T2-SEMIUNIFORM", "at least 3 semi-uniform distributions and a non-semi-uniform one"
        )


class TestT3Directional:
    def test_two_random_heals_two_lru_does_not(self):
        assert_holds("T3-TWORANDOM", "adversarial late misses/round: 2-RANDOM < 2-LRU")

    def test_bounded_ratios_on_benign_workloads(self):
        assert_holds("T3-TWORANDOM", "other workloads: ratio_2random_vs_opt < 3")


class TestT4Directional:
    def test_theorem_bound_holds(self):
        """HEAT-SINK at (1+eps)n beats (1+eps) * LRU at (1-2eps)n."""
        assert_holds("T4-HEATSINK", "ratio_vs_lru_small <= theorem_budget")

    def test_tracks_same_size_lru_on_zipf(self):
        assert_holds("T4-HEATSINK", "zipf: ratio_vs_lru_same < 1.2")

    def test_sink_share_tracks_probability(self):
        assert_holds("T4-HEATSINK", "|sink_miss_share - sink_prob| < 0.05")


class TestL5Directional:
    def test_orientable_in_lemma_regime(self):
        assert_holds(
            "L5-ORIENT", "lemma regime: pr_orientable >= 0.9", "beta <= 1.6: pr_orientable <= 0.3"
        )


class TestL6Directional:
    def test_lemma_load_within_bound(self):
        assert_holds("L6-COMPONENTS", "lemma load: pr_component_ge_i <= 1.5 * lemma6_bound")

    def test_control_load_violates_bound(self):
        # heavier load must break the lemma-load bound
        assert_holds("L6-COMPONENTS", "the control load escapes the bound somewhere")


class TestHeatDissipationDirectional:
    def test_two_random_cools(self):
        assert_holds("HEAT-DISSIPATION", "final-window miss_rate: 2-RANDOM < 2-LRU")

    def test_miss_tail_shapes(self):
        # 2-LRU has a heavier far tail (perpetual missers) relative to its
        # own bulk: its tail flattens while 2-RANDOM's keeps decaying
        assert_holds(
            "HEAT-DISSIPATION",
            "2-LRU keeps perpetual missers: Pr[misses > i_max] > 0",
            "2-RANDOM's miss tail decays: Pr[> 2] < Pr[> 1]",
        )


class TestAssocSweepDirectional:
    def test_direct_mapped_is_worst_family_member(self):
        assert_holds("ASSOC-SWEEP", "d-LRU: direct-mapped no better than d=4")

    def test_converges_toward_lru(self):
        assert_holds("ASSOC-SWEEP", "d-LRU at d=4 within 1.3x of full LRU")


class TestAblationDirectional:
    def test_sink_rescues_saturated_bins(self):
        assert_holds("ABLATION", "saturated: baseline misses < 0.2 * p=0 (no sink) misses")

    def test_rows_cover_all_knobs(self):
        assert_holds("ABLATION", "rows cover every knob")
