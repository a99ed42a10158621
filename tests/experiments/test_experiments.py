"""Smoke + directional tests for every registered experiment.

Each experiment runs at ``smoke`` scale and we assert the *shape* of its
theorem's claim — these are the statements EXPERIMENTS.md reports at
larger scale, and each module's ``check`` must pass on its smoke table.
"""

from __future__ import annotations

import numpy as np
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


class TestT2Directional:
    def test_plru_melts_while_opt_is_cold(self):
        table = smoke("T2-LOWERBOUND")
        for row in table:
            # persistent per-round misses: the melt never heals
            assert row["late_misses_per_round"] > 5
            # OPT's post-populate misses are exactly the cold misses on A∪B
            assert row["opt_misses_post_t0"] == row["opt_cold_misses_expected"]

    def test_ratio_grows_with_rounds(self):
        table = smoke("T2-LOWERBOUND")
        for row in table:
            assert row["ratio_at_K20"] > row["ratio_at_K10"]


class TestSemiUniformDirectional:
    def test_every_distribution_melts(self):
        table = smoke("T2-SEMIUNIFORM")
        for row in table:
            assert row["late_misses_per_round"] > 5, row["distribution"]

    def test_covers_semi_and_non_semi_uniform(self):
        flags = {row["semi_uniform"] for row in smoke("T2-SEMIUNIFORM")}
        assert flags == {True, False}


class TestT3Directional:
    def test_two_random_heals_two_lru_does_not(self):
        table = smoke("T3-TWORANDOM")
        adv = [r for r in table if r["workload"].startswith("adversarial")]
        assert adv
        for row in adv:
            assert row["late_misses_per_round_2random"] < row["late_misses_per_round_2lru"]

    def test_bounded_ratios_on_benign_workloads(self):
        table = smoke("T3-TWORANDOM")
        for row in table:
            if not row["workload"].startswith("adversarial"):
                assert row["ratio_2random_vs_opt"] < 3.0


class TestT4Directional:
    def test_theorem_bound_holds(self):
        """HEAT-SINK at (1+eps)n beats (1+eps) * LRU at (1-2eps)n."""
        table = smoke("T4-HEATSINK")
        for row in table:
            assert row["ratio_vs_lru_small"] <= row["theorem_budget"], row

    def test_tracks_same_size_lru_on_zipf(self):
        table = smoke("T4-HEATSINK")
        zipf_rows = [r for r in table if r["workload"].startswith("zipf")]
        assert zipf_rows
        for row in zipf_rows:
            assert row["ratio_vs_lru_same"] < 1.2

    def test_sink_share_tracks_probability(self):
        for row in smoke("T4-HEATSINK"):
            assert abs(row["sink_miss_share"] - row["sink_prob"]) < 0.05


class TestL5Directional:
    def test_orientable_in_lemma_regime(self):
        for row in smoke("L5-ORIENT"):
            if row["in_lemma_regime"]:
                assert row["pr_orientable"] >= 0.9
            elif row["beta"] <= 1.6:
                assert row["pr_orientable"] <= 0.3


class TestL6Directional:
    def test_lemma_load_within_bound(self):
        for row in smoke("L6-COMPONENTS"):
            if row["load"].startswith("lemma"):
                assert row["pr_component_ge_i"] <= row["lemma6_bound"] * 1.5

    def test_control_load_violates_bound(self):
        violations = [
            row for row in smoke("L6-COMPONENTS")
            if row["load"].startswith("control") and not row["within_bound"]
        ]
        assert violations  # heavier load must break the lemma-load bound


class TestHeatDissipationDirectional:
    def test_two_random_cools(self):
        table = smoke("HEAT-DISSIPATION")
        timeline = [r for r in table if r["kind"] == "timeline"]
        rnd = sorted(
            (r for r in timeline if r["policy"] == "2-RANDOM"), key=lambda r: r["window"]
        )
        lru = sorted(
            (r for r in timeline if r["policy"] == "2-LRU"), key=lambda r: r["window"]
        )
        # final-window miss rate: 2-RANDOM below 2-LRU
        assert rnd[-1]["miss_rate"] < lru[-1]["miss_rate"]

    def test_miss_tail_shapes(self):
        table = smoke("HEAT-DISSIPATION")
        tails = {("2-LRU",): {}, ("2-RANDOM",): {}}
        for r in table:
            if r["kind"] == "miss_tail":
                tails[(r["policy"],)][r["i"]] = r["pr_misses_gt_i"]
        # 2-LRU has a heavier far tail (perpetual missers) relative to its
        # own bulk: its tail flattens while 2-RANDOM's keeps decaying
        lru_tail = tails[("2-LRU",)]
        rnd_tail = tails[("2-RANDOM",)]
        i_max = max(lru_tail)
        assert lru_tail[i_max] > 0
        assert rnd_tail[2] < rnd_tail[1]  # decaying


class TestAssocSweepDirectional:
    def test_direct_mapped_is_worst_family_member(self):
        table = smoke("ASSOC-SWEEP")
        for workload, group in table.group_by("workload").items():
            dlru = {r["d"]: r["steady_miss_rate"] for r in group if r["design"] == "d-LRU"}
            assert dlru[1] >= dlru[4]

    def test_converges_toward_lru(self):
        table = smoke("ASSOC-SWEEP")
        for workload, group in table.group_by("workload").items():
            rows = {r["d"]: r["vs_full_lru"] for r in group if r["design"] == "d-LRU"}
            assert rows[4] < 1.3


class TestAblationDirectional:
    def test_sink_rescues_saturated_bins(self):
        table = smoke("ABLATION")
        sat = table.where(lambda r: r["workload"] == "saturated")
        baseline = next(r for r in sat if r["knob"] == "baseline")
        no_sink = next(r for r in sat if r["variant"].startswith("p=0"))
        assert baseline["misses_post_warm"] < 0.2 * no_sink["misses_post_warm"]

    def test_rows_cover_all_knobs(self):
        knobs = {r["knob"] for r in smoke("ABLATION")}
        assert knobs == {"baseline", "bin_size", "sink_prob", "sink_size", "sink_policy"}
