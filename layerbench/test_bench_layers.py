"""Smoke test of the layer benchmark. Run it explicitly (tier 1 collects
only ``tests/``)::

    python -m pytest layerbench/test_bench_layers.py -q

It runs every workload at ``--smoke`` scale, untraced and traced, and checks
that each run passes its own correctness checks and emits exactly the
metrics ``BENCHMARK.json`` names, with their units.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "layerbench" / "bench_layers.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def test_smoke_runs_every_workload_untraced_and_traced():
    t0 = time.perf_counter()
    proc = _bench("--smoke", "--seed", "3")
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith('{"correct"')]
    assert len(results) == 2 * len(WORKLOADS)
    for i, result in enumerate(results):
        traced = i >= len(WORKLOADS)
        spec = SPEC["per_layer" if traced else "end_to_end"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in spec}
        if not traced:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
    print(f"smoke: {len(results)} runs in {wall:.1f}s")


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns(".cache", "results", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(HERE))
    import bench_layers

    return bench_layers


@pytest.mark.parametrize(
    "a, b, lower, bound, verdict",
    [
        ([10.0] * 10, [10.0] * 10, True, 0.1, "same"),
        ([10.0] * 10, [13.0] * 10, True, 0.1, "worse"),
        ([10.0] * 10, [7.0] * 10, False, 0.1, "worse"),
        ([10.0, 10.1, 9.9, 10.0, 10.05] * 2, [8.0, 8.1, 7.9, 8.0, 8.05] * 2, True, 0.1, "better"),
        ([5.0, 15.0, 10.0, 6.0, 14.0] * 2, [10.0] * 10, True, 0.1, "unresolved"),
        ([10.0] * 10, [13.0] * 10, True, None, "worse"),
        ([5.0, 15.0, 10.0, 6.0, 14.0] * 2, [10.0] * 10, True, None, "no change shown"),
    ],
)
def test_compare_verdicts(bench, a, b, lower, bound, verdict):
    assert bench._verdict(a, b, bound, lower).startswith(verdict)
