"""Tests for the repro-experiment CLI."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "T2-LOWERBOUND"])
        assert args.scale == "small"
        assert args.seed == 0
        assert args.workers is None

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "X", "--scale", "galactic"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "T4-HEATSINK" in out
        assert "L5-ORIENT" in out

    def test_run_smoke_prints_table(self, capsys):
        assert main(["run", "L6-COMPONENTS", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "L6-COMPONENTS" in out
        assert "|" in out  # markdown table

    def test_run_writes_csv(self, tmp_path, capsys):
        assert (
            main(
                ["run", "L6-COMPONENTS", "--scale", "smoke", "--out", str(tmp_path)]
            )
            == 0
        )
        files = list(Path(tmp_path).glob("*.csv"))
        assert len(files) == 1
        assert files[0].name == "l6-components_smoke.csv"

    def test_failed_check_exits_1_after_every_experiment(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.cli.available_experiments", lambda: ["L6-COMPONENTS"] * 2)
        monkeypatch.setattr("repro.cli.get_check", lambda experiment: lambda table: ["p1", "p2"])
        assert main(["run-all", "--scale", "smoke"]) == 1
        out, err = capsys.readouterr()
        assert out.count("== L6-COMPONENTS") == 2
        assert err.splitlines() == [f"check failed: L6-COMPONENTS: p{i}" for i in (1, 2)] * 2

    def test_unknown_experiment(self, capsys):
        assert main(["run", "NOT-AN-EXPERIMENT", "--scale", "smoke"]) == 2
        assert "NOT-AN-EXPERIMENT" in _error_line(capsys)

    def test_characterize_command(self, tmp_path, capsys):
        import repro

        trace = repro.zipf_trace(256, 10_000, alpha=1.0, seed=1)
        path = repro.save_trace(trace, tmp_path / "t.npz")
        assert main(["characterize", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "zipf_alpha_hat" in out
        assert "footprint" in out


def _error_line(capsys) -> str:
    """The one ``error: ...`` line a typed error leaves on stderr."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


class TestTypedErrors:
    """A ReproError reaches the user as one stderr line and exit code 2."""

    def test_unknown_policy(self, capsys):
        argv = ["simulate", "--zipf", "100,1000", "--policy", "no-such-policy",
                "--capacity", "16"]
        assert main(argv) == 2
        assert "unknown policy 'no-such-policy'" in _error_line(capsys)

    def test_malformed_msr_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "128166372003061629,hm,0,Read,4096,512,100\n"
            "128166372003061630,hm,0,Read,abc,512,100\n"
        )
        argv = ["simulate", "--trace-file", str(path), "--policy", "lru", "--capacity", "16"]
        assert main(argv) == 2
        line = _error_line(capsys)
        assert "line 2" in line and "'abc'" in line

    def test_non_utf8_trace_file(self, tmp_path, capsys):
        path = tmp_path / "junk.csv"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00junk\n")
        argv = ["simulate", "--trace-file", str(path), "--policy", "lru", "--capacity", "16"]
        assert main(argv) == 2
        assert "not UTF-8" in _error_line(capsys)

    @pytest.mark.parametrize("damage", ["truncated", "overwritten"])
    def test_truncated_npz_trace(self, tmp_path, capsys, damage):
        import repro

        path = repro.save_trace(repro.zipf_trace(1000, 20_000, seed=1), tmp_path / "t.npz")
        data = bytearray(path.read_bytes())
        mid = len(data) // 2
        if damage == "truncated":
            del data[mid:]  # the zip directory at the end is gone
        else:
            data[mid : mid + 64] = bytes(64)  # the compressed member is corrupt
        path.write_bytes(data)
        argv = ["simulate", "--trace", str(path), "--policy", "lru", "--capacity", "16"]
        assert main(argv) == 2
        assert f"{path}: " in _error_line(capsys)

    def test_csv_passed_as_npz_trace(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("128166372003061629,hm,0,Read,4096,512,100\n")
        argv = ["simulate", "--trace", str(path), "--policy", "lru", "--capacity", "16"]
        assert main(argv) == 2
        assert f"{path}: not an .npz archive" in _error_line(capsys)

    @pytest.mark.parametrize(
        "body", [b"{not json\n", b"[1, 2]\n", b"\xff\xfe\n"],
        ids=["not-json", "json-array", "not-utf8"],
    )
    def test_junk_span_file(self, tmp_path, capsys, body):
        path = tmp_path / "spans.ndjson"
        path.write_bytes(body)
        assert main(["trace", str(path)]) == 2
        assert "spans.ndjson: line 1: " in _error_line(capsys)

    def test_worker_startup_error_reaches_the_parent(self):
        """A worker that cannot build its policy reports the typed error
        over the handshake; no child traceback reaches the terminal."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", "repro.cli", "cluster", "--policy", "heatsink",
                "--capacity", "2", "--workers", "2", "--port", "0"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, done.stderr
        assert "CapacityError" in errors[0]


class TestServiceCommands:
    def test_policies_lists_names_and_signatures(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "heatsink" in out
        assert "HeatSinkLRU(" in out
        assert "sink_prob" in out  # constructor parameters are shown
        assert "lru" in out

    def test_policies_covers_whole_registry(self, capsys):
        from repro.core.registry import available_policies

        main(["policies"])
        out = capsys.readouterr().out
        for name in available_policies():
            assert name in out

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.policy == "heatsink"
        assert args.capacity == 1024
        assert args.port == 7070
        assert args.shards == 1
        assert args.frame == "auto"

    def test_serve_parser_sharding_and_framing_flags(self):
        args = build_parser().parse_args(["serve", "--shards", "4", "--frame", "binary"])
        assert args.shards == 4
        assert args.frame == "binary"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--frame", "carrier-pigeon"])

    def test_loadgen_parser_wire_flags(self):
        args = build_parser().parse_args(["loadgen", "--zipf", "64,100"])
        assert args.batch == 1
        assert args.connections == 1
        assert args.frame == "ndjson"
        args = build_parser().parse_args(
            ["loadgen", "--zipf", "64,100", "--batch", "32",
             "--connections", "2", "--frame", "binary"]
        )
        assert args.batch == 32
        assert args.connections == 2
        assert args.frame == "binary"

    def test_loadgen_requires_a_trace_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen"])

    def test_loadgen_sources_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["loadgen", "--trace", "t.npz", "--zipf", "64,100"]
            )

    def test_loadgen_end_to_end_parity_with_offline(self, capsys):
        """CLI acceptance: loadgen vs a served policy vs the offline run."""
        import asyncio
        import threading

        import repro
        from repro.core.registry import make_policy
        from repro.service.server import CacheServer
        from repro.service.store import PolicyStore

        policy = make_policy("heatsink", 256, seed=9)
        offline = make_policy("heatsink", 256, seed=9).run(
            repro.zipf_trace(1024, 8_000, alpha=1.0, seed=21)
        )

        loop = asyncio.new_event_loop()
        server = CacheServer(PolicyStore(policy))
        loop.run_until_complete(server.start())
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            assert (
                main(
                    [
                        "loadgen",
                        "--port", str(server.port),
                        "--zipf", "1024,8000,1.0",
                        "--seed", "21",
                    ]
                )
                == 0
            )
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=5)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5)
            loop.close()
        out = capsys.readouterr().out
        assert f"rate {offline.hit_rate:.4f}" in out
        assert f"server hit : {offline.hit_rate:.4f}" in out


class TestStatsCommand:
    def test_stats_parser_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.command == "stats"
        assert args.port == 7070
        assert args.prom is False
        assert args.watch == 0.0

    def test_serve_parser_metrics_flags(self):
        args = build_parser().parse_args(
            ["serve", "--metrics-port", "9090", "--stats-interval", "5"]
        )
        assert args.metrics_port == 9090
        assert args.stats_interval == 5.0
        # both off by default
        defaults = build_parser().parse_args(["serve"])
        assert defaults.metrics_port == 0
        assert defaults.stats_interval == 0.0

    def test_loadgen_parser_report_interval(self):
        args = build_parser().parse_args(
            ["loadgen", "--zipf", "64,100", "--report-interval", "2"]
        )
        assert args.report_interval == 2.0

    def _serving(self):
        import asyncio
        import threading

        from repro.core.registry import make_policy
        from repro.service.server import CacheServer
        from repro.service.store import PolicyStore

        loop = asyncio.new_event_loop()
        server = CacheServer(PolicyStore(make_policy("heatsink", 64, seed=0)))
        loop.run_until_complete(server.start())
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        def stop():
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=5)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=5)
            loop.close()

        return server, stop

    def test_stats_one_shot_against_live_server(self, capsys):
        server, stop = self._serving()
        try:
            assert main(["stats", "--port", str(server.port)]) == 0
        finally:
            stop()
        out = capsys.readouterr().out
        assert "policy     : HEAT-SINK" in out
        assert "accesses" in out
        assert "get" in out  # per-op latency rows

    def test_stats_prom_against_live_server(self, capsys):
        from repro.obs.exposition import parse_prometheus

        server, stop = self._serving()
        try:
            assert main(["stats", "--port", str(server.port), "--prom"]) == 0
        finally:
            stop()
        out = capsys.readouterr().out
        parsed = parse_prometheus(out)
        assert parsed.value("repro_hits_total") == 0.0
        assert parsed.types["repro_op_latency_seconds"] == "histogram"


class TestClusterCommand:
    def test_cluster_parser_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.command == "cluster"
        assert args.policy == "heatsink"
        assert args.workers == 4
        assert args.vnodes == 64
        assert args.frame == "auto"
        assert args.pool == 2
        assert args.upstream_retries == 1
        assert args.drain == 5.0

    def test_cluster_parser_flags(self):
        args = build_parser().parse_args(
            [
                "cluster",
                "--policy", "lru",
                "--capacity", "4096",
                "--workers", "8",
                "--frame", "binary",
                "--vnodes", "128",
                "--pool", "3",
                "--metrics-port", "9100",
            ]
        )
        assert args.policy == "lru"
        assert args.capacity == 4096
        assert args.workers == 8
        assert args.frame == "binary"
        assert args.vnodes == 128
        assert args.pool == 3
        assert args.metrics_port == 9100

    def test_cluster_rejects_unknown_frame(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--frame", "smoke-signal"])
