"""Router behaviour over in-process workers: routing, ordering, parity.

The contract under test: a client must not be able to tell a router
from a single :class:`CacheServer` (same ops, same framings, same
response order), while hit-for-hit results stay pinned to the offline
ring-partitioned reference (:func:`cluster_reference`).
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import numpy as np
import pytest

from repro.cluster.ring import HashRing
from repro.cluster.router import RouterServer
from repro.cluster.worker import build_specs, cluster_reference
from repro.errors import ConfigurationError, ServiceError
from repro.service.client import ServiceClient
from repro.service.loadgen import replay_trace
from repro.service.protocol import CODE_OVERFLOW, CODE_UPSTREAM, MAX_FRAME_BYTES

from tests.cluster.util import running_tier, start_worker


def run(coro):
    return asyncio.run(coro)


class TestConstruction:
    def test_no_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            RouterServer([])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            RouterServer([("w0", "h", 1), ("w0", "h", 2)])

    def test_ring_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="ring nodes"):
            RouterServer([("w0", "h", 1)], ring=HashRing(["a"]))

    def test_bad_knobs_rejected(self):
        workers = [("w0", "h", 1)]
        with pytest.raises(ConfigurationError):
            RouterServer(workers, upstream_retries=-1)
        with pytest.raises(ConfigurationError):
            RouterServer(workers, max_inflight=0)
        with pytest.raises(ConfigurationError):
            RouterServer(workers, frames=("smoke-signals",))

    @pytest.mark.parametrize("write_timeout", [0, -1.0])
    def test_non_positive_write_timeout_rejected(self, write_timeout):
        with pytest.raises(ConfigurationError, match="write_timeout"):
            RouterServer([("w0", "h", 1)], write_timeout=write_timeout)


class TestRoundTrip:
    @pytest.mark.parametrize("frame", ["ndjson", "binary"])
    def test_all_ops_both_framings(self, frame):
        async def scenario():
            async with running_tier(workers=3) as tier:
                async with await ServiceClient.connect(
                    "127.0.0.1", tier.port, frame=frame
                ) as c:
                    assert await c.ping() is True
                    assert await c.get(1) == {"ok": True, "hit": False, "value": None}
                    assert (await c.put(1, "v1"))["hit"] is True
                    assert await c.get(1) == {"ok": True, "hit": True, "value": "v1"}
                    assert (await c.peek(1)) == {
                        "ok": True,
                        "hit": True,
                        "value": "v1",
                        "stored": True,
                    }
                    assert (await c.delete(1))["deleted"] is True
                    # payload gone, residency (and thus PEEK miss) too
                    assert (await c.get(1))["value"] is None
                    keys = await c.keys()
                    assert 1 in keys  # DEL keeps residency, drops payload
                    stats = await c.stats()
            assert stats["workers"] == 3
            assert stats["gets"] == 3
            assert stats["puts"] == 1
            assert stats["dels"] == 1
            assert len(stats["per_worker"]) == 3
            assert stats["router"]["forwarded"] >= 6

        run(scenario())

    def test_requests_route_by_ring_owner(self):
        async def scenario():
            async with running_tier(workers=3, capacity=96) as tier:
                ring = tier.router.ring
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    for key in range(60):
                        await c.put(key, f"v{key}")
                # each worker holds exactly the keys the ring assigns it
                for spec, server in zip(tier.specs, tier.servers):
                    resident = await server.store.keys()
                    assert resident == sorted(
                        k for k in range(60) if ring.owner(k) == spec.node
                    )

        run(scenario())

    def test_pipelined_window_preserves_order(self):
        """Responses come back in request order even though the keys
        scatter across workers mid-window."""

        async def scenario():
            async with running_tier(workers=3, capacity=12) as tier:
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    return [
                        r["hit"] for r in await c.get_window([1, 1, 2, 1, 3, 2, 9, 9])
                    ]

        assert run(scenario()) == [False, True, False, True, False, True, False, True]

    def test_mget_mput_fan_out_and_reassemble(self):
        async def scenario():
            async with running_tier(workers=3, capacity=96) as tier:
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    keys = list(range(40))
                    put = await c.mput(keys, [f"v{k}" for k in keys])
                    # first touch: every PUT is a policy miss, value stored
                    assert put["hits"] == [False] * 40
                    got = await c.mget(keys)
                    assert got["hits"] == [True] * 40
                    assert got["values"] == [f"v{k}" for k in keys]
                    # mixed batch: order preserved across owners
                    mixed = await c.mget([39, 0, 999, 7])
                    assert mixed["hits"] == [True, True, False, True]
                    assert mixed["values"] == ["v39", "v0", None, "v7"]
                    stats = await c.stats()
            assert stats["router"]["fanouts"] >= 3

        run(scenario())

    def test_single_owner_batch_forwards_whole_frame(self):
        async def scenario():
            async with running_tier(workers=2) as tier:
                ring = tier.router.ring
                # find keys all owned by one node
                bucket: dict[str, list[int]] = {}
                for key in range(200):
                    bucket.setdefault(ring.owner(key), []).append(key)
                    if any(len(v) >= 5 for v in bucket.values()):
                        break
                keys = next(v for v in bucket.values() if len(v) >= 5)[:5]
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    await c.mput(keys, ["x"] * len(keys))
                    got = await c.mget(keys)
                    stats = await c.stats()
                assert got["hits"] == [True] * len(keys)
                # both batches forwarded as single frames, zero data
                # fan-outs (STATS counts its own after snapshotting)
                assert stats["router"]["fanouts"] == 0
                assert stats["router"]["forwarded"] == 2

        run(scenario())

    def test_keys_merged_and_deduped(self):
        async def scenario():
            async with running_tier(workers=3, capacity=96) as tier:
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    for key in range(30):
                        await c.put(key, key)
                    keys = await c.keys()
                assert keys == sorted(set(keys)) == list(range(30))

        run(scenario())


class TestFraming:
    def test_hello_negotiates_binary(self):
        async def scenario():
            async with running_tier() as tier:
                c = await ServiceClient.connect("127.0.0.1", tier.port, frame="binary")
                assert c.frame == "binary"
                await c.put(1, "x")
                assert (await c.get(1))["value"] == "x"
                await c.close()

        run(scenario())

    def test_ndjson_only_router_rejects_binary(self):
        async def scenario():
            async with running_tier(frames=("ndjson",)) as tier:
                with pytest.raises(ServiceError, match="binary"):
                    await ServiceClient.connect("127.0.0.1", tier.port, frame="binary")

        run(scenario())

    def test_mixed_framings_on_one_connection(self):
        """Per-frame autodetection: the router answers each frame in the
        framing it arrived in, like the single server."""

        async def scenario():
            async with running_tier() as tier:
                reader, writer = await asyncio.open_connection("127.0.0.1", tier.port)
                body = json.dumps({"op": "PUT", "key": 3, "value": "v"}).encode()
                writer.write(b"\xb1" + len(body).to_bytes(4, "big") + body)
                writer.write(b'{"op": "GET", "key": 3}\n')
                await writer.drain()
                header = await reader.readexactly(5)
                binary_reply = await reader.readexactly(int.from_bytes(header[1:], "big"))
                ndjson_reply = await reader.readline()
                writer.close()
                return json.loads(binary_reply), json.loads(ndjson_reply)

        put, got = run(scenario())
        assert put == {"ok": True, "hit": False}
        assert got == {"ok": True, "hit": True, "value": "v"}


class TestErrorIsolation:
    def test_malformed_request_answered_not_fatal(self):
        async def scenario():
            async with running_tier() as tier:
                reader, writer = await asyncio.open_connection("127.0.0.1", tier.port)
                writer.write(b"this is not json\n")
                writer.write(b'{"op": "PING"}\n')
                await writer.drain()
                bad = json.loads(await reader.readline())
                pong = json.loads(await reader.readline())
                writer.close()
                return bad, pong

        bad, pong = run(scenario())
        assert bad["ok"] is False and bad["code"] == "bad-request"
        assert pong == {"ok": True, "pong": True}

    def test_dead_worker_yields_upstream_error_not_crash(self):
        async def scenario():
            async with running_tier(workers=2, upstream_retries=1) as tier:
                victim = tier.specs[0].node
                await tier.server_for(victim).stop()
                ring = tier.router.ring
                dead_key = next(k for k in range(100) if ring.owner(k) == victim)
                live_key = next(k for k in range(100) if ring.owner(k) != victim)
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    dead = await c.get(dead_key)
                    live = await c.put(live_key, "still works")
                    stats = await c.stats()
                assert dead["ok"] is False
                assert dead["code"] == CODE_UPSTREAM
                assert live["ok"] is True
                # the snapshot degrades (dead worker marked) instead of failing
                assert stats.get("degraded") is True
                assert any("error" in w for w in stats["per_worker"])
                assert stats["router"]["upstream_errors"] > 0

        run(scenario())

    def test_idempotent_retry_reconnects_after_worker_restart(self):
        async def scenario():
            async with running_tier(workers=2, upstream_retries=2) as tier:
                victim_index = 0
                victim = tier.specs[victim_index]
                port = tier.servers[victim_index].port
                ring = tier.router.ring
                key = next(k for k in range(100) if ring.owner(k) == victim.node)
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    await c.put(key, "before")  # establishes the link
                    await tier.server_for(victim.node).stop()
                    # same port, fresh server (fresh store: payload gone)
                    tier.servers[victim_index] = await start_worker(victim, port=port)
                    got = await c.get(key)  # GET is idempotent -> safe to replay
                    stats = await c.stats()
                assert got["ok"] is True  # answered by the restarted worker
                # recovery is either a clean reconnect (link saw the EOF
                # first) or a counted retry (GET was already in flight) —
                # both end with a second upstream connection
                assert stats["router"]["upstream_connects"] >= 2

        run(scenario())

    def test_oversized_frame_answered_then_connection_closed(self):
        """Like the single server: one ``overflow`` answer, then EOF."""

        async def scenario():
            async with running_tier() as tier:
                reader, writer = await asyncio.open_connection("127.0.0.1", tier.port)
                # a binary header declaring a body past the frame bound
                writer.write(b"\xb1" + MAX_FRAME_BYTES.to_bytes(4, "big"))
                await writer.drain()
                answer = json.loads(await asyncio.wait_for(reader.readline(), 2.0))
                tail = await asyncio.wait_for(reader.read(), 2.0)
                writer.close()
                return answer, tail

        answer, tail = run(scenario())
        assert answer["ok"] is False and answer["code"] == CODE_OVERFLOW
        assert tail == b""

    def test_slow_client_dropped_after_write_timeout(self):
        async def scenario():
            async with running_tier(write_timeout=0.1) as tier:
                reader, writer = await asyncio.open_connection("127.0.0.1", tier.port)
                # park a large payload, then pipeline GETs for it without
                # ever reading: the router's drain must eventually wedge
                big = "x" * 900_000
                writer.write(
                    (f'{{"op":"PUT","key":1,"value":"{big}"}}\n').encode()
                    + b'{"op":"GET","key":1}\n' * 64
                )
                await writer.drain()
                await asyncio.sleep(1.5)  # never read; let the deadline fire
                assert tier.router.metrics.write_timeouts >= 1

                async def read_to_end():
                    with contextlib.suppress(ConnectionResetError):
                        while await reader.read(1 << 20):
                            pass

                # dropped: what the kernel buffered drains, then EOF or reset
                await asyncio.wait_for(read_to_end(), 5.0)
                writer.close()

        run(scenario())

    def test_overload_shedding(self):
        async def scenario():
            async with running_tier(max_connections=1) as tier:
                keeper = await ServiceClient.connect("127.0.0.1", tier.port)
                await keeper.ping()
                shed = await ServiceClient.connect("127.0.0.1", tier.port, timeout=2.0)
                response = await shed.get(1)
                assert response["ok"] is False
                assert response["code"] == "overloaded"
                assert tier.router.metrics.rejected == 1
                await shed.close()
                await keeper.close()

        run(scenario())


class TestParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_replay_matches_offline_reference_exactly(self, workers):
        """The acceptance anchor: a one-connection pipelined replay
        through the router reports the exact hit rate of the offline
        ring-partitioned simulation with the same derived seeds."""
        rng = np.random.default_rng(9)
        trace = (rng.zipf(1.2, size=3000).astype(np.int64) % 300)

        async def scenario():
            async with running_tier("lru", 128, workers, seed=21) as tier:
                return await replay_trace(
                    trace, host="127.0.0.1", port=tier.port, frame="binary"
                )

        report = run(scenario())
        reference = cluster_reference("lru", 128, workers, trace, seed=21)
        assert report.errors == 0
        assert report.server_stats["hit_rate"] == reference["hit_rate"]
        assert report.server_delta["accesses"] == reference["accesses"]

    def test_parity_holds_for_seeded_policy(self):
        rng = np.random.default_rng(10)
        trace = (rng.zipf(1.3, size=2000).astype(np.int64) % 200)

        async def scenario():
            async with running_tier("heatsink", 96, 3, seed=13) as tier:
                return await replay_trace(trace, host="127.0.0.1", port=tier.port)

        report = run(scenario())
        reference = cluster_reference("heatsink", 96, 3, trace, seed=13)
        assert report.errors == 0
        assert report.server_stats["hit_rate"] == reference["hit_rate"]

    def test_one_worker_cluster_matches_single_server_seeding(self):
        """workers=1 must seed with the root seed itself (not derived),
        exactly like ShardedPolicyStore.build(shards=1)."""
        specs = build_specs("heatsink", 64, 1, seed=77)
        assert specs[0].seed == 77
        assert specs[0].capacity == 64


class TestLifecycle:
    def test_stop_with_drain_lets_inflight_finish(self):
        async def scenario():
            async with running_tier() as tier:
                c = await ServiceClient.connect("127.0.0.1", tier.port)
                await c.put(1, "x")
                await tier.router.stop(drain=2.0)
                assert tier.router.is_serving is False
                await c.close()

        run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            async with running_tier() as tier:
                with pytest.raises(ServiceError, match="already"):
                    await tier.router.start()

        run(scenario())

    def test_metrics_exposition_merges_workers(self):
        async def scenario():
            async with running_tier(workers=2) as tier:
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    await c.put(1, "x")
                    await c.get(1)
                    return await c.metrics()

        text = run(scenario())
        assert "repro_cluster_workers 2" in text
        assert 'repro_worker_up{node="w0"} 1' in text
        assert 'repro_worker_up{node="w1"} 1' in text
        assert "repro_router_forwarded_total" in text
        assert "repro_request_latency_seconds_bucket" in text

    def test_merged_exposition_parses_round_trip(self):
        """The router's merged METRICS must survive the repro.obs
        exposition parser — families, types, labels, histogram buckets —
        so a real Prometheus (or our own stats CLI) can scrape a cluster
        exactly like a single server."""
        from repro.obs.exposition import parse_prometheus

        async def scenario():
            async with running_tier(workers=2) as tier:
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    for key in range(8):
                        await c.put(key, "x")
                    for key in range(8):
                        await c.get(key)
                    await c.delete(3)
                    return await c.metrics()

        parsed = parse_prometheus(run(scenario()))
        assert parsed.value("repro_cluster_workers") == 2.0
        assert parsed.value("repro_worker_up", node="w0") == 1.0
        assert parsed.value("repro_worker_up", node="w1") == 1.0
        # router-observed request latency: combined + per-op (parity with
        # the single server's exposition)
        assert parsed.types["repro_request_latency_seconds"] == "histogram"
        assert parsed.types["repro_op_latency_seconds"] == "histogram"
        assert parsed.value("repro_op_latency_seconds_count", op="get") == 8.0
        assert parsed.value("repro_op_latency_seconds_count", op="put") == 8.0
        assert parsed.value("repro_op_latency_seconds_count", op="del") == 1.0
        assert parsed.value("repro_request_latency_seconds_count") >= 17.0
        # worker counters merged across the tier survive the round trip
        assert parsed.value("repro_hits_total") >= 8.0
