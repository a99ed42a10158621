"""Live resharding: migration exactness, the double-read window, and
zero lost acknowledged writes under concurrent load.

The acceptance anchor from the roadmap: adding a worker mid-load
migrates only the expected key ranges (the ring's ownership diff) with
zero lost acknowledged writes and zero client-visible errors.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.cluster.router import RouterServer
from repro.cluster.worker import WorkerSpec
from repro.service.client import ServiceClient
from repro.service.server import running_server
from repro.service.store import PolicyStore

import repro

from tests.cluster.util import running_tier, start_worker


def run(coro):
    return asyncio.run(coro)


def extra_spec(index: int = 2, capacity: int = 64) -> WorkerSpec:
    return WorkerSpec(
        index=index, node=f"w{index}", policy="lru", capacity=capacity, seed=1000 + index
    )


class TestStatusAndValidation:
    def test_bare_reshard_reports_status(self):
        async def scenario():
            async with running_tier(workers=2) as tier:
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    status = await c.reshard()
            assert status["ok"] is True
            assert status["migrating"] is False
            assert status["workers"] == ["w0", "w1"]
            assert status["reshards"] == 0

        run(scenario())

    def test_plain_server_rejects_reshard(self):
        async def scenario():
            store = PolicyStore(repro.LRUCache(8))
            async with running_server(store) as server:
                async with await ServiceClient.connect("127.0.0.1", server.port) as c:
                    return await c.reshard("w9", host="127.0.0.1", port=1)

        response = run(scenario())
        assert response["ok"] is False
        assert response["code"] == "rejected"

    def test_add_existing_node_rejected(self):
        async def scenario():
            async with running_tier(workers=2) as tier:
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    return await c.reshard("w1", host="127.0.0.1", port=9)

        response = run(scenario())
        assert response["ok"] is False
        assert "already on the ring" in response["error"]

    def test_unreachable_new_worker_rejected_ring_unchanged(self):
        async def scenario():
            async with running_tier(workers=2) as tier:
                # grab a port nothing listens on
                probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
                dead_port = probe.sockets[0].getsockname()[1]
                probe.close()
                await probe.wait_closed()
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    response = await c.reshard("w9", host="127.0.0.1", port=dead_port)
                return response, tier.router.workers

        response, workers = run(scenario())
        assert response["ok"] is False
        assert "not answering" in response["error"]
        assert workers == ["w0", "w1"]

    def test_remove_unknown_and_last_rejected(self):
        async def scenario():
            async with running_tier(workers=1) as tier:
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    unknown = await c.reshard("w9", remove=True)
                    last = await c.reshard("w0", remove=True)
            return unknown, last

        unknown, last = run(scenario())
        assert unknown["ok"] is False and "not on the ring" in unknown["error"]
        assert last["ok"] is False and "last worker" in last["error"]

    def test_concurrent_reshard_rejected(self, monkeypatch):
        gate = asyncio.Event
        original = RouterServer._run_migration

        async def scenario():
            hold = asyncio.Event()

            async def gated(self, migration):
                await hold.wait()
                await original(self, migration)

            monkeypatch.setattr(RouterServer, "_run_migration", gated)
            async with running_tier(workers=2) as tier:
                first = await start_worker(extra_spec(2))
                second = await start_worker(extra_spec(3))
                try:
                    async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                        ok = await c.reshard("w2", host="127.0.0.1", port=first.port)
                        assert ok["ok"] is True
                        busy = await c.reshard("w3", host="127.0.0.1", port=second.port)
                        assert busy["ok"] is False
                        assert "already migrating" in busy["error"]
                        status = await c.reshard()
                        assert status["migrating"] is True and status["node"] == "w2"
                        hold.set()
                        await tier.router.wait_reshard(10)
                finally:
                    await first.stop()
                    await second.stop()

        run(scenario())


class TestSweep:
    def test_add_migrates_exactly_the_ownership_diff(self):
        """The sweep must move precisely the resident-with-payload keys
        whose ring owner changed — no more, no fewer — and afterwards
        every key's payload lives on its new owner."""

        async def scenario():
            async with running_tier(workers=2, capacity=256) as tier:
                keys = list(range(100))
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    await c.mput(keys, [f"v{k}" for k in keys])
                    old_ring = tier.router.ring.copy()
                    # the post-add ring is a pure function of node names, so
                    # the movers are predictable before the worker exists —
                    # delete two of them to prove payload-less residents
                    # (which PEEK reports as stored=False) never migrate
                    predicted = old_ring.copy()
                    predicted.add_node("w2")
                    movers = [k for k in keys if old_ring.owner(k) != predicted.owner(k)]
                    assert len(movers) >= 3
                    deleted = set(movers[:2])
                    for key in deleted:
                        await c.delete(key)
                    extra = await start_worker(extra_spec(2, capacity=128))
                    try:
                        response = await c.reshard("w2", host="127.0.0.1", port=extra.port)
                        assert response["ok"] is True
                        await tier.router.wait_reshard(10)
                        new_ring = tier.router.ring
                        expected = sorted(k for k in movers if k not in deleted)
                        moved = tier.router.last_reshard
                        assert moved["error"] is None
                        assert moved["moved"] == len(expected)
                        # every surviving key's payload is on its new owner
                        servers = {
                            "w0": tier.server_for("w0"),
                            "w1": tier.server_for("w1"),
                            "w2": extra,
                        }
                        for key in keys:
                            if key in deleted:
                                continue
                            owner = new_ring.owner(key)
                            hit, value, stored = await servers[owner].store.peek(key)
                            assert hit and stored and value == f"v{key}", (key, owner)
                        # deleted movers stayed put: nothing stored anywhere
                        for key in deleted:
                            for server in servers.values():
                                _, _, stored = await server.store.peek(key)
                                assert not stored, key
                        # and values are still readable through the front door
                        got = await c.mget(keys)
                        assert [
                            v for k, v in zip(keys, got["values"]) if k not in deleted
                        ] == [f"v{k}" for k in keys if k not in deleted]
                    finally:
                        await extra.stop()

        run(scenario())

    def test_remove_drains_the_node_and_closes_it(self):
        async def scenario():
            async with running_tier(workers=3, capacity=192) as tier:
                keys = list(range(90))
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    await c.mput(keys, [str(k) for k in keys])
                    old_ring = tier.router.ring.copy()
                    victim_keys = [k for k in keys if old_ring.owner(k) == "w1"]
                    assert victim_keys  # the ring gives every node a share
                    response = await c.reshard("w1", remove=True)
                    assert response["ok"] is True
                    await tier.router.wait_reshard(10)
                    assert tier.router.workers == ["w0", "w2"]
                    assert tier.router.last_reshard["moved"] == len(victim_keys)
                    got = await c.mget(keys)
                    assert got["values"] == [str(k) for k in keys]
                    status = await c.reshard()
            assert status["workers"] == ["w0", "w2"]

        run(scenario())


class TestDoubleReadWindow:
    def test_window_ops_never_lose_values(self, monkeypatch):
        """While the sweep is held open, every op must behave as if the
        cluster were a single store: reads find the value wherever it
        lives (migrating it on the fly), writes land on the new owner and
        invalidate the old copy."""
        original = RouterServer._run_migration

        async def scenario():
            hold = asyncio.Event()

            async def gated(self, migration):
                await hold.wait()
                await original(self, migration)

            monkeypatch.setattr(RouterServer, "_run_migration", gated)
            async with running_tier(workers=2, capacity=256) as tier:
                keys = list(range(80))
                async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                    await c.mput(keys, [f"old{k}" for k in keys])
                    old_ring = tier.router.ring.copy()
                    extra = await start_worker(extra_spec(2, capacity=128))
                    try:
                        assert (
                            await c.reshard("w2", host="127.0.0.1", port=extra.port)
                        )["ok"] is True
                        new_ring = tier.router.ring
                        movers = [
                            k for k in keys if old_ring.owner(k) != new_ring.owner(k)
                        ]
                        assert movers
                        # GET during the window: falls back to the old owner,
                        # migrates on the spot, answers the value
                        got = await c.get(movers[0])
                        assert got == {"ok": True, "hit": True, "value": f"old{movers[0]}"}
                        hit, value, stored = await extra.store.peek(movers[0])
                        assert hit and stored and value == f"old{movers[0]}"
                        # PUT during the window: new owner has it, old copy gone
                        await c.put(movers[1], "fresh")
                        assert (await c.get(movers[1]))["value"] == "fresh"
                        old_server = tier.server_for(old_ring.owner(movers[1]))
                        _, stale, stale_stored = await old_server.store.peek(movers[1])
                        assert stale is None and not stale_stored
                        # DEL during the window: both copies dropped
                        assert (await c.delete(movers[2]))["deleted"] is True
                        assert (await c.get(movers[2]))["value"] is None
                        # PEEK during the window: non-mutating double read
                        peeked = await c.peek(movers[3])
                        assert peeked["hit"] is True
                        assert peeked["value"] == f"old{movers[3]}"
                        # batches explode through the same path
                        got = await c.mget(movers[4:8])
                        assert got["values"] == [f"old{k}" for k in movers[4:8]]
                        hold.set()
                        await tier.router.wait_reshard(10)
                        # after the window: everything readable, nothing stale
                        final = await c.mget(keys)
                        for key, value in zip(keys, final["values"]):
                            if key == movers[1]:
                                assert value == "fresh"
                            elif key == movers[2]:
                                assert value is None
                            else:
                                assert value == f"old{key}"
                    finally:
                        await extra.stop()

        run(scenario())


class TestReshardUnderLoad:
    def test_zero_lost_acked_writes_zero_errors(self):
        """Writers and readers hammer the router while a worker joins.
        Keyspace < every worker's capacity, so nothing can be evicted:
        every acknowledged write must be readable afterwards with its
        latest acknowledged value, and no client may see an error."""

        async def scenario():
            async with running_tier(workers=2, capacity=400, seed=3) as tier:
                keyspace = 60  # far below the 100-slot new-worker share
                acked: dict[int, str] = {}
                errors: list[dict] = []
                stop = asyncio.Event()

                async def writer(worker_id: int) -> None:
                    rng = np.random.default_rng(worker_id)
                    async with await ServiceClient.connect(
                        "127.0.0.1", tier.port, timeout=10.0
                    ) as c:
                        version = 0
                        while not stop.is_set():
                            key = int(rng.integers(0, keyspace))
                            value = f"w{worker_id}-{version}"
                            response = await c.put(key, value)
                            if response.get("ok"):
                                acked[key] = value  # single loop: no lock needed
                            else:
                                errors.append(response)
                            version += 1
                            if version % 7 == 0:
                                got = await c.get(int(rng.integers(0, keyspace)))
                                if not got.get("ok"):
                                    errors.append(got)

                writers = [asyncio.create_task(writer(i)) for i in range(3)]
                await asyncio.sleep(0.1)  # build up state under load
                extra = await start_worker(extra_spec(2, capacity=200))
                try:
                    async with await ServiceClient.connect("127.0.0.1", tier.port) as c:
                        response = await c.reshard("w2", host="127.0.0.1", port=extra.port)
                        assert response["ok"] is True
                        await tier.router.wait_reshard(30)
                        await asyncio.sleep(0.05)  # a little post-window load
                        stop.set()
                        await asyncio.gather(*writers)
                        assert errors == [], errors[:3]
                        assert tier.router.last_reshard["error"] is None
                        # every acknowledged write is readable with its
                        # latest acknowledged value
                        keys = sorted(acked)
                        got = await c.mget(keys)
                        assert got["hits"] == [True] * len(keys)
                        for key, value in zip(keys, got["values"]):
                            assert value == acked[key], key
                        stats = await c.stats()
                        assert stats["errors"] == 0
                finally:
                    await extra.stop()

        run(scenario())
