"""Chaos on the upstream plane: router↔worker links under seeded faults.

A :class:`~repro.service.faults.ChaosProxy` sits between the router and
one worker, applying a deterministic :class:`FaultPlan` to the binary
frames of the pooled links. The acceptance bar: the router never
crashes, every client op gets exactly one answer (ok or coded error),
idempotent ops are retried while writes never are, and the workers'
store invariants hold no matter what the network did.
"""

from __future__ import annotations

import asyncio
import contextlib


from repro.cluster.router import RouterServer
from repro.cluster.worker import build_specs
from repro.errors import ProtocolError, ServiceError
from repro.service.client import ServiceClient
from repro.service.faults import FaultPlan, running_proxy
from repro.service.protocol import CODE_UPSTREAM

from tests.cluster.util import start_worker


def run(coro):
    return asyncio.run(coro)


@contextlib.asynccontextmanager
async def chaotic_tier(plan: FaultPlan, *, workers: int = 2, capacity: int = 512, **kwargs):
    """An in-process tier whose *last* worker sits behind a chaos proxy.

    Yields ``(router, servers, proxy, chaos_node)``. The router's
    upstream timeout is cut to 0.4s so dropped frames resolve quickly.
    """
    specs = build_specs("lru", capacity, workers, seed=5)
    servers = [await start_worker(spec) for spec in specs]
    try:
        async with running_proxy("127.0.0.1", servers[-1].port, plan) as proxy:
            endpoints = [
                (spec.node, "127.0.0.1", server.port)
                for spec, server in zip(specs[:-1], servers[:-1])
            ]
            endpoints.append((specs[-1].node, "127.0.0.1", proxy.port))
            kwargs.setdefault("upstream_timeout", 0.4)
            router = RouterServer(endpoints, **kwargs)
            await router.start()
            try:
                yield router, servers, proxy, specs[-1].node
            finally:
                await router.stop()
    finally:
        for server in servers:
            await server.stop()


def chaotic_keys(router: RouterServer, node: str, count: int) -> list[int]:
    """The first ``count`` keys the ring routes to the chaotic worker."""
    keys = [k for k in range(2000) if router.ring.owner(k) == node]
    assert len(keys) >= count
    return keys[:count]


class TestChaosUpstream:
    def test_drops_time_out_and_idempotent_gets_retry(self):
        """Dropped frames surface as upstream timeouts; GET is idempotent
        so the router retries it on a fresh connection — and every one of
        the N requests still gets exactly one answer."""
        plan = FaultPlan(seed=11, drop_rate=0.06, direction="both")

        async def scenario():
            async with chaotic_tier(plan) as (router, servers, proxy, node):
                keys = chaotic_keys(router, node, 120)
                responses = []
                async with await ServiceClient.connect(
                    "127.0.0.1", router.port, timeout=30.0
                ) as c:
                    for key in keys:
                        responses.append(await c.get(key))
                    assert await c.ping() is True  # the router itself is fine
                assert len(responses) == len(keys)
                for response in responses:
                    if not response.get("ok"):
                        assert response["code"] == CODE_UPSTREAM
                m = router.metrics
                assert proxy.stats.drops >= 1  # the plan actually fired
                assert m.upstream_timeouts >= 1
                assert m.upstream_retries >= 1  # GETs were replayed
                assert router.is_serving
                for server in servers:
                    assert await server.store.verify() == []

        run(scenario())

    def test_writes_are_never_retried(self):
        """A PUT that times out must NOT be replayed (it is not
        idempotent for the policy's access sequence): timeouts are
        counted, the retry counter stays at zero, and every *acked* PUT
        is durably stored on the worker."""
        plan = FaultPlan(seed=7, drop_rate=0.08, direction="c2s")

        async def scenario():
            async with chaotic_tier(plan) as (router, servers, proxy, node):
                keys = chaotic_keys(router, node, 100)
                acked: dict[int, str] = {}
                async with await ServiceClient.connect(
                    "127.0.0.1", router.port, timeout=30.0
                ) as c:
                    for key in keys:
                        response = await c.put(key, f"v{key}")
                        if response.get("ok"):
                            acked[key] = f"v{key}"
                        else:
                            assert response["code"] == CODE_UPSTREAM
                m = router.metrics
                assert proxy.stats.drops >= 1
                assert m.upstream_timeouts >= 1
                assert m.upstream_retries == 0  # writes never replay
                assert acked  # chaos is partial, most writes land
                chaotic_store = servers[-1].store
                for key, value in acked.items():
                    resident, stored_value, stored = await chaotic_store.peek(key)
                    assert resident and stored and stored_value == value, key
                assert await chaotic_store.verify() == []

        run(scenario())

    def test_resets_truncations_corruption_never_crash_the_router(self):
        """The full menu at once, both directions. Every op returns a
        dict or a client-side decode error — never a hang, never a
        router crash — and both stores stay internally consistent."""
        plan = FaultPlan(
            seed=23,
            drop_rate=0.02,
            reset_rate=0.03,
            truncate_rate=0.03,
            corrupt_rate=0.04,
            delay_rate=0.05,
            delay_s=0.001,
            direction="both",
        )

        async def scenario():
            async with chaotic_tier(plan) as (router, servers, proxy, node):
                answered = 0
                client_errors = 0
                async with await ServiceClient.connect(
                    "127.0.0.1", router.port, timeout=30.0
                ) as c:
                    for i in range(150):
                        try:
                            if i % 3 == 0:
                                response = await c.put(i, f"v{i}")
                            elif i % 3 == 1:
                                response = await c.get(i - 1)
                            else:
                                response = await c.mget([i, i - 1, i - 2])
                            assert isinstance(response, dict)
                            answered += 1
                        except (ServiceError, ProtocolError):
                            # a corrupted/reset *response* is a client-side
                            # error; the router must shrug it off
                            client_errors += 1
                assert answered + client_errors == 150
                assert answered > 0
                assert proxy.stats.faults >= 1
                assert router.is_serving
                # the chaos-free worker never noticed anything
                async with await ServiceClient.connect(
                    "127.0.0.1", router.port, timeout=30.0
                ) as c:
                    clean = [k for k in range(500) if router.ring.owner(k) != node][:20]
                    for key in clean:
                        assert (await c.put(key, "x")).get("ok") is True
                for server in servers:
                    assert await server.store.verify() == []

        run(scenario())

    def test_clean_plan_is_transparent(self):
        """A zero-rate plan must forward everything untouched: no
        errors, no retries, no timeouts — the proxy is invisible."""
        plan = FaultPlan(seed=1)

        async def scenario():
            async with chaotic_tier(plan) as (router, servers, proxy, node):
                keys = chaotic_keys(router, node, 40)
                async with await ServiceClient.connect("127.0.0.1", router.port) as c:
                    for key in keys:
                        assert (await c.put(key, str(key)))["ok"] is True
                    got = await c.mget(keys)
                    assert got["values"] == [str(k) for k in keys]
                m = router.metrics
                assert proxy.stats.faults == 0
                assert proxy.stats.frames > 0
                assert (m.upstream_timeouts, m.upstream_retries, m.upstream_errors) == (
                    0,
                    0,
                    0,
                )

        run(scenario())
