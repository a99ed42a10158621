"""Server round-trips, error isolation, and lifecycle (localhost, port 0)."""

from __future__ import annotations

import asyncio
import json

import pytest

import repro
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.protocol import CODE_OVERFLOW, MAX_FRAME_BYTES
from repro.service.server import CacheServer, running_server
from repro.service.store import PolicyStore


def run(coro):
    return asyncio.run(coro)


def make_store(capacity=8):
    return PolicyStore(repro.LRUCache(capacity))


class TestRoundTrip:
    def test_ping_get_put_del_stats(self):
        async def scenario():
            async with running_server(make_store()) as server:
                async with await ServiceClient.connect("127.0.0.1", server.port) as c:
                    assert await c.ping() is True
                    assert await c.get(1) == {"ok": True, "hit": False, "value": None}
                    assert (await c.put(1, "payload"))["hit"] is True
                    assert await c.get(1) == {"ok": True, "hit": True, "value": "payload"}
                    assert (await c.delete(1))["deleted"] is True
                    stats = await c.stats()
            assert stats["gets"] == 2
            assert stats["puts"] == 1
            assert stats["dels"] == 1
            assert stats["hits"] == 2
            assert stats["misses"] == 1
            assert stats["connections_total"] == 1

        run(scenario())

    def test_pipelined_window_preserves_order(self):
        async def scenario():
            async with running_server(make_store(4)) as server:
                async with await ServiceClient.connect("127.0.0.1", server.port) as c:
                    responses = await c.get_window([1, 1, 2, 1, 3])
            return [r["hit"] for r in responses]

        assert run(scenario()) == [False, True, False, True, False]

    def test_two_connections_share_the_store(self):
        async def scenario():
            async with running_server(make_store()) as server:
                async with await ServiceClient.connect("127.0.0.1", server.port) as a:
                    await a.put(5, "from-a")
                async with await ServiceClient.connect("127.0.0.1", server.port) as b:
                    return await b.get(5)

        assert run(scenario()) == {"ok": True, "hit": True, "value": "from-a"}


class TestErrorIsolation:
    def test_malformed_line_gets_error_response_and_connection_survives(self):
        async def scenario():
            async with running_server(make_store()) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"this is not json\n")
                await writer.drain()
                error = json.loads(await reader.readline())
                writer.write(b'{"op": "PING"}\n')
                await writer.drain()
                pong = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return error, pong

        error, pong = run(scenario())
        assert error["ok"] is False and error["code"] == "bad-request"
        assert pong == {"ok": True, "pong": True}

    @pytest.mark.parametrize(
        "line",
        [b'{"op": "EXPLODE"}\n', b'{"op": "GET", "key": "nope"}\n', b"[]\n"],
    )
    def test_bad_requests_counted_not_fatal(self, line):
        async def scenario(store):
            async with running_server(store) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(line)
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return response

        store = make_store()
        response = run(scenario(store))
        assert response["ok"] is False
        assert store.metrics.errors == 1

    def test_one_bad_client_does_not_break_another(self):
        async def scenario():
            async with running_server(make_store()) as server:
                bad_reader, bad_writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                bad_writer.write(b'{"op":\n')  # garbage, then go silent
                await bad_writer.drain()
                await bad_reader.readline()  # server answers with an error

                async with await ServiceClient.connect("127.0.0.1", server.port) as good:
                    result = await good.ping()
                bad_writer.close()
                await bad_writer.wait_closed()
                return result

        assert run(scenario()) is True

    def test_abrupt_disconnect_mid_stream(self):
        async def scenario():
            async with running_server(make_store()) as server:
                _, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b'{"op": "GET", "key": 1}\n')
                await writer.drain()
                writer.close()  # vanish without reading the response
                await asyncio.sleep(0.05)
                async with await ServiceClient.connect("127.0.0.1", server.port) as c:
                    return await c.ping()

        assert run(scenario()) is True

    def test_oversized_frame_answered_then_connection_closed(self):
        """The ``overflow`` row of the failure table: one answer, then EOF."""

        async def scenario():
            async with running_server(make_store()) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
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


class TestLifecycle:
    def test_ephemeral_port_assigned(self):
        async def scenario():
            server = CacheServer(make_store())
            await server.start()
            try:
                assert server.port > 0
                assert server.is_serving
            finally:
                await server.stop()
            assert not server.is_serving

        run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            server = CacheServer(make_store())
            await server.start()
            try:
                with pytest.raises(ServiceError):
                    await server.start()
            finally:
                await server.stop()

        run(scenario())

    def test_stop_closes_idle_connections(self):
        async def scenario():
            server = CacheServer(make_store())
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await server.stop()  # must not hang on the idle connection
            assert await reader.read() == b""  # server side closed
            writer.close()

        run(scenario())

    def test_stop_is_idempotent(self):
        async def scenario():
            server = CacheServer(make_store())
            await server.start()
            await server.stop()
            await server.stop()

        run(scenario())


class TestMetricsOp:
    def test_metrics_op_returns_parseable_exposition(self):
        from repro.obs.exposition import parse_prometheus

        async def scenario():
            async with running_server(make_store()) as server:
                async with await ServiceClient.connect("127.0.0.1", server.port) as c:
                    await c.put(1, "x")
                    await c.get(1)
                    await c.get(2)
                    text = await c.metrics()
                    stats = await c.stats()
            return text, stats

        text, stats = run(scenario())
        parsed = parse_prometheus(text)
        assert parsed.value("repro_hits_total") == stats["hits"]
        assert parsed.value("repro_misses_total") == stats["misses"]
        assert parsed.value("repro_ops_total", op="get") == stats["gets"]
        assert parsed.value("repro_ops_total", op="put") == stats["puts"]
        assert parsed.value("repro_resident_pages") == stats["resident"]
        # METRICS itself is not a policy access
        assert stats["accesses"] == 3

    def test_per_op_latency_counts_match_traffic(self):
        from repro.obs.exposition import parse_prometheus

        async def scenario():
            async with running_server(make_store()) as server:
                async with await ServiceClient.connect("127.0.0.1", server.port) as c:
                    for _ in range(3):
                        await c.get(1)
                    await c.put(2, "v")
                    await c.delete(2)
                    return await c.metrics()

        parsed = parse_prometheus(run(scenario()))
        assert parsed.value("repro_op_latency_seconds_count", op="get") == 3.0
        assert parsed.value("repro_op_latency_seconds_count", op="put") == 1.0
        assert parsed.value("repro_op_latency_seconds_count", op="del") == 1.0
        # combined histogram counts every answered request, METRICS included
        assert parsed.value("repro_request_latency_seconds_count") >= 5.0

    def test_metrics_via_resilient_client(self):
        from repro.service.client import ResilientClient

        async def scenario():
            async with running_server(make_store()) as server:
                async with ResilientClient("127.0.0.1", server.port) as c:
                    await c.get(7)
                    return await c.metrics()

        assert "repro_misses_total 1" in run(scenario())
