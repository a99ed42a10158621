"""FrameSplitter and the binary wire framing, unit and end-to-end.

Covers the splitter as a pure parser (mixed-framing streams, arbitrary
chunking, oversize enforcement), the server answering each framing in
kind on a single raw connection, HELLO negotiation including refusal,
and the truncation regression: a binary frame cut short by a closing
server must surface as :class:`~repro.errors.ProtocolError` at the
client, never as a hang.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import make_policy
from repro.errors import ProtocolError, ServiceError
from repro.service.client import ServiceClient
from repro.service.framing import FrameSplitter, read_binary_frame
from repro.service.protocol import (
    BINARY_HEADER_SIZE,
    BINARY_TAG,
    FRAME_BINARY,
    FRAME_NDJSON,
    MAX_FRAME_BYTES,
    Request,
    encode_frame,
    encode_request,
)
from repro.service.server import running_server
from repro.service.store import PolicyStore


def make_store(policy: str = "heatsink", capacity: int = 32) -> PolicyStore:
    try:
        return PolicyStore(make_policy(policy, capacity, seed=0))
    except TypeError:
        return PolicyStore(make_policy(policy, capacity))


payloads = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=16)),
    max_size=4,
)


def ndjson_frame(payload: dict) -> bytes:
    return json.dumps(payload).encode() + b"\n"


class TestFrameSplitter:
    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.lists(st.tuples(payloads, st.booleans()), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_mixed_stream_recovered_under_arbitrary_chunking(self, frames, data):
        wire = bytearray()
        expected = []
        for payload, binary in frames:
            raw = encode_frame(payload) if binary else ndjson_frame(payload)
            wire += raw
            expected.append((raw, binary))
        splitter = FrameSplitter()
        out = []
        pos = 0
        while pos < len(wire):
            step = data.draw(st.integers(min_value=1, max_value=len(wire) - pos))
            out.extend(splitter.feed(bytes(wire[pos : pos + step])))
            pos += step
        assert splitter.pending == 0
        assert [(f.raw, f.binary) for f in out] == expected
        for frame, (payload, binary) in zip(out, frames):
            assert json.loads(frame.payload) == payload

    def test_partial_frames_stay_pending(self):
        splitter = FrameSplitter()
        binary = encode_frame({"ok": True, "value": "x" * 50})
        assert splitter.feed(binary[:3]) == []
        assert splitter.pending == 3
        assert splitter.feed(binary[3:-1]) == []
        (frame,) = splitter.feed(binary[-1:])
        assert frame.raw == binary and frame.binary
        assert splitter.pending == 0
        assert splitter.feed(b'{"op": "PING"') == []
        assert splitter.pending > 0
        (frame,) = splitter.feed(b"}\n")
        assert not frame.binary

    def test_oversized_line_rejected_even_before_newline(self):
        splitter = FrameSplitter(max_frame=64)
        with pytest.raises(ProtocolError, match="no newline"):
            splitter.feed(b"x" * 65)

    def test_oversized_binary_header_rejected_immediately(self):
        splitter = FrameSplitter(max_frame=64)
        header = bytes([BINARY_TAG]) + (1000).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="exceeds"):
            splitter.feed(header)

    def test_default_cap_is_max_frame_bytes(self):
        splitter = FrameSplitter()
        header = bytes([BINARY_TAG]) + (MAX_FRAME_BYTES).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            splitter.feed(header)

    def test_boundary_exact_frames_pass(self):
        splitter = FrameSplitter(max_frame=64)
        line = b"x" * 63 + b"\n"
        (frame,) = splitter.feed(line)
        assert frame.raw == line
        body = b"y" * (64 - BINARY_HEADER_SIZE)
        raw = bytes([BINARY_TAG]) + len(body).to_bytes(4, "big") + body
        (frame,) = splitter.feed(raw)
        assert frame.payload == body

    def test_rejects_tiny_max_frame(self):
        with pytest.raises(ValueError):
            FrameSplitter(max_frame=BINARY_HEADER_SIZE)


class TestReadBinaryFrame:
    @staticmethod
    def read(data: bytes) -> bytes:
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_binary_frame(reader)

        return asyncio.run(scenario())

    def test_frame_then_clean_eof(self):
        assert self.read(encode_frame({"ok": True})) == b'{"ok":true}'
        assert self.read(b"") == b""

    @pytest.mark.parametrize(
        "data, match",
        [
            (b"{" + (2).to_bytes(4, "big") + b"{}", "tag"),
            (bytes([BINARY_TAG]) + (0).to_bytes(4, "big"), "empty"),
            (bytes([BINARY_TAG]) + MAX_FRAME_BYTES.to_bytes(4, "big"), "exceeds"),
            (bytes([BINARY_TAG, 0]), "truncated binary frame: connection closed after 2 bytes"),
            (bytes([BINARY_TAG]) + (9).to_bytes(4, "big") + b"{}", "closed after 7 bytes"),
        ],
    )
    def test_malformed_frames_raise_protocol_error(self, data, match):
        with pytest.raises(ProtocolError, match=match):
            self.read(data)


class TestBinaryEndToEnd:
    def test_binary_session_matches_ndjson_session(self):
        async def session(frame: str) -> list:
            out = []
            async with running_server(make_store()) as server:
                client = await ServiceClient.connect(
                    "127.0.0.1", server.port, frame=frame
                )
                assert client.frame == frame
                try:
                    for key in range(40):
                        out.append(await client.put(key, f"v{key}"))
                    for key in range(40):
                        out.append(await client.get(key))
                    out.append(await client.mget(list(range(10))))
                    out.append(
                        await client.mput(list(range(5)), [f"w{k}" for k in range(5)])
                    )
                    stats = await client.stats()
                    out.append({k: stats[k] for k in ("gets", "puts", "hits", "misses")})
                    out.append(await client.ping())
                finally:
                    await client.close()
            return out

        ndjson = asyncio.run(session(FRAME_NDJSON))
        binary = asyncio.run(session(FRAME_BINARY))
        assert ndjson == binary

    def test_mixed_framings_on_one_connection_answered_in_kind(self):
        async def scenario():
            async with running_server(make_store()) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                try:
                    # ndjson then binary then ndjson, pipelined on one socket
                    writer.write(encode_request(Request(op="PUT", key=1, value="a")))
                    writer.write(
                        encode_request(Request(op="GET", key=1), frame=FRAME_BINARY)
                    )
                    writer.write(encode_request(Request(op="PING")))
                    await writer.drain()
                    first = json.loads(await reader.readline())
                    assert first == {"ok": True, "hit": False}
                    header = await reader.readexactly(BINARY_HEADER_SIZE)
                    assert header[0] == BINARY_TAG
                    body = await reader.readexactly(int.from_bytes(header[1:], "big"))
                    assert json.loads(body) == {"ok": True, "hit": True, "value": "a"}
                    third = json.loads(await reader.readline())
                    assert third == {"ok": True, "pong": True}
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(scenario())

    def test_truncated_binary_frame_raises_protocol_error_not_hang(self):
        async def scenario():
            async def fake_server(reader, writer):
                await reader.read(256)  # the client's first (binary) request
                # write a header promising 100 bytes, deliver 10, vanish
                writer.write(
                    bytes([BINARY_TAG]) + (100).to_bytes(4, "big") + b"x" * 10
                )
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = await ServiceClient.connect("127.0.0.1", port)
                client.frame = FRAME_BINARY  # skip HELLO; fake server can't answer it
                try:
                    with pytest.raises(ProtocolError, match="truncated binary frame"):
                        await asyncio.wait_for(client.get(1), timeout=2.0)
                finally:
                    await client.close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_clean_close_is_service_error_not_protocol_error(self):
        async def scenario():
            async def fake_server(reader, writer):
                await reader.read(256)
                writer.close()  # close without writing any response bytes

            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = await ServiceClient.connect("127.0.0.1", port)
                client.frame = FRAME_BINARY
                try:
                    with pytest.raises(ServiceError):
                        await asyncio.wait_for(client.get(1), timeout=2.0)
                finally:
                    await client.close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


class TestNegotiation:
    def test_hello_reports_server_framings(self):
        async def scenario():
            async with running_server(make_store()) as server:
                async with await ServiceClient.connect("127.0.0.1", server.port) as client:
                    response = await client.hello(frame=FRAME_BINARY)
                    assert response["ok"] and response["frame"] == FRAME_BINARY
                    assert set(response["frames"]) == {FRAME_NDJSON, FRAME_BINARY}

        asyncio.run(scenario())

    def test_connect_binary_refused_by_ndjson_only_server(self):
        async def scenario():
            async with running_server(make_store(), frames=(FRAME_NDJSON,)) as server:
                with pytest.raises(ServiceError, match="binary"):
                    await ServiceClient.connect(
                        "127.0.0.1", server.port, frame=FRAME_BINARY
                    )
                # ndjson connects fine and the port was not wedged
                async with await ServiceClient.connect("127.0.0.1", server.port) as client:
                    assert await client.ping()

        asyncio.run(scenario())

    def test_binary_only_server_rejects_ndjson_data_ops_but_answers_hello(self):
        async def scenario():
            async with running_server(make_store(), frames=(FRAME_BINARY,)) as server:
                client = await ServiceClient.connect(
                    "127.0.0.1", server.port, frame=FRAME_BINARY
                )
                try:
                    assert (await client.get(1))["ok"]
                finally:
                    await client.close()
                # raw ndjson connection: HELLO works, data ops are refused
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                try:
                    writer.write(encode_request(Request(op="HELLO", frame=FRAME_BINARY)))
                    writer.write(encode_request(Request(op="GET", key=1)))
                    await writer.drain()
                    hello = json.loads(await reader.readline())
                    assert hello["ok"] and hello["frames"] == [FRAME_BINARY]
                    refused = json.loads(await reader.readline())
                    assert not refused["ok"]
                    assert "not accepted" in refused["error"]
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(scenario())
