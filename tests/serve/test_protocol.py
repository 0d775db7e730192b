"""Fuzz wall for the wire protocol and the gateway's connection loop.

The invariant under attack: *no byte sequence a peer can send crashes
the gateway, kills the connection loop prematurely, or leaks a pending
future*.  Truncated frames, hostile length prefixes, non-finite JSON
constants, and plain garbage must each map to exactly one typed reject
(``InvalidInput`` — the same vocabulary as the engine's own input
validation) and leave the server in a well-defined state: still
serving for resynchronizable damage, cleanly closed when framing is
lost.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cnn import BackboneConfig
from repro.core.selective import SelectiveNet
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeConfig, ServeEngine
from repro.serve.gateway import Gateway, GatewayConfig, TCPGatewayClient
from repro.serve.protocol import (
    HEADER_BYTES,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
    decode_payload,
    encode_frame,
    parse_request,
    request_message,
)

SIZE = 16


@pytest.fixture(scope="module")
def model():
    return SelectiveNet(
        4,
        BackboneConfig(
            input_size=SIZE, conv_channels=(4, 4), conv_kernels=(3, 3),
            fc_units=16, seed=11,
        ),
    )


@pytest.fixture()
def grid():
    rng = np.random.default_rng(0)
    return rng.integers(0, 3, size=(SIZE, SIZE)).astype(np.uint8)


def _frame(obj) -> bytes:
    body = json.dumps(obj).encode()
    return len(body).to_bytes(HEADER_BYTES, "big") + body


class TestFraming:
    def test_round_trip(self, grid):
        message = request_message("r1", grid, "fab-a")
        decoder = FrameDecoder()
        out = list(decoder.messages(encode_frame(message)))
        assert out == [message]

    def test_messages_survive_any_chunking(self, grid):
        wire = b"".join(
            encode_frame(request_message(f"r{i}", grid)) for i in range(3)
        )
        for chunk in (1, 3, 7, len(wire)):
            decoder = FrameDecoder()
            seen = []
            for start in range(0, len(wire), chunk):
                seen.extend(decoder.messages(wire[start:start + chunk]))
            assert [m["id"] for m in seen] == ["r0", "r1", "r2"]
            assert decoder.buffered == 0

    def test_truncated_frame_yields_nothing(self, grid):
        wire = encode_frame(request_message("r1", grid))
        decoder = FrameDecoder()
        decoder.feed(wire[:-1])
        assert decoder.next_message() is None       # still waiting
        assert decoder.buffered == len(wire) - 1    # nothing consumed

    def test_oversized_prefix_rejected_before_buffering_body(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        decoder.feed((1 << 30).to_bytes(HEADER_BYTES, "big"))
        with pytest.raises(FrameTooLarge):
            decoder.next_message()

    def test_garbage_body_consumed_so_stream_resyncs(self, grid):
        body = b"\xff\xfenot json"
        wire = (
            len(body).to_bytes(HEADER_BYTES, "big") + body
            + encode_frame(request_message("after", grid))
        )
        decoder = FrameDecoder()
        decoder.feed(wire)
        with pytest.raises(ProtocolError):
            decoder.next_message()
        assert decoder.next_message()["id"] == "after"

    def test_non_finite_constants_rejected(self):
        for token in ("NaN", "Infinity", "-Infinity"):
            body = f'{{"v": 1, "grid": [[{token}]]}}'.encode()
            with pytest.raises(ProtocolError, match="non-finite"):
                decode_payload(body)

    def test_encoder_refuses_nan_payloads(self):
        with pytest.raises(ValueError):
            encode_frame({"grid": [[float("nan")]]})

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_payload(b"[1, 2, 3]")

    @given(data=st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_never_crash_the_decoder(self, data):
        """Fuzz: any byte soup either parses, waits for more bytes, or
        raises exactly ProtocolError — never anything else."""
        decoder = FrameDecoder(max_frame_bytes=1024)
        decoder.feed(data)
        for _ in range(8):
            try:
                if decoder.next_message() is None:
                    break
            except FrameTooLarge:
                break  # framing lost: caller closes the connection
            except ProtocolError:
                continue  # typed reject; stream resyncs


class TestParseRequest:
    def test_accepts_integer_and_integral_float_grids(self, grid):
        req_id, tenant, parsed = parse_request(request_message("a", grid, "t"))
        assert (req_id, tenant) == ("a", "t")
        assert parsed.dtype.kind in "iu"
        np.testing.assert_array_equal(parsed, grid)
        # JSON floats that are exact integers pass (e.g. 1.0 from a
        # permissive client); anything fractional does not.
        _, _, parsed = parse_request(
            {"v": 1, "id": "b", "grid": [[0.0, 1.0], [2.0, 1.0]]}
        )
        assert parsed.dtype.kind in "iu"

    @pytest.mark.parametrize("payload", [
        {},                                              # nothing
        {"v": 99, "id": "x", "grid": [[1]]},             # bad version
        {"v": 1, "grid": [[1]]},                         # missing id
        {"v": 1, "id": "", "grid": [[1]]},               # empty id
        {"v": 1, "id": "x", "tenant": 7, "grid": [[1]]}, # bad tenant
        {"v": 1, "id": "x"},                             # missing grid
        {"v": 1, "id": "x", "grid": "wafer"},            # non-list grid
        {"v": 1, "id": "x", "grid": []},                 # empty grid
        {"v": 1, "id": "x", "grid": [1, 2]},             # 1-D grid
        {"v": 1, "id": "x", "grid": [[1], [1, 2]]},      # ragged
        {"v": 1, "id": "x", "grid": [["a", "b"]]},       # non-numeric
        {"v": 1, "id": "x", "grid": [[1.5, 2.0]]},       # fractional
        {"v": 1, "id": "x", "grid": [[True, False]]},    # booleans
    ])
    def test_malformed_requests_raise_protocol_error(self, payload):
        with pytest.raises(ProtocolError):
            parse_request(payload)


class TestConnectionLoopUnderFuzz:
    """The gateway's read loop against hostile bytes on a live socket."""

    @pytest.fixture()
    def served(self, model):
        registry = MetricsRegistry()
        engine = ServeEngine(
            model,
            ServeConfig(
                max_batch_size=8, queue_limit=64,
                cache_bytes=0,
            ),
            registry=registry,
        )
        gateway = Gateway(
            engine, GatewayConfig(max_frame_bytes=256 * 1024),
            registry=registry,
        )
        yield gateway
        engine.close()

    def test_garbage_then_valid_on_one_connection(self, served, grid):
        async def scenario():
            host, port = await served.start()
            client = await TCPGatewayClient.connect(host, port)
            try:
                # Well-framed garbage: typed reject, connection lives.
                await client.send_raw(_frame("not an object"))
                await client.send_raw(
                    (9).to_bytes(HEADER_BYTES, "big") + b"\x00" * 9
                )
                response = await client.request(grid, timeout=30.0)
                assert response["ok"] is True
            finally:
                await client.close()
                await served.stop()

        asyncio.run(scenario())
        stats = served.stats()
        assert stats["invalid"] >= 2
        assert stats["admitted"] == 1

    def test_malformed_request_objects_get_typed_rejects(self, served, grid):
        async def scenario():
            host, port = await served.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                bad = [
                    {"v": 1, "id": "nan", "grid": [[float("inf")]]},
                    {"v": 1, "id": "ragged", "grid": [[1], [1, 2]]},
                    {"v": 7, "id": "ver", "grid": [[1]]},
                ]
                for payload in bad:
                    writer.write(_frame(payload))  # json.dumps allows inf
                await writer.drain()
                rejects = []
                for _ in bad:
                    header = await reader.readexactly(HEADER_BYTES)
                    body = await reader.readexactly(
                        int.from_bytes(header, "big")
                    )
                    rejects.append(json.loads(body))
                return rejects
            finally:
                writer.close()
                await served.stop()

        rejects = asyncio.run(scenario())
        assert all(r["ok"] is False for r in rejects)
        assert all(r["error"]["type"] == "InvalidInput" for r in rejects)
        # Rejects for parseable envelopes echo the request id.
        assert {r["id"] for r in rejects} >= {"ragged", "ver"}

    def test_oversized_prefix_rejects_then_closes(self, served, grid):
        async def scenario():
            host, port = await served.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write((1 << 31).to_bytes(HEADER_BYTES, "big"))
                await writer.drain()
                header = await reader.readexactly(HEADER_BYTES)
                body = await reader.readexactly(int.from_bytes(header, "big"))
                reject = json.loads(body)
                # Framing is unrecoverable: the server closes after
                # the reject; EOF is the contract.
                assert await reader.read() == b""
                return reject
            finally:
                writer.close()
                await served.stop()

        reject = asyncio.run(scenario())
        assert reject["ok"] is False
        assert "exceeds" in reject["error"]["message"]

    def test_truncated_frame_then_disconnect_leaks_nothing(self, served, grid):
        async def scenario():
            host, port = await served.start()
            # Half a frame, then vanish.
            _, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame(request_message("r", grid))[:10])
            await writer.drain()
            writer.close()
            # A full request racing against the in-flight teardown
            # still gets served.
            client = await TCPGatewayClient.connect(host, port)
            try:
                response = await client.request(grid, timeout=30.0)
                assert response["ok"] is True
            finally:
                await client.close()
                await served.stop()
            # Every connection handler drained: no orphaned tasks.
            assert not served._conn_tasks

        asyncio.run(scenario())
        assert served.stats()["inflight"] == 0

    def test_fuzz_bytes_never_kill_the_server(self, served, grid):
        """Seeded byte soup on one connection; a fresh connection must
        still be served afterwards and no future may leak."""
        rng = np.random.default_rng(1234)
        blobs = [rng.bytes(int(n)) for n in rng.integers(1, 400, size=12)]

        async def scenario():
            host, port = await served.start()
            for blob in blobs:
                try:
                    _, writer = await asyncio.open_connection(host, port)
                    writer.write(blob)
                    await writer.drain()
                    writer.close()
                except (ConnectionError, OSError):
                    pass
            client = await TCPGatewayClient.connect(host, port)
            try:
                response = await client.request(grid, timeout=30.0)
                assert response["ok"] is True
            finally:
                await client.close()
                await served.stop()

        asyncio.run(scenario())
        assert served.stats()["inflight"] == 0
        assert not served._conn_tasks
