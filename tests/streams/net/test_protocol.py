"""Unit tests for the length-framed wire protocol."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.streams.distributed import DeltaExport, DeltaPayload
from repro.streams.net import protocol


class TestEncoding:
    def test_header_round_trip(self):
        header, blobs = protocol.decode_message(
            protocol.encode_message({"type": "hello", "site_id": "s"})
        )
        assert header == {"type": "hello", "site_id": "s"}
        assert blobs == []

    def test_blobs_round_trip(self):
        payload = protocol.encode_message(
            {"type": "delta", "x": 1}, [b"abc", b"", b"\x00\xff" * 10]
        )
        header, blobs = protocol.decode_message(payload)
        assert header == {"type": "delta", "x": 1}
        assert blobs == [b"abc", b"", b"\x00\xff" * 10]

    @pytest.mark.parametrize(
        "payload",
        [
            b"",  # no header length
            b"\x00\x00\x00\xff",  # header longer than frame
            b"\x00\x00\x00\x02{}",  # valid JSON but no type
            b"\x00\x00\x00\x03abc",  # not JSON
        ],
    )
    def test_malformed_frames_rejected(self, payload):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(payload)

    def test_trailing_bytes_rejected(self):
        good = protocol.encode_message({"type": "x"})
        with pytest.raises(protocol.ProtocolError, match="trailing"):
            protocol.decode_message(good + b"junk")

    def test_blob_length_mismatch_rejected(self):
        # Declared blob extends past the end of the frame.
        tampered = protocol.encode_message({"type": "x"}, [b"abcd"])[:-2]
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(tampered)


class TestHelloVersion:
    def test_capability_free_hello_announces_version_1(self):
        # A site offering no v2 capability must produce a hello a
        # genuine v1 coordinator (which accepts only version 1) takes —
        # interop cannot depend on coordinator-first rollout.
        assert protocol.hello_message("s", "life-1")["version"] == 1

    def test_v2_capabilities_raise_the_version(self):
        by_encoding = protocol.hello_message(
            "s", "life-1", encodings=("sparse",)
        )
        by_feature = protocol.hello_message(
            "s", "life-1", features=("batch",)
        )
        assert by_encoding["version"] == protocol.PROTOCOL_VERSION
        assert by_feature["version"] == protocol.PROTOCOL_VERSION


class TestDeltaMessages:
    def test_export_round_trip(self):
        cells = {
            "A": (np.array([0, 3]), np.array([5, -2])),
            "B": (np.array([7]), np.array([1])),
        }
        payloads = {
            name: DeltaPayload.from_cells(indices, values, 8)
            for name, (indices, values) in cells.items()
        }
        export = DeltaExport("site-9", 3, payloads, "life-1")
        header, blobs = protocol.delta_message(export)
        rebuilt = protocol.export_from_message(header, blobs)
        assert rebuilt.site_id == "site-9"
        assert rebuilt.sequence == 3
        assert rebuilt.incarnation == "life-1"
        assert sorted(rebuilt.payloads) == ["A", "B"]
        for name, (indices, values) in cells.items():
            got_indices, got_values = rebuilt.payloads[name].cells(8)
            assert got_indices.tolist() == indices.tolist()
            assert got_values.tolist() == values.tolist()

    def test_empty_export_round_trip(self):
        export = DeltaExport("s", 1, {}, "life-1")
        header, blobs = protocol.delta_message(export)
        rebuilt = protocol.export_from_message(header, blobs)
        assert rebuilt.is_empty and rebuilt.sequence == 1

    @pytest.mark.parametrize(
        "header,blobs",
        [
            ({"type": "ack"}, []),  # wrong type
            (
                {"type": "delta", "site_id": "s", "incarnation": "i",
                 "sequence": 0, "streams": []},
                [],  # sequence below 1
            ),
            (
                {"type": "delta", "site_id": 7, "incarnation": "i",
                 "sequence": 1, "streams": []},
                [],  # non-string site id
            ),
            (
                {"type": "delta", "site_id": "s", "sequence": 1,
                 "streams": []},
                [],  # missing incarnation
            ),
            (
                {"type": "delta", "site_id": "s", "incarnation": "",
                 "sequence": 1, "streams": []},
                [],  # empty incarnation
            ),
            (
                {"type": "delta", "site_id": "s", "incarnation": "i",
                 "sequence": 1, "streams": ["A"]},
                [],  # blob count mismatch
            ),
            (
                {"type": "delta", "site_id": "s", "incarnation": "i",
                 "sequence": 1, "streams": ["A", "A"]},
                [b"x", b"y"],  # duplicate stream names
            ),
        ],
    )
    def test_invalid_delta_messages_rejected(self, header, blobs):
        with pytest.raises(protocol.ProtocolError):
            protocol.export_from_message(header, blobs)


class TestAsyncFraming:
    def _round_trip(self, header, blobs=()):
        async def run():
            reader = asyncio.StreamReader()
            payload = protocol.encode_message(header, blobs)
            import struct

            reader.feed_data(struct.pack(">I", len(payload)) + payload)
            reader.feed_eof()
            return await protocol.read_message(reader)

        return asyncio.run(run())

    def test_read_message(self):
        header, blobs, nbytes = self._round_trip(
            {"type": "delta", "sequence": 2}, [b"counters"]
        )
        assert header["sequence"] == 2
        assert blobs == [b"counters"]
        assert nbytes > len(b"counters")

    def test_oversized_frame_rejected_before_read(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\xff\xff\xff\xff")
            with pytest.raises(protocol.ProtocolError, match="exceeds"):
                await protocol.read_message(reader, max_bytes=1024)

        asyncio.run(run())

    def test_truncated_frame_raises_incomplete_read(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00\x01\x00partial")
            reader.feed_eof()
            with pytest.raises(asyncio.IncompleteReadError):
                await protocol.read_message(reader)

        asyncio.run(run())
