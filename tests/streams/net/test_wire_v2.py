"""Wire-format v2 tests: negotiation, v1 interop, and uplink batching.

The compatibility contract: a v1 peer — a hello with no ``encodings``
field — must see exactly the v1 wire protocol (dense frames both
directions, no batch ranges), while v2 peers negotiate sparse/zlib
payloads and coalesced batch frames per session.  Every path must fold
bit-identically to a flat engine, faults or not.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.errors import DeltaSequenceError
from repro.streams.distributed import (
    Coordinator,
    DeltaExport,
    DeltaPayload,
    StreamSite,
    coalesce_exports,
)
from repro.streams.engine import StreamEngine
from repro.streams.net import codec, protocol
from repro.streams.net.coordinator import CoordinatorServer
from repro.streams.net.site import SiteClient
from repro.streams.updates import Update, deletions, insertions

from .faults import FaultyTransport

SHAPE = SketchShape(domain_bits=16, num_second_level=8, independence=4)
SPEC = SketchSpec(num_sketches=32, shape=SHAPE, seed=23)

TIMEOUT = 30.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def make_client(site_id: str, port: int, **overrides) -> SiteClient:
    options = dict(
        site_id=site_id,
        spec=SPEC,
        port=port,
        connect_timeout=2.0,
        io_timeout=2.0,
        max_retries=60,
        backoff_base=0.01,
        backoff_cap=0.05,
        rng=random.Random(hash(site_id) & 0xFFFF),
    )
    options.update(overrides)
    return SiteClient(**options)


def populated_site(site_id: str, rounds: int = 4) -> StreamSite:
    """A site with ``rounds`` retained exports of sparse per-round deltas."""
    site = StreamSite(site_id, SPEC)
    for index in range(rounds):
        site.observe_many(
            insertions("A", range(index * 10, index * 10 + 10))
        )
        site.observe_many(insertions("B", [1000 + index]))
        site.export()
    return site


def assert_same_cells(payloads, expected) -> None:
    """Two exports' payloads decode to the same cells, stream by stream."""
    assert sorted(payloads) == sorted(expected)
    for name, payload in payloads.items():
        indices, values = payload.cells(SPEC.counter_cells)
        want_indices, want_values = expected[name].cells(SPEC.counter_cells)
        assert indices.tobytes() == want_indices.tobytes(), name
        assert values.tobytes() == want_values.tobytes(), name


def flat_reference(*sites_updates) -> StreamEngine:
    engine = StreamEngine(SPEC)
    for updates in sites_updates:
        engine.process_many(updates)
    return engine


# -- in-process batching ------------------------------------------------------


class TestCoalesceExports:
    def test_batch_folds_like_individual_exports(self):
        site = populated_site("s", rounds=5)
        exports = site.exports_after(0)
        batch = coalesce_exports(exports, SPEC)
        assert batch.batch_start == 1
        assert batch.sequence == 5
        assert batch.batch_size == 5

        one_by_one, batched = Coordinator(SPEC), Coordinator(SPEC)
        for export in exports:
            one_by_one.collect(export)
        batched.collect(batch)
        for name in ("A", "B"):
            assert (
                batched.families()[name].to_bytes()
                == one_by_one.families()[name].to_bytes()
            )
        # A batch counts as every export it covers.
        assert batched.sites_collected == one_by_one.sites_collected == 5

    def test_cancelling_deltas_drop_out(self):
        site = StreamSite("s", SPEC)
        site.observe_many(insertions("A", range(20)))
        site.export()
        site.observe_many(deletions("A", range(20)))
        site.observe_many(insertions("B", [1]))
        site.export()
        batch = coalesce_exports(site.exports_after(0), SPEC)
        # A's insert+delete cancel entrywise; only B's delta survives.
        assert set(batch.payloads) == {"B"}

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from("ABC"),
                st.dictionaries(
                    st.integers(0, SPEC.counter_cells - 1),
                    st.sampled_from([1, -1, 2, -2, 2**63 - 1, -(2**63)]),
                    max_size=20,
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_sum_equals_the_dense_entrywise_sum(self, deltas):
        """Over random sparse deltas: the batch's cells are the dense
        entrywise sum of every export's, and streams that sum to zero
        (or that no export touched) are dropped."""
        num_cells = SPEC.counter_cells
        exports, dense = [], {}
        for sequence, streams in enumerate(deltas, start=1):
            payloads = {}
            for name, cells in streams.items():
                indices = np.array(sorted(cells), dtype=np.int64)
                values = np.array([cells[i] for i in sorted(cells)], dtype=np.int64)
                if not indices.size:
                    continue
                payloads[name] = DeltaPayload.from_cells(indices, values, num_cells)
                total = dense.setdefault(name, np.zeros(num_cells, dtype=np.int64))
                total[indices] += values
            exports.append(DeltaExport("s", sequence, payloads, "life"))
        batch = coalesce_exports(exports, SPEC)
        expected = {name: t for name, t in dense.items() if t.any()}
        assert sorted(batch.payloads) == sorted(expected)
        for name, payload in batch.payloads.items():
            indices, values = payload.cells(num_cells)
            assert indices.tolist() == np.flatnonzero(expected[name]).tolist()
            assert values.tolist() == expected[name][indices].tolist()

    def test_single_export_passes_through(self):
        site = populated_site("s", rounds=1)
        [export] = site.exports_after(0)
        assert coalesce_exports([export], SPEC) is export

    def test_invalid_inputs_rejected(self):
        a = populated_site("a", rounds=3).exports_after(0)
        b = populated_site("b", rounds=1).exports_after(0)
        with pytest.raises(ValueError, match="empty"):
            coalesce_exports([], SPEC)
        with pytest.raises(ValueError, match="different sites"):
            coalesce_exports([a[0], b[0]], SPEC)
        with pytest.raises(ValueError, match="non-consecutive"):
            coalesce_exports([a[0], a[2]], SPEC)
        other_life = DeltaExport("a", 2, {}, "another-incarnation")
        with pytest.raises(ValueError, match="incarnations"):
            coalesce_exports([a[0], other_life], SPEC)

    def test_batch_sequence_rules_at_the_coordinator(self):
        site = populated_site("s", rounds=6)
        exports = site.exports_after(0)
        batch_1_4 = coalesce_exports(exports[:4], SPEC)
        batch_3_6 = coalesce_exports(exports[2:], SPEC)
        batch_5_6 = coalesce_exports(exports[4:], SPEC)

        coordinator = Coordinator(SPEC)
        assert coordinator.collect(batch_1_4) is True
        # Fully covered range: an idempotent duplicate.
        assert coordinator.collect(batch_1_4) is False
        assert coordinator.duplicates_dropped == 1
        # Partial overlap: unsplittable, so the site must re-batch.
        with pytest.raises(DeltaSequenceError, match="re-batch"):
            coordinator.collect(batch_3_6)
        # A gap ahead of the applied prefix is still a gap.
        with pytest.raises(DeltaSequenceError, match="missing"):
            coordinator.collect(coalesce_exports(exports[5:], SPEC))
        assert coordinator.collect(batch_5_6) is True
        assert coordinator.sites_collected == 6


class TestAtomicFold:
    def test_malformed_payload_leaves_nothing_half_applied(self):
        # Fold-time decode failure is an expected v2 path: the server
        # errors, the site re-syncs and re-ships the SAME export.  If
        # collect() had folded stream A before stream B's blob failed to
        # decode, the re-ship would fold A twice — permanent corruption.
        coordinator = Coordinator(SPEC)
        site = StreamSite("s", SPEC)
        site.observe_many(insertions("A", range(50)))
        site.observe_many(insertions("B", range(50)))
        assert coordinator.collect(site.export())
        before = {
            name: family.to_bytes()
            for name, family in coordinator.families().items()
        }

        site.observe_many(insertions("A", range(50, 60)))
        site.observe_many(insertions("B", range(50, 60)))
        export = site.export()
        encoded = {
            name: codec.encode_delta(
                *payload.cells(SPEC.counter_cells),
                SPEC.counter_cells,
                ("sparse",),
            )
            for name, payload in export.payloads.items()
        }
        assert set(encoded) == {"A", "B"}
        good = {
            name: DeltaPayload.from_wire(encoding, blob)
            for name, (encoding, blob) in encoded.items()
        }
        # A decodes fine and comes first; B's blob is truncated.
        broken = dict(good)
        encoding, blob = encoded["B"]
        broken["B"] = DeltaPayload.from_wire(encoding, blob[:-1])
        with pytest.raises(codec.CodecError):
            coordinator.collect(
                DeltaExport(
                    export.site_id,
                    export.sequence,
                    broken,
                    export.incarnation,
                )
            )
        assert coordinator.applied_sequence("s", site.incarnation) == 1
        assert before == {
            name: family.to_bytes()
            for name, family in coordinator.families().items()
        }
        # The re-shipped (intact) export folds exactly once.
        assert coordinator.collect(
            DeltaExport(
                export.site_id,
                export.sequence,
                good,
                export.incarnation,
            )
        )
        reference = flat_reference(
            insertions("A", range(60)), insertions("B", range(60))
        )
        for name in ("A", "B"):
            assert (
                coordinator.families()[name].to_bytes()
                == reference.families()[name].to_bytes()
            )


# -- negotiation and interop --------------------------------------------------


class TestNegotiationHandshake:
    def test_v2_session_negotiates_sparse_and_batch(self):
        async def scenario():
            async with CoordinatorServer(SPEC) as server:
                client = make_client("s1", server.port)
                await client.connect()
                assert (
                    client.negotiated_encodings == codec.PREFERRED_ENCODINGS
                )
                assert client.batching_enabled
                await client.close()

        run(scenario())

    def test_dense_only_server_downgrades_v2_client(self):
        async def scenario():
            async with CoordinatorServer(
                SPEC, encodings=codec.DENSE_ONLY
            ) as server:
                client = make_client("s1", server.port)
                client.observe_many(insertions("A", range(50)))
                await client.connect()
                assert client.negotiated_encodings == ("dense",)
                await client.ship()
                stats = client.stats
                # Dense framing: wire payload == dense payload.
                assert (
                    stats.payload_bytes_wire == stats.payload_bytes_dense
                )
                await client.close()

        run(scenario())

    def test_v1_hello_gets_v1_shaped_session(self):
        async def scenario():
            async with CoordinatorServer(SPEC) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await protocol.write_message(
                    writer,
                    {
                        "type": "hello",
                        "version": 1,
                        "site_id": "old",
                        "incarnation": "life-1",
                    },
                )
                welcome, _, _ = await protocol.read_message(reader)
                assert welcome["type"] == "welcome"
                assert "encodings" not in welcome
                assert "features" not in welcome

                site = StreamSite("old", SPEC, incarnation="life-1")
                site.observe_many(insertions("A", range(40)))
                header, blobs = protocol.delta_message(site.export())
                assert "encodings" not in header
                assert "first_sequence" not in header
                await protocol.write_message(writer, header, blobs)
                ack, _, _ = await protocol.read_message(reader)
                assert ack["type"] == "ack" and ack["sequence"] == 1
                writer.close()
                await writer.wait_closed()

                reference = flat_reference(insertions("A", range(40)))
                assert (
                    server.coordinator.families()["A"].to_bytes()
                    == reference.families()["A"].to_bytes()
                )

        run(scenario())

    def test_unsupported_version_rejected(self):
        async def scenario():
            async with CoordinatorServer(SPEC) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await protocol.write_message(
                    writer,
                    {
                        "type": "hello",
                        "version": 99,
                        "site_id": "s",
                        "incarnation": "x",
                    },
                )
                answer, _, _ = await protocol.read_message(reader)
                assert answer["type"] == "error"
                assert "version" in answer["message"]
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_unnegotiated_encoding_rejected(self):
        async def scenario():
            async with CoordinatorServer(SPEC) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # v1 hello: the session is dense-only...
                await protocol.write_message(
                    writer,
                    {
                        "type": "hello",
                        "version": 1,
                        "site_id": "s",
                        "incarnation": "x",
                    },
                )
                await protocol.read_message(reader)
                # ...so a sparse-encoded blob is a protocol violation.
                site = StreamSite("s", SPEC, incarnation="x")
                site.observe_many(insertions("A", range(10)))
                header, blobs = protocol.delta_message(
                    site.export(), codec.PREFERRED_ENCODINGS
                )
                assert header.get("encodings")  # really sparse on the wire
                await protocol.write_message(writer, header, blobs)
                answer, _, _ = await protocol.read_message(reader)
                assert answer["type"] == "error"
                assert "negotiate" in answer["message"]
                writer.close()
                await writer.wait_closed()
                assert server.coordinator.stream_names() == []

        run(scenario())

    def test_unnegotiated_batch_rejected(self):
        async def scenario():
            async with CoordinatorServer(SPEC) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await protocol.write_message(
                    writer,
                    {
                        "type": "hello",
                        "version": 1,
                        "site_id": "s",
                        "incarnation": "x",
                    },
                )
                await protocol.read_message(reader)
                site = StreamSite("s", SPEC, incarnation="x")
                site.observe_many(insertions("A", range(10)))
                site.export()
                site.observe_many(insertions("A", range(10, 20)))
                site.export()
                batch = coalesce_exports(site.exports_after(0), SPEC)
                header, blobs = protocol.delta_message(batch)
                await protocol.write_message(writer, header, blobs)
                answer, _, _ = await protocol.read_message(reader)
                assert answer["type"] == "error"
                assert "batch" in answer["message"]
                writer.close()
                await writer.wait_closed()

        run(scenario())

    def test_mixed_v1_v2_sites_fold_bit_identically(self):
        """Fuzz seed: v2 sites under faults plus a raw v1 site, one
        coordinator, every fold bit-identical to the flat engine."""
        seed = 1337
        rng = np.random.default_rng(seed)
        site_updates = {
            f"v2-{index}": [
                Update(
                    stream,
                    int(element),
                    1 if rng.random() < 0.8 else -1,
                )
                for stream in ("A", "B")
                for element in rng.integers(0, 2**16, size=60)
            ]
            for index in range(2)
        }
        v1_updates = list(insertions("A", range(900, 960))) + list(
            insertions("B", range(300, 330))
        )

        async def scenario():
            async with CoordinatorServer(SPEC) as server:
                proxies, clients = [], []
                for index, (site_id, updates) in enumerate(
                    site_updates.items()
                ):
                    proxy = FaultyTransport(
                        server.port,
                        random.Random(seed + index),
                        drop=0.1,
                        duplicate=0.1,
                        cut=0.05,
                        max_faults=6,
                    )
                    await proxy.start()
                    proxies.append(proxy)
                    client = make_client(site_id, proxy.port)
                    clients.append(client)
                    for start in range(0, len(updates), 40):
                        client.observe_many(updates[start : start + 40])
                        await client.ship()

                # The v1 peer: raw dense frames, version 1 hello.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                await protocol.write_message(
                    writer,
                    {
                        "type": "hello",
                        "version": 1,
                        "site_id": "v1-site",
                        "incarnation": "life",
                    },
                )
                await protocol.read_message(reader)
                v1_site = StreamSite("v1-site", SPEC, incarnation="life")
                v1_site.observe_many(v1_updates)
                header, blobs = protocol.delta_message(v1_site.export())
                await protocol.write_message(writer, header, blobs)
                ack, _, _ = await protocol.read_message(reader)
                assert ack["type"] == "ack"
                writer.close()
                await writer.wait_closed()

                for client in clients:
                    await client.ship()
                    await client.close()
                for proxy in proxies:
                    await proxy.stop()

                reference = flat_reference(
                    v1_updates, *site_updates.values()
                )
                for name in ("A", "B"):
                    assert (
                        server.coordinator.families()[name].to_bytes()
                        == reference.families()[name].to_bytes()
                    )

        run(scenario())


# -- batched shipping over the network ---------------------------------------


class TestNetworkBatching:
    def test_retained_backlog_ships_as_batches(self):
        async def scenario():
            async with CoordinatorServer(SPEC) as server:
                site = populated_site("s1", rounds=7)
                client = make_client("s1", server.port, site=site, max_batch=3)
                await client.connect()
                stats = client.stats
                assert stats.deltas_shipped == 7
                # 7 exports in ceil(7/3)=3 frames -> 4 coalesced away.
                assert stats.exports_coalesced == 4
                assert server.stats()["s1"].deltas_applied == 7
                assert site.retained_exports == 0

                reference = flat_reference(
                    [
                        update
                        for index in range(7)
                        for update in list(
                            insertions(
                                "A", range(index * 10, index * 10 + 10)
                            )
                        )
                        + [Update("B", 1000 + index, 1)]
                    ]
                )
                for name in ("A", "B"):
                    assert (
                        server.coordinator.families()[name].to_bytes()
                        == reference.families()[name].to_bytes()
                    )
                await client.close()

        run(scenario())

    def test_batching_disabled_when_client_opts_out(self):
        async def scenario():
            async with CoordinatorServer(SPEC) as server:
                site = populated_site("s1", rounds=4)
                client = make_client("s1", server.port, site=site, max_batch=1)
                await client.connect()
                assert not client.batching_enabled
                assert client.stats.deltas_shipped == 4
                assert client.stats.exports_coalesced == 0
                await client.close()

        run(scenario())

    @pytest.mark.parametrize("seed", [5, 17, 41])
    def test_batches_survive_faulty_transport(self, seed):
        """Drops, duplicates, and cuts against batched re-sync: the
        coordinator must converge bit-identically, with the applied
        tally counting logical exports (batches expanded)."""
        updates = [
            list(insertions("A", range(index * 8, index * 8 + 8)))
            + ([Update("B", index, 1)] if index % 2 else [])
            for index in range(10)
        ]

        async def scenario():
            async with CoordinatorServer(SPEC) as server:
                proxy = FaultyTransport(
                    server.port,
                    random.Random(seed),
                    drop=0.35,
                    duplicate=0.3,
                    cut=0.2,
                    max_faults=10,
                )
                await proxy.start()
                client = make_client("s1", proxy.port, max_batch=4)
                for batch in updates[:5]:
                    client.observe_many(batch)
                    client.site.export()
                await client.connect()
                await client.flush_retained()
                for batch in updates[5:]:
                    client.observe_many(batch)
                    client.site.export()
                await client.flush_retained()
                assert proxy.faults_injected > 0
                await client.close()
                await proxy.stop()

                reference = flat_reference(
                    [update for batch in updates for update in batch]
                )
                for name in ("A", "B"):
                    assert (
                        server.coordinator.families()[name].to_bytes()
                        == reference.families()[name].to_bytes()
                    )
                assert server.coordinator.sites_collected == 10

        run(scenario())


# -- zero-copy blob handling --------------------------------------------------


class TestZeroCopyBlobs:
    def test_decode_message_returns_views_over_one_buffer(self):
        blobs_in = [b"a" * 64, b"b" * 128]
        frame = protocol.encode_message({"type": "delta"}, blobs_in)
        _, blobs = protocol.decode_message(frame)
        for view, original in zip(blobs, blobs_in):
            assert isinstance(view, memoryview)
            assert view == original
        # All views window the same frame buffer — no per-blob copies.
        assert all(view.obj is frame for view in blobs)

    def test_export_blobs_are_copied_out_of_the_frame(self):
        """A sparse payload keeps its own copy of the received blob (a
        coordinator may hold it for its uplink cut, and must not pin the
        frame), byte-equal to what was sent, and folds bit-identically."""
        site = StreamSite("s", SPEC)
        site.observe_many(insertions("A", range(25)))
        header, wire = protocol.delta_message(
            site.export(), codec.PREFERRED_ENCODINGS
        )
        frame = protocol.encode_message(header, wire)
        decoded_header, views = protocol.decode_message(frame)
        assert all(view.obj is frame for view in views)
        export = protocol.export_from_message(decoded_header, views)
        [payload] = export.payloads.values()
        assert payload.encoding.startswith("sparse")
        assert isinstance(payload.blob, bytes)
        assert payload.blob == wire[0]
        coordinator = Coordinator(SPEC)
        coordinator.collect(export)
        reference = flat_reference(insertions("A", range(25)))
        assert (
            coordinator.families()["A"].to_bytes()
            == reference.families()["A"].to_bytes()
        )


class TestWindowStamps:
    """The ``window_at`` export stamp: cut-time watermark carried from a
    windowed shipping site to windowed fold points (and over the wire)."""

    @staticmethod
    def _windowed_site(site_id="w"):
        return StreamSite(
            site_id,
            SPEC,
            engine=StreamEngine(SPEC, window_span=10.0, bucket_width=2.0),
        )

    def test_windowed_site_auto_stamps_exports(self):
        site = self._windowed_site()
        site.observe(Update("A", 1, 1), at=3.5)
        export = site.export()
        assert export.window_at == 3.5
        # explicit stamps win; NaN is rejected
        site.observe(Update("A", 2, 1), at=4.0)
        assert site.export(window_at=4.25).window_at == 4.25
        with pytest.raises(ValueError):
            site.export(window_at=float("nan"))

    def test_unwindowed_site_ships_unstamped(self):
        site = StreamSite("s", SPEC)
        site.observe(Update("A", 1, 1))
        assert site.export().window_at is None

    def test_coalesce_keeps_equal_stamps_and_rejects_mixed(self):
        site = self._windowed_site()
        exports = []
        for element in (1, 2):
            site.observe(Update("A", element, 1), at=1.0)
            exports.append(site.export())
        batch = coalesce_exports(exports, SPEC)
        assert batch.window_at == 1.0

        site.observe(Update("A", 3, 1), at=5.0)  # a later bucket
        exports.append(site.export())
        with pytest.raises(ValueError, match="window watermarks"):
            coalesce_exports(exports, SPEC)

    def test_stamp_survives_the_wire_and_state_roundtrip(self, tmp_path):
        site = self._windowed_site()
        site.observe(Update("A", 1, 1), at=7.0)
        export = site.export()
        header, blobs = protocol.delta_message(export)
        rebuilt = protocol.export_from_message(header, blobs)
        assert rebuilt.window_at == 7.0

        unstamped = StreamSite("s", SPEC)
        unstamped.observe(Update("A", 1, 1))
        header, blobs = protocol.delta_message(unstamped.export())
        assert "window_at" not in header
        assert protocol.export_from_message(header, blobs).window_at is None

        # Through a real checkpoint directory: a windowed leaf folds the
        # stamped export, its checkpoint cuts a stamped uplink export,
        # and the restored leaf's retained copy keeps the stamp.
        def windowed(spec):
            return StreamEngine(spec, window_span=10.0, bucket_width=2.0)

        leaf = CoordinatorServer(
            SPEC,
            checkpoint_dir=tmp_path,
            engine_factory=windowed,
            parent_port=65_000,  # never dialled in this test
            uplink_id="leaf",
        )
        leaf.coordinator.collect(export)
        leaf.checkpoint()
        [cut] = leaf.uplink.site.exports_after(0)
        restored = CoordinatorServer.restore(tmp_path, parent_port=65_000)
        [retained] = restored.uplink.site.exports_after(0)
        assert retained.window_at == cut.window_at == 7.0
        assert_same_cells(retained.payloads, cut.payloads)

    def test_wire_rejects_malformed_stamps(self):
        site = self._windowed_site()
        site.observe(Update("A", 1, 1), at=1.0)
        header, blobs = protocol.delta_message(site.export())
        for bad in (float("nan"), True, "soon"):
            corrupted = dict(header, window_at=bad)
            with pytest.raises(protocol.ProtocolError):
                protocol.export_from_message(corrupted, blobs)

    def test_wire_rejects_an_infinite_stamp_frame(self):
        """JSON carries ``Infinity``; a frame stamped with it is a
        protocol error, so it never reaches a fold point."""
        site = self._windowed_site()
        site.observe(Update("A", 1, 1), at=1.0)
        export = site.export()
        for stamp in (float("inf"), float("-inf")):
            header, blobs = protocol.delta_message(
                dataclasses.replace(export, window_at=stamp)
            )
            frame = protocol.encode_message(header, blobs)
            assert b'"window_at":' in frame and b"Infinity" in frame
            header, blobs = protocol.decode_message(frame)
            with pytest.raises(protocol.ProtocolError, match="finite"):
                protocol.export_from_message(header, blobs)

    def test_site_rejects_infinite_stamps(self):
        site = self._windowed_site()
        site.observe(Update("A", 1, 1), at=1.0)
        for stamp in (float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                site.export(window_at=stamp)
        assert site.sequence == 0 and site.retained_exports == 0

    def test_infinite_stamp_leaves_a_windowed_coordinator_unchanged(self):
        """An ``inf``-stamped export used to fold its first stream into
        the all-time synopsis, move the window clock to ``inf`` and only
        then fail, leaving the applied sequence behind: each re-ship
        folded that stream again.  The stamp is now checked before any
        synopsis is touched."""
        engine = StreamEngine(SPEC, window_span=10.0, bucket_width=2.0)
        coordinator = Coordinator(SPEC, engine=engine)
        site = self._windowed_site()
        site.observe(Update("A", 1, 1), at=1.0)
        site.observe(Update("B", 2, 1), at=1.0)
        assert coordinator.collect(site.export())
        site.observe(Update("A", 3, 1), at=1.5)
        site.observe(Update("B", 4, 1), at=1.5)
        export = site.export()
        infinite = dataclasses.replace(export, window_at=float("inf"))

        def state():
            return {
                name: family.to_bytes()
                for name, family in coordinator.families().items()
            }

        before = state()
        for _ in range(2):  # a re-ship must not fold anything either
            with pytest.raises(ValueError, match="finite"):
                coordinator.collect(infinite)
            assert state() == before
            assert coordinator.applied_sequence(site.site_id) == 1
            assert engine.window_clock == 1.0
        # The correctly stamped export still applies, exactly once.
        assert coordinator.collect(export)
        reference = site._engine
        for name in "AB":
            assert (
                engine.family(name).to_bytes()
                == reference.family(name).to_bytes()
            )
            assert (
                engine.window_family(name).to_bytes()
                == reference.window_family(name).to_bytes()
            )

    def test_windowed_fold_routes_delta_into_its_bucket(self):
        engine = StreamEngine(SPEC, window_span=10.0, bucket_width=2.0)
        coordinator = Coordinator(SPEC, engine=engine)
        site = self._windowed_site()
        site.observe(Update("A", 1, 1), at=1.0)
        coordinator.collect(site.export())
        site.observe(Update("A", 2, 1), at=15.0)
        coordinator.collect(site.export())
        # clock 15: bucket 1 ((0,2]) expired at root, so only element 2
        # remains in-window; the all-time fold keeps both.
        windowed = engine.window_family("A")
        lone = SPEC.build()
        lone.update_batch(np.array([2]))
        assert windowed.to_bytes() == lone.to_bytes()
        both = SPEC.build()
        both.update_batch(np.array([1, 2]))
        assert engine.family("A").to_bytes() == both.to_bytes()
