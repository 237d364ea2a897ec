"""Uplink cuts built from the deltas a leaf folded, encoded at most once.

A mid-tree coordinator's uplink export is the per-stream sum of the
child deltas it folded since its last cut.  A stream one child delta
touched is forwarded in the very blob it arrived in; several are summed
as cells and encoded once; a parent that negotiated other encodings gets
a fresh encoding of the same cells.  Whatever path a delta takes, the
root must stay bit-identical to one flat engine fed every update.
"""

from __future__ import annotations

import asyncio
import random
import zlib

from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.streams.engine import StreamEngine
from repro.streams.net import codec
from repro.streams.net.coordinator import CoordinatorServer
from repro.streams.net.site import SiteClient
from repro.streams.updates import Update

SHAPE = SketchShape(domain_bits=14, num_second_level=8, independence=4)
SPEC = SketchSpec(num_sketches=16, shape=SHAPE, seed=77)
STREAMS = "ABC"
TIMEOUT = 60.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def fast_options(seed: int, **overrides) -> dict:
    options = dict(
        connect_timeout=1.0,
        io_timeout=1.0,
        max_retries=40,
        backoff_base=0.005,
        backoff_cap=0.02,
        rng=random.Random(seed),
    )
    options.update(overrides)
    return options


def client_for(site_id: str, port: int, seed: int, **overrides) -> SiteClient:
    return SiteClient(
        site_id=site_id, spec=SPEC, port=port, **fast_options(seed, **overrides)
    )


def random_batch(rng: random.Random, size: int = 40) -> list[Update]:
    return [
        Update(rng.choice(STREAMS), rng.randrange(1, 6000), rng.choice([1, 1, -1]))
        for _ in range(size)
    ]


def assert_matches(root: CoordinatorServer, truth: StreamEngine) -> None:
    truth.flush()
    families = root.coordinator.families()
    assert sorted(families) == truth.stream_names()
    for name, family in truth.families().items():
        assert families[name].to_bytes() == family.to_bytes(), name


def record_collects(server: CoordinatorServer) -> list:
    """Every export ``server``'s coordinator applies, in order."""
    applied = []
    collect = server.coordinator.collect

    def recording(export):
        if collect(export):
            applied.append(export)
            return True
        return False

    server.coordinator.collect = recording
    return applied


def count_calls(monkeypatch, owner, name: str) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


async def until(condition, timeout: float = 10.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


def test_lone_deltas_are_forwarded_byte_for_byte(monkeypatch):
    """One site, ``uplink_every=1``: each uplink export carries the
    site's own blobs, and the leaf never compresses anything."""
    compressions = count_calls(monkeypatch, zlib, "compress")
    encodes = count_calls(monkeypatch, codec, "encode_delta")

    async def scenario():
        rng, truth = random.Random(5), StreamEngine(SPEC)
        root = CoordinatorServer(SPEC)
        await root.start()
        received = record_collects(root)
        leaf = CoordinatorServer(
            SPEC,
            parent_port=root.port,
            uplink_id="leaf",
            uplink_every=1,
            uplink_options=fast_options(1),
        )
        await leaf.start()
        client = client_for("site", leaf.port, 2)
        shipped = []
        for round_number in range(1, 7):
            batch = random_batch(rng)
            client.observe_many(batch)
            truth.process_many(batch)
            shipped.append(await client.ship())
            await until(
                lambda: root.coordinator.applied_sequence("leaf") == round_number
            )
        site_payloads = sum(len(export.payloads) for export in shipped)
        assert site_payloads > 6
        # Every encode and every compress call was the site's own.
        assert len(encodes) == site_payloads
        assert len(compressions) == site_payloads
        assert [export.sequence for export in received] == list(range(1, 7))
        for sent, forwarded in zip(shipped, received):
            assert sorted(forwarded.payloads) == sorted(sent.payloads)
            for name, payload in sent.payloads.items():
                assert payload.encoding == "sparse+zlib"
                assert forwarded.payloads[name].encoding == payload.encoding
                assert forwarded.payloads[name].blob == payload.blob
        assert_matches(root, truth)
        assert root.coordinator.take_pending() == {}
        await client.close()
        await leaf.stop()
        await root.stop()

    run(scenario())


def test_summed_and_batched_uplink_exports_fold_bit_identically():
    """Two sites, ``uplink_every=3``: cuts sum several child deltas per
    stream, and a backlog built while the parent was down re-ships as
    batches that sum several cuts — the root still equals the flat
    engine."""

    async def scenario():
        rng, truth = random.Random(9), StreamEngine(SPEC)
        root = CoordinatorServer(SPEC)
        await root.start()
        port = root.port
        await root.stop()  # the parent is down while the backlog builds
        leaf = CoordinatorServer(
            SPEC,
            parent_port=port,
            uplink_id="leaf",
            uplink_every=3,
            uplink_options=fast_options(1, max_retries=0, max_batch=4),
        )
        await leaf.start()
        clients = [client_for(f"site-{k}", leaf.port, 10 + k) for k in range(2)]
        for _ in range(6):
            for client in clients:
                batch = random_batch(rng)
                client.observe_many(batch)
                truth.process_many(batch)
                await client.ship()
        # 12 child deltas in cuts of 3: four retained uplink exports.
        await until(lambda: leaf.uplink.site.retained_exports == 4)
        await asyncio.sleep(0.05)  # let the failed ship attempts settle
        root = CoordinatorServer(SPEC, port=port)
        await root.start()
        await leaf.ship_upstream()
        stats = root.stats()["leaf"]
        assert stats.exports_coalesced > 0
        assert_matches(root, truth)
        for client in clients:
            await client.close()
        await leaf.stop()
        await root.stop()

    run(scenario())


def test_dense_only_parent_gets_re_encoded_cells(monkeypatch):
    """A parent that negotiated dense alone: the leaf encodes the cells
    it forwards afresh, and the root is still bit-identical."""
    encodes = count_calls(monkeypatch, codec, "encode_delta")

    async def scenario():
        rng, truth = random.Random(13), StreamEngine(SPEC)
        root = CoordinatorServer(SPEC, encodings=codec.DENSE_ONLY)
        await root.start()
        received = record_collects(root)
        leaf = CoordinatorServer(
            SPEC,
            parent_port=root.port,
            uplink_id="leaf",
            uplink_every=1,
            uplink_options=fast_options(1),
        )
        await leaf.start()
        client = client_for("site", leaf.port, 2)
        site_payloads = 0
        for round_number in range(1, 5):
            batch = random_batch(rng)
            client.observe_many(batch)
            truth.process_many(batch)
            site_payloads += len((await client.ship()).payloads)
            await until(
                lambda: root.coordinator.applied_sequence("leaf") == round_number
            )
        assert client.negotiated_encodings == codec.PREFERRED_ENCODINGS
        assert leaf.uplink.negotiated_encodings == codec.DENSE_ONLY
        forwarded = sum(len(export.payloads) for export in received)
        assert all(
            payload.encoding == "dense"
            for export in received
            for payload in export.payloads.values()
        )
        assert len(encodes) == site_payloads + forwarded
        assert_matches(root, truth)
        await client.close()
        await leaf.stop()
        await root.stop()

    run(scenario())


def test_retained_export_reshipped_after_reconnect_is_not_re_encoded(
    monkeypatch, tmp_path
):
    """A coordinator that lost what it applied (restarted without a
    checkpoint) gets the retained exports again, in the blobs first
    shipped: no encode call, same bytes on the wire."""
    encodes = count_calls(monkeypatch, codec, "encode_delta")

    async def scenario():
        rng, truth = random.Random(17), StreamEngine(SPEC)
        # A checkpointing coordinator that never checkpoints: nothing
        # becomes durable, so the site retains every export.
        first = CoordinatorServer(SPEC, checkpoint_dir=tmp_path)
        await first.start()
        port = first.port
        client = client_for("site", port, 3, max_batch=1)
        for _ in range(3):
            batch = random_batch(rng)
            client.observe_many(batch)
            truth.process_many(batch)
            await client.ship()
        retained = client.site.exports_after(0)
        assert len(retained) == 3
        shipped_blobs = [
            {name: p.blob for name, p in export.payloads.items()}
            for export in retained
        ]
        encoded = len(encodes)
        assert encoded == sum(len(blobs) for blobs in shipped_blobs)
        await client.close()
        await first.stop()

        second = CoordinatorServer(SPEC, port=port)
        await second.start()
        received = record_collects(second)
        await client.connect()  # re-syncs all three retained exports
        assert len(encodes) == encoded
        assert [export.sequence for export in received] == [1, 2, 3]
        for blobs, export in zip(shipped_blobs, received):
            assert {n: p.blob for n, p in export.payloads.items()} == blobs
        assert_matches(second, truth)
        await client.close()
        await second.stop()

    run(scenario())
