"""Windowed federation: a 2-level tree answering windowed queries.

The acceptance scenario: two windowed leaf coordinators with two
windowed sites each, fault-injecting proxies on both hops, and one leaf
restarted from its (windowed) checkpoint mid-run.  Exports are cut per
bucket and stamped with the shipping site's watermark, so every delta
folds into its true bucket at each fold point.  At every bucket
boundary the root's windowed 3-stream expression must be
**bit-identical** to the same query on a flat engine fed the
concatenated trace through a :class:`SlidingWindowDriver` — whole-bucket
expiry at the tree and per-update expiry at the driver meet exactly at
boundaries, and linearity makes the tree's shape (and its failures)
invisible.
"""

from __future__ import annotations

import asyncio
import math
import random

import numpy as np
import pytest

from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.streams.distributed import Coordinator, StreamSite
from repro.streams.engine import StreamEngine
from repro.streams.net.coordinator import CoordinatorServer
from repro.streams.net.site import SiteClient
from repro.streams.updates import Update

from tests.streams.net.faults import FaultyTransport
from tests.streams.window_driver import SlidingWindowDriver

SHAPE = SketchShape(domain_bits=14, num_second_level=8, independence=4)
SPEC = SketchSpec(num_sketches=16, shape=SHAPE, seed=41)

TIMEOUT = 60.0
STREAMS = "ABC"
SPAN = 12.0
WIDTH = 3.0
NUM_BUCKETS = 4
EXPR = "(A & B) - C"


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def windowed_factory(spec: SketchSpec) -> StreamEngine:
    return StreamEngine(spec, window_span=SPAN, bucket_width=WIDTH)


def make_client(site_id: str, port: int, seed: int) -> SiteClient:
    site = StreamSite(site_id, SPEC, engine=windowed_factory(SPEC))
    return client_for(site, port, seed)


def client_for(site: StreamSite, port: int, seed: int) -> SiteClient:
    return SiteClient(
        site,
        port=port,
        connect_timeout=1.0,
        io_timeout=0.3,
        max_retries=80,
        backoff_base=0.005,
        backoff_cap=0.03,
        rng=random.Random(seed),
    )


def uplink_options(seed: int) -> dict:
    return dict(
        connect_timeout=1.0,
        io_timeout=0.5,
        max_retries=80,
        backoff_base=0.005,
        backoff_cap=0.03,
        rng=random.Random(seed),
    )


def bucket_trace(rng: random.Random, bucket: int, per_site: int, sites):
    """Per-site timestamped updates inside bucket ``bucket``'s interval.

    Timestamps are nondecreasing per site *and* globally sortable; the
    last update of the first site lands exactly on the closing boundary
    (the duplicate-boundary-timestamp case rides along in every round).
    """
    lo = (bucket - 1) * WIDTH
    trace = {site_id: [] for site_id in sites}
    for index, site_id in enumerate(sites):
        for i in range(per_site):
            at = round(lo + (i + 1) * WIDTH / (per_site + 1), 6)
            if index == 0 and i == per_site - 1:
                at = bucket * WIDTH  # exactly on the boundary
            update = Update(
                stream=rng.choice(STREAMS),
                element=rng.randrange(1, 4000),
                delta=rng.choice([1, 1, 1, -1]),
            )
            trace[site_id].append((update, at))
    return trace


def assert_root_matches_driver(root, flat: StreamEngine, boundary: float):
    """Bit-identity of the root's windowed state against the driver-fed
    flat engine, both advanced to the same bucket boundary."""
    fold = root.coordinator.fold_engine
    fold.advance_to(boundary)
    fold.flush()
    flat.flush()
    for name in STREAMS:
        assert np.array_equal(
            fold.window_family(name).counters,
            flat.family(name).counters,
        ), (name, boundary)
    windowed = root.coordinator.query(EXPR, 0.25, window=SPAN)
    truth = flat.query(EXPR, 0.25)
    assert windowed.value == truth.value
    assert windowed.union_estimate == truth.union_estimate


class TestWindowedFederation:
    def test_windowed_tree_matches_driver_at_every_boundary(self, tmp_path):
        """The acceptance scenario (see module docstring)."""

        async def scenario():
            rng = random.Random(90)
            # Truth: one flat engine fed through the per-update driver,
            # and one all-time engine fed everything (never expires).
            flat = StreamEngine(SPEC)
            driver = SlidingWindowDriver(SPAN, flat)
            alltime = StreamEngine(SPEC)

            root = CoordinatorServer(
                SPEC, port=0, engine_factory=windowed_factory
            )
            await root.start()

            up1 = FaultyTransport(
                root.port, random.Random(1), duplicate=0.25, cut=0.2,
                max_faults=4,
            )
            up2 = FaultyTransport(
                root.port, random.Random(2), duplicate=0.25, cut=0.2,
                max_faults=4,
            )
            await up1.start()
            await up2.start()

            leaf1_dir = tmp_path / "leaf1"
            leaf1 = CoordinatorServer(
                SPEC,
                port=0,
                checkpoint_dir=leaf1_dir,
                engine_factory=windowed_factory,
                parent_port=up1.port,
                uplink_id="leaf1",
                uplink_options=uplink_options(21),
            )
            leaf2 = CoordinatorServer(
                SPEC,
                port=0,
                engine_factory=windowed_factory,
                parent_port=up2.port,
                uplink_id="leaf2",
                uplink_options=uplink_options(22),
            )
            await leaf1.start()
            await leaf2.start()
            leaf1_port = leaf1.port

            site_leaves = [
                ("s1", leaf1), ("s2", leaf1), ("s3", leaf2), ("s4", leaf2)
            ]
            site_proxies = {}
            for i, (site_id, leaf) in enumerate(site_leaves):
                proxy = FaultyTransport(
                    leaf.port, random.Random(30 + i),
                    duplicate=0.2, cut=0.15, max_faults=4,
                )
                await proxy.start()
                site_proxies[site_id] = proxy
            clients = {
                site_id: make_client(site_id, proxy.port, seed=40 + i)
                for i, (site_id, proxy) in enumerate(site_proxies.items())
            }

            async def feed_bucket(bucket: int) -> None:
                """One bucket's worth of traffic: observe per site, ship
                every hop, and mirror the trace into both truth engines."""
                trace = bucket_trace(rng, bucket, 10, list(clients))
                merged = sorted(
                    (pair for pairs in trace.values() for pair in pairs),
                    key=lambda pair: pair[1],
                )
                for update, at in merged:
                    driver.observe(update, at=at)
                    alltime.process(update)
                for site_id, pairs in trace.items():
                    for update, at in pairs:
                        clients[site_id].observe(update, at)
                    await clients[site_id].ship()
                await leaf1.ship_upstream()
                await leaf2.ship_upstream()

            # Buckets 1-3 flow through the intact tree; compare at each
            # closing boundary.
            for bucket in (1, 2, 3):
                await feed_bucket(bucket)
                boundary = bucket * WIDTH
                driver.advance_to(boundary)
                assert_root_matches_driver(root, flat, boundary)

            # Bucket 4 reaches leaf1 but dies with it: the deltas applied
            # after its last checkpoint-cut are lost, and the restored
            # (windowed) leaf re-syncs them from the sites' retained
            # tails — window stamps intact.
            trace = bucket_trace(rng, 4, 10, ["s1", "s2"])
            for update, at in sorted(
                (pair for pairs in trace.values() for pair in pairs),
                key=lambda pair: pair[1],
            ):
                driver.observe(update, at=at)
                alltime.process(update)
            for site_id, pairs in trace.items():
                for update, at in pairs:
                    clients[site_id].observe(update, at)
                await clients[site_id].ship()
            await leaf1.stop()
            leaf1 = CoordinatorServer.restore(
                leaf1_dir,
                port=leaf1_port,
                parent_port=up1.port,
                uplink_id="leaf1",
                uplink_options=uplink_options(23),
            )
            assert leaf1.uplink.site.incarnation  # restored, not fresh
            assert leaf1.coordinator.is_windowed
            await leaf1.start()
            for site_id in ("s1", "s2"):
                await clients[site_id].connect()  # re-sync the lost tail
            await leaf1.ship_upstream()
            driver.advance_to(4 * WIDTH)
            assert_root_matches_driver(root, flat, 4 * WIDTH)

            # Buckets 5-6 roll the window: by bucket 6 the root has
            # expired buckets 1-2, federated and flat paths alike.
            for bucket in (5, 6):
                await feed_bucket(bucket)
                boundary = bucket * WIDTH
                driver.advance_to(boundary)
                assert_root_matches_driver(root, flat, boundary)
            fold = root.coordinator.fold_engine
            assert fold.window_stats().buckets_expired > 0

            # The all-time synopsis is untouched by expiry on every path.
            alltime.flush()
            for name in STREAMS:
                assert np.array_equal(
                    fold.family(name).counters,
                    alltime.family(name).counters,
                ), name

            # The faults were real.
            injected = sum(
                p.faults_injected
                for p in [up1, up2, *site_proxies.values()]
            )
            assert injected > 0

            for client in clients.values():
                await client.close()
            for proxy in [up1, up2, *site_proxies.values()]:
                await proxy.stop()
            await leaf1.stop()
            await leaf2.stop()
            await root.stop()

        run(scenario())


class TestUplinkCutsStayInOneBucket:
    """A leaf that folds site exports from two buckets before it ships
    upstream must not hand the root one export spanning both: the root
    files a whole uplink export under its one ``window_at`` stamp, so a
    bucket-1 delta cut together with a bucket-2 delta would be counted
    in bucket 2 there, and every sub-window from bucket 2 on would
    disagree with the site's."""

    @pytest.mark.parametrize("checkpointing", [False, True], ids=["plain", "checkpointed"])
    def test_root_sub_windows_match_the_site(self, tmp_path, checkpointing):
        width, span = 2.0, 8.0

        def factory(spec):
            return StreamEngine(spec, window_span=span, bucket_width=width)

        async def scenario():
            root = CoordinatorServer(SPEC, port=0, engine_factory=factory)
            await root.start()
            leaf = CoordinatorServer(
                SPEC,
                port=0,
                engine_factory=factory,
                parent_port=root.port,
                uplink_id="leaf",
                uplink_every=0,  # ship upstream only when told to
                checkpoint_dir=str(tmp_path / "leaf") if checkpointing else None,
                checkpoint_every=0,
                uplink_options=uplink_options(7),
            )
            await leaf.start()
            site = StreamSite("site", SPEC, engine=factory(SPEC))
            client = client_for(site, leaf.port, 3)
            rng = random.Random(5)
            try:
                # Two exports stamped 2.0 (bucket 1) and 2.1 (bucket 2),
                # both folded by the leaf before its one uplink flush.
                for at in (1.0, 1.5, 2.0):
                    for _ in range(40):
                        site.observe(
                            Update(rng.choice("AB"), rng.randrange(1, 4000), 1), at
                        )
                await client.ship()
                for _ in range(40):
                    site.observe(Update(rng.choice("AB"), rng.randrange(1, 4000), 1), 2.1)
                await client.ship()
                await leaf.ship_upstream()
                fold = root.coordinator.fold_engine
                engine = site._engine
                assert fold.window_clock == engine.window_clock == 2.1
                for window in (width, 2 * width, span):
                    for name in "AB":
                        assert np.array_equal(
                            fold.window_family(name, window).counters,
                            engine.window_family(name, window).counters,
                        ), (name, window)
                    root_answer = root.coordinator.query("A & B", 0.25, window=window)
                    site_answer = engine.query("A & B", 0.25, window=window)
                    assert root_answer.value == site_answer.value
            finally:
                await client.close()
                await leaf.stop()
                await root.stop()

        run(scenario())

    @pytest.mark.parametrize("checkpointing", [False, True], ids=["plain", "checkpointed"])
    def test_skewed_sites_cut_once_per_bucket_switch(self, tmp_path, checkpointing):
        """Two sites whose clocks lag by two ticks straddle every
        boundary for a while, so the leaf folds alternately from two
        buckets.  It cuts once per switch of the fold order's bucket
        (at most five per boundary at this lag), never for a re-shipped
        duplicate, and the root still matches the leaf in every window."""
        width, span, tick, lag = 2.0, 8.0, 0.5, 1.0

        def factory(spec):
            return StreamEngine(spec, window_span=span, bucket_width=width)

        async def scenario():
            root = CoordinatorServer(SPEC, port=0, engine_factory=factory)
            await root.start()
            leaf = CoordinatorServer(
                SPEC,
                port=0,
                engine_factory=factory,
                parent_port=root.port,
                uplink_id="leaf",
                uplink_every=0,
                checkpoint_dir=str(tmp_path / "leaf") if checkpointing else None,
                checkpoint_every=0,
                uplink_options=uplink_options(11),
            )
            await leaf.start()
            sites = [StreamSite(name, SPEC, engine=factory(SPEC)) for name in ("ahead", "behind")]
            clients = [client_for(site, leaf.port, 20 + i) for i, site in enumerate(sites)]
            rng = random.Random(9)
            folded, shipped = [], []
            try:
                for k in range(3, 17):
                    for site, client, at in zip(sites, clients, (k * tick, k * tick - lag)):
                        for _ in range(20):
                            site.observe(Update(rng.choice("AB"), rng.randrange(1, 4000), 1), at)
                        shipped.append(await client.ship())
                        folded.append(math.ceil(at / width))
                uplink = leaf._uplink.site
                switches = sum(a != b for a, b in zip(folded, folded[1:]))
                boundaries = folded[-1] - folded[0]
                assert uplink.sequence == switches
                assert switches <= boundaries * (2 * round(lag / tick) + 1)
                if checkpointing:
                    assert leaf.checkpoints_written == switches
                # The lagging site's first export again (a lost ack's
                # re-sync): a bucket-1 duplicate after bucket-4 folds.
                await clients[1]._send_export(shipped[1])
                assert uplink.sequence == switches
                await leaf.ship_upstream()
                assert uplink.sequence == switches + 1
                ref, fold = leaf.coordinator.fold_engine, root.coordinator.fold_engine
                assert fold.window_clock == ref.window_clock == 16 * tick
                for window in (width, 2 * width, 3 * width, span):
                    for name in "AB":
                        assert np.array_equal(
                            fold.window_family(name, window).counters,
                            ref.window_family(name, window).counters,
                        ), (name, window)
            finally:
                for client in clients:
                    await client.close()
                await leaf.stop()
                await root.stop()

        run(scenario())


class TestCellsFoldMatchesColocatedEngine:
    """The fold primitive alone, in process: two windowed sites whose
    exports fold into one windowed coordinator as cells
    (:meth:`StreamEngine.merge_cells`).  At every bucket boundary the
    coordinator's rings — full span and a sub-window — and its answers
    must be bit-identical to one windowed engine that observed both
    sites' updates itself."""

    def test_every_boundary_full_span_and_sub_window(self):
        coordinator = Coordinator(SPEC, engine=windowed_factory(SPEC))
        sites = [
            StreamSite(name, SPEC, engine=windowed_factory(SPEC))
            for name in ("s1", "s2")
        ]
        colocated = windowed_factory(SPEC)
        rng = random.Random(12)
        tick = WIDTH / 3
        for step in range(1, 3 * (NUM_BUCKETS + 2) + 1):  # rolls 2 buckets out
            at = step * tick  # every third tick closes a bucket
            for site in sites:
                for _ in range(10):
                    update = Update(
                        stream=rng.choice(STREAMS),
                        element=rng.randrange(1, 4000),
                        delta=rng.choice([1, 1, 1, -1]),
                    )
                    site.observe(update, at)
                    colocated.observe(update, at)
                assert coordinator.collect(site.export())
            if step % 3:
                continue
            fold = coordinator.fold_engine
            assert fold.window_clock == colocated.window_clock == at
            for window in (WIDTH, SPAN):
                for name in STREAMS:
                    assert np.array_equal(
                        fold.window_family(name, window).counters,
                        colocated.window_family(name, window).counters,
                    ), (name, window, at)
                assert coordinator.query(EXPR, 0.25, window=window) == (
                    colocated.query(EXPR, 0.25, window=window)
                )
                assert coordinator.query_union(STREAMS, 0.25, window=window) == (
                    colocated.query_union(STREAMS, 0.25, window=window)
                )
        assert coordinator.fold_engine.window_stats().buckets_expired > 0
        for name in STREAMS:
            assert np.array_equal(
                coordinator.fold_engine.family(name).counters,
                colocated.family(name).counters,
            ), name
