"""Federation trees: coordinators folding into pluggable engines and
re-exporting aggregated deltas to a parent coordinator.

The acceptance scenario builds a 2-level tree — two leaf coordinators
with two sites each, one leaf folding into a
:class:`~repro.streams.engine.StreamEngine` — and pushes every update
through fault-injecting proxies (mid-frame cuts, duplicate deliveries)
on both the site→leaf and leaf→root hops, restarts one leaf from its
checkpoint and one site under a reused id, and then requires the root's
``query``, ``query_union``, and a 3-stream expression to be
**bit-identical** to one flat :class:`~repro.streams.engine.StreamEngine`
fed the concatenated updates.  Linearity makes the tree's shape
invisible; the delta protocol makes its failures invisible.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.streams.engine import StreamEngine
from repro.streams.net.coordinator import CoordinatorServer
from repro.streams.net.site import SiteClient, SiteConnectionError
from repro.streams.updates import Update

from tests.streams.net.faults import FaultyTransport

SHAPE = SketchShape(domain_bits=14, num_second_level=8, independence=4)
SPEC = SketchSpec(num_sketches=16, shape=SHAPE, seed=41)

TIMEOUT = 60.0
STREAMS = "ABC"


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def engine_factory(spec: SketchSpec) -> StreamEngine:
    return StreamEngine(spec)


def make_client(site_id: str, port: int, seed: int) -> SiteClient:
    return SiteClient(
        site_id=site_id,
        spec=SPEC,
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


def random_batch(rng: random.Random, size: int) -> list[Update]:
    return [
        Update(
            stream=rng.choice(STREAMS),
            element=rng.randrange(1, 8000),
            delta=rng.choice([1, 1, 1, -1]),
        )
        for _ in range(size)
    ]


def assert_root_matches(root: CoordinatorServer, truth: StreamEngine):
    truth.flush()
    coordinator = root.coordinator
    assert coordinator.stream_names() == truth.stream_names()
    for name, family in truth.families().items():
        assert coordinator.families()[name] == family, name
    assert (
        coordinator.query("A", 0.25).value == truth.query("A", 0.25).value
    )
    assert (
        coordinator.query_union(list(STREAMS), 0.25).value
        == truth.query_union(list(STREAMS), 0.25).value
    )
    three_stream = "(A - B) | C"
    assert (
        coordinator.query(three_stream, 0.25).value
        == truth.query(three_stream, 0.25).value
    )


class TestTreeFederation:
    def test_two_level_tree_survives_faults_and_restarts(self, tmp_path):
        """The acceptance scenario (see module docstring)."""

        async def scenario():
            rng = random.Random(2024)
            truth = StreamEngine(SPEC)

            root = CoordinatorServer(SPEC, port=0)
            await root.start()

            # Fault proxies on the leaf→root hops: duplicates and
            # mid-frame cuts, budget-capped so convergence is guaranteed.
            up1 = FaultyTransport(
                root.port, random.Random(11), duplicate=0.25, cut=0.2,
                max_faults=4,
            )
            up2 = FaultyTransport(
                root.port, random.Random(12), duplicate=0.25, cut=0.2,
                max_faults=4,
            )
            await up1.start()
            await up2.start()

            leaf1_dir = tmp_path / "leaf1"
            leaf1 = CoordinatorServer(
                SPEC,
                port=0,
                checkpoint_dir=leaf1_dir,
                engine_factory=engine_factory,
                parent_port=up1.port,
                uplink_id="leaf1",
                uplink_options=uplink_options(21),
            )
            leaf2 = CoordinatorServer(
                SPEC,
                port=0,
                parent_port=up2.port,
                uplink_id="leaf2",
                uplink_every=2,  # auto-ship every 2 applied site deltas
                uplink_options=uplink_options(22),
            )
            await leaf1.start()
            await leaf2.start()
            leaf1_port = leaf1.port

            # Fault proxies on the site→leaf hops.
            site_proxies = {}
            for i, (site_id, leaf) in enumerate(
                [("s1", leaf1), ("s2", leaf1), ("s3", leaf2), ("s4", leaf2)]
            ):
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

            async def observe_and_ship(site_id, size):
                batch = random_batch(rng, size)
                clients[site_id].observe_many(batch)
                truth.process_many(batch)
                await clients[site_id].ship()

            # Round 1: everything flows; leaf1 ships explicitly (cutting
            # its uplink exports through a checkpoint), leaf2 auto-ships.
            for site_id in clients:
                await observe_and_ship(site_id, 25)
            await leaf1.ship_upstream()

            # Round 2, then a leaf restart-from-checkpoint: the deltas
            # applied after leaf1's last checkpoint are lost with the
            # process and re-synced from the sites' retained tails; the
            # restored uplink keeps its incarnation, so the root sees an
            # unbroken peer.
            for site_id in ("s1", "s2"):
                await observe_and_ship(site_id, 20)
            await leaf1.stop()
            leaf1 = CoordinatorServer.restore(
                leaf1_dir,
                port=leaf1_port,
                engine_factory=engine_factory,
                parent_port=up1.port,
                uplink_id="leaf1",
                uplink_options=uplink_options(23),
            )
            assert leaf1.uplink.site.incarnation  # restored, not fresh
            await leaf1.start()
            for site_id in ("s1", "s2"):
                await observe_and_ship(site_id, 15)

            # A site restart under a reused id: ship, make it durable at
            # the leaf, then replace the process (fresh incarnation).
            leaf1.checkpoint()
            await clients["s2"].close()
            old_incarnation = clients["s2"].site.incarnation
            clients["s2"] = make_client(
                "s2", site_proxies["s2"].port, seed=55
            )
            assert clients["s2"].site.incarnation != old_incarnation
            await observe_and_ship("s2", 20)
            await observe_and_ship("s3", 20)
            await observe_and_ship("s4", 20)

            # Drain the tree and compare against the flat engine.
            await leaf1.ship_upstream()
            await leaf2.ship_upstream()
            assert_root_matches(root, truth)

            # The faults were real, and the root saw uplink peers.
            injected = sum(
                p.faults_injected
                for p in [up1, up2, *site_proxies.values()]
            )
            assert injected > 0
            root_stats = root.stats()
            assert root_stats["leaf1"].role == "uplink"
            assert root_stats["leaf2"].role == "uplink"
            assert root_stats["leaf1"].deltas_applied >= 2
            rollup = root.transport_rollup()
            assert rollup.deltas_applied == sum(
                s.deltas_applied for s in root_stats.values()
            )
            leaf1_rollup = leaf1.transport_rollup()
            assert leaf1_rollup.deltas_shipped >= 1  # the uplink hop

            for client in clients.values():
                await client.close()
            for proxy in [up1, up2, *site_proxies.values()]:
                await proxy.stop()
            await leaf1.stop()
            await leaf2.stop()
            await root.stop()

        run(scenario())

    def test_uplink_retained_exports_survive_shutdown(self, tmp_path):
        """Regression (shutdown-flush fix): a leaf that cannot reach its
        parent at shutdown persists the unacked uplink exports in its
        final checkpoint; the next life delivers them bit-identically."""

        async def scenario():
            truth = StreamEngine(SPEC)
            rng = random.Random(7)
            leaf_dir = tmp_path / "leaf"

            root = CoordinatorServer(SPEC, port=0)
            await root.start()
            parent_port = root.port
            # Parent goes down before the leaf ever ships upstream.
            await root.stop()

            leaf = CoordinatorServer(
                SPEC,
                port=0,
                checkpoint_dir=leaf_dir,
                parent_port=parent_port,
                uplink_id="leaf",
                uplink_options=dict(
                    connect_timeout=0.2, io_timeout=0.2, max_retries=1,
                    backoff_base=0.005, backoff_cap=0.01,
                    rng=random.Random(1),
                ),
            )
            await leaf.start()
            client = make_client("site", leaf.port, seed=3)
            batch = random_batch(rng, 40)
            client.observe_many(batch)
            truth.process_many(batch)
            await client.ship()

            # Shutdown while the parent is unreachable: the cut export
            # must land in the checkpoint, not evaporate with the
            # process.
            with pytest.raises(SiteConnectionError):
                await leaf.ship_upstream()
            leaf.checkpoint()
            retained_before = leaf.uplink.site.retained_exports
            assert retained_before >= 1
            await client.close()
            await leaf.stop()

            # Leaf life 2 + parent back (same port): the restored
            # retained tail is all it ships — no site re-sync needed.
            root = CoordinatorServer(SPEC, port=parent_port)
            await root.start()
            leaf = CoordinatorServer.restore(
                leaf_dir,
                port=0,
                parent_port=parent_port,
                uplink_options=uplink_options(5),
            )
            assert leaf.uplink.site.retained_exports == retained_before
            await leaf.start()
            await leaf.uplink.flush_retained()
            assert_root_matches(root, truth)

            await leaf.stop()
            await root.stop()

        run(scenario())

    def test_checkpoint_cut_keeps_parent_consistent_across_leaf_restart(
        self, tmp_path
    ):
        """The tree-consistency invariant: an export the parent applied
        before the leaf crashed is regenerated bit-identically by the
        restored leaf (cut-at-checkpoint means the parent can never hold
        state the checkpoint cannot reproduce)."""

        async def scenario():
            truth = StreamEngine(SPEC)
            rng = random.Random(13)
            leaf_dir = tmp_path / "leaf"

            root = CoordinatorServer(SPEC, port=0)
            await root.start()

            leaf = CoordinatorServer(
                SPEC,
                port=0,
                checkpoint_dir=leaf_dir,
                parent_port=root.port,
                uplink_id="leaf",
                uplink_options=uplink_options(6),
            )
            await leaf.start()
            client = make_client("site", leaf.port, seed=8)

            batch = random_batch(rng, 30)
            client.observe_many(batch)
            truth.process_many(batch)
            await client.ship()
            # Ship upstream (checkpoint + deliver), then apply more site
            # deltas that never reach a checkpoint — the crash loses
            # them at the leaf, the sites re-ship them.
            await leaf.ship_upstream()
            batch = random_batch(rng, 30)
            client.observe_many(batch)
            truth.process_many(batch)
            await client.ship()
            await leaf.stop()

            restored = CoordinatorServer.restore(
                leaf_dir,
                port=leaf.port,
                parent_port=root.port,
                uplink_options=uplink_options(9),
            )
            # Same incarnation and sequence as the parent already tracks.
            assert (
                restored.uplink.site.incarnation
                == leaf.uplink.site.incarnation
            )
            await restored.start()
            await client.connect()  # re-sync the lost tail
            await restored.ship_upstream()
            assert_root_matches(root, truth)

            await client.close()
            await restored.stop()
            await root.stop()

        run(scenario())
