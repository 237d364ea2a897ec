"""End-to-end and fault-injection tests for the asyncio net layer.

Every test asserts *bit-identity*: whatever failures are injected
(duplicate delivery, dropped connections mid-frame, coordinator restart
from a checkpoint), the coordinator's merged synopses must equal — in
every counter — those of a single :class:`StreamEngine` fed the
concatenated updates, because the delta protocol makes redundant
delivery idempotent and lost delivery replayable.

All tests run on localhost sockets inside one event loop and assert
behaviour, never wall-clock; each is wrapped in a hard
``asyncio.wait_for`` so a hung socket fails fast instead of stalling the
suite.
"""

from __future__ import annotations

import asyncio
import random
import struct

import numpy as np
import pytest

from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.streams.distributed import Coordinator, StreamSite
from repro.streams.engine import StreamEngine
from repro.streams.net import protocol
from repro.streams.net.coordinator import CoordinatorServer
from repro.streams.net.site import SiteClient, SiteConnectionError
from repro.streams.updates import Update, deletions, insertions

SHAPE = SketchShape(domain_bits=16, num_second_level=8, independence=4)
SPEC = SketchSpec(num_sketches=32, shape=SHAPE, seed=23)

TIMEOUT = 30.0


def run(coro):
    """Run a coroutine under a hard timeout (hung sockets fail, not stall)."""
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


def site_rounds() -> list[list[list[Update]]]:
    """Per-site, per-round update batches: interleaved streams, with
    deletions (including cross-site deletions of earlier insertions)."""
    return [
        [  # site-1
            insertions("A", range(0, 100)) + insertions("B", range(50, 120)),
            deletions("B", range(50, 70)) + insertions("A", range(500, 550)),
        ],
        [  # site-2
            insertions("B", range(200, 280)) + deletions("A", range(0, 20)),
            insertions("C", range(600, 660)) + deletions("C", range(300, 330)),
        ],
        [  # site-3
            insertions("C", range(300, 400)) + insertions("A", range(400, 450)),
            insertions("B", range(700, 750)) + deletions("A", range(400, 420)),
        ],
    ]


def ground_truth_engine() -> StreamEngine:
    engine = StreamEngine(SPEC)
    for rounds in site_rounds():
        for updates in rounds:
            engine.process_many(updates)
    engine.flush()
    return engine


def assert_bit_identical(coordinator: Coordinator, engine: StreamEngine):
    assert coordinator.stream_names() == engine.stream_names()
    for name, family in engine.families().items():
        assert coordinator.families()[name] == family, name
    # Estimates are deterministic functions of the counters, so equal
    # counters must answer with bit-equal estimates.
    names = engine.stream_names()
    assert (
        coordinator.query_union(names, 0.25).value
        == engine.query_union(names, 0.25).value
    )
    expression = "(A & B) | C"
    assert (
        coordinator.query(expression, 0.25).value
        == engine.query(expression, 0.25).value
    )


class TestEndToEnd:
    def test_three_sites_with_disconnect_and_restart(self, tmp_path):
        """The acceptance scenario: 3 sites, 2 export rounds each, one
        injected disconnect+retry, one coordinator restart from
        checkpoint — final state bit-identical to an unfailed single
        engine, and re-delivery changes nothing."""

        async def scenario():
            rounds = site_rounds()
            server = CoordinatorServer(
                SPEC, port=0, checkpoint_dir=tmp_path, checkpoint_every=1
            )
            await server.start()
            port = server.port
            clients = [
                make_client(f"site-{i + 1}", port) for i in range(len(rounds))
            ]

            # Round 1: every site observes and ships.
            for client, site_updates in zip(clients, rounds):
                client.observe_many(site_updates[0])
                await client.ship()

            # Injected disconnect: kill one site's connection mid-session;
            # its next delivery must silently reconnect and retry.
            clients[0]._drop_connection()

            # Coordinator restart: stop the server, restore from the
            # checkpoint, come back on the same port — concurrently with
            # the sites' round-2 shipping, which must retry/backoff
            # until the coordinator is reachable again.
            await server.stop()
            restored = CoordinatorServer.restore(
                tmp_path, port=port, checkpoint_every=1
            )

            async def bring_back():
                await asyncio.sleep(0.05)
                await restored.start()

            async def ship_round_2(client, site_updates):
                client.observe_many(site_updates[1])
                await client.ship()

            await asyncio.gather(
                bring_back(),
                *[
                    ship_round_2(client, site_updates)
                    for client, site_updates in zip(clients, rounds)
                ],
            )

            # Re-delivery of everything still retained: no state change.
            snapshot = {
                name: family.counters.copy()
                for name, family in restored.coordinator.families().items()
            }
            for client in clients:
                await client.connect()  # re-sync path; all duplicates
            for name, counters in snapshot.items():
                assert np.array_equal(
                    restored.coordinator.families()[name].counters, counters
                )

            stats = restored.stats()
            assert any(c.stats.reconnects >= 1 for c in clients)
            for client in clients:
                await client.close()
            await restored.stop()
            return restored.coordinator, stats

        coordinator, stats = run(scenario())
        assert_bit_identical(coordinator, ground_truth_engine())
        # Each site shipped two applied rounds (re-syncs drop as duplicates).
        for site_id in ("site-1", "site-2", "site-3"):
            assert coordinator.applied_sequence(site_id) >= 2
            assert stats[site_id].deltas_applied >= 1


class TestDuplicateDelivery:
    def test_same_sequence_twice_on_the_wire(self):
        """The same delta frame delivered twice folds exactly once."""

        async def scenario():
            server = CoordinatorServer(SPEC, port=0)
            await server.start()

            site = StreamSite("dup", SPEC)
            site.observe_many(insertions("A", range(100)))
            export = site.export()
            header, blobs = protocol.delta_message(export)

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await protocol.write_message(
                writer, protocol.hello_message("dup", site.incarnation)
            )
            welcome, _, _ = await protocol.read_message(reader)
            assert welcome["type"] == "welcome" and welcome["sequence"] == 0

            for expected_applied in (1, 1):  # second send is a duplicate
                await protocol.write_message(writer, header, blobs)
                ack, _, _ = await protocol.read_message(reader)
                assert ack["type"] == "ack"
                assert ack["sequence"] == expected_applied
            writer.close()
            await writer.wait_closed()

            stats = server.stats()["dup"]
            assert stats.deltas_applied == 1
            assert stats.duplicates_dropped == 1
            await server.stop()
            return server.coordinator

        coordinator = run(scenario())
        unfailed = StreamEngine(SPEC)
        unfailed.process_many(insertions("A", range(100)))
        assert coordinator.families()["A"] == unfailed.family("A")


class TestDroppedConnectionMidFrame:
    def test_partial_frame_applies_nothing(self):
        """A connection cut mid-frame must leave no partial state, and a
        subsequent clean session must converge to the unfailed result."""

        async def scenario():
            server = CoordinatorServer(SPEC, port=0)
            await server.start()

            # A real site, to craft a genuine delta frame.
            site = StreamSite("cut", SPEC)
            site.observe_many(insertions("A", range(50)))
            header, blobs = protocol.delta_message(site.export())
            payload = protocol.encode_message(header, blobs)

            # Hello cleanly, then send only half the delta frame and drop.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await protocol.write_message(
                writer, protocol.hello_message("cut", site.incarnation)
            )
            await protocol.read_message(reader)  # welcome
            writer.write(struct.pack(">I", len(payload)) + payload[: len(payload) // 2])
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)  # let the handler observe the cut

            assert server.coordinator.applied_sequence("cut") == 0
            assert server.coordinator.stream_names() == []

            # The site reconnects via the real client and re-syncs: the
            # export is still retained (never acked), so nothing is lost.
            client = SiteClient(
                site=site,
                port=server.port,
                connect_timeout=2.0,
                io_timeout=2.0,
                max_retries=10,
                backoff_base=0.01,
                rng=random.Random(3),
            )
            await client.connect()
            assert server.coordinator.applied_sequence("cut") == 1
            await client.close()
            await server.stop()
            return server.coordinator

        coordinator = run(scenario())
        unfailed = StreamEngine(SPEC)
        unfailed.process_many(insertions("A", range(50)))
        assert coordinator.families()["A"] == unfailed.family("A")


class TestRestartFailover:
    def test_restart_recovers_checkpoint_and_resyncs_tail(self, tmp_path):
        """Deltas applied after the last checkpoint are replayed by the
        sites from their retained exports after a coordinator restart."""

        async def scenario():
            server = CoordinatorServer(
                SPEC, port=0, checkpoint_dir=tmp_path, checkpoint_every=0
            )
            await server.start()
            port = server.port
            client = make_client("edge", port)

            client.observe_many(insertions("A", range(100)))
            await client.ship()
            server.checkpoint()  # durable through sequence 1

            client.observe_many(
                insertions("B", range(200, 260)) + deletions("A", range(0, 30))
            )
            await client.ship()  # applied but NOT checkpointed

            # Crash: round 2 exists only in memory and in the site's
            # retained tail (durable was 1, so sequence 2 is retained).
            await server.stop()
            assert client.site.retained_exports >= 1

            restored = CoordinatorServer.restore(
                tmp_path, port=port, checkpoint_every=0
            )
            await restored.start()
            assert restored.coordinator.applied_sequence("edge") == 1

            await client.ship()  # round 3 (empty delta) forces a re-sync first
            assert restored.coordinator.applied_sequence("edge") == 3

            await client.close()
            await restored.stop()
            return restored.coordinator

        coordinator = run(scenario())
        unfailed = StreamEngine(SPEC)
        unfailed.process_many(insertions("A", range(100)))
        unfailed.process_many(
            insertions("B", range(200, 260)) + deletions("A", range(0, 30))
        )
        for name, family in unfailed.families().items():
            assert coordinator.families()[name] == family


class TestUnwindowedRestore:
    def test_restore_folds_into_the_restored_engine(self, tmp_path, monkeypatch):
        """Without ``engine_factory``, the engine ``restore_engine``
        rebuilt is the restored coordinator's fold target, and a collect
        after the restore matches a flat engine bit for bit."""
        from repro.streams.net import coordinator as coordinator_module

        site = StreamSite("edge", SPEC)
        flat = StreamEngine(SPEC)
        first = insertions("A", range(100)) + insertions("B", range(50, 150))
        site.observe_many(first)
        flat.process_many(first)
        server = CoordinatorServer(SPEC, checkpoint_dir=tmp_path)
        server.coordinator.collect(site.export())
        server.checkpoint()

        rebuilt = []
        restore_engine = coordinator_module.restore_engine

        def recording_restore(directory):
            rebuilt.append(restore_engine(directory))
            return rebuilt[-1]

        monkeypatch.setattr(coordinator_module, "restore_engine", recording_restore)
        restored = CoordinatorServer.restore(tmp_path)
        assert restored.coordinator.fold_engine is rebuilt[0]
        assert restored.coordinator.applied_sequence("edge") == 1

        second = insertions("C", range(20)) + deletions("A", range(0, 40))
        site.observe_many(second)
        flat.process_many(second)
        assert restored.coordinator.collect(site.export())
        assert_bit_identical(restored.coordinator, flat)
        for text in ("A & B", "(A - B) | C"):
            assert restored.coordinator.query(text, 0.2) == flat.query(text, 0.2)


class TestSiteRestart:
    def test_restarted_site_process_is_not_dropped_as_duplicate(self):
        """A site process that restarts (fresh StreamSite, sequence back
        at 0) under the same site id must have its new exports applied,
        not silently dropped as duplicates of its previous life's —
        even though the two lives' sequence numbers overlap.  The
        incarnation id in hello/delta frames is what disambiguates."""

        async def scenario():
            server = CoordinatorServer(SPEC, port=0)
            await server.start()

            old_life = make_client("edge", server.port)
            old_life.observe_many(insertions("A", range(60)))
            await old_life.ship()
            old_life.observe_many(insertions("B", range(40)))
            await old_life.ship()
            await old_life.close()
            assert server.coordinator.applied_sequence("edge") == 2

            # Restart: a brand-new client+site with the same site id.
            # Its first export collides at sequence 1 with the old
            # life's numbering.
            new_life = make_client("edge", server.port)
            assert new_life.site.incarnation != old_life.site.incarnation
            new_life.observe_many(insertions("A", range(60, 90)))
            await new_life.ship()
            assert new_life.site.sequence == 1
            assert (
                server.coordinator.applied_sequence(
                    "edge", new_life.site.incarnation
                )
                == 1
            )
            assert (
                server.coordinator.applied_sequence(
                    "edge", old_life.site.incarnation
                )
                == 2
            )

            await new_life.close()
            await server.stop()
            return server.coordinator

        coordinator = run(scenario())
        truth = StreamEngine(SPEC)
        truth.process_many(insertions("A", range(90)))
        truth.process_many(insertions("B", range(40)))
        truth.flush()
        for name in ("A", "B"):
            assert coordinator.families()[name] == truth.family(name)


class TestRetryBudget:
    def test_unreachable_coordinator_raises_after_budget(self):
        async def scenario():
            # Grab a port with no listener: bind, read the number, close.
            probe = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()

            client = make_client(
                "lost", port, max_retries=2, backoff_base=0.005
            )
            client.observe(Update("A", 1, 1))
            with pytest.raises(SiteConnectionError, match="lost"):
                await client.ship()
            assert client.stats.retries == 3  # budget + the failing attempt
            # The export is retained for a later successful session.
            assert client.site.retained_exports == 1

        run(scenario())


class TestProtocolRejections:
    def test_wrong_version_and_bad_first_frame(self):
        async def scenario():
            server = CoordinatorServer(SPEC, port=0)
            await server.start()

            # Wrong protocol version: server answers with an error frame.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            hello = protocol.hello_message("v2-site", "life-1")
            hello["version"] = 999
            await protocol.write_message(writer, hello)
            answer, _, _ = await protocol.read_message(reader)
            assert answer["type"] == "error"
            assert "version" in answer["message"]
            writer.close()
            await writer.wait_closed()

            # A non-hello first frame is rejected too.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await protocol.write_message(writer, protocol.ack_message(1, 1))
            answer, _, _ = await protocol.read_message(reader)
            assert answer["type"] == "error"
            writer.close()
            await writer.wait_closed()

            assert server.coordinator.stream_names() == []
            await server.stop()

        run(scenario())
