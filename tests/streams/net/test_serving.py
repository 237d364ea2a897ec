"""The serving front end: protocol frames, session behaviour, and the
federated e2e acceptance scenario.

Three layers, strictest first:

* pure message-level tests — QUERY/QUERY_RESULT/QUERY_ERROR round-trip
  through the length-framed codec, and strict decoding rejects every
  malformed shape before the server ever sees it;
* session tests against a live :class:`QueryServer` — role policing on
  both ports, typed error frames that keep the connection open, and the
  unknown-tenant/unknown-stream payloads carrying the known names;
* the acceptance e2e: ≥ 8 concurrent clients querying the root of a
  2-level federated tree through :class:`FaultyTransport` while sites
  keep shipping — every drained answer bit-identical to a flat
  :class:`StreamEngine` fed the same updates.
"""

from __future__ import annotations

import asyncio
import random
import struct

import pytest

from repro.core.family import SketchSpec
from repro.core.results import UnionEstimate, WitnessEstimate
from repro.core.sketch import SketchShape
from repro.errors import (
    EstimationError,
    ExpressionError,
    RateLimitedError,
    ReproError,
    UnknownQueryError,
    UnknownStreamError,
    UnknownTenantError,
)
from repro.streams.engine import StreamEngine
from repro.streams.net import protocol
from repro.streams.net.coordinator import CoordinatorServer
from repro.streams.net.site import SiteClient
from repro.streams.serving import (
    QueryClient,
    QueryServer,
    TenantSpec,
    estimate_from_dict,
    estimate_to_dict,
)
from repro.streams.updates import Update

from tests.streams.net.faults import FaultyTransport

SHAPE = SketchShape(domain_bits=14, num_second_level=8, independence=4)
SPEC = SketchSpec(num_sketches=16, shape=SHAPE, seed=41)

TIMEOUT = 60.0


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def roundtrip(header: dict) -> dict:
    decoded, blobs = protocol.decode_message(protocol.encode_message(header))
    assert blobs == []
    return decoded


class TestQueryMessages:
    def test_expression_query_roundtrips(self):
        header = protocol.query_message(
            7, "acme", expressions=["A & B", "A - C"], epsilon=0.05,
            window=30.0,
        )
        request = protocol.query_from_message(roundtrip(header))
        assert request.id == 7
        assert request.tenant == "acme"
        assert request.kind == "expression"
        assert request.items == ("A & B", "A - C")
        assert request.epsilon == 0.05
        assert request.window == 30.0

    def test_union_query_roundtrips(self):
        header = protocol.query_message(0, "public", streams=["A", "B"])
        request = protocol.query_from_message(roundtrip(header))
        assert request.kind == "union"
        assert request.items == ("A", "B")
        assert request.window is None

    def test_query_message_wants_exactly_one_payload(self):
        with pytest.raises(ValueError, match="exactly one"):
            protocol.query_message(1, "t")
        with pytest.raises(ValueError, match="exactly one"):
            protocol.query_message(
                1, "t", expressions=["A"], streams=["A"]
            )

    def test_result_roundtrips_bit_identically(self):
        estimates = [
            WitnessEstimate(
                value=1234.5678901234567,
                level=3,
                union_estimate=2345.678,
                num_valid=12,
                num_witnesses=7,
                num_sketches=16,
            ),
            UnionEstimate(
                value=9876.543,
                level=2,
                non_empty_fraction=0.109375,
                num_sketches=16,
                saturated=True,
            ),
        ]
        header = protocol.query_result_message(
            3, "expression",
            [estimate_to_dict(estimate) for estimate in estimates],
            (100, 4),
        )
        decoded = roundtrip(header)
        assert decoded["id"] == 3
        assert decoded["position"] == [100, 4]
        rebuilt = [estimate_from_dict(result) for result in decoded["results"]]
        # JSON floats round-trip exactly; the dataclasses compare ==.
        assert rebuilt == estimates

    def test_error_roundtrips_with_details(self):
        header = protocol.query_error_message(
            9, "unknown-stream", "no synopsis for 'Z'",
            details={"unknown": ["Z"], "known": ["A", "B"]},
        )
        decoded = roundtrip(header)
        assert decoded["error"] == "unknown-stream"
        assert decoded["unknown"] == ["Z"]
        assert decoded["known"] == ["A", "B"]

    def test_error_details_cannot_shadow_reserved_fields(self):
        with pytest.raises(ValueError, match="override"):
            protocol.query_error_message(
                1, "internal", "boom", details={"id": 99}
            )

    @pytest.mark.parametrize(
        "mutation",
        [
            {"type": "delta"},
            {"id": None},
            {"id": True},
            {"id": -1},
            {"id": "7"},
            {"tenant": None},
            {"tenant": ""},
            {"tenant": 3},
            {"expressions": None},  # neither payload
            {"streams": ["A"]},  # both payloads
            {"expressions": []},
            {"expressions": "A & B"},
            {"expressions": ["A", ""]},
            {"expressions": ["A", 7]},
            {"epsilon": None},
            {"epsilon": "0.1"},
            {"epsilon": True},
            {"epsilon": float("nan")},
            {"window": "30"},
            {"window": float("nan")},
            {"window": True},
        ],
    )
    def test_strict_decoding_rejects_malformed_queries(self, mutation):
        header = protocol.query_message(
            1, "public", expressions=["A & B"], epsilon=0.1
        )
        header.update(mutation)
        header = {k: v for k, v in header.items() if v is not None}
        with pytest.raises(protocol.ProtocolError):
            protocol.query_from_message(header)

    def test_strict_decoding_rejects_oversized_batches(self):
        header = protocol.query_message(
            1, "public",
            expressions=["A"] * (protocol.MAX_QUERY_ITEMS + 1),
        )
        with pytest.raises(protocol.ProtocolError, match="at most"):
            protocol.query_from_message(header)

    def test_estimate_payloads_decode_strictly(self):
        with pytest.raises(protocol.ProtocolError, match="unknown estimate"):
            estimate_from_dict({"est": "exact", "value": 1.0})
        with pytest.raises(protocol.ProtocolError, match="malformed"):
            estimate_from_dict({"est": "witness", "value": 1.0})
        with pytest.raises(protocol.ProtocolError, match="object"):
            estimate_from_dict([1.0])


# -- live sessions ------------------------------------------------------------


def small_engine() -> StreamEngine:
    engine = StreamEngine(SPEC)
    for element in range(300):
        engine.process(Update("t1_A", element, 1))
        engine.process(Update("t1_B", element % 150, 1))
        engine.process(Update("A", element, 1))
        engine.process(Update("B", element % 100, 1))
    engine.flush()
    return engine


async def raw_session(port: int, hello: dict):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    await protocol.write_message(writer, hello)
    header, _, _ = await protocol.read_message(reader)
    return reader, writer, header


def query_hello(client_id: str = "c0") -> dict:
    return protocol.hello_message(client_id, "0", role="query")


class TestQueryServerSessions:
    def test_handshake_and_query(self):
        async def scenario():
            engine = small_engine()
            async with QueryServer(engine) as server:
                reader, writer, welcome = await raw_session(
                    server.port, query_hello()
                )
                assert welcome["type"] == "welcome"
                await protocol.write_message(
                    writer,
                    protocol.query_message(
                        1, "public", expressions=["A & B"]
                    ),
                )
                header, _, _ = await protocol.read_message(reader)
                assert header["type"] == "query_result"
                assert header["id"] == 1
                assert header["kind"] == "expression"
                [result] = header["results"]
                assert estimate_from_dict(result) == engine.query("A & B")
                writer.close()

        run(scenario())

    def test_query_port_refuses_ingest_roles(self):
        async def scenario():
            async with QueryServer(small_engine()) as server:
                _, writer, answer = await raw_session(
                    server.port, protocol.hello_message("s1", "0", "site")
                )
                assert answer["type"] == "error"
                assert "query port" in answer["message"]
                writer.close()

        run(scenario())

    def test_ingest_port_points_query_clients_at_query_port(self):
        async def scenario():
            async with CoordinatorServer(SPEC, query_port=0) as coordinator:
                _, writer, answer = await raw_session(
                    coordinator.port, query_hello()
                )
                assert answer["type"] == "error"
                assert str(coordinator.query_port) in answer["message"]
                writer.close()

        run(scenario())

    def test_unsupported_version_is_refused(self):
        async def scenario():
            async with QueryServer(small_engine()) as server:
                hello = query_hello()
                hello["version"] = 99
                _, writer, answer = await raw_session(server.port, hello)
                assert answer["type"] == "error"
                assert "version" in answer["message"]
                writer.close()

        run(scenario())

    def test_malformed_query_answers_typed_and_keeps_session(self):
        async def scenario():
            engine = small_engine()
            async with QueryServer(engine) as server:
                reader, writer, _ = await raw_session(
                    server.port, query_hello()
                )
                # Malformed: both payloads.  The frame itself is
                # well-formed, so the session must survive.
                bad = protocol.query_message(
                    5, "public", expressions=["A"]
                )
                bad["streams"] = ["B"]
                await protocol.write_message(writer, bad)
                header, _, _ = await protocol.read_message(reader)
                assert header["type"] == "query_error"
                assert header["id"] == 5
                assert header["error"] == "protocol"
                # ... and an unparseable id comes back as -1.
                await protocol.write_message(
                    writer, {"type": "query", "id": "nope"}
                )
                header, _, _ = await protocol.read_message(reader)
                assert header["type"] == "query_error"
                assert header["id"] == -1
                # The connection still serves real queries.
                await protocol.write_message(
                    writer,
                    protocol.query_message(6, "public", expressions=["A"]),
                )
                header, _, _ = await protocol.read_message(reader)
                assert header["type"] == "query_result"
                assert header["id"] == 6
                writer.close()

        run(scenario())

    def test_oversized_frame_errors_and_closes(self):
        async def scenario():
            async with QueryServer(
                small_engine(), max_frame_bytes=4096
            ) as server:
                reader, writer, _ = await raw_session(
                    server.port, query_hello()
                )
                writer.write(struct.pack(">I", 1 << 20))
                await writer.drain()
                header, _, _ = await protocol.read_message(reader)
                assert header["type"] == "error"
                assert "exceeds" in header["message"]
                # The stream cannot be re-synchronised: server closes.
                assert await reader.read() == b""
                writer.close()

        run(scenario())

    def test_unknown_tenant_carries_known_names(self):
        async def scenario():
            tenants = [TenantSpec("acme"), TenantSpec("globex")]
            async with QueryServer(
                small_engine(), tenants=tenants
            ) as server:
                client = QueryClient(
                    "127.0.0.1", server.port, tenant="initech"
                )
                async with client:
                    with pytest.raises(UnknownTenantError) as info:
                        await client.query("A")
                    assert info.value.details == {
                        "unknown": ["initech"],
                        "known": ["acme", "globex"],
                    }
                    # The session survived the typed error.
                    client.tenant = "acme"
                    with pytest.raises(UnknownStreamError):
                        # acme sees every stream; "Z" exists nowhere.
                        await client.query("Z")

        run(scenario())

    def test_unknown_stream_carries_known_names_per_namespace(self):
        async def scenario():
            tenants = [TenantSpec("t1", prefix="t1_")]
            async with QueryServer(
                small_engine(), tenants=tenants
            ) as server:
                client = QueryClient("127.0.0.1", server.port, tenant="t1")
                async with client:
                    with pytest.raises(UnknownStreamError) as info:
                        await client.query("A & Z")
                    # Only the tenant's namespace is enumerated — the
                    # engine's unprefixed A/B must not leak.
                    assert info.value.details == {
                        "unknown": ["Z"],
                        "known": ["A", "B"],
                    }

        run(scenario())

    def test_bad_epsilon_and_window_map_to_bad_request(self):
        async def scenario():
            async with QueryServer(small_engine()) as server:
                client = QueryClient("127.0.0.1", server.port)
                async with client:
                    with pytest.raises(ValueError, match="epsilon"):
                        await client.query("A", epsilon=1.5)
                    with pytest.raises(ValueError, match="windowed"):
                        await client.query("A", window=10.0)
                    # Still serving afterwards.
                    assert isinstance(
                        await client.query("A"), WitnessEstimate
                    )

        run(scenario())

    def test_unparseable_expression_maps_to_expression_error(self):
        async def scenario():
            async with QueryServer(small_engine()) as server:
                client = QueryClient("127.0.0.1", server.port)
                async with client:
                    with pytest.raises(ExpressionError):
                        await client.query("A &&& B")

        run(scenario())


class _StubTarget:
    """A serving target whose query paths raise a chosen exception."""

    is_windowed = False
    snapshot_position = (0, 0)

    def __init__(self, exc: Exception):
        self.exc = exc

    def stream_names(self):
        return ["A", "B"]

    def query(self, *args, **kwargs):
        raise self.exc

    def query_many(self, *args, **kwargs):
        raise self.exc

    def query_union(self, *args, **kwargs):
        raise self.exc


class TestErrorMapping:
    """Every server-surfaced exception maps to a typed frame.

    The regression half of the ISSUE-10 error-path audit: none of these
    may drop the connection, and the client re-raises the same class.
    """

    @pytest.mark.parametrize(
        "exc,kind,expected_type",
        [
            (EstimationError("no valid observations"), "estimation",
             EstimationError),
            (UnknownQueryError("no standing query named 'x'"),
             "unknown-query", UnknownQueryError),
            (ValueError("window must divide the span"), "bad-request",
             ValueError),
            (RuntimeError("unexpected"), "internal", ReproError),
        ],
    )
    def test_evaluation_errors_map_and_keep_session(
        self, exc, kind, expected_type
    ):
        async def scenario():
            async with QueryServer(_StubTarget(exc)) as server:
                reader, writer, _ = await raw_session(
                    server.port, query_hello()
                )
                await protocol.write_message(
                    writer,
                    protocol.query_message(1, "public", expressions=["A"]),
                )
                header, _, _ = await protocol.read_message(reader)
                assert header["type"] == "query_error"
                assert header["error"] == kind
                # Session survives; a second request gets an answer too.
                await protocol.write_message(
                    writer,
                    protocol.query_message(2, "public", streams=["A"]),
                )
                header, _, _ = await protocol.read_message(reader)
                assert header["type"] == "query_error"
                assert header["id"] == 2
                writer.close()
                # The client-side mapping re-raises the same type.
                from repro.streams.serving import error_from_header

                rebuilt = error_from_header(
                    protocol.query_error_message(1, kind, "m")
                )
                assert isinstance(rebuilt, expected_type)

        run(scenario())

    def test_rate_limited_roundtrips_retry_after(self):
        from repro.streams.serving import error_from_header

        header = protocol.query_error_message(
            1, "rate-limited", "over budget",
            details={"retry_after": 1.25},
        )
        exc = error_from_header(roundtrip(header))
        assert isinstance(exc, RateLimitedError)
        assert exc.retry_after == 1.25

    def test_query_many_failure_falls_back_per_request(self):
        """A group-level batch failure must not fail the whole drain."""

        class FlakyBatchTarget(_StubTarget):
            def __init__(self):
                super().__init__(RuntimeError("unused"))
                self.engine = small_engine()

            def stream_names(self):
                return self.engine.stream_names()

            def query_many(self, *args, **kwargs):
                raise RuntimeError("batch path down")

            def query(self, expression, epsilon, window=None):
                return self.engine.query(expression, epsilon)

        async def scenario():
            target = FlakyBatchTarget()
            async with QueryServer(target) as server:
                client = QueryClient("127.0.0.1", server.port)
                async with client:
                    estimate = await client.query("A & B")
                    assert estimate == target.engine.query("A & B")

        run(scenario())


# -- the acceptance e2e -------------------------------------------------------


STREAMS = "ABC"


def make_site_client(site_id: str, port: int, seed: int) -> SiteClient:
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


class TestFederatedServingE2E:
    def test_concurrent_clients_on_a_faulty_tree_match_flat_engine(self):
        """≥ 8 concurrent clients query a 2-level faulty tree during
        sustained ingest; once drained, every answer is bit-identical
        to a flat engine fed the same updates."""

        async def scenario():
            rng = random.Random(77)
            truth = StreamEngine(SPEC)

            root = CoordinatorServer(SPEC, port=0, query_port=0)
            await root.start()

            uplink_proxies = []
            leaves = []
            for i in range(2):
                proxy = FaultyTransport(
                    root.port, random.Random(100 + i),
                    duplicate=0.25, cut=0.2, max_faults=3,
                )
                await proxy.start()
                uplink_proxies.append(proxy)
                leaf = CoordinatorServer(
                    SPEC,
                    port=0,
                    parent_port=proxy.port,
                    uplink_id=f"leaf{i}",
                    uplink_options=uplink_options(110 + i),
                )
                await leaf.start()
                leaves.append(leaf)

            site_proxies = []
            clients = {}
            for i, leaf in enumerate([*leaves, *leaves]):
                proxy = FaultyTransport(
                    leaf.port, random.Random(120 + i),
                    duplicate=0.2, cut=0.15, max_faults=3,
                )
                await proxy.start()
                site_proxies.append(proxy)
                site_id = f"s{i}"
                clients[site_id] = make_site_client(
                    site_id, proxy.port, seed=130 + i
                )

            async def observe_and_ship(site_id, size):
                batch = [
                    Update(
                        stream=rng.choice(STREAMS),
                        element=rng.randrange(1, 6000),
                        delta=rng.choice([1, 1, 1, -1]),
                    )
                    for _ in range(size)
                ]
                clients[site_id].observe_many(batch)
                truth.process_many(batch)
                await clients[site_id].ship()

            # Seed round so every stream exists at the root before the
            # query clients start.
            for site_id in clients:
                await observe_and_ship(site_id, 30)
            for leaf in leaves:
                await leaf.ship_upstream()

            expressions = [
                "A",
                "A & B",
                "(A - B) | C",
                "B & (A | C)",
                "A - (B | C)",
            ]
            query_clients = [
                QueryClient("127.0.0.1", root.query_port)
                for _ in range(8)
            ]
            ingest_done = asyncio.Event()

            async def sustained_ingest():
                try:
                    for round_number in range(3):
                        for site_id in clients:
                            await observe_and_ship(site_id, 20)
                        for leaf in leaves:
                            await leaf.ship_upstream()
                finally:
                    ingest_done.set()

            async def querying_client(index, client):
                """Query continuously while ingest runs.

                Mid-flight answers race with folds, so the assertions
                are consistency properties: typed results, positions
                that never move backwards on one connection.
                """
                positions = []
                async with client:
                    while not ingest_done.is_set():
                        expression = expressions[
                            (index + len(positions)) % len(expressions)
                        ]
                        estimate = await client.query(expression, 0.25)
                        assert isinstance(estimate, WitnessEstimate)
                        positions.append(client.last_position)
                        await asyncio.sleep(0)
                assert positions == sorted(positions)
                return len(positions)

            answered = await asyncio.gather(
                sustained_ingest(),
                *(
                    querying_client(index, client)
                    for index, client in enumerate(query_clients)
                ),
            )
            assert sum(answered[1:]) >= 8  # every client got answers

            # Quiesce: final upstream flush, then the drained tree must
            # answer every expression bit-identically to the flat twin.
            for leaf in leaves:
                await leaf.ship_upstream()
            truth.flush()
            final_clients = [
                QueryClient("127.0.0.1", root.query_port)
                for _ in range(8)
            ]

            async def verify(client):
                async with client:
                    served = await client.query(expressions, 0.25)
                    union = await client.query_union(list(STREAMS), 0.25)
                return served, union

            outcomes = await asyncio.gather(
                *(verify(client) for client in final_clients)
            )
            expected = [truth.query(text, 0.25) for text in expressions]
            expected_union = truth.query_union(list(STREAMS), 0.25)
            for served, union in outcomes:
                assert served == expected
                assert union == expected_union

            for proxy in [*uplink_proxies, *site_proxies]:
                await proxy.stop()
            for leaf in leaves:
                await leaf.stop()
            await root.stop()

        run(scenario())
