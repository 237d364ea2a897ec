"""Wire-format bench: delta bytes/update through a faulty 2-level tree.

The distributed model ships sketch synopses, not raw streams — so the
wire cost per update is the scaling lever for deep federation trees.
This bench drives a sparse-delta workload (each export round touches a
small set of counters) from several sites through a **leaf coordinator**
and up an uplink to a **root coordinator**, with a seeded
fault-injecting proxy (drop/duplicate/cut/delay) on every site→leaf hop
and on the uplink, plus one **leaf restart from its checkpoint**
mid-run.  The same workload runs twice:

* **v1** — dense frames (``encodings=("dense",)``), no batching: every
  export ships the full counter slab of every changed stream;
* **v2** — negotiated sparse varint encoding with zlib and uplink
  batching (:mod:`repro.streams.net.codec`).

Both runs must leave the root's merged synopses **bit-identical** to a
flat :class:`~repro.streams.engine.StreamEngine` fed every update
directly — faults, batching, and the restart change bytes and frame
counts, never the folded counters.  Results (bytes/update, deltas/s,
compression ratio, fault counts) land in ``BENCH_net.json``.

``--smoke`` runs a scaled-down version as a CI gate: it exits non-zero
on any codec round-trip bit-divergence, on the codec picking a sparse
encoding that is *larger* than dense for a sparse-favorable payload, on
root-vs-flat divergence, or on v2 failing to beat v1 bytes/update by at
least 5x on this sparse workload.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import random
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from repro.core.family import SketchFamily, SketchSpec
from repro.core.sketch import SketchShape
from repro.streams.distributed import StreamSite
from repro.streams.engine import StreamEngine
from repro.streams.net import codec
from repro.streams.net.coordinator import CoordinatorServer
from repro.streams.net.site import SiteClient
from repro.streams.updates import Update

from streams.net.faults import FaultyTransport  # noqa: E402  (tests/ path)

SHAPE = SketchShape(domain_bits=24, num_second_level=16, independence=8)
STREAMS = ("A", "B")


def check_codec_roundtrip(spec: SketchSpec, seed: int) -> None:
    """Every encoding must reproduce the dense payload bit-exactly."""
    rng = np.random.default_rng(seed)
    cells = spec.counter_cells
    for nonzero in (0, 1, 17, cells // 200, cells):
        dense = np.zeros(cells, dtype="<i8")
        if nonzero:
            indices = rng.choice(cells, size=nonzero, replace=False)
            dense[indices] = rng.integers(
                -(2**62), 2**62, size=nonzero, dtype=np.int64
            )
        payload = dense.tobytes()
        nonzero_at = np.flatnonzero(dense)
        for allowed in (
            codec.DENSE_ONLY,
            ("sparse",),
            ("dense+zlib",),
            ("sparse+zlib",),
            codec.PREFERRED_ENCODINGS,
        ):
            encoding, blob = codec.encode_delta(
                nonzero_at, dense[nonzero_at], cells, allowed
            )
            decoded = codec.decode_dense(blob, encoding, cells)
            if bytes(decoded) != payload:
                raise SystemExit(
                    f"codec round-trip diverged: {encoding} over "
                    f"{nonzero} nonzero cells"
                )


def check_sparse_beats_dense(spec: SketchSpec, seed: int) -> None:
    """Sparse-favorable payloads must never ship larger than dense."""
    rng = np.random.default_rng(seed)
    cells = spec.counter_cells
    dense = np.zeros(cells, dtype="<i8")
    touched = max(1, cells // 100)  # 1% of counters — a sparse delta
    indices = rng.choice(cells, size=touched, replace=False)
    dense[indices] = rng.integers(1, 1000, size=touched, dtype=np.int64)
    payload = dense.tobytes()
    encoding, blob = codec.encode_delta(
        np.sort(indices), dense[np.sort(indices)], cells, codec.PREFERRED_ENCODINGS
    )
    if not encoding.startswith("sparse"):
        raise SystemExit(
            f"codec picked {encoding!r} for a 1%-sparse payload"
        )
    if len(blob) * 5 > len(payload):
        raise SystemExit(
            f"sparse encoding too large: {len(blob)} bytes for a "
            f"{len(payload)}-byte dense slab"
        )


async def run_tree(
    spec: SketchSpec,
    *,
    v2: bool,
    num_sites: int,
    rounds: int,
    updates_per_round: int,
    restart_leaf_at: int,
    checkpoint_dir: pathlib.Path,
    seed: int,
) -> dict:
    """One workload pass through the faulty 2-level tree."""
    encodings = codec.PREFERRED_ENCODINGS if v2 else codec.DENSE_ONLY
    max_batch = 16 if v2 else 1
    uplink_options = {
        "rng": random.Random(seed + 90),
        "encodings": encodings,
        "max_batch": max_batch,
    }

    root = CoordinatorServer(spec, encodings=encodings)
    await root.start()
    uplink_proxy = FaultyTransport(
        root.port,
        random.Random(seed + 1),
        drop=0.05,
        duplicate=0.05,
        delay=0.05,
        max_faults=6,
    )
    await uplink_proxy.start()

    def make_leaf(restore: bool) -> CoordinatorServer:
        kwargs = dict(
            checkpoint_every=0,
            parent_port=uplink_proxy.port,
            uplink_id="leaf-0",
            uplink_options=uplink_options,
            encodings=encodings,
        )
        if restore:
            return CoordinatorServer.restore(checkpoint_dir, **kwargs)
        return CoordinatorServer(
            spec, checkpoint_dir=checkpoint_dir, **kwargs
        )

    leaf = make_leaf(restore=False)
    await leaf.start()
    leaf_port = leaf.port

    proxies: list[FaultyTransport] = []
    clients: list[SiteClient] = []
    for index in range(num_sites):
        proxy = FaultyTransport(
            leaf_port,
            random.Random(seed + 10 + index),
            drop=0.08,
            duplicate=0.08,
            cut=0.04,
            delay=0.05,
            max_faults=8,
        )
        await proxy.start()
        proxies.append(proxy)
        clients.append(
            SiteClient(
                site=StreamSite(f"site-{index}", spec),
                port=proxy.port,
                rng=random.Random(seed + 40 + index),
                backoff_base=0.01,
                backoff_cap=0.1,
                max_retries=24,
                encodings=encodings,
                max_batch=max_batch,
            )
        )

    flat = StreamEngine(spec)
    rng = np.random.default_rng(seed)
    total_updates = 0
    restarted = False
    started = time.perf_counter()
    for round_index in range(rounds):
        if round_index == restart_leaf_at and not restarted:
            # Crash-and-restore: checkpoint covers the fold state, the
            # per-site sequence map, and the uplink's retained tail; the
            # restored leaf rebinds the same port so proxies reconnect.
            leaf.checkpoint()
            await leaf.stop()
            leaf = make_leaf(restore=True)
            leaf._port = leaf_port  # rebind where the proxies point
            await leaf.start()
            restarted = True
        for client in clients:
            # A sparse touch set: a handful of elements per stream, so
            # the per-round counter delta is a sliver of the dense slab.
            for stream in STREAMS:
                elements = rng.integers(
                    0, 2**SHAPE.domain_bits, size=updates_per_round
                )
                for element in elements:
                    update = Update(stream, int(element), 1)
                    client.observe(update)
                    flat.process(update)
                total_updates += updates_per_round
            await client.ship()
        await leaf.ship_upstream()
    # Final drain: everything retained anywhere reaches the root.
    for client in clients:
        await client.ship()
    await leaf.ship_upstream()
    elapsed = time.perf_counter() - started

    identical = all(
        root.coordinator.families()[name].to_bytes()
        == flat.families()[name].to_bytes()
        for name in STREAMS
    )
    root_estimate = root.query_union(list(STREAMS)).value
    flat_estimate = flat.query_union(list(STREAMS)).value

    site_stats = [client.stats.snapshot() for client in clients]
    uplink_stats = leaf.uplink.stats.snapshot()
    bytes_sent = sum(stats.bytes_sent for stats in site_stats)
    payload_dense = sum(stats.payload_bytes_dense for stats in site_stats)
    payload_wire = sum(stats.payload_bytes_wire for stats in site_stats)
    deltas_shipped = sum(stats.deltas_shipped for stats in site_stats)
    faults = sum(proxy.faults_injected for proxy in proxies)

    for client in clients:
        await client.close()
    for proxy in proxies:
        await proxy.stop()
    await leaf.stop()
    await uplink_proxy.stop()
    await root.stop()

    return {
        "wire_format": "v2" if v2 else "v1",
        "updates": total_updates,
        "deltas_shipped": deltas_shipped,
        "exports_coalesced": sum(
            stats.exports_coalesced for stats in site_stats
        ),
        "site_bytes_sent": bytes_sent,
        "bytes_per_update": bytes_sent / total_updates,
        "payload_bytes_dense": payload_dense,
        "payload_bytes_wire": payload_wire,
        "compression_ratio": (
            payload_dense / payload_wire if payload_wire else 1.0
        ),
        "uplink_bytes_sent": uplink_stats.bytes_sent,
        "uplink_compression_ratio": uplink_stats.compression_ratio,
        "deltas_per_second": deltas_shipped / elapsed if elapsed else 0.0,
        "elapsed_seconds": elapsed,
        "faults_injected": faults + uplink_proxy.faults_injected,
        "site_retries": sum(stats.retries for stats in site_stats),
        "leaf_restarted": restarted,
        "root_bit_identical_to_flat": identical,
        "root_estimate": root_estimate,
        "flat_estimate": flat_estimate,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sites", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--updates-per-round", type=int, default=64)
    parser.add_argument("--sketches", type=int, default=128)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("BENCH_net.json")
    )
    args = parser.parse_args()
    if args.smoke:
        args.sites, args.rounds, args.sketches = 2, 6, 48
        args.updates_per_round = 32

    spec = SketchSpec(num_sketches=args.sketches, shape=SHAPE, seed=3)
    print(
        f"spec: r={args.sketches}, dense slab "
        f"{spec.counter_payload_bytes:,} bytes/stream"
    )
    check_codec_roundtrip(spec, args.seed)
    check_sparse_beats_dense(spec, args.seed + 1)
    print("codec round-trip and sparse-size gates: ok")

    import tempfile

    results = {}
    for v2 in (False, True):
        with tempfile.TemporaryDirectory() as tmp:
            results["v2" if v2 else "v1"] = asyncio.run(
                run_tree(
                    spec,
                    v2=v2,
                    num_sites=args.sites,
                    rounds=args.rounds,
                    updates_per_round=args.updates_per_round,
                    restart_leaf_at=max(1, args.rounds // 2),
                    checkpoint_dir=pathlib.Path(tmp) / "leaf",
                    seed=args.seed,
                )
            )
    v1, v2 = results["v1"], results["v2"]
    improvement = (
        v1["bytes_per_update"] / v2["bytes_per_update"]
        if v2["bytes_per_update"]
        else float("inf")
    )
    for row in (v1, v2):
        print(
            f"{row['wire_format']}: {row['bytes_per_update']:,.1f} "
            f"bytes/update, {row['deltas_per_second']:,.1f} deltas/s, "
            f"codec x{row['compression_ratio']:.1f}, "
            f"{row['faults_injected']} faults, "
            f"restart={row['leaf_restarted']}, "
            f"bit-identical={row['root_bit_identical_to_flat']}"
        )
    print(f"v2 ships {improvement:,.1f}x fewer bytes/update than v1")

    payload = {
        "workload": {
            "sites": args.sites,
            "rounds": args.rounds,
            "updates_per_round_per_stream": args.updates_per_round,
            "streams": list(STREAMS),
            "num_sketches": args.sketches,
            "dense_payload_bytes": spec.counter_payload_bytes,
            "seed": args.seed,
            "smoke": args.smoke,
        },
        "v1": v1,
        "v2": v2,
        "bytes_per_update_improvement": improvement,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    failures = []
    for row in (v1, v2):
        if not row["root_bit_identical_to_flat"]:
            failures.append(
                f"{row['wire_format']} root diverged from the flat engine"
            )
        if row["root_estimate"] != row["flat_estimate"]:
            failures.append(
                f"{row['wire_format']} root query diverged from flat"
            )
        if not row["leaf_restarted"]:
            failures.append(f"{row['wire_format']} never restarted the leaf")
    if improvement < 5.0:
        failures.append(
            f"v2 only {improvement:.1f}x better than v1 (need >= 5x)"
        )
    if v2["compression_ratio"] < 5.0:
        failures.append(
            f"v2 codec ratio only x{v2['compression_ratio']:.1f}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
