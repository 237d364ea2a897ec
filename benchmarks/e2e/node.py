"""The two system processes of a benchmark run: ``tree`` and ``site``.

Started by ``run.py`` as ``python node.py <role> <config-json>`` in a
process group of its own.  Each speaks newline-delimited JSON with the
orchestrator: commands arrive on stdin, events leave on stdout (anything
else a child prints goes to stderr).  A child exits when stdin closes,
so an orchestrator that dies takes its children with it.

* **tree** — the system under test: a root
  :class:`~repro.streams.net.coordinator.CoordinatorServer` with a query
  port and a leaf ``CoordinatorServer`` whose uplink ships to it.
* **site** — a :class:`~repro.streams.distributed.StreamSite` behind a
  :class:`~repro.streams.net.site.SiteClient` connected to the leaf,
  replaying the seeded inputs on the workload's schedule.

Both record the timestamps that freshness is computed from in every run
(a few list appends per delta); ``--trace`` additionally installs the
span wrappers of :func:`install_layer_spans`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pathlib
import random
import sys
from dataclasses import asdict

from tracing import (
    Tracer,
    cpu_seconds,
    now_ns,
    pin,
    rss_mib,
    run_loop,
    sleep_until,
)
from workloads import (
    EPSILON,
    SPEC,
    STREAMS,
    UNION_KEY,
    answer_keys,
    generate,
    generate_head,
    num_ticks,
    tick_time,
    workload_for,
)

SITE_ID = "site-0"
UPLINK_ID = "leaf-0"
#: Resident set size is sampled this often through the window; a single
#: reading moves by megabytes with whatever a checkpoint just freed.
RSS_SAMPLE_NS = 500_000_000
#: Exceptions a ship may end in that count as a failed operation.
SHIP_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError)


def make_spec():
    from repro.core.family import SketchSpec
    from repro.core.sketch import SketchShape

    return SketchSpec(
        num_sketches=SPEC["num_sketches"],
        shape=SketchShape(
            domain_bits=SPEC["domain_bits"],
            num_second_level=SPEC["num_second_level"],
            independence=SPEC["independence"],
        ),
        seed=SPEC["seed"],
    )


def engine_answers(engine, workload) -> dict:
    """Every post-quiesce answer, computed by ``engine`` itself."""
    from repro.streams.serving import estimate_to_dict

    answers = {}
    for key, text, window in answer_keys(workload):
        if text == UNION_KEY:
            estimate = engine.query_union(list(STREAMS), EPSILON, window=window)
        else:
            estimate = engine.query(text, EPSILON, window=window)
        answers[key] = estimate_to_dict(estimate)
    return answers


def family_hashes(families) -> dict[str, str]:
    return {
        name: hashlib.sha256(family.to_bytes()).hexdigest()
        for name, family in sorted(families.items())
    }


def install_layer_spans(tracer: Tracer):
    """Wrap the module- and class-level entry points of each layer.

    Every caller reaches these through a module or class attribute, so
    replacing the attribute times every call in this process.  Returns a
    function that puts the originals back.
    """
    if not tracer.enabled:
        return lambda: None
    from repro.core.family import SketchFamily
    from repro.streams import serving
    from repro.streams.net import codec, protocol

    targets = [
        (SketchFamily, "ingest_batch", "core.family.ingest"),
        (SketchFamily, "update_batch", "core.family.ingest"),
        (SketchFamily, "diff_from", "core.family.diff"),
        (SketchFamily, "copy", "core.family.diff"),
        (SketchFamily, "to_bytes", "core.family.diff"),
        (codec, "encode_delta", "streams.net.codec.encode"),
        (codec, "decode_cells", "streams.net.codec.decode"),
        (codec, "decode_dense", "streams.net.codec.decode"),
        (protocol, "encode_message", "streams.net.protocol.frame_encode"),
        (protocol, "decode_message", "streams.net.protocol.frame_decode"),
        (protocol, "export_from_message", "streams.net.protocol.frame_decode"),
        (protocol, "query_message", "streams.serving.codec"),
        (protocol, "query_from_message", "streams.serving.codec"),
        (protocol, "query_result_message", "streams.serving.codec"),
        (serving, "estimate_to_dict", "streams.serving.codec"),
        (serving, "estimate_from_dict", "streams.serving.codec"),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    for owner, attr, span in targets:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), span))

    def restore() -> None:
        for owner, attr, original in originals:
            setattr(owner, attr, original)

    return restore


class Control:
    """The JSON-lines command channel to the orchestrator.

    Closing stdin is how the orchestrator says "exit": :meth:`recv` then
    returns ``None``.  stdin is read all the time, so when it closes while
    a command is still running (the orchestrator died mid-schedule) the
    task running it is cancelled instead, and no child outlives its
    orchestrator.
    """

    async def open(self) -> None:
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(limit=1 << 20)
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        self._commands: asyncio.Queue = asyncio.Queue()
        self._waiting = False
        self._pump = loop.create_task(self._read(reader, asyncio.current_task()))

    async def _read(self, reader, owner: asyncio.Task) -> None:
        while line := await reader.readline():
            self._commands.put_nowait(json.loads(line))
        self._commands.put_nowait(None)
        if not self._waiting:
            owner.cancel()

    async def recv(self) -> dict | None:
        self._waiting = True
        try:
            return await self._commands.get()
        finally:
            self._waiting = False

    @staticmethod
    def send(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()


class Probe:
    """Window snapshots and the traced-run extras shared by both roles."""

    def __init__(self, tracer: Tracer, config: dict) -> None:
        self.tracer = tracer
        self.config = config
        self.snapshots: dict[str, dict] = {}
        self.rss_samples: list[float] = []
        self.window = (0, 0)
        self.origin = 0

    def schedule(self, message: dict) -> None:
        """Take a snapshot at the window's start and end, and sample the
        resident set size every 0.5 s in between."""
        self.window = (message["window_start"], message["window_end"])
        self.origin = message["origin"]
        loop = asyncio.get_running_loop()
        for label, at in zip(("start", "end"), self.window):
            loop.call_at(at / 1e9, self._take, label)
        for at in range(*self.window, RSS_SAMPLE_NS):
            loop.call_at(at / 1e9, lambda: self.rss_samples.append(rss_mib()))

    def _take(self, label: str) -> None:
        self.snapshots[label] = self.snapshot()

    def snapshot(self) -> dict:
        return {"t": now_ns(), "cpu": cpu_seconds()}

    def report(self) -> dict:
        report = {"snapshots": self.snapshots, "rss_mib": self.rss_samples}
        if self.tracer.enabled:
            self.tracer.stop()
            report["trace"] = self.tracer.summary(*self.window)
            path = os.path.join(
                self.config["run_dir"], f"trace-{self.tracer.process}.json"
            )
            self.tracer.write_events(path, self.origin, self.config["pid"])
            report["trace_file"] = path
        return report


# -- tree ---------------------------------------------------------------------


class TreeProbe(Probe):
    def __init__(self, tracer, config, root, leaf) -> None:
        super().__init__(tracer, config)
        self.root, self.leaf = root, leaf
        # (uplink sequence, site sequence covered, t_ns) per uplink cut.
        self.uplink_log: list[tuple] = []
        # (first, last, t_ns) per uplink export the root applied.
        self.root_log: list[tuple] = []
        self.heartbeat_lags: list[tuple] = []
        self.checkpoint_bytes = 0
        self._wire()

    def _wire(self) -> None:
        tracer, leaf, root = self.tracer, self.leaf, self.root
        root_collect = tracer.wrap(
            root.coordinator.collect,
            "streams.distributed.root_collect",
            lambda export: export.sequence,
        )
        uplink_site = leaf.uplink.site
        uplink_export = tracer.wrap(
            uplink_site.export, "streams.distributed.uplink_export"
        )
        coordinator = leaf.coordinator

        def root_collect_logged(export):
            applied = root_collect(export)
            if applied and export.site_id == UPLINK_ID:
                self.root_log.append((export.batch_start, export.sequence, now_ns()))
            return applied

        def uplink_export_logged(window_at=None):
            export = uplink_export(window_at)
            self.uplink_log.append(
                (export.sequence, coordinator.applied_sequence(SITE_ID), now_ns())
            )
            return export

        root.coordinator.collect = root_collect_logged
        uplink_site.export = uplink_export_logged
        if not tracer.enabled:
            return
        leaf.coordinator.collect = tracer.wrap(
            leaf.coordinator.collect,
            "streams.distributed.leaf_collect",
            lambda export: export.sequence,
        )
        leaf.checkpoint = tracer.wrap(
            leaf.checkpoint, "streams.net.coordinator.checkpoint"
        )
        ship_upstream = leaf.ship_upstream

        async def ship_upstream_timed():
            started = now_ns()
            try:
                await ship_upstream()
            finally:
                tracer.interval("streams.net.coordinator.ship_upstream", started)

        leaf.ship_upstream = ship_upstream_timed
        for name in ("query_many", "query_union"):
            setattr(
                root.coordinator,
                name,
                tracer.wrap(
                    getattr(root.coordinator, name), "streams.serving.estimate"
                ),
            )
        from repro.streams.net import coordinator as coordinator_module

        write = tracer.wrap(
            coordinator_module.checkpoint_engine, "streams.checkpoint.write"
        )

        def write_counted(engine, directory, extra=None):
            write(engine, directory, extra=extra)
            self.checkpoint_bytes += sum(
                path.stat().st_size
                for path in pathlib.Path(directory).rglob("*")
                if path.is_file()
            )

        coordinator_module.checkpoint_engine = write_counted

    async def heartbeat(self) -> None:
        """A 1 ms timer; its lateness is the loop's scheduling lag."""
        while True:
            started = now_ns()
            await asyncio.sleep(0.001)
            self.heartbeat_lags.append((started, now_ns() - started - 1_000_000))

    def snapshot(self) -> dict:
        from repro.streams.serving import DEFAULT_TENANT

        snap = super().snapshot()
        root, leaf = self.root, self.leaf
        server = root.query_server
        snap.update(
            uplink=asdict(leaf.uplink_stats()),
            serving=asdict(server.stats()[DEFAULT_TENANT]),
            drains=server.drains,
            batched_drains=server.batched_drains,
            plan_hits=server.plans.hits,
            plan_parses=server.plans.parses,
            checkpoints=leaf.checkpoints_written,
            checkpoint_bytes=self.checkpoint_bytes,
            collects=leaf.coordinator.sites_collected
            + root.coordinator.sites_collected,
        )
        engine = root.coordinator.fold_engine
        if engine is not None:
            snap["query_stats"] = asdict(engine.query_stats())
            snap["window_stats"] = asdict(engine.window_stats())
            leaf_engine = leaf.coordinator.fold_engine
            for key, value in asdict(leaf_engine.window_stats()).items():
                snap["window_stats"][key] += value
        return snap

    def report(self) -> dict:
        report = super().report()
        start, end = self.window
        lags = [lag for at, lag in self.heartbeat_lags if start <= at < end]
        report.update(
            uplink_log=self.uplink_log,
            root_log=self.root_log,
            heartbeat_lags_ns=lags,
        )
        return report


async def tree_main(config: dict, tracer: Tracer) -> None:
    from repro.streams.engine import StreamEngine
    from repro.streams.net.coordinator import CoordinatorServer

    workload = workload_for(config["workload"], config["smoke"])
    spec = make_spec()
    factory = None
    if workload.window_span:

        def factory(spec):
            return StreamEngine(
                spec,
                window_span=workload.window_span,
                bucket_width=workload.bucket_width,
            )

    control = Control()
    await control.open()
    install_layer_spans(tracer)
    root = CoordinatorServer(spec, query_port=0, engine_factory=factory)
    await root.start()
    leaf = CoordinatorServer(
        spec,
        engine_factory=factory,
        parent_port=root.port,
        uplink_id=UPLINK_ID,
        uplink_every=workload.uplink_every,
        checkpoint_dir=config.get("checkpoint_dir"),
        uplink_options={"rng": random.Random(config["seed"])},
    )
    await leaf.start()
    probe = TreeProbe(tracer, config, root, leaf)
    heartbeat = None
    control.send(
        {"event": "ready", "leaf_port": leaf.port, "query_port": root.query_port}
    )
    try:
        while (message := await control.recv()) is not None:
            command = message["cmd"]
            if command == "await_streams":
                await leaf.ship_upstream()
                known = set(root.coordinator.stream_names())
                control.send({"event": "streams", "ok": set(STREAMS) <= known})
            elif command == "start":
                probe.schedule(message)
                if tracer.enabled:
                    heartbeat = asyncio.create_task(probe.heartbeat())
                control.send({"event": "started"})
            elif command == "quiesce":
                if heartbeat is not None:
                    heartbeat.cancel()
                    await asyncio.gather(heartbeat, return_exceptions=True)
                    heartbeat = None
                await leaf.ship_upstream()
                control.send(
                    {
                        "event": "quiesced",
                        "hashes": family_hashes(root.coordinator.families()),
                    }
                )
            elif command == "report":
                control.send({"event": "report", **probe.report()})
    finally:
        if heartbeat is not None:
            heartbeat.cancel()
            await asyncio.gather(heartbeat, return_exceptions=True)
        await leaf.stop()
        await root.stop()


# -- site ---------------------------------------------------------------------


class SiteProbe(Probe):
    def __init__(self, tracer, config, client, engine) -> None:
        super().__init__(tracer, config)
        self.client, self.engine = client, engine
        # (sequence, t_ns) per export cut.
        self.export_log: list[tuple] = []
        # (sequence, due_ns, start_ns, updates, ship_start_ns, acked_ns)
        self.chunks: list[tuple] = []
        self.ship_failures = 0
        self.ships = 0
        site = client.site
        export = tracer.wrap(site.export, "streams.distributed.site_export")

        def export_logged(window_at=None):
            cut = export(window_at)
            self.export_log.append((cut.sequence, now_ns()))
            return cut

        site.export = export_logged
        if tracer.enabled:
            engine.process_many = tracer.wrap(
                engine.process_many, "streams.engine.buffer"
            )
            engine.flush = tracer.wrap(engine.flush, "streams.engine.buffer")

    async def ship(self, due: int, started: int, updates: int) -> None:
        self.ships += 1
        ship_start = now_ns()
        try:
            export = await self.client.ship()
        except SHIP_ERRORS as exc:
            print(f"site: ship failed: {exc!r}", file=sys.stderr)
            self.ship_failures += 1
            return
        self.tracer.interval("streams.net.site.ship", ship_start, export.sequence)
        self.chunks.append(
            (export.sequence, due, started, updates, ship_start, now_ns())
        )

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["transport"] = asdict(self.client.stats)
        snap["plan"] = self.engine.plan_stats().to_json_dict()
        snap["updates"] = self.engine.updates_processed
        if self.engine.is_windowed:
            snap["window_stats"] = asdict(self.engine.window_stats())
        return snap

    def report(self) -> dict:
        report = super().report()
        report.update(
            export_log=self.export_log,
            chunks=self.chunks,
            ships=self.ships,
            ship_failures=self.ship_failures,
        )
        return report


def _updates(inputs, start: int, stop: int) -> list:
    from repro.streams.updates import Update

    return [
        Update(STREAMS[stream], element, delta)
        for stream, element, delta in zip(
            inputs.streams[start:stop].tolist(),
            inputs.elements[start:stop].tolist(),
            inputs.deltas[start:stop].tolist(),
        )
    ]


async def site_main(config: dict, tracer: Tracer) -> None:
    from repro.streams.distributed import StreamSite
    from repro.streams.engine import StreamEngine
    from repro.streams.net.site import SiteClient

    workload = workload_for(config["workload"], config["smoke"])
    seed, seconds, smoke = config["seed"], config["seconds"], config["smoke"]
    fault = config.get("fault")
    spec = make_spec()
    if workload.window_span:
        engine = StreamEngine(
            spec,
            window_span=workload.window_span,
            bucket_width=workload.bucket_width,
        )
    else:
        engine = StreamEngine(spec)
    control = Control()
    await control.open()
    install_layer_spans(tracer)
    client = SiteClient(
        site=StreamSite(SITE_ID, spec, engine=engine),
        port=config["leaf_port"],
        rng=random.Random(seed),
    )
    probe = SiteProbe(tracer, config, client, engine)
    windowed = engine.is_windowed

    def observe(updates, at) -> None:
        if windowed:
            with tracer.span("streams.windows.observe"):
                for update in updates:
                    client.observe(update, at)
        else:
            client.observe_many(updates)

    head = generate_head(workload, seed)
    observe(_updates(head, 0, len(head)), 0.0)
    await client.ship()
    control.send({"event": "ready"})
    inputs = None
    consumed = len(head)
    try:
        while (message := await control.recv()) is not None:
            command = message["cmd"]
            if command == "prepare":
                with tracer.span("harness.generate"):
                    inputs = generate(workload, seed, seconds, smoke)
                control.send({"event": "prepared", "updates": len(inputs)})
            elif command == "start":
                probe.schedule(message)
                control.send({"event": "started"})
                t0, end = message["t0"], message["t_end"]
                await sleep_until(t0)
                if workload.closed_loop:
                    while now_ns() < end and consumed < len(inputs):
                        started = now_ns()
                        stop = min(consumed + workload.chunk, len(inputs))
                        with tracer.span("harness.make_updates"):
                            updates = _updates(inputs, consumed, stop)
                        observe(updates, None)
                        await probe.ship(started, started, stop - consumed)
                        consumed = stop
                else:
                    ticks = num_ticks(workload, seconds, smoke)
                    tick_ns = round(workload.tick_s * 1e9)
                    for tick in range(1, ticks + 1):
                        due = t0 + (tick - 1) * tick_ns
                        await sleep_until(due)
                        started = now_ns()
                        stop = consumed + workload.chunk
                        with tracer.span("harness.make_updates"):
                            updates = _updates(inputs, consumed, stop)
                        observe(updates, tick_time(workload, tick))
                        consumed = stop
                        if fault == "skip-export" and tick == ticks:
                            break  # observed, never shipped
                        await probe.ship(due, started, workload.chunk)
                control.send({"event": "ingest_done", "consumed": consumed})
            elif command == "quiesce":
                if fault != "skip-export":
                    await probe.ship(now_ns(), now_ns(), 0)
                control.send(
                    {
                        "event": "quiesced",
                        "hashes": family_hashes(engine.families()),
                        "answers": engine_answers(engine, workload),
                        "window_clock": engine.window_clock if windowed else None,
                    }
                )
            elif command == "report":
                control.send({"event": "report", **probe.report()})
    finally:
        await client.close()


def main() -> int:
    role, config = sys.argv[1], json.loads(sys.argv[2])
    pin(config["cpus"])
    tracer = Tracer(role, bool(config["trace"]))
    entry = {"tree": tree_main, "site": site_main}[role]
    try:
        run_loop(lambda: entry(config, tracer), tracer)
    except asyncio.CancelledError:
        print(f"{role}: orchestrator went away mid-command", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
