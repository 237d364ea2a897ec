"""Crash safety and bounded growth of leaf checkpoints.

A federation leaf's checkpoint holds three things that must agree: the
folded counters, the per-site applied-sequence map, and the uplink's
retained exports.  A generation is a dense base plus a log of uplink
cut files (:mod:`repro.streams.checkpoint`).  The crash test kills the
checkpoint writer after every single file operation of one leaf
checkpoint — for a flat and a windowed fold engine, at a log generation
next to an older unacked export, at a compaction that writes a new base
and drops the acknowledged log files, and at a compaction that must keep
a log file an unacked export still pins — then restores the leaf from
whatever is on disk, lets its children and its parent re-sync, and
requires the root to be bit-identical to one flat
:class:`~repro.streams.engine.StreamEngine` that saw every update once —
and so must the restored leaf.

The retention test keeps the parent down for 20 leaf checkpoints and
checks that its log generations write about as many bytes each: the
new retained export only, never the earlier ones again.  The
bytes test measures one log generation at the end-to-end benchmark's
spec against the dense base.  The property test runs random
fold/checkpoint/restore schedules, windowed ones on skewed site clocks
across bucket boundaries included, against a fold engine that was never
checkpointed.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.streams.checkpoint import restore_engine
from repro.streams.distributed import (
    Coordinator,
    DeltaExport,
    DeltaPayload,
    StreamSite,
)
from repro.streams.engine import StreamEngine
from repro.streams.net.coordinator import CoordinatorServer
from repro.streams.net.site import SiteClient
from repro.streams.updates import Update

SHAPE = SketchShape(domain_bits=14, num_second_level=8, independence=4)
SPEC = SketchSpec(num_sketches=16, shape=SHAPE, seed=61)
STREAMS = "ABC"
WINDOW = dict(window_span=8.0, bucket_width=2.0)
TIMEOUT = 60.0


class Crash(Exception):
    """Stands in for the process dying mid-checkpoint."""


class FileOpCounter:
    """Counts the file operations made while armed; with a ``budget``,
    the operation after the budget-th raises :class:`Crash` instead of
    running.  Fsyncs, renames and deletes count, and so do plain
    ``Path.write_*`` calls, so a writer that never fsyncs is swept too."""

    PRIMITIVES = (
        (os, "fsync"),
        (os, "replace"),
        (os, "unlink"),
        (pathlib.Path, "write_bytes"),
        (pathlib.Path, "write_text"),
    )

    def __init__(self, monkeypatch) -> None:
        self.ops = 0
        self.budget: int | None = None
        self.armed = False
        for owner, name in self.PRIMITIVES:
            monkeypatch.setattr(owner, name, self._counted(getattr(owner, name)))

    def _counted(self, original):
        def operation(*args, **kwargs):
            if self.armed:
                if self.budget is not None and self.ops >= self.budget:
                    raise Crash
                self.ops += 1
            return original(*args, **kwargs)

        return operation

    def run(self, action, budget: int | None = None):
        self.ops, self.budget, self.armed = 0, budget, True
        try:
            return action()
        finally:
            self.armed = False


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def fast_options(seed: int) -> dict:
    return dict(
        connect_timeout=1.0,
        io_timeout=0.5,
        max_retries=20,
        backoff_base=0.005,
        backoff_cap=0.02,
        rng=random.Random(seed),
    )


def windowed_factory(spec: SketchSpec) -> StreamEngine:
    return StreamEngine(spec, **WINDOW)


def assert_matches(node: CoordinatorServer, truth: StreamEngine) -> None:
    truth.flush()
    families = node.coordinator.families()
    assert sorted(families) == truth.stream_names()
    for name, family in truth.families().items():
        assert families[name].to_bytes() == family.to_bytes(), name


#: A lower bound on the cells-file bytes of one SPEC stream whose every
#: counter holds a random 63-bit value (about 10 bytes a cell).
NOISE_BYTES_PER_STREAM = 150_000


class Tree:
    """A root, one checkpointing leaf and two children — a site, and a
    coordinator-backed source of dense noise deltas — plus the flat
    truth."""

    def __init__(self, directory: pathlib.Path, windowed: bool) -> None:
        self.directory = directory
        self.windowed = windowed
        self.truth = StreamEngine(SPEC)
        self.rng = random.Random(97)
        self.noise_rng = np.random.default_rng(98)
        self.clock = 0.0

    def leaf_kwargs(self, seed: int) -> dict:
        return dict(
            port=0,
            parent_port=self.root.port,
            uplink_options=fast_options(seed),
        )

    async def start(self) -> None:
        self.root = CoordinatorServer(SPEC, port=0)
        await self.root.start()
        self.leaf = CoordinatorServer(
            SPEC,
            checkpoint_dir=self.directory,
            engine_factory=windowed_factory if self.windowed else None,
            uplink_id="leaf",
            **self.leaf_kwargs(1),
        )
        await self.leaf.start()
        engine = StreamEngine(SPEC, **WINDOW) if self.windowed else None
        self.client = SiteClient(
            StreamSite("site", SPEC, engine=engine),
            port=self.leaf.port,
            **fast_options(2),
        )
        engine = StreamEngine(SPEC, **WINDOW) if self.windowed else None
        self.noise_source = Coordinator(SPEC, engine=engine)
        self.noise = SiteClient(
            StreamSite("noise", SPEC, engine=self.noise_source),
            port=self.leaf.port,
            **fast_options(5),
        )

    async def ship_round(self, size: int = 30) -> None:
        self.clock += 1.5  # crosses bucket boundaries on the windowed tree
        batch = [
            Update(
                self.rng.choice(STREAMS),
                self.rng.randrange(1, 4000),
                self.rng.choice([1, 1, 1, -1]),
            )
            for _ in range(size)
        ]
        for update in batch:
            self.client.observe(update, self.clock if self.windowed else None)
        self.truth.process_many(batch)
        await self.client.ship()

    async def noise_round(self) -> None:
        """Ship random values on every counter of enough streams that the
        next uplink cut's cells file outweighs the room left under the
        base: the generation that logs it must compact instead."""
        manifest = json.loads((self.directory / "manifest.json").read_text())
        room = manifest["base_bytes"] - sum(
            entry["bytes"] for entry in manifest["log"]
        )
        count = room // NOISE_BYTES_PER_STREAM + 1
        names = (list(STREAMS) + [f"N{i}" for i in range(count)])[:count]
        cells = SPEC.counter_cells
        payloads = {}
        for name in names:
            indices = np.arange(cells, dtype=np.int64)
            values = self.noise_rng.integers(-(2**62), 2**62, size=cells)
            payloads[name] = DeltaPayload.from_cells(indices, values, cells)
            self.truth.merge_cells(name, indices, values)
        sequence = self.noise_source.applied_sequence("source") + 1
        self.noise_source.collect(
            DeltaExport(
                "source",
                sequence,
                payloads,
                window_at=self.clock if self.windowed else None,
            )
        )
        await self.noise.ship()

    async def restore_leaf(self) -> None:
        """Replace the leaf by one restored from its checkpoint directory,
        on the same port, and let the children re-sync into it."""
        port = self.leaf.port
        await self.leaf.stop()
        self.leaf = CoordinatorServer.restore(
            self.directory, **dict(self.leaf_kwargs(3), port=port)
        )
        await self.leaf.start()
        await self.client.connect()
        await self.noise.connect()

    async def stop(self) -> None:
        await self.client.close()
        await self.noise.close()
        await self.leaf.stop()
        await self.root.stop()


async def crash_scenario(
    directory, counter: FileOpCounter, *, windowed: bool, phase: str,
    budget: int | None,
) -> int:
    """Drive a tree to the crashing checkpoint, crash it after ``budget``
    file operations (never, for ``None``), restore, re-sync, and check
    the root and the leaf.  Returns the operations the checkpoint made."""
    tree = Tree(directory, windowed)
    await tree.start()
    await tree.ship_round()
    tree.leaf.checkpoint()  # the first base; cuts uplink export 1, unshipped
    await tree.ship_round()
    await tree.leaf.ship_upstream()  # cuts 2; the root acks 1 and 2
    await tree.ship_round()
    if phase in ("retain", "pinned"):
        tree.leaf.checkpoint()  # logs 3, unacked
        await tree.ship_round()
    if phase in ("prune", "pinned"):
        await tree.noise_round()
    # The crashing checkpoint.  "retain" logs export 4 next to the
    # unacked 3.  "prune" compacts: it writes export 3 and a new base,
    # then deletes the acknowledged log files of 1 and 2.  "pinned"
    # compacts too, and must keep the file of the unacked 3.
    assert tree.leaf.uplink.site.retained_exports == (phase != "prune")
    before = file_states(directory)
    if budget is None:
        counter.run(tree.leaf.checkpoint)
        after = file_states(directory)
        wrote_base = any(
            path.parent.name == "streams" and before.get(path) != state
            for path, state in after.items()
        )
        assert wrote_base == (phase != "retain"), phase
        uplink = {path.name for path in (directory / "uplink").iterdir()}
        site = tree.leaf.uplink.site
        retained = {
            f"{site.incarnation}-{export.sequence}.cells"
            for export in site.exports_after(0)
        }
        assert retained <= uplink
        assert (uplink == retained) == wrote_base
    else:
        with pytest.raises(Crash):
            counter.run(tree.leaf.checkpoint, budget)
    ops = counter.ops
    await tree.restore_leaf()
    await tree.leaf.ship_upstream()
    assert_matches(tree.root, tree.truth)
    # The leaf's own synopses too: uplink exports are diffs against the
    # restored families, so a torn restore could corrupt the leaf while
    # the root stays right.
    assert_matches(tree.leaf, tree.truth)
    await tree.stop()
    return ops


@pytest.mark.parametrize("windowed", [False, True], ids=["flat", "windowed"])
@pytest.mark.parametrize("phase", ["prune", "retain", "pinned"])
def test_leaf_checkpoint_survives_a_crash_at_every_step(
    tmp_path, monkeypatch, windowed, phase
):
    counter = FileOpCounter(monkeypatch)
    total = run(
        crash_scenario(
            tmp_path / "whole", counter, windowed=windowed, phase=phase,
            budget=None,
        )
    )
    assert total > 1, "the checkpoint's file operations were not counted"
    for budget in range(total):
        run(
            crash_scenario(
                tmp_path / f"crash-{budget}", counter, windowed=windowed,
                phase=phase, budget=budget,
            )
        )


def file_states(directory: pathlib.Path) -> dict:
    return {
        path: (stat.st_ino, stat.st_mtime_ns, stat.st_size)
        for path in directory.rglob("*")
        if path.is_file()
        for stat in [path.stat()]
    }


def held_bytes(data) -> int:
    """Bytes kept alive by an array or blob, counting the buffer a view
    points into."""
    if data is None:
        return 0
    while isinstance(data, np.ndarray) and data.base is not None:
        data = data.base
    if isinstance(data, memoryview):
        data = data.obj
    return data.nbytes if isinstance(data, np.ndarray) else len(data)


def assert_retained_exports_hold_no_slab(leaf: CoordinatorServer) -> None:
    """Every retained uplink export holds at most 16 B per non-zero cell
    plus its blob — never a dense counter slab per stream."""
    slab = SPEC.counter_payload_bytes
    for export in leaf.uplink.site.exports_after(0):
        assert export.payloads
        for payload in export.payloads.values():
            indices, values = payload.cells(SPEC.counter_cells)
            held = held_bytes(indices) + held_bytes(values)
            assert held <= 16 * indices.size
            assert held < slab and held_bytes(payload.blob) < slab


def test_parent_down_checkpoints_write_only_new_exports(tmp_path):
    async def scenario():
        tree = Tree(tmp_path / "leaf", windowed=False)
        await tree.start()
        parent_port = tree.root.port
        await tree.root.stop()  # the parent stays down for 20 checkpoints
        uplink_dir = tree.directory / "uplink"

        streams_dir = tree.directory / "streams"
        logged = []
        for _ in range(20):
            await tree.ship_round()
            before = file_states(tree.directory)
            tree.leaf.checkpoint()
            after = file_states(tree.directory)
            changed = {
                path: state
                for path, state in after.items()
                if before.get(path) != state
            }
            # One new retained-export file; the earlier ones untouched.
            new_uplink = [p for p in changed if p.parent == uplink_dir]
            assert len(new_uplink) == 1
            assert all(p not in before for p in new_uplink)
            if not any(p.parent == streams_dir for p in changed):
                # A log generation: its cut's cells file and the manifest.
                assert set(changed) == {
                    *new_uplink, tree.directory / "manifest.json"
                }
                logged.append(changed[new_uplink[0]][2])
        assert tree.leaf.uplink.site.retained_exports == 20
        assert len(list(uplink_dir.iterdir())) == 20
        # Only the first generation writes a base; the log generations
        # stay flat: the 20th writes about the cells the second did (a
        # full rewrite of every retained export would grow ~20x).
        assert len(logged) == 19
        assert max(logged) <= 1.3 * min(logged), logged
        assert_retained_exports_hold_no_slab(tree.leaf)
        assert tree.leaf.coordinator.take_pending() == {}  # cut at checkpoint

        originals = tree.leaf.uplink.site.exports_after(0)
        await tree.client.close()
        leaf_port = tree.leaf.port
        await tree.leaf.stop()

        tree.root = CoordinatorServer(SPEC, port=parent_port)
        await tree.root.start()
        tree.leaf = CoordinatorServer.restore(
            tree.directory, **dict(tree.leaf_kwargs(4), port=leaf_port)
        )
        replayed = tree.leaf.uplink.site.exports_after(0)
        assert [e.sequence for e in replayed] == [e.sequence for e in originals]
        for again, original in zip(replayed, originals):
            assert again.incarnation == original.incarnation
            assert again.window_at == original.window_at
            assert sorted(again.payloads) == sorted(original.payloads)
            for name, payload in again.payloads.items():
                indices, values = payload.cells(SPEC.counter_cells)
                expected = original.payloads[name].cells(SPEC.counter_cells)
                assert indices.tobytes() == expected[0].tobytes()
                assert values.tobytes() == expected[1].tobytes()
        assert_retained_exports_hold_no_slab(tree.leaf)
        await tree.leaf.start()
        await tree.leaf.uplink.flush_retained()
        assert_matches(tree.root, tree.truth)
        assert tree.leaf.uplink.site.retained_exports == 0
        # The root folded 20 exports and keeps none of them.
        assert tree.root.coordinator.sites_collected >= 20
        assert tree.root.coordinator.take_pending() == {}

        # Acked files live on only as log entries: the generations after
        # the acks keep them, and the next compaction drops every one of
        # them, leaving just the files of exports still unacked.
        tree.leaf.checkpoint()
        manifest = json.loads((tree.directory / "manifest.json").read_text())
        logged_files = {entry["file"] for entry in manifest["log"]}
        assert len(logged_files) == 20  # the acked 2..20 and the new cut
        assert {f"uplink/{p.name}" for p in uplink_dir.iterdir()} == logged_files
        await tree.noise_round()
        tree.leaf.checkpoint()
        site = tree.leaf.uplink.site
        assert {p.name for p in uplink_dir.iterdir()} == {
            f"{site.incarnation}-{export.sequence}.cells"
            for export in site.exports_after(0)
        }
        assert_matches(tree.leaf, tree.truth)
        restored = restore_engine(tree.directory)
        for name, family in tree.truth.families().items():
            assert restored.family(name).to_bytes() == family.to_bytes(), name
        await tree.noise.close()
        await tree.leaf.stop()
        await tree.root.stop()

    run(scenario())


def test_log_generation_writes_a_tenth_of_the_base_at_the_e2e_spec(tmp_path):
    """At the end-to-end benchmark's spec and ``durable`` shape (3
    streams, 5 exports of 200 uniform updates per uplink cut) a log
    generation writes its cut's cells file and the manifest — no
    ``streams/*.sketch`` file — and at most a tenth of the dense base's
    bytes."""
    shape = SketchShape(domain_bits=20, num_second_level=8, independence=6)
    spec = SketchSpec(num_sketches=128, shape=shape, seed=5)
    leaf = CoordinatorServer(
        spec, checkpoint_dir=tmp_path, parent_port=65_000, uplink_id="leaf"
    )
    site = StreamSite("site", spec)
    rng = np.random.default_rng(7)
    written = []
    for _ in range(4):
        for _ in range(5):
            streams = rng.integers(0, len(STREAMS), size=200)
            elements = rng.integers(0, 2**20, size=200)
            site.observe_many(
                Update(STREAMS[stream], int(element), 1)
                for stream, element in zip(streams, elements)
            )
            leaf.coordinator.collect(site.export())
        before = file_states(tmp_path)
        leaf.checkpoint()
        after = file_states(tmp_path)
        changed = {p: s for p, s in after.items() if before.get(p) != s}
        written.append((set(changed), sum(s[2] for s in changed.values())))
    base = sum(
        size for path, (_, _, size) in after.items() if path.parent.name == "streams"
    )
    assert base == 3 * spec.counter_payload_bytes
    assert any(path.parent.name == "streams" for path in written[0][0])
    for files, size in written[1:]:
        assert {path.parent.name for path in files} == {"uplink", tmp_path.name}
        assert len(files) == 2  # the cut's cells file and manifest.json
        assert size <= base / 10, (size, base)


async def schedule_scenario(directory, windowed: bool, schedule, seed: int) -> None:
    """Run one fold/checkpoint/restore schedule through a checkpointing
    leaf, then check its live and restored fold engines against a
    coordinator that folded the same exports and never checkpointed."""

    def engine():
        return StreamEngine(SPEC, **WINDOW) if windowed else None

    leaf_kwargs = dict(
        parent_port=65_000,  # never dialled: nothing ships upstream
        uplink_options=dict(max_retries=0),
    )
    leaf = CoordinatorServer(
        SPEC, port=0, checkpoint_dir=directory, uplink_id="leaf",
        engine_factory=windowed_factory if windowed else None, **leaf_kwargs,
    )
    await leaf.start()
    reference = Coordinator(SPEC, engine=engine())
    rng = random.Random(seed)
    noise_rng = np.random.default_rng(seed)
    clocks = [0.0, 1.3]  # two sites on skewed clocks
    clients = [
        SiteClient(
            StreamSite(f"site{i}", SPEC, engine=engine()),
            port=leaf.port,
            **fast_options(seed + i),
        )
        for i in range(2)
    ]
    noise_source = Coordinator(SPEC, engine=engine())
    clients.append(
        SiteClient(
            StreamSite("noise", SPEC, engine=noise_source),
            port=leaf.port,
            **fast_options(seed + 2),
        )
    )
    # An unwindowed site: its exports carry no stamp, so a windowed leaf
    # folds them into the all-time synopses only.
    clients.append(
        SiteClient(StreamSite("plain", SPEC), port=leaf.port, **fast_options(seed + 3))
    )

    async def deliver(client: SiteClient) -> None:
        site = client.site
        site.export()
        applied = reference.applied_sequence(site.site_id, site.incarnation)
        for export in site.exports_after(applied):
            reference.collect(export)
        await client.flush_retained()

    for operation, *args in schedule:
        if operation == "fold":
            index, step, size = args
            clocks[index] += step
            for _ in range(size):
                update = Update(
                    rng.choice(STREAMS), rng.randrange(1, 4000), rng.choice([1, 1, -1])
                )
                clients[index].observe(update, clocks[index] if windowed else None)
            await deliver(clients[index])
        elif operation == "churn":
            # An insert and its delete: an empty export whose stamp moves
            # past the leaf's clock without folding anything.
            index, step = args
            clocks[index] += step
            element = rng.randrange(1, 4000)
            for delta in (1, -1):
                clients[index].observe(
                    Update("A", element, delta), clocks[index] if windowed else None
                )
            await deliver(clients[index])
        elif operation == "plain":
            for _ in range(args[0]):
                clients[3].observe(Update(rng.choice(STREAMS), rng.randrange(1, 4000), 1))
            await deliver(clients[3])
        elif operation == "noise":
            # Random values on every counter of one stream: a cells file
            # of ~40% of the flat base, so a few of them compact.
            cells = SPEC.counter_cells
            indices = np.arange(cells, dtype=np.int64)
            values = noise_rng.integers(-(2**62), 2**62, size=cells)
            noise_source.collect(
                DeltaExport(
                    "source",
                    noise_source.applied_sequence("source") + 1,
                    {rng.choice(STREAMS): DeltaPayload.from_cells(indices, values, cells)},
                    window_at=clocks[0] if windowed else None,
                )
            )
            await deliver(clients[2])
        elif operation == "checkpoint":
            leaf.checkpoint()
        elif (directory / "manifest.json").is_file():  # restore
            port = leaf.port
            await leaf.stop()
            leaf = CoordinatorServer.restore(directory, port=port, **leaf_kwargs)
            await leaf.start()
            for client in clients:
                await client.connect()
    leaf.checkpoint()
    restored = restore_engine(directory)
    live = leaf.coordinator.fold_engine
    for client in clients:
        await client.close()
    await leaf.stop()
    truth = reference.fold_engine
    for candidate in (live, restored):
        assert candidate.stream_names() == truth.stream_names()
        for name, family in truth.families().items():
            assert candidate.family(name).to_bytes() == family.to_bytes(), name
        if windowed:
            assert candidate.window_clock == truth.window_clock
            if truth.window_clock == float("-inf"):
                continue
            candidate.advance_to(truth.window_clock)
            truth.advance_to(truth.window_clock)
            for name in truth.stream_names():
                for window in (2.0, 4.0, 8.0):
                    assert np.array_equal(
                        candidate.window_family(name, window).counters,
                        truth.window_family(name, window).counters,
                    ), (name, window)


SCHEDULES = st.lists(
    st.one_of(
        st.tuples(
            st.just("fold"),
            st.integers(0, 1),
            st.sampled_from([0.0, 0.4, 1.1, 2.3]),  # bucket width is 2
            st.integers(1, 30),
        ),
        st.tuples(st.just("churn"), st.integers(0, 1), st.sampled_from([0.4, 2.3])),
        st.tuples(st.just("plain"), st.integers(1, 10)),
        st.tuples(st.just("noise")),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("restore")),
    ),
    min_size=1,
    max_size=14,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(windowed=st.booleans(), schedule=SCHEDULES, seed=st.integers(0, 2**16))
@example(  # a stamped empty delta before any stamped cells folded
    windowed=True,
    schedule=[("plain", 5), ("checkpoint",), ("churn", 0, 0.4), ("checkpoint",)],
    seed=1,
)
def test_random_schedules_restore_the_never_checkpointed_state(
    tmp_path_factory, windowed, schedule, seed
):
    directory = tmp_path_factory.mktemp("schedule")
    run(schedule_scenario(directory, windowed, schedule, seed))


def collected_leaf(directory, **kwargs) -> tuple[CoordinatorServer, StreamEngine]:
    """A leaf that folded one site export, and the flat truth."""
    leaf = CoordinatorServer(SPEC, checkpoint_dir=directory, **kwargs)
    truth = StreamEngine(SPEC)
    fold_round(leaf, truth, StreamSite("s1", SPEC), 0)
    return leaf, truth


def fold_round(leaf, truth, site: StreamSite, seed: int) -> None:
    rng = random.Random(seed)
    batch = [Update(rng.choice(STREAMS), rng.randrange(1, 4000), 1) for _ in range(50)]
    site.observe_many(batch)
    truth.process_many(batch)
    leaf.coordinator.collect(site.export())


def assert_restores_to(directory, truth: StreamEngine) -> None:
    restored = restore_engine(directory)
    truth.flush()
    assert restored.stream_names() == truth.stream_names()
    for name, family in truth.families().items():
        assert restored.family(name).to_bytes() == family.to_bytes(), name


def test_a_failed_checkpoint_is_followed_by_a_base(tmp_path, monkeypatch):
    """A checkpoint that fails after its uplink cut (a full disk, say)
    loses that cut from the log; the same leaf's next generation must
    then write a base, not log the next cut on top of the old one."""
    counter = FileOpCounter(monkeypatch)
    leaf, truth = collected_leaf(tmp_path, parent_port=65_000, uplink_id="leaf")
    site = StreamSite("s2", SPEC)
    leaf.checkpoint()
    fold_round(leaf, truth, site, 1)
    with pytest.raises(Crash):
        counter.run(leaf.checkpoint, 0)
    fold_round(leaf, truth, site, 2)
    leaf.checkpoint()
    assert_restores_to(tmp_path, truth)


def test_a_leaf_restored_without_uplink_state_writes_a_base_first(tmp_path):
    """A checkpoint written without an uplink, restored as a leaf, starts
    a fresh uplink whose first cut ships the whole restored state; that
    cut is no log entry on top of the checkpoint it was restored from."""
    root, truth = collected_leaf(tmp_path)
    root.checkpoint()
    leaf = CoordinatorServer.restore(tmp_path, parent_port=65_000)
    fold_round(leaf, truth, StreamSite("s2", SPEC), 1)
    leaf.checkpoint()
    assert_restores_to(tmp_path, truth)
    fold_round(leaf, truth, StreamSite("s3", SPEC), 2)
    leaf.checkpoint()  # a log generation on the leaf's own base
    assert json.loads((tmp_path / "manifest.json").read_text())["log"]
    assert_restores_to(tmp_path, truth)
