"""Crash safety and bounded growth of leaf checkpoints.

A federation leaf's checkpoint holds three things that must agree: the
folded counters, the per-site applied-sequence map, and the uplink's
retained exports.  The crash test kills the checkpoint writer after
every single file operation of one leaf checkpoint — for a flat and a
windowed fold engine, at a checkpoint that writes a new retained export
and prunes acknowledged ones, and at one that keeps an older unacked
export — then restores the leaf from whatever is on disk, lets its site
and its parent re-sync, and requires the root to be bit-identical to one
flat :class:`~repro.streams.engine.StreamEngine` that saw every update
once — and so must the restored leaf.

The retention test keeps the parent down for 20 leaf checkpoints and
checks that each one writes about as many bytes as the first: the new
retained export only, never the earlier ones again.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import random

import numpy as np
import pytest

from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.streams.distributed import StreamSite
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


class Tree:
    """A root, one checkpointing leaf and one site, plus the flat truth."""

    def __init__(self, directory: pathlib.Path, windowed: bool) -> None:
        self.directory = directory
        self.windowed = windowed
        self.truth = StreamEngine(SPEC)
        self.rng = random.Random(97)
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

    async def restore_leaf(self) -> None:
        """Replace the leaf by one restored from its checkpoint directory,
        on the same port, and let the site re-sync into it."""
        port = self.leaf.port
        await self.leaf.stop()
        self.leaf = CoordinatorServer.restore(
            self.directory, **dict(self.leaf_kwargs(3), port=port)
        )
        await self.leaf.start()
        await self.client.connect()

    async def stop(self) -> None:
        await self.client.close()
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
    tree.leaf.checkpoint()  # cuts uplink export 1, unshipped
    await tree.ship_round()
    await tree.leaf.ship_upstream()  # cuts 2; the root acks 1 and 2
    await tree.ship_round()
    if phase == "retain":
        tree.leaf.checkpoint()  # cuts 3, prunes the acked 1 and 2
        await tree.ship_round()
    # The crashing checkpoint: "prune" writes export 3 and deletes the
    # acknowledged files of 1 and 2; "retain" writes export 4 next to
    # the still-unacked 3.
    assert tree.leaf.uplink.site.retained_exports == (phase == "retain")
    if budget is None:
        counter.run(tree.leaf.checkpoint)
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
@pytest.mark.parametrize("phase", ["prune", "retain"])
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

        written = []
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
            written.append(sum(size for _, _, size in changed.values()))
            # One new retained-export file; the earlier ones untouched.
            new_uplink = [p for p in changed if p.parent == uplink_dir]
            assert len(new_uplink) == 1
            assert all(p not in before for p in new_uplink)
        assert tree.leaf.uplink.site.retained_exports == 20
        assert len(list(uplink_dir.iterdir())) == 20
        # Flat: the 20th checkpoint writes about what the first did
        # (a full rewrite of every retained export would grow ~20x).
        assert max(written) <= 1.3 * min(written), written
        assert_retained_exports_hold_no_slab(tree.leaf)
        assert tree.leaf.coordinator.take_pending() == {}  # cut at checkpoint

        originals = tree.leaf.uplink.site.exports_after(0)
        await tree.client.close()
        await tree.leaf.stop()

        tree.root = CoordinatorServer(SPEC, port=parent_port)
        await tree.root.start()
        tree.leaf = CoordinatorServer.restore(
            tree.directory, **tree.leaf_kwargs(4)
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

        # The first checkpoint after the acks drops every acked file:
        # only the export it cuts itself is left.
        tree.leaf.checkpoint()
        [cut] = tree.leaf.uplink.site.exports_after(0)
        assert [p.name for p in uplink_dir.iterdir()] == [
            f"{cut.incarnation}-{cut.sequence}.cells"
        ]
        await tree.leaf.stop()
        await tree.root.stop()

    run(scenario())
