"""Checkpoint spec reads, extra-metadata round-trips and leaf uplink state.

The ``extra`` mapping (per-site sequence map, uplink state) must ride
unchanged through the checkpoint writer and through an engine-backed
leaf of a federation tree; uplink state in the retired format-2 layout,
and a retained export whose file is corrupt or missing, are refused.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.streams.checkpoint import (
    CheckpointError,
    checkpoint_engine,
    read_checkpoint_extra,
    read_checkpoint_spec,
    restore_engine,
)
from repro.streams.distributed import StreamSite
from repro.streams.engine import StreamEngine
from repro.streams.net.coordinator import CoordinatorServer
from repro.streams.updates import Update, insertions

SHAPE = SketchShape(domain_bits=16, num_second_level=8, independence=4)
SPEC = SketchSpec(num_sketches=32, shape=SHAPE, seed=9)


def loaded_engine() -> StreamEngine:
    engine = StreamEngine(SPEC)
    rng = np.random.default_rng(123)
    for stream in ("A", "B"):
        for element in rng.integers(0, 2**16, size=300):
            engine.process(Update(stream, int(element), 1))
    engine.flush()
    return engine


def assert_same_cells(payloads, expected) -> None:
    """Two exports' payloads decode to the same cells, stream by stream."""
    assert sorted(payloads) == sorted(expected)
    for name, payload in payloads.items():
        indices, values = payload.cells(SPEC.counter_cells)
        want_indices, want_values = expected[name].cells(SPEC.counter_cells)
        assert indices.tobytes() == want_indices.tobytes(), name
        assert values.tobytes() == want_values.tobytes(), name


class TestReadCheckpointSpec:
    def test_reads_spec_without_restoring(self, tmp_path):
        engine = StreamEngine(SPEC)
        engine.process_many(insertions("S", range(50)))
        checkpoint_engine(engine, tmp_path)
        assert read_checkpoint_spec(tmp_path) == SPEC

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint_spec(tmp_path / "nope")

    def test_unusable_spec_raises(self, tmp_path):
        checkpoint_engine(loaded_engine(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["spec"] = {"not": "a spec"}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            read_checkpoint_spec(tmp_path)


class TestExtraThroughLeaf:
    def test_extra_round_trips(self, tmp_path):
        """The extra mapping (a leaf's sequence map and uplink state)
        rides a checkpoint verbatim and the counters still restore."""
        extra = {
            "site_sequences": {"s1": {"inc-a": 3, "inc-b": 1}},
            "uplink": {"site_id": "leaf", "sequence": 2},
        }
        engine = StreamEngine(SPEC)
        engine.process_many(insertions("A", range(200)))
        engine.process_many(insertions("B", range(100, 260)))
        checkpoint_engine(engine, tmp_path, extra=extra)
        assert read_checkpoint_extra(tmp_path) == extra
        restored = restore_engine(tmp_path)
        for name, family in engine.families().items():
            assert restored.family(name) == family

    def test_leaf_restores_uplink_state(self, tmp_path):
        """Full loop through an engine-backed leaf CoordinatorServer:
        checkpoint persists site sequences + uplink state in extra, and
        restore rebuilds both over a fresh engine fold."""

        async def scenario():
            leaf = CoordinatorServer(
                SPEC,
                port=0,
                checkpoint_dir=tmp_path,
                engine_factory=lambda spec: StreamEngine(spec),
                parent_port=65_000,  # never dialled in this test
                uplink_id="leaf",
            )
            site = StreamSite("s1", SPEC)
            site.observe_many(insertions("A", range(150)))
            leaf.coordinator.collect(site.export())
            leaf.checkpoint()

            extra = read_checkpoint_extra(tmp_path)
            assert extra["site_sequences"] == {
                "s1": {site.incarnation: 1}
            }
            assert extra["uplink"]["site_id"] == "leaf"
            assert extra["uplink"]["sequence"] == 1  # cut by checkpoint()
            assert extra["uplink"]["retained"], "export retained until ack"
            # Each retained export sits in its own sparse file under
            # uplink/, and the manifest carries no counters for it.
            assert "baselines" not in extra["uplink"]
            assert all("payloads" not in e for e in extra["uplink"]["retained"])
            incarnation = extra["uplink"]["incarnation"]
            assert sorted(p.name for p in (tmp_path / "uplink").iterdir()) == [
                f"{incarnation}-{entry['sequence']}.cells"
                for entry in extra["uplink"]["retained"]
            ]

            restored = CoordinatorServer.restore(
                tmp_path,
                engine_factory=lambda spec: StreamEngine(spec),
                parent_port=65_000,
                uplink_options=dict(max_retries=0),
            )
            assert isinstance(restored.coordinator.fold_engine, StreamEngine)
            assert (
                restored.uplink.site.incarnation
                == leaf.uplink.site.incarnation
            )
            assert restored.uplink.site.sequence == 1
            assert restored.uplink.site.retained_exports == 1
            # The retained export is bit-identical to the pre-crash cut.
            original = leaf.uplink.site.exports_after(0)[0]
            replayed = restored.uplink.site.exports_after(0)[0]
            assert_same_cells(replayed.payloads, original.payloads)
            assert (
                restored.coordinator.applied_sequence(
                    "s1", site.incarnation
                )
                == 1
            )

        asyncio.run(asyncio.wait_for(scenario(), 30))


class TestFormat3:
    def test_v2_uplink_state_is_refused(self, tmp_path):
        """Format-2 leaf checkpoints kept base64 baselines and retained
        slabs in the manifest; restoring one as a leaf raises instead of
        keeping a second reader."""
        checkpoint_engine(loaded_engine(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["extra"] = {
            "uplink": {
                "site_id": "leaf",
                "incarnation": "abc",
                "sequence": 1,
                "baselines": {"A": "AAAA"},
                "retained": [{"sequence": 1, "payloads": {"A": "AAAA"}}],
            }
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format-2"):
            CoordinatorServer.restore(tmp_path, parent_port=65_000)

    def leaf_with_retained_export(self, tmp_path) -> CoordinatorServer:
        leaf = CoordinatorServer(
            SPEC,
            checkpoint_dir=tmp_path,
            parent_port=65_000,  # never dialled in this test
            uplink_id="leaf",
        )
        site = StreamSite("s1", SPEC)
        site.observe_many(insertions("A", range(150)))
        leaf.coordinator.collect(site.export())
        leaf.checkpoint()
        return leaf

    def test_corrupt_retained_export_file_is_refused(self, tmp_path):
        self.leaf_with_retained_export(tmp_path)
        [path] = (tmp_path / "uplink").iterdir()
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CheckpointError, match="corrupt"):
            CoordinatorServer.restore(tmp_path, parent_port=65_000)

    def test_missing_retained_export_file_is_refused(self, tmp_path):
        self.leaf_with_retained_export(tmp_path)
        [path] = (tmp_path / "uplink").iterdir()
        path.unlink()
        with pytest.raises(CheckpointError, match="missing"):
            CoordinatorServer.restore(tmp_path, parent_port=65_000)

    def test_restore_rebuilds_baselines_from_the_families(self, tmp_path):
        """With no baselines stored, the restored uplink's next export
        is exactly what the original leaf would have cut: the delta
        folded since the checkpoint, nothing from before it."""
        leaf = self.leaf_with_retained_export(tmp_path)
        restored = CoordinatorServer.restore(tmp_path, parent_port=65_000)
        more = StreamSite("s2", SPEC)
        more.observe_many(insertions("B", range(40)))
        export = more.export()
        for server in (leaf, restored):
            server.coordinator.collect(export)
        cut = restored.uplink.site.export().payloads
        assert_same_cells(cut, leaf.uplink.site.export().payloads)
        assert_same_cells(cut, export.payloads)
