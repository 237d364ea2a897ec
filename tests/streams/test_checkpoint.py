"""Unit tests for engine checkpointing."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.errors import IncompatibleSketchesError
from repro.streams.checkpoint import (
    CheckpointError,
    append_checkpoint_log,
    checkpoint_engine,
    prune_checkpoint_files,
    read_checkpoint_extra,
    restore_engine,
    write_checkpoint_files,
)
from repro.streams.engine import StreamEngine
from repro.streams.net import codec
from repro.streams.updates import Update, insertions

SHAPE = SketchShape(domain_bits=20, num_second_level=8, independence=6)
SPEC = SketchSpec(num_sketches=64, shape=SHAPE, seed=5)


def loaded_engine() -> StreamEngine:
    engine = StreamEngine(SPEC)
    rng = np.random.default_rng(500)
    for stream in ("A", "B"):
        for element in rng.integers(0, 2**20, size=500):
            engine.process(Update(stream, int(element), 1))
    return engine


class TestRoundTrip:
    def test_restored_state_identical(self, tmp_path):
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path / "ckpt")
        restored = restore_engine(tmp_path / "ckpt")
        assert restored.spec == engine.spec
        assert restored.stream_names() == engine.stream_names()
        for name in engine.stream_names():
            assert restored.family(name) == engine.family(name)
        assert restored.updates_processed == engine.updates_processed

    def test_restored_engine_answers_identically(self, tmp_path):
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path / "ckpt")
        restored = restore_engine(tmp_path / "ckpt")
        original = engine.query("A & B", 0.2)
        after = restored.query("A & B", 0.2)
        assert after.value == pytest.approx(original.value)

    def test_restored_engine_accepts_new_updates(self, tmp_path):
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path / "ckpt")
        restored = restore_engine(tmp_path / "ckpt")
        restored.process(Update("A", 7, 1))
        restored.flush()

        engine.process(Update("A", 7, 1))
        engine.flush()
        assert restored.family("A") == engine.family("A")

    def test_unflushed_buffers_are_included(self, tmp_path):
        engine = StreamEngine(SPEC, batch_size=10_000)
        engine.process_many(insertions("A", range(100)))
        checkpoint_engine(engine, tmp_path / "ckpt")  # flushes internally
        restored = restore_engine(tmp_path / "ckpt")
        assert not restored.family("A").is_empty()

    def test_overwrite_existing_checkpoint(self, tmp_path):
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path / "ckpt")
        engine.process(Update("A", 3, 1))
        checkpoint_engine(engine, tmp_path / "ckpt")
        restored = restore_engine(tmp_path / "ckpt")
        assert restored.family("A") == engine.family("A")


class TestExtraMetadata:
    def test_extra_round_trips(self, tmp_path):
        engine = loaded_engine()
        extra = {"site_sequences": {"edge-1": 4, "edge-2": 7}}
        checkpoint_engine(engine, tmp_path, extra=extra)
        assert read_checkpoint_extra(tmp_path) == extra
        # The checkpoint stays restorable by consumers that ignore extra.
        restored = restore_engine(tmp_path)
        assert restored.stream_names() == engine.stream_names()

    def test_no_extra_reads_empty(self, tmp_path):
        checkpoint_engine(loaded_engine(), tmp_path)
        assert read_checkpoint_extra(tmp_path) == {}

    def test_malformed_extra_rejected(self, tmp_path):
        checkpoint_engine(loaded_engine(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["extra"] = ["not", "a", "mapping"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            read_checkpoint_extra(tmp_path)


class TestFailureModes:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointError):
            restore_engine(tmp_path / "nope")

    def test_corrupt_manifest(self, tmp_path):
        directory = tmp_path / "ckpt"
        directory.mkdir()
        (directory / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError):
            restore_engine(directory)

    def test_wrong_format_version(self, tmp_path):
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="99"):
            restore_engine(tmp_path / "ckpt")

    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_formats_are_refused(self, tmp_path, version):
        """Formats 1 (raw stream names on disk) and 2 (payloads rewritten
        in place) have no reader: a manifest of either is refused with
        an error naming its version, not misread."""
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = version
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=f"format {version} not"):
            restore_engine(tmp_path)
        with pytest.raises(CheckpointError, match=f"format {version} not"):
            read_checkpoint_extra(tmp_path)

    def test_missing_sketch_payload(self, tmp_path):
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        (tmp_path / "ckpt" / "streams" / manifest["stream_files"]["A"]).unlink()
        with pytest.raises(CheckpointError, match="A"):
            restore_engine(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("spec", None),
            ("spec", "not a spec"),
            ("streams", None),
            ("streams", "A"),
            ("updates_processed", "lots"),
            ("updates_processed", 1.5),
        ],
        ids=[
            "spec-missing",
            "spec-ill-typed",
            "streams-missing",
            "streams-not-a-list",
            "updates-not-an-integer",
            "updates-a-float",
        ],
    )
    def test_malformed_manifest_field(self, tmp_path, field, value):
        """A missing or ill-typed manifest field is a CheckpointError, not
        a bare KeyError/TypeError/ValueError from deep in the restore."""
        checkpoint_engine(loaded_engine(), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if value is None:
            del manifest[field]
        else:
            manifest[field] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=field):
            restore_engine(tmp_path)

    @pytest.mark.parametrize(
        "site_sequences",
        [["edge-1", 4], {"edge-1": 4}, {"edge-1": {"inc": "four"}}],
        ids=["not-a-mapping", "history-not-a-mapping", "sequence-not-an-integer"],
    )
    def test_malformed_site_sequences(self, tmp_path, site_sequences):
        """A coordinator restore validates ``extra["site_sequences"]``."""
        from repro.streams.net.coordinator import CoordinatorServer

        checkpoint_engine(
            loaded_engine(), tmp_path, extra={"site_sequences": site_sequences}
        )
        with pytest.raises(CheckpointError, match="sequence"):
            CoordinatorServer.restore(tmp_path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("section", ["not", "a", "mapping"]),
            ("window_span", None),
            ("window_span", "eight"),
            ("bucket_width", "two"),
            ("bucket_width", 3.0),  # does not divide the span
            ("clock", "noon"),
            ("clock_policy", "rewind"),
            ("streams", ["A", "B"]),
            ("streams", {"A": "1,2"}),
            ("streams", {"A": [1.5]}),
        ],
        ids=[
            "section-not-a-mapping",
            "span-missing",
            "span-ill-typed",
            "width-ill-typed",
            "width-not-dividing-span",
            "clock-ill-typed",
            "policy-unknown",
            "streams-a-list",
            "buckets-not-a-list",
            "bucket-not-an-integer",
        ],
    )
    def test_malformed_window_section(self, tmp_path, field, value):
        """A malformed ``extra["windows"]`` is a CheckpointError, not a
        bare AttributeError/ValueError from the ring restore."""
        engine = StreamEngine(SPEC, window_span=8.0, bucket_width=2.0)
        for at in range(1, 6):
            engine.observe(Update("A", at, 1), float(at))
        checkpoint_engine(engine, tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if field == "section":
            manifest["extra"]["windows"] = value
        elif value is None:
            del manifest["extra"]["windows"][field]
        else:
            manifest["extra"]["windows"][field] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="windows"):
            restore_engine(tmp_path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("site_id", None),
            ("site_id", 7),
            ("incarnation", ["abc"]),
            ("sequence", "two"),
            ("sequence", -1),
            ("retained", "all"),
            ("retained", [3]),
            ("retained sequence", "one"),
            ("retained sequence", 99),
            ("retained streams", "A"),
            ("retained window_at", "soon"),
            ("retained window_at", float("inf")),
        ],
        ids=[
            "site-id-missing",
            "site-id-ill-typed",
            "incarnation-ill-typed",
            "sequence-not-an-integer",
            "sequence-negative",
            "retained-not-a-list",
            "retained-entry-not-a-mapping",
            "retained-sequence-ill-typed",
            "retained-sequence-ahead",
            "retained-streams-not-a-list",
            "retained-window-at-ill-typed",
            "retained-window-at-infinite",
        ],
    )
    def test_malformed_uplink_state(self, tmp_path, field, value):
        """A leaf restore validates ``extra["uplink"]``: ill-typed fields
        are a CheckpointError, not a bare ValueError/KeyError."""
        from repro.streams.net.coordinator import CoordinatorServer

        leaf = CoordinatorServer(
            SPEC, parent_port=1, uplink_id="leaf", checkpoint_dir=tmp_path
        )
        leaf.coordinator.adopt_family("A", loaded_engine().family("A"))
        leaf.checkpoint()  # retains uplink export 1
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        uplink = manifest["extra"]["uplink"]
        assert uplink["retained"]  # the cases below edit a real entry
        if field.startswith("retained "):
            uplink["retained"][0][field.split()[1]] = value
        elif value is None:
            del uplink[field]
        else:
            uplink[field] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=field):
            CoordinatorServer.restore(tmp_path, parent_port=1)

    def test_sharded_layout_refused(self, tmp_path):
        """A checkpoint of the retired sharded engine (a ``shards`` key and
        one payload per shard and stream) is refused by name."""
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"] = 2
        manifest["stream_files"] = {
            f"shard{shard}/{name}": file
            for name, file in manifest["stream_files"].items()
            for shard in range(2)
        }
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="sharded"):
            restore_engine(tmp_path)


class TestStreamNameEscaping:
    """Regression: stream names are user data; ``../x``, ``a/b``, NULs and
    friends used to be spliced into payload paths verbatim, corrupting or
    escaping the checkpoint directory."""

    NASTY = ["../escape", "a/b/c", "nul\x00byte", ".", "..", "", "ünïcode"]

    def nasty_engine(self) -> StreamEngine:
        engine = StreamEngine(SPEC)
        for index, name in enumerate(self.NASTY):
            for element in range(20 + index):
                engine.process(Update(name, element, 1))
        return engine

    def test_round_trip_preserves_names_and_counters(self, tmp_path):
        engine = self.nasty_engine()
        checkpoint_engine(engine, tmp_path / "ckpt")
        restored = restore_engine(tmp_path / "ckpt")
        assert restored.stream_names() == engine.stream_names()
        for name in self.NASTY:
            assert restored.family(name) == engine.family(name)

    def test_no_file_escapes_the_checkpoint_directory(self, tmp_path):
        root = tmp_path / "nest" / "ckpt"
        checkpoint_engine(self.nasty_engine(), root)
        streams_dir = root / "streams"
        written = list((tmp_path).rglob("*.sketch"))
        assert written  # payloads exist ...
        assert all(path.parent == streams_dir for path in written)
        # ... every one directly inside streams/, nothing nested or above.

    def test_payload_file_names_are_flat_and_safe(self, tmp_path):
        checkpoint_engine(self.nasty_engine(), tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert set(manifest["stream_files"]) == set(self.NASTY)
        for filename in manifest["stream_files"].values():
            assert "/" not in filename and "\x00" not in filename
            assert not filename.startswith(".")


class TestCellLog:
    """A generation as the previous base plus a log of cells files."""

    def log_delta(self, directory, engine, name, streams, at=None, seed=0):
        """Fold a random delta into ``engine`` and write it as the cells
        file ``log/<name>``; return whether it was logged."""
        rng = np.random.default_rng(seed)
        cell_sets = []
        for stream in streams:
            indices = np.unique(rng.integers(0, SPEC.counter_cells, size=300))
            values = rng.integers(-(2**40), 2**40, size=indices.size)
            engine.merge_cells(stream, indices, values, at=at)
            cell_sets.append((indices, values))
        blob = codec.encode_cell_sets(cell_sets, SPEC.counter_cells)
        write_checkpoint_files(directory, "log", {name: blob})
        return append_checkpoint_log(
            engine, directory, "log", name, list(streams), window_at=at,
            extra={"note": name},
        )

    def test_restore_is_the_base_plus_the_log(self, tmp_path):
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path)
        base_files = sorted(p.name for p in (tmp_path / "streams").iterdir())
        assert self.log_delta(tmp_path, engine, "1.cells", ["A"], seed=1)
        assert self.log_delta(tmp_path, engine, "2.cells", ["B", "C"], seed=2)
        assert sorted(p.name for p in (tmp_path / "streams").iterdir()) == base_files
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["format_version"] == 4
        assert [entry["file"] for entry in manifest["log"]] == [
            "log/1.cells",
            "log/2.cells",
        ]
        assert read_checkpoint_extra(tmp_path) == {"note": "2.cells"}
        restored = restore_engine(tmp_path)
        assert restored.stream_names() == engine.stream_names()
        for name, family in engine.families().items():
            assert restored.family(name).to_bytes() == family.to_bytes(), name

    def test_windowed_entries_fold_into_their_buckets(self, tmp_path):
        engine = StreamEngine(SPEC, window_span=8.0, bucket_width=2.0)
        engine.observe_many((Update("A", element, 1), 0.5) for element in range(50))
        checkpoint_engine(engine, tmp_path)
        assert self.log_delta(tmp_path, engine, "1.cells", ["A", "B"], at=1.5, seed=1)
        assert self.log_delta(tmp_path, engine, "2.cells", ["A"], at=4.0, seed=2)
        restored = restore_engine(tmp_path)
        assert restored.window_clock == engine.window_clock == 4.0
        for name in ("A", "B"):
            assert restored.family(name) == engine.family(name)
            for window in (2.0, 4.0, 8.0):
                assert np.array_equal(
                    restored.window_family(name, window).counters,
                    engine.window_family(name, window).counters,
                ), (name, window)

    def test_a_log_outgrowing_the_base_is_refused(self, tmp_path):
        """The caller then compacts: a new base empties the log."""
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["base_bytes"] = 1
        manifest_path.write_text(json.dumps(manifest))
        assert not self.log_delta(tmp_path, engine, "1.cells", ["A"])
        assert json.loads(manifest_path.read_text())["log"] == []
        checkpoint_engine(engine, tmp_path)
        assert restore_engine(tmp_path).family("A") == engine.family("A")

    def test_nothing_to_extend_is_refused(self, tmp_path):
        engine = loaded_engine()
        assert not self.log_delta(tmp_path, engine, "1.cells", ["A"])
        assert not (tmp_path / "manifest.json").exists()

    def test_prune_keeps_what_the_log_names(self, tmp_path):
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path)
        assert self.log_delta(tmp_path, engine, "1.cells", ["A"])
        write_checkpoint_files(tmp_path, "log", {"orphan.cells": b"x"})
        prune_checkpoint_files(tmp_path, "log", keep=())
        assert [p.name for p in (tmp_path / "log").iterdir()] == ["1.cells"]
        checkpoint_engine(engine, tmp_path)  # compaction empties the log
        prune_checkpoint_files(tmp_path, "log", keep=())
        assert list((tmp_path / "log").iterdir()) == []

    def test_missing_or_corrupt_log_file_is_refused(self, tmp_path):
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path)
        assert self.log_delta(tmp_path, engine, "1.cells", ["A"])
        path = tmp_path / "log" / "1.cells"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CheckpointError, match="corrupt"):
            restore_engine(tmp_path)
        path.unlink()
        with pytest.raises(CheckpointError, match="missing"):
            restore_engine(tmp_path)

    @pytest.mark.parametrize(
        "entry",
        [
            "log/1.cells",
            {"file": "../1.cells", "streams": ["A"]},
            {"file": "1.cells", "streams": ["A"]},
            {"file": "log/1.cells", "streams": "A"},
            {"file": "log/1.cells", "streams": ["A"], "window_at": "soon"},
            {"file": "log/1.cells", "streams": ["A"], "window_at": float("inf")},
        ],
        ids=[
            "not-a-mapping",
            "file-escapes",
            "file-not-in-a-folder",
            "streams-not-a-list",
            "window-at-ill-typed",
            "window-at-infinite",
        ],
    )
    def test_malformed_log_entry_is_refused(self, tmp_path, entry):
        engine = loaded_engine()
        checkpoint_engine(engine, tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["log"] = [entry]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            restore_engine(tmp_path)


class TestAdoptFamily:
    def test_adopt_requires_matching_spec(self):
        engine = StreamEngine(SPEC)
        other = SketchSpec(num_sketches=32, shape=SHAPE, seed=5).build()
        with pytest.raises(IncompatibleSketchesError):
            engine.adopt_family("A", other)

    def test_adopt_replaces_buffered_updates(self):
        engine = StreamEngine(SPEC, batch_size=10_000)
        engine.process(Update("A", 1, 1))
        replacement = SPEC.build()
        engine.adopt_family("A", replacement)
        assert engine.family("A").is_empty()

    def test_mark_replayed_validation(self):
        engine = StreamEngine(SPEC)
        with pytest.raises(ValueError):
            engine.mark_replayed(-1)
