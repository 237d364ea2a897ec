"""Unit tests for the distributed-streams model (delta protocol)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.expression import estimate_expression
from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.errors import (
    DeltaSequenceError,
    IncompatibleSketchesError,
    UnknownStreamError,
)
from repro.expr.parser import parse
from repro.streams.distributed import Coordinator, DeltaExport, StreamSite
from repro.streams.engine import StreamEngine
from repro.streams.updates import Update, insertions

SHAPE = SketchShape(domain_bits=20, num_second_level=8, independence=6)
SPEC = SketchSpec(num_sketches=128, shape=SHAPE, seed=17)


class TestSite:
    def test_export_contains_observed_streams(self):
        site = StreamSite("site-1", SPEC)
        site.observe(Update("A", 1, 1))
        site.observe(Update("B", 2, 1))
        export = site.export()
        assert export.site_id == "site-1"
        assert export.sequence == 1
        assert sorted(export.payloads) == ["A", "B"]
        reference = StreamEngine(SPEC)
        reference.process_many([Update("A", 1, 1), Update("B", 2, 1)])
        for name, payload in export.payloads.items():
            indices, values = payload.cells(SPEC.counter_cells)
            expected = reference.families()[name].nonzero_cells()
            assert np.array_equal(indices, expected[0])
            assert np.array_equal(values, expected[1])

    def test_export_empty_site(self):
        export = StreamSite("idle", SPEC).export()
        assert export.is_empty
        assert export.sequence == 1

    def test_sequences_are_monotone_and_deltas_disjoint(self):
        site = StreamSite("s", SPEC)
        site.observe(Update("A", 1, 1))
        first = site.export()
        second = site.export()  # no new updates since
        site.observe(Update("A", 2, 1))
        third = site.export()
        assert [first.sequence, second.sequence, third.sequence] == [1, 2, 3]
        assert not first.is_empty
        assert second.is_empty  # nothing changed between exports
        assert not third.is_empty

    def test_retention_and_acknowledge(self):
        site = StreamSite("s", SPEC)
        site.observe(Update("A", 1, 1))
        site.export()
        site.observe(Update("A", 2, 1))
        site.export()
        assert site.retained_exports == 2
        assert [e.sequence for e in site.exports_after(0)] == [1, 2]
        site.acknowledge(1)
        assert site.retained_exports == 1
        assert [e.sequence for e in site.exports_after(1)] == [2]

    def test_restarted_site_gets_a_fresh_incarnation(self):
        """Each StreamSite lifetime has its own incarnation, so a
        restarted process's sequence 1 is distinguishable from — and
        never dropped as a duplicate of — its previous life's."""
        old_life = StreamSite("edge", SPEC)
        new_life = StreamSite("edge", SPEC)
        assert old_life.incarnation != new_life.incarnation
        assert old_life.export().incarnation == old_life.incarnation

    def test_site_restart_exports_apply_despite_sequence_overlap(self):
        """The regression the incarnation exists for: old life ships one
        export, the restarted life's first export also carries sequence
        1 — it must be applied as new data, not dropped."""
        coordinator = Coordinator(SPEC)
        old_life = StreamSite("edge", SPEC)
        old_life.observe_many(insertions("A", range(50)))
        coordinator.collect_from(old_life)
        assert coordinator.applied_sequence("edge") == 1

        new_life = StreamSite("edge", SPEC)  # process restart
        new_life.observe_many(insertions("A", range(50, 80)))
        export = new_life.export()
        assert export.sequence == 1  # numbering collides with old life
        assert coordinator.collect(export)  # applied, not dropped
        assert coordinator.applied_sequence("edge") == 1
        assert coordinator.applied_sequence("edge", old_life.incarnation) == 1
        assert coordinator.applied_sequence("edge", new_life.incarnation) == 1

        truth = StreamEngine(SPEC)
        truth.process_many(insertions("A", range(80)))
        truth.flush()
        assert coordinator.families()["A"] == truth.family("A")

    def test_alternating_incarnations_never_double_count(self):
        """Two lives of one site id interleaving collects: each life's
        history is tracked separately, so duplicates within either life
        are still dropped and neither shadows the other."""
        coordinator = Coordinator(SPEC)
        life_a = StreamSite("edge", SPEC, incarnation="life-a")
        life_b = StreamSite("edge", SPEC, incarnation="life-b")
        life_a.observe_many(insertions("A", range(30)))
        export_a = life_a.export()
        life_b.observe_many(insertions("A", range(30, 60)))
        export_b = life_b.export()

        assert coordinator.collect(export_a)
        assert coordinator.collect(export_b)
        assert not coordinator.collect(export_a)  # duplicate of life-a's
        assert not coordinator.collect(export_b)  # duplicate of life-b's

        truth = StreamEngine(SPEC)
        truth.process_many(insertions("A", range(60)))
        truth.flush()
        assert coordinator.families()["A"] == truth.family("A")


class TestCoordinator:
    def test_split_stream_merges_to_centralised_sketch(self):
        """A stream split across two sites must merge to exactly the
        sketch a single observer of the whole stream would hold."""
        rng = np.random.default_rng(97)
        elements = rng.integers(0, 2**20, size=500, dtype=np.uint64)
        site_1 = StreamSite("s1", SPEC)
        site_2 = StreamSite("s2", SPEC)
        site_1.observe_many(insertions("A", (int(e) for e in elements[:250])))
        site_2.observe_many(insertions("A", (int(e) for e in elements[250:])))
        coordinator = Coordinator(SPEC)
        coordinator.collect_from(site_1)
        coordinator.collect_from(site_2)

        centralised = SPEC.build()
        centralised.update_batch(elements)
        assert coordinator.families()["A"] == centralised

    def test_repeated_collection_no_longer_double_counts(self):
        """Regression: observe -> export/collect -> observe ->
        export/collect must equal single-engine ground truth (cumulative
        exports used to double-count the first batch)."""
        rng = np.random.default_rng(11)
        first = rng.integers(0, 2**20, size=300, dtype=np.uint64)
        second = rng.integers(0, 2**20, size=300, dtype=np.uint64)

        site = StreamSite("s", SPEC)
        coordinator = Coordinator(SPEC)
        site.observe_many(insertions("A", (int(e) for e in first)))
        coordinator.collect_from(site)
        site.observe_many(insertions("A", (int(e) for e in second)))
        coordinator.collect_from(site)

        ground_truth = SPEC.build()
        ground_truth.update_batch(np.concatenate([first, second]))
        assert coordinator.families()["A"] == ground_truth

    def test_duplicate_export_is_dropped_idempotently(self):
        site = StreamSite("s", SPEC)
        site.observe(Update("A", 1, 1))
        export = site.export()
        coordinator = Coordinator(SPEC)
        assert coordinator.collect(export) is True
        before = coordinator.families()["A"].counters.copy()
        assert coordinator.collect(export) is False  # retransmit
        assert np.array_equal(coordinator.families()["A"].counters, before)
        assert coordinator.duplicates_dropped == 1

    def test_sequence_gap_raises(self):
        site = StreamSite("s", SPEC)
        site.observe(Update("A", 1, 1))
        site.export()  # sequence 1, never collected
        site.observe(Update("A", 2, 1))
        second = site.export()
        coordinator = Coordinator(SPEC)
        with pytest.raises(DeltaSequenceError, match="missing"):
            coordinator.collect(second)

    def test_resync_after_gap_via_exports_after(self):
        site = StreamSite("s", SPEC)
        site.observe(Update("A", 1, 1))
        site.export()
        site.observe(Update("A", 2, 1))
        site.export()
        coordinator = Coordinator(SPEC)
        for export in site.exports_after(coordinator.applied_sequence("s")):
            coordinator.collect(export)
        assert coordinator.applied_sequence("s") == 2

        ground_truth = SPEC.build()
        ground_truth.update_batch(np.array([1, 2], dtype=np.uint64))
        assert coordinator.families()["A"] == ground_truth

    def test_sites_collected_counter(self):
        coordinator = Coordinator(SPEC)
        site = StreamSite("s", SPEC)
        site.observe(Update("A", 1, 1))
        coordinator.collect_from(site)
        coordinator.collect_from(site)
        assert coordinator.sites_collected == 2

    def test_query_over_distributed_streams(self):
        rng = np.random.default_rng(98)
        pool = rng.choice(2**20, size=3000, replace=False)
        shared, only_a, only_b = pool[:1000], pool[1000:2000], pool[2000:]

        router_1 = StreamSite("router-1", SPEC)
        router_2 = StreamSite("router-2", SPEC)
        router_1.observe_many(
            insertions("A", (int(e) for e in np.concatenate([shared, only_a])))
        )
        router_2.observe_many(
            insertions("B", (int(e) for e in np.concatenate([shared, only_b])))
        )
        coordinator = Coordinator(SPEC)
        coordinator.collect_from(router_1)
        coordinator.collect_from(router_2)

        estimate = coordinator.query("A & B", 0.2)
        assert abs(estimate.value - 1000) / 1000 < 0.5
        union = coordinator.query_union(["A", "B"], 0.2)
        assert abs(union.value - 3000) / 3000 < 0.3

    def test_query_unknown_stream_raises_named_error(self):
        coordinator = Coordinator(SPEC)
        site = StreamSite("s", SPEC)
        site.observe(Update("A", 1, 1))
        coordinator.collect_from(site)
        with pytest.raises(UnknownStreamError, match="'Z'"):
            coordinator.query("A & Z")
        # The error also lists what *is* known.
        with pytest.raises(UnknownStreamError, match="known streams: A"):
            coordinator.query("A - Z")

    def test_query_union_unknown_stream_raises_named_error(self):
        coordinator = Coordinator(SPEC)
        with pytest.raises(UnknownStreamError, match="'A'"):
            coordinator.query_union(["A"])
        # UnknownStreamError is a KeyError, so pre-existing callers that
        # caught the builtin keep working.
        with pytest.raises(KeyError):
            coordinator.query_union(["A"])

    def test_deletions_at_a_different_site(self):
        """Insertions at one site, deletions at another — linear merge
        cancels them exactly."""
        site_in = StreamSite("in", SPEC)
        site_out = StreamSite("out", SPEC)
        for element in range(100):
            site_in.observe(Update("A", element, 1))
        for element in range(50):
            site_out.observe(Update("A", element, -1))
        coordinator = Coordinator(SPEC)
        coordinator.collect_from(site_in)
        coordinator.collect_from(site_out)

        survivors = SPEC.build()
        survivors.update_batch(np.arange(50, 100, dtype=np.uint64))
        assert coordinator.families()["A"] == survivors

    def test_stream_names(self):
        coordinator = Coordinator(SPEC)
        site = StreamSite("s", SPEC)
        site.observe(Update("B", 1, 1))
        site.observe(Update("A", 1, 1))
        coordinator.collect_from(site)
        assert coordinator.stream_names() == ["A", "B"]

    def test_restore_roundtrip(self):
        site = StreamSite("s", SPEC)
        site.observe(Update("A", 1, 1))
        coordinator = Coordinator(SPEC)
        coordinator.collect_from(site)

        restored = Coordinator(SPEC)
        for name in coordinator.stream_names():
            restored.adopt_family(name, coordinator.families()[name].copy())
        for site_id, history in coordinator.site_sequences().items():
            for incarnation, sequence in history.items():
                restored.set_applied_sequence(site_id, incarnation, sequence)
        assert restored.applied_sequence("s") == 1
        assert restored.applied_sequence("s", site.incarnation) == 1
        # A duplicate of the already-applied export is dropped.
        duplicate = DeltaExport("s", 1, {}, site.incarnation)
        assert restored.collect(duplicate) is False


class TestCoordinatorToEngine:
    def test_handoff_preserves_state_and_accepts_updates(self):
        rng = np.random.default_rng(99)
        elements = rng.integers(0, 2**20, size=400, dtype=np.uint64)
        site = StreamSite("s", SPEC)
        site.observe_many(insertions("A", (int(e) for e in elements)))
        coordinator = Coordinator(SPEC)
        coordinator.collect_from(site)

        engine = coordinator.fold_engine
        assert engine.stream_names() == ["A"]

        # Continue ingesting at the coordinator's fold engine.
        engine.process(Update("A", 7, 1))
        engine.flush()
        reference = SPEC.build()
        reference.update_batch(np.concatenate([elements, [7]]))
        assert engine.family("A") == reference


class TestOneFoldPath:
    """Every coordinator folds into a :class:`StreamEngine`, so an
    unwindowed root answers from the engine's cache and stamps the
    engine's snapshot position."""

    EXPRESSIONS = ["A & B", "A - B", "(A | B) - (A & B)"]

    def test_default_fold_target_is_a_plain_engine(self):
        coordinator = Coordinator(SPEC)
        assert isinstance(coordinator.fold_engine, StreamEngine)
        assert not coordinator.is_windowed
        assert coordinator.window_clock == float("-inf")
        site = StreamSite("s", SPEC)
        site.observe(Update("A", 1, 1))
        coordinator.collect_from(site)
        with pytest.raises(ValueError, match="not windowed"):
            coordinator.query("A", 0.2, window=1.0)

    def test_fold_engine_must_share_the_spec(self):
        other = SketchSpec(num_sketches=128, shape=SHAPE, seed=18)
        with pytest.raises(IncompatibleSketchesError):
            Coordinator(SPEC, engine=StreamEngine(other))

    def test_repeat_queries_between_collects_hit_the_engine_cache(self):
        coordinator = Coordinator(SPEC)
        site = StreamSite("s", SPEC)
        positions = [coordinator.snapshot_position]
        for low in (0, 300):
            site.observe_many(insertions("A", range(low, low + 400)))
            site.observe_many(insertions("B", range(low + 200, low + 500)))
            coordinator.collect_from(site)
            positions.append(coordinator.snapshot_position)

            hits = coordinator.fold_engine.query_stats().cache_hits
            first = coordinator.query_many(self.EXPRESSIONS, 0.2)
            again = coordinator.query_many(self.EXPRESSIONS, 0.2)
            assert coordinator.fold_engine.query_stats().cache_hits > hits
            families = coordinator.families()
            expected = [
                estimate_expression(parse(text), families, 0.2)
                for text in self.EXPRESSIONS
            ]
            assert first == again == expected
        assert positions == sorted(set(positions))  # strictly increasing


class TestFamilyDelta:
    def test_diff_from_roundtrips_by_linearity(self):
        rng = np.random.default_rng(5)
        base = SPEC.build()
        base.update_batch(rng.integers(0, 2**20, size=100, dtype=np.uint64))
        snapshot = base.copy()
        base.update_batch(rng.integers(0, 2**20, size=100, dtype=np.uint64))
        delta = base.diff_from(snapshot)
        snapshot.merge_in_place(delta)
        assert snapshot == base

    def test_is_zero_vs_is_empty(self):
        family = SPEC.build()
        assert family.is_zero() and family.is_empty()
        family.update_batch(np.array([1], dtype=np.uint64))
        inserted = family.copy()
        family.update_batch(np.array([2], dtype=np.uint64), np.array([-1]))
        # Net item count is zero, but the counters are not all-zero.
        delta = family.diff_from(SPEC.build())
        assert delta.is_empty() and not delta.is_zero()
        assert not inserted.is_zero()

    def test_engine_families_accessor(self):
        engine = StreamEngine(SPEC)
        engine.process(Update("A", 1, 1))
        engine.process(Update("B", 2, 1))
        families = engine.families()
        assert sorted(families) == ["A", "B"]
        assert families["A"] is engine.family("A")


class TestEngineBackedFoldFreshness:
    """Regression: an engine-backed coordinator used to serve a *stale*
    cached estimate after a second collect, because a delta fold
    (``merge_cells``) changes counters without advancing the engine's
    updates-processed position.
    The mutation epoch now invalidates those entries."""

    def test_second_collect_invalidates_cached_estimate(self):
        engine = StreamEngine(SPEC)
        coordinator = Coordinator(SPEC, engine=engine)
        site = StreamSite("s", SPEC)
        site.observe_many(insertions("A", range(500)))
        coordinator.collect_from(site)
        first = coordinator.query_union(["A"], 0.2).value

        site.observe_many(insertions("A", range(500, 1000)))
        coordinator.collect_from(site)
        second = coordinator.query_union(["A"], 0.2).value
        assert second != first  # grew ~2x; a stale cache returns first

        fresh = StreamEngine(SPEC)
        fresh.process_many(insertions("A", range(1000)))
        assert second == fresh.query_union(["A"], 0.2).value

    def test_windowed_fold_expiry_invalidates_cached_estimate(self):
        """The windowed twin: a rotation that expires a non-empty bucket
        must invalidate cached windowed estimates even though no new
        updates were processed."""
        engine = StreamEngine(SPEC, window_span=10.0, bucket_width=5.0)
        coordinator = Coordinator(SPEC, engine=engine)
        site = StreamSite("s", SPEC, engine=StreamEngine(
            SPEC, window_span=10.0, bucket_width=5.0
        ))
        for element in range(200):
            site.observe(Update("A", element, 1), at=1.0)
        coordinator.collect(site.export())
        before = coordinator.query_union(["A"], 0.2, window=10.0).value
        assert before > 0
        engine.advance_to(20.0)  # bucket 1 fully expires
        after = coordinator.query_union(["A"], 0.2, window=10.0).value
        assert after == 0.0
        assert after != before


class TestWindowedSiteExports:
    """A windowed coordinator files a whole export in the one ring bucket
    of its ``window_at`` stamp, so a site must never cut an export that
    spans a bucket boundary."""

    def _windowed(self):
        return StreamEngine(SPEC, window_span=4.0, bucket_width=2.0)

    def test_observation_entering_a_new_bucket_cuts_the_pending_export(self):
        local = self._windowed()
        site = StreamSite("s", SPEC, engine=local)
        root = Coordinator(SPEC, engine=self._windowed())
        site.observe(Update("A", 5, 1), at=1.9)
        site.observe(Update("A", 7, 1), at=2.1)  # enters bucket 2
        site.export()
        exports = site.exports_after(0)
        assert [export.window_at for export in exports] == [1.9, 2.1]
        for export in exports:
            root.collect(export)
        merged = root.fold_engine
        for window in (2.0, 4.0):
            assert merged.window_family("A", window) == local.window_family(
                "A", window
            )
        assert merged.family("A") == local.family("A")

    def test_untimed_then_timed_observations(self):
        site = StreamSite("s", SPEC, engine=self._windowed())
        site.observe(Update("A", 4, 1))
        site.observe(Update("A", 5, 1), at=1.0)
        assert site.sequence == 0
        assert set(site.export().payloads) == {"A"}

    def test_no_cut_when_everything_was_exported(self):
        site = StreamSite("s", SPEC, engine=self._windowed())
        site.observe(Update("A", 5, 1), at=1.9)
        site.export()
        site.observe(Update("A", 7, 1), at=2.1)
        site.observe(Update("A", 8, 1), at=3.9)
        site.export()
        assert [e.window_at for e in site.exports_after(0)] == [1.9, 3.9]


class TestCollectIsAllOrNothing:
    def test_out_of_range_cell_folds_nothing(self):
        """A cell outside the counter slab is refused before any stream
        folds, so a re-shipped copy cannot double-count the others."""
        from repro.streams.distributed import DeltaPayload

        num_cells = SPEC.counter_cells
        export = DeltaExport(
            "s",
            1,
            {
                "A": DeltaPayload.from_cells(np.array([0]), np.array([5]), num_cells),
                "B": DeltaPayload.from_cells(
                    np.array([num_cells + 1]), np.array([5]), num_cells
                ),
            },
            "life",
        )
        coordinator = Coordinator(SPEC)
        for _ in range(2):
            with pytest.raises(IncompatibleSketchesError):
                coordinator.collect(export)
        assert coordinator.applied_sequence("s", "life") == 0
        assert all(family.is_zero() for family in coordinator.families().values())
