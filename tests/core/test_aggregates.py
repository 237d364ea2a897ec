"""Property tests for the incrementally maintained per-level aggregates.

The invariant under test: after *any* sequence of maintenance operations
(scalar updates, kernel/oracle batches, churn, merges, serialisation
round-trips), ``SketchFamily.level_totals()`` and
``level_nonempty_counts()`` equal what a recomputation from the raw
``(r, levels, s, 2)`` counters yields — and the per-level dirty versions
honour the ``levels_clean_since`` contract the engine's query cache
relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.family import SketchSpec, sum_families
from repro.core.sketch import SketchShape

SHAPE = SketchShape(domain_bits=16, num_second_level=8, independence=6)
SPEC = SketchSpec(num_sketches=32, shape=SHAPE, seed=71)


def recomputed_totals(family) -> np.ndarray:
    return family.counters[:, :, 0, 0] + family.counters[:, :, 0, 1]


def assert_aggregates_fresh(family) -> None:
    totals = recomputed_totals(family)
    np.testing.assert_array_equal(family.level_totals(), totals)
    np.testing.assert_array_equal(
        family.level_nonempty_counts(), (totals > 0).sum(axis=0)
    )


class TestMaintenancePaths:
    def test_scalar_updates(self):
        family = SPEC.build()
        rng = np.random.default_rng(0)
        for element in rng.integers(0, 2**16, size=50):
            family.update(int(element), 1)
        assert_aggregates_fresh(family)

    def test_plan_batches_weighted_and_unweighted(self):
        family = SPEC.build()
        rng = np.random.default_rng(1)
        family.update_batch(rng.integers(0, 2**16, size=200))
        family.update_batch(
            rng.integers(0, 2**16, size=64),
            rng.integers(1, 5, size=64),
        )
        # uniform-count fast path
        family.update_batch(rng.integers(0, 2**16, size=64), np.full(64, 3))
        assert_aggregates_fresh(family)

    def test_legacy_per_sketch_path(self, numpy_oracle):
        """The numpy oracle keeps the aggregates exact too."""
        family = SPEC.build()
        rng = np.random.default_rng(2)
        family.update_batch(rng.integers(0, 2**16, size=100))
        family.update_batch(
            rng.integers(0, 2**16, size=64), rng.integers(-3, 4, size=64)
        )
        assert_aggregates_fresh(family)

    def test_churn_and_deletions(self):
        family = SPEC.build()
        rng = np.random.default_rng(3)
        elements = rng.integers(0, 2**16, size=150)
        family.ingest_batch(elements, np.ones(150, dtype=np.int64))
        family.ingest_batch(elements[:70], -np.ones(70, dtype=np.int64))
        assert_aggregates_fresh(family)
        # exact insert/delete churn inside one batch
        mixed = np.concatenate([elements[:30], elements[:30]])
        deltas = np.concatenate([np.ones(30, np.int64), -np.ones(30, np.int64)])
        family.ingest_batch(mixed, deltas)
        assert_aggregates_fresh(family)

    def test_merges_and_sums(self):
        rng = np.random.default_rng(4)
        parts = []
        for _ in range(3):
            family = SPEC.build()
            family.update_batch(rng.integers(0, 2**16, size=120))
            parts.append(family)
        merged = parts[0].merged_with(parts[1])
        assert_aggregates_fresh(merged)
        parts[0].merge_in_place(parts[1])
        assert_aggregates_fresh(parts[0])
        total = sum_families(parts)
        assert_aggregates_fresh(total)
        # out= reuse must refresh the destination's aggregates too
        total2 = sum_families(parts[1:], out=total)
        assert total2 is total
        assert_aggregates_fresh(total)

    def test_serialisation_round_trip(self):
        family = SPEC.build()
        rng = np.random.default_rng(5)
        family.update_batch(rng.integers(0, 2**16, size=200))
        restored = type(family).from_bytes(family.to_bytes(), SPEC)
        assert_aggregates_fresh(restored)
        np.testing.assert_array_equal(
            restored.level_totals(), family.level_totals()
        )

    def test_direct_counter_writes_need_refresh(self):
        family = SPEC.build()
        family.counters[:, :, 0, 0] = 1
        family.refresh_aggregates()
        assert_aggregates_fresh(family)

    def test_randomised_operation_sequences(self):
        rng = np.random.default_rng(6)
        for round_ in range(5):
            family = SPEC.build()
            other = SPEC.build()
            other.update_batch(rng.integers(0, 2**16, size=80))
            for _ in range(8):
                op = rng.integers(5)
                if op == 0:
                    family.update(int(rng.integers(2**16)), 1)
                elif op == 1:
                    family.update_batch(rng.integers(0, 2**16, size=40))
                elif op == 2:
                    family.ingest_batch(
                        rng.integers(0, 2**16, size=40),
                        rng.choice([-1, 1, 2], size=40).astype(np.int64),
                    )
                elif op == 3:
                    family.merge_in_place(other)
                else:
                    family = type(family).from_bytes(family.to_bytes(), SPEC)
                assert_aggregates_fresh(family)


class TestDirtyVersions:
    def test_version_moves_with_every_mutation(self):
        family = SPEC.build()
        seen = {family.version}
        family.update(1, 1)
        seen.add(family.version)
        family.update_batch([2, 3, 4])
        seen.add(family.version)
        assert len(seen) == 3  # strictly monotone

    def test_levels_clean_since_prefix(self):
        family = SPEC.build()
        rng = np.random.default_rng(7)
        family.update_batch(rng.integers(0, 2**16, size=100))
        version = family.version
        assert family.levels_clean_since(version, SHAPE.num_levels - 1)
        family.update_batch([int(rng.integers(2**16))])
        # one element touches exactly one level per sketch; with r sketches
        # some shallow level is dirtied almost surely
        assert not family.levels_clean_since(version, SHAPE.num_levels - 1)
        # ... but untouched deep levels stay clean
        dirty = family.level_dirty_versions()
        deepest_clean = int(np.max(np.nonzero(dirty <= version)[0]))
        assert family.levels_clean_since(
            version, -1, start=deepest_clean, stop=deepest_clean + 1
        )

    def test_window_check(self):
        family = SPEC.build()
        family.update_batch([5])
        version = family.version
        family.update_batch([5])  # same element: dirties the same levels again
        dirty = family.level_dirty_versions()
        touched = np.nonzero(dirty > version)[0]
        assert touched.size > 0
        level = int(touched[0])
        assert not family.levels_clean_since(
            version, -1, start=level, stop=level + 1
        )

    def test_views_snapshot_aggregates(self):
        family = SPEC.build()
        rng = np.random.default_rng(8)
        family.update_batch(rng.integers(0, 2**16, size=100))
        half = family.prefix(16)
        np.testing.assert_array_equal(
            half.level_totals(), recomputed_totals(half)
        )


class TestBitIdenticalEstimates:
    """Estimators on maintained aggregates == estimators on raw counters."""

    def test_union_matches_recompute(self):
        from repro.core.union import estimate_union

        rng = np.random.default_rng(9)
        family_a = SPEC.build()
        family_b = SPEC.build()
        family_a.update_batch(rng.integers(0, 2**16, size=400))
        family_b.update_batch(rng.integers(0, 2**16, size=300))
        fast = estimate_union([family_a, family_b], 0.2)
        # force the slow path by rebuilding from raw counters
        rebuilt_a = type(family_a).from_bytes(family_a.to_bytes(), SPEC)
        rebuilt_b = type(family_b).from_bytes(family_b.to_bytes(), SPEC)
        slow = estimate_union([rebuilt_a, rebuilt_b], 0.2)
        assert fast == slow

    def test_single_family_fast_path(self):
        from repro.core.union import estimate_union

        rng = np.random.default_rng(10)
        family = SPEC.build()
        family.update_batch(rng.integers(0, 2**16, size=400))
        memoised = estimate_union([family], 0.2)
        assert memoised == estimate_union([family.copy()], 0.2)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
