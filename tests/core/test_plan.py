"""Tests for the shared hash-plan layer (:mod:`repro.core.plan`).

The load-bearing property is *exactness*: plan-based maintenance must
leave counters bit-identical to the classic per-sketch path on any
workload, any shape, any cache configuration — the plan is a
reorganisation of identical integer arithmetic, never an approximation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.family import SketchSpec
from repro.core.plan import (
    DEFAULT_CACHE_SIZE,
    STACKED_HASH_MAX,
    HashPlan,
    plan_for,
)
from repro.core.sketch import SketchShape
from repro.errors import DomainError, IncompatibleSketchesError

SHAPE = SketchShape(domain_bits=20, num_second_level=8, independence=4)


def spec(num_sketches: int = 8, seed: int = 0, shape: SketchShape = SHAPE) -> SketchSpec:
    return SketchSpec(num_sketches=num_sketches, shape=shape, seed=seed)


def mixed_workload(rng, size: int, domain: int):
    """Skewed elements with insert/delete churn (hot head repeats)."""
    elements = (rng.zipf(1.3, size=size) - 1) % domain
    counts = rng.choice(np.asarray([-2, -1, 1, 1, 3], dtype=np.int64), size)
    return elements.astype(np.uint64), counts


def zipf_unit_workload(rng, size: int, domain: int):
    """Zipf(1.2) elements with unit deltas, 30% of them deletions — the
    shape of the end-to-end ``ingest`` traffic."""
    elements = (rng.zipf(1.2, size=size) - 1) % domain
    counts = np.where(rng.random(size) < 0.7, 1, -1).astype(np.int64)
    return elements.astype(np.uint64), counts


class TestRowExactness:
    @pytest.mark.parametrize("n", [1, 10, 100, STACKED_HASH_MAX, STACKED_HASH_MAX + 1, 5000])
    def test_compute_rows_matches_per_sketch_hashing(self, n):
        """Stacked and per-sketch fill regimes produce identical rows."""
        s = spec(6, seed=3)
        plan = HashPlan(s.hashes(), s.shape, cache_size=0)
        rng = np.random.default_rng(n)
        elements = rng.integers(0, s.shape.domain_size, size=n, dtype=np.uint64)
        rows = plan.compute_rows(elements)

        shape = s.shape
        for k, hashes in enumerate(s.hashes()):
            from repro.hashing.lsb import lsb_array

            levels = lsb_array(hashes.first_level(elements))
            bits = hashes.second_level.bits(elements)  # (n, s)
            for j in range(shape.num_second_level):
                expected = (
                    (k * shape.num_levels + levels) * shape.num_second_level + j
                ) * 2 + bits[:, j]
                got = rows[:, k * shape.num_second_level + j]
                assert np.array_equal(got, expected)

    def test_cached_rows_equal_fresh_rows(self):
        s = spec(4, seed=9)
        plan = HashPlan(s.hashes(), s.shape, cache_size=64)
        rng = np.random.default_rng(1)
        elements = rng.integers(0, s.shape.domain_size, size=40, dtype=np.uint64)
        first = plan.scatter_rows(elements)
        second = plan.scatter_rows(elements)  # all hits now
        assert np.array_equal(first, second)
        assert plan.stats().hits >= elements.size  # second pass from cache


class TestMaintenanceEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [10, 1000, 5000])
    def test_update_batch_bit_identical(self, seed, n):
        """Randomised mixed insert/delete workloads, plan vs per-sketch."""
        s = spec(8, seed=seed)
        rng = np.random.default_rng(100 + seed)
        elements, counts = mixed_workload(rng, n, s.shape.domain_size)
        via_plan, via_sketch = s.build(), s.build()
        via_plan.update_batch(elements, counts, plan="auto")
        via_sketch.update_batch(elements, counts, plan=None)
        assert np.array_equal(via_plan.counters, via_sketch.counters)

    @pytest.mark.parametrize(
        "shape",
        [
            SketchShape(domain_bits=16, num_second_level=4, independence=4),
            SketchShape(domain_bits=24, num_second_level=16, independence=8),
        ],
    )
    def test_shapes_bit_identical(self, shape):
        s = spec(12, seed=5, shape=shape)
        rng = np.random.default_rng(7)
        elements, counts = mixed_workload(rng, 3000, shape.domain_size)
        via_plan, via_sketch = s.build(), s.build()
        via_plan.update_batch(elements, counts, plan="auto")
        via_sketch.update_batch(elements, counts, plan=None)
        assert np.array_equal(via_plan.counters, via_sketch.counters)

    @pytest.mark.parametrize("cache_size", [0, 16, DEFAULT_CACHE_SIZE])
    def test_cache_configurations_bit_identical(self, cache_size):
        """Cache off, tiny (evicting), and default all yield the same
        counters across repeated overlapping batches."""
        s = spec(6, seed=11)
        plan = HashPlan(s.hashes(), s.shape, cache_size=cache_size)
        rng = np.random.default_rng(13)
        via_plan, via_sketch = s.build(), s.build()
        for _ in range(5):
            elements, counts = mixed_workload(rng, 400, 1 << 10)  # overlap-heavy
            via_plan.update_batch(elements, counts, plan=plan)
            via_sketch.update_batch(elements, counts, plan=None)
        assert np.array_equal(via_plan.counters, via_sketch.counters)

    def test_unweighted_and_uniform_batches(self):
        s = spec(4, seed=2)
        rng = np.random.default_rng(3)
        elements = rng.integers(0, s.shape.domain_size, size=500, dtype=np.uint64)
        for counts in (None, np.full(500, -3, dtype=np.int64)):
            via_plan, via_sketch = s.build(), s.build()
            via_plan.update_batch(elements, counts, plan="auto")
            via_sketch.update_batch(elements, counts, plan=None)
            assert np.array_equal(via_plan.counters, via_sketch.counters)

    def test_scan_flood_bypass_still_exact(self):
        """A batch that trips the bypass heuristic must fall back to the
        per-sketch path, not drop updates."""
        s = spec(4, seed=21)
        plan = HashPlan(s.hashes(), s.shape, cache_size=32)
        rng = np.random.default_rng(22)
        elements = rng.permutation(s.shape.domain_size)[: STACKED_HASH_MAX + 500]
        elements = elements.astype(np.uint64)  # all distinct: a scan
        via_plan, via_sketch = s.build(), s.build()
        via_plan.update_batch(elements, plan=plan)
        via_sketch.update_batch(elements, plan=None)
        assert np.array_equal(via_plan.counters, via_sketch.counters)
        assert plan.stats().bypasses >= 1

    def test_ingest_batch_bit_identical(self):
        s = spec(8, seed=4)
        rng = np.random.default_rng(5)
        elements, counts = mixed_workload(rng, 4000, 1 << 12)
        via_plan, via_sketch = s.build(), s.build()
        applied_plan = via_plan.ingest_batch(elements, counts, plan="auto")
        applied_sketch = via_sketch.ingest_batch(elements, counts, plan=None)
        assert applied_plan == applied_sketch
        assert np.array_equal(via_plan.counters, via_sketch.counters)

    @pytest.mark.parametrize(
        "workload,num_streams,domain",
        [
            (mixed_workload, 2, 1 << 10),
            (zipf_unit_workload, 3, SHAPE.domain_size),
        ],
        ids=["mixed", "zipf-deletions"],
    )
    def test_engines_bit_identical(self, workload, num_streams, domain):
        """StreamEngine on the plan path agrees with the legacy path,
        across several flushes per stream."""
        from repro.streams.engine import StreamEngine
        from repro.streams.updates import Update

        s = spec(8, seed=6)
        rng = np.random.default_rng(8)
        updates = [
            Update(f"S{int(which)}", int(element), int(delta))
            for which, (element, delta) in zip(
                rng.integers(0, num_streams, size=3000),
                zip(*workload(rng, 3000, domain)),
            )
        ]
        reference = StreamEngine(s, batch_size=256, use_plan=False)
        reference.process_many(updates)
        planned = StreamEngine(s, batch_size=256, use_plan=True)
        planned.process_many(updates)
        assert reference.stream_names() == planned.stream_names()
        for name in reference.stream_names():
            assert np.array_equal(
                planned.family(name).counters, reference.family(name).counters
            )


class TestCacheIsolation:
    def test_cache_never_leaks_across_different_coins(self):
        """Two specs differing only in seed must see independent plans —
        and produce each its own correct counters even when their caches
        are exercised with the same elements, interleaved."""
        spec_a, spec_b = spec(6, seed=100), spec(6, seed=200)
        plan_a, plan_b = plan_for(spec_a), plan_for(spec_b)
        assert plan_a is not plan_b
        assert plan_for(spec_a) is plan_a  # memoised per spec

        rng = np.random.default_rng(9)
        elements = rng.integers(0, SHAPE.domain_size, size=300, dtype=np.uint64)
        fam_a, fam_b = spec_a.build(), spec_b.build()
        ref_a, ref_b = spec_a.build(), spec_b.build()
        for _ in range(3):  # interleave: same elements through both caches
            fam_a.update_batch(elements, plan="auto")
            fam_b.update_batch(elements, plan="auto")
            ref_a.update_batch(elements, plan=None)
            ref_b.update_batch(elements, plan=None)
        assert np.array_equal(fam_a.counters, ref_a.counters)
        assert np.array_equal(fam_b.counters, ref_b.counters)
        # Different coins ⇒ different rows for the same element.
        rows_a = plan_a.compute_rows(elements[:8])
        rows_b = plan_b.compute_rows(elements[:8])
        assert not np.array_equal(rows_a, rows_b)

    def test_equal_specs_share_one_plan(self):
        assert plan_for(spec(6, seed=300)) is plan_for(spec(6, seed=300))

    def test_foreign_plan_rejected(self):
        other = spec(6, seed=400)
        family = spec(6, seed=401).build()
        with pytest.raises(IncompatibleSketchesError):
            family.update_batch(
                np.asarray([1], dtype=np.uint64), plan=HashPlan(other.hashes(), other.shape)
            )


class TestPlanBehaviour:
    def test_domain_error_preserved(self):
        family = spec(4, seed=1).build()
        too_big = np.asarray([SHAPE.domain_size], dtype=np.uint64)
        with pytest.raises(DomainError):
            family.update_batch(too_big, plan="auto")
        with pytest.raises(DomainError):
            family.update_batch(too_big, plan=None)

    def test_bad_plan_string_rejected(self):
        family = spec(4, seed=1).build()
        with pytest.raises(ValueError):
            family.update_batch(np.asarray([1], dtype=np.uint64), plan="bogus")

    def test_lru_evicts_oldest(self):
        s = spec(2, seed=15)
        plan = HashPlan(s.hashes(), s.shape, cache_size=4)
        # Batches stay below capacity: a whole-capacity miss burst is
        # deliberately not inserted (anti-pollution guard).
        plan.scatter_rows(np.arange(3, dtype=np.uint64))
        plan.scatter_rows(np.asarray([3, 4], dtype=np.uint64))  # evicts 0
        stats = plan.stats()
        assert stats.evictions == 1
        assert stats.entries == 4
        plan.scatter_rows(np.asarray([0], dtype=np.uint64))  # 0 is a miss again
        assert plan.stats().misses == 6

    def test_stats_rates_and_json(self):
        """The snapshot's derived rates, and the JSON keys the end-to-end
        benchmark reads."""
        s = spec(2, seed=14)
        plan = HashPlan(s.hashes(), s.shape, cache_size=16)
        assert plan.stats().hit_rate == 0.0
        plan.scatter_rows(np.arange(3, dtype=np.uint64))
        plan.scatter_rows(np.arange(2, dtype=np.uint64))
        stats = plan.stats()
        assert stats.lookups == 5
        assert stats.hit_rate == pytest.approx(0.4)
        payload = stats.to_json_dict()
        assert {"hits", "misses", "hash_seconds", "scatter_seconds"} <= set(payload)
        assert payload["hits"] == 2 and payload["misses"] == 3
        assert payload["hash_seconds"] > 0.0

    def test_clear_cache_and_reset_stats(self):
        s = spec(2, seed=16)
        plan = HashPlan(s.hashes(), s.shape, cache_size=16)
        plan.scatter_rows(np.arange(8, dtype=np.uint64))
        assert plan.stats().entries == 8
        plan.clear_cache()
        assert plan.stats().entries == 0
        plan.reset_stats()
        empty = plan.stats()
        assert empty.lookups == 0 and empty.hash_seconds == 0.0

    def test_validation(self):
        s = spec(2, seed=17)
        with pytest.raises(ValueError):
            HashPlan([], SHAPE)
        with pytest.raises(ValueError):
            HashPlan(s.hashes(), SHAPE, cache_size=-1)
        wrong_shape = SketchShape(domain_bits=20, num_second_level=4, independence=4)
        with pytest.raises(IncompatibleSketchesError):
            HashPlan(s.hashes(), wrong_shape)

    def test_threaded_sharing_stays_exact(self):
        """Concurrent families hammering one plan (servers in threads
        sharing ``plan_for``'s plan) must not corrupt cached rows."""
        from concurrent.futures import ThreadPoolExecutor

        s = spec(4, seed=18)
        plan = HashPlan(s.hashes(), s.shape, cache_size=64)  # tiny: evicts hard
        rng = np.random.default_rng(19)
        batches = [
            mixed_workload(np.random.default_rng(seed), 300, 1 << 8)
            for seed in range(12)
        ]
        families = [s.build() for _ in range(4)]
        references = [s.build() for _ in range(4)]

        def work(index):
            family = families[index]
            for elements, counts in batches:
                family.update_batch(elements, counts, plan=plan)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(4)))
        for reference in references:
            for elements, counts in batches:
                reference.update_batch(elements, counts, plan=None)
        for family, reference in zip(families, references):
            assert np.array_equal(family.counters, reference.counters)
