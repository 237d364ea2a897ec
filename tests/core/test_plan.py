"""Tests for the shared hash-plan layer (:mod:`repro.core.plan`).

The load-bearing property is *exactness*: the compiled hash-and-scatter
kernel, its numpy oracle and the per-sketch
:meth:`~repro.core.sketch.TwoLevelHashSketch.update_batch` must leave
counters, bucket totals and touched levels bit-identical on any
workload and any shape — the plan reorganises identical integer
arithmetic, never approximates it.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.core import _kernel
from repro.core.family import SketchSpec
from repro.core.plan import HashPlan, plan_for
from repro.core.sketch import SketchShape
from repro.errors import DomainError, IncompatibleSketchesError
from repro.hashing.lsb import lsb_array

SHAPE = SketchShape(domain_bits=20, num_second_level=8, independence=4)
#: The end-to-end benchmark's spec shape: r=128, s=8, t=6.
E2E_SHAPE = SketchShape(domain_bits=20, num_second_level=8, independence=6)


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


def per_sketch_reference(s: SketchSpec, batches):
    """Counters, bucket totals and touched levels from the per-sketch
    path: every member sketch updated on its own, aggregates re-derived."""
    family = s.build()
    touched = np.zeros(s.shape.num_levels, dtype=bool)
    for elements, counts in batches:
        for index, hashes in enumerate(s.hashes()):
            family.sketch(index).update_batch(elements, counts)
            touched[lsb_array(hashes.first_level(elements))] = True
    family.refresh_aggregates()
    return family.counters, family.level_totals(), touched


def apply_batches(family, batches, method: str = "update_batch"):
    for elements, counts in batches:
        getattr(family, method)(elements, counts)
    return family


def assert_three_way_identical(s: SketchSpec, batches, method="update_batch"):
    """Kernel, numpy oracle and per-sketch path agree bit for bit."""
    via_kernel = apply_batches(s.build(), batches, method)
    lib = _kernel.LIB
    _kernel.LIB = None
    try:
        via_oracle = apply_batches(s.build(), batches, method)
    finally:
        _kernel.LIB = lib
    counters, totals, touched = per_sketch_reference(s, batches)
    for family in (via_kernel, via_oracle):
        assert np.array_equal(family.counters, counters)
        assert np.array_equal(family.level_totals(), totals)
    assert np.array_equal(
        via_kernel.level_dirty_versions(), via_oracle.level_dirty_versions()
    )
    assert via_kernel.version == via_oracle.version
    dirty = via_kernel.level_dirty_versions() > 0
    if method == "update_batch":  # ingest_batch drops cancelled elements
        assert np.array_equal(dirty, touched)
    return via_kernel


class TestRowExactness:
    @pytest.mark.parametrize("n", [1, 10, 100, 1536, 1537, 5000])
    def test_compute_rows_matches_per_sketch_hashing(self, n):
        """The oracle's stacked rows equal per-sketch hashing."""
        s = spec(6, seed=3)
        plan = HashPlan(s.hashes(), s.shape)
        rng = np.random.default_rng(n)
        elements = rng.integers(0, s.shape.domain_size, size=n, dtype=np.uint64)
        rows, keys = plan._hash_rows(elements)

        shape = s.shape
        for k, hashes in enumerate(s.hashes()):
            levels = lsb_array(hashes.first_level(elements))
            assert np.array_equal(keys[:, k], k * shape.num_levels + levels)
            bits = hashes.second_level.bits(elements)  # (n, s)
            for j in range(shape.num_second_level):
                expected = (
                    (k * shape.num_levels + levels) * shape.num_second_level + j
                ) * 2 + bits[:, j]
                got = rows[:, k * shape.num_second_level + j]
                assert np.array_equal(got, expected)


class TestMaintenanceEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [10, 1000, 5000])
    def test_update_batch_bit_identical(self, seed, n):
        """Randomised mixed insert/delete workloads."""
        s = spec(8, seed=seed)
        rng = np.random.default_rng(100 + seed)
        assert_three_way_identical(
            s, [mixed_workload(rng, n, s.shape.domain_size) for _ in range(2)]
        )

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
        assert_three_way_identical(s, [mixed_workload(rng, 3000, shape.domain_size)])

    def test_unweighted_and_uniform_batches(self):
        s = spec(4, seed=2)
        rng = np.random.default_rng(3)
        elements = rng.integers(0, s.shape.domain_size, size=500, dtype=np.uint64)
        for counts in (None, np.full(500, -3, dtype=np.int64)):
            assert_three_way_identical(s, [(elements, counts)])

    def test_ingest_batch_bit_identical(self):
        s = spec(8, seed=4)
        rng = np.random.default_rng(5)
        batches = [mixed_workload(rng, 4000, 1 << 12) for _ in range(3)]
        assert_three_way_identical(s, batches, method="ingest_batch")
        applied = [s.build().ingest_batch(e, c) for e, c in batches]
        assert applied == [np.count_nonzero(np.bincount(e.astype(np.int64), c)) for e, c in batches]

    def test_e2e_shape_bit_identical(self):
        """r=128, s=8, t=6 with Zipf(1.2) traffic, 30% deletions."""
        s = spec(128, seed=5, shape=E2E_SHAPE)
        rng = np.random.default_rng(11)
        batches = [zipf_unit_workload(rng, 2048, s.shape.domain_size) for _ in range(2)]
        assert_three_way_identical(s, batches)
        assert_three_way_identical(s, batches, method="ingest_batch")

    def test_duplicates_within_a_batch(self):
        s = spec(8, seed=8)
        rng = np.random.default_rng(12)
        hot = rng.integers(0, s.shape.domain_size, size=5, dtype=np.uint64)
        elements = np.repeat(hot, 40)
        counts = rng.choice(np.asarray([-1, 1, 2], dtype=np.int64), elements.size)
        assert_three_way_identical(s, [(elements, counts), (elements, None)])
        assert_three_way_identical(s, [(elements, counts)], method="ingest_batch")

    def test_counts_near_int64_limits_wrap(self):
        """Counts near ±2^62 overflow int64 and wrap like numpy's adds."""
        s = spec(6, seed=9)
        elements = np.asarray([1, 1, 2, 3, 3, 3], dtype=np.uint64)
        counts = np.asarray(
            [2**62, 2**62, -(2**62) + 5, 2**62 - 1, 2**62, -3], dtype=np.int64
        )
        family = assert_three_way_identical(s, [(elements, counts)] * 3)
        assert family.counters.min() < -(2**62)  # it really wrapped

    @pytest.mark.parametrize("view", ["prefix", "slice"])
    def test_family_views(self, view):
        """Updates through a prefix/slice view land in the parent's
        storage exactly where the view's own spec puts them."""
        s = spec(10, seed=13)
        rng = np.random.default_rng(14)
        batch = mixed_workload(rng, 800, s.shape.domain_size)
        results = []
        for lib in (_kernel.LIB, None):
            saved, _kernel.LIB = _kernel.LIB, lib
            try:
                parent = s.build()
                child = parent.prefix(6) if view == "prefix" else parent.slice(3, 8)
                apply_batches(child, [batch])
            finally:
                _kernel.LIB = saved
            results.append((parent.counters.copy(), child))
        counters, totals, _ = per_sketch_reference(child.spec, [batch])
        for parent_counters, child in results:
            assert np.array_equal(child.counters, counters)
            assert np.array_equal(child.level_totals(), totals)
            rows = slice(0, 6) if view == "prefix" else slice(3, 8)
            outside = np.ones(10, dtype=bool)
            outside[rows] = False
            assert not parent_counters[outside].any()
        assert np.array_equal(results[0][0], results[1][0])

    @pytest.mark.parametrize(
        "workload,num_streams,domain",
        [
            (mixed_workload, 2, 1 << 10),
            (zipf_unit_workload, 3, SHAPE.domain_size),
        ],
        ids=["mixed", "zipf-deletions"],
    )
    def test_engines_bit_identical(self, workload, num_streams, domain, monkeypatch):
        """A StreamEngine on the kernel agrees with one on the numpy
        oracle and with per-sketch references, across several flushes."""
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
        kernel = StreamEngine(s, batch_size=256)
        kernel.process_many(updates)
        monkeypatch.setattr(_kernel, "LIB", None)
        oracle = StreamEngine(s, batch_size=256)
        oracle.process_many(updates)
        assert kernel.stream_names() == oracle.stream_names()
        for name in kernel.stream_names():
            mine = [u for u in updates if u.stream == name]
            batch = (
                np.asarray([u.element for u in mine], dtype=np.uint64),
                np.asarray([u.delta for u in mine], dtype=np.int64),
            )
            counters, totals, _ = per_sketch_reference(s, [batch])
            for engine in (kernel, oracle):
                assert np.array_equal(engine.family(name).counters, counters)
                assert np.array_equal(engine.family(name).level_totals(), totals)


class TestCacheIsolation:
    def test_cache_never_leaks_across_different_coins(self):
        """Two specs differing only in seed get independent plans, and
        each family its own correct counters from the same elements."""
        spec_a, spec_b = spec(6, seed=100), spec(6, seed=200)
        plan_a, plan_b = plan_for(spec_a), plan_for(spec_b)
        assert plan_a is not plan_b
        assert plan_for(spec_a) is plan_a  # memoised per spec

        rng = np.random.default_rng(9)
        elements = rng.integers(0, SHAPE.domain_size, size=300, dtype=np.uint64)
        for s in (spec_a, spec_b):
            assert_three_way_identical(s, [(elements, None)] * 3)
        # Different coins ⇒ different rows for the same element.
        rows_a, _ = plan_a._hash_rows(elements[:8])
        rows_b, _ = plan_b._hash_rows(elements[:8])
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
    def test_domain_error_preserved(self, monkeypatch):
        family = spec(4, seed=1).build()
        too_big = np.asarray([SHAPE.domain_size], dtype=np.uint64)
        with pytest.raises(DomainError):
            family.update_batch(too_big)
        with pytest.raises(DomainError):
            family.ingest_batch(too_big)
        monkeypatch.setattr(_kernel, "LIB", None)
        with pytest.raises(DomainError):
            family.update_batch(too_big)
        assert not family.counters.any() and family.version == 0

    def test_bad_plan_string_rejected(self):
        family = spec(4, seed=1).build()
        for bad in ("bogus", None):
            with pytest.raises(ValueError):
                family.update_batch(np.asarray([1], dtype=np.uint64), plan=bad)

    def test_stats_rates_and_json(self):
        """The snapshot's counters, and the JSON keys the end-to-end
        benchmark reads (kernel time is charged to ``hash_seconds``)."""
        s = spec(2, seed=14)
        plan = HashPlan(s.hashes(), s.shape)
        family = s.build()
        assert plan.stats().hash_seconds == 0.0
        family.update_batch(np.arange(3, dtype=np.uint64), plan=plan)
        family.update_batch(np.arange(2, dtype=np.uint64), plan=plan)
        stats = plan.stats()
        payload = stats.to_json_dict()
        assert set(payload) == {"hash_seconds", "scatter_seconds"}
        assert payload["hash_seconds"] > 0.0
        plan.reset_stats()
        assert plan.stats() == type(stats)()

    def test_validation(self):
        s = spec(2, seed=17)
        with pytest.raises(ValueError):
            HashPlan([], SHAPE)
        wrong_shape = SketchShape(domain_bits=20, num_second_level=4, independence=4)
        with pytest.raises(IncompatibleSketchesError):
            HashPlan(s.hashes(), wrong_shape)

    def test_threaded_sharing_stays_exact(self):
        """Concurrent families sharing one plan stay exact: the kernel
        runs without the GIL, so the calls genuinely overlap."""
        from concurrent.futures import ThreadPoolExecutor

        s = spec(4, seed=18)
        plan = plan_for(s)
        batches = [
            mixed_workload(np.random.default_rng(seed), 300, 1 << 8)
            for seed in range(12)
        ]
        families = [s.build() for _ in range(4)]

        def work(index):
            for elements, counts in batches:
                families[index].update_batch(elements, counts, plan=plan)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(4)))
        counters, totals, _ = per_sketch_reference(s, batches)
        for family in families:
            assert np.array_equal(family.counters, counters)
            assert np.array_equal(family.level_totals(), totals)


class TestKernelLoader:
    @pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
    def test_kernel_loaded_where_a_compiler_exists(self):
        assert _kernel.LIB is not None

    def test_no_compiler_falls_back_to_numpy(self, tmp_path, monkeypatch):
        """Without a compiler the loader yields ``None`` — no exception —
        and maintenance on the fallback still matches the per-sketch path."""
        source = tmp_path / "pkg" / "_kernel.c"
        source.parent.mkdir()
        source.write_bytes(_kernel._SOURCE.read_bytes() + b"\n/* uncached */\n")

        def no_compiler(*args, **kwargs):
            raise FileNotFoundError("gcc")

        monkeypatch.setattr(_kernel, "_SOURCE", source)
        monkeypatch.setattr(_kernel.subprocess, "run", no_compiler)
        monkeypatch.setattr(_kernel.tempfile, "gettempdir", lambda: str(tmp_path))
        fallback = _kernel._load()
        assert fallback is None
        monkeypatch.setattr(_kernel, "LIB", fallback)
        s = spec(8, seed=19)
        rng = np.random.default_rng(20)
        batch = mixed_workload(rng, 1000, s.shape.domain_size)
        family = apply_batches(s.build(), [batch])
        counters, totals, _ = per_sketch_reference(s, [batch])
        assert np.array_equal(family.counters, counters)
        assert np.array_equal(family.level_totals(), totals)

    def test_hung_compiler_falls_back_without_retrying(self, tmp_path, monkeypatch):
        """A build that outlasts its timeout counts as no compiler: the
        loader gives up at once instead of trying a second build."""
        source = tmp_path / "pkg" / "_kernel.c"
        source.parent.mkdir()
        source.write_bytes(_kernel._SOURCE.read_bytes() + b"\n/* hung */\n")
        calls = []

        def hung_compiler(command, **kwargs):
            calls.append(kwargs.get("timeout"))
            raise _kernel.subprocess.TimeoutExpired(command, kwargs["timeout"])

        monkeypatch.setattr(_kernel, "_SOURCE", source)
        monkeypatch.setattr(_kernel.subprocess, "run", hung_compiler)
        assert _kernel._load() is None
        assert calls == [_kernel._BUILD_TIMEOUT_S]

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
    def test_cached_library_is_reused(self, tmp_path, monkeypatch):
        """The first load compiles into ``__pycache__``; later loads only
        open the cached file and never run the compiler again."""
        source = tmp_path / "pkg" / "_kernel.c"
        source.parent.mkdir()
        source.write_bytes(_kernel._SOURCE.read_bytes())
        monkeypatch.setattr(_kernel, "_SOURCE", source)
        assert _kernel._load() is not None
        built = list((source.parent / "__pycache__").iterdir())
        assert len(built) == 1 and built[0].name.startswith("_kernel-")

        def no_compiler(*args, **kwargs):
            raise AssertionError("the cached library should have been used")

        monkeypatch.setattr(_kernel.subprocess, "run", no_compiler)
        assert _kernel._load() is not None
