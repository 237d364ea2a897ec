"""Unit tests for sketch families (stacked synopses + shared coins)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _kernel
from repro.core.family import (
    SketchFamily,
    SketchSpec,
    _sum_cells_numpy,
    check_same_coins,
    sum_cells,
)
from repro.core.sketch import SketchShape
from repro.errors import DomainError, IncompatibleSketchesError

SHAPE = SketchShape(domain_bits=20, num_second_level=8, independence=4)


def spec(num_sketches: int = 8, seed: int = 0) -> SketchSpec:
    return SketchSpec(num_sketches=num_sketches, shape=SHAPE, seed=seed)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SketchSpec(num_sketches=0)

    def test_with_num_sketches_preserves_coins(self):
        original = spec(8, seed=5)
        resized = original.with_num_sketches(4)
        assert resized.seed == original.seed
        assert resized.shape == original.shape
        assert resized.num_sketches == 4

    def test_hashes_deterministic(self):
        assert spec(4, seed=7).hashes() == spec(4, seed=7).hashes()

    def test_hashes_differ_across_seeds(self):
        assert spec(4, seed=7).hashes() != spec(4, seed=8).hashes()

    def test_hashes_differ_across_indices(self):
        drawn = spec(4, seed=7).hashes()
        assert len({h.first_level for h in drawn}) == 4

    def test_prefix_stability_of_hash_derivation(self):
        """The first k hash functions never depend on the family size."""
        large = spec(16, seed=9).hashes()
        small = spec(4, seed=9).hashes()
        assert large[:4] == small


class TestFamilyStructure:
    def test_build_empty(self):
        family = spec(8).build()
        assert len(family) == 8
        assert family.is_empty()
        assert family.counters.shape == (8,) + SHAPE.counter_shape

    def test_sketch_views_share_memory(self):
        family = spec(4).build()
        view = family.sketch(0)
        view.update(1, 1)
        assert not family.is_empty()

    def test_iteration_yields_all_members(self):
        family = spec(5).build()
        assert len(list(family)) == 5

    def test_wrong_counters_shape_rejected(self):
        with pytest.raises(IncompatibleSketchesError):
            SketchFamily(spec(4), counters=np.zeros((3, 64, 8, 2), dtype=np.int64))


class TestFamilyMaintenance:
    def test_update_hits_every_member(self):
        family = spec(4).build()
        family.update(7, 1)
        for sketch in family:
            assert not sketch.is_empty()

    def test_family_batch_matches_per_sketch_batch(self):
        family = spec(4, seed=1).build()
        rng = np.random.default_rng(30)
        elements = rng.integers(0, 2**20, size=200, dtype=np.uint64)
        counts = rng.integers(1, 4, size=200)
        family.update_batch(elements, counts)
        for index in range(4):
            solo = spec(4, seed=1).build().sketch(index)
            solo.update_batch(elements, counts)
            assert family.sketch(index) == solo

    def test_scalar_and_batch_agree(self):
        a = spec(3, seed=2).build()
        b = spec(3, seed=2).build()
        elements = [5, 9, 5, 100]
        for element in elements:
            a.update(element, 1)
        b.update_batch(np.asarray(elements, dtype=np.uint64))
        assert a == b

    @pytest.mark.parametrize("path", ["kernel", "oracle"])
    def test_scalar_update_is_a_batch_of_one(self, path, monkeypatch):
        """``update`` equals ``update_batch`` for +/- counts — counters,
        level totals and per-member sketches — on the compiled kernel and
        on the numpy oracle."""
        if path == "oracle":
            monkeypatch.setattr(_kernel, "LIB", None)
        rng = np.random.default_rng(31)
        elements = rng.integers(0, 2**20, size=40, dtype=np.uint64)
        counts = rng.integers(-3, 4, size=40)
        scalar, batch = spec(6, seed=4).build(), spec(6, seed=4).build()
        for element, count in zip(elements.tolist(), counts.tolist()):
            scalar.update(element, count)
        batch.update_batch(elements, counts)
        assert scalar.counters.tobytes() == batch.counters.tobytes()
        assert np.array_equal(scalar.level_totals(), batch.level_totals())
        solo = spec(6, seed=4).build().sketch(2)
        for element, count in zip(elements.tolist(), counts.tolist()):
            solo.update(element, count)
        assert scalar.sketch(2) == solo

    @pytest.mark.parametrize("element", [-1, 2**20])
    def test_scalar_update_refuses_out_of_domain(self, element):
        family = spec(2).build()
        with pytest.raises(DomainError, match=f"element {element} outside"):
            family.update(element, 1)
        assert family.is_empty()

    def test_empty_batch_noop(self):
        family = spec(2).build()
        family.update_batch([])
        assert family.is_empty()


class TestPrefix:
    def test_prefix_equals_smaller_family(self):
        """A prefix view is indistinguishable from a family maintained at
        the smaller size all along (prefix-stable coins + shared data)."""
        large = spec(8, seed=3).build()
        small = spec(3, seed=3).build()
        rng = np.random.default_rng(31)
        elements = rng.integers(0, 2**20, size=500, dtype=np.uint64)
        large.update_batch(elements)
        small.update_batch(elements)
        assert large.prefix(3) == small

    def test_prefix_shares_counters(self):
        family = spec(4).build()
        prefix = family.prefix(2)
        family.update(1, 1)
        assert not prefix.is_empty()

    def test_prefix_bounds(self):
        family = spec(4).build()
        with pytest.raises(ValueError):
            family.prefix(0)
        with pytest.raises(ValueError):
            family.prefix(5)

    def test_full_prefix_is_equal(self):
        family = spec(4).build()
        family.update(9, 2)
        assert family.prefix(4) == family


class TestLevelAggregates:
    def test_level_totals_shape(self):
        family = spec(6).build()
        assert family.level_totals().shape == (6, 64)

    def test_level_totals_count_items(self):
        family = spec(4).build()
        family.update(7, 5)
        totals = family.level_totals()
        assert (totals.sum(axis=1) == 5).all()

    def test_level_slab_shape(self):
        family = spec(6).build()
        assert family.level_slab(3).shape == (6, 8, 2)


class TestFamilyAlgebra:
    def test_merge_linearity(self):
        whole = spec(4, seed=4).build()
        part_a = spec(4, seed=4).build()
        part_b = spec(4, seed=4).build()
        rng = np.random.default_rng(32)
        elements_a = rng.integers(0, 2**20, size=100, dtype=np.uint64)
        elements_b = rng.integers(0, 2**20, size=100, dtype=np.uint64)
        part_a.update_batch(elements_a)
        part_b.update_batch(elements_b)
        whole.update_batch(np.concatenate([elements_a, elements_b]))
        assert part_a.merged_with(part_b) == whole

    def test_merge_requires_same_spec(self):
        with pytest.raises(IncompatibleSketchesError):
            spec(4, seed=1).build().merged_with(spec(4, seed=2).build())

    def test_merge_in_place(self):
        a = spec(2).build()
        b = spec(2).build()
        a.update(1, 1)
        b.update(2, 1)
        merged = a.merged_with(b)
        a.merge_in_place(b)
        assert a == merged

    def test_copy_independent(self):
        a = spec(2).build()
        b = a.copy()
        a.update(1, 1)
        assert b.is_empty()

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(spec(2).build())


class TestFamilySerialisation:
    def test_roundtrip(self):
        family = spec(4, seed=6).build()
        family.update_batch(np.arange(50, dtype=np.uint64))
        restored = SketchFamily.from_bytes(family.to_bytes(), family.spec)
        assert restored == family

    def test_wrong_length_rejected(self):
        with pytest.raises(IncompatibleSketchesError):
            SketchFamily.from_bytes(b"123", spec(2))

    def test_restored_counters_writable(self):
        family = spec(2).build()
        restored = SketchFamily.from_bytes(family.to_bytes(), family.spec)
        restored.update(1, 1)


class TestCheckSameCoins:
    def test_accepts_matching(self):
        a = spec(2, seed=7).build()
        b = spec(2, seed=7).build()
        assert check_same_coins(a, b) == a.spec

    def test_rejects_mismatched_seed(self):
        with pytest.raises(IncompatibleSketchesError):
            check_same_coins(spec(2, seed=1).build(), spec(2, seed=2).build())

    def test_rejects_mismatched_size(self):
        with pytest.raises(IncompatibleSketchesError):
            check_same_coins(spec(2).build(), spec(3).build())

    def test_requires_at_least_one(self):
        with pytest.raises(ValueError):
            check_same_coins()


class TestDeltaPayload:
    """``delta_payload`` is diff_from + nonzero_cells + a fresh baseline
    copy, in one pass, on the kernel and on the numpy oracle."""

    @pytest.mark.parametrize("path", ["kernel", "oracle"])
    def test_matches_diff_and_advances_baseline(self, path, monkeypatch):
        from repro.core import _kernel

        if path == "oracle":
            monkeypatch.setattr(_kernel, "LIB", None)
        spec = SketchSpec(num_sketches=8, seed=3)
        rng = np.random.default_rng(4)
        family, baseline = spec.build(), spec.build()
        family.update_batch(rng.integers(0, 2**20, size=300, dtype=np.uint64))
        baseline.counters[:] = family.counters
        family.update_batch(
            rng.integers(0, 2**20, size=50, dtype=np.uint64),
            rng.integers(-3, 4, size=50),
        )
        family.counters[0, 0, 0, 0] = np.iinfo(np.int64).min  # wraps
        expected = family.diff_from(baseline).nonzero_cells()
        indices, values = family.delta_payload(baseline)
        assert indices.dtype == values.dtype == np.int64
        assert indices.tolist() == expected[0].tolist()
        assert values.tolist() == expected[1].tolist()
        assert np.array_equal(baseline.counters, family.counters)
        assert family.delta_payload(baseline) is None
        with pytest.raises(IncompatibleSketchesError):
            family.delta_payload(SketchSpec(num_sketches=8, seed=4).build())

    @pytest.mark.skipif(_kernel.LIB is None, reason="compiled kernel not loaded")
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 400),
        st.sampled_from([1, 3, 2**62, -(2**63)]),
    )
    def test_kernel_cells_byte_identical_to_oracle(self, seed, touched, scale):
        """The compiled diff_advance writes the very cells (dtype, order,
        wrapped values) the numpy oracle computes, and advances the
        baseline the same way."""
        spec = SketchSpec(num_sketches=4, seed=9)
        rng = np.random.default_rng(seed)
        current = rng.integers(-3, 4, size=spec.counter_cells) * scale
        previous = current.copy()
        where = rng.choice(spec.counter_cells, size=touched, replace=False)
        previous[where] += rng.integers(-(2**62), 2**62, size=touched)
        outcomes = []
        for lib in (_kernel.LIB, None):
            saved, _kernel.LIB = _kernel.LIB, lib
            try:
                shape = (spec.num_sketches,) + spec.shape.counter_shape
                family = SketchFamily(spec, current.reshape(shape).copy())
                baseline = SketchFamily(spec, previous.reshape(shape).copy())
                cells = family.delta_payload(baseline)
            finally:
                _kernel.LIB = saved
            assert np.array_equal(baseline.counters, family.counters)
            outcomes.append(
                None if cells is None
                else (cells[0].astype("<i8").tobytes(), cells[1].astype("<i8").tobytes())
            )
        assert outcomes[0] == outcomes[1]


def _cell_sets(draw_sets):
    """Hypothesis strategy: lists of sparse deltas over a 512-cell slab."""
    cells = st.dictionaries(
        st.integers(0, 511),
        st.one_of(
            st.integers(-3, 3).filter(bool),
            st.sampled_from([2**63 - 1, -(2**63), 1 - 2**63]),
        ),
        max_size=60,
    )
    return st.lists(cells, max_size=draw_sets)


def _as_cells(mapping):
    indices = np.array(sorted(mapping), dtype=np.int64)
    values = np.array([mapping[i] for i in sorted(mapping)], dtype=np.int64)
    return indices, values


class TestSumCells:
    """``sum_cells`` is the entrywise sum of sparse deltas, as cells."""

    @settings(max_examples=150, deadline=None)
    @given(_cell_sets(6))
    def test_equals_the_dense_sum(self, mappings):
        dense = np.zeros(512, dtype=np.int64)
        for mapping in mappings:
            for index, value in mapping.items():
                dense[index] = np.int64(
                    (int(dense[index]) + value + 2**63) % 2**64 - 2**63
                )
        indices, values = sum_cells([_as_cells(m) for m in mappings])
        assert indices.tolist() == np.flatnonzero(dense).tolist()
        assert values.tolist() == dense[indices].tolist()

    @pytest.mark.skipif(_kernel.LIB is None, reason="compiled kernel not loaded")
    @settings(max_examples=150, deadline=None)
    @given(_cell_sets(6))
    def test_kernel_byte_identical_to_oracle(self, mappings):
        cell_sets = [_as_cells(m) for m in mappings]
        kernel = sum_cells(cell_sets)
        oracle = _sum_cells_numpy(cell_sets)
        for got, want in zip(kernel, oracle):
            assert got.dtype == want.dtype == np.int64
            assert got.tobytes() == want.tobytes()

    def test_cancelling_deltas_leave_nothing(self):
        indices, values = sum_cells(
            [(np.array([2, 7]), np.array([5, -1])), (np.array([2, 7]), np.array([-5, 1]))]
        )
        assert indices.size == values.size == 0
