"""Unit tests for the wire-format v2 payload codec.

Bit-exactness is the contract: whatever encoding a negotiation permits,
decoding must reproduce the dense counter slab byte for byte, and any
malformed payload must raise :class:`CodecError` instead of folding
garbage into a coordinator.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _kernel
from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.errors import IncompatibleSketchesError
from repro.streams.net import codec

SHAPE = SketchShape(domain_bits=12, num_second_level=4, independence=4)
SPEC = SketchSpec(num_sketches=8, shape=SHAPE, seed=11)

CELLS = SPEC.counter_cells


def dense_with(nonzero: dict[int, int]) -> bytes:
    slab = np.zeros(CELLS, dtype="<i8")
    for index, value in nonzero.items():
        slab[index] = value
    return slab.tobytes()


def cells_of(payload: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The non-zero cells of a dense slab."""
    slab = np.frombuffer(payload, dtype="<i8")
    indices = np.flatnonzero(slab)
    return indices, slab[indices]


def encode(payload: bytes, allowed, **options) -> tuple[str, bytes]:
    """:func:`codec.encode_delta` of a dense slab's cells."""
    return codec.encode_delta(*cells_of(payload), CELLS, allowed, **options)


class TestNegotiation:
    def test_intersection_in_supported_order(self):
        picked = codec.negotiate_encodings(
            ["sparse", "dense+zlib", "made-up"],
            ("sparse+zlib", "sparse", "dense+zlib", "dense"),
        )
        assert picked == ("sparse", "dense+zlib", "dense")

    def test_dense_always_included(self):
        assert codec.negotiate_encodings([]) == ("dense",)
        assert "dense" in codec.negotiate_encodings(["sparse"])

    def test_dense_only_supported_side(self):
        picked = codec.negotiate_encodings(
            codec.PREFERRED_ENCODINGS, codec.DENSE_ONLY
        )
        assert picked == ("dense",)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "allowed",
        [
            codec.DENSE_ONLY,
            ("sparse",),
            ("dense+zlib",),
            ("sparse+zlib",),
            codec.PREFERRED_ENCODINGS,
        ],
    )
    @pytest.mark.parametrize("nonzero", [0, 1, 5, CELLS])
    def test_byte_exact_over_every_encoding(self, allowed, nonzero):
        rng = np.random.default_rng(nonzero * 31 + len(allowed))
        slab = np.zeros(CELLS, dtype="<i8")
        if nonzero:
            where = rng.choice(CELLS, size=nonzero, replace=False)
            slab[where] = rng.integers(
                -(2**62), 2**62, size=nonzero, dtype=np.int64
            )
        payload = slab.tobytes()
        encoding, blob = encode(payload, allowed)
        assert encoding in set(allowed) | {"dense"}
        assert codec.decode_dense(blob, encoding, CELLS) == payload

    def test_extreme_values_survive_zigzag(self):
        payload = dense_with(
            {0: -(2**63), 1: 2**63 - 1, 2: -1, CELLS - 1: 1}
        )
        for allowed in (("sparse",), ("sparse+zlib",)):
            encoding, blob = encode(payload, allowed)
            assert codec.decode_dense(blob, encoding, CELLS) == payload

    def test_fuzz_random_sparsity(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            slab = np.zeros(CELLS, dtype="<i8")
            nonzero = int(rng.integers(0, CELLS))
            where = rng.choice(CELLS, size=nonzero, replace=False)
            slab[where] = rng.integers(
                -(2**40), 2**40, size=nonzero, dtype=np.int64
            )
            payload = slab.tobytes()
            encoding, blob = encode(
                payload, codec.PREFERRED_ENCODINGS
            )
            assert codec.decode_dense(blob, encoding, CELLS) == payload

    def test_decode_accepts_memoryview(self):
        payload = dense_with({7: 3})
        encoding, blob = encode(payload, ("sparse",))
        assert (
            codec.decode_dense(memoryview(blob), encoding, CELLS) == payload
        )


@settings(max_examples=120, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, CELLS - 1),
        st.one_of(
            st.integers(-3, 3),
            st.integers(-(2**63), 2**63 - 1),
        ).filter(bool),
        max_size=300,
    ),
    st.sampled_from(
        [
            codec.DENSE_ONLY,
            ("sparse",),
            ("dense+zlib",),
            ("sparse+zlib",),
            codec.PREFERRED_ENCODINGS,
        ]
    ),
)
def test_cells_blob_cells_round_trip(cells, allowed):
    """Cells → blob → cells is the identity for every encoding a
    session may allow, and the blob never outgrows the dense slab."""
    indices = np.array(sorted(cells), dtype=np.int64)
    values = np.array([cells[i] for i in sorted(cells)], dtype=np.int64)
    encoding, blob = codec.encode_delta(indices, values, CELLS, allowed)
    assert encoding in set(allowed) | {"dense"}
    assert len(blob) <= 8 * CELLS
    decoded = codec.decode_cells(blob, encoding, CELLS)
    if decoded is None:  # dense-based: through the slab
        slab = np.frombuffer(codec.decode_dense(blob, encoding, CELLS), "<i8")
        decoded = np.flatnonzero(slab), slab[np.flatnonzero(slab)]
    assert decoded[0].tolist() == indices.tolist()
    assert decoded[1].tolist() == values.tolist()


class TestSizeChoice:
    def test_sparse_chosen_for_sparse_payload(self):
        payload = dense_with({3: 1, 100: -2, CELLS - 1: 7})
        encoding, blob = encode(
            payload, codec.PREFERRED_ENCODINGS
        )
        assert encoding.startswith("sparse")
        assert len(blob) < len(payload)

    def test_dense_fallback_never_larger_than_v1(self):
        # A fully dense random slab: the sparse form is strictly larger,
        # so the codec must fall back to (possibly zipped) dense.
        rng = np.random.default_rng(3)
        slab = rng.integers(-(2**62), 2**62, size=CELLS, dtype=np.int64)
        payload = slab.astype("<i8").tobytes()
        encoding, blob = encode(
            payload, codec.PREFERRED_ENCODINGS
        )
        assert len(blob) <= len(payload)
        assert codec.decode_dense(blob, encoding, CELLS) == payload

    def test_disallowed_encodings_never_produced(self):
        payload = dense_with({3: 1})
        encoding, _ = encode(payload, codec.DENSE_ONLY)
        assert encoding == "dense"
        encoding, _ = encode(payload, ("dense", "dense+zlib"))
        assert encoding in ("dense", "dense+zlib")

    def test_zlib_dropped_when_it_does_not_shrink(self):
        # A tiny sparse body barely compresses; whatever wins must never
        # exceed the un-zipped sparse form.
        payload = dense_with({0: 1})
        _, sparse_blob = encode(payload, ("sparse",))
        _, best_blob = encode(
            payload, ("sparse", "sparse+zlib")
        )
        assert len(best_blob) <= len(sparse_blob)


class TestMalformedPayloads:
    def test_unknown_encoding_rejected(self):
        with pytest.raises(codec.CodecError, match="unknown"):
            codec.decode_dense(b"", "brotli", CELLS)

    def test_wrong_dense_length_rejected(self):
        with pytest.raises(codec.CodecError, match="expected"):
            codec.decode_dense(b"\x00" * 16, "dense", CELLS)

    def test_truncated_sparse_rejected(self):
        _, blob = encode(dense_with({5: 9, 6: 2}), ("sparse",))
        with pytest.raises(codec.CodecError):
            codec.decode_dense(blob[:-1], "sparse", CELLS)

    def test_trailing_bytes_rejected(self):
        _, blob = encode(dense_with({5: 9}), ("sparse",))
        with pytest.raises(codec.CodecError):
            codec.decode_dense(blob + b"\x00", "sparse", CELLS)

    def test_count_beyond_slab_rejected(self):
        blob = struct.pack(">I", CELLS + 1)
        with pytest.raises(codec.CodecError, match="claims"):
            codec.decode_sparse_cells(blob, CELLS)

    def test_indices_beyond_slab_rejected(self):
        blob = codec.encode_sparse_cells(
            np.array([CELLS - 1]), np.array([5])
        )
        with pytest.raises(codec.CodecError, match="exceed"):
            codec.decode_sparse_cells(blob, CELLS - 1)

    def test_wraparound_gap_rejected(self):
        # A 2^64-1 gap must not wrap the reconstruction arithmetic: it
        # would turn the second step into 0, yielding duplicate indices
        # [5, 5] whose last element passes the final bound — and the
        # payload would then fold differently through the scatter path
        # (one addend wins) than through the dense path.
        gaps = np.array([5, np.iinfo(np.uint64).max], dtype=np.uint64)
        blob = (
            struct.pack(">I", 2)
            + codec._varint_encode(gaps)
            + codec._varint_encode(
                codec._zigzag(np.array([7, 9], dtype=np.int64))
            )
        )
        with pytest.raises(codec.CodecError, match="exceed"):
            codec.decode_sparse_cells(blob, CELLS)
        with pytest.raises(codec.CodecError, match="exceed"):
            codec.decode_dense(blob, "sparse", CELLS)

    def test_varint_overflow_rejected(self):
        # An 11-byte continuation run cannot encode any 64-bit value.
        blob = struct.pack(">I", 1) + b"\xff" * 11 + b"\x00"
        with pytest.raises(codec.CodecError):
            codec.decode_sparse_cells(blob, CELLS)

    def test_corrupt_zlib_rejected(self):
        with pytest.raises(codec.CodecError, match="zlib"):
            codec.decode_dense(b"not zlib at all", "sparse+zlib", CELLS)

    def test_zlib_bomb_rejected(self):
        # A stream inflating far past the slab size must be refused
        # without materialising the inflated body.
        bomb = zlib.compress(b"\x00" * (8 * CELLS * 64), 9)
        with pytest.raises(codec.CodecError, match="inflates"):
            codec.decode_dense(bomb, "dense+zlib", CELLS)


def on_both_paths(function, *args):
    """``function(*args)`` on the compiled kernel and on the numpy
    oracle; each outcome is its result or its ``CodecError`` message."""
    outcomes = []
    for lib in (_kernel.LIB, None):
        saved, _kernel.LIB = _kernel.LIB, lib
        try:
            outcomes.append(function(*args))
        except codec.CodecError as exc:
            outcomes.append(("CodecError", str(exc)))
        finally:
            _kernel.LIB = saved
    return outcomes


def same_outcome(kernel, oracle) -> bool:
    if isinstance(kernel, tuple) and len(kernel) == 2 and isinstance(kernel[0], np.ndarray):
        return all(np.array_equal(a, b) for a, b in zip(kernel, oracle))
    return kernel == oracle


_VALUES = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1, 2**62, -(2**62)]),
)
_SLABS = st.dictionaries(st.integers(0, CELLS - 1), _VALUES, max_size=200)


@pytest.mark.skipif(_kernel.LIB is None, reason="compiled kernel not loaded")
class TestKernelMatchesOracle:
    """The compiled sparse codec against its numpy oracle."""

    @settings(max_examples=150, deadline=None)
    @given(_SLABS)
    def test_sparse_body_byte_identical(self, cells):
        indices, values = cells_of(dense_with(cells))
        kernel, oracle = on_both_paths(codec._sparse_body, indices, values)
        assert kernel == oracle
        assert kernel == codec.encode_sparse_cells(indices, values)

    @settings(max_examples=150, deadline=None)
    @given(_SLABS)
    def test_decode_identical(self, cells):
        body = codec._sparse_body(*cells_of(dense_with(cells)))
        kernel, oracle = on_both_paths(codec.decode_sparse_cells, body, CELLS)
        assert same_outcome(kernel, oracle)
        assert kernel[0].tolist() == sorted(i for i, v in cells.items() if v)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6), st.binary(max_size=40), st.integers(1, 2**40))
    def test_random_bytes_decode_identically(self, count, data, num_cells):
        """Arbitrary bodies: the same cells, or the same error."""
        blob = struct.pack(">I", count) + data
        kernel, oracle = on_both_paths(codec.decode_sparse_cells, blob, num_cells)
        assert same_outcome(kernel, oracle)

    @pytest.mark.parametrize(
        "count,body,match",
        [
            (2, bytes([5, 1, 14]), "holds 3 values, expected 4"),  # truncated
            (1, bytes([5, 0x80]), "holds 1 values, expected 2"),  # cut mid-run
            (1, b"", "is empty"),
            (0, b"\x00", "trailing bytes"),
            (1, bytes([5, 14, 0]), "holds 3 values, expected 2"),  # trailing
            (1, b"\xff" * 10 + b"\x00" + b"\x02", "longer than 10"),
            (1, b"\xff" * 9 + b"\x02" + b"\x02", "overflows 64 bits"),
            (1, bytes([0x80, 0x10]) + b"\x02", "exceed the counter slab"),  # gap 2048
            (2, bytes([0xFF, 0x0F, 0x00, 2, 2]), "exceed the counter slab"),  # last
            # Precedence: a later framing error beats an earlier overflow.
            (1, b"\xff" * 9 + b"\x02", "holds 1 values, expected 2"),
            # A later 11-byte run beats an earlier overflow.
            (1, b"\xff" * 9 + b"\x02" + b"\xff" * 10 + b"\x00", "longer than 10"),
        ],
        ids=[
            "truncated",
            "cut-mid-run",
            "empty",
            "zero-count-trailing",
            "trailing",
            "11-byte-run",
            "overflow",
            "gap-beyond-slab",
            "last-index-beyond-slab",
            "framing-first",
            "long-before-overflow",
        ],
    )
    def test_malformed_bodies_raise_the_same_error(self, count, body, match):
        blob = struct.pack(">I", count) + body
        kernel, oracle = on_both_paths(codec.decode_sparse_cells, blob, 2048)
        assert kernel == oracle
        assert kernel[0] == "CodecError" and match in kernel[1]


class TestSparseSlabs:
    """The cells of several deltas in one sparse body: the
    retained-export file format of leaf checkpoints."""

    @staticmethod
    def assert_cells_equal(decoded, expected):
        assert len(decoded) == len(expected)
        for (indices, values), (want_indices, want_values) in zip(
            decoded, expected
        ):
            assert indices.tolist() == list(want_indices)
            assert values.tolist() == list(want_values)

    def test_round_trip_is_byte_exact(self):
        cell_sets = [
            cells_of(dense_with({0: 1, CELLS - 1: -3})),
            cells_of(dense_with({})),
            cells_of(dense_with({5: 2**40, 6: -(2**40)})),
        ]
        blob = codec.encode_cell_sets(cell_sets, CELLS)
        self.assert_cells_equal(
            codec.decode_cell_sets(blob, len(cell_sets), CELLS), cell_sets
        )
        # The file layout: delta k's cell i at flat index k * CELLS + i.
        assert blob == codec.encode_sparse_cells(
            np.array([0, CELLS - 1, 2 * CELLS + 5, 2 * CELLS + 6]),
            np.array([1, -3, 2**40, -(2**40)]),
        )

    def test_no_slabs(self):
        blob = codec.encode_cell_sets([], CELLS)
        assert codec.decode_cell_sets(blob, 0, CELLS) == []

    def test_cells_past_the_declared_slabs_rejected(self):
        blob = codec.encode_cell_sets(
            [cells_of(dense_with({})), cells_of(dense_with({3: 1}))], CELLS
        )
        with pytest.raises(codec.CodecError):
            codec.decode_cell_sets(blob, 1, CELLS)

    def test_truncated_body_rejected(self):
        blob = codec.encode_cell_sets([cells_of(dense_with({1: 7, 9: -1}))], CELLS)
        with pytest.raises(codec.CodecError):
            codec.decode_cell_sets(blob[:-1], 1, CELLS)


class TestFamilyCellHelpers:
    def test_nonzero_cells_round_trip(self):
        family = SPEC.build()
        family.update_batch(np.arange(50, dtype=np.uint64))
        indices, values = family.nonzero_cells()
        rebuilt = SPEC.build()
        rebuilt.add_cells(indices, values)
        assert rebuilt.to_bytes() == family.to_bytes()

    def test_add_cells_matches_merge(self):
        base = SPEC.build()
        base.update_batch(np.arange(30, dtype=np.uint64))
        delta = SPEC.build()
        delta.update_batch(np.arange(30, 60, dtype=np.uint64))
        expected = base.copy()
        expected.merge_in_place(delta)
        base.add_cells(*delta.nonzero_cells())
        assert base.to_bytes() == expected.to_bytes()

    def test_add_cells_rejects_out_of_range(self):
        family = SPEC.build()
        with pytest.raises(IncompatibleSketchesError):
            family.add_cells(np.array([SPEC.counter_cells]), np.array([1]))
        assert family.is_zero()

    def test_add_cells_rejects_unsorted_negative_middle(self):
        # Unsorted input must not slip a negative middle index past a
        # first/last-only check (it would wrap into the wrong cell).
        family = SPEC.build()
        with pytest.raises(IncompatibleSketchesError):
            family.add_cells(np.array([0, -3, 5]), np.array([1, 1, 1]))
        assert family.is_zero()

    def test_add_cells_rejects_unsorted_oversized_middle(self):
        family = SPEC.build()
        with pytest.raises(IncompatibleSketchesError):
            family.add_cells(
                np.array([0, SPEC.counter_cells + 1, 5]), np.array([1, 1, 1])
            )
        assert family.is_zero()

    def test_counter_cell_arithmetic(self):
        assert SPEC.counter_payload_bytes == 8 * SPEC.counter_cells
        assert len(SPEC.build().to_bytes()) == SPEC.counter_payload_bytes
