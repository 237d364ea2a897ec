"""Wire-format v2 payload codec: sparse counter deltas, varint-packed.

A delta export's counter payload is the diff of a
:class:`~repro.core.family.SketchFamily` since the site's previous
export.  Between exports only the counters touched by the exported
window's elements change, so the diff is *mostly zeros* — yet the v1
wire format ships the whole dense ``int64`` slab (~4 MiB per stream at
``r=512, s=16``) no matter how small the touch set was.  This module is
the fix: a compact encoding of exactly the non-zero cells, which is
also the form every delta takes in memory, from the site's export to
the root's fold (``(indices, values)``, see
:class:`~repro.streams.distributed.DeltaPayload`).

Encodings
---------

``dense``
    The v1 payload, byte for byte: the little-endian ``int64`` counter
    slab from :meth:`~repro.core.family.SketchFamily.to_bytes`.
``sparse``
    The non-zero cells as ``(flat_index, value)`` pairs::

        u32 count | count varints (index gaps) | count varints (zigzag values)

    Flat indices are strictly increasing, so they are stored as LEB128
    varint *gaps*: the first index absolute, every later one as
    ``index - previous - 1``.  Values are zigzag-mapped (delta counters
    can be negative) then varint-packed.  A handful of touched counters
    costs a couple of bytes each instead of its share of the slab.
``dense+zlib`` / ``sparse+zlib``
    The corresponding body wrapped in one zlib stream.  Decompression is
    bounded (:func:`decode_dense` refuses payloads that inflate past the
    expected slab size), so a hostile peer cannot zip-bomb a
    coordinator.

:func:`encode_delta` takes a delta's cells and picks *per payload by
measured size*: it encodes the sparse form when allowed, keeps whichever
base form is smaller (the dense size is known without building the
slab), and keeps the zlib layer only when it actually shrinks the
winner.  Every choice round-trips byte-exactly back to the dense slab
(:func:`decode_dense`) and to the cells (:func:`decode_cells`), so
folding a decoded delta is bit-identical to folding the v1 payload.

Which encodings a connection may use is *negotiated* in the
hello/welcome handshake (see :mod:`repro.streams.net.protocol`): the
site advertises what it can produce, the coordinator answers with the
allowed subset in its own preference order, and each delta blob is
tagged with the encoding it actually used.  A v1 peer advertises
nothing and transparently gets ``dense`` both directions.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable, Sequence

import numpy as np

from repro.core import _kernel
from repro.errors import ReproError

__all__ = [
    "WIRE_ENCODINGS",
    "PREFERRED_ENCODINGS",
    "DENSE_ONLY",
    "CodecError",
    "negotiate_encodings",
    "encode_delta",
    "decode_dense",
    "decode_cells",
    "encode_sparse_cells",
    "decode_sparse_cells",
    "encode_cell_sets",
    "decode_cell_sets",
]

#: Every encoding this build can decode (the superset any negotiation
#: draws from).
WIRE_ENCODINGS = ("dense", "sparse", "dense+zlib", "sparse+zlib")

#: Default advertisement/pick order: smallest expected wire size first.
PREFERRED_ENCODINGS = ("sparse+zlib", "sparse", "dense+zlib", "dense")

#: The v1 behaviour, as an explicit negotiation outcome.
DENSE_ONLY = ("dense",)

_COUNT = struct.Struct(">I")

#: A varint for a 64-bit value needs at most 10 bytes (ceil(64/7)).
_MAX_VARINT_BYTES = 10


class CodecError(ReproError, ValueError):
    """A payload violated the sparse wire encoding."""


#: Messages of the sparse decoders' errors past framing, keyed by the
#: compiled decoder's status codes.
_DECODE_ERRORS = {
    2: "varint longer than 10 bytes",
    3: "varint overflows 64 bits",
    4: "sparse payload indices exceed the counter slab",
    5: "sparse payload indices are not strictly increasing",
}


def negotiate_encodings(
    offered: Sequence[str], supported: Sequence[str] = PREFERRED_ENCODINGS
) -> tuple[str, ...]:
    """The coordinator's pick: offered ∩ supported, in *supported* order.

    ``dense`` is always part of the outcome — it is the mandatory
    fallback every peer can produce and decode, which is what makes the
    negotiation flag-day free.
    """
    offered_set = set(offered) | {"dense"}
    chosen = [name for name in supported if name in offered_set]
    if "dense" not in chosen:
        chosen.append("dense")
    return tuple(chosen)


# -- varint packing (vectorised) ----------------------------------------------


def _varint_encode(values: np.ndarray) -> bytes:
    """LEB128-pack a ``uint64`` array (concatenated, vectorised)."""
    n = int(values.size)
    if n == 0:
        return b""
    values = values.astype(np.uint64, copy=True)
    out = np.zeros((n, _MAX_VARINT_BYTES), dtype=np.uint8)
    nbytes = np.ones(n, dtype=np.int64)
    width = 1
    for i in range(_MAX_VARINT_BYTES):
        byte = (values & np.uint64(0x7F)).astype(np.uint8)
        values >>= np.uint64(7)
        more = values != 0
        out[:, i] = byte | (more.astype(np.uint8) << np.uint8(7))
        if not more.any():
            width = i + 1
            break
        nbytes[more] = i + 2
    else:  # pragma: no cover - unreachable: 10 groups exhaust 64 bits
        width = _MAX_VARINT_BYTES
    mask = np.arange(width)[None, :] < nbytes[:, None]
    return out[:, :width][mask].tobytes()


def _framing_error(data: np.ndarray, expected: int) -> CodecError:
    """The error for bytes that are not exactly ``expected`` varints."""
    if expected == 0:
        return CodecError("varint block has trailing bytes")
    if data.size == 0:
        return CodecError("varint block is empty")
    ends = int(np.count_nonzero(data < 0x80))
    return CodecError(f"varint block holds {ends} values, expected {expected}")


def _varint_decode(data: np.ndarray, expected: int) -> np.ndarray:
    """Decode exactly ``expected`` concatenated LEB128 varints.

    ``data`` is the raw ``uint8`` byte stream; anything malformed — a
    truncated trailing varint, a run longer than 10 bytes, or a 10-byte
    run whose final group overflows 64 bits — raises :class:`CodecError`.
    """
    if expected == 0:
        if data.size:
            raise _framing_error(data, expected)
        return np.zeros(0, dtype=np.uint64)
    is_last = (data & 0x80) == 0
    ends = np.flatnonzero(is_last)
    if ends.size != expected or ends[-1] != data.size - 1:
        raise _framing_error(data, expected)
    starts = np.empty(expected, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    if int(lengths.max()) > _MAX_VARINT_BYTES:
        raise CodecError(_DECODE_ERRORS[2])
    # A 10-byte varint's final 7-bit group may only carry the top bit.
    ten = starts[lengths == _MAX_VARINT_BYTES]
    if ten.size and int(data[ten + 9].max()) > 1:
        raise CodecError(_DECODE_ERRORS[3])
    value_id = np.zeros(data.size, dtype=np.int64)
    value_id[starts[1:]] = 1
    np.cumsum(value_id, out=value_id)
    pos = (np.arange(data.size) - starts[value_id]).astype(np.uint64)
    contrib = (data & 0x7F).astype(np.uint64) << (np.uint64(7) * pos)
    values = np.zeros(expected, dtype=np.uint64)
    np.bitwise_or.at(values, value_id, contrib)
    return values


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Map ``int64`` to ``uint64`` so small magnitudes stay small."""
    unsigned = values.astype(np.uint64)
    sign = (values >> np.int64(63)).astype(np.uint64)
    return (unsigned << np.uint64(1)) ^ sign


def _unzigzag(values: np.ndarray) -> np.ndarray:
    decoded = (values >> np.uint64(1)) ^ (
        np.uint64(0) - (values & np.uint64(1))
    )
    return decoded.view(np.int64)


# -- sparse body --------------------------------------------------------------


def encode_sparse_cells(indices: np.ndarray, values: np.ndarray) -> bytes:
    """Pack strictly-increasing flat ``indices`` and ``int64`` ``values``."""
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if indices.shape != values.shape:
        raise ValueError("indices and values must align")
    gaps = indices.astype(np.uint64, copy=True)
    if indices.size > 1:
        gaps[1:] = (np.diff(indices) - 1).astype(np.uint64)
    return b"".join(
        [
            _COUNT.pack(indices.size),
            _varint_encode(gaps),
            _varint_encode(_zigzag(values)),
        ]
    )


def decode_sparse_cells(
    payload, num_cells: int
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_sparse_cells`; validates strictly.

    Returns ``(indices, values)`` with indices strictly increasing and
    below ``num_cells``.  Raises :class:`CodecError` on any malformation
    — the coordinator treats that like any other protocol violation.
    Decodes in the compiled kernel when it loaded; the numpy decoder
    below is its oracle and raises the same errors for the same bytes.
    """
    payload = memoryview(payload)
    if len(payload) < _COUNT.size:
        raise CodecError("sparse payload too short for its cell count")
    (count,) = _COUNT.unpack_from(payload)
    if count > num_cells:
        raise CodecError(
            f"sparse payload claims {count} cells, slab has {num_cells}"
        )
    data = np.frombuffer(payload, dtype=np.uint8, offset=_COUNT.size)
    lib = _kernel.LIB
    if lib is None:
        return _decode_cells_numpy(data, count, num_cells)
    indices = np.empty(count, dtype=np.int64)
    values = np.empty(count, dtype=np.int64)
    status = lib.sparse_decode(
        data.ctypes.data,
        data.size,
        count,
        num_cells,
        indices.ctypes.data,
        values.ctypes.data,
    )
    if status == 1:
        raise _framing_error(data, 2 * count)
    if status:
        raise CodecError(_DECODE_ERRORS[status])
    return indices, values


def _decode_cells_numpy(
    data: np.ndarray, count: int, num_cells: int
) -> tuple[np.ndarray, np.ndarray]:
    packed = _varint_decode(data, 2 * count)
    gaps, zigzagged = packed[:count], packed[count:]
    # Bound the gaps BEFORE any arithmetic: every reconstructed index
    # must land below ``num_cells``, so no single gap may reach it.
    # Checking afterwards would not do — a hostile 2^64-1 gap wraps the
    # ``+ 1`` below back to a 0 step, producing duplicate indices whose
    # last element still satisfies the final bound.
    if count and int(gaps.max()) >= num_cells:
        raise CodecError(_DECODE_ERRORS[4])
    steps = gaps.copy()
    if count > 1:
        steps[1:] += np.uint64(1)
    indices = np.cumsum(steps).astype(np.int64)
    if count and int(indices[-1]) >= num_cells:
        raise CodecError(_DECODE_ERRORS[4])
    # Belt and braces: the gap bound makes wraparound impossible for any
    # representable slab, so reconstructed indices are strictly
    # increasing by construction — verify rather than assume.
    if count > 1 and not bool(np.all(np.diff(indices) > 0)):
        raise CodecError(_DECODE_ERRORS[5])
    return indices, _unzigzag(zigzagged)


# -- payload-level encode/decode ----------------------------------------------


def _sparse_body(indices: np.ndarray, values: np.ndarray) -> bytes:
    """The sparse body of one delta's cells: one compiled pass when the
    kernel loaded, :func:`encode_sparse_cells` (its oracle) otherwise."""
    lib = _kernel.LIB
    if lib is None:
        return encode_sparse_cells(indices, values)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.int64)
    nnz = int(indices.size)
    out = np.empty(_COUNT.size + 20 * nnz, dtype=np.uint8)
    _COUNT.pack_into(out, 0, nnz)
    size = lib.sparse_body(
        indices.ctypes.data, values.ctypes.data, nnz, out.ctypes.data + _COUNT.size
    )
    return out[: _COUNT.size + size].tobytes()


def _dense_slab(indices: np.ndarray, values: np.ndarray, num_cells: int) -> bytes:
    """The v1 payload of one delta: its cells scattered into a zero slab."""
    counters = np.zeros(num_cells, dtype="<i8")
    counters[indices] = values
    return counters.tobytes()


def encode_cell_sets(cell_sets: Iterable, num_cells: int) -> bytes:
    """Pack the cells of several deltas over one slab into one sparse body.

    Delta ``k``'s cell ``i`` is stored at flat index ``k * num_cells +
    i``, so one strictly increasing index run covers them all — one
    file per retained export however many streams it carries.
    """
    indices, values = [], []
    for slot, (cell_indices, cell_values) in enumerate(cell_sets):
        indices.append(np.asarray(cell_indices, dtype=np.int64) + slot * num_cells)
        values.append(np.asarray(cell_values, dtype=np.int64))
    if not indices:
        return _sparse_body(np.zeros(0), np.zeros(0))
    return _sparse_body(np.concatenate(indices), np.concatenate(values))


def decode_cell_sets(
    payload, count: int, num_cells: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inverse of :func:`encode_cell_sets`: the cells of ``count`` deltas
    over a slab of ``num_cells``, validated as strictly as
    :func:`decode_sparse_cells`."""
    indices, values = decode_sparse_cells(payload, count * num_cells)
    bounds = np.searchsorted(indices, np.arange(count + 1) * num_cells)
    return [
        (
            indices[bounds[slot] : bounds[slot + 1]] - slot * num_cells,
            values[bounds[slot] : bounds[slot + 1]].copy(),
        )
        for slot in range(count)
    ]


def encode_delta(
    indices: np.ndarray,
    values: np.ndarray,
    num_cells: int,
    allowed: Sequence[str],
    *,
    compress_level: int = 6,
) -> tuple[str, bytes]:
    """Encode one delta's non-zero cells; returns ``(encoding, blob)``.

    Picks by *measured* size among ``allowed``: the sparse body is built
    when any sparse variant is allowed and kept when smaller than the
    dense slab (``8 * num_cells`` bytes, known without building it); the
    zlib layer is applied to the winning base form and kept only when it
    shrinks it further.  ``dense`` is always a valid fallback, so the
    result is never larger than the v1 payload — worst case it *is* the
    v1 payload, and only then is the slab built.
    """
    dense_size = 8 * num_cells
    allowed_set = set(allowed) | {"dense"}
    name, body = "dense", None
    if {"sparse", "sparse+zlib"} & allowed_set:
        sparse = _sparse_body(indices, values)
        # The smaller base form wins (dense wins ties).
        if len(sparse) < dense_size:
            name, body = "sparse", sparse
    if body is None:
        body = _dense_slab(indices, values, num_cells)
    # zlib is tried on the winner only, so one compress call bounds the
    # CPU cost per payload.
    best = (name, body) if name in allowed_set else None
    if f"{name}+zlib" in allowed_set:
        zipped = zlib.compress(body, compress_level)
        if best is None or len(zipped) < len(best[1]):
            best = (f"{name}+zlib", zipped)
    if best is None or len(best[1]) >= dense_size:
        if name != "dense":
            body = _dense_slab(indices, values, num_cells)
        return "dense", body
    return best


def _unwrap(blob, encoding: str, max_body: int) -> tuple[str, bytes]:
    """Strip the optional zlib layer; returns ``(base_encoding, body)``."""
    if encoding not in WIRE_ENCODINGS:
        raise CodecError(f"unknown payload encoding {encoding!r}")
    base, _, layer = encoding.partition("+")
    if not layer:
        return base, blob
    inflater = zlib.decompressobj()
    try:
        body = inflater.decompress(bytes(blob), max_body)
    except zlib.error as exc:
        raise CodecError(f"corrupt zlib payload: {exc}") from exc
    if inflater.unconsumed_tail or not inflater.eof:
        raise CodecError("zlib payload inflates past the expected slab size")
    return base, body


def decode_cells(
    blob, encoding: str, num_cells: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The sparse fold fast path: ``(indices, values)``, or ``None``.

    ``None`` means the encoding is dense-based — decode through
    :func:`decode_dense` and the ordinary slab path instead.  The sparse
    ``+zlib`` bound allows bodies up to a modest multiple of the dense
    slab, which any well-formed sparse body satisfies.
    """
    base, body = _unwrap(blob, encoding, 3 * 8 * num_cells + _COUNT.size)
    if base == "dense":
        return None
    return decode_sparse_cells(body, num_cells)


def decode_dense(blob, encoding: str, num_cells: int) -> bytes:
    """Decode any wire encoding back to the v1 dense slab, byte-exactly."""
    expected = 8 * num_cells
    base, body = _unwrap(blob, encoding, max(expected, 3 * expected // 2))
    if base == "dense":
        if len(body) != expected:
            raise CodecError(
                f"dense payload is {len(body)} bytes, expected {expected}"
            )
        return bytes(body)
    indices, values = decode_sparse_cells(body, num_cells)
    counters = np.zeros(num_cells, dtype="<i8")
    counters[indices] = values
    return counters.tobytes()
