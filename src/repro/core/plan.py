"""Shared hash plans: compute sketch scatter indices once, reuse everywhere.

The "stored coins" contract of the paper (Section 2) means every
:class:`~repro.core.family.SketchFamily` built from one
:class:`~repro.core.family.SketchSpec` uses *identical* hash functions —
and the 2-level hash sketch update is a pure function of the element:

    element  →  the ``r·s`` flat counter cells it touches in the stacked
                ``(r, levels, s, 2)`` tensor (one ``(level, j, bit)``
                triple per member sketch and second-level hash).

Only the *signed count* of an update varies between streams and batches;
the cell indices never do.  A :class:`HashPlan` exploits that
determinism three ways:

* **stacked evaluation** — all ``r`` first-level polynomials are evaluated
  as one ``(r, t)`` coefficient matrix through the 2-D form of
  :func:`repro.hashing.mersenne.horner_mod`, and all ``r·s`` second-level
  masks as one broadcast AND / popcount / XOR, so the Python-level loop
  runs ``t − 1`` times per batch instead of ``r`` times;
* **an element → index-row LRU** — a bounded cache of previously computed
  ``(r·s,)`` index rows, so the heavy hitters of a skewed stream skip
  hashing entirely on every batch after their first;
* **sharing by coins** — :func:`plan_for` memoises one plan per spec, so
  every family of the spec (every stream of a
  :class:`~repro.streams.engine.StreamEngine`) reuses the same plan *and
  the same cache*: an element hashed for stream ``A`` is a cache hit for
  stream ``B``.

Exactness: the plan is a reorganisation of identical integer arithmetic,
not an approximation — rows are bit-identical to what the per-sketch
maintenance path computes (whether hashed or cached), and scattering them
with the same int64-exact accumulation rules leaves the counters
bit-identical too (tested in ``tests/core/test_plan.py``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.sketch import SketchHashes, SketchShape
from repro.errors import IncompatibleSketchesError
from repro.hashing.lsb import lsb_array
from repro.hashing.mersenne import horner_mod

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (family imports us)
    from repro.core.family import SketchSpec

__all__ = [
    "HashPlan",
    "HashPlanStats",
    "plan_for",
    "DEFAULT_CACHE_SIZE",
]

#: Default bound on the element → index-row cache, in entries.  One entry
#: costs ``r·s`` int32 words (4 KiB at the library default ``r=64, s=16``),
#: so the default caps cache memory at ~32 MiB per spec.
DEFAULT_CACHE_SIZE = 8192

#: Initial row-buffer allocation; the buffer grows geometrically toward the
#: configured capacity, so small test plans never pay for a full cache.
_INITIAL_SLOTS = 256

#: Above this many uncached elements per batch, hashing switches from the
#: stacked (r, n) evaluation to a per-sketch fill: the stacked form's
#: (r, n)-shaped modular-arithmetic temporaries stop fitting cache and the
#: removed Python loop no longer pays for the extra memory traffic.
#: (Measured on the library default r=64, s=16: stacked wins ~3x at
#: n≈256, breaks even near n≈1500, loses ~1.7x by n≈4096.)
STACKED_HASH_MAX = 1536

#: Above this many total scatter indices (n·r·s), scattering switches from
#: one stacked ``bincount`` over the whole counter tensor to a per-sketch
#: loop whose (levels·s·2)-cell histograms stay cache-resident.
STACKED_SCATTER_MAX = 2 * 1024 * 1024


@dataclass(frozen=True)
class HashPlanStats:
    """Point-in-time counters of one :class:`HashPlan` (cheap snapshot).

    ``hits``/``misses`` count *LRU lookups* (one per element per batch,
    across all families sharing the plan).  ``hash_seconds`` /
    ``scatter_seconds`` are the wall-clock time spent hashing and
    scattering, summed over every thread that used the plan.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bypasses: int = 0
    entries: int = 0
    capacity: int = 0
    hash_seconds: float = 0.0
    scatter_seconds: float = 0.0

    @property
    def lookups(self) -> int:
        """Total element lookups answered by the plan."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)``: the LRU hit rate (0.0 before any
        lookup)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def to_json_dict(self) -> dict:
        """Plain-JSON form (benchmark reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "entries": self.entries,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
            "hash_seconds": self.hash_seconds,
            "scatter_seconds": self.scatter_seconds,
        }


class HashPlan:
    """Precomputed, cached scatter-index producer for one set of coins.

    Parameters
    ----------
    hashes:
        The per-sketch hash functions, as returned by
        :meth:`repro.core.family.SketchSpec.hashes`.  All first-level
        polynomials must share a degree and all second-level banks the
        shape's ``s`` (guaranteed for spec-drawn hashes).
    shape:
        The sketch shape the indices target.
    cache_size:
        Bound on the element → index-row cache, in entries; ``0`` disables
        caching (every batch is hashed from scratch).
    """

    __slots__ = (
        "shape",
        "num_sketches",
        "row_width",
        "cache_size",
        "_coeffs",
        "_masks",
        "_flips",
        "_row_dtype",
        "_slots",
        "_rows",
        "_lock",
        "_hits",
        "_misses",
        "_evictions",
        "_bypasses",
        "_hash_seconds",
        "_scatter_seconds",
    )

    def __init__(
        self,
        hashes: Sequence[SketchHashes],
        shape: SketchShape,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if not hashes:
            raise ValueError("a hash plan needs at least one sketch's hashes")
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        degrees = {h.first_level.independence for h in hashes}
        if len(degrees) != 1:
            raise IncompatibleSketchesError(
                "stacked evaluation needs equal-degree first-level hashes"
            )
        if any(h.second_level.size != shape.num_second_level for h in hashes):
            raise IncompatibleSketchesError(
                "second-level bank size does not match the sketch shape"
            )
        self.shape = shape
        self.num_sketches = len(hashes)
        self.row_width = self.num_sketches * shape.num_second_level
        self.cache_size = cache_size
        # (r, t) stacked polynomial coefficients, (r, s) masks/flips.
        self._coeffs = np.asarray(
            [h.first_level.coefficients for h in hashes], dtype=np.uint64
        )
        self._masks = np.asarray(
            [h.second_level.masks for h in hashes], dtype=np.uint64
        )
        self._flips = np.asarray(
            [h.second_level.flips for h in hashes], dtype=np.uint8
        )
        flat_cells = self.num_sketches * shape.num_levels * shape.num_second_level * 2
        self._row_dtype = np.int32 if flat_cells <= np.iinfo(np.int32).max else np.int64
        # element → slot (recency-ordered); slot → row in a growable buffer.
        # The lock guards the cache maps and counters: one plan is shared
        # across every family of a spec (and every engine of the process),
        # and an eviction must not reuse a slot another thread is still
        # copying from.  Hashing itself (the expensive part) runs outside
        # the lock.
        self._slots: OrderedDict[int, int] = OrderedDict()
        self._rows = np.empty((0, self.row_width), dtype=self._row_dtype)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._bypasses = 0
        self._hash_seconds = 0.0
        self._scatter_seconds = 0.0

    # -- hashing -----------------------------------------------------------

    def _hash_rows(self, elements: np.ndarray) -> np.ndarray:
        """The untimed hashing kernel behind :meth:`compute_rows`."""
        n = elements.size
        s = self.shape.num_second_level
        dtype = self._row_dtype
        if n <= STACKED_HASH_MAX:
            hashed = horner_mod(self._coeffs, elements)  # (r, n)
            levels = lsb_array(hashed).T.astype(dtype)  # (n, r)
            # All r·s second-level hashes in one broadcast, laid out
            # (n, r, s) so the result reshapes row-major without a copy.
            anded = elements[:, None, None] & self._masks[None, :, :]
            bits = (np.bitwise_count(anded) & np.uint8(1)) ^ self._flips[None, :, :]
            base = (
                np.arange(self.num_sketches, dtype=dtype)[None, :]
                * dtype(self.shape.num_levels)
                + levels
            ) * dtype(s)
            flat = (
                base[:, :, None] + np.arange(s, dtype=dtype)[None, None, :]
            ) * dtype(2)
            flat += bits
            return flat.reshape(n, self.row_width)
        flat = np.empty((n, self.num_sketches, s), dtype=dtype)
        offsets = np.arange(s, dtype=dtype)
        for k in range(self.num_sketches):
            hashed = horner_mod(self._coeffs[k], elements)
            levels = lsb_array(hashed).astype(dtype)
            anded = elements[:, None] & self._masks[k][None, :]
            bits = (np.bitwise_count(anded) & np.uint8(1)) ^ self._flips[k][None, :]
            base = (dtype(k * self.shape.num_levels) + levels) * dtype(s)
            flat[:, k, :] = (base[:, None] + offsets) * dtype(2) + bits
        return flat.reshape(n, self.row_width)

    def compute_rows(self, elements: np.ndarray) -> np.ndarray:
        """Hash a batch from scratch: the stacked ``(n, r·s)`` index rows.

        Row ``i`` lists the flat cells of the stacked ``(r, L, s, 2)``
        counter tensor that element ``i`` touches — for sketch ``k`` and
        second-level hash ``j``, cell
        ``((k·L + LSB(h_k(e)))·s + j)·2 + g_{k,j}(e)``.  Bit-identical to
        evaluating each sketch's hashes separately; only the loop structure
        differs.  Small batches (the common case: cache misses trickling in
        behind a warm cache) run the stacked evaluation — one ``(r, t)``
        Horner pass, one broadcast popcount; batches past
        :data:`STACKED_HASH_MAX` fall back to a per-sketch fill whose
        ``(n,)`` temporaries stay cache-resident.
        """
        elements = np.asarray(elements, dtype=np.uint64)
        started = time.perf_counter()
        try:
            return self._hash_rows(elements)
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self._hash_seconds += elapsed

    def bucket_keys(self, rows: np.ndarray) -> np.ndarray:
        """Per-(element, sketch) first-level bucket keys from index rows.

        Returns an ``(n, r)`` array of ``sketch·levels + level`` keys —
        flat indices into an ``(r, levels)`` aggregate such as
        :meth:`repro.core.family.SketchFamily.level_totals`.  Derived
        from the ``j = 0`` column of each sketch's row segment (the cell
        pair whose sum is the bucket total), so incremental aggregate
        maintenance piggybacks on rows the scatter already computed
        instead of hashing again.
        """
        n = rows.shape[0]
        s = self.shape.num_second_level
        first_cells = rows.reshape(n, self.num_sketches, s)[:, :, 0]
        # cell = ((k·L + level)·s + 0)·2 + bit  ⇒  (cell >> 1) // s
        return (first_cells >> 1) // s

    # -- scattering --------------------------------------------------------

    def scatter(self, target: np.ndarray, rows: np.ndarray, scale: int = 1) -> None:
        """Add ``scale`` into flat int64 ``target`` at every cell of ``rows``.

        Chooses between one stacked ``bincount`` over the whole counter
        tensor (small batches) and a per-sketch histogram loop whose
        outputs stay cache-resident (past :data:`STACKED_SCATTER_MAX`
        total indices); both accumulate in exact int64, so the choice
        never affects the resulting counters.
        """
        if rows.size <= STACKED_SCATTER_MAX:
            binned = np.bincount(rows.reshape(-1), minlength=target.size)
            target += binned if scale == 1 else binned * scale
            return
        s = self.shape.num_second_level
        cells = self.shape.num_levels * s * 2
        grouped = rows.reshape(rows.shape[0], self.num_sketches, s)
        for k in range(self.num_sketches):
            local = grouped[:, k, :].ravel() - self._row_dtype(k * cells)
            binned = np.bincount(local, minlength=cells)
            slab = target[k * cells : (k + 1) * cells]
            slab += binned if scale == 1 else binned * scale

    @contextmanager
    def time_scatter(self):
        """Context manager charging its body to the scatter clock."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self._scatter_seconds += elapsed

    def scatter_rows(self, elements: np.ndarray) -> np.ndarray | None:
        """Index rows for a batch, cached or hashed as appropriate.

        Returns the same ``(n, r·s)`` matrix as :meth:`compute_rows`.
        Rows are returned by value semantics — cache hits are copied into
        a fresh output, so callers may not (and need not) worry about
        aliasing the cache.

        Returns ``None`` — "run classic per-sketch maintenance instead" —
        when the batch is a *scan flood*: more uncached elements than the
        cache could ever hold and too many for the stacked evaluation to
        beat per-sketch hashing.  Materialising (and thrashing the LRU
        with) rows that will never be reused costs more than it saves, so
        the plan declines; the decision is recorded in
        :attr:`HashPlanStats.bypasses`.
        """
        elements = np.asarray(elements, dtype=np.uint64)
        n = elements.size
        if self.cache_size == 0:
            with self._lock:
                if n > STACKED_HASH_MAX:
                    self._bypasses += 1
                    return None
                self._misses += n
            return self.compute_rows(elements)

        out = np.empty((n, self.row_width), dtype=self._row_dtype)
        # Phase 1 (locked): partition into hits/misses and copy the hit
        # rows out while their slots are pinned — an eviction by another
        # thread after the lock drops can no longer corrupt them.
        with self._lock:
            slots = self._slots
            hit_positions: list[int] = []
            hit_slots: list[int] = []
            miss_positions: list[int] = []
            miss_values: list[int] = []
            for position, element in enumerate(elements.tolist()):
                slot = slots.get(element)
                if slot is None:
                    miss_positions.append(position)
                    miss_values.append(element)
                else:
                    slots.move_to_end(element)
                    hit_positions.append(position)
                    hit_slots.append(slot)
            misses = len(miss_positions)
            if (
                misses > STACKED_HASH_MAX
                and misses >= self.cache_size
                and misses > len(hit_positions)
            ):
                self._bypasses += 1
                return None
            self._hits += len(hit_positions)
            self._misses += misses
            if hit_positions:
                out[hit_positions] = self._rows[hit_slots]
        # Phase 2 (unlocked): hash the misses — pure computation.
        if miss_positions:
            fresh = self.compute_rows(elements[miss_positions])
            out[miss_positions] = fresh
            if misses < self.cache_size:
                # Phase 3 (locked): publish the fresh rows.  _store
                # re-checks for duplicates, so a concurrent insert of the
                # same element is harmless.
                with self._lock:
                    for value, row in zip(miss_values, fresh):
                        self._store(value, row)
        return out

    def _store(self, element: int, row: np.ndarray) -> None:
        slots = self._slots
        slot = slots.get(element)
        if slot is not None:  # duplicate within one batch
            slots.move_to_end(element)
            return
        if len(slots) >= self.cache_size:
            _, slot = slots.popitem(last=False)
            self._evictions += 1
        else:
            slot = len(slots)
            if slot >= self._rows.shape[0]:
                self._grow(slot + 1)
        self._rows[slot] = row
        slots[element] = slot

    def _grow(self, needed: int) -> None:
        grown = min(
            self.cache_size, max(needed, _INITIAL_SLOTS, 2 * self._rows.shape[0])
        )
        buffer = np.empty((grown, self.row_width), dtype=self._row_dtype)
        buffer[: self._rows.shape[0]] = self._rows
        self._rows = buffer

    def same_coins_as(self, other: "HashPlan") -> bool:
        """Whether two plans embed identical hash functions (and shape)."""
        return (
            self.shape == other.shape
            and np.array_equal(self._coeffs, other._coeffs)
            and np.array_equal(self._masks, other._masks)
            and np.array_equal(self._flips, other._flips)
        )

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> HashPlanStats:
        """A frozen snapshot of the plan's cache and timing counters."""
        with self._lock:
            return HashPlanStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                bypasses=self._bypasses,
                entries=len(self._slots),
                capacity=self.cache_size,
                hash_seconds=self._hash_seconds,
                scatter_seconds=self._scatter_seconds,
            )

    def clear_cache(self) -> None:
        """Drop every cached row (counters kept)."""
        with self._lock:
            self._slots.clear()
            self._rows = np.empty((0, self.row_width), dtype=self._row_dtype)

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction/timing counters (cache kept)."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._bypasses = 0
            self._hash_seconds = 0.0
            self._scatter_seconds = 0.0


@lru_cache(maxsize=32)
def _shared_plan(spec: "SketchSpec") -> HashPlan:
    return HashPlan(spec.hashes(), spec.shape)


def plan_for(spec: "SketchSpec") -> HashPlan:
    """The shared :class:`HashPlan` of a spec (memoised per distinct spec).

    Every family built from an equal spec — across streams and engines —
    receives the *same* plan object, so the element cache is shared
    exactly as far as the coins are: two different specs never observe
    each other's cache state (their keys differ, so they get distinct
    plans).
    """
    return _shared_plan(spec)
