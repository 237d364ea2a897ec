"""Shared hash plans: one hash-and-scatter pass per batch, for every family.

The "stored coins" contract of the paper (Section 2) means every
:class:`~repro.core.family.SketchFamily` built from one
:class:`~repro.core.family.SketchSpec` uses *identical* hash functions —
and the 2-level hash sketch update is a pure function of the element:

    element  →  the ``r·s`` flat counter cells it touches in the stacked
                ``(r, levels, s, 2)`` tensor (one ``(level, j, bit)``
                triple per member sketch and second-level hash).

A :class:`HashPlan` holds those coins stacked into flat arrays — the
``(r, t)`` first-level polynomial coefficients and the ``(r, s)``
second-level masks and flips — and applies a batch of updates to a
family's counters, bucket totals and touched-level mask in one call:

* **the compiled kernel** (:mod:`repro.core._kernel`) does it in one
  sketch-major pass: Horner mod ``2**61 − 1``, the LSB level, ``s``
  parities and the scatter-add per element, with one sketch's 8 KiB
  counter slab cache-resident at a time;
* **the numpy oracle** (:meth:`HashPlan.hash_scatter_numpy`) evaluates
  all ``r`` polynomials as one stacked :func:`~repro.hashing.mersenne.horner_mod`,
  all ``r·s`` parities as one broadcast popcount, and scatters the
  resulting ``(n, r·s)`` index rows with one ``bincount``.  It is the
  reference the kernel is tested against, and the path taken when no C
  compiler is available.

:func:`plan_for` memoises one plan per spec, so every family of a spec
shares its stacked coins and its timing counters.

Exactness: both paths are reorganisations of the same integer
arithmetic — counters, bucket totals and touched levels are
bit-identical to the per-sketch
:meth:`~repro.core.sketch.TwoLevelHashSketch.update_batch` (tested in
``tests/core/test_plan.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import _kernel
from repro.core.sketch import SketchHashes, SketchShape, scatter_add
from repro.errors import IncompatibleSketchesError
from repro.hashing.lsb import lsb_array
from repro.hashing.mersenne import horner_mod

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (family imports us)
    from repro.core.family import SketchSpec

__all__ = ["HashPlan", "HashPlanStats", "plan_for"]


@dataclass(frozen=True)
class HashPlanStats:
    """Point-in-time timing counters of one :class:`HashPlan`.

    ``hash_seconds`` is the wall-clock time spent hashing (on the
    compiled path: the whole fused hash-and-scatter call);
    ``scatter_seconds`` the time the numpy oracle spends scattering
    (zero on the compiled path).  The counters are summed
    without a lock, so threads updating at the same instant may drop
    an increment; the counters and families themselves stay exact.
    """

    hash_seconds: float = 0.0
    scatter_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        """Plain-JSON form (benchmark reports)."""
        return {
            "hash_seconds": self.hash_seconds,
            "scatter_seconds": self.scatter_seconds,
        }


class HashPlan:
    """The stacked coins of one spec, and the batch update over them.

    Parameters
    ----------
    hashes:
        The per-sketch hash functions, as returned by
        :meth:`repro.core.family.SketchSpec.hashes`.  All first-level
        polynomials must share a degree and all second-level banks the
        shape's ``s`` (guaranteed for spec-drawn hashes).
    shape:
        The sketch shape the updates target.
    """

    __slots__ = (
        "shape",
        "num_sketches",
        "row_width",
        "_coeffs",
        "_masks",
        "_flips",
        "_hash_seconds",
        "_scatter_seconds",
    )

    def __init__(self, hashes: Sequence[SketchHashes], shape: SketchShape) -> None:
        if not hashes:
            raise ValueError("a hash plan needs at least one sketch's hashes")
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
        self._hash_seconds = 0.0
        self._scatter_seconds = 0.0

    # -- the batch update ----------------------------------------------------

    def hash_scatter(
        self,
        counters: np.ndarray,
        totals: np.ndarray,
        elements: np.ndarray,
        counts: np.ndarray | None,
    ) -> np.ndarray:
        """Apply ``(elements, counts)`` to one family's state in place.

        ``counters`` is the C-contiguous ``(r, levels, s, 2)`` int64 slab
        and ``totals`` the C-contiguous ``(r, levels)`` bucket-total
        matrix; ``elements`` are ``uint64`` domain elements (checked by
        the caller) and ``counts`` their ``int64`` deltas, ``None`` for
        one insertion each.  Returns the ``(levels,)`` boolean mask of
        the levels any update landed in.  Runs the compiled kernel when
        it loaded, :meth:`hash_scatter_numpy` otherwise; both wrap on
        int64 overflow exactly as numpy addition does.
        """
        lib = _kernel.LIB
        if lib is None:
            return self.hash_scatter_numpy(counters, totals, elements, counts)
        # The kernel trusts these layouts blindly: check them first.
        levels, s = self.shape.num_levels, self.shape.num_second_level
        if not (
            counters.shape == (self.num_sketches, levels, s, 2)
            and totals.shape == (self.num_sketches, levels)
            and counters.dtype == totals.dtype == np.int64
            and counters.flags.c_contiguous
            and totals.flags.c_contiguous
        ):
            raise ValueError("counters/totals do not match the plan's layout")
        elements = np.ascontiguousarray(elements, dtype=np.uint64).reshape(-1)
        if counts is not None:
            counts = np.ascontiguousarray(counts, dtype=np.int64).reshape(-1)
            if counts.size != elements.size:
                raise ValueError("counts must align with elements")
        touched = np.zeros(levels, dtype=np.uint8)
        started = time.perf_counter()
        status = lib.hash_scatter(
            elements.ctypes.data,
            None if counts is None else counts.ctypes.data,
            elements.size,
            self._coeffs.ctypes.data,
            self._coeffs.shape[1],
            self._masks.ctypes.data,
            self._flips.ctypes.data,
            self.num_sketches,
            s,
            levels,
            counters.ctypes.data,
            totals.ctypes.data,
            touched.ctypes.data,
        )
        self._hash_seconds += time.perf_counter() - started
        if status != 0:
            raise MemoryError("hash_scatter could not allocate its level buffer")
        return touched.view(bool)

    def hash_scatter_numpy(
        self,
        counters: np.ndarray,
        totals: np.ndarray,
        elements: np.ndarray,
        counts: np.ndarray | None,
    ) -> np.ndarray:
        """The numpy oracle of :meth:`hash_scatter` (same contract)."""
        started = time.perf_counter()
        rows, keys = self._hash_rows(elements)
        hashed = time.perf_counter()
        weights = None if counts is None else np.repeat(counts, self.row_width)
        scatter_add(counters.reshape(-1), rows.reshape(-1), weights)
        key_weights = None if counts is None else np.repeat(counts, self.num_sketches)
        scatter_add(totals.reshape(-1), keys.reshape(-1), key_weights)
        touched = np.zeros(self.shape.num_levels, dtype=bool)
        touched[keys % self.shape.num_levels] = True
        self._hash_seconds += hashed - started
        self._scatter_seconds += time.perf_counter() - hashed
        return touched

    def _hash_rows(self, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked hashing: the ``(n, r·s)`` flat cells each element
        touches, and its ``(n, r)`` bucket keys ``k·levels + level``.

        Row ``i`` lists, for sketch ``k`` and second-level hash ``j``,
        cell ``((k·L + LSB(h_k(e)))·s + j)·2 + g_{k,j}(e)``.
        """
        n = elements.size
        s = self.shape.num_second_level
        levels = lsb_array(horner_mod(self._coeffs, elements)).T  # (n, r)
        keys = np.arange(self.num_sketches)[None, :] * self.shape.num_levels + levels
        # All r·s second-level hashes in one broadcast, laid out (n, r, s)
        # so the result reshapes row-major without a copy.
        anded = elements[:, None, None] & self._masks[None, :, :]
        bits = (np.bitwise_count(anded) & np.uint8(1)) ^ self._flips[None, :, :]
        rows = (keys[:, :, None] * s + np.arange(s)[None, None, :]) * 2 + bits
        return rows.reshape(n, self.row_width), keys

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
        """A frozen snapshot of the plan's counters."""
        return HashPlanStats(
            hash_seconds=self._hash_seconds,
            scatter_seconds=self._scatter_seconds,
        )

    def reset_stats(self) -> None:
        """Zero the counters."""
        self._hash_seconds = self._scatter_seconds = 0.0


@lru_cache(maxsize=32)
def _shared_plan(spec: "SketchSpec") -> HashPlan:
    return HashPlan(spec.hashes(), spec.shape)


def plan_for(spec: "SketchSpec") -> HashPlan:
    """The shared :class:`HashPlan` of a spec (memoised per distinct spec).

    Every family built from an equal spec — across streams and engines —
    receives the *same* plan object; two different specs never share one.
    """
    return _shared_plan(spec)
