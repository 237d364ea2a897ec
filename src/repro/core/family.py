"""Families of independent 2-level hash sketches.

Every estimator in the paper averages over ``r`` *independent* sketch
instances, each built with its own randomly drawn first- and second-level
hash functions, and requires that the sketches for different streams use
the *same* functions pairwise (the "stored coins" of the distributed-streams
model).  :class:`SketchSpec` captures that contract: a spec is a master
seed plus structural parameters, and every :class:`SketchFamily` built from
an equal spec uses identical hash functions, sketch index by sketch index.

Seeds are derived *per sketch index* (``seed_sequence = [seed, index]``),
which makes hash generation **prefix-stable**: the first ``r'`` sketches of
a family with ``num_sketches = r`` are exactly the sketches of a family
with ``num_sketches = r'``.  The experiment harness leans on this to sweep
synopsis space by building one large family and evaluating estimators on
:meth:`SketchFamily.prefix` views.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core import _kernel
from repro.core.plan import HashPlan, plan_for
from repro.core.sketch import (
    SketchHashes,
    SketchShape,
    TwoLevelHashSketch,
    segmented_add,
)
from repro.errors import DomainError, IncompatibleSketchesError

__all__ = [
    "SketchSpec",
    "SketchFamily",
    "check_same_coins",
    "sum_cells",
    "sum_families",
]


@dataclass(frozen=True)
class SketchSpec:
    """Recipe for a family of ``num_sketches`` comparable sketches.

    ``index_offset`` supports contiguous *slices* of a larger family
    (e.g. the disjoint groups of :mod:`repro.core.boosting`): a spec with
    offset ``o`` uses the hash functions of global indices
    ``o .. o + num_sketches - 1`` of the same seed.
    """

    num_sketches: int = 64
    shape: SketchShape = SketchShape()
    seed: int = 0
    index_offset: int = 0

    def __post_init__(self) -> None:
        if self.num_sketches < 1:
            raise ValueError("a family needs at least one sketch")
        if self.index_offset < 0:
            raise ValueError("index_offset must be non-negative")

    def with_num_sketches(self, num_sketches: int) -> "SketchSpec":
        """The same coins, truncated/extended to ``num_sketches``."""
        return replace(self, num_sketches=num_sketches)

    def with_slice(self, start: int, stop: int) -> "SketchSpec":
        """The coins of global sketch indices ``[offset+start, offset+stop)``."""
        if not (0 <= start < stop <= self.num_sketches):
            raise ValueError("slice bounds out of range")
        return replace(
            self,
            num_sketches=stop - start,
            index_offset=self.index_offset + start,
        )

    def hashes(self) -> tuple[SketchHashes, ...]:
        """The per-index hash functions (deterministic, prefix-stable)."""
        return _draw_family_hashes(
            self.seed, self.index_offset, self.num_sketches, self.shape
        )

    def to_json_dict(self) -> dict:
        """A plain-JSON representation (for checkpoints and manifests)."""
        return {
            "num_sketches": self.num_sketches,
            "seed": self.seed,
            "index_offset": self.index_offset,
            "shape": {
                "domain_bits": self.shape.domain_bits,
                "num_second_level": self.shape.num_second_level,
                "independence": self.shape.independence,
            },
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SketchSpec":
        """Inverse of :meth:`to_json_dict`."""
        shape = payload["shape"]
        return cls(
            num_sketches=int(payload["num_sketches"]),
            seed=int(payload["seed"]),
            index_offset=int(payload.get("index_offset", 0)),
            shape=SketchShape(
                domain_bits=int(shape["domain_bits"]),
                num_second_level=int(shape["num_second_level"]),
                independence=int(shape["independence"]),
            ),
        )

    @property
    def counter_cells(self) -> int:
        """Total ``int64`` cells in one family's counter slab.

        The flat-index domain of the sparse delta codec
        (:mod:`repro.streams.net.codec`): ``r * levels * s * 2``, i.e.
        ``counter_payload_bytes // 8``.
        """
        shape = self.shape.counter_shape
        return self.num_sketches * shape[0] * shape[1] * shape[2]

    @property
    def counter_payload_bytes(self) -> int:
        """Size of the dense (v1) serialised counter payload, in bytes."""
        return 8 * self.counter_cells

    def build(self) -> "SketchFamily":
        """Construct an empty family following this spec."""
        return SketchFamily(self)


@lru_cache(maxsize=64)
def _draw_family_hashes(
    seed: int, index_offset: int, num_sketches: int, shape: SketchShape
) -> tuple[SketchHashes, ...]:
    """Derive hash functions for global sketch indices
    ``index_offset .. index_offset + num_sketches - 1``.

    Each index gets its own ``Generator`` seeded by ``[seed, index]`` so
    that the draw for index ``i`` never depends on how many sketches the
    family has — the prefix-stability property documented above (and the
    slice-stability the boosting groups rely on).
    """
    drawn = []
    for index in range(index_offset, index_offset + num_sketches):
        rng = np.random.default_rng([seed, index])
        drawn.append(SketchHashes.draw(rng, shape))
    return tuple(drawn)


class SketchFamily:
    """``r`` independent 2-level hash sketches summarising one stream.

    The counters of all member sketches live in one stacked
    ``(r, levels, s, 2)`` array, which the estimators slice level-wise to
    evaluate all ``r`` property checks with vectorised numpy; individual
    members are exposed as zero-copy :class:`TwoLevelHashSketch` views.

    Alongside the raw counters the family maintains **incremental level
    aggregates** for the query planner: the ``(r, levels)`` bucket-total
    matrix (what :meth:`level_totals` returns, kept up to date as updates
    apply instead of re-derived from the counter slab per query), a
    monotone :attr:`version` counter bumped on every mutation, and a
    per-level *dirty version* recording when each first-level bucket
    index last changed.  Query caches use the dirty versions to
    revalidate in O(levels) — see
    :meth:`levels_clean_since` and :mod:`repro.streams.engine`.

    The aggregates are maintained by every mutation that goes through
    the family's own methods.  Writing through a :meth:`sketch` view or
    into :attr:`counters` directly bypasses the bookkeeping; call
    :meth:`refresh_aggregates` afterwards.  Zero-copy :meth:`prefix` /
    :meth:`slice` views snapshot their aggregates at construction, so
    build them *after* the parent family stops mutating (which is how
    the experiment harness and the boosting groups already use them).
    """

    __slots__ = (
        "spec",
        "_hashes",
        "counters",
        "_version",
        "_level_totals",
        "_level_versions",
        "_nonempty_counts",
        "_nonempty_version",
        "_dirty_list",
        "_dirty_prefix_max",
        "_dirty_list_version",
    )

    def __init__(self, spec: SketchSpec, counters: np.ndarray | None = None) -> None:
        self.spec = spec
        self._hashes = spec.hashes()
        expected = (spec.num_sketches,) + spec.shape.counter_shape
        if counters is None:
            counters = np.zeros(expected, dtype=np.int64)
        elif counters.shape != expected:
            raise IncompatibleSketchesError(
                f"counter array has shape {counters.shape}, expected {expected}"
            )
        self.counters = counters
        self._version = 0
        self._level_versions = np.zeros(spec.shape.num_levels, dtype=np.int64)
        self._level_totals = (
            self.counters[:, :, 0, 0] + self.counters[:, :, 0, 1]
        )
        self._nonempty_counts: np.ndarray | None = None
        self._nonempty_version = -1
        self._dirty_list: list[int] | None = None
        self._dirty_prefix_max: list[int] | None = None
        self._dirty_list_version = -1

    # -- structure ---------------------------------------------------------

    @property
    def num_sketches(self) -> int:
        return self.spec.num_sketches

    @property
    def shape(self) -> SketchShape:
        return self.spec.shape

    def sketch(self, index: int) -> TwoLevelHashSketch:
        """Zero-copy view of member sketch ``index``."""
        return TwoLevelHashSketch(
            self._hashes[index], self.spec.shape, self.counters[index]
        )

    def __len__(self) -> int:
        return self.spec.num_sketches

    def __iter__(self):
        return (self.sketch(i) for i in range(self.spec.num_sketches))

    def prefix(self, num_sketches: int) -> "SketchFamily":
        """Zero-copy family over the first ``num_sketches`` members.

        Valid because hash derivation is prefix-stable; estimators run on a
        prefix behave exactly as if only that many sketches had ever been
        maintained.
        """
        if not (1 <= num_sketches <= self.spec.num_sketches):
            raise ValueError("prefix size out of range")
        return SketchFamily(
            self.spec.with_num_sketches(num_sketches),
            self.counters[:num_sketches],
        )

    def slice(self, start: int, stop: int) -> "SketchFamily":
        """Zero-copy family over members ``[start, stop)``.

        Like :meth:`prefix` but anywhere in the family; the slice's spec
        carries the matching ``index_offset`` so its coins stay correct
        (slices of same-spec families remain mutually compatible).
        """
        return SketchFamily(
            self.spec.with_slice(start, stop),
            self.counters[start:stop],
        )

    # -- maintenance ------------------------------------------------------

    def update(self, element: int, count: int = 1) -> None:
        """Apply one update ``<element, +/-count>`` to every member."""
        for index in range(self.spec.num_sketches):
            self.sketch(index).update(element, count)
        self._mark_all_dirty()

    def update_batch(self, elements, counts=None, *, plan: HashPlan | str = "auto") -> None:
        """Vectorised maintenance of all members over a batch of updates.

        The batch goes through the spec's shared
        :class:`~repro.core.plan.HashPlan` in one hash-and-scatter pass
        (the compiled kernel, or its numpy oracle without a compiler),
        bit-identical to updating each member sketch in turn.  The
        incremental level aggregates follow: bucket totals move by the
        batch's deltas and exactly the levels it touched are marked
        dirty.  ``plan`` is ``"auto"`` (the spec's shared plan) or an
        explicit :class:`~repro.core.plan.HashPlan` built from this
        spec's coins.
        """
        elements = np.ascontiguousarray(elements, dtype=np.uint64)
        if elements.size == 0:
            return
        if int(elements.max()) >= self.spec.shape.domain_size:
            raise DomainError("batch contains elements outside [0, M)")
        if counts is not None:
            counts = np.ascontiguousarray(counts, dtype=np.int64)
            if counts.shape != elements.shape:
                raise ValueError("counts must align with elements")
        self._hash_scatter(
            self._resolve_plan(plan),
            elements.reshape(-1),
            None if counts is None else counts.reshape(-1),
        )

    def ingest_batch(self, elements, counts=None, *, plan: HashPlan | str = "auto") -> int:
        """Maintenance over a batch, aggregated by linearity first.

        Because the sketch is a linear function of the element-frequency
        vector, any window of updates collapses to one net delta per
        distinct element before it ever touches a counter.  This path
        groups the batch with ``np.unique`` and drops elements whose
        deltas cancel (insert/delete churn), then applies the net deltas
        in one :meth:`update_batch`-equivalent hash-and-scatter pass —
        bit-identical to :meth:`update_batch` on the raw batch, and
        cheaper on realistic (skewed, churning) update streams.

        Returns the number of distinct elements actually maintained (the
        post-aggregation batch size, used by ingest metrics).
        """
        elements = np.asarray(elements, dtype=np.uint64)
        if elements.size == 0:
            return 0
        if counts is None:
            unique, net = np.unique(elements, return_counts=True)
            net = net.astype(np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            unique, inverse = np.unique(elements, return_inverse=True)
            if np.abs(counts, dtype=np.float64).sum() < float(1 << 52):
                net = np.rint(
                    np.bincount(
                        inverse,
                        weights=counts.astype(np.float64),
                        minlength=unique.size,
                    )
                ).astype(np.int64)
            else:
                net = np.zeros(unique.size, dtype=np.int64)
                segmented_add(net, inverse, counts)
            nonzero = net != 0
            unique, net = unique[nonzero], net[nonzero]
        if unique.size == 0:
            return 0
        # ``unique`` is sorted, so the domain check is O(1).
        if int(unique[-1]) >= self.spec.shape.domain_size:
            raise DomainError("batch contains elements outside [0, M)")
        net = None if bool((net == 1).all()) else net
        self._hash_scatter(self._resolve_plan(plan), unique, net)
        return int(unique.size)

    # -- level-wise aggregates used by the estimators ----------------------

    def level_totals(self) -> np.ndarray:
        """Bucket item totals, shape ``(r, levels)``.

        The first second-level pair's sum counts every item in the bucket
        (each update touches exactly one of its two cells), so this is the
        per-bucket emptiness/total statistic of the paper.  Maintained
        incrementally as updates apply (exact int64 arithmetic,
        bit-identical to re-deriving from the counter slab); returned as
        a read-only view — copy before mutating.
        """
        view = self._level_totals.view()
        view.flags.writeable = False
        return view

    def level_nonempty_counts(self) -> np.ndarray:
        """Per-level count of members with a non-empty bucket: ``(levels,)``.

        Exactly ``(level_totals() > 0).sum(axis=0)`` — what the union
        estimator's level scan consults for a single stream — derived
        lazily from the maintained totals and memoised per
        :attr:`version`.  Read-only view.
        """
        if self._nonempty_version != self._version:
            self._nonempty_counts = (self._level_totals > 0).sum(axis=0)
            self._nonempty_version = self._version
        view = self._nonempty_counts.view()
        view.flags.writeable = False
        return view

    def level_slab(self, level: int) -> np.ndarray:
        """All members' counters at one first-level bucket: ``(r, s, 2)``."""
        return self.counters[:, level]

    # -- change tracking (query-plan layer) --------------------------------

    @property
    def version(self) -> int:
        """Monotone mutation counter: bumped whenever counters change."""
        return self._version

    def level_dirty_versions(self) -> np.ndarray:
        """Per first-level bucket index: the :attr:`version` at which that
        level last changed (read-only view, shape ``(levels,)``)."""
        view = self._level_versions.view()
        view.flags.writeable = False
        return view

    def levels_clean_since(
        self, version: int, prefix_level: int, start: int = 0, stop: int = 0
    ) -> bool:
        """Whether no *consulted* level changed after ``version``.

        Consulted levels are the union-scan prefix ``0..prefix_level``
        plus the witness window ``[start, stop)``; a query-cache entry
        that recorded its families' versions and these bounds revalidates
        by calling this instead of recomputing (see
        :meth:`repro.streams.engine.StreamEngine.query`).
        """
        if self._version <= version:
            return True  # nothing at all changed since: trivially clean
        # Plain-Python snapshots of the dirty versions (rebuilt lazily per
        # mutation) keep the hot revalidation path free of per-call numpy
        # overhead: the prefix check is one list index, the witness-window
        # check a max over a handful of ints.
        if self._dirty_list_version != self._version:
            self._dirty_list = self._level_versions.tolist()
            self._dirty_prefix_max = np.maximum.accumulate(
                self._level_versions
            ).tolist()
            self._dirty_list_version = self._version
        if prefix_level >= 0 and self._dirty_prefix_max[prefix_level] > version:
            return False
        if stop > start and max(self._dirty_list[start:stop]) > version:
            return False
        return True

    def refresh_aggregates(self) -> None:
        """Rebuild the incremental aggregates from the raw counters.

        For callers that mutate :attr:`counters` directly (or through a
        :meth:`sketch` view) instead of the family's maintenance methods.
        Bumps :attr:`version` and marks every level dirty.
        """
        self._mark_all_dirty()

    def _mark_all_dirty(self) -> None:
        """Counters changed in an untracked way: recompute totals (cheap,
        ``O(r·levels)``), bump the version, dirty every level."""
        self._version += 1
        np.add(
            self.counters[:, :, 0, 0],
            self.counters[:, :, 0, 1],
            out=self._level_totals,
        )
        self._level_versions[:] = self._version

    # -- algebra ------------------------------------------------------------

    def merged_with(self, other: "SketchFamily") -> "SketchFamily":
        """Family summarising the multiset sum of the two streams."""
        self._check_compatible(other)
        return SketchFamily(self.spec, self.counters + other.counters)

    def diff_from(self, baseline: "SketchFamily") -> "SketchFamily":
        """Family whose counters are ``self - baseline`` (a delta synopsis).

        By linearity this is exactly the sketch of the updates applied
        *after* ``baseline`` was snapshotted: adding the delta back into
        the baseline (``merge_in_place``) reproduces ``self`` bit for
        bit.  This is the export primitive of the distributed delta
        protocol (:mod:`repro.streams.distributed`): sites ship counter
        diffs since their last acknowledged export instead of cumulative
        counters, which makes re-collection idempotent.  Delta counters
        may be negative; that is fine — every combining operation is
        plain int64 addition.
        """
        self._check_compatible(baseline)
        return SketchFamily(self.spec, self.counters - baseline.counters)

    def delta_payload(
        self, baseline: "SketchFamily", plus: "SketchFamily | None" = None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Advance ``baseline`` to this family; return the cells it moved.

        Returns the :meth:`nonzero_cells` of ``self - baseline`` and
        overwrites ``baseline``'s counters with this family's, or returns
        ``None`` (baseline unchanged in value) when the two are equal —
        what :meth:`diff_from`, :meth:`nonzero_cells` and a fresh
        :meth:`copy` as the next baseline compute, in one pass over the
        slab (the compiled kernel's ``diff_advance`` when it loaded).
        ``plus`` diffs and advances to ``self + plus`` instead, in the
        same one pass, without summing the two into a slab.
        ``baseline`` is a private snapshot: its incremental aggregates
        are not maintained.
        """
        self._check_compatible(baseline)
        current = self.counters.reshape(-1)
        previous = baseline.counters.reshape(-1)
        addend = None
        if plus is not None:
            self._check_compatible(plus)
            addend = plus.counters.reshape(-1)
        lib = _kernel.LIB
        if lib is None:
            if addend is not None:
                current = current + addend
            delta = current - previous
            np.copyto(previous, current)
            indices = np.flatnonzero(delta)
            return (indices, delta[indices]) if indices.size else None
        indices = np.empty(current.size, dtype=np.int64)
        values = np.empty(current.size, dtype=np.int64)
        nonzero = lib.diff_advance(
            current.ctypes.data,
            None if addend is None else addend.ctypes.data,
            previous.ctypes.data,
            indices.ctypes.data,
            values.ctypes.data,
            current.size,
        )
        if not nonzero:
            return None
        return indices[:nonzero].copy(), values[:nonzero].copy()

    def is_zero(self) -> bool:
        """True iff every counter is exactly zero (an empty delta).

        Stricter than :meth:`is_empty`, which checks the *net* item
        count and can be zero for a non-trivial delta (e.g. one
        insertion and one deletion of different elements).
        """
        return not self.counters.any()

    # -- sparse cell access (delta wire format v2) --------------------------

    def nonzero_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The non-zero counter cells as ``(flat_indices, values)``.

        Flat indices are row-major positions into the ``(r, levels, s,
        2)`` slab, strictly increasing; values are the ``int64``
        counters there.  This is the sparse side of the delta codec: a
        delta from :meth:`diff_from` touches only the cells its window's
        elements hashed to, so for small exports this pair is orders of
        magnitude smaller than the slab.
        """
        flat = self.counters.reshape(-1)
        indices = np.flatnonzero(flat)
        return indices, flat[indices].copy()

    def add_cells(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Fold sparse delta cells into this family in place.

        The fold primitive of every network delta
        (:meth:`~repro.streams.engine.StreamEngine.merge_cells`): the
        same exact int64 addition as :meth:`merge_in_place` of the
        delta's dense slab, bit-identical, without materialising that
        slab.  ``indices`` must be unique (strictly increasing, as
        :meth:`nonzero_cells` and the codec produce them); an index
        outside the slab raises before any counter changes.
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        check_cells(indices, self.spec.counter_cells)
        counters = self.counters
        if counters.flags.c_contiguous:
            counters.reshape(-1)[indices] += values
        else:
            flat = np.ascontiguousarray(counters).reshape(-1)
            flat[indices] += values
            np.copyto(counters, flat.reshape(counters.shape))
        self._mark_all_dirty()

    def merge_in_place(self, other: "SketchFamily") -> None:
        """Fold another family's counters into this one (coordinator combine).

        Zero-copy: the addition happens directly in this family's counter
        storage, no intermediate array is allocated.  The incremental
        level aggregates are refreshed (all levels marked dirty — the
        incoming counters can change second-level structure even where
        their bucket totals are zero).
        """
        self._check_compatible(other)
        np.add(self.counters, other.counters, out=self.counters)
        self._mark_all_dirty()

    def subtract_in_place(self, other: "SketchFamily") -> None:
        """Remove another family's counters from this one (window expiry).

        The inverse of :meth:`merge_in_place`: by linearity, subtracting
        the synopsis of a cohort of updates is bit-identical to having
        applied each update's inverse individually.  This is the expiry
        primitive of the window ring (:mod:`repro.streams.windows`) —
        ageing out a time bucket is one vectorised subtraction of its
        synopsis from the in-window total.
        """
        self._check_compatible(other)
        np.subtract(self.counters, other.counters, out=self.counters)
        self._mark_all_dirty()

    def copy(self) -> "SketchFamily":
        """A deep copy with independent counter storage."""
        return SketchFamily(self.spec, self.counters.copy())

    def is_empty(self) -> bool:
        """True iff the summarised multiset has no items (net)."""
        return int(self.counters[:, :, 0, :].sum()) == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SketchFamily):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.counters, other.counters)

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("SketchFamily is mutable and unhashable")

    # -- serialisation -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Counter payload (the spec — shared coins — travels separately)."""
        return self.counters.astype("<i8").tobytes()

    @classmethod
    def from_bytes(cls, payload: bytes, spec: SketchSpec) -> "SketchFamily":
        shape = (spec.num_sketches,) + spec.shape.counter_shape
        expected = int(np.prod(shape)) * 8
        if len(payload) != expected:
            raise IncompatibleSketchesError(
                f"payload is {len(payload)} bytes, expected {expected}"
            )
        counters = np.frombuffer(payload, dtype="<i8").astype(np.int64)
        # Constructing with the counters (rather than assigning them after
        # the fact) builds the incremental level aggregates from the
        # restored state — checkpoint restore starts with fresh, correct
        # aggregates at version 0.
        return cls(spec, counters.reshape(shape).copy())

    # -- internals ------------------------------------------------------------

    def plan(self) -> HashPlan:
        """The spec's shared :class:`~repro.core.plan.HashPlan`.

        One object per distinct spec process-wide (see
        :func:`repro.core.plan.plan_for`), shared by *every* family of
        the spec.
        """
        return plan_for(self.spec)

    def _resolve_plan(self, plan: HashPlan | str) -> HashPlan:
        if isinstance(plan, str):
            if plan != "auto":
                raise ValueError("plan must be 'auto' or a HashPlan")
            return plan_for(self.spec)
        if not isinstance(plan, HashPlan):
            raise ValueError("plan must be 'auto' or a HashPlan")
        # Structure matching is not enough: a plan built from different
        # coins would scatter into the wrong cells silently.
        canonical = plan_for(self.spec)
        if plan is not canonical and not plan.same_coins_as(canonical):
            raise IncompatibleSketchesError(
                "hash plan was built from different coins than this spec"
            )
        return plan

    def _hash_scatter(self, plan: HashPlan, elements: np.ndarray, counts) -> None:
        """Apply checked updates through ``plan`` and fold them into the
        incremental aggregates (version bump, touched levels dirty)."""
        counters = self.counters
        target = np.ascontiguousarray(counters, dtype=np.int64)
        touched = plan.hash_scatter(target, self._level_totals, elements, counts)
        if target is not counters:
            np.copyto(counters, target, casting="unsafe")
        self._version += 1
        self._level_versions[touched] = self._version

    def _check_compatible(self, other: "SketchFamily") -> None:
        if self.spec != other.spec:
            raise IncompatibleSketchesError("families built from different specs")


def sum_families(
    families: Sequence[SketchFamily], out: SketchFamily | None = None
) -> SketchFamily:
    """Family summarising the multiset sum of several same-spec streams.

    By linearity this is *the* synopsis of the combined stream — the merge
    step of the distributed coordinator.  Counters are accumulated with
    ``np.add(..., out=...)`` into one target array: pass ``out`` (a family
    whose storage is reused and overwritten) to make the merge allocation
    free on the query hot path.
    """
    spec = check_same_coins(*families)
    if out is None:
        out = SketchFamily(spec, families[0].counters.copy())
    else:
        if out.spec != spec:
            raise IncompatibleSketchesError(
                "output family does not follow the merged families' spec"
            )
        np.copyto(out.counters, families[0].counters)
    for family in families[1:]:
        np.add(out.counters, family.counters, out=out.counters)
    # The counters were written directly into out's storage; rebuild its
    # incremental level aggregates so the query-plan layer stays exact.
    out.refresh_aggregates()
    return out


def sum_cells(
    cell_sets: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """The cells of the entrywise sum of several sparse deltas.

    Each input is an ``(indices, values)`` pair as
    :meth:`SketchFamily.nonzero_cells` returns it (strictly increasing
    flat indices).  The result is the same kind of pair: by linearity,
    the delta of the combined updates, with cells whose sum is zero
    dropped.  Values add as wrapping ``int64``, like counters do.  The
    compiled kernel's ``merge_cells`` folds the sets in one by one when
    it loaded; the sort-and-reduce below is its oracle.
    """
    lib = _kernel.LIB
    if lib is None:
        return _sum_cells_numpy(cell_sets)
    indices = values = np.zeros(0, dtype=np.int64)
    for more_indices, more_values in cell_sets:
        more_indices = np.ascontiguousarray(more_indices, dtype=np.int64)
        more_values = np.ascontiguousarray(more_values, dtype=np.int64)
        size = indices.size + more_indices.size
        out_indices = np.empty(size, dtype=np.int64)
        out_values = np.empty(size, dtype=np.int64)
        count = lib.merge_cells(
            indices.ctypes.data,
            values.ctypes.data,
            indices.size,
            more_indices.ctypes.data,
            more_values.ctypes.data,
            more_indices.size,
            out_indices.ctypes.data,
            out_values.ctypes.data,
        )
        indices, values = out_indices[:count], out_values[:count]
    return indices.copy(), values.copy()


def _sum_cells_numpy(cell_sets) -> tuple[np.ndarray, np.ndarray]:
    empty = [np.zeros(0, dtype=np.int64)]
    indices = np.concatenate(empty + [np.asarray(i, np.int64) for i, _ in cell_sets])
    values = np.concatenate(empty + [np.asarray(v, np.int64) for _, v in cell_sets])
    if not indices.size:
        return indices, values
    order = np.argsort(indices, kind="stable")
    indices, values = indices[order], values[order]
    starts = np.flatnonzero(np.r_[True, indices[1:] != indices[:-1]])
    sums = np.add.reduceat(values, starts)
    keep = sums != 0
    return indices[starts][keep], sums[keep]


def check_cells(indices: np.ndarray, num_cells: int) -> None:
    """Raise :class:`IncompatibleSketchesError` unless every cell index
    lies in a ``num_cells``-cell counter slab."""
    if indices.size and not (
        0 <= int(indices.min()) and int(indices.max()) < num_cells
    ):
        raise IncompatibleSketchesError(
            "cell indices exceed this family's counter slab"
        )


def check_same_coins(*families: SketchFamily) -> SketchSpec:
    """Ensure all families share one spec; return it.

    Raises :class:`IncompatibleSketchesError` otherwise.  Used by every
    estimator entry point before any counters are touched.
    """
    if not families:
        raise ValueError("need at least one family")
    spec = families[0].spec
    for family in families[1:]:
        if family.spec != spec:
            raise IncompatibleSketchesError(
                "estimators require families built from the same SketchSpec"
            )
    return spec
