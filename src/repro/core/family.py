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

from repro.core.plan import HashPlan, plan_for
from repro.core.sketch import (
    SketchHashes,
    SketchShape,
    TwoLevelHashSketch,
    scatter_add,
    segmented_add,
)
from repro.errors import DomainError, IncompatibleSketchesError

__all__ = ["SketchSpec", "SketchFamily", "check_same_coins", "sum_families"]


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

    def update_batch(self, elements, counts=None, *, plan: HashPlan | str | None = "auto") -> None:
        """Vectorised maintenance of all members over a batch of updates.

        By default the batch is routed through the spec's shared
        :class:`~repro.core.plan.HashPlan`: index rows come from the
        plan's element-row cache when the elements repeat, and fresh rows
        are hashed/scattered via the plan's measured hybrid — stacked
        single-pass evaluation for small miss sets, per-sketch passes for
        large ones (see ``STACKED_HASH_MAX``/``STACKED_SCATTER_MAX`` in
        :mod:`repro.core.plan`) — bit-identical to the per-sketch path.
        (PR 1 measured and rejected a stacked variant; re-measured here,
        that verdict holds for *scatter at large batch sizes* — ``r``
        cache-resident per-sketch histograms still beat one giant
        ``bincount`` — but not for hashing small batches or for repeated
        elements, where the cache skips hashing entirely.  The plan keeps
        whichever side wins at each size.)

        ``plan`` selects the maintenance path: ``"auto"`` (the spec's
        shared plan), an explicit :class:`~repro.core.plan.HashPlan`
        (must be built from this spec's coins), or ``None`` for the
        legacy per-sketch path.
        """
        elements = np.asarray(elements, dtype=np.uint64)
        if elements.size == 0:
            return
        if counts is not None:
            counts = np.asarray(counts, dtype=np.int64)
        resolved = self._resolve_plan(plan)
        if resolved is None:
            for index in range(self.spec.num_sketches):
                self.sketch(index).update_batch(elements, counts)
            self._mark_all_dirty()
            return
        # Plan path: mirror the per-sketch checks before touching state.
        if int(elements.max()) >= self.spec.shape.domain_size:
            raise DomainError("batch contains elements outside [0, M)")
        if counts is not None and counts.shape != elements.shape:
            raise ValueError("counts must align with elements")
        rows = resolved.scatter_rows(elements)
        if rows is None:
            # Scan flood: the plan declined (see HashPlan.scatter_rows) —
            # classic per-sketch maintenance is faster than materialising
            # unreusable index rows.
            for index in range(self.spec.num_sketches):
                self.sketch(index).update_batch(elements, counts)
            self._mark_all_dirty()
            return
        self._scatter_rows(resolved, rows, counts)

    def ingest_batch(self, elements, counts=None, *, plan: HashPlan | str | None = "auto") -> int:
        """Maintenance over a batch, aggregated by linearity first.

        Because the sketch is a linear function of the element-frequency
        vector, any window of updates collapses to one net delta per
        distinct element before it ever touches a counter.  This path
        groups the batch with ``np.unique``, drops elements whose deltas
        cancel (insert/delete churn), and feeds each uniform-delta group
        through the unweighted scatter fast path — typically 1.5–3× the
        throughput of :meth:`update_batch` on realistic (skewed, churning)
        update streams, and bit-identical to it in the final counters.

        On the plan path the index rows for the *whole* unique set are
        produced by one :meth:`~repro.core.plan.HashPlan.scatter_rows`
        call before the groups split — one (larger, therefore
        better-amortised) hash pass instead of one per delta group — and
        each group scatters its subset of the rows.  Rows are a pure
        function of the element, so the result stays bit-identical to
        routing each group through :meth:`update_batch`; when no plan is
        active (or the plan declines a scan flood), the groups fall back
        to exactly that.

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
        resolved = self._resolve_plan(plan)
        # Split by delta so uniform groups (the bulk of real traffic: unit
        # insertions, unit deletions) hit the unweighted histogram path.
        ones = net == 1
        rows = None
        if resolved is not None:
            # ``unique`` is sorted, so the domain check is O(1).
            if int(unique[-1]) >= self.spec.shape.domain_size:
                raise DomainError("batch contains elements outside [0, M)")
            rows = resolved.scatter_rows(unique)
        if rows is not None:
            if ones.all():
                self._scatter_rows(resolved, rows, None)
                return int(unique.size)
            minus = net == -1
            mixed = ~(ones | minus)
            if ones.any():
                self._scatter_rows(resolved, rows[ones], None)
            if minus.any():
                self._scatter_rows(resolved, rows[minus], net[minus])
            if mixed.any():
                self._scatter_rows(resolved, rows[mixed], net[mixed])
            return int(unique.size)
        if ones.all():
            self.update_batch(unique, plan=resolved)
            return int(unique.size)
        minus = net == -1
        mixed = ~(ones | minus)
        if ones.any():
            self.update_batch(unique[ones], plan=resolved)
        if minus.any():
            self.update_batch(unique[minus], net[minus], plan=resolved)
        if mixed.any():
            self.update_batch(unique[mixed], net[mixed], plan=resolved)
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

    def _note_keys(self, keys: np.ndarray, counts) -> None:
        """Fold one scattered batch into the incremental aggregates.

        ``keys`` is the ``(n, r)`` bucket-key matrix (values
        ``sketch·levels + level``) of the rows just scattered — from
        :meth:`~repro.core.plan.HashPlan.bucket_keys`; the ``j = 0``
        column per sketch is the cell whose counter pair forms the bucket
        total, so the totals delta is one ``bincount`` over the keys —
        the same exact int64 accumulation the counters saw, an ``s``-th
        of the scatter work.
        """
        num_levels = self.spec.shape.num_levels
        flat_totals = self._level_totals.reshape(-1)
        if counts is None:
            flat_totals += np.bincount(keys.ravel(), minlength=flat_totals.size)
        else:
            first = int(counts[0])
            if bool((counts == first).all()):
                binned = np.bincount(keys.ravel(), minlength=flat_totals.size)
                flat_totals += binned * first
            else:
                segmented_add(
                    flat_totals,
                    keys.ravel(),
                    np.repeat(counts, self.spec.num_sketches),
                )
        self._version += 1
        touched = np.zeros(num_levels, dtype=bool)
        touched[(keys % num_levels).ravel()] = True
        self._level_versions[touched] = self._version

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

    @classmethod
    def from_cells(
        cls, indices: np.ndarray, values: np.ndarray, spec: SketchSpec
    ) -> "SketchFamily":
        """Rebuild a family from :meth:`nonzero_cells` output.

        Byte-exact inverse: scattering the cells into a zero slab
        reproduces the original counters bit for bit.
        """
        cells = spec.counter_cells
        indices = np.asarray(indices, dtype=np.int64)
        # min/max, not first/last: codec-produced input is sorted, but
        # this is a public classmethod and an unsorted caller must not
        # wrap a negative middle index into the wrong cell.
        if indices.size and not (
            0 <= int(indices.min()) and int(indices.max()) < cells
        ):
            raise IncompatibleSketchesError(
                f"cell indices exceed the {cells}-cell counter slab"
            )
        counters = np.zeros(cells, dtype=np.int64)
        counters[indices] = np.asarray(values, dtype=np.int64)
        return cls(
            spec, counters.reshape((spec.num_sketches,) + spec.shape.counter_shape)
        )

    def add_cells(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Fold sparse delta cells into this family in place.

        The coordinator's sparse fast path: equivalent to
        ``merge_in_place(SketchFamily.from_cells(indices, values,
        spec))`` — same exact int64 addition, bit-identical result —
        without materialising the dense intermediate slab.  ``indices``
        must be unique (strictly increasing, as the codec guarantees).
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        if indices.size and not (
            0 <= int(indices.min()) and int(indices.max()) < self.spec.counter_cells
        ):
            raise IncompatibleSketchesError(
                "cell indices exceed this family's counter slab"
            )
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
        :func:`repro.core.plan.plan_for`), so its element-row cache is
        warmed by *every* family of the spec.
        """
        return plan_for(self.spec)

    def _resolve_plan(self, plan: HashPlan | str | None) -> HashPlan | None:
        if plan is None:
            return None
        if isinstance(plan, str):
            if plan != "auto":
                raise ValueError("plan must be 'auto', a HashPlan, or None")
            return plan_for(self.spec)
        if (
            plan.num_sketches != self.spec.num_sketches
            or plan.shape != self.spec.shape
        ):
            raise IncompatibleSketchesError(
                "hash plan does not match this family's spec"
            )
        # Structure matching is not enough: a plan built from different
        # coins would scatter into the wrong cells silently.  Compare
        # against the spec's canonical plan (memoised, so this is three
        # small array comparisons, not a hash re-draw).
        canonical = plan_for(self.spec)
        if plan is not canonical and not plan.same_coins_as(canonical):
            raise IncompatibleSketchesError(
                "hash plan was built from different coins than this spec"
            )
        return plan

    def _scatter_rows(self, plan: HashPlan, rows: np.ndarray, counts) -> None:
        """Scatter plan-produced index rows into the counters.

        Accumulation rules mirror
        :meth:`repro.core.sketch.TwoLevelHashSketch.update_batch` exactly
        (unweighted histogram for uniform deltas, the guarded
        ``scatter_add`` otherwise), and int64 addition commutes, so the
        result is bit-identical to the per-sketch path in every case.
        """
        with plan.time_scatter():
            counters = self.counters
            contiguous = counters.flags.c_contiguous
            target = (
                counters.reshape(-1)
                if contiguous
                else np.ascontiguousarray(counters).reshape(-1)
            )
            if counts is None:
                plan.scatter(target, rows)
            else:
                first = int(counts[0])
                if bool((counts == first).all()):
                    plan.scatter(target, rows, scale=first)
                else:
                    scatter_add(
                        target,
                        rows.reshape(-1),
                        np.repeat(counts, plan.row_width),
                    )
            self._note_keys(plan.bucket_keys(rows), counts)
            if not contiguous:
                np.copyto(counters, target.reshape(counters.shape))

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
