"""The update-stream processing engine (Figure 1 of the paper).

:class:`StreamEngine` is the query-processing architecture the paper
sketches: it maintains one synopsis (a :class:`SketchFamily`) per update
stream, in one pass over the update tuples, in arbitrary arrival order —
and answers set-expression cardinality queries from the synopses alone.

Updates are micro-batched per stream: ``process`` appends to an in-memory
buffer and the vectorised sketch-maintenance path runs when the buffer
fills (or on ``flush``/query).  The buffered updates are a constant-size
staging area, not a violation of the streaming model — updates are still
seen once, in order, and never re-read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.core.checks import combined_singleton_union_mask, empty_mask
from repro.core.expression import estimate_expression
from repro.core.family import SketchFamily, SketchSpec, check_same_coins
from repro.core.results import UnionEstimate, WitnessEstimate
from repro.core.union import estimate_union
from repro.core.witness import choose_witness_level
from repro.errors import EstimationError
from repro.expr.ast import SetExpression
from repro.expr.compile import compile_expression
from repro.expr.parser import parse
from repro.streams.stats import QueryStats, WindowStats
from repro.streams.updates import Update
from repro.streams.windows import (
    WindowRing,
    bucket_end,
    bucket_index,
    check_window_config,
    finite_time,
    window_buckets,
)

__all__ = ["StreamEngine"]


@lru_cache(maxsize=4096)
def _expression_key_parts(expression: SetExpression):
    """Memoised ``(canonical cells, streams)`` of an (immutable) expression.

    Standing queries look up the same expression tree every tick; both
    parts are pure functions of the tree, so they are computed once per
    distinct expression, process-wide.
    """
    from repro.expr.optimize import canonical_cells

    return canonical_cells(expression), expression.streams()


@dataclass
class _CacheEntry:
    """One cached estimate plus the synopsis state it was derived from.

    ``families``/``versions`` record each participating synopsis and its
    version counter at compute time; ``prefix`` is the deepest union-scan
    level the estimate consulted and ``[start, stop)`` the witness window
    (empty for pure union entries).  The entry stays servable while every
    family reports those levels clean since its recorded version — see
    :meth:`repro.core.family.SketchFamily.levels_clean_since`.

    ``position`` is the engine's ``(updates_processed, mutation_epoch)``
    pair at compute time: the epoch counts synopsis mutations that are
    *not* processed updates (delta folds, window-ring expiry), so the
    "nothing changed" fast path cannot serve a stale result across them.
    """

    result: object
    position: tuple[int, int]
    families: tuple[SketchFamily, ...]
    versions: tuple[int, ...]
    prefix: int
    start: int = 0
    stop: int = 0

    def is_clean(self) -> bool:
        return all(
            family.levels_clean_since(version, self.prefix, self.start, self.stop)
            for family, version in zip(self.families, self.versions)
        )


class StreamEngine:
    """Maintains per-stream 2-level hash sketch synopses and answers queries.

    Parameters
    ----------
    spec:
        The sketch recipe every stream synopsis follows.  One spec for the
        whole engine — synopses must share "coins" to be combinable.
    batch_size:
        Number of buffered updates per stream that triggers the vectorised
        maintenance path.
    window_span:
        Enable sliding-window queries: each stream's synopsis becomes a
        :class:`~repro.streams.windows.WindowRing` of time-bucketed
        synopses covering the most recent ``window_span`` time units, and
        ``query(..., window=W)`` answers over that state.  Timestamped
        ingest goes through :meth:`observe`/:meth:`observe_many` into the
        newest bucket, which the all-time synopsis includes; the ring
        clock is shared across streams and advanced by :meth:`advance_to`.
    bucket_width:
        Bucket granularity of the window rings; must divide
        ``window_span`` evenly.  Defaults to the full span (one tumbling
        bucket).  Windowed queries may ask for any whole number of
        buckets up to the span.
    clock_policy:
        Timestamp policy for windowed ingest: ``"raise"`` (default)
        rejects regressing timestamps, ``"clamp"`` stamps them at the
        watermark (for wall-clock sources with small skew); NaN and ±inf
        always raise.
    """

    def __init__(
        self,
        spec: SketchSpec,
        batch_size: int = 4096,
        window_span: float | None = None,
        bucket_width: float | None = None,
        clock_policy: str = "raise",
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if window_span is None:
            if bucket_width is not None:
                raise ValueError("bucket_width requires window_span")
            self._window_span = self._bucket_width = None
        else:
            self._window_span, self._bucket_width, _ = check_window_config(
                window_span, bucket_width
            )
        if clock_policy not in ("raise", "clamp"):
            raise ValueError("clock_policy must be 'raise' or 'clamp'")
        self._clock_policy = clock_policy
        self._rings: dict[str, WindowRing] = {}
        self._window_clock = float("-inf")
        # The latest instant of the watermark's bucket (bucket_end); NaN
        # before the first instant, so that every comparison with it
        # sends observe() down its checked path.
        self._open_end = math.nan
        # stream -> timestamped updates buffered for the open bucket
        self._pending: dict[str, tuple[list[int], list[int]]] = {}
        self.spec = spec
        self._batch_size = batch_size
        self._families: dict[str, SketchFamily] = {}
        self._buffers: dict[str, tuple[list[int], list[int]]] = {}
        self._updates_processed = 0
        # Synopsis mutations that are not processed updates: delta folds
        # (merge_cells) and non-empty window-bucket expiry.  Folded into
        # the cache position so the position-equality fast path stays
        # sound — without it a cached estimate could be served unchanged
        # after a merge or rotation mutated a participating family.
        self._mutation_epoch = 0
        # (canonical cells, streams, epsilon, pool) -> _CacheEntry; entries
        # carry per-family version/level dependencies so repeat queries
        # revalidate in O(streams) instead of recomputing whenever *any*
        # update arrived anywhere (see _CacheEntry).
        self._query_cache: dict[tuple, _CacheEntry] = {}
        # (sorted stream names, epsilon) -> _CacheEntry for union estimates;
        # shared between query_union and the ε/3 sub-estimates of query().
        self._union_cache: dict[tuple, _CacheEntry] = {}
        self._query_stats = QueryStats()

    # -- ingest --------------------------------------------------------------

    def process(self, update: Update) -> None:
        """Ingest one update tuple ``<stream, element, ±delta>``.

        On a windowed engine an untimed update joins the all-time
        synopsis and no window bucket (use :meth:`observe` for those).
        """
        elements, deltas = self._buffers.setdefault(update.stream, ([], []))
        elements.append(update.element)
        deltas.append(update.delta)
        self._updates_processed += 1
        if len(elements) >= self._batch_size:
            self._flush_stream(update.stream)

    def process_many(self, updates: Iterable[Update]) -> None:
        """Ingest a sequence of update tuples.

        Equivalent to ``process`` per tuple — same buffers, same flush
        cadence, bit-identical counters — with the per-update method
        dispatch and bookkeeping hoisted out of the loop (the Python-level
        overhead is a measurable slice of ingest).
        """
        buffers = self._buffers
        batch_size = self._batch_size
        count = 0
        for update in updates:
            stream = update.stream
            buffered = buffers.get(stream)
            if buffered is None:
                buffered = buffers[stream] = ([], [])
            elements, deltas = buffered
            elements.append(update.element)
            deltas.append(update.delta)
            count += 1
            if len(elements) >= batch_size:
                self._flush_stream(stream)
        self._updates_processed += count

    def flush(self) -> None:
        """Push all buffered updates into the synopses."""
        for stream in list(self._buffers) + list(self._pending):
            self._flush_stream(stream)

    # -- windowed ingest -------------------------------------------------------

    @property
    def window_span(self) -> float | None:
        """The sliding-window span, or ``None`` for an unwindowed engine."""
        return self._window_span

    @property
    def bucket_width(self) -> float | None:
        """The window rings' bucket granularity (``None`` if unwindowed)."""
        return self._bucket_width

    @property
    def is_windowed(self) -> bool:
        return self._window_span is not None

    @property
    def window_clock(self) -> float:
        """The shared window watermark (``-inf`` before the first instant)."""
        return self._window_clock

    @property
    def clock_policy(self) -> str:
        return self._clock_policy

    def observe(self, update: Update, at: float) -> None:
        """Ingest one timestamped update (windowed engines only).

        The update is buffered for its stream ring's open bucket, which
        the all-time synopsis includes; a flush applies the buffer in one
        ``ingest_batch``.  ``at`` is validated against the engine-wide
        watermark per ``clock_policy``; the watermark is shared by all
        streams.  An instant inside the watermark's bucket costs two
        float comparisons; one that opens a new bucket first flushes
        every buffer into the bucket it belongs to.
        """
        at = float(at)
        if self._window_clock <= at <= self._open_end:
            self._window_clock = at
        else:
            self._checked_window_time(at)
        buffered = self._pending.get(update.stream)
        if buffered is None:
            buffered = self._pending[update.stream] = ([], [])
        elements, deltas = buffered
        elements.append(update.element)
        deltas.append(update.delta)
        self._updates_processed += 1
        if len(elements) >= self._batch_size:
            self._flush_stream(update.stream)

    def observe_many(self, updates: Iterable[tuple[Update, float]]) -> int:
        """Ingest a sequence of ``(update, timestamp)`` pairs.

        Returns the number of updates observed.  Ingestion is partial on
        a rejected timestamp: earlier pairs have already been applied,
        and the return value says how far the iterable got.
        """
        self._require_windowed()
        observed = 0
        for update, at in updates:
            self.observe(update, at)
            observed += 1
        return observed

    def advance_to(self, now: float) -> int:
        """Move the window watermark forward on every ring.

        Returns the total number of buckets expired.  Expiry is pure
        synopsis subtraction — no per-update state exists anywhere.
        """
        now = self._checked_window_time(now)
        expired = 0
        for ring in self._rings.values():
            expired += self._advance_ring(ring, now)
        return expired

    def window_family(self, stream: str, window: float | None = None) -> SketchFamily:
        """The in-window synopsis for ``stream`` (advanced to the watermark).

        ``window`` selects a sub-window (a whole number of bucket widths
        up to the span); ``None`` means the full span.
        """
        self._require_windowed()
        self._flush_stream(stream)
        ring = self._ring(stream)
        if self._window_clock != float("-inf"):
            self._advance_ring(ring, self._window_clock)
        return ring.family(window)

    def window_stats(self) -> WindowStats:
        """Rotation/expiry counters summed over the per-stream rings."""
        stats = WindowStats()
        for ring in self._rings.values():
            stats.rotations += ring.rotations
            stats.buckets_expired += ring.buckets_expired
            stats.empty_expiries += ring.empty_expiries
            stats.subwindow_rebuilds += ring.subwindow_rebuilds
        return stats

    def _position(self) -> tuple[int, int]:
        """The cache-position pair: processed updates plus mutation epoch."""
        return (self._updates_processed, self._mutation_epoch)

    def _advance_ring(self, ring: WindowRing, now: float) -> int:
        """Advance one ring, folding non-empty expiries into the epoch.

        An expiry that subtracts a non-empty bucket mutates the ring's
        window total without any update being processed; bumping the
        mutation epoch keeps the cache's position fast path honest.
        Empty-bucket expiries deliberately do not bump it — nothing
        changed, so cached windowed estimates stay servable unrun.
        """
        before = ring.buckets_expired - ring.empty_expiries
        expired = ring.advance_to(now)
        self._mutation_epoch += (ring.buckets_expired - ring.empty_expiries) - before
        return expired

    def _require_windowed(self) -> None:
        if self._window_span is None:
            raise ValueError(
                "this engine is not windowed; construct it with window_span="
            )

    def _checked_window_time(self, at: float) -> float:
        """Validate ``at`` and move the watermark to it; returns the
        instant the update is stamped at."""
        self._require_windowed()
        at = finite_time(at)
        if at < self._window_clock:
            if self._clock_policy == "raise":
                raise ValueError(
                    f"time went backwards: {at} after {self._window_clock}"
                )
            return self._window_clock  # clamp: stamp at the watermark
        if not at <= self._open_end:
            # ``at`` opens a new bucket: the buffered updates belong to
            # the one the watermark is still in.
            for stream in list(self._pending):
                self._flush_stream(stream)
            self._open_end = bucket_end(
                bucket_index(at, self._bucket_width), self._bucket_width
            )
        self._window_clock = at
        return at

    def _ring(self, stream: str) -> WindowRing:
        ring = self._rings.get(stream)
        if ring is None:
            ring = self._rings[stream] = WindowRing(
                self.spec,
                self._window_span,
                self._bucket_width,
                clock_policy=self._clock_policy,
            )
            if self._window_clock != float("-inf"):
                ring.advance_to(self._window_clock)
        return ring

    # -- queries ----------------------------------------------------------------

    def query(
        self,
        expression: SetExpression | str,
        epsilon: float = 0.1,
        pool_levels: int = 1,
        use_cache: bool = True,
        window: float | None = None,
    ) -> WitnessEstimate:
        """Estimate ``|E|`` for a set expression over the engine's streams.

        ``pool_levels`` enables the level-pooling extension (see
        :func:`repro.core.witness.run_witness_estimator`).

        ``window`` (windowed engines only) answers over the most recent
        ``window`` time units instead of all time: the participating
        streams' window-ring synopses — exact at bucket boundaries — are
        substituted for the all-time families, everything else (the
        estimators, the cache, the error guarantees) is unchanged.  It
        must be a whole number of bucket widths in ``(0, window_span]``.

        Repeat queries are served from a semantic cache: the key is the
        expression's canonical Venn-cell set, so equivalent spellings
        (``"A & B"`` vs ``"B & A"`` vs ``"A - (A - B)"``) share one entry.
        An entry records which sketch levels it consulted (the union-scan
        prefix and the witness window) and each participating family's
        version; it is served again — bit-identical, the estimators are
        deterministic functions of those levels — until an update actually
        dirties a consulted level of a participating stream.  Updates to
        other streams, or to deeper levels, do not evict.  Windowed
        entries revalidate the same way against the ring synopses'
        versions — a rotation that expires only empty buckets leaves
        them servable.  ``use_cache=False`` bypasses the cache entirely.
        """
        if isinstance(expression, str):
            expression = parse(expression)
        self.flush()
        window = self._checked_query_window(window)
        self._prepare_window(expression.streams(), window)
        stats = self._query_stats
        stats.queries += 1
        if window is not None:
            stats.window_queries += 1

        key = None
        if use_cache:
            key = self._expression_key(expression, epsilon, pool_levels, window)
            cached = self._cache_lookup(self._query_cache, key)
            if cached is not None:
                return cached.result

        estimate, entry = self._evaluate_expression(
            expression, epsilon, pool_levels, use_cache, window
        )
        stats.recomputes += 1
        if use_cache:
            self._query_cache[key] = entry
        return estimate

    def query_many(
        self,
        expressions: Sequence[SetExpression | str],
        epsilon: float = 0.1,
        pool_levels: int = 1,
        use_cache: bool = True,
        window: float | None = None,
    ) -> list[WitnessEstimate]:
        """Estimate many expressions in one shared evaluation pass.

        Answers each expression exactly as :meth:`query` would —
        bit-identical results, same cache — but expressions over the same
        *stream set* share the expensive sub-steps: one union estimate,
        one combined-singleton ``valid`` mask, and one set of per-stream
        non-emptiness masks per group, with only the compiled Boolean
        program evaluated per expression.  N standing queries over one
        stream set cost one mask computation plus N vector ops instead of
        N full evaluations.  This is the continuous-query tick path (see
        :class:`repro.streams.continuous.ContinuousQueryProcessor`).
        """
        if not (0 < epsilon < 1):
            raise ValueError("epsilon must be in (0, 1)")
        if pool_levels < 1:
            raise ValueError("pool_levels must be at least 1")
        parsed = [
            parse(expression) if isinstance(expression, str) else expression
            for expression in expressions
        ]
        self.flush()
        window = self._checked_query_window(window)
        self._prepare_window(
            {name for expression in parsed for name in expression.streams()}, window
        )
        stats = self._query_stats
        stats.queries += len(parsed)
        stats.batch_queries += len(parsed)
        if window is not None:
            stats.window_queries += len(parsed)

        results: list[WitnessEstimate | None] = [None] * len(parsed)
        groups: dict[frozenset[str], list[tuple[int, SetExpression, tuple | None]]] = {}
        pending: dict[tuple, int] = {}
        aliases: list[tuple[int, int]] = []
        for index, expression in enumerate(parsed):
            key = None
            if use_cache:
                key = self._expression_key(expression, epsilon, pool_levels, window)
                cached = self._cache_lookup(self._query_cache, key)
                if cached is not None:
                    results[index] = cached.result
                    continue
                if key in pending:
                    # An equivalent spelling earlier in this batch — share
                    # its evaluation, exactly as the cache would across
                    # calls (B(E) is the same Boolean function, so the
                    # result is bit-identical).
                    aliases.append((index, pending[key]))
                    continue
                pending[key] = index
            groups.setdefault(expression.streams(), []).append(
                (index, expression, key)
            )

        for stream_set, members in groups.items():
            stats.batch_groups += 1
            estimates, entry_for = self._evaluate_group(
                stream_set, [expr for _, expr, _ in members],
                epsilon, pool_levels, use_cache, window,
            )
            stats.recomputes += len(members)
            for (index, _, key), estimate in zip(members, estimates):
                results[index] = estimate
                if use_cache:
                    self._query_cache[key] = entry_for(estimate)
        for index, source in aliases:
            stats.recomputes += 1
            results[index] = results[source]
        return results

    def query_union(
        self,
        stream_names: Iterable[str],
        epsilon: float = 0.1,
        use_cache: bool = True,
        window: float | None = None,
    ) -> UnionEstimate:
        """Estimate the distinct-element count of a union of streams.

        Served through the same version-revalidated cache as :meth:`query`
        (an entry depends only on the union scan's level prefix); the
        entry is shared with the ``ε/3`` union sub-estimates that
        expression queries compute, in both directions.  ``window``
        answers over the sliding window, as in :meth:`query`.
        """
        self.flush()
        window = self._checked_query_window(window)
        stats = self._query_stats
        stats.union_queries += 1
        if window is not None:
            stats.window_queries += 1
        names = tuple(sorted(set(stream_names)))
        if not names:
            # Preserve the uncached error behaviour for an empty selection.
            return estimate_union([], epsilon)
        self._prepare_window(names, window)
        return self._union_for(names, epsilon, use_cache, window)

    def explain(self, expression: SetExpression | str, epsilon: float = 0.1):
        """Per-subexpression cardinality breakdown (one consistent scan).

        Returns an :class:`~repro.core.explain.ExpressionExplanation`.
        """
        from repro.core.explain import explain_expression

        if isinstance(expression, str):
            expression = parse(expression)
        self.flush()
        families = {name: self._alltime(name) for name in expression.streams()}
        return explain_expression(expression, families, epsilon)

    # -- introspection ---------------------------------------------------------

    @property
    def updates_processed(self) -> int:
        return self._updates_processed

    @property
    def snapshot_position(self) -> tuple[int, int]:
        """The ``(updates_processed, mutation_epoch)`` snapshot token.

        Two reads at the same position are guaranteed to observe the
        same synopsis state: every mutation — an ingested update, a
        folded delta, a non-empty window expiry — advances one of the
        components.  The serving layer stamps each answered query batch
        with this token so clients can reason about read consistency
        without the engine ever locking out ingest.
        """
        return self._position()

    def stream_names(self) -> list[str]:
        """Streams with a registered synopsis or buffered updates."""
        return sorted(
            set().union(self._families, self._buffers, self._rings, self._pending)
        )

    def family(self, stream: str) -> SketchFamily:
        """The all-time synopsis for ``stream`` (flushed first)."""
        self._flush_stream(stream)
        return self._alltime(stream)

    def families(self) -> dict[str, SketchFamily]:
        """Flushed ``stream -> all-time synopsis`` mapping (live objects).

        The returned families share storage with the engine, not copies:
        on an unwindowed engine they are the maintained synopses
        themselves; on a windowed one, the rings' memoised sums
        (:meth:`~repro.streams.windows.WindowRing.alltime`), current
        until the next mutation and refreshed in place by the next read.
        This is the hand-off surface for checkpointing and coordinator
        restore.
        """
        self.flush()
        return {name: self._alltime(name) for name in self.stream_names()}

    def diff_advance(
        self, baselines: dict[str, SketchFamily]
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """The cells each stream's all-time synopsis moved since its
        baseline, advancing the baselines to it (delta export).

        ``baselines`` holds private ``stream -> snapshot`` copies, as
        :class:`~repro.streams.distributed.StreamSite` keeps them; a
        stream without one is diffed against zero and gets one.  Streams
        that did not move are left out.  Each stream costs one pass over
        its slab (:meth:`SketchFamily.delta_payload`), on a windowed
        engine too, whose all-time synopsis is diffed from its two
        addends without summing them.
        """
        self.flush()
        moved = {}
        for name in self.stream_names():
            baseline = baselines.get(name)
            if baseline is None:
                baseline = baselines[name] = self.spec.build()
            if self._window_span is None:
                cells = self._family(name).delta_payload(baseline)
            else:
                cells = self._ring(name).delta_payload(baseline)
            if cells is not None:
                moved[name] = cells
        return moved

    def synopsis_bytes(self) -> int:
        """Total size of the all-time synopses' counter arrays, in bytes."""
        return self.spec.counter_payload_bytes * len(
            set(self._families) | set(self._rings)
        )

    def plan_stats(self):
        """Hash-plan counters for this engine's spec.

        Returns a :class:`~repro.core.plan.HashPlanStats` snapshot.  The
        plan is shared process-wide by spec, so the counters cover every
        family built from the same coins (all this engine's streams, and
        any sibling engine on the spec).
        """
        from repro.core.plan import plan_for

        return plan_for(self.spec).stats()

    def query_stats(self) -> QueryStats:
        """Query-path counters: cache hits, revalidations, recomputes.

        Returns a :class:`~repro.streams.stats.QueryStats` snapshot
        (a copy; it does not keep counting).
        """
        return replace(self._query_stats)

    # -- checkpoint support -----------------------------------------------

    def adopt_family(self, stream: str, family: SketchFamily) -> None:
        """Install a pre-built synopsis for ``stream`` (checkpoint
        restore).

        The family must follow the engine's spec; any buffered updates for
        the stream are discarded in favour of the adopted state.
        """
        if family.spec != self.spec:
            from repro.errors import IncompatibleSketchesError

            raise IncompatibleSketchesError(
                "adopted family does not follow the engine's SketchSpec"
            )
        if self._window_span is None:
            self._families[stream] = family
        else:
            # The open bucket keeps its timestamped updates (they are in
            # the window), and the all-time value becomes the adopted one.
            self._flush_stream(stream)
            self._ring(stream).set_alltime(family)
        self._buffers.pop(stream, None)
        # The synopsis *object* was replaced (its version counter restarts),
        # so cached entries referencing the old family could revalidate
        # against stale state — drop everything.
        self._query_cache.clear()
        self._union_cache.clear()

    def merge_cells(
        self,
        stream: str,
        indices: np.ndarray,
        values: np.ndarray,
        at: float | None = None,
    ) -> None:
        """Fold one stream's delta cells into its synopsis by linearity.

        The network-fold primitive: a
        :class:`~repro.streams.distributed.Coordinator` lands every
        incoming :class:`~repro.streams.distributed.DeltaExport` payload
        here as its non-zero cells, which scatter straight into the
        stream's synopsis (:meth:`SketchFamily.add_cells`).  The fold
        marks the family dirty, so cached queries revalidate.

        On a windowed engine, ``at`` attributes the delta to a window
        instant (the exporter's window clock at cut time): the delta
        lands in the stream's ring bucket for ``at``, which the all-time
        synopsis includes — one cells add when that is the open bucket
        (:meth:`WindowRing.merge_at`).  A late delta whose bucket already
        expired folds into the all-time synopsis only — those updates
        are out of window — and so does a delta without ``at``.
        Timestamp regressions are *not* errors here (site skew is
        expected at a fold point); the ring clock simply never goes
        backwards.  A non-finite ``at`` raises :class:`ValueError`
        before anything is folded.
        """
        if self._window_span is None:
            self._flush_stream(stream)
            self._family(stream).add_cells(indices, values)
        else:
            if at is not None and finite_time(at) > self._window_clock:
                self._checked_window_time(at)
            self._ring(stream).merge_at(indices, values, at)
        # A fold mutates the synopsis without processing updates; move
        # the epoch so the cache's position fast path cannot serve a
        # pre-merge result (version revalidation then catches the dirty
        # levels and recomputes).
        self._mutation_epoch += 1

    def mark_replayed(self, num_updates: int) -> None:
        """Record updates that were applied before this engine existed
        (restored state); keeps ``updates_processed`` meaningful."""
        if num_updates < 0:
            raise ValueError("num_updates must be non-negative")
        self._updates_processed += num_updates
        if num_updates:
            self._query_cache.clear()
            self._union_cache.clear()

    def window_state(self) -> tuple[dict, list[tuple[str, bytes]]]:
        """Ring state for a checkpoint: ``(metadata, payloads)``.

        ``metadata`` is JSON-safe (window config, shared clock, and each
        stream's live bucket indices); ``payloads`` are the non-zero
        buckets' counter slabs keyed ``"<stream>@<bucket_index>"`` — they
        travel as files next to the stream payloads (the all-time
        synopses), and the rings' closed sums are rebuilt from both on
        restore.  Only meaningful on a windowed engine (see
        :func:`repro.streams.checkpoint.checkpoint_engine`).
        """
        self._require_windowed()
        self.flush()
        clock = self._window_clock
        meta: dict = {
            "window_span": self._window_span,
            "bucket_width": self._bucket_width,
            "clock_policy": self._clock_policy,
            "clock": None if clock == float("-inf") else clock,
            "streams": {},
        }
        payloads: list[tuple[str, bytes]] = []
        for stream in sorted(self._rings):
            ring = self._rings[stream]
            if clock != float("-inf"):
                self._advance_ring(ring, clock)
            buckets = []
            for index, payload in ring.bucket_payloads():
                buckets.append(index)
                payloads.append((f"{stream}@{index}", payload))
            meta["streams"][stream] = buckets
        return meta, payloads

    def restore_window_state(
        self, meta: dict, buckets_by_stream: dict[str, dict[int, SketchFamily]]
    ) -> None:
        """Rebuild the window rings from checkpointed state.

        The engine must have been constructed with the checkpoint's
        window config; ``buckets_by_stream`` carries the decoded bucket
        synopses (absent buckets restore as empty — they were all-zero
        at checkpoint time and carry no state).  Each stream keeps the
        all-time synopsis it already has (adopted from the checkpoint
        first, by :func:`~repro.streams.checkpoint.restore_engine`).
        """
        self._require_windowed()
        self.flush()
        clock = meta.get("clock")
        if clock is not None:
            self._window_clock = float(clock)
            self._open_end = math.nan  # the next observe finds the bucket
        for stream, indices in meta.get("streams", {}).items():
            decoded = buckets_by_stream.get(stream, {})
            buckets = {
                int(index): decoded[int(index)]
                for index in indices
                if int(index) in decoded
            }
            previous = self._rings.get(stream)
            self._rings[stream] = WindowRing.restore(
                self.spec,
                self._window_span,
                self._bucket_width,
                clock,
                buckets,
                clock_policy=self._clock_policy,
                alltime=None if previous is None else previous.alltime(),
            )

    # -- query internals -------------------------------------------------------

    def _expression_key(
        self,
        expression: SetExpression,
        epsilon: float,
        pool_levels: int,
        window: float | None = None,
    ) -> tuple:
        cells, stream_set = _expression_key_parts(expression)
        return (cells, stream_set, epsilon, pool_levels, window)

    def _checked_query_window(self, window: float | None) -> float | None:
        """Validate a query's ``window`` argument; returns it normalised."""
        if window is None:
            return None
        self._require_windowed()
        window_buckets(window, self._window_span, self._bucket_width)
        return float(window)

    def _prepare_window(self, names: Iterable[str], window: float | None) -> None:
        """Bring a windowed engine's participating synopses up to date.

        Rings rotate lazily: ingest only advances the observed stream's
        ring, so before a windowed evaluation every participating ring
        (materialised on demand — a never-observed stream has an empty
        window) catches up to the engine clock, expiring what fell out.
        And the synopses a query reads are memoised sums, rebuilt on
        read: they are read here, before any cache lookup, so that a
        cached entry revalidates against their current versions.
        """
        if self._window_span is None:
            return
        clock = self._window_clock
        for name in names:
            if window is not None and clock != float("-inf"):
                self._advance_ring(self._ring(name), clock)
            self._family_for(name, window)

    def _family_for(self, stream: str, window: float | None) -> SketchFamily:
        if window is None:
            return self._alltime(stream)
        return self._ring(stream).family(window)

    def _cache_lookup(
        self, cache: dict[tuple, _CacheEntry], key: tuple, union: bool = False
    ) -> _CacheEntry | None:
        """A servable entry for ``key``, or None (a miss counts nothing).

        Fast path: nothing at all was processed since the entry was stored.
        Slow path: updates arrived, but every level the entry's estimate
        consulted is still clean in every participating family — the
        estimators are deterministic in those levels, so the stored result
        is bit-identical to what a recompute would produce.
        """
        entry = cache.get(key)
        if entry is None:
            return None
        stats = self._query_stats
        if entry.position == self._position():
            if union:
                stats.union_cache_hits += 1
            else:
                stats.cache_hits += 1
            return entry
        if entry.is_clean():
            entry.position = self._position()
            if union:
                stats.union_revalidations += 1
            else:
                stats.revalidations += 1
            return entry
        return None

    def _union_for(
        self,
        names: tuple[str, ...],
        epsilon: float,
        use_cache: bool = True,
        window: float | None = None,
    ) -> UnionEstimate:
        """Cached union estimate over ``names`` (a sorted tuple)."""
        key = (names, epsilon, window)
        if use_cache:
            cached = self._cache_lookup(self._union_cache, key, union=True)
            if cached is not None:
                return cached.result
        families = tuple(self._family_for(name, window) for name in names)
        result = estimate_union(families, epsilon)
        self._query_stats.union_recomputes += 1
        if use_cache:
            # The union scan consulted levels 0..result.level only (the
            # saturated fallback reports the last level, covering the full
            # scan), so that prefix is the entry's whole dependency.
            self._union_cache[key] = _CacheEntry(
                result=result,
                position=self._position(),
                families=families,
                versions=tuple(family.version for family in families),
                prefix=result.level,
            )
        return result

    def _evaluate_expression(
        self,
        expression: SetExpression,
        epsilon: float,
        pool_levels: int,
        use_cache: bool,
        window: float | None = None,
    ) -> tuple[WitnessEstimate, _CacheEntry]:
        names = tuple(sorted(expression.streams()))
        union = self._union_for(names, epsilon / 3.0, use_cache, window)
        families = {name: self._family_for(name, window) for name in names}
        estimate = estimate_expression(
            expression,
            families,
            epsilon,
            union_estimate=union,
            pool_levels=pool_levels,
        )
        return estimate, self._witness_entry(
            names, union, estimate, pool_levels, window
        )

    def _witness_entry(
        self,
        names: tuple[str, ...],
        union: UnionEstimate,
        estimate: WitnessEstimate,
        pool_levels: int,
        window: float | None = None,
    ) -> _CacheEntry:
        families = tuple(self._family_for(name, window) for name in names)
        if estimate.union_estimate <= 0.0:
            # Empty-union early return: no witness slab was consulted.
            start = stop = 0
        else:
            num_levels = families[0].shape.num_levels
            start = estimate.level
            stop = min(start + pool_levels, num_levels)
        return _CacheEntry(
            result=estimate,
            position=self._position(),
            families=families,
            versions=tuple(family.version for family in families),
            prefix=union.level,
            start=start,
            stop=stop,
        )

    def _evaluate_group(
        self,
        stream_set: frozenset[str],
        expressions: list[SetExpression],
        epsilon: float,
        pool_levels: int,
        use_cache: bool,
        window: float | None = None,
    ):
        """Evaluate expressions over one stream set with shared sub-steps.

        Replicates :func:`repro.core.witness.run_witness_estimator` /
        :func:`repro.core.expression.estimate_expression` exactly — same
        union sub-estimate, same level choice, same masks, same error —
        but hoists everything expression-independent out of the per-query
        loop.  Returns ``(estimates, entry_for)`` with ``entry_for`` a
        factory producing the cache entry for each estimate.
        """
        names = tuple(sorted(stream_set))
        families = [self._family_for(name, window) for name in names]
        check_same_coins(*families)
        union = self._union_for(names, epsilon / 3.0, use_cache, window)
        union_value = float(union)
        num_sketches = families[0].num_sketches

        if union_value <= 0.0:
            # All streams (estimated) empty; every expression over them is
            # too — mirror run_witness_estimator's early return.
            empty = WitnessEstimate(
                value=0.0,
                level=0,
                union_estimate=union_value,
                num_valid=0,
                num_witnesses=0,
                num_sketches=num_sketches,
            )
            estimates = [empty for _ in expressions]
        else:
            num_levels = families[0].shape.num_levels
            level = choose_witness_level(union_value, epsilon, num_levels)
            programs = [compile_expression(expr) for expr in expressions]
            num_valid = 0
            witness_counts = [0] * len(expressions)
            for pooled in range(level, min(level + pool_levels, num_levels)):
                slabs = [family.level_slab(pooled) for family in families]
                valid = combined_singleton_union_mask(slabs)
                num_valid += int(valid.sum())
                # Restrict the per-stream masks to the valid sketches once:
                # programs are elementwise, so evaluating on the compressed
                # masks and summing equals summing ``witness & valid`` —
                # one fewer vector op per query, on shorter arrays.
                non_empty = {
                    name: (~empty_mask(slab))[valid]
                    for name, slab in zip(names, slabs)
                }
                for position, program in enumerate(programs):
                    witness_counts[position] += int(
                        program.evaluate(non_empty).sum()
                    )
            if num_valid == 0:
                raise EstimationError(
                    f"no sketch yielded a valid atomic observation at level "
                    f"{level}; maintain more sketches (have {num_sketches})"
                )
            estimates = [
                WitnessEstimate(
                    value=(count / num_valid) * union_value,
                    level=level,
                    union_estimate=union_value,
                    num_valid=num_valid,
                    num_witnesses=count,
                    num_sketches=num_sketches,
                )
                for count in witness_counts
            ]

        # Every member of the group consulted the same levels of the same
        # families, so the dependency record is computed once and shared
        # (tuples are immutable; each entry still tracks its own position).
        family_tuple = tuple(families)
        versions = tuple(family.version for family in families)
        if union_value <= 0.0:
            start = stop = 0
        else:
            start = level
            stop = min(level + pool_levels, num_levels)
        position_now = self._position()

        def entry_for(estimate: WitnessEstimate) -> _CacheEntry:
            return _CacheEntry(
                result=estimate,
                position=position_now,
                families=family_tuple,
                versions=versions,
                prefix=union.level,
                start=start,
                stop=stop,
            )

        return estimates, entry_for

    # -- internals ------------------------------------------------------------

    def _family(self, stream: str) -> SketchFamily:
        """An unwindowed engine's maintained synopsis for ``stream``."""
        if stream not in self._families:
            self._families[stream] = self.spec.build()
        return self._families[stream]

    def _alltime(self, stream: str) -> SketchFamily:
        """The all-time synopsis for reading (buffers not flushed)."""
        if self._window_span is None:
            return self._family(stream)
        return self._ring(stream).alltime()

    def _flush_stream(self, stream: str) -> None:
        # ingest_batch aggregates a buffer by linearity (duplicates
        # collapse, churn cancels) before maintenance — bit-identical to
        # update_batch, faster on real (skewed, churning) traffic.
        buffered = self._buffers.get(stream)
        if buffered and buffered[0]:
            elements, deltas = buffered
            if self._window_span is None:
                self._family(stream).ingest_batch(elements, deltas)
            else:
                self._ring(stream).ingest_unbucketed(elements, deltas)
            self._buffers[stream] = ([], [])
        pending = self._pending.pop(stream, None)
        if pending is not None:
            # Buffered timestamped updates belong to the watermark's
            # bucket: bring the ring there, then one scatter into it.
            ring = self._ring(stream)
            self._advance_ring(ring, self._window_clock)
            ring.ingest(*pending)
