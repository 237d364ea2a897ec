"""Sliding-window semantics via deletions.

The paper's footnote treats modifications as deletion+insertion; the same
move turns its deletion-proof synopses into *sliding-window* synopses: as
items age out of the window, the source issues the inverse updates, and
the sketch — being deletion-invariant — ends up identical to a sketch
over only the in-window items.

Two implementations live here, one per side of the wire:

:class:`SlidingWindowDriver` is the **source side**: it forwards each
timestamped update to its sink(s) and remembers it; when time advances
past ``window_span``, it emits the inverse updates of everything that
fell out.  Memory is proportional to the number of *in-window* updates —
that state lives at the observing source (which sees its own traffic
anyway), not at the query processor, so the streaming model downstream is
untouched.

:class:`WindowRing` is the **processor side**: a ring of time-bucketed
synopses that needs no per-update memory at all.  Updates land in the
newest bucket; the in-window synopsis is the linear *sum* of the live
buckets, maintained incrementally; expiry is one vectorised subtraction
of the oldest bucket (deletions come free in this sketch — ageing out a
whole cohort is ``subtract_in_place`` of its synopsis).  Precision is
bucket-granular: buckets are the left-open intervals ``((b-1)·width,
b·width]``, so at every instant that is an exact multiple of the bucket
width the ring's window is *bit-identical* to a driver-fed flat sketch;
between boundaries the ring keeps the oldest bucket until it has fully
expired, over-covering by less than one bucket.

Feed either one **insert-only** observation streams ("items seen
recently").  Windowing a stream that itself contains deletions is
ill-defined for non-negative multiset semantics: expiring a deletion
emits an insertion, and the interleaving can transiently drive an
element's net in-window frequency negative (the sketch tolerates that;
the exact reference store — correctly — does not).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator

import numpy as np

from repro.core.family import SketchFamily, SketchSpec, sum_families
from repro.streams.updates import Update

__all__ = ["SlidingWindowDriver", "WindowRing", "check_window_config"]

_CLOCK_POLICIES = ("raise", "clamp")


class SlidingWindowDriver:
    """Maintains time-based sliding-window semantics over sinks.

    Parameters
    ----------
    window_span:
        Width of the window in the caller's time unit.  An update observed
        at time ``t`` expires as soon as the clock reaches ``t +
        window_span`` (exclusive bound: ``observe(..., at=0)`` with span 10
        is still in-window at ``advance_to(9)`` and gone at 10).
    sinks:
        Objects with ``process(update)`` or ``apply(update)``; every
        forwarded and inverse update goes to all of them.  Sinks that also
        expose a batch entry point (``process_many`` or ``apply_many``)
        receive each expiry cohort as **one batch per** ``advance_to``
        instead of per-update scalar calls, engaging the vectorised
        ingest path; per-sink update order is unchanged, so by sketch
        linearity the result is bit-identical to the scalar path.
    clock_policy:
        What to do with a non-monotonic clock.  The driver's correctness
        argument (expiry order equals observation order, so the deque
        head is always the oldest in-window update) needs a
        non-decreasing clock; a timestamp that silently moved it
        backwards — or a NaN, which every comparison answers False for,
        freezing expiry forever — would mis-expire updates with no
        error.  ``"raise"`` (the default) rejects any regressing or NaN
        timestamp with :class:`ValueError`.  ``"clamp"`` instead stamps
        late updates at the current watermark (they enter the window
        *now*, where they were observed, and expire a full span later)
        and treats a backwards ``advance_to`` as a no-op; NaN and ±inf
        are always errors — there is no watermark they can mean.
        Clamping is the policy for wall-clock sources with small skew
        (e.g. merged feeds from several machines), raising for
        logical/event time where a regression is a bug worth hearing
        about.
    """

    def __init__(
        self, window_span: float, *sinks, clock_policy: str = "raise"
    ) -> None:
        if window_span <= 0:
            raise ValueError("window_span must be positive")
        if not sinks:
            raise ValueError("need at least one sink")
        if clock_policy not in _CLOCK_POLICIES:
            raise ValueError("clock_policy must be 'raise' or 'clamp'")
        self.window_span = window_span
        self.clock_policy = clock_policy
        self._handlers = []
        self._batch_handlers = []
        for sink in sinks:
            handler = getattr(sink, "process", None) or getattr(sink, "apply", None)
            if handler is None:
                raise TypeError(
                    f"{type(sink).__name__} has no process()/apply() method"
                )
            self._handlers.append(handler)
            self._batch_handlers.append(
                getattr(sink, "process_many", None)
                or getattr(sink, "apply_many", None)
            )
        self._clock = float("-inf")
        self._in_window: deque[tuple[float, Update]] = deque()

    # -- ingest ---------------------------------------------------------------

    def observe(self, update: Update, at: float) -> None:
        """Forward one update observed at time ``at``.

        ``at`` must respect the configured ``clock_policy``: regressions
        raise by default, or are clamped to the current watermark (see
        the class docstring); NaN and ±inf timestamps always raise.
        """
        at = self._checked_time(at)
        if at < self._clock:  # clamp policy: stamp at the watermark
            at = self._clock
        self.advance_to(at)
        self._emit(update)
        self._in_window.append((at, update))

    def observe_many(self, updates: Iterable[tuple[Update, float]]) -> int:
        """Observe a sequence of (update, timestamp) pairs.

        Returns the number of updates observed.  Emission is **partial
        on error**: each pair is forwarded to the sinks as it is
        consumed, so if a timestamp is rejected mid-iterable (a
        regression under ``clock_policy="raise"``, or a non-finite one
        under either policy) the earlier pairs have already been emitted and remain
        in the window — the driver and its sinks stay mutually
        consistent.  The return value tells the caller exactly how far
        the iterable got; resume by re-observing from that offset.
        """
        observed = 0
        for update, at in updates:
            self.observe(update, at)
            observed += 1
        return observed

    def advance_to(self, now: float) -> int:
        """Move the clock forward, expiring everything out of window.

        Returns the number of updates expired.  A regressing ``now``
        raises or is ignored per ``clock_policy``; NaN and ±inf always raise.
        The expiry cohort's inverse updates are emitted as one batch per
        sink (in observation order, so per-sink state is bit-identical
        to per-update emission); sinks without a batch entry point get
        scalar calls.
        """
        now = self._checked_time(now)
        if now < self._clock:  # clamp policy: backwards advance is a no-op
            return 0
        self._clock = now
        inverses: list[Update] = []
        while self._in_window and self._in_window[0][0] + self.window_span <= now:
            _, update = self._in_window.popleft()
            inverses.append(update.inverse())
        if inverses:
            self._emit_batch(inverses)
        return len(inverses)

    # -- introspection ---------------------------------------------------------

    @property
    def clock(self) -> float:
        return self._clock

    @property
    def in_window_count(self) -> int:
        """Number of updates currently inside the window."""
        return len(self._in_window)

    # -- internals -------------------------------------------------------------

    def _checked_time(self, value: float) -> float:
        """Validate a timestamp (:func:`finite_time`) against the clock
        policy."""
        value = finite_time(value)
        if value < self._clock and self.clock_policy == "raise":
            raise ValueError(
                f"time went backwards: {value} after {self._clock}"
            )
        return value

    def _emit(self, update: Update) -> None:
        for handler in self._handlers:
            handler(update)

    def _emit_batch(self, updates: list[Update]) -> None:
        for handler, batch_handler in zip(self._handlers, self._batch_handlers):
            if batch_handler is not None:
                batch_handler(updates)
            else:
                for update in updates:
                    handler(update)


class WindowRing:
    """A ring of time-bucketed synopses for one stream.

    Time is split into the left-open bucket intervals ``((b-1)·width,
    b·width]`` — an update stamped exactly on a boundary belongs to the
    bucket *ending* there.  With ``span = k·width``, at any boundary
    instant ``m·width`` the live buckets ``m-k+1 .. m`` cover exactly
    the driver's window ``(m·width - span, m·width]``: no bucket is ever
    partially expired at a boundary, which is what makes the ring
    bit-identical to a :class:`SlidingWindowDriver`-fed flat sketch
    there.  Between boundaries the oldest bucket is kept until the clock
    reaches its full-expiry instant ``(b+k)·width``, so the ring
    over-covers by less than one bucket width.

    The in-window synopsis is maintained incrementally: every ingest
    batch is applied to both the newest bucket and the window total
    (same exact per-level dirty marking as a flat family, so cached
    windowed estimates revalidate identically), and expiry of a
    non-empty bucket is one ``subtract_in_place``.  Expiring an
    all-zero bucket touches nothing — the window total's version is
    unchanged and downstream caches revalidate in O(streams).

    Sub-window queries at bucket granularity come free: ``family(window
    = j·width)`` sums the newest ``j`` buckets, memoised per ``j`` and
    rebuilt in place only when the member buckets change.
    """

    def __init__(
        self,
        spec: SketchSpec,
        window_span: float,
        bucket_width: float | None = None,
        *,
        clock_policy: str = "raise",
    ) -> None:
        self.window_span, self.bucket_width, self.num_buckets = check_window_config(
            window_span, bucket_width
        )
        if clock_policy not in _CLOCK_POLICIES:
            raise ValueError("clock_policy must be 'raise' or 'clamp'")
        self.spec = spec
        self.clock_policy = clock_policy
        self._clock = float("-inf")
        self._current: int | None = None  # newest bucket index
        self._buckets: dict[int, SketchFamily] = {}
        self._window = spec.build()  # maintained sum of the live buckets
        self._pending_elements: list[int] = []
        self._pending_counts: list[int] = []
        self._pending_bucket: int | None = None
        # j (bucket count) -> (family, ((bucket, version), ...)) memo
        self._sub_windows: dict[int, tuple[SketchFamily, tuple]] = {}
        self.rotations = 0
        self.buckets_expired = 0
        self.empty_expiries = 0
        self.subwindow_rebuilds = 0

    # -- ingest ---------------------------------------------------------------

    def observe(self, element: int, count: int, at: float) -> None:
        """Buffer one update stamped ``at`` into its bucket.

        Timestamps follow ``clock_policy`` exactly like the driver:
        regressions raise or clamp to the watermark, NaN and ±inf always
        raise.
        """
        at = self._checked_time(at)
        if at < self._clock:  # clamp policy: stamp at the watermark
            at = self._clock
        self._advance(at)
        bucket = self._bucket_of(at)
        if self._pending_bucket is not None and self._pending_bucket != bucket:
            self.flush()
        self._pending_bucket = bucket
        self._pending_elements.append(element)
        self._pending_counts.append(count)

    def advance_to(self, now: float) -> int:
        """Move the clock forward; returns the number of buckets expired."""
        now = self._checked_time(now)
        if now < self._clock:  # clamp policy: backwards advance is a no-op
            return 0
        return self._advance(now)

    def flush(self) -> None:
        """Apply buffered updates to their bucket and the window total."""
        if not self._pending_elements:
            return
        bucket = self._pending_bucket
        family = self._buckets.get(bucket)
        if family is None:
            family = self._buckets[bucket] = self.spec.build()
        family.ingest_batch(self._pending_elements, self._pending_counts)
        self._window.ingest_batch(self._pending_elements, self._pending_counts)
        self._pending_elements = []
        self._pending_counts = []
        self._pending_bucket = None

    def merge_at(
        self, indices: np.ndarray, values: np.ndarray, at: float
    ) -> bool:
        """Fold delta cells attributed to instant ``at`` (federation).

        ``indices``/``values`` are the delta's non-zero cells, as
        :meth:`~repro.core.family.SketchFamily.add_cells` takes them.
        Advances the clock if ``at`` is ahead of it.  A *late* delta is
        not an error here (site skew is expected at a fold point): it
        lands in its true bucket if that bucket is still live, and is
        skipped — returning ``False`` — if the bucket has already
        expired, which is exactly the window semantics: those updates
        are out of window.  The caller folds the delta into its all-time
        synopsis regardless.
        """
        at = finite_time(at)
        if at > self._clock:
            self._advance(at)
        bucket = self._bucket_of(at)
        if bucket <= self._expiry_threshold():
            return False
        self.flush()
        family = self._buckets.get(bucket)
        if family is None:
            family = self._buckets[bucket] = self.spec.build()
        family.add_cells(indices, values)
        self._window.add_cells(indices, values)
        return True

    # -- queries ---------------------------------------------------------------

    def family(self, window: float | None = None) -> SketchFamily:
        """The in-window synopsis (optionally for a narrower sub-window).

        ``window`` must be a whole number of bucket widths in ``(0,
        window_span]``; ``None`` means the full span.  The full-span
        family is the incrementally maintained total; sub-window
        families are memoised per width and rebuilt (in place, bumping
        their version) only when their member buckets changed, so
        callers can cache results against the returned family's version
        exactly as they would against a flat family.
        """
        self.flush()
        if window is None:
            return self._window
        j = self.check_window(window)
        if j == self.num_buckets:
            return self._window
        members = []
        if self._current is not None:
            members = [
                b
                for b in range(self._current - j + 1, self._current + 1)
                if b in self._buckets
            ]
        signature = tuple((b, self._buckets[b].version) for b in members)
        cached = self._sub_windows.get(j)
        if cached is not None and cached[1] == signature:
            return cached[0]
        family = cached[0] if cached is not None else self.spec.build()
        if members:
            sum_families([self._buckets[b] for b in members], out=family)
        else:
            family.counters[:] = 0
            family.refresh_aggregates()
        self.subwindow_rebuilds += 1
        self._sub_windows[j] = (family, signature)
        return family

    def check_window(self, window: float) -> int:
        """Validate a query window; returns its width in buckets."""
        window = float(window)
        if not window > 0:
            raise ValueError("window must be positive")
        if window > self.window_span + 1e-9:
            raise ValueError(
                f"window {window} exceeds the ring's span {self.window_span}"
            )
        buckets = window / self.bucket_width
        rounded = round(buckets)
        if rounded < 1 or abs(buckets - rounded) > 1e-9:
            raise ValueError(
                f"window {window} is not a whole number of bucket widths "
                f"({self.bucket_width})"
            )
        return rounded

    # -- introspection ---------------------------------------------------------

    @property
    def clock(self) -> float:
        return self._clock

    @property
    def current_bucket(self) -> int | None:
        """Index of the bucket currently absorbing ingest."""
        return self._current

    def live_buckets(self) -> list[int]:
        """Indices of materialised (non-expired) buckets, oldest first."""
        return sorted(self._buckets)

    def bucket(self, index: int) -> SketchFamily:
        """The synopsis of one live bucket (KeyError if not materialised)."""
        return self._buckets[index]

    # -- checkpoint ------------------------------------------------------------

    def state_meta(self) -> dict:
        """JSON-safe ring metadata for a checkpoint manifest.

        Bucket payloads travel separately (see :meth:`bucket_payloads`);
        the window total is rebuilt by summation on restore.
        """
        self.flush()
        return {
            "clock": None if self._clock == float("-inf") else self._clock,
            "buckets": [b for b in sorted(self._buckets)],
        }

    def bucket_payloads(self) -> Iterator[tuple[int, bytes]]:
        """``(bucket_index, counter_payload)`` for each non-zero live bucket."""
        self.flush()
        for index in sorted(self._buckets):
            family = self._buckets[index]
            if not family.is_zero():
                yield index, family.to_bytes()

    @classmethod
    def restore(
        cls,
        spec: SketchSpec,
        window_span: float,
        bucket_width: float | None,
        clock: float | None,
        buckets: dict[int, SketchFamily],
        *,
        clock_policy: str = "raise",
    ) -> "WindowRing":
        """Rebuild a ring from checkpointed state.

        The window total is recomputed as the sum of the restored
        buckets — by linearity, bit-identical to the total at
        checkpoint time.
        """
        ring = cls(spec, window_span, bucket_width, clock_policy=clock_policy)
        if clock is not None:
            ring._clock = float(clock)
            ring._current = ring._bucket_of(ring._clock)
            threshold = ring._expiry_threshold()
            for index, family in buckets.items():
                if index > threshold:
                    ring._buckets[int(index)] = family
            if ring._buckets:
                sum_families(
                    [ring._buckets[b] for b in sorted(ring._buckets)],
                    out=ring._window,
                )
        return ring

    # -- internals -------------------------------------------------------------

    def _bucket_of(self, at: float) -> int:
        return bucket_index(at, self.bucket_width)

    def _expiry_threshold(self) -> int:
        """Largest bucket index that is fully expired at the current clock.

        Bucket ``b`` covers ``((b-1)·width, b·width]`` and its youngest
        possible update expires at ``b·width + span = (b+k)·width``, so
        the bucket is dropped once ``clock >= (b+k)·width``.
        """
        if self._clock == float("-inf"):
            return -(2**62)
        return math.floor(self._clock / self.bucket_width) - self.num_buckets

    def _advance(self, now: float) -> int:
        if now <= self._clock:
            return 0
        self._clock = now
        new_bucket = self._bucket_of(now)
        if self._current is not None and new_bucket != self._current:
            self.rotations += 1
        self._current = new_bucket
        if self._pending_bucket is not None and self._pending_bucket != new_bucket:
            self.flush()
        threshold = self._expiry_threshold()
        expired = 0
        for index in sorted(self._buckets):
            if index > threshold:
                break
            family = self._buckets.pop(index)
            expired += 1
            self.buckets_expired += 1
            if family.is_zero():
                # Nothing to subtract: the window total's version is
                # untouched, so cached windowed estimates revalidate
                # instead of recomputing.
                self.empty_expiries += 1
            else:
                self._window.subtract_in_place(family)
        return expired

    def _checked_time(self, value: float) -> float:
        value = finite_time(value)
        if value < self._clock and self.clock_policy == "raise":
            raise ValueError(
                f"time went backwards: {value} after {self._clock}"
            )
        return value


def finite_time(value: float) -> float:
    """``value`` as a float; NaN and ±inf raise :class:`ValueError`.

    A NaN slips past every ordering check (``NaN < clock`` is False),
    becomes the watermark and freezes expiry forever; an infinite
    instant is a watermark no later time can pass, and has no bucket
    (:func:`bucket_index` raises on it).
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"timestamps must be finite, got {value}")
    return value


def bucket_index(at: float, bucket_width: float) -> int:
    """The ring bucket covering instant ``at``: bucket ``b`` covers
    ``((b-1)·width, b·width]``."""
    return math.ceil(at / bucket_width)


def check_window_config(
    window_span: float, bucket_width: float | None
) -> tuple[float, float, int]:
    """Validate a (span, width) pair; returns ``(span, width, num_buckets)``.

    ``bucket_width`` defaults to the span (a single tumbling bucket) and
    must divide the span into a whole number of buckets.
    """
    window_span = float(window_span)
    if not window_span > 0:
        raise ValueError("window_span must be positive")
    if bucket_width is None:
        bucket_width = window_span
    bucket_width = float(bucket_width)
    if not bucket_width > 0:
        raise ValueError("bucket_width must be positive")
    buckets = window_span / bucket_width
    num_buckets = round(buckets)
    if num_buckets < 1 or abs(buckets - num_buckets) > 1e-9:
        raise ValueError(
            f"window_span {window_span} is not a whole number of bucket "
            f"widths ({bucket_width})"
        )
    return window_span, bucket_width, num_buckets
