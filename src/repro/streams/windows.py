"""Sliding windows as rings of time-bucketed synopses.

The paper's footnote treats modifications as deletion+insertion; the same
move turns its deletion-proof synopses into *sliding-window* synopses: as
items age out of the window, subtracting them leaves a sketch identical
to one over only the in-window items.  Replaying each update's inverse as
it ages out is exact, but holds every in-window update and pays for each
one at expiry.  :class:`WindowRing` needs no per-update memory at all: a
ring of time-bucketed synopses per stream, where ageing out a whole
cohort is one subtraction of its bucket's synopsis.

Precision is bucket-granular: buckets are the left-open intervals
``((b-1)·width, b·width]``, so at every instant that is an exact multiple
of the bucket width the ring's window is *bit-identical* to a sketch fed
every update and, one span later, its inverse; between boundaries the
ring keeps the oldest bucket until it has fully expired, over-covering by
less than one bucket.

Ingest lands in the newest (*open*) bucket only, so each batch is hashed
and scattered once.  By linearity the window synopsis is the sum of the
live buckets and the all-time synopsis the sum of every bucket; the ring
keeps the all-time sum without the open bucket while it takes ingest,
adds the open bucket when a reader asks, and sums windows on read.

Feed a ring **insert-only** observation streams ("items seen recently").
Windowing a stream that itself contains deletions is ill-defined for
non-negative multiset semantics: expiring a deletion re-inserts, and the
interleaving can transiently drive an element's net in-window frequency
negative (the sketch tolerates that; an exact reference store —
correctly — does not).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.core.family import SketchFamily, SketchSpec, sum_families

__all__ = ["WindowRing", "check_window_config"]

_CLOCK_POLICIES = ("raise", "clamp")


class WindowRing:
    """A ring of time-bucketed synopses for one stream.

    Time is split into the left-open bucket intervals ``((b-1)·width,
    b·width]`` — an update stamped exactly on a boundary belongs to the
    bucket *ending* there.  With ``span = k·width``, at any boundary
    instant ``m·width`` the live buckets ``m-k+1 .. m`` cover exactly
    the window ``(m·width - span, m·width]``: no bucket is ever
    partially expired at a boundary, which is what makes the ring
    bit-identical to per-update expiry there.  Between boundaries the
    oldest bucket is kept until the clock reaches its full-expiry
    instant ``(b+k)·width``, so the ring over-covers by less than one
    bucket width.

    The bucket of the clock is the **open** bucket; every other live
    bucket is closed.  Ingest goes into the open bucket only, one
    ``ingest_batch`` per flushed batch.  One running sum holds every
    closed bucket and the un-bucketed state: the all-time synopsis
    without the open bucket.  A closing bucket is added to it, and a
    late fold into a closed or expired bucket as it lands.  When a
    reader asks for the all-time synopsis (:meth:`alltime`), the open
    bucket is added too, and the sum then takes every fold into the open
    bucket as well, until the next ingest subtracts it out again.

    :meth:`family` sums the live buckets (the window) or the newest
    ``j`` of them (a sub-window ``j·width``) on read, into a view that
    later cell folds and expiries update in place and that is summed
    again (same object, bumped version) only after an ingest or, for a
    sub-window, a rotation.  Expiring an all-zero bucket touches
    nothing, so callers cache results against a returned family's
    version exactly as they would against a flat family.
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
        self._current: int | None = None  # the open bucket's index
        self._buckets: dict[int, SketchFamily] = {}
        # Every closed bucket plus the un-bucketed state, and the open
        # bucket too while _total_has_open: the all-time synopsis.
        self._total = spec.build()
        self._total_has_open = False
        # Window views: width in buckets -> the sum of its buckets, and
        # the widths whose view is current.
        self._views: dict[int, SketchFamily] = {}
        self._valid: set[int] = set()
        self.rotations = 0
        self.buckets_expired = 0
        self.empty_expiries = 0
        self.subwindow_rebuilds = 0

    # -- ingest ---------------------------------------------------------------

    def advance_to(self, now: float) -> int:
        """Move the clock forward; returns the number of buckets expired.

        A backwards ``now`` raises under ``clock_policy="raise"`` and is
        a no-op under ``"clamp"``; NaN and ±inf always raise.
        """
        return self._advance(self._checked_time(now))

    def ingest(self, elements, counts) -> None:
        """Apply a batch of updates stamped at the clock to the open
        bucket (one ``ingest_batch``); advance the ring first."""
        if self._current is None:
            raise ValueError("the ring has no clock yet: advance it first")
        open_bucket = self._bucket_for(self._current)
        if self._total_has_open:
            self._total.subtract_in_place(open_bucket)
            self._total_has_open = False
        open_bucket.ingest_batch(elements, counts)
        self._valid.clear()  # every view holds the open bucket

    def ingest_unbucketed(self, elements, counts) -> None:
        """Apply a batch of untimed updates: they join the all-time
        synopsis and no bucket, so they never enter a window."""
        self._total.ingest_batch(elements, counts)

    def merge_at(
        self, indices: np.ndarray, values: np.ndarray, at: float | None
    ) -> bool:
        """Fold delta cells attributed to instant ``at`` (federation).

        ``indices``/``values`` are the delta's non-zero cells, as
        :meth:`~repro.core.family.SketchFamily.add_cells` takes them.
        Advances the clock if ``at`` is ahead of it.  A fold into the
        open bucket is one cells add, plus one into each read synopsis
        that is current and covers it (so reads between folds re-sum
        nothing).  A *late* delta is not an error here (site skew is
        expected at a fold point): it lands in its true bucket if that
        bucket is still live, and in the all-time synopsis only —
        returning ``False`` — if the bucket has already expired, which
        is exactly the window semantics: those updates are out of
        window.  ``at=None`` folds into the all-time synopsis only, too.
        """
        bucket = None
        if at is not None:
            at = finite_time(at)
            if at > self._clock:
                self._advance(at)
            bucket = self._bucket_of(at)
            if bucket <= self._expiry_threshold():
                bucket = None
        if bucket is not None:
            self._bucket_for(bucket).add_cells(indices, values)
            for width in self._valid:
                if width == self.num_buckets or bucket > self._current - width:
                    self._views[width].add_cells(indices, values)
        if bucket is None or bucket != self._current or self._total_has_open:
            self._total.add_cells(indices, values)
        return bucket is not None

    def set_alltime(self, family: SketchFamily) -> None:
        """Make ``family``'s counters the all-time synopsis (adoption,
        checkpoint restore); the window is untouched.

        The running sum takes ``family``'s counters, open bucket
        included; the next ingest subtracts that bucket out, which is
        exact: int64 addition wraps, so it is a group.
        """
        sum_families([family], out=self._total)
        self._total_has_open = True

    # -- queries ---------------------------------------------------------------

    def family(self, window: float | None = None) -> SketchFamily:
        """The in-window synopsis (optionally for a narrower sub-window).

        ``window`` must be a whole number of bucket widths in ``(0,
        window_span]``; ``None`` means the full span: every live bucket.
        A sub-window sums its newest buckets.  The sum is kept and
        updated in place (see the class docstring).
        """
        width = self.num_buckets
        if window is not None:
            width = window_buckets(window, self.window_span, self.bucket_width)
        view = self._views.get(width)
        if view is not None and width in self._valid:
            return view
        if width == self.num_buckets:
            members = list(self._buckets.values())
        else:
            newest = self._current or 0  # no clock yet: no buckets to find
            members = [
                self._buckets[index]
                for index in range(newest - width + 1, newest + 1)
                if index in self._buckets
            ]
            self.subwindow_rebuilds += 1
        if members:
            view = sum_families(members, out=view)
        else:
            view = view if view is not None else self.spec.build()
            view.counters[:] = 0
            view.refresh_aggregates()
        self._views[width] = view
        self._valid.add(width)
        return view

    def alltime(self) -> SketchFamily:
        """The all-time synopsis: every bucket, expired or not, plus the
        un-bucketed state.  The same object every call; it changes (and
        bumps its version) only when that value does — or, after an
        ingest, to leave the open bucket out until the next call."""
        if not self._total_has_open:
            open_bucket = self._buckets.get(self._current)
            if open_bucket is not None:
                self._total.merge_in_place(open_bucket)
            self._total_has_open = True
        return self._total

    def delta_payload(
        self, baseline: SketchFamily
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Advance ``baseline`` to the all-time synopsis; the cells it
        moved (:meth:`~repro.core.family.SketchFamily.delta_payload`),
        diffed from the running sum and the open bucket in one pass."""
        plus = None if self._total_has_open else self._buckets.get(self._current)
        return self._total.delta_payload(baseline, plus=plus)

    # -- introspection ---------------------------------------------------------

    @property
    def clock(self) -> float:
        return self._clock

    @property
    def current_bucket(self) -> int | None:
        """Index of the open bucket (the one absorbing ingest)."""
        return self._current

    def live_buckets(self) -> list[int]:
        """Indices of materialised (non-expired) buckets, oldest first."""
        return sorted(self._buckets)

    def bucket(self, index: int) -> SketchFamily:
        """The synopsis of one live bucket (KeyError if not materialised)."""
        return self._buckets[index]

    # -- checkpoint ------------------------------------------------------------

    def bucket_payloads(self) -> Iterator[tuple[int, bytes]]:
        """``(bucket_index, counter_payload)`` for each non-zero live bucket."""
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
        alltime: SketchFamily | None = None,
    ) -> "WindowRing":
        """Rebuild a ring from checkpointed state.

        ``alltime`` (the checkpointed all-time synopsis, if any) is
        installed through :meth:`set_alltime`; windows are summed from
        the buckets on the first read — by linearity, bit-identical to
        their sums at checkpoint time.
        """
        ring = cls(spec, window_span, bucket_width, clock_policy=clock_policy)
        if clock is not None:
            ring._clock = float(clock)
            ring._current = ring._bucket_of(ring._clock)
            threshold = ring._expiry_threshold()
            for index, family in buckets.items():
                if index > threshold:
                    ring._buckets[int(index)] = family
        if alltime is not None:
            ring.set_alltime(alltime)
        return ring

    # -- internals -------------------------------------------------------------

    def _bucket_for(self, index: int) -> SketchFamily:
        """Live bucket ``index``, materialised on first use."""
        family = self._buckets.get(index)
        if family is None:
            family = self._buckets[index] = self.spec.build()
        return family

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
        bucket = self._bucket_of(now)
        if bucket != self._current:
            if self._current is not None:
                self.rotations += 1
                self._close(self._current)
            self._current = bucket
            # A rotation changes no sum, but which buckets the
            # sub-windows hold.
            self._valid &= {self.num_buckets}
        threshold = self._expiry_threshold()
        expired = 0
        for index in sorted(self._buckets):
            if index > threshold:
                break
            family = self._buckets.pop(index)
            expired += 1
            self.buckets_expired += 1
            if family.is_zero():
                # Nothing to subtract: the window's version is
                # untouched, so cached windowed estimates revalidate
                # instead of recomputing.
                self.empty_expiries += 1
            elif self.num_buckets in self._valid:
                self._views[self.num_buckets].subtract_in_place(family)
        return expired

    def _close(self, index: int) -> None:
        """Add the closing open bucket to the running sum (unless it
        holds it already)."""
        family = self._buckets.get(index)
        if self._total_has_open or family is None or family.is_zero():
            return
        self._total.merge_in_place(family)

    def _checked_time(self, value: float) -> float:
        """``value`` validated (:func:`finite_time`) against the clock
        policy; a clamped regression comes back as the watermark."""
        value = finite_time(value)
        if value < self._clock:
            if self.clock_policy == "raise":
                raise ValueError(
                    f"time went backwards: {value} after {self._clock}"
                )
            return self._clock
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


def bucket_end(index: int, bucket_width: float) -> float:
    """The latest instant in bucket ``index``: the largest float that
    :func:`bucket_index` maps there (``index·width``, give or take the
    rounding of the product), so one comparison tells whether an
    instant is still in the bucket."""
    end = index * bucket_width
    while bucket_index(end, bucket_width) > index:
        end = math.nextafter(end, -math.inf)
    while bucket_index(math.nextafter(end, math.inf), bucket_width) <= index:
        end = math.nextafter(end, math.inf)
    return end


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
    return window_span, bucket_width, _whole_buckets(
        "window_span", window_span, bucket_width
    )


def window_buckets(window: float, window_span: float, bucket_width: float) -> int:
    """Validate a query window against a (span, width) configuration;
    returns its width in buckets."""
    window = float(window)
    if not window > 0:
        raise ValueError("window must be positive")
    if window > window_span + 1e-9:
        raise ValueError(f"window {window} exceeds the span {window_span}")
    return _whole_buckets("window", window, bucket_width)


def _whole_buckets(name: str, length: float, bucket_width: float) -> int:
    buckets = length / bucket_width
    rounded = round(buckets)
    if rounded < 1 or abs(buckets - rounded) > 1e-9:
        raise ValueError(
            f"{name} {length} is not a whole number of bucket widths "
            f"({bucket_width})"
        )
    return rounded
