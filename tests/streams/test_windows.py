"""Tests of the window rings, against a per-update sliding-window driver."""

from __future__ import annotations

import contextlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import _kernel
from repro.core.family import SketchFamily, SketchSpec, sum_families
from repro.core.plan import HashPlan
from repro.core.sketch import SketchShape
from repro.streams.checkpoint import checkpoint_engine, restore_engine
from repro.streams.engine import StreamEngine
from repro.streams.exact import ExactStreamStore
from repro.streams.updates import Update
from repro.streams.windows import (
    WindowRing,
    bucket_index,
    check_window_config,
    window_buckets,
)
from tests.streams.window_driver import SlidingWindowDriver

SHAPE = SketchShape(domain_bits=20, num_second_level=8, independence=6)
SPEC = SketchSpec(num_sketches=64, shape=SHAPE, seed=21)


class TestWindowMechanics:
    def test_updates_forwarded(self):
        store = ExactStreamStore()
        driver = SlidingWindowDriver(10.0, store)
        driver.observe(Update("A", 1, 1), at=0.0)
        assert store.distinct_set("A") == {1}

    def test_expiry_deletes(self):
        store = ExactStreamStore()
        driver = SlidingWindowDriver(10.0, store)
        driver.observe(Update("A", 1, 1), at=0.0)
        driver.observe(Update("A", 2, 1), at=5.0)
        expired = driver.advance_to(10.0)
        assert expired == 1
        assert store.distinct_set("A") == {2}
        assert driver.in_window_count == 1

    def test_exclusive_expiry_bound(self):
        store = ExactStreamStore()
        driver = SlidingWindowDriver(10.0, store)
        driver.observe(Update("A", 1, 1), at=0.0)
        assert driver.advance_to(9.999) == 0
        assert driver.advance_to(10.0) == 1

    def test_time_must_not_go_backwards(self):
        driver = SlidingWindowDriver(10.0, ExactStreamStore())
        driver.observe(Update("A", 1, 1), at=5.0)
        with pytest.raises(ValueError):
            driver.observe(Update("A", 2, 1), at=4.0)
        with pytest.raises(ValueError):
            driver.advance_to(1.0)

    def test_multiple_sinks(self):
        store = ExactStreamStore()
        engine = StreamEngine(SPEC)
        driver = SlidingWindowDriver(10.0, engine, store)
        driver.observe(Update("A", 1, 1), at=0.0)
        driver.advance_to(20.0)
        engine.flush()
        assert store.distinct_count("A") == 0
        assert engine.family("A").is_empty()

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowDriver(0.0, ExactStreamStore())
        with pytest.raises(ValueError):
            SlidingWindowDriver(1.0)
        with pytest.raises(TypeError):
            SlidingWindowDriver(1.0, object())


class TestWindowedSketchSemantics:
    def test_windowed_sketch_equals_in_window_build(self):
        """After expiry, the engine's sketch must be identical to a fresh
        sketch over only the in-window elements — the whole point of
        deletion-invariance."""
        rng = np.random.default_rng(800)
        elements = rng.choice(2**20, size=600, replace=False)
        engine = StreamEngine(SPEC)
        driver = SlidingWindowDriver(100.0, engine)
        for tick, element in enumerate(elements):
            driver.observe(Update("A", int(element), 1), at=float(tick))
        # Clock is now 599; window [500, 599] keeps the last 100 ticks.
        driver.advance_to(599.0)
        engine.flush()

        fresh = SPEC.build()
        fresh.update_batch(elements[-100:])
        assert engine.family("A") == fresh

    def test_windowed_cardinality_query(self):
        rng = np.random.default_rng(801)
        elements = rng.choice(2**20, size=2000, replace=False)
        engine = StreamEngine(
            SketchSpec(num_sketches=128, shape=SHAPE, seed=3)
        )
        exact = ExactStreamStore()
        driver = SlidingWindowDriver(500.0, engine, exact)
        for tick, element in enumerate(elements):
            driver.observe(Update("A", int(element), 1), at=float(tick))
        estimate = engine.query_union(["A"], 0.2)
        truth = exact.distinct_count("A")
        assert truth == 500
        assert abs(estimate.value - truth) / truth < 0.4


class TestClockPolicy:
    """The non-monotonic timestamp policy: ``"raise"`` (default) rejects
    regressions, ``"clamp"`` folds them onto the watermark, and NaN is
    rejected unconditionally under both."""

    def test_raise_is_the_default(self):
        driver = SlidingWindowDriver(10.0, ExactStreamStore())
        assert driver.clock_policy == "raise"

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindowDriver(10.0, ExactStreamStore(), clock_policy="ignore")

    @pytest.mark.parametrize("policy", ["raise", "clamp"])
    def test_nan_always_rejected(self, policy):
        """NaN slips past every ordering check (``NaN < clock`` is
        False) and would freeze expiry forever, so even the lenient
        policy refuses it — and the driver state stays untouched."""
        store = ExactStreamStore()
        driver = SlidingWindowDriver(10.0, store, clock_policy=policy)
        driver.observe(Update("A", 1, 1), at=5.0)
        with pytest.raises(ValueError):
            driver.observe(Update("A", 2, 1), at=float("nan"))
        with pytest.raises(ValueError):
            driver.advance_to(float("nan"))
        assert driver.clock == 5.0
        assert driver.in_window_count == 1
        assert store.distinct_count("A") == 1

    @pytest.mark.parametrize("policy", ["raise", "clamp"])
    @pytest.mark.parametrize("at", [float("inf"), float("-inf")], ids=["inf", "-inf"])
    def test_infinite_time_rejected_and_engine_stays_usable(self, policy, at):
        """An infinite instant has no ring bucket, and as a watermark no
        later time could pass it: the engine, the ring and the driver
        refuse it before changing anything, and keep working."""
        engine = StreamEngine(
            SPEC, window_span=10.0, bucket_width=2.0, clock_policy=policy
        )
        engine.observe(Update("A", 1, 1), at=5.0)
        with pytest.raises(ValueError, match="finite"):
            engine.observe(Update("A", 2, 1), at)
        with pytest.raises(ValueError, match="finite"):
            engine.advance_to(at)
        assert engine.window_clock == 5.0
        engine.observe(Update("A", 3, 1), at=6.0)
        reference = StreamEngine(SPEC, window_span=10.0, bucket_width=2.0)
        reference.observe(Update("A", 1, 1), at=5.0)
        reference.observe(Update("A", 3, 1), at=6.0)
        assert engine.family("A") == reference.family("A")
        assert engine.window_family("A") == reference.window_family("A")

        ring = WindowRing(SPEC, 10.0, 2.0, clock_policy=policy)
        with pytest.raises(ValueError, match="finite"):
            ring.advance_to(at)
        assert ring.clock == float("-inf")
        driver = SlidingWindowDriver(10.0, ExactStreamStore(), clock_policy=policy)
        with pytest.raises(ValueError, match="finite"):
            driver.observe(Update("A", 1, 1), at)
        assert driver.in_window_count == 0

    def test_clamp_stamps_regressions_at_watermark(self):
        """A late update under ``"clamp"`` enters the window as if it
        arrived exactly at the watermark: it is forwarded, and it
        expires with the watermark's cohort, not before."""
        store = ExactStreamStore()
        driver = SlidingWindowDriver(10.0, store, clock_policy="clamp")
        driver.observe(Update("A", 1, 1), at=5.0)
        driver.observe(Update("A", 2, 1), at=3.0)  # late: stamped at 5.0
        assert driver.clock == 5.0
        assert store.distinct_count("A") == 2
        # expiry at 13.0 would have dropped a 3.0-stamped update
        # (3.0 + 10 <= 13) but not a clamped one (5.0 + 10 > 13)
        assert driver.advance_to(13.0) == 0
        assert store.distinct_count("A") == 2
        assert driver.advance_to(15.0) == 2  # both cohorts expire together
        assert store.distinct_count("A") == 0

    def test_clamp_backwards_advance_is_noop(self):
        driver = SlidingWindowDriver(10.0, ExactStreamStore(), clock_policy="clamp")
        driver.observe(Update("A", 1, 1), at=8.0)
        assert driver.advance_to(2.0) == 0
        assert driver.clock == 8.0
        assert driver.in_window_count == 1

    def test_raise_leaves_state_intact_after_rejection(self):
        """A rejected regression must not half-apply: clock, window
        contents, and sink state all stay as they were."""
        store = ExactStreamStore()
        driver = SlidingWindowDriver(10.0, store, clock_policy="raise")
        driver.observe(Update("A", 1, 1), at=5.0)
        with pytest.raises(ValueError):
            driver.observe(Update("A", 2, 1), at=4.0)
        assert driver.clock == 5.0
        assert driver.in_window_count == 1
        assert store.distinct_count("A") == 1
        driver.observe(Update("A", 2, 1), at=5.0)  # equal time is fine
        assert store.distinct_count("A") == 2


# ---------------------------------------------------------------------------
# observe_many contract (batch ingest)
# ---------------------------------------------------------------------------


class _RecordingSink:
    """Scalar + batch sink that logs every call for handler-resolution tests."""

    def __init__(self, batch_method=None):
        self.scalar_calls: list[Update] = []
        self.batch_calls: list[list[Update]] = []
        if batch_method is not None:
            setattr(self, batch_method, self._batch)

    def process(self, update):
        self.scalar_calls.append(update)

    def _batch(self, updates):
        self.batch_calls.append(list(updates))


class TestObserveManyContract:
    def test_returns_observed_count(self):
        store = ExactStreamStore()
        driver = SlidingWindowDriver(10.0, store)
        pairs = [(Update("A", e, 1), float(e)) for e in range(1, 6)]
        assert driver.observe_many(pairs) == 5
        assert driver.observe_many([]) == 0
        assert store.distinct_count("A") == 5

    def test_engine_observe_many_returns_count(self):
        engine = StreamEngine(SPEC, window_span=10.0, bucket_width=2.0)
        pairs = [(Update("A", e, 1), float(e)) for e in range(1, 8)]
        assert engine.observe_many(pairs) == 7
        engine.flush()
        direct = SketchFamily(SPEC)
        direct.ingest_batch(list(range(1, 8)))
        assert np.array_equal(engine.window_family("A").counters, direct.counters)

    def test_partial_emit_on_mid_iterable_error(self):
        """A bad timestamp mid-batch raises, but everything before it has
        already been forwarded — the return value is lost, so callers who
        need exactly-once accounting must pre-validate timestamps."""
        store = ExactStreamStore()
        driver = SlidingWindowDriver(10.0, store, clock_policy="raise")

        def pairs():
            yield Update("A", 1, 1), 1.0
            yield Update("A", 2, 1), 2.0
            yield Update("A", 3, 1), 1.5  # regression: raises here

        with pytest.raises(ValueError):
            driver.observe_many(pairs())
        # the prefix before the bad pair is fully applied, the rest is not
        assert store.distinct_set("A") == {1, 2}
        assert driver.clock == 2.0
        assert driver.in_window_count == 2
        # the stream can resume at the watermark
        assert driver.observe_many([(Update("A", 3, 1), 2.0)]) == 1
        assert store.distinct_set("A") == {1, 2, 3}


# ---------------------------------------------------------------------------
# batch expiry path (one inverse batch per advance_to)
# ---------------------------------------------------------------------------


class TestBatchExpiryPath:
    def test_one_batch_per_advance(self):
        sink = _RecordingSink("process_many")
        driver = SlidingWindowDriver(10.0, sink)
        for e in range(4):
            driver.observe(Update("A", e, 1), at=float(e))
        sink.batch_calls.clear()
        sink.scalar_calls.clear()
        # one advance expires all four cohorts -> exactly one batch call
        assert driver.advance_to(20.0) == 4
        assert len(sink.batch_calls) == 1
        assert sink.scalar_calls == []
        inverses = sink.batch_calls[0]
        assert sorted(u.element for u in inverses) == [0, 1, 2, 3]
        assert all(u.delta == -1 for u in inverses)

    def test_apply_many_fallback(self):
        sink = _RecordingSink("apply_many")
        driver = SlidingWindowDriver(10.0, sink)
        driver.observe(Update("A", 7, 2), at=0.0)
        driver.advance_to(10.0)
        assert len(sink.batch_calls) == 1
        assert sink.batch_calls[0] == [Update("A", 7, -2)]

    def test_scalar_only_sink_still_works(self):
        sink = _RecordingSink()
        driver = SlidingWindowDriver(10.0, sink)
        driver.observe(Update("A", 1, 1), at=0.0)
        driver.observe(Update("A", 2, 1), at=1.0)
        sink.scalar_calls.clear()
        driver.advance_to(30.0)
        assert sink.batch_calls == []
        assert sorted(u.element for u in sink.scalar_calls) == [1, 2]

    def test_batch_expiry_bit_identical_to_scalar(self):
        """The batched expiry path must leave the sketch counters exactly
        where per-update scalar emission leaves them (linearity)."""
        batched = StreamEngine(SPEC)

        class _ScalarOnly:
            def __init__(self, engine):
                self._engine = engine

            def process(self, update):
                self._engine.process(update)

        scalar_engine = StreamEngine(SPEC)
        drv_batched = SlidingWindowDriver(10.0, batched)
        drv_scalar = SlidingWindowDriver(10.0, _ScalarOnly(scalar_engine))
        rng = random.Random(5)
        for step in range(200):
            at = step * 0.25
            update = Update("AB"[step % 2], rng.randrange(1000), 1)
            drv_batched.observe(update, at=at)
            drv_scalar.observe(update, at=at)
        for now in (50.0, 55.0, 60.0, 75.0):
            assert drv_batched.advance_to(now) == drv_scalar.advance_to(now)
            batched.flush()
            scalar_engine.flush()
            for name in "AB":
                assert np.array_equal(
                    batched.family(name).counters,
                    scalar_engine.family(name).counters,
                )


# ---------------------------------------------------------------------------
# WindowRing unit tests
# ---------------------------------------------------------------------------


def _ring_ingest(ring: WindowRing, elements, at: float) -> None:
    ring.advance_to(at)
    ring.ingest(list(elements), [1] * len(elements))


class TestWindowRing:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            check_window_config(0.0, None)
        with pytest.raises(ValueError):
            check_window_config(10.0, -1.0)
        with pytest.raises(ValueError):
            check_window_config(10.0, 3.0)  # width must divide span
        with pytest.raises(ValueError):
            check_window_config(10.0, 20.0)  # width must not exceed span
        span, width, buckets = check_window_config(10.0, None)
        assert (span, width, buckets) == (10.0, 10.0, 1)
        assert check_window_config(10.0, 2.5) == (10.0, 2.5, 4)

    def test_boundary_timestamp_lands_in_closing_bucket(self):
        """Buckets are left-open/right-closed: t == b*w belongs to bucket b."""
        ring = WindowRing(SPEC, 10.0, 2.0)
        _ring_ingest(ring, [1], at=2.0)  # exactly on the bucket-1 boundary
        assert ring.current_bucket == 1
        _ring_ingest(ring, [2], at=2.5)  # just past it -> bucket 2
        assert ring.current_bucket == 2
        assert ring.live_buckets() == [1, 2]

    def test_whole_bucket_expiry_at_boundaries(self):
        ring = WindowRing(SPEC, 10.0, 2.0)  # 5 buckets
        _ring_ingest(ring, [1], at=1.0)  # bucket 1 covers (0, 2]
        _ring_ingest(ring, [2], at=3.0)  # bucket 2 covers (2, 4]
        # bucket 1 is fully expired once clock reaches (1 + 5) * 2 = 12
        assert ring.advance_to(11.999) == 0
        assert ring.live_buckets() == [1, 2]
        assert ring.advance_to(12.0) == 1
        assert ring.live_buckets() == [2]
        assert ring.buckets_expired == 1

    def test_window_total_is_sum_of_live_buckets(self):
        ring = WindowRing(SPEC, 10.0, 2.0)
        rng = random.Random(11)
        for step in range(60):
            _ring_ingest(ring, [rng.randrange(500)], at=step * 0.5)
        expected = SketchFamily(SPEC)
        for index in ring.live_buckets():
            expected.merge_in_place(ring.bucket(index))
        assert np.array_equal(ring.family().counters, expected.counters)

    def test_sub_window_families(self):
        ring = WindowRing(SPEC, 10.0, 2.0)
        _ring_ingest(ring, [1], at=1.0)
        _ring_ingest(ring, [2], at=9.0)
        ring.advance_to(10.0)
        # window=2 at clock 10.0 covers (8, 10] -> only element 2
        sub = ring.family(2.0)
        lone = SketchFamily(SPEC)
        lone.ingest_batch([2], [1])
        assert np.array_equal(sub.counters, lone.counters)
        # full-span request is the maintained total, not a rebuild
        assert ring.family(10.0) is ring.family()

    def test_sub_window_memoised_until_buckets_change(self):
        ring = WindowRing(SPEC, 10.0, 2.0)
        _ring_ingest(ring, [1, 2, 3], at=1.0)
        _ring_ingest(ring, [4], at=3.0)
        first = ring.family(4.0)
        version = first.version
        rebuilds = ring.subwindow_rebuilds
        assert ring.family(4.0) is first  # cached, no rebuild
        assert ring.subwindow_rebuilds == rebuilds
        _ring_ingest(ring, [5], at=3.5)  # newest bucket changed
        # rebuilt in place: same object, bumped version
        assert ring.family(4.0) is first
        assert first.version != version
        assert ring.subwindow_rebuilds == rebuilds + 1

    def test_check_window_rejects_bad_requests(self):
        with pytest.raises(ValueError):
            window_buckets(0.0, 10.0, 2.0)
        with pytest.raises(ValueError):
            window_buckets(3.0, 10.0, 2.0)  # not a multiple of the width
        with pytest.raises(ValueError):
            window_buckets(12.0, 10.0, 2.0)  # wider than the span
        assert window_buckets(6.0, 10.0, 2.0) == 3

    def test_merge_at_routes_into_covering_bucket(self):
        ring = WindowRing(SPEC, 10.0, 2.0)
        _ring_ingest(ring, [1], at=5.0)
        delta = SketchFamily(SPEC)
        delta.ingest_batch([9], [1])
        # late delta stamped inside a live bucket folds in
        assert ring.merge_at(*delta.nonzero_cells(), 3.0) is True
        assert 2 in ring.live_buckets()
        direct = SketchFamily(SPEC)
        direct.ingest_batch([9], [1])
        assert np.array_equal(ring.bucket(2).counters, direct.counters)
        # a delta stamped before the live span is reported unplaceable
        ring.advance_to(40.0)
        assert ring.merge_at(*delta.nonzero_cells(), 3.0) is False

    def test_empty_bucket_expiry_keeps_total_untouched(self):
        """Rotating out a bucket that never saw data must not rewrite the
        window total (no zero-subtraction churn)."""
        ring = WindowRing(SPEC, 10.0, 2.0)
        _ring_ingest(ring, [1], at=1.0)
        ring.advance_to(9.0)  # buckets 2..4 never materialise
        version = ring.family().version
        # clock 12.0 expires bucket 1 (non-empty): total must change
        ring.advance_to(12.0)
        assert ring.buckets_expired == 1
        assert ring.empty_expiries == 0
        assert ring.family().version != version
        version = ring.family().version
        # advancing across the now-empty span expires nothing materialised
        before_empty = ring.empty_expiries
        ring.advance_to(30.0)
        assert ring.family().version == version
        assert ring.live_buckets() == []
        assert ring.empty_expiries == before_empty  # nothing materialised

    def test_rotation_touches_only_newest_and_expiring_buckets(self):
        """The acceptance property, asserted via version counters: a tick
        that rotates the ring leaves every middle bucket's synopsis object
        and version untouched."""
        ring = WindowRing(SPEC, 10.0, 2.0)
        for bucket in range(1, 6):  # fill buckets 1..5
            _ring_ingest(ring, [bucket * 10], at=bucket * 2.0)
        middle = {
            index: (ring.bucket(index), ring.bucket(index).version)
            for index in ring.live_buckets()[1:]  # all but the expiring one
        }
        # tick: expire bucket 1, open bucket 6
        _ring_ingest(ring, [60], at=12.0)
        assert ring.live_buckets() == [2, 3, 4, 5, 6]
        for index, (family, version) in middle.items():
            assert ring.bucket(index) is family
            assert family.version == version


# ---------------------------------------------------------------------------
# ring vs. driver equivalence (the windowed-engine acceptance suite)
# ---------------------------------------------------------------------------

SPAN = 12.0
WIDTH = 3.0
SPAN_BUCKETS = 4
EXPR = "(A & B) - C"


def _random_feed(rng, steps, dt=0.4):
    """A reproducible (update, timestamp) trace over streams A/B/C with
    occasional deletions of previously inserted elements."""
    feed = []
    live = []
    for step in range(1, steps + 1):
        at = round(step * dt, 6)
        stream = "ABC"[rng.randrange(3)]
        if live and rng.random() < 0.15:
            name, element = live.pop(rng.randrange(len(live)))
            feed.append((Update(name, element, -1), at))
        else:
            element = rng.randrange(4000)
            live.append((stream, element))
            feed.append((Update(stream, element, 1), at))
    return feed


class TestRingDriverEquivalence:
    def _pair(self, clock_policy="raise"):
        windowed = StreamEngine(
            SPEC, window_span=SPAN, bucket_width=WIDTH, clock_policy=clock_policy
        )
        flat = StreamEngine(SPEC)
        driver = SlidingWindowDriver(SPAN, flat, clock_policy=clock_policy)
        return windowed, flat, driver

    def _assert_windows_identical(self, windowed, flat, streams="ABC"):
        windowed.flush()
        flat.flush()
        for name in streams:
            assert np.array_equal(
                windowed.window_family(name).counters,
                flat.family(name).counters,
            )

    def test_bit_identical_at_every_bucket_boundary(self):
        """The headline equivalence: a ring-windowed engine and a
        driver-fed flat engine agree bit-for-bit at each bucket boundary,
        so windowed query results are identical too."""
        windowed, flat, driver = self._pair()
        feed = _random_feed(random.Random(101), steps=240)
        position = 0
        for boundary in range(1, 9):
            now = boundary * WIDTH
            while position < len(feed) and feed[position][1] <= now:
                update, at = feed[position]
                windowed.observe(update, at)
                driver.observe(update, at=at)
                position += 1
            windowed.advance_to(now)
            driver.advance_to(now)
            self._assert_windows_identical(windowed, flat)
            lhs = windowed.query(EXPR, 0.2, window=SPAN)
            rhs = flat.query(EXPR, 0.2)
            assert lhs.value == rhs.value
            assert lhs.union_estimate == rhs.union_estimate

    def test_duplicate_timestamps_on_the_boundary(self):
        """Many updates stamped exactly at a bucket boundary all belong to
        the closing bucket and expire together on both paths."""
        windowed, flat, driver = self._pair()
        for element in range(40):
            update = Update("A", element, 1)
            windowed.observe(update, at=WIDTH)  # all exactly at t = 3.0
            driver.observe(update, at=WIDTH)
        self._assert_windows_identical(windowed, flat, streams="A")
        # the cohort expires exactly at 3.0 + SPAN on both paths
        just_before = WIDTH + SPAN - 0.001
        windowed.advance_to(just_before)
        driver.advance_to(just_before)
        self._assert_windows_identical(windowed, flat, streams="A")
        assert not windowed.window_family("A").is_zero()
        windowed.advance_to(WIDTH + SPAN)
        driver.advance_to(WIDTH + SPAN)
        self._assert_windows_identical(windowed, flat, streams="A")
        assert windowed.window_family("A").is_zero()

    def test_clamp_policy_skew_stays_equivalent(self):
        """Under ``"clamp"`` both paths stamp regressions at the watermark,
        so out-of-order feeds stay bit-identical at boundaries."""
        windowed, flat, driver = self._pair(clock_policy="clamp")
        rng = random.Random(102)
        feed = _random_feed(rng, steps=160)
        # shuffle chunks locally to create regressions
        for start in range(0, len(feed), 8):
            chunk = feed[start : start + 8]
            rng.shuffle(chunk)
            for update, at in chunk:
                windowed.observe(update, at)
                driver.observe(update, at=at)
        for boundary in range(1, 12):
            now = boundary * WIDTH
            if now < windowed.window_clock:
                continue
            windowed.advance_to(now)
            driver.advance_to(now)
            self._assert_windows_identical(windowed, flat)

    def test_empty_bucket_rotation_stays_equivalent(self):
        """A quiet stretch (several buckets with no updates) expires
        nothing on either path and leaves them identical; a bucket whose
        updates net-cancel is materialised-but-zero and its expiry is
        counted but rewrites nothing."""
        windowed, flat, driver = self._pair()
        for update, at in [
            (Update("A", 1, 1), 1.0),
            (Update("A", 99, 1), 4.0),  # bucket 2 ...
            (Update("A", 99, -1), 4.5),  # ... nets to zero
            (Update("B", 2, 1), 5.0),
        ]:
            windowed.observe(update, at)
            driver.observe(update, at=at)
        windowed.flush()
        total_version = windowed.window_family("A").version
        # advance across a long quiet stretch; bucket 1 (non-empty)
        # expires at 1*W + SPAN = 15, bucket 2 (zero) at 18 — compare at
        # boundaries only, where whole-bucket and per-update expiry agree
        windowed.advance_to(15.0)
        driver.advance_to(15.0)
        self._assert_windows_identical(windowed, flat)
        assert windowed.window_family("A").version != total_version
        version_after_real_expiry = windowed.window_family("A").version
        empty_before = windowed.window_stats().empty_expiries
        windowed.advance_to(30.0)
        driver.advance_to(30.0)
        self._assert_windows_identical(windowed, flat)
        # the zero bucket's expiry was counted but touched no counters
        assert windowed.window_stats().empty_expiries == empty_before + 1
        assert windowed.window_family("A").version == version_after_real_expiry

    def test_checkpoint_restore_mid_window(self, tmp_path):
        """Checkpointing between boundaries and restoring yields an engine
        that continues bit-identically — against both the original and the
        driver-fed flat truth."""
        windowed, flat, driver = self._pair()
        feed = _random_feed(random.Random(103), steps=200)
        cut = 120
        for update, at in feed[:cut]:
            windowed.observe(update, at)
            driver.observe(update, at=at)
        windowed.flush()
        checkpoint_engine(windowed, tmp_path)
        restored = restore_engine(tmp_path)
        assert restored.is_windowed
        assert restored.window_span == SPAN
        assert restored.bucket_width == WIDTH
        assert restored.window_clock == windowed.window_clock
        for name in "ABC":
            assert np.array_equal(
                restored.window_family(name).counters,
                windowed.window_family(name).counters,
            )
        for update, at in feed[cut:]:
            windowed.observe(update, at)
            restored.observe(update, at)
            driver.observe(update, at=at)
        last = feed[-1][1]
        boundary = (int(last // WIDTH) + 1) * WIDTH
        for engine in (windowed, restored):
            engine.advance_to(boundary)
        driver.advance_to(boundary)
        self._assert_windows_identical(windowed, flat)
        self._assert_windows_identical(restored, flat)
        assert (
            restored.query(EXPR, 0.2, window=SPAN).value
            == flat.query(EXPR, 0.2).value
        )


# ---------------------------------------------------------------------------
# windowed engine surface: validation, caching, stats
# ---------------------------------------------------------------------------


class TestEngineWindowing:
    def test_unwindowed_engine_rejects_window_surface(self):
        engine = StreamEngine(SPEC)
        assert not engine.is_windowed
        with pytest.raises(ValueError):
            engine.observe(Update("A", 1, 1), at=0.0)
        with pytest.raises(ValueError):
            engine.advance_to(1.0)
        with pytest.raises(ValueError):
            engine.query("A & B", 0.2, window=5.0)
        with pytest.raises(ValueError):
            engine.query_union(["A"], 0.2, window=5.0)

    def test_window_config_validation(self):
        with pytest.raises(ValueError):
            StreamEngine(SPEC, bucket_width=2.0)  # width without span
        with pytest.raises(ValueError):
            StreamEngine(SPEC, window_span=10.0, bucket_width=3.0)
        engine = StreamEngine(SPEC, window_span=10.0, bucket_width=2.0)
        with pytest.raises(ValueError):
            engine.query("A & B", 0.2, window=3.0)  # not a bucket multiple
        with pytest.raises(ValueError):
            engine.query("A & B", 0.2, window=20.0)  # wider than the span

    def test_windowed_queries_counted(self):
        engine = StreamEngine(SPEC, window_span=10.0, bucket_width=2.0)
        engine.observe(Update("A", 1, 1), at=1.0)
        engine.query("A & B", 0.2, window=10.0)
        engine.query("A & B", 0.2)  # all-time: not a window query
        assert engine.query_stats().window_queries == 1

    def test_empty_rotation_revalidates_cached_estimates(self):
        """A rotation tick that expires only empty (or zero) buckets must
        not invalidate cached windowed estimates: the second query is a
        cache hit, not a recompute — O(streams) revalidation."""
        engine = StreamEngine(SPEC, window_span=SPAN, bucket_width=WIDTH)
        # bucket 1: a net-zero churn pair; bucket 4: real data
        engine.observe(Update("A", 7, 1), at=1.0)
        engine.observe(Update("A", 7, -1), at=1.5)
        engine.observe(Update("A", 8, 1), at=10.0)
        engine.observe(Update("B", 9, 1), at=10.5)
        first = engine.query("A & B", 0.2, window=SPAN)
        base = engine.query_stats()
        # bucket 1 (zero) expires at 1*W + SPAN = 15; bucket 4 survives
        assert engine.advance_to(16.0) == 0 or True  # advance, count aside
        assert engine.window_stats().empty_expiries >= 1
        second = engine.query("A & B", 0.2, window=SPAN)
        stats = engine.query_stats()
        assert stats.cache_hits == base.cache_hits + 1
        assert stats.recomputes == base.recomputes
        assert second.value == first.value
        # a *non-empty* expiry invalidates: bucket 4 dies at 4*W + SPAN = 24
        engine.advance_to(24.0)
        engine.query("A & B", 0.2, window=SPAN)
        assert engine.query_stats().recomputes == base.recomputes + 1


# ---------------------------------------------------------------------------
# one scatter per batch: open bucket, closed sums, memoised reads
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _kernel_path(path):
    """Run the body on the compiled kernel or on its numpy oracle."""
    saved = _kernel.LIB
    if path == "oracle":
        _kernel.LIB = None
    try:
        yield
    finally:
        _kernel.LIB = saved


def _built(elements_counts) -> SketchFamily:
    """A family fed ``(element, count)`` pairs directly."""
    family = SketchFamily(SPEC)
    pairs = list(elements_counts)
    if pairs:
        family.ingest_batch([e for e, _ in pairs], [c for _, c in pairs])
    return family


def _expected_window(seen, clock, buckets):
    """The sum of the updates (``seen`` holds ``(update, stamp)``) in the
    newest ``buckets`` buckets at ``clock`` — or, for the full span, in
    every bucket not yet fully expired, which between boundaries is one
    more."""
    newest = bucket_index(clock, WIDTH)
    oldest = newest - buckets + 1
    if buckets == SPAN_BUCKETS:
        oldest = math.floor(clock / WIDTH) - SPAN_BUCKETS + 1
    return _built(
        (update.element, update.delta)
        for update, at in seen
        if oldest <= bucket_index(at, WIDTH) <= newest
    )


class TestOneScatterRing:
    @pytest.mark.parametrize("path", ["kernel", "oracle"])
    def test_every_instant_matches_the_bucket_sums(self, path):
        """Not only at boundaries: after every update the window is the
        sum of the live buckets, each sub-window the sum of its newest
        buckets, and the all-time synopsis a flat engine's."""
        with _kernel_path(path):
            windowed = StreamEngine(SPEC, window_span=SPAN, bucket_width=WIDTH)
            flat = StreamEngine(SPEC)
            ring = WindowRing(SPEC, SPAN, WIDTH)
            seen = {name: [] for name in "ABC"}
            for step, (update, at) in enumerate(
                _random_feed(random.Random(104), steps=150)
            ):
                windowed.observe(update, at)
                flat.process(update)
                seen[update.stream].append((update, at))
                if update.stream == "A":
                    ring.advance_to(at)
                    ring.ingest([update.element], [update.delta])
                if step % 3:
                    continue
                clock = windowed.window_clock
                for name in "ABC":
                    for buckets in range(1, SPAN_BUCKETS + 1):
                        assert windowed.window_family(
                            name, buckets * WIDTH
                        ) == _expected_window(seen[name], clock, buckets)
                    assert windowed.family(name) == flat.family(name)
                live = [ring.bucket(index) for index in ring.live_buckets()]
                expected = sum_families(live) if live else SketchFamily(SPEC)
                assert ring.family() == expected

    def test_cell_folds_into_open_closed_and_expired_buckets(self, monkeypatch):
        engine = StreamEngine(SPEC, window_span=SPAN, bucket_width=WIDTH)
        for element, at in ((1, 1.0), (2, 4.0), (3, 7.0)):  # buckets 1, 2, 3
            engine.observe(Update("A", element, 1), at)
        engine.flush()
        adds = []
        original = SketchFamily.add_cells
        monkeypatch.setattr(
            SketchFamily,
            "add_cells",
            lambda family, *cells: adds.append(1) or original(family, *cells),
        )
        engine.merge_cells("A", *_built([(10, 1)]).nonzero_cells(), at=7.5)
        assert len(adds) == 1  # the open bucket only
        engine.merge_cells("A", *_built([(11, 1)]).nonzero_cells(), at=2.0)
        # bucket 1 is closed but live: window and all-time both see it
        assert engine.window_family("A") == _built(
            [(1, 1), (2, 1), (3, 1), (10, 1), (11, 1)]
        )
        engine.advance_to(16.0)  # bucket 1 expires at (1 + 4) * 3 = 15
        engine.merge_cells("A", *_built([(12, 1)]).nonzero_cells(), at=2.5)
        assert engine.window_family("A") == _built([(2, 1), (3, 1), (10, 1)])
        assert engine.window_family("A", WIDTH) == SketchFamily(SPEC)
        assert engine.family("A") == _built(
            [(element, 1) for element in (1, 2, 3, 10, 11, 12)]
        )

    def test_folds_keep_read_views_current(self):
        """Views read before a fold take the fold's cells in place: every
        read after it equals what an engine that never read before gives."""
        folds = [(10, 7.5), (11, 2.0), (12, 8.0), (13, 16.0), (14, 2.5)]

        def fed(folded):
            engine = StreamEngine(SPEC, window_span=SPAN, bucket_width=WIDTH)
            for element, at in ((1, 1.0), (2, 4.0), (3, 7.0)):
                engine.observe(Update("A", element, 1), at)
            for element, at in folded:
                engine.merge_cells("A", *_built([(element, 1)]).nonzero_cells(), at=at)
            return engine

        def views(engine):
            return [engine.family("A")] + [
                engine.window_family("A", buckets * WIDTH)
                for buckets in range(1, SPAN_BUCKETS + 1)
            ]

        reading = fed([])
        for count, (element, at) in enumerate(folds, start=1):
            before = views(reading)
            reading.merge_cells("A", *_built([(element, 1)]).nonzero_cells(), at=at)
            after = views(reading)
            assert after == views(fed(folds[:count]))
            assert all(a is b for a, b in zip(after, before))

    @pytest.mark.parametrize("path", ["kernel", "oracle"])
    def test_checkpoint_mid_bucket_continues_bit_identically(self, path, tmp_path):
        with _kernel_path(path):
            feed = _random_feed(random.Random(105), steps=160)
            cut = 61  # mid-bucket: stamps run in 0.4 steps, buckets are 3 wide
            assert bucket_index(feed[cut - 1][1], WIDTH) == bucket_index(
                feed[cut][1], WIDTH
            )
            original = StreamEngine(SPEC, window_span=SPAN, bucket_width=WIDTH)
            for update, at in feed[:cut]:
                original.observe(update, at)
            checkpoint_engine(original, tmp_path)
            restored = restore_engine(tmp_path)
            for step, (update, at) in enumerate(feed[cut:]):
                original.observe(update, at)
                restored.observe(update, at)
                if step % 7:
                    continue
                for name in "ABC":
                    assert restored.family(name) == original.family(name)
                    for buckets in (1, 2, SPAN_BUCKETS):
                        window = buckets * WIDTH
                        assert restored.window_family(
                            name, window
                        ) == original.window_family(name, window)

    def test_one_flushed_batch_is_one_scatter(self, monkeypatch):
        calls = []
        original = HashPlan.hash_scatter
        monkeypatch.setattr(
            HashPlan,
            "hash_scatter",
            lambda plan, *args: calls.append(1) or original(plan, *args),
        )
        engine = StreamEngine(SPEC, window_span=SPAN, bucket_width=WIDTH)
        for element in range(50):
            engine.observe(Update("A", element, 1), at=1.0 + element / 100)
        engine.flush()
        assert len(calls) == 1
        engine.family("A")
        engine.window_family("A")
        assert len(calls) == 1  # reads sum, they never re-scatter

    @pytest.mark.parametrize("path", ["kernel", "oracle"])
    @pytest.mark.parametrize("clock_policy", ["raise", "clamp"])
    @settings(max_examples=25, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from("AB"),
                st.integers(0, 60),
                st.sampled_from([1, 1, 2, -1]),
                st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.5, -1.0]),
            ),
            max_size=60,
        )
    )
    def test_traces_match_the_driver_and_a_flat_engine(
        self, path, clock_policy, steps
    ):
        """Any trace, either clock policy: at every boundary the window
        matches a driver-fed flat engine, and at every instant the
        all-time synopsis matches a plain engine."""
        with _kernel_path(path):
            windowed = StreamEngine(
                SPEC, window_span=SPAN, bucket_width=WIDTH, clock_policy=clock_policy
            )
            flat, alltime = StreamEngine(SPEC), StreamEngine(SPEC)
            driver = SlidingWindowDriver(SPAN, flat, clock_policy=clock_policy)
            for stream, element, delta, step in steps:
                clock = windowed.window_clock
                if clock == float("-inf"):
                    clock = 0.0
                elif step < 0 and clock_policy == "raise":
                    step = 0.0  # a regression is an error under "raise"
                at = clock + step
                # Every boundary passed before ``at``: all its updates are in.
                first = math.floor(clock / WIDTH) + 1
                for boundary in range(first, math.ceil(at / WIDTH)):
                    windowed.advance_to(boundary * WIDTH)
                    driver.advance_to(boundary * WIDTH)
                    for name in "AB":
                        assert windowed.window_family(name) == flat.family(name)
                update = Update(stream, element, delta)
                windowed.observe(update, at)
                driver.observe(update, at=at)
                alltime.process(update)
                for name in "AB":
                    assert windowed.family(name) == alltime.family(name)


class TestRollingWindowAcceptance:
    """A window that genuinely rolls: three streams, a four-bucket ring,
    windowed queries every tick, and the ring bit-identical to a
    driver-fed flat engine at every bucket boundary."""

    def test_rolling_window(self):
        width, buckets, ticks, per_tick = 4.0, 4, 28, 200
        span = width * buckets
        expressions = ("A & B", "(A & B) - C", "(A - B) | (B - C)")
        ring = StreamEngine(SPEC, window_span=span, bucket_width=width)
        flat = StreamEngine(SPEC)
        driver = SlidingWindowDriver(span, flat)
        rng = np.random.default_rng(9)
        boundaries = 0
        for tick in range(1, ticks + 1):
            now = float(tick)
            batch = [
                Update("ABC"[index % 3], int(element), 1)
                for index, element in enumerate(
                    rng.integers(0, 2**20, size=per_tick)
                )
            ]
            ring.observe_many((update, now) for update in batch)
            driver.observe_many((update, now) for update in batch)
            ring.advance_to(now)
            driver.advance_to(now)
            windowed = [ring.query(text, 0.15, window=span) for text in expressions]
            if now % width:
                continue
            boundaries += 1
            for name in "ABC":
                assert ring.window_family(name) == flat.family(name)
            for ours, text in zip(windowed, expressions):
                assert ours.value == flat.query(text, 0.15).value
        stats = ring.window_stats()
        assert boundaries == ticks // width
        assert stats.rotations >= boundaries - 1
        assert stats.buckets_expired >= (ticks // width - buckets) * 3
