"""Unit tests for session-trace generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.sessions import session_trace
from repro.streams.exact import ExactStreamStore


def pool(size=200, seed=0):
    return np.random.default_rng(seed).choice(2**20, size=size, replace=False)


class TestSessionTrace:
    def test_event_count(self):
        events = session_trace("S", pool(), 100, np.random.default_rng(1))
        assert len(events) == 200  # one open + one close each

    def test_time_ordered(self):
        events = session_trace("S", pool(), 200, np.random.default_rng(2))
        times = [event.at for event in events]
        assert times == sorted(times)

    def test_trace_is_legal(self):
        """Every close follows its open, so exact replay never underflows."""
        events = session_trace("S", pool(), 500, np.random.default_rng(3))
        store = ExactStreamStore()
        store.apply_many(event.update for event in events)

    def test_net_effect_is_empty(self):
        events = session_trace("S", pool(), 300, np.random.default_rng(4))
        store = ExactStreamStore()
        store.apply_many(event.update for event in events)
        assert store.distinct_count("S") == 0

    def test_prefix_has_live_sessions(self):
        events = session_trace(
            "S", pool(), 400, np.random.default_rng(5), duration_mean=1000.0
        )
        store = ExactStreamStore()
        # Replay only the first half of time; long sessions are still open.
        store.apply_many(event.update for event in events[:400])
        assert store.distinct_count("S") > 0

    def test_sources_come_from_pool(self):
        members = set(int(v) for v in pool(size=50, seed=6))
        events = session_trace(
            "S", pool(size=50, seed=6), 200, np.random.default_rng(7)
        )
        assert {event.update.element for event in events} <= members

    def test_zipf_concentrates_sources(self):
        uniform = session_trace(
            "S", pool(size=500, seed=8), 2000, np.random.default_rng(9)
        )
        skewed = session_trace(
            "S", pool(size=500, seed=8), 2000, np.random.default_rng(9), skew=1.5
        )
        distinct_uniform = len({e.update.element for e in uniform})
        distinct_skewed = len({e.update.element for e in skewed})
        assert distinct_skewed < distinct_uniform

    def test_empty_trace(self):
        assert session_trace("S", pool(), 0, np.random.default_rng(10)) == []

    def test_validation(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            session_trace("S", pool(), -1, rng)
        with pytest.raises(ValueError):
            session_trace("S", pool(), 5, rng, duration_mean=0)
        with pytest.raises(ValueError):
            session_trace("S", pool(), 5, rng, arrival_rate=0)

    def test_open_events_through_sliding_window(self):
        """Integration: windowing the *open* events gives "sources that
        started a session recently" — an insert-only stream the window
        driver turns into a clean expiry-by-deletion workload."""
        from repro.core.family import SketchSpec
        from repro.core.sketch import SketchShape
        from repro.streams.engine import StreamEngine
        from tests.streams.window_driver import SlidingWindowDriver

        rng = np.random.default_rng(12)
        events = session_trace(
            "S", pool(size=400, seed=13), 800, rng, duration_mean=5.0
        )
        opens = [event for event in events if event.update.is_insertion]
        shape = SketchShape(domain_bits=20, num_second_level=8, independence=6)
        engine = StreamEngine(SketchSpec(num_sketches=32, shape=shape, seed=1))
        exact = ExactStreamStore()
        driver = SlidingWindowDriver(30.0, engine, exact)
        for event in opens:
            driver.observe(event.update, event.at)
        estimate = engine.query_union(["S"], 0.3)
        assert estimate.value >= 0
        assert exact.total_items("S") == driver.in_window_count
