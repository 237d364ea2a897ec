"""Incremental continuous-query engine tests.

The contract under test: everything the cached / revalidated / batched
paths return is **bit-identical** to a cold ``use_cache=False``
recomputation, across dirty/clean transitions, batch grouping, and
checkpoint restore.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.streams.continuous import ContinuousQueryProcessor
from repro.streams.engine import StreamEngine
from repro.streams.updates import Update

SHAPE = SketchShape(domain_bits=18, num_second_level=8, independence=6)
SPEC = SketchSpec(num_sketches=64, shape=SHAPE, seed=55)

EXPRESSIONS = (
    "A & B",
    "A - B",
    "B - A",
    "A | B",
    "(A - B) | (B - A)",
    "A",
    "(A & B) - C",
)


def loaded_engine(seed: int = 77) -> StreamEngine:
    engine = StreamEngine(SPEC)
    rng = np.random.default_rng(seed)
    pool = rng.choice(2**18, size=1200, replace=False)
    for element in pool[:800]:
        engine.process(Update("A", int(element), 1))
    for element in pool[400:]:
        engine.process(Update("B", int(element), 1))
    for element in pool[200:600]:
        engine.process(Update("C", int(element), 1))
    engine.flush()
    return engine


class TestRevalidation:
    def test_cached_equals_cold_when_clean(self):
        engine = loaded_engine()
        for expression in EXPRESSIONS:
            cached = engine.query(expression, 0.2)
            cold = engine.query(expression, 0.2, use_cache=False)
            assert cached == cold

    def test_unrelated_update_revalidates_not_recomputes(self):
        engine = loaded_engine()
        first = engine.query("A & B", 0.2)
        engine.process(Update("D", 123, 1))
        engine.flush()
        again = engine.query("A & B", 0.2)
        assert again is first  # served after an O(streams) version check
        assert engine.query_stats().revalidations >= 1
        assert again == engine.query("A & B", 0.2, use_cache=False)

    def test_participating_update_recomputes_bit_identically(self):
        engine = loaded_engine()
        first = engine.query("A & B", 0.2)
        engine.process(Update("A", 9999, 1))
        second = engine.query("A & B", 0.2)
        assert second is not first
        assert second == engine.query("A & B", 0.2, use_cache=False)

    def test_dirty_clean_transitions(self):
        engine = loaded_engine()
        rng = np.random.default_rng(5)
        for step in range(12):
            stream = ("A", "B", "C", "D")[step % 4]
            engine.process(Update(stream, int(rng.integers(2**18)), 1))
            expression = EXPRESSIONS[step % len(EXPRESSIONS)]
            cached = engine.query(expression, 0.2)
            assert cached == engine.query(expression, 0.2, use_cache=False)

    def test_deletions_also_invalidate(self):
        engine = loaded_engine()
        engine.query("A - B", 0.2)
        engine.process(Update("A", 9999, 1))
        engine.flush()
        engine.process(Update("A", 9999, -1))
        cached = engine.query("A - B", 0.2)
        assert cached == engine.query("A - B", 0.2, use_cache=False)


class TestUnionCache:
    def test_repeat_union_is_cached(self):
        engine = loaded_engine()
        first = engine.query_union(["A", "B"], 0.2)
        assert engine.query_union(["B", "A"], 0.2) is first
        assert engine.query_stats().union_cache_hits >= 1

    def test_union_matches_cold(self):
        from repro.core.union import estimate_union

        engine = loaded_engine()
        cached = engine.query_union(["A", "B"], 0.2)
        cold = estimate_union(
            [engine.family("A"), engine.family("B")], 0.2
        )
        assert cached == cold

    def test_union_revalidates_across_unrelated_updates(self):
        engine = loaded_engine()
        first = engine.query_union(["A", "B"], 0.2)
        engine.process(Update("D", 5, 1))
        engine.flush()
        assert engine.query_union(["A", "B"], 0.2) is first
        assert engine.query_stats().union_revalidations >= 1

    def test_shared_with_expression_subestimates(self):
        engine = loaded_engine()
        # 0.75 / 3 == 0.25 exactly in binary floating point, so the union
        # sub-estimate's cache key collides with a direct 0.25 union query.
        estimate = engine.query("A & B", 0.75)
        union = engine.query_union(["A", "B"], 0.25)
        assert float(union) == estimate.union_estimate
        stats = engine.query_stats()
        assert stats.union_cache_hits >= 1  # query_union reused the entry

    def test_bypass(self):
        engine = loaded_engine()
        first = engine.query_union(["A", "B"], 0.2)
        bypassed = engine.query_union(["A", "B"], 0.2, use_cache=False)
        assert bypassed is not first
        assert bypassed == first


class TestQueryMany:
    def test_matches_single_queries_cold(self):
        engine = loaded_engine()
        batch = engine.query_many(EXPRESSIONS, 0.2, use_cache=False)
        for expression, estimate in zip(EXPRESSIONS, batch):
            assert estimate == engine.query(expression, 0.2, use_cache=False)

    def test_matches_single_queries_cached(self):
        engine = loaded_engine()
        batch = engine.query_many(EXPRESSIONS, 0.2)
        for expression, estimate in zip(EXPRESSIONS, batch):
            assert estimate == engine.query(expression, 0.2, use_cache=False)
            assert engine.query(expression, 0.2) is estimate  # cache shared

    def test_groups_by_stream_set(self):
        engine = loaded_engine()
        engine.query_many(EXPRESSIONS, 0.2, use_cache=False)
        stats = engine.query_stats()
        # {A,B} x5, {A} and {A,B,C} -> three shared evaluation groups
        assert stats.batch_groups == 3
        assert stats.batch_queries == len(EXPRESSIONS)

    def test_pooling_parity(self):
        engine = loaded_engine()
        pooled = engine.query_many(["A - B"], 0.2, pool_levels=3)[0]
        assert pooled == engine.query(
            "A - B", 0.2, pool_levels=3, use_cache=False
        )

    def test_empty_streams_batch(self):
        engine = StreamEngine(SPEC)
        estimates = engine.query_many(["X & Y", "X - Y"], 0.2)
        assert [estimate.value for estimate in estimates] == [0.0, 0.0]

    def test_validation(self):
        engine = loaded_engine()
        with pytest.raises(ValueError):
            engine.query_many(["A"], epsilon=1.5)
        with pytest.raises(ValueError):
            engine.query_many(["A"], 0.2, pool_levels=0)


class TestContinuousBatching:
    def test_shared_tick_matches_cold_queries(self):
        engine = StreamEngine(SPEC)
        processor = ContinuousQueryProcessor(engine)
        for index, expression in enumerate(EXPRESSIONS):
            processor.register(f"q{index}", expression, epsilon=0.2, every=400)
        processor.register("coarse", "A | C", epsilon=0.3, every=400)
        rng = np.random.default_rng(11)
        pool = rng.choice(2**18, size=1200, replace=False)
        streams = ("A", "B", "C")
        for index, element in enumerate(pool):
            processor.process(
                Update(streams[index % 3], int(element), 1)
            )
        for index, expression in enumerate(EXPRESSIONS):
            query = processor[f"q{index}"]
            assert len(query.history) == 3  # ticks at 400/800/1200
            latest = query.latest
            assert latest.estimate == engine.query(
                expression, 0.2, use_cache=False
            )
        assert processor["coarse"].latest.estimate == engine.query(
            "A | C", 0.3, use_cache=False
        )

    def test_max_history_ring_buffer(self):
        engine = StreamEngine(SPEC)
        processor = ContinuousQueryProcessor(engine)
        processor.register("bounded", "A", epsilon=0.2, every=10, max_history=4)
        processor.register("unbounded", "A", epsilon=0.2, every=10,
                           max_history=None)
        rng = np.random.default_rng(12)
        for element in rng.choice(2**18, size=100, replace=False):
            processor.process(Update("A", int(element), 1))
        bounded = processor["bounded"]
        unbounded = processor["unbounded"]
        assert len(unbounded.history) == 10
        assert len(bounded.history) == 4
        # the *newest* observations are kept
        assert bounded.history == unbounded.history[-4:]
        assert bounded.latest.at_update == 100

    def test_alerts_trimmed_too(self):
        engine = StreamEngine(SPEC)
        processor = ContinuousQueryProcessor(engine)
        fired = []
        # realert_every=1 pages on every breaching evaluation (alerts are
        # edge-triggered by default), so the alert log actually fills.
        processor.register(
            "alerting", "A", epsilon=0.2, every=10, threshold=0.5,
            on_alert=lambda query, observation: fired.append(observation),
            max_history=3, realert_every=1,
        )
        rng = np.random.default_rng(13)
        for element in rng.choice(2**18, size=80, replace=False):
            processor.process(Update("A", int(element), 1))
        query = processor["alerting"]
        assert len(query.alerts) == 3
        assert len(fired) == 8  # callback saw every breach
        assert query.alerts == fired[-3:]

    def test_max_history_validation(self):
        processor = ContinuousQueryProcessor(StreamEngine(SPEC))
        with pytest.raises(ValueError):
            processor.register("bad", "A", max_history=0)


class TestCheckpointRestore:
    def test_cache_survives_checkpoint_restore(self, tmp_path):
        from repro.streams.checkpoint import checkpoint_engine, restore_engine

        engine = loaded_engine()
        expected = engine.query("A & B", 0.2, use_cache=False)
        checkpoint_engine(engine, tmp_path / "ckpt")
        restored = restore_engine(tmp_path / "ckpt")
        assert restored.query("A & B", 0.2) == expected
        assert restored.query("A & B", 0.2, use_cache=False) == expected


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
