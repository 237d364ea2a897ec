"""End-to-end integration tests across the whole stack.

These drive updates (including deletions) through the public API — stream
engine, distributed sites, baselines — and compare every estimate against
the exact reference store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Coordinator,
    ExactStreamStore,
    SketchShape,
    SketchSpec,
    StreamEngine,
    StreamSite,
    Update,
)
from repro.datagen.controlled import generate_controlled
from repro.datagen.updates_gen import with_phantom_deletions

SHAPE = SketchShape(domain_bits=22, num_second_level=12, independence=8)
SPEC = SketchSpec(num_sketches=384, shape=SHAPE, seed=2003)


class TestEngineAgainstGroundTruth:
    def _run_session(self, seed: int):
        """A full monitoring session: three streams, churn, queries."""
        rng = np.random.default_rng(seed)
        dataset = generate_controlled(
            "(A - B) & C", 3000, 0.25, rng, domain_bits=22
        )
        engine = StreamEngine(SPEC)
        exact = ExactStreamStore()
        for name in dataset.stream_names():
            updates = with_phantom_deletions(
                name, dataset.elements[name], rng,
                phantom_fraction=0.3, domain_bits=22,
            )
            for update in updates:
                engine.process(update)
                exact.apply(update)
        return engine, exact

    def test_full_session_queries(self):
        engine, exact = self._run_session(seed=200)
        for expression in ("A & B", "A - B", "(A - B) & C", "A | B | C"):
            truth = exact.cardinality(expression)
            estimate = engine.query(expression, 0.15)
            assert truth > 0
            assert abs(estimate.value - truth) / truth < 0.6, (
                expression,
                estimate.value,
                truth,
            )

    def test_churned_engine_state_equals_clean_state(self):
        """After phantom insert/delete traffic, the engine's synopses must
        equal those of an engine that saw only the surviving elements."""
        rng = np.random.default_rng(201)
        dataset = generate_controlled("A & B", 1000, 0.5, rng, domain_bits=22)
        churned = StreamEngine(SPEC)
        clean = StreamEngine(SPEC)
        for name in dataset.stream_names():
            updates = with_phantom_deletions(
                name, dataset.elements[name], rng,
                phantom_fraction=1.0, domain_bits=22,
            )
            churned.process_many(updates)
            for element in dataset.elements[name]:
                clean.process(Update(name, int(element), 1))
        for name in dataset.stream_names():
            assert churned.family(name) == clean.family(name)


class TestDistributedAgainstCentralised:
    def test_sharded_observation_equals_central_engine(self):
        rng = np.random.default_rng(202)
        dataset = generate_controlled("A & B", 2000, 0.4, rng, domain_bits=22)

        central = StreamEngine(SPEC)
        sites = [StreamSite(f"site-{index}", SPEC) for index in range(3)]
        coordinator = Coordinator(SPEC)

        for name in dataset.stream_names():
            for position, element in enumerate(dataset.elements[name]):
                update = Update(name, int(element), 1)
                central.process(update)
                sites[position % 3].observe(update)
        for site in sites:
            coordinator.collect_from(site)

        for name in dataset.stream_names():
            assert coordinator.families()[name] == central.family(name)

        central_estimate = central.query("A & B", 0.15)
        distributed_estimate = coordinator.query("A & B", 0.15)
        assert distributed_estimate.value == pytest.approx(central_estimate.value)


class TestSerialisationPipeline:
    def test_ship_and_requery(self):
        """Synopses survive a serialise/ship/deserialise cycle bit-exactly."""
        rng = np.random.default_rng(203)
        dataset = generate_controlled("A - B", 1500, 0.3, rng, domain_bits=22)
        site = StreamSite("edge", SPEC)
        for name in dataset.stream_names():
            for element in dataset.elements[name]:
                site.observe(Update(name, int(element), 1))
        payloads = site.export()

        coordinator = Coordinator(SPEC)
        coordinator.collect(payloads)
        truth = dataset.exact_cardinality("A - B")
        estimate = coordinator.query("A - B", 0.15)
        assert abs(estimate.value - truth) / truth < 0.6


class TestBaselineComparison:
    def test_two_level_sketch_survives_where_minhash_dies(self):
        """The headline robustness comparison as an executable scenario."""
        from repro.baselines.minhash import BottomKSketch
        from repro.errors import IllegalDeletionError

        rng = np.random.default_rng(204)
        elements = rng.choice(2**22, size=2000, replace=False)
        family = SPEC.build()
        bottom_k = BottomKSketch(k=64, seed=5, domain_bits=22)
        for element in elements:
            family.update(int(element), 1)
            bottom_k.insert(int(element))

        # Delete the first half of the stream from both synopses.
        depleted = False
        for element in elements[:1000]:
            family.update(int(element), -1)
            try:
                bottom_k.delete(int(element))
            except IllegalDeletionError:
                depleted = True
        assert depleted  # MinHash lost sketch state it cannot rebuild...

        # ...while the 2-level sketch still answers correctly.
        from repro.core.union import estimate_union

        survivors = estimate_union([family], 0.15)
        assert abs(survivors.value - 1000) / 1000 < 0.4
