"""Randomized fuzz of the delta-export protocol's sequencing invariants.

Each seed drives one in-process schedule over
:class:`~repro.streams.distributed.StreamSite` /
:class:`~repro.streams.distributed.Coordinator`: random update batches,
duplicate deliveries, withheld exports whose later siblings must raise
:class:`~repro.errors.DeltaSequenceError` (gaps are detected, never
silently skipped), retained-tail re-sync, at least three site
incarnations under reused ids, and simulated coordinator fail-over
(state handed to a fresh coordinator via ``adopt_family`` +
``set_applied_sequence``).  Some seeds fold into a
:class:`~repro.streams.engine.StreamEngine` instead of the flat family
map — the protocol must not care.

Afterwards the coordinator must be bit-identical to a flat
:class:`~repro.streams.engine.StreamEngine` fed the same updates.  The
sketch spec is tiny so the fast tier affords ~200 seeds; the slow tier
multiplies the coverage.
"""

from __future__ import annotations

import random

import pytest

from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.errors import DeltaSequenceError, EstimationError
from repro.streams.distributed import Coordinator, StreamSite
from repro.streams.engine import StreamEngine
from repro.streams.updates import Update

TINY = SketchSpec(
    num_sketches=8,
    shape=SketchShape(domain_bits=12, num_second_level=4, independence=4),
    seed=5,
)

STREAMS = "XY"
FAST_SEEDS = range(200)
SLOW_SEEDS = range(200, 1000)


def random_batch(rng: random.Random, size: int) -> list[Update]:
    return [
        Update(
            stream=rng.choice(STREAMS),
            element=rng.randrange(1, 3000),
            delta=rng.choice([1, 1, -1]),
        )
        for _ in range(size)
    ]


def drain(coordinator: Coordinator, site: StreamSite) -> None:
    """Deliver every retained export in order and acknowledge."""
    applied = coordinator.applied_sequence(site.site_id, site.incarnation)
    for export in site.exports_after(applied):
        coordinator.collect(export)
    site.acknowledge(
        coordinator.applied_sequence(site.site_id, site.incarnation)
    )


def flush(coordinator: Coordinator, site: StreamSite) -> None:
    """Cut a final export (un-exported observations) and drain it all."""
    site.export()
    drain(coordinator, site)


def run_schedule(seed: int) -> tuple[Coordinator, StreamEngine, int]:
    rng = random.Random(seed)
    truth = StreamEngine(TINY)
    coordinator = Coordinator(
        TINY, engine=StreamEngine(TINY) if seed % 4 == 0 else None
    )
    incarnations = 0
    site_ids = ("p", "q")
    sites = {site_id: StreamSite(site_id, TINY) for site_id in site_ids}
    incarnations += len(sites)

    steps = rng.randrange(8, 14)
    for step in range(steps):
        site_id = rng.choice(site_ids)
        site = sites[site_id]
        batch = random_batch(rng, rng.randrange(3, 12))
        site.observe_many(batch)
        truth.process_many(batch)

        action = rng.random()
        if action < 0.45:
            # Plain delivery (and maybe an idempotent duplicate).
            export = site.export()
            assert coordinator.collect(export) is True
            if rng.random() < 0.4:
                assert coordinator.collect(export) is False
            site.acknowledge(
                coordinator.applied_sequence(site_id, site.incarnation)
            )
        elif action < 0.7:
            # A withheld export: its successor is a detected gap, after
            # which the retained tail re-syncs in order.
            site.export()  # cut but "lost in transit"
            extra = random_batch(rng, 2)
            site.observe_many(extra)
            truth.process_many(extra)
            later = site.export()
            with pytest.raises(DeltaSequenceError):
                coordinator.collect(later)
            drain(coordinator, site)
        elif action < 0.85 and step > 1:
            # Site process restart under the same id: flush the old
            # life, then a fresh incarnation restarts numbering at 1.
            flush(coordinator, site)
            sites[site_id] = StreamSite(site_id, TINY)
            incarnations += 1
            assert (
                coordinator.applied_sequence(
                    site_id, sites[site_id].incarnation
                )
                == 0
            )
        else:
            # Batch up: export later (retention covers the wait).
            pass

        if rng.random() < 0.15:
            # Coordinator fail-over: hand the merged families and the
            # sequence map to a fresh instance (the checkpoint path,
            # minus the disk).
            successor = Coordinator(TINY)
            for name, family in coordinator.families().items():
                successor.adopt_family(name, family.copy())
            for sid, history in coordinator.site_sequences().items():
                for incarnation, sequence in history.items():
                    successor.set_applied_sequence(sid, incarnation, sequence)
            coordinator = successor

    for site in sites.values():
        flush(coordinator, site)
    return coordinator, truth, incarnations


def assert_bit_identical(
    coordinator: Coordinator, truth: StreamEngine, seed: int
) -> None:
    truth.flush()
    context = f"delta-fuzz seed={seed}"
    assert coordinator.stream_names() == truth.stream_names(), context
    families = coordinator.families()
    for name, family in truth.families().items():
        assert families[name] == family, f"{context} stream={name}"
    def outcome(target, method, *args):
        # Equal counters must answer with bit-equal estimates — or fail
        # with the same estimation error (the tiny 8-sketch spec cannot
        # always produce a valid observation; that too must match).
        try:
            return getattr(target, method)(*args).value
        except EstimationError as exc:
            return type(exc)

    assert outcome(coordinator, "query", "X - Y", 0.3) == outcome(
        truth, "query", "X - Y", 0.3
    ), context
    assert outcome(
        coordinator, "query_union", list(STREAMS), 0.3
    ) == outcome(truth, "query_union", list(STREAMS), 0.3), context


def check_seed(seed: int) -> None:
    coordinator, truth, incarnations = run_schedule(seed)
    assert_bit_identical(coordinator, truth, seed)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_delta_protocol_fuzz(seed):
    check_seed(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_delta_protocol_fuzz_slow(seed):
    check_seed(seed)


def test_schedules_cover_three_incarnations():
    """At least one fast seed exercises ≥3 incarnations of a reused site
    id (the restart-scoping the fuzz exists to check)."""
    assert any(
        run_schedule(seed)[2] >= 3 + 1 for seed in range(20)
    )
