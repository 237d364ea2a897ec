"""Workload definitions, seeded input generation and the exact reference.

Everything the three benchmark processes must agree on lives here: the
sketch spec, the streams, the query mix, the four workloads, the input
generator (a pure function of the workload, the seed and the run length)
and the numpy ground truth the answers are scored against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

STREAMS = ("A", "B", "C")
EXPRESSIONS = ("A & B", "A | B", "(A - B) | C", "A - C", "(A & B) - C")
EPSILON = 0.2
#: Every 7th query is a union of all three streams instead of an expression.
UNION_EVERY = 7
#: The answer key of the three-way union (expression answers use their text).
UNION_KEY = "A|B|C"
DOMAIN_BITS = 20
SPEC = {
    "num_sketches": 128,
    "num_second_level": 8,
    "domain_bits": DOMAIN_BITS,
    "independence": 6,
    "seed": 5,
}
WARMUP_S = 2.0
COOLDOWN_S = 1.0
SMOKE_WARMUP_S = 0.5
SMOKE_COOLDOWN_S = 0.5
#: Closed-loop input pool, in updates per second of schedule: well above
#: the rate one site process reaches, so the pool never runs dry.
CLOSED_POOL_RATE = 150_000
ZIPF_EXPONENT = 1.2
#: Odd multiplier: maps Zipf ranks onto the domain bijectively, so hot
#: elements are spread over the domain instead of sitting at 0, 1, 2...
_RANK_SCATTER = 0x9E3779B1


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``chunk`` is the updates per tick (open loop) or
    per export (closed loop)."""

    name: str
    why: str
    closed_loop: bool
    chunk: int
    tick_s: float
    distribution: str
    delete_frac: float
    query_rate: float
    uplink_every: int
    checkpoint: bool = False
    window_span: float | None = None
    bucket_width: float | None = None
    query_windows: tuple = ()

    def smoke(self) -> "Workload":
        """The same mix at tiny rates, for the CI smoke run."""
        return replace(
            self,
            chunk=max(20, self.chunk // 10),
            query_rate=min(self.query_rate, 20.0),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ingest",
            why=(
                "closed-loop site at full speed on Zipf traffic with 30% "
                "deletions, so site hashing and scatter dominate"
            ),
            closed_loop=True,
            chunk=8192,
            tick_s=0.0,
            distribution="zipf",
            delete_frac=0.3,
            query_rate=50.0,
            uplink_every=1,
        ),
        Workload(
            name="serve",
            why=(
                "200 q/s against 5,000 updates/s in 100 ms ticks, so the "
                "query path (drain, framing, root estimates) dominates"
            ),
            closed_loop=False,
            chunk=500,
            tick_s=0.1,
            distribution="zipf",
            delete_frac=0.3,
            query_rate=200.0,
            uplink_every=1,
        ),
        Workload(
            name="window",
            why=(
                "windowed tree (span 8, buckets of 2) at 20,000 updates/s: "
                "ring ingest, rotation, expiry and the windowed query cache"
            ),
            closed_loop=False,
            # 100 ms ticks: at 50 ms the tree is busy folding about half
            # the time, and query p50 then swings with machine speed.
            chunk=2000,
            tick_s=0.1,
            distribution="zipf",
            delete_frac=0.3,
            query_rate=50.0,
            uplink_every=1,
            window_span=8.0,
            bucket_width=2.0,
            query_windows=(8.0, 4.0),
        ),
        Workload(
            name="durable",
            why=(
                "12.5 sparse exports/s of 200 uniform updates into a "
                "checkpointing leaf, so per-delta fixed costs dominate"
            ),
            closed_loop=False,
            chunk=200,
            # 80 ms ticks: at 40 ms (25 exports/s) the tree is busy ~45% of
            # the time and query p50 swings with machine speed.
            tick_s=0.08,
            distribution="uniform",
            delete_frac=0.0,
            query_rate=50.0,
            uplink_every=5,
            checkpoint=True,
        ),
    )
}


def workload_for(name: str, smoke: bool) -> Workload:
    """The named workload, scaled down for the smoke run."""
    workload = WORKLOADS[name]
    return workload.smoke() if smoke else workload


def answer_keys(workload: Workload) -> list[tuple[str, str, float | None]]:
    """``(key, text, window)`` of every answer compared after quiesce.

    ``text`` is an expression, or :data:`UNION_KEY` for the union of all
    streams; ``window`` is ``None`` for all-time answers.
    """
    return [
        (text if window is None else f"{text} @{window:g}", text, window)
        for window in (None,) + workload.query_windows
        for text in EXPRESSIONS + (UNION_KEY,)
    ]


def phase_lengths(smoke: bool) -> tuple[float, float]:
    """``(warm-up, cool-down)`` seconds around the timed window."""
    if smoke:
        return SMOKE_WARMUP_S, SMOKE_COOLDOWN_S
    return WARMUP_S, COOLDOWN_S


def schedule_seconds(workload: Workload, seconds: float, smoke: bool) -> float:
    """Length of the whole ingest schedule: warm-up, window, cool-down.

    A windowed schedule is rounded up to whole buckets, so the last tick
    lands on a bucket boundary and the quiesced answers are comparable
    there.
    """
    warmup, cooldown = phase_lengths(smoke)
    total = warmup + seconds + cooldown
    if workload.bucket_width:
        total = math.ceil(total / workload.bucket_width) * workload.bucket_width
    return total


def num_ticks(workload: Workload, seconds: float, smoke: bool) -> int:
    """Open-loop ticks in the schedule (ticks are numbered from 1)."""
    return round(schedule_seconds(workload, seconds, smoke) / workload.tick_s)


def tick_time(workload: Workload, tick: int) -> float:
    """Schedule timestamp of open-loop tick ``tick`` (also its window stamp)."""
    return tick * workload.tick_s


@dataclass
class Inputs:
    """Generated updates as parallel arrays (``streams`` index STREAMS).

    The first ``len(STREAMS)`` updates are one insertion per stream; the
    site ships them during set-up so the root knows every stream before
    any query is due.
    """

    elements: np.ndarray
    streams: np.ndarray
    deltas: np.ndarray

    def __len__(self) -> int:
        return int(self.elements.size)


def _elements(rng: np.random.Generator, distribution: str, n: int) -> np.ndarray:
    mask = (1 << DOMAIN_BITS) - 1
    if distribution == "uniform":
        return rng.integers(0, 1 << DOMAIN_BITS, size=n, dtype=np.int64)
    ranks = (rng.zipf(ZIPF_EXPONENT, size=n) - 1) & mask
    salt = int(rng.integers(0, 1 << DOMAIN_BITS))
    return (ranks * _RANK_SCATTER + salt) & mask


def _block(rng: np.random.Generator, workload: Workload, n: int, blocks: int):
    """``blocks`` blocks of ``n`` updates; every deletion removes an
    insertion made earlier in the same block, so net counts never go
    negative — not even inside a bucket-aligned window, since one block
    is one tick."""
    deletes = int(round(workload.delete_frac * n))
    inserts = n - deletes
    total_ins = inserts * blocks
    elements = _elements(rng, workload.distribution, total_ins)
    streams = rng.integers(0, len(STREAMS), size=total_ins, dtype=np.int64)
    block_of = np.repeat(np.arange(blocks, dtype=np.int64), inserts)
    key = rng.random(total_ins)
    # Which insertions get deleted: the first `deletes` of a random
    # permutation within each block.
    order = np.lexsort((rng.random(total_ins), block_of))
    rank_in_block = np.empty(total_ins, dtype=np.int64)
    rank_in_block[order] = np.tile(np.arange(inserts, dtype=np.int64), blocks)
    victims = np.flatnonzero(rank_in_block < deletes)
    del_key = key[victims] + (1.0 - key[victims]) * rng.random(victims.size)
    all_block = np.concatenate([block_of, block_of[victims]])
    all_key = np.concatenate([key, del_key])
    position = np.lexsort((all_key, all_block))
    all_elements = np.concatenate([elements, elements[victims]])[position]
    all_streams = np.concatenate([streams, streams[victims]])[position]
    all_deltas = np.concatenate(
        [np.ones(total_ins, np.int64), -np.ones(victims.size, np.int64)]
    )[position]
    return all_elements, all_streams, all_deltas


def generate_head(workload: Workload, seed: int) -> Inputs:
    """Just the set-up insertions (cheap: the site ships these while the
    tree is being set up, before the bulk of the inputs exists)."""
    rng = np.random.default_rng([seed, 0xE2E, 0])
    return Inputs(
        elements=_elements(rng, workload.distribution, len(STREAMS)),
        streams=np.arange(len(STREAMS), dtype=np.int8),
        deltas=np.ones(len(STREAMS), dtype=np.int8),
    )


def generate(workload: Workload, seed: int, seconds: float, smoke: bool) -> Inputs:
    """The whole run's updates (set-up head included), a pure function of
    its arguments."""
    head = generate_head(workload, seed)
    rng = np.random.default_rng([seed, 0xE2E, 1])
    if workload.closed_loop:
        total = int(
            (CLOSED_POOL_RATE // (10 if smoke else 1))
            * schedule_seconds(workload, seconds, smoke)
        )
        # One block: deletions may trail their insertion by any distance.
        elements, streams, deltas = _block(rng, workload, total, 1)
    else:
        elements, streams, deltas = _block(
            rng, workload, workload.chunk, num_ticks(workload, seconds, smoke)
        )
    return Inputs(
        elements=np.concatenate([head.elements, elements]).astype(np.int64),
        streams=np.concatenate([head.streams, streams.astype(np.int8)]),
        deltas=np.concatenate([head.deltas, deltas.astype(np.int8)]),
    )


def timestamps(workload: Workload, count: int) -> np.ndarray:
    """Window stamp of each of the first ``count`` updates (open loop).

    The set-up insertions are stamped 0; tick ``j`` stamps its updates
    with its schedule time ``j * tick_s``.
    """
    head = len(STREAMS)
    ticks = np.arange(max(0, count - head), dtype=np.int64) // workload.chunk + 1
    # int64 -> float64 is exact here, so this equals tick_time() bit for bit.
    stamps = ticks.astype(np.float64) * workload.tick_s
    return np.concatenate([np.zeros(min(count, head)), stamps])


def exact_cardinalities(
    inputs: Inputs, count: int, since: float | None = None, stamps=None
) -> dict[str, int]:
    """Exact answers over the first ``count`` updates (numpy).

    An element belongs to a stream when its net count is positive.  With
    ``since``, only updates stamped in ``(since, +inf)`` count — a
    bucket-aligned window ending at the last stamp.  Keys are the
    expression texts plus :data:`UNION_KEY`.
    """
    from repro.expr.parser import parse

    elements = inputs.elements[:count]
    streams = inputs.streams[:count].astype(np.int64)
    deltas = inputs.deltas[:count].astype(np.int64)
    if since is not None:
        keep = np.asarray(stamps[:count]) > since
        elements, streams, deltas = elements[keep], streams[keep], deltas[keep]
    keys = streams << DOMAIN_BITS | elements
    unique, inverse = np.unique(keys, return_inverse=True)
    net = np.bincount(inverse, weights=deltas, minlength=unique.size)
    present = unique[net > 0]
    universe = np.unique(present & ((1 << DOMAIN_BITS) - 1))
    masks = {
        name: np.isin(
            universe, present[(present >> DOMAIN_BITS) == index]
            & ((1 << DOMAIN_BITS) - 1)
        )
        for index, name in enumerate(STREAMS)
    }
    answers = {
        text: int(parse(text).boolean_mask(masks).sum()) for text in EXPRESSIONS
    }
    answers[UNION_KEY] = int(np.logical_or.reduce(list(masks.values())).sum())
    return answers
