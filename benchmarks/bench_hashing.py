"""Hash-substrate bench: polynomial vs tabulation first-level hashing.

The default first-level family is a degree-(t−1) polynomial over
GF(2^61−1) — the construction the paper's limited-independence analysis
(Section 3.6) covers.  Tabulation hashing is only 3-wise independent but
evaluates by table lookups.  This bench measures raw hashing throughput
for both, the shared :class:`~repro.core.plan.HashPlan`'s batch update
(the compiled hash-and-scatter kernel against its numpy oracle), and
checks that each hash family feeds the geometric LSB level distribution
the sketches rely on.

Run directly (``python benchmarks/bench_hashing.py --smoke``) it becomes
a dependency-free smoke check for CI: a quick pass over the same paths
with small inputs, asserting the level-distribution quality gate and
that the kernel, the oracle and the per-sketch path leave counters
bit-identical.
"""

from __future__ import annotations

import argparse
import sys

import time

import numpy as np

from repro.core import _kernel
from repro.core.family import SketchSpec
from repro.core.sketch import SketchShape
from repro.hashing.families import random_polynomial_hash
from repro.hashing.lsb import lsb_array
from repro.hashing.tabulation import random_tabulation_hash

N = 1 << 20


def _elements() -> np.ndarray:
    rng = np.random.default_rng(42)
    return rng.integers(0, 2**30, size=N, dtype=np.uint64)


def test_polynomial_hash_throughput(benchmark):
    hash_fn = random_polynomial_hash(np.random.default_rng(1), independence=8)
    elements = _elements()
    benchmark.pedantic(hash_fn, args=(elements,), rounds=5, iterations=1)
    rate = N / benchmark.stats["mean"]
    print(f"\npolynomial (t=8): {rate / 1e6:.1f} M elements/s")


def test_tabulation_hash_throughput(benchmark):
    hash_fn = random_tabulation_hash(np.random.default_rng(2))
    elements = _elements()
    benchmark.pedantic(hash_fn, args=(elements,), rounds=5, iterations=1)
    rate = N / benchmark.stats["mean"]
    print(f"\ntabulation (3-wise): {rate / 1e6:.1f} M elements/s")


#: The end-to-end benchmark's spec shape (r=128, s=8, t=6).
E2E_SPEC = SketchSpec(
    num_sketches=128,
    shape=SketchShape(domain_bits=24, num_second_level=8, independence=6),
    seed=11,
)


def _update_batch(spec: SketchSpec, elements, counts, lib):
    """``(family, seconds)``: one batch applied on ``lib`` (the compiled
    kernel, or ``None`` for the numpy oracle)."""
    saved, _kernel.LIB = _kernel.LIB, lib
    try:
        family = spec.build()
        started = time.perf_counter()
        family.update_batch(elements, counts)
        return family, time.perf_counter() - started
    finally:
        _kernel.LIB = saved


def test_hash_scatter_throughput(benchmark):
    """Updates/second of the shared plan's batch update at the
    end-to-end shape: the compiled kernel, with the numpy oracle's rate
    printed alongside."""
    rng = np.random.default_rng(12)
    elements = rng.integers(0, 2**24, size=4096, dtype=np.uint64)
    family = E2E_SPEC.build()
    benchmark.pedantic(family.update_batch, args=(elements,), rounds=5, iterations=1)
    rate = elements.size / benchmark.stats["mean"]
    _, oracle = _update_batch(E2E_SPEC, elements, None, None)
    print(
        f"\nhash+scatter (r=128, s=8, t=6): {rate / 1e3:.1f} K updates/s "
        f"({'kernel' if _kernel.LIB else 'numpy'}), "
        f"numpy oracle {elements.size / oracle / 1e3:.1f} K updates/s"
    )


def test_level_distribution_quality(benchmark):
    """Both families must produce geometric LSB levels — the property
    every estimator in the library rests on."""

    def measure():
        elements = _elements()
        deviations = {}
        for name, hash_fn in (
            ("polynomial", random_polynomial_hash(np.random.default_rng(3), 8)),
            ("tabulation", random_tabulation_hash(np.random.default_rng(4))),
        ):
            levels = lsb_array(hash_fn(elements))
            worst = 0.0
            for level in range(8):
                frequency = float((levels == level).mean())
                expected = 2.0 ** -(level + 1)
                worst = max(worst, abs(frequency - expected) / expected)
            deviations[name] = worst
        return deviations

    deviations = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    for name, worst in deviations.items():
        print(f"{name}: worst relative deviation from 2^-(l+1) over levels "
              f"0-7: {100 * worst:.2f}%")
    assert all(worst < 0.05 for worst in deviations.values())


# -- standalone smoke mode (CI) ----------------------------------------------


def run_smoke(num_elements: int = 1 << 14) -> dict:
    """A fast, assertion-backed pass over the hashing substrate.

    Measures polynomial / tabulation throughput and the plan's batch
    update (kernel and numpy oracle, updates/s at the end-to-end shape)
    on a small input, checks the LSB geometric-distribution gate, and
    verifies that kernel, oracle and per-sketch maintenance leave
    counters and bucket totals bit-identical.  Raises ``AssertionError``
    on any quality failure.
    """

    rng = np.random.default_rng(42)
    elements = rng.integers(0, 2**24, size=num_elements, dtype=np.uint64)
    report: dict = {"elements": num_elements}

    for name, hash_fn in (
        ("polynomial", random_polynomial_hash(np.random.default_rng(1), 8)),
        ("tabulation", random_tabulation_hash(np.random.default_rng(2))),
    ):
        started = time.perf_counter()
        hashed = hash_fn(elements)
        report[f"{name}_million_per_s"] = (
            num_elements / (time.perf_counter() - started) / 1e6
        )
        levels = lsb_array(hashed)
        # Only levels with >=1000 expected hits: deeper levels are pure
        # sampling noise at smoke sizes (the full bench covers 0-7 at 2^20).
        checked = max(1, int(np.log2(num_elements / 1000)))
        worst = max(
            abs(float((levels == level).mean()) - 2.0 ** -(level + 1))
            / 2.0 ** -(level + 1)
            for level in range(checked)
        )
        report[f"{name}_worst_level_deviation"] = worst
        assert worst < 0.10, f"{name} level distribution degraded: {worst:.3f}"

    batch = elements[:2048]
    counts = rng.choice(np.asarray([-2, -1, 1, 3], dtype=np.int64), batch.size)
    report["kernel_loaded"] = _kernel.LIB is not None
    runs = {}
    for name, lib in (("kernel", _kernel.LIB), ("oracle", None)):
        if name == "kernel" and lib is None:
            continue
        seconds = []
        for _ in range(3):
            family, elapsed = _update_batch(E2E_SPEC, batch, counts, lib)
            seconds.append(elapsed)
        runs[name] = family
        report[f"{name}_thousand_updates_per_s"] = batch.size / min(seconds) / 1e3
    reference = E2E_SPEC.build()
    for index in range(E2E_SPEC.num_sketches):
        reference.sketch(index).update_batch(batch, counts)
    reference.refresh_aggregates()
    for name, family in runs.items():
        assert np.array_equal(family.counters, reference.counters), (
            f"{name} maintenance diverged from the per-sketch path"
        )
        assert np.array_equal(family.level_totals(), reference.level_totals()), (
            f"{name} bucket totals diverged from the per-sketch path"
        )
    if "kernel" in runs:
        assert np.array_equal(
            runs["kernel"].level_dirty_versions(),
            runs["oracle"].level_dirty_versions(),
        ), "kernel and oracle touched different levels"
    report["counters_bit_identical"] = True
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="hashing-substrate benchmarks (smoke mode)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast CI smoke pass instead of pytest-benchmark",
    )
    parser.add_argument("--elements", type=int, default=1 << 14)
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("run under pytest for full benchmarks, or pass --smoke")
    report = run_smoke(args.elements)
    print(f"elements            : {report['elements']:,}")
    print(f"polynomial (t=8)    : {report['polynomial_million_per_s']:.1f} M/s")
    print(f"tabulation (3-wise) : {report['tabulation_million_per_s']:.1f} M/s")
    if report["kernel_loaded"]:
        print(
            "hash+scatter kernel : "
            f"{report['kernel_thousand_updates_per_s']:.1f} K updates/s"
        )
    else:
        print("hash+scatter kernel : not loaded (no C compiler)")
    print(
        "hash+scatter numpy  : "
        f"{report['oracle_thousand_updates_per_s']:.1f} K updates/s"
    )
    print(
        "level deviation     : "
        f"poly {100 * report['polynomial_worst_level_deviation']:.2f}% / "
        f"tab {100 * report['tabulation_worst_level_deviation']:.2f}%"
    )
    print("maintenance         : kernel, oracle, per-sketch bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
