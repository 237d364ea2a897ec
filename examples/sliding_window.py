"""Sliding-window distinct counting via deletions.

Deletion support is what makes time windows possible with this synopsis:
as sessions age out of the monitoring window their updates are
subtracted again, and the deletion-invariant sketch ends up identical to
one built over just the in-window traffic.  The windowed engine
subtracts a whole time bucket at a time, so it keeps no per-session
state at all.

The scenario: a router reports active-session source addresses; the
operator wants "distinct sources in the last hour" and "distinct sources
seen at both routers in the last hour" on a rolling basis.

Run:  python examples/sliding_window.py
"""

from __future__ import annotations

import numpy as np

from repro import SketchSpec, StreamEngine, Update

WINDOW = 3600.0  # one hour, in seconds
BUCKET = 1800.0  # expiry granularity: half an hour
TICKS = 4  # traffic bursts, one per half hour


def main() -> None:
    rng = np.random.default_rng(77)
    engine = StreamEngine(
        SketchSpec(num_sketches=256, seed=5), window_span=WINDOW, bucket_width=BUCKET
    )
    bursts: list[tuple[float, set, set]] = []  # the exact truth, per burst

    addresses = rng.choice(2**30, size=40_000, replace=False)
    cursor = 0

    for burst in range(TICKS):
        now = burst * BUCKET  # every half hour, on a bucket boundary
        # Each burst: 8k sessions at R1, 6k at R2, overlapping by 4k.
        r1 = addresses[cursor : cursor + 8000]
        r2 = addresses[cursor + 4000 : cursor + 10_000]
        cursor += 10_000
        for address in r1:
            engine.observe(Update("R1", int(address), +1), now)
        for address in r2:
            engine.observe(Update("R2", int(address), +1), now)
        bursts.append((now, set(r1.tolist()), set(r2.tolist())))

        estimate = engine.query("R1 & R2", epsilon=0.15, window=WINDOW)
        live = [burst for burst in bursts if burst[0] > now - WINDOW]
        truth = len(
            set().union(*(r1 for _, r1, _ in live))
            & set().union(*(r2 for _, _, r2 in live))
        )
        error = abs(estimate.value - truth) / truth if truth else 0.0
        print(
            f"t={now / 3600:4.1f}h  bursts in window: {len(live)}   "
            f"|R1 ∩ R2| ≈ {estimate.value:7,.0f} "
            f"(exact {truth:6,}, err {100 * error:4.1f}%)"
        )

    # Let the window drain completely: everything expires.
    engine.advance_to((TICKS - 1) * BUCKET + WINDOW)
    print(
        "\nafter the window drains: window sketches empty = "
        f"{all(engine.window_family(name).is_zero() for name in engine.stream_names())}"
        f", all-time |R1| ≈ {engine.query_union(['R1'], 0.15).value:,.0f}"
    )


if __name__ == "__main__":
    main()
