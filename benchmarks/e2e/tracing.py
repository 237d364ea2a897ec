"""In-memory spans for the traced run, and the small statistics helpers.

Spans are recorded by wrapping *synchronous* calls into the system from
the benchmark's own files, so on a single-threaded event loop they nest
strictly: a span's self time is its duration minus its children's.  The
loop itself is accounted by :class:`TimedSelector` — time blocked in
``select()`` is idle, and each stretch between two selects is one
``loop.tick`` span that parents whatever ran in it, so a process's span
self times plus idle time add up to its wall time.

Asynchronous calls (a ship awaiting its ack, a client awaiting its
answer) cannot nest like that; they are kept as *intervals*, which feed
latency percentiles but no self time.

Every process reads ``time.monotonic_ns()``, which on Linux is one clock
across processes, so spans from the three processes share a time axis.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import resource
import selectors
import time

now_ns = time.monotonic_ns

TICK = "loop.tick"


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``nan`` for no samples)."""
    if not len(samples):
        return float("nan")
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))
    return ordered[index]


def cpu_seconds() -> float:
    """User plus system CPU time of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def rss_mib() -> float:
    """Current resident set size of this process, in MiB."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)
    except OSError:  # no procfs: fall back to the peak
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_plan() -> dict[str, list[int]]:
    """CPUs for each process: tree and site on CPUs of their own, the
    load on a third or else beside the tree.

    Unpinned, the three processes migrate across two cores and the
    closed-loop ingest rate swings by ~20% from run to run.  The load
    waits on the tree for every answer, so the two rarely want a core at
    the same time; the site runs independently of both.  One CPU: no
    plan.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return {}
    return {
        "tree": [cpus[0]],
        "site": [cpus[1]],
        "load": [cpus[2] if len(cpus) > 2 else cpus[0]],
    }


def pin(cpus) -> None:
    if cpus:
        os.sched_setaffinity(0, cpus)


class Tracer:
    """Span recorder of one process (a no-op unless ``enabled``)."""

    def __init__(self, process: str, enabled: bool) -> None:
        self.process = process
        self.enabled = enabled
        # (id, name, start_ns, end_ns, parent_id, request_id, self_ns)
        self.spans: list[tuple] = []
        # (name, start_ns, end_ns, request_id)
        self.intervals: list[tuple] = []
        self.idle_ns = 0
        self.unbalanced = 0
        self._stack: list[list] = []
        self._next_id = 1
        self.started_ns = now_ns()
        self.stopped_ns: int | None = None

    # -- synchronous spans -------------------------------------------------

    def push(self, name: str, request_id=None) -> None:
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([self._next_id, name, now_ns(), parent, request_id, 0])
        self._next_id += 1

    def pop(self) -> None:
        end = now_ns()
        span_id, name, start, parent, request_id, child_ns = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][5] += duration
        self.spans.append(
            (span_id, name, start, end, parent, request_id, duration - child_ns)
        )

    def wrap(self, function, name: str, request_id=None):
        """``function`` timed as span ``name`` (itself when disabled).

        ``request_id`` maps the call's arguments to the span's request id.
        """
        if not self.enabled:
            return function
        push, pop = self.push, self.pop

        def traced(*args, **kwargs):
            push(name, request_id(*args, **kwargs) if request_id else None)
            try:
                return function(*args, **kwargs)
            finally:
                pop()

        traced.__wrapped__ = function
        return traced

    def span(self, name: str, request_id=None):
        """Context manager form of :meth:`wrap`."""
        return _Span(self, name, request_id)

    def interval(self, name: str, start_ns: int, request_id=None) -> None:
        """Record an asynchronous interval that ends now."""
        if self.enabled:
            self.intervals.append((name, start_ns, now_ns(), request_id))

    # -- the event loop ----------------------------------------------------

    def tick_end(self) -> None:
        if not self._stack:
            return
        if len(self._stack) > 1:
            # A span stayed open across a select(): something awaited
            # inside a wrapped call.  Close the strays so accounting
            # stays consistent, and count the breach.
            self.unbalanced += 1
            while len(self._stack) > 1:
                self.pop()
        self.pop()

    def tick_begin(self) -> None:
        self.push(TICK)

    def stop(self) -> None:
        while self._stack:
            self.pop()
        self.stopped_ns = now_ns()

    # -- results -----------------------------------------------------------

    def summary(self, window_start: int, window_end: int) -> dict:
        """Per-name aggregates over spans and intervals starting in the
        window, plus whole-run coverage of wall time."""
        names: dict[str, dict] = {}
        for _, name, start, end, _, _, self_ns in self.spans:
            if window_start <= start < window_end:
                row = names.setdefault(
                    name, {"count": 0, "self_ns": 0, "incl_ns": 0, "durations": []}
                )
                row["count"] += 1
                row["self_ns"] += self_ns
                row["incl_ns"] += end - start
                row["durations"].append(end - start)
        intervals: dict[str, list] = {}
        for name, start, end, _ in self.intervals:
            if window_start <= start < window_end:
                intervals.setdefault(name, []).append(end - start)
        stopped = self.stopped_ns if self.stopped_ns is not None else now_ns()
        wall = stopped - self.started_ns
        covered = sum(span[6] for span in self.spans) + self.idle_ns
        loop_self = sum(span[6] for span in self.spans if span[1] == TICK)
        for row in names.values():
            # Only percentiles of a few layers are reported; keep the
            # payload small by shipping a sorted sample of at most 2,000.
            durations = sorted(row["durations"])
            step = max(1, len(durations) // 2000)
            row["durations"] = durations[::step]
        return {
            "spans": names,
            "intervals": intervals,
            "wall_ns": wall,
            "idle_ns": self.idle_ns,
            "coverage": covered / wall if wall else float("nan"),
            "unattributed_frac": (
                loop_self / (wall - self.idle_ns) if wall > self.idle_ns else 0.0
            ),
            "unbalanced": self.unbalanced,
            "num_spans": len(self.spans),
        }

    def trace_events(self, origin_ns: int, pid: int) -> list[dict]:
        """Chrome trace-event records (``ph: X``) for every span and interval."""
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": self.process},
            }
        ]
        for span_id, name, start, end, parent, request_id, self_ns in self.spans:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": pid,
                    "tid": 1,
                    "ts": (start - origin_ns) / 1000,
                    "dur": (end - start) / 1000,
                    "args": {
                        "id": span_id,
                        "parent": parent,
                        "rid": request_id,
                        "self_us": self_ns / 1000,
                    },
                }
            )
        for name, start, end, request_id in self.intervals:
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": pid,
                    "tid": 2,
                    "ts": (start - origin_ns) / 1000,
                    "dur": (end - start) / 1000,
                    "args": {"rid": request_id},
                }
            )
        return events

    def write_events(self, path, origin_ns: int, pid: int) -> None:
        with open(path, "w") as handle:
            json.dump(self.trace_events(origin_ns, pid), handle)


class _Span:
    __slots__ = ("tracer", "name", "request_id")

    def __init__(self, tracer: Tracer, name: str, request_id) -> None:
        self.tracer, self.name, self.request_id = tracer, name, request_id

    def __enter__(self):
        if self.tracer.enabled:
            self.tracer.push(self.name, self.request_id)

    def __exit__(self, *exc_info):
        if self.tracer.enabled:
            self.tracer.pop()


class TimedSelector(selectors.DefaultSelector):
    """The loop's selector, timing how long the loop sits idle in it."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def select(self, timeout=None):
        tracer = self._tracer
        tracer.tick_end()
        start = now_ns()
        try:
            return super().select(timeout)
        finally:
            tracer.idle_ns += now_ns() - start
            tracer.tick_begin()


def run_loop(main, tracer: Tracer):
    """Run coroutine ``main()`` on a fresh loop; traced loops time idle.

    Ctrl-C cancels ``main`` (so its ``finally`` blocks run) before
    :class:`KeyboardInterrupt` propagates.
    """
    if tracer.enabled:

        def factory():
            tracer.tick_begin()
            return asyncio.SelectorEventLoop(TimedSelector(tracer))

    else:
        factory = asyncio.new_event_loop
    try:
        with asyncio.Runner(loop_factory=factory) as runner:
            return runner.run(main())
    finally:
        tracer.stop()


async def sleep_until(deadline_ns: int) -> None:
    """Sleep until the monotonic clock reads ``deadline_ns``."""
    delay = (deadline_ns - now_ns()) / 1e9
    if delay > 0:
        await asyncio.sleep(delay)
