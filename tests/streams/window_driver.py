"""The per-update sliding-window reference the window rings are checked
against.

:class:`SlidingWindowDriver` forwards each timestamped update to its
sinks and remembers it; when time advances past ``window_span``, it
emits the inverse updates of everything that fell out.  Memory is
proportional to the number of in-window updates, which is why the
library answers windows with :class:`~repro.streams.windows.WindowRing`
instead; at every bucket boundary a ring must be bit-identical to a
flat engine fed through this driver.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.streams.updates import Update
from repro.streams.windows import finite_time

_CLOCK_POLICIES = ("raise", "clamp")


class SlidingWindowDriver:
    """Maintains time-based sliding-window semantics over sinks.

    Parameters
    ----------
    window_span:
        Width of the window in the caller's time unit.  An update observed
        at time ``t`` expires as soon as the clock reaches ``t +
        window_span`` (exclusive bound: ``observe(..., at=0)`` with span 10
        is still in-window at ``advance_to(9)`` and gone at 10).
    sinks:
        Objects with ``process(update)`` or ``apply(update)``; every
        forwarded and inverse update goes to all of them.  Sinks that also
        expose a batch entry point (``process_many`` or ``apply_many``)
        receive each expiry cohort as **one batch per** ``advance_to``
        instead of per-update scalar calls, engaging the vectorised
        ingest path; per-sink update order is unchanged, so by sketch
        linearity the result is bit-identical to the scalar path.
    clock_policy:
        What to do with a non-monotonic clock.  The driver's correctness
        argument (expiry order equals observation order, so the deque
        head is always the oldest in-window update) needs a
        non-decreasing clock; a timestamp that silently moved it
        backwards — or a NaN, which every comparison answers False for,
        freezing expiry forever — would mis-expire updates with no
        error.  ``"raise"`` (the default) rejects any regressing or NaN
        timestamp with :class:`ValueError`.  ``"clamp"`` instead stamps
        late updates at the current watermark (they enter the window
        *now*, where they were observed, and expire a full span later)
        and treats a backwards ``advance_to`` as a no-op; NaN and ±inf
        are always errors — there is no watermark they can mean.
        Clamping is the policy for wall-clock sources with small skew
        (e.g. merged feeds from several machines), raising for
        logical/event time where a regression is a bug worth hearing
        about.
    """

    def __init__(
        self, window_span: float, *sinks, clock_policy: str = "raise"
    ) -> None:
        if window_span <= 0:
            raise ValueError("window_span must be positive")
        if not sinks:
            raise ValueError("need at least one sink")
        if clock_policy not in _CLOCK_POLICIES:
            raise ValueError("clock_policy must be 'raise' or 'clamp'")
        self.window_span = window_span
        self.clock_policy = clock_policy
        self._handlers = []
        self._batch_handlers = []
        for sink in sinks:
            handler = getattr(sink, "process", None) or getattr(sink, "apply", None)
            if handler is None:
                raise TypeError(
                    f"{type(sink).__name__} has no process()/apply() method"
                )
            self._handlers.append(handler)
            self._batch_handlers.append(
                getattr(sink, "process_many", None)
                or getattr(sink, "apply_many", None)
            )
        self._clock = float("-inf")
        self._in_window: deque[tuple[float, Update]] = deque()

    # -- ingest ---------------------------------------------------------------

    def observe(self, update: Update, at: float) -> None:
        """Forward one update observed at time ``at``.

        ``at`` must respect the configured ``clock_policy``: regressions
        raise by default, or are clamped to the current watermark (see
        the class docstring); NaN and ±inf timestamps always raise.
        """
        at = self._checked_time(at)
        if at < self._clock:  # clamp policy: stamp at the watermark
            at = self._clock
        self.advance_to(at)
        self._emit(update)
        self._in_window.append((at, update))

    def observe_many(self, updates: Iterable[tuple[Update, float]]) -> int:
        """Observe a sequence of (update, timestamp) pairs.

        Returns the number of updates observed.  Emission is **partial
        on error**: each pair is forwarded to the sinks as it is
        consumed, so if a timestamp is rejected mid-iterable (a
        regression under ``clock_policy="raise"``, or a non-finite one
        under either policy) the earlier pairs have already been emitted and remain
        in the window — the driver and its sinks stay mutually
        consistent.  The return value tells the caller exactly how far
        the iterable got; resume by re-observing from that offset.
        """
        observed = 0
        for update, at in updates:
            self.observe(update, at)
            observed += 1
        return observed

    def advance_to(self, now: float) -> int:
        """Move the clock forward, expiring everything out of window.

        Returns the number of updates expired.  A regressing ``now``
        raises or is ignored per ``clock_policy``; NaN and ±inf always raise.
        The expiry cohort's inverse updates are emitted as one batch per
        sink (in observation order, so per-sink state is bit-identical
        to per-update emission); sinks without a batch entry point get
        scalar calls.
        """
        now = self._checked_time(now)
        if now < self._clock:  # clamp policy: backwards advance is a no-op
            return 0
        self._clock = now
        inverses: list[Update] = []
        while self._in_window and self._in_window[0][0] + self.window_span <= now:
            _, update = self._in_window.popleft()
            inverses.append(update.inverse())
        if inverses:
            self._emit_batch(inverses)
        return len(inverses)

    # -- introspection ---------------------------------------------------------

    @property
    def clock(self) -> float:
        return self._clock

    @property
    def in_window_count(self) -> int:
        """Number of updates currently inside the window."""
        return len(self._in_window)

    # -- internals -------------------------------------------------------------

    def _checked_time(self, value: float) -> float:
        """Validate a timestamp (:func:`finite_time`) against the clock
        policy."""
        value = finite_time(value)
        if value < self._clock and self.clock_policy == "raise":
            raise ValueError(
                f"time went backwards: {value} after {self._clock}"
            )
        return value

    def _emit(self, update: Update) -> None:
        for handler in self._handlers:
            handler(update)

    def _emit_batch(self, updates: list[Update]) -> None:
        for handler, batch_handler in zip(self._handlers, self._batch_handlers):
            if batch_handler is not None:
                batch_handler(updates)
            else:
                for update in updates:
                    handler(update)
