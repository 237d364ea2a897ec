"""Continuous (standing) queries over the stream engine.

The architecture of the paper's Figure 1 serves queries *online* while
updates keep streaming in.  :class:`ContinuousQueryProcessor` wraps a
:class:`~repro.streams.engine.StreamEngine` with standing set-expression
queries that re-evaluate every ``every`` processed updates, keep a
history of observations, and fire alert callbacks on threshold crossings
— the "detect the DoS attack as it happens" loop of the paper's
introduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.results import WitnessEstimate
from repro.errors import ReproError, UnknownQueryError
from repro.expr.ast import SetExpression
from repro.expr.parser import parse
from repro.streams.engine import StreamEngine
from repro.streams.updates import Update

__all__ = ["Observation", "StandingQuery", "ContinuousQueryProcessor"]


@dataclass(frozen=True)
class Observation:
    """One evaluation of a standing query."""

    at_update: int  # engine.updates_processed when evaluated
    estimate: WitnessEstimate

    @property
    def value(self) -> float:
        """The cardinality estimate of this observation."""
        return self.estimate.value


@dataclass
class StandingQuery:
    """A registered continuous query and its observation history.

    ``history`` and ``alerts`` are plain lists used as ring buffers: when
    a log exceeds ``max_history`` entries the oldest are dropped, so a
    query evaluated every few updates on an unbounded stream holds a
    bounded tail of observations rather than growing without limit.
    ``max_history=None`` disables trimming (the pre-existing behaviour).

    Alerts are **edge-triggered**: a sustained breach records and fires
    once, on the observation that *crossed* the threshold, and arms
    again only after an observation back at or below it.  ``realert_every
    = n`` opts into periodic re-pages while the breach is sustained —
    every ``n``-th breaching observation after the crossing fires again.
    (The previous level-triggered behaviour re-fired on *every*
    evaluation of a sustained breach, flooding the callback and the
    ``alerts`` ring at the evaluation cadence.)

    ``window`` (windowed engines only) makes the query evaluate over the
    most recent ``window`` time units instead of all time.
    """

    name: str
    expression: SetExpression
    epsilon: float
    every: int
    threshold: float | None
    on_alert: Callable[["StandingQuery", Observation], None] | None
    max_history: int | None = 10_000
    window: float | None = None
    realert_every: int | None = None
    history: list[Observation] = field(default_factory=list)
    alerts: list[Observation] = field(default_factory=list)
    #: Whether the last observation was above threshold (the edge detector).
    currently_breached: bool = False
    #: Consecutive breaching observations in the current breach episode.
    breach_run: int = 0

    @property
    def latest(self) -> Observation | None:
        """The most recent observation, if any."""
        return self.history[-1] if self.history else None

    def breached(self, observation: Observation) -> bool:
        """Whether an observation exceeds the query's alert threshold."""
        return self.threshold is not None and observation.value > self.threshold

    def record(self, observation: Observation) -> bool:
        """Append an observation (and any alert), trimming both logs.

        Returns whether to alert: True on a threshold *crossing* (the
        first breaching observation after a non-breaching one), or — with
        ``realert_every`` set — on every ``realert_every``-th breaching
        observation of a sustained breach.  The caller fires ``on_alert``.
        """
        self.history.append(observation)
        self._trim(self.history)
        if not self.breached(observation):
            self.currently_breached = False
            self.breach_run = 0
            return False
        self.breach_run += 1
        if self.currently_breached:
            # Sustained breach: silent unless periodic re-pages opted in.
            alerted = (
                self.realert_every is not None
                and (self.breach_run - 1) % self.realert_every == 0
            )
        else:
            self.currently_breached = True
            alerted = True  # rising edge
        if alerted:
            self.alerts.append(observation)
            self._trim(self.alerts)
        return alerted

    def _trim(self, log: list[Observation]) -> None:
        # Front-trim in place: history/alerts stay plain lists (cheap
        # amortised, and list equality keeps working for callers/tests).
        if self.max_history is not None and len(log) > self.max_history:
            del log[: len(log) - self.max_history]


class ContinuousQueryProcessor:
    """Evaluates standing queries as updates flow through the engine.

    Usage::

        processor = ContinuousQueryProcessor(engine)
        processor.register(
            "bypass", "(R1 & R2) - R3", every=10_000,
            threshold=50_000, on_alert=page_the_oncall,
        )
        for update in traffic:
            processor.process(update)

    Evaluation cost is bounded: queries touch only per-level aggregates of
    the maintained synopses, so even aggressive cadences stay cheap
    relative to maintenance.
    """

    def __init__(self, engine: StreamEngine) -> None:
        self.engine = engine
        self._queries: dict[str, StandingQuery] = {}

    # -- registration -----------------------------------------------------

    def register(
        self,
        name: str,
        expression: SetExpression | str,
        epsilon: float = 0.1,
        every: int = 10_000,
        threshold: float | None = None,
        on_alert: Callable[[StandingQuery, Observation], None] | None = None,
        max_history: int | None = 10_000,
        window: float | None = None,
        realert_every: int | None = None,
    ) -> StandingQuery:
        """Register a standing query evaluated every ``every`` updates.

        ``threshold``/``on_alert`` make it an alerting rule: an
        observation that *crosses* the threshold is recorded in
        ``query.alerts`` and the callback (if any) fires; a sustained
        breach stays silent until it clears and crosses again, unless
        ``realert_every=n`` opts into a re-page every ``n``-th breaching
        observation (see :class:`StandingQuery`).

        ``window`` (windowed engines only) evaluates the query over the
        most recent ``window`` time units — the "distinct IPs in A ∩ B
        over the last 5 minutes" shape.  The alert cadence is then per
        window state: ``every`` still counts processed updates, but each
        evaluation sees only in-window traffic, so a breach clears on
        its own as the offending cohort ages out.

        ``max_history`` bounds the per-query observation and alert logs
        (oldest entries dropped first).  The generous default keeps
        long-running processors at a fixed footprint; pass ``None`` to
        keep every observation.
        """
        if name in self._queries:
            raise ReproError(f"standing query {name!r} already registered")
        if every < 1:
            raise ValueError("every must be positive")
        if not (0 < epsilon < 1):
            raise ValueError("epsilon must be in (0, 1)")
        if max_history is not None and max_history < 1:
            raise ValueError("max_history must be positive (or None)")
        if realert_every is not None and realert_every < 1:
            raise ValueError("realert_every must be positive (or None)")
        window = self.engine._checked_query_window(window)
        if isinstance(expression, str):
            expression = parse(expression)
        query = StandingQuery(
            name=name,
            expression=expression,
            epsilon=epsilon,
            every=every,
            threshold=threshold,
            on_alert=on_alert,
            max_history=max_history,
            window=window,
            realert_every=realert_every,
        )
        self._queries[name] = query
        return query

    def unregister(self, name: str) -> None:
        """Remove a standing query (its history is discarded).

        Raises :class:`~repro.errors.ReproError` (also a ``KeyError``,
        for callers that catch the builtin) naming the known queries
        when ``name`` was never registered.
        """
        del self._queries[self._checked_name(name)]

    def query_names(self) -> list[str]:
        """Names of the registered standing queries."""
        return sorted(self._queries)

    def _checked_name(self, name: str) -> str:
        if name not in self._queries:
            known = ", ".join(self.query_names()) or "<none>"
            raise UnknownQueryError(
                f"no standing query named {name!r}; registered queries: {known}"
            )
        return name

    def __getitem__(self, name: str) -> StandingQuery:
        """The registered query, or :class:`UnknownQueryError` (a
        ``KeyError`` subclass) naming the registered queries — the same
        typed error every lookup path raises, so a serving layer can map
        it to one protocol error kind."""
        return self._queries[self._checked_name(name)]

    # -- streaming ----------------------------------------------------------

    def process(self, update: Update) -> None:
        """Feed one update; evaluate any queries whose cadence is due.

        When several queries fall due on the same tick they are evaluated
        through :meth:`~repro.streams.engine.StreamEngine.query_many`, so
        queries over the same stream set share one union estimate and one
        set of singleton/non-emptiness masks — results stay bit-identical
        to evaluating each query alone.
        """
        self.engine.process(update)
        self._evaluate_due()

    def process_many(self, updates) -> None:
        """Feed a sequence of updates through :meth:`process`."""
        for update in updates:
            self.process(update)

    def observe(self, update: Update, at: float) -> None:
        """Feed one *timestamped* update (windowed engines only).

        Routes through :meth:`StreamEngine.observe`, so the update lands
        in its stream ring's open bucket (in the window and all time), then
        evaluates due queries exactly like :meth:`process` — windowed
        standing queries see the ring state as of ``at``.
        """
        self.engine.observe(update, at)
        self._evaluate_due()

    def observe_many(self, updates) -> int:
        """Feed ``(update, timestamp)`` pairs; returns the observed count."""
        observed = 0
        for update, at in updates:
            self.observe(update, at)
            observed += 1
        return observed

    def _evaluate_due(self) -> None:
        position = self.engine.updates_processed
        due = [
            query
            for query in self._queries.values()
            if position % query.every == 0
        ]
        if not due:
            return
        if len(due) == 1:
            self._evaluate(due[0], position)
            return
        # query_many shares work per stream set but takes one epsilon (and
        # one window) per call, so group the due queries first.
        groups: dict[tuple, list[StandingQuery]] = {}
        for query in due:
            groups.setdefault((query.epsilon, query.window), []).append(query)
        for (epsilon, window), group in groups.items():
            estimates = self.engine.query_many(
                [query.expression for query in group],
                epsilon=epsilon,
                window=window,
            )
            for query, estimate in zip(group, estimates):
                self._record(query, estimate, position)

    def evaluate_now(self, name: str) -> Observation:
        """Force an immediate evaluation of one standing query.

        Raises :class:`~repro.errors.UnknownQueryError` naming the
        registered queries when ``name`` was never registered.
        """
        query = self._queries[self._checked_name(name)]
        return self._evaluate(query, self.engine.updates_processed)

    # -- internals -------------------------------------------------------------

    def _evaluate(self, query: StandingQuery, position: int) -> Observation:
        estimate = self.engine.query(
            query.expression, query.epsilon, window=query.window
        )
        return self._record(query, estimate, position)

    def _record(
        self, query: StandingQuery, estimate: WitnessEstimate, position: int
    ) -> Observation:
        observation = Observation(at_update=position, estimate=estimate)
        if query.record(observation) and query.on_alert is not None:
            query.on_alert(query, observation)
        return observation
