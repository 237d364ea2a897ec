"""The distributed-streams model with stored coins, on a delta protocol.

The paper notes (Sections 1 and 4) that its estimators extend naturally to
the distributed model of Gibbons and Tirthapura: each stream (or part of a
stream) is observed by its own party, summarised locally, and the synopses
are shipped — e.g. periodically — to a central site where queries over the
whole collection are answered.

Two properties of the 2-level hash sketch make this work:

* **stored coins** — all sites draw their hash functions from the same
  :class:`~repro.core.family.SketchSpec` (a shared seed), so their
  sketches are comparable;
* **linearity** — a stream split across sites is summarised correctly by
  *adding* the sites' counter arrays, because the sketch of a multiset sum
  is the entrywise sum of sketches.

Earlier versions shipped each site's **cumulative** counters, which made
collecting from the same site twice double-count every update seen before
the first export.  Linearity offers the structural fix: a site now ships
:class:`DeltaExport` objects — the counter *diff* since its previous
export (:meth:`~repro.core.family.SketchFamily.diff_from`), tagged with
the site id and a monotone sequence number.  The coordinator applies each
``(site, sequence)`` at most once, in order, so

* re-collecting (a retransmit, a retried RPC) is **idempotent** — the
  duplicate is dropped, the merged synopsis is unchanged;
* a **gap** (a lost export) is detected instead of silently skipped
  (:class:`~repro.errors.DeltaSequenceError`);
* sites **retain** un-acknowledged exports, so a coordinator that
  restarted from a checkpoint can be re-synced from each site's last
  acknowledged sequence (:meth:`StreamSite.exports_after`).

:class:`StreamSite` plays the per-party observer; :class:`Coordinator`
collects delta exports and answers set-expression queries.  Both are
synchronous and in-process; :mod:`repro.streams.net` wraps the same
protocol objects in an asyncio TCP transport.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.expression import estimate_expression
from repro.core.family import SketchFamily, SketchSpec
from repro.core.results import UnionEstimate, WitnessEstimate
from repro.core.union import estimate_union
from repro.errors import DeltaSequenceError, UnknownStreamError
from repro.expr.ast import SetExpression
from repro.expr.parser import parse
from repro.streams.engine import StreamEngine
from repro.streams.updates import Update

__all__ = ["DeltaExport", "StreamSite", "Coordinator", "coalesce_exports"]


@dataclass(frozen=True)
class DeltaExport:
    """One site's shippable unit: counter deltas since its previous export.

    ``payloads`` maps stream name to the serialised *delta* counters
    (:meth:`~repro.core.family.SketchFamily.to_bytes` of the diff family);
    streams whose counters did not change since the previous export are
    omitted.  ``sequence`` starts at 1 and increases by exactly one per
    :meth:`StreamSite.export` call, which is what makes retransmits
    detectable (and droppable) at the coordinator.  ``incarnation``
    scopes the numbering to one lifetime of the exporting site process:
    a restarted site starts a fresh incarnation (and fresh counters), so
    its sequence 1 can never be confused with — or dropped as a
    duplicate of — a previous life's.

    A **batch** export (:func:`coalesce_exports`) covers the contiguous
    sequence range ``first_sequence..sequence``; by linearity its
    payloads are the entrywise sums of the covered exports' deltas, so
    applying the batch is equivalent to applying each export in turn.
    ``first_sequence`` of 0 means the export covers just ``sequence``
    (the common, unbatched case).

    ``encodings`` maps stream name to the wire encoding of its payload
    (:mod:`repro.streams.net.codec`); streams absent from the mapping
    carry plain dense ``to_bytes`` slabs.  In-process exports are always
    dense — encodings appear only on exports rebuilt from v2 network
    frames, and :meth:`Coordinator.collect` decodes them at fold time.

    ``window_at`` stamps the export with the shipping site's window
    watermark: every update the deltas summarise was observed at or
    before that instant, and the site had already observed everything up
    to it when the export was cut.  A windowed coordinator folds the
    deltas into the bucket covering ``window_at``, so windowed queries
    at the root see federated traffic in the same buckets a co-located
    engine would have used.  ``None`` (unwindowed sites, older peers)
    folds into the all-time synopses only.
    """

    site_id: str
    sequence: int
    payloads: Mapping[str, bytes] = field(default_factory=dict)
    incarnation: str = ""
    first_sequence: int = 0
    encodings: Mapping[str, str] = field(default_factory=dict)
    window_at: float | None = None

    @property
    def is_empty(self) -> bool:
        """True iff the export carries no counter changes."""
        return not self.payloads

    @property
    def batch_start(self) -> int:
        """First sequence the export covers (== ``sequence`` unbatched)."""
        return self.first_sequence or self.sequence

    @property
    def batch_size(self) -> int:
        """How many per-export deltas this export's range covers."""
        return self.sequence - self.batch_start + 1

    def payload_bytes(self) -> int:
        """Total serialised counter bytes in this export."""
        return sum(len(payload) for payload in self.payloads.values())


def coalesce_exports(
    exports: Sequence[DeltaExport], spec: SketchSpec
) -> DeltaExport:
    """Sum consecutive exports from one site into a single batch export.

    Linearity is what makes this sound: each retained export is a
    counter diff, and the diff across the whole range is the entrywise
    sum of the per-export diffs — so one frame carrying the sums, tagged
    with the range ``first_sequence..sequence``, folds to exactly the
    state the individual exports would have.  Streams whose summed delta
    is all-zero are dropped (e.g. an increment in one export undone by a
    decrement in the next).

    The inputs must come from one site and incarnation, carry dense
    (unencoded) payloads, form a contiguous ascending sequence run —
    exactly the shape of a :meth:`StreamSite.exports_after` tail — and
    agree on ``window_at``.  The last condition is what keeps batching
    sound under windowing: exports cut at different watermarks belong in
    different ring buckets at the coordinator, so summing them would
    smear traffic across buckets; group a retained tail into equal-
    ``window_at`` runs before coalescing (:mod:`repro.streams.net` does).
    """
    if not exports:
        raise ValueError("cannot coalesce an empty export list")
    head = exports[0]
    for previous, current in zip(exports, exports[1:]):
        if current.site_id != head.site_id:
            raise ValueError(
                f"cannot coalesce exports from different sites "
                f"({head.site_id!r} and {current.site_id!r})"
            )
        if current.incarnation != head.incarnation:
            raise ValueError(
                f"cannot coalesce exports across incarnations of site "
                f"{head.site_id!r}"
            )
        if current.batch_start != previous.sequence + 1:
            raise ValueError(
                f"cannot coalesce non-consecutive exports: sequence "
                f"{current.batch_start} follows {previous.sequence}"
            )
        if current.window_at != head.window_at:
            raise ValueError(
                f"cannot coalesce exports cut at different window "
                f"watermarks ({head.window_at!r} and "
                f"{current.window_at!r}); batch equal-window_at runs only"
            )
    expected = spec.counter_payload_bytes
    totals: dict[str, np.ndarray] = {}
    for export in exports:
        if export.encodings:
            raise ValueError(
                "cannot coalesce wire-encoded exports; decode them first"
            )
        for stream, payload in export.payloads.items():
            if len(payload) != expected:
                raise ValueError(
                    f"stream {stream!r} payload is {len(payload)} bytes; "
                    f"the spec calls for {expected}"
                )
            delta = np.frombuffer(payload, dtype="<i8")
            total = totals.get(stream)
            if total is None:
                totals[stream] = delta.astype(np.int64)  # owned copy
            else:
                total += delta
    if len(exports) == 1:
        return exports[0]
    payloads = {
        stream: total.astype("<i8").tobytes()
        for stream, total in totals.items()
        if total.any()
    }
    return DeltaExport(
        site_id=head.site_id,
        sequence=exports[-1].sequence,
        payloads=payloads,
        incarnation=head.incarnation,
        first_sequence=head.batch_start,
        window_at=head.window_at,
    )


class StreamSite:
    """One observing party: summarises its local share of the streams.

    A thin wrapper over :class:`StreamEngine` that adds the ship-to-
    coordinator step.  :meth:`export` serialises the counter *delta* of
    every locally maintained synopsis since the previous export (the
    coins are shared via the spec, so only counters travel) and retains
    the export until :meth:`acknowledge` confirms the coordinator has it
    durably — a restarted coordinator re-syncs from the retained tail.

    ``engine`` makes the summarised state pluggable: a
    :class:`StreamEngine` (the default) or a :class:`Coordinator` (a
    mid-tree coordinator re-exporting its *aggregated* state to a
    parent — the uplink of a federation tree).  Exports always diff
    against the per-stream baseline of the previous export, so whatever
    the backing engine is, consecutive exports never overlap and sum to
    the full state.
    """

    def __init__(
        self,
        site_id: str,
        spec: SketchSpec,
        *,
        incarnation: str | None = None,
        engine=None,
    ) -> None:
        self.site_id = site_id
        self.spec = spec
        # One lifetime of this site process.  Sequence numbers are scoped
        # to it: a restarted site (fresh counters, sequence back at 0)
        # gets a fresh incarnation, so the coordinator can tell its new
        # exports from a previous life's numbering instead of silently
        # dropping them as duplicates.
        self.incarnation = incarnation or uuid.uuid4().hex
        self._engine = engine if engine is not None else StreamEngine(spec)
        self._sequence = 0
        # Counter snapshots as of the last export, per stream; the next
        # export diffs against these, so consecutive exports never overlap.
        self._shipped: dict[str, SketchFamily] = {}
        # sequence -> export, kept until acknowledged (fail-over replay).
        self._retained: dict[int, DeltaExport] = {}

    # -- observing ---------------------------------------------------------

    def observe(self, update: Update, at: float | None = None) -> None:
        """Observe one local update tuple.

        ``at`` (windowed backing engines only) is the update's
        timestamp; it routes through
        :meth:`~repro.streams.engine.StreamEngine.observe` so the update
        lands in the local window ring as well as the all-time synopsis.
        """
        if at is None:
            self._engine.process(update)
        else:
            self._engine.observe(update, at)

    def observe_many(self, updates: Iterable[Update]) -> None:
        """Observe a sequence of local updates."""
        self._engine.process_many(updates)

    @property
    def updates_observed(self) -> int:
        # Not every backing engine counts updates (a Coordinator fold
        # target, for instance, only ever sees deltas).
        return getattr(self._engine, "updates_processed", 0)

    # -- delta export ------------------------------------------------------

    @property
    def sequence(self) -> int:
        """Sequence number of the most recent export (0 before any)."""
        return self._sequence

    def export(self, window_at: float | None = None) -> DeltaExport:
        """Ship-ready delta: counter diffs since the previous export.

        Always advances the sequence, even when no counters changed (an
        empty export) — the coordinator's in-order check relies on the
        numbering having no holes.  The export is retained until
        :meth:`acknowledge`.

        ``window_at`` stamps the export with the watermark its deltas
        were cut at (see :class:`DeltaExport`).  When omitted, a
        windowed backing engine stamps its current
        :attr:`~repro.streams.engine.StreamEngine.window_clock`
        automatically; an unwindowed engine leaves it ``None``.
        """
        if window_at is not None:
            window_at = float(window_at)
            if window_at != window_at:  # NaN
                raise ValueError("window_at must not be NaN")
        elif self._engine.is_windowed:
            clock = self._engine.window_clock
            if clock != float("-inf"):
                window_at = clock
        payloads: dict[str, bytes] = {}
        for name, family in self._engine.families().items():
            baseline = self._shipped.get(name)
            if baseline is not None:
                payload = family.delta_payload(baseline)  # advances it
                if payload is not None:
                    payloads[name] = payload
            elif not family.is_zero():
                payloads[name] = family.to_bytes()
                self._shipped[name] = family.copy()
        self._sequence += 1
        export = DeltaExport(
            self.site_id,
            self._sequence,
            payloads,
            self.incarnation,
            window_at=window_at,
        )
        self._retained[export.sequence] = export
        return export

    def acknowledge(self, sequence: int) -> None:
        """Drop retained exports up to and including ``sequence``.

        Call with the sequence the coordinator has *durably* applied
        (folded and checkpointed, for the network transport; simply
        applied, for in-process use).  Exports above ``sequence`` stay
        available for :meth:`exports_after` re-sync.
        """
        for retained in [seq for seq in self._retained if seq <= sequence]:
            del self._retained[retained]

    def exports_after(self, sequence: int) -> list[DeltaExport]:
        """Retained exports with a sequence above ``sequence``, in order.

        The re-sync path: a coordinator that greets the site with its
        last applied sequence gets every retained export it has not
        seen, oldest first.
        """
        return [
            self._retained[seq]
            for seq in sorted(self._retained)
            if seq > sequence
        ]

    @property
    def retained_exports(self) -> int:
        """How many exports are held for potential re-delivery."""
        return len(self._retained)

    # -- fail-over state ---------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serialisable export machinery state (checkpoint metadata).

        Captures what a process restart needs to resume this site's
        delta numbering *without* starting a new incarnation: the
        incarnation id, the sequence counter, and each retained (not yet
        durably acknowledged) export's sequence, stream names and
        ``window_at``.  It holds no counters: the retained exports'
        payloads are stored beside it by the caller (the network
        coordinator writes one sparse file per export) and handed back
        to :meth:`from_state`, and the shipped baselines are not stored
        at all — see :meth:`from_state`.
        """
        return {
            "site_id": self.site_id,
            "incarnation": self.incarnation,
            "sequence": self._sequence,
            "retained": [
                {
                    "sequence": export.sequence,
                    "streams": list(export.payloads),
                    "window_at": export.window_at,
                }
                for export in (
                    self._retained[seq] for seq in sorted(self._retained)
                )
            ],
        }

    @classmethod
    def from_state(
        cls,
        state: Mapping,
        spec: SketchSpec,
        *,
        engine=None,
        payloads: Mapping[int, Mapping[str, bytes]] | None = None,
    ) -> "StreamSite":
        """Rebuild a site from :meth:`to_state` output (checkpoint restore).

        The restored site keeps its previous **incarnation** — that is
        the point: a coordinator's uplink restored from a checkpoint must
        continue the very numbering its parent already tracks, so the
        parent sees neither a gap nor a duplicate-shadowing fresh life.

        ``payloads`` maps each retained export's sequence to its dense
        per-stream payloads, exactly the streams :meth:`to_state` listed.

        The shipped baselines are rebuilt as copies of ``engine``'s
        families.  That is exact only when the state was captured right
        after an export and the engine restored from the same instant —
        the network coordinator's invariant, since it cuts an uplink
        export at the start of every checkpoint: the families then equal
        the sum of every export so far (linearity), which is what each
        baseline is.
        """
        site = cls(
            str(state["site_id"]),
            spec,
            incarnation=str(state["incarnation"]),
            engine=engine,
        )
        site._sequence = int(state["sequence"])
        site._shipped = {
            name: family.copy()
            for name, family in site._engine.families().items()
        }
        payloads = payloads or {}
        for entry in state.get("retained", ()):
            sequence = int(entry["sequence"])
            streams = [str(name) for name in entry["streams"]]
            stored = payloads.get(sequence, {})
            if sorted(stored) != sorted(streams):
                raise ValueError(
                    f"retained export {sequence} lists streams {streams}; "
                    f"payloads were given for {sorted(stored)}"
                )
            window_at = entry.get("window_at")
            site._retained[sequence] = DeltaExport(
                site.site_id,
                sequence,
                {name: stored[name] for name in streams},
                site.incarnation,
                window_at=None if window_at is None else float(window_at),
            )
        return site


class Coordinator:
    """Central site: merges delta exports and answers cardinality queries.

    The fold target is pluggable: by default the coordinator keeps a
    plain per-stream :class:`~repro.core.family.SketchFamily` map, but
    ``engine`` accepts a :class:`StreamEngine` — e.g. a windowed one, so
    a coordinator of a federation tree buckets incoming network deltas
    by time and answers windowed queries.  Sequence/incarnation
    bookkeeping is identical either way; only where the counters land
    differs.
    """

    def __init__(
        self, spec: SketchSpec, *, engine: StreamEngine | None = None
    ) -> None:
        self.spec = spec
        self._engine = engine
        self._families: dict[str, SketchFamily] = {}
        # site id -> incarnation -> last applied sequence.  Sequences are
        # scoped to one lifetime of a site process; keeping the history
        # per incarnation means a site id that restarts (or even
        # alternates between two lives) can never have an export dropped
        # as another life's duplicate, nor replayed twice.
        self._applied: dict[str, dict[str, int]] = {}
        # site id -> incarnation that most recently applied an export.
        self._current: dict[str, str] = {}
        self._collects_applied = 0
        self._duplicates_dropped = 0

    # -- collection --------------------------------------------------------

    def collect(self, export: DeltaExport) -> bool:
        """Fold one site's delta export into the global synopses.

        Returns ``True`` when the export was applied, ``False`` when it
        was a duplicate (whole covered range at or below the site's last
        applied sequence) and therefore dropped — collecting the same
        export any number of times leaves the merged state identical.  A
        sequence *gap* raises
        :class:`~repro.errors.DeltaSequenceError`: applying it would
        silently lose the missing exports' updates.  So does a **batch**
        export whose range only partially overlaps the applied prefix —
        its summed payloads cannot be split, so the site must rewind and
        re-batch from the first unapplied sequence.

        A stream observed at several sites ends up with the sum of the
        sites' deltas — by linearity, exactly the sketch of the full
        stream.  Payloads carrying a v2 wire encoding are decoded here,
        at fold time; sparse ones scatter straight into an existing
        synopsis without materialising a dense slab.  Decoding is
        all-or-nothing: every payload is decoded and validated before
        any synopsis is touched, so a malformed blob
        (:class:`~repro.streams.net.codec.CodecError`, a bad slab size)
        leaves the coordinator exactly as it was — the site can re-ship
        the same export without any stream being folded twice.
        """
        last = self.applied_sequence(export.site_id, export.incarnation)
        if export.sequence <= last:
            self._duplicates_dropped += 1
            return False
        first = export.batch_start
        if first != last + 1:
            if first > last + 1:
                raise DeltaSequenceError(
                    f"site {export.site_id!r} shipped export sequence "
                    f"{first}..{export.sequence} but the last applied one "
                    f"is {last}; exports {last + 1}..{first - 1} are "
                    f"missing (re-sync the site before collecting further)"
                )
            raise DeltaSequenceError(
                f"site {export.site_id!r} shipped a batch covering "
                f"{first}..{export.sequence} but exports up to {last} are "
                f"already applied; the batch cannot be split, so re-batch "
                f"from {last + 1}"
            )
        # Decode every payload before touching any synopsis.  Fold-time
        # decode failure is an expected path under wire-format v2 (the
        # server answers with an error and the site re-ships the same
        # export after re-syncing); folding stream by stream would leave
        # a failed export half-applied with applied_sequence unadvanced,
        # and the re-shipped copy would then double-count the streams
        # folded before the failure.
        decoded = [
            (
                stream,
                self._decode_payload(
                    stream, payload, export.encodings.get(stream, "dense")
                ),
            )
            for stream, payload in export.payloads.items()
        ]
        for stream, incoming in decoded:
            self._apply_decoded(stream, incoming, at=export.window_at)
        site_history = self._applied.setdefault(export.site_id, {})
        site_history[export.incarnation] = export.sequence
        self._current[export.site_id] = export.incarnation
        # A batch counts as every export it covers: the logical tally
        # stays comparable whether or not the uplink coalesced.
        self._collects_applied += export.sequence - first + 1
        return True

    def _decode_payload(self, stream: str, payload: bytes, encoding: str):
        """Materialise one wire payload; never touches coordinator state.

        Returns the decoded delta :class:`SketchFamily`, or — for a
        sparse encoding — the validated ``(indices, values)`` cell pair,
        so :meth:`_apply_decoded` can scatter it straight into an
        existing plain-map synopsis (the fast path: no dense
        intermediate slab).  All payload validation happens here, which
        is what lets :meth:`collect` decode a whole export before
        mutating anything.
        """
        if encoding == "dense":
            return SketchFamily.from_bytes(payload, self.spec)
        # Deferred so importing this module never pulls the network
        # stack in (repro.streams.net imports this module back).
        from repro.streams.net import codec

        cells = codec.decode_cells(payload, encoding, self.spec.counter_cells)
        if cells is None:  # dense-based encoding (e.g. dense+zlib)
            dense = codec.decode_dense(
                payload, encoding, self.spec.counter_cells
            )
            return SketchFamily.from_bytes(dense, self.spec)
        return cells

    def _apply_decoded(
        self, stream: str, incoming, at: float | None = None
    ) -> None:
        """Fold one :meth:`_decode_payload` result into ``stream``.

        ``at`` is the export's window watermark; a windowed fold engine
        lands the delta in the ring bucket covering it (all-time
        synopses are updated either way).  Unwindowed fold targets — the
        plain family map included — ignore it.
        """
        if not isinstance(incoming, SketchFamily):
            indices, values = incoming
            if self._engine is None and stream in self._families:
                self._families[stream].add_cells(indices, values)
                return
            incoming = SketchFamily.from_cells(indices, values, self.spec)
        if self._engine is not None:
            self._engine.merge_delta(stream, incoming, at=at)
        elif stream in self._families:
            self._families[stream].merge_in_place(incoming)
        else:
            self._families[stream] = incoming

    def collect_from(self, site: StreamSite) -> None:
        """Convenience: export from a site object, collect, acknowledge."""
        self.collect(site.export())
        site.acknowledge(
            self.applied_sequence(site.site_id, site.incarnation)
        )

    def applied_sequence(
        self, site_id: str, incarnation: str | None = None
    ) -> int:
        """The last applied export sequence for ``site_id`` (0 if none).

        Sequences are per incarnation (one lifetime of the site
        process); ``incarnation=None`` reads the one that most recently
        applied an export.
        """
        history = self._applied.get(site_id, {})
        if incarnation is None:
            incarnation = self._current.get(site_id, "")
        return history.get(incarnation, 0)

    def site_sequences(self) -> dict[str, dict[str, int]]:
        """``site id -> incarnation -> last applied sequence``.

        The full per-incarnation history — this is what rides in
        checkpoint metadata, so a restored coordinator can answer any
        returning incarnation with the right resume point.
        """
        return {site: dict(history) for site, history in self._applied.items()}

    @property
    def sites_collected(self) -> int:
        """How many delta exports have been applied (duplicates excluded)."""
        return self._collects_applied

    @property
    def duplicates_dropped(self) -> int:
        """How many duplicate exports were dropped idempotently."""
        return self._duplicates_dropped

    # -- restore (fail-over) ----------------------------------------------

    def adopt_family(self, stream: str, family: SketchFamily) -> None:
        """Install a pre-merged synopsis for ``stream`` (restore path)."""
        if family.spec != self.spec:
            from repro.errors import IncompatibleSketchesError

            raise IncompatibleSketchesError(
                "adopted family does not follow the coordinator's SketchSpec"
            )
        if self._engine is not None:
            self._engine.adopt_family(stream, family)
        else:
            self._families[stream] = family

    def set_applied_sequence(
        self, site_id: str, incarnation: str, sequence: int
    ) -> None:
        """Restore one incarnation's last applied sequence (fail-over)."""
        if sequence < 0:
            raise ValueError("sequence must be non-negative")
        self._applied.setdefault(site_id, {})[incarnation] = sequence
        current = self.applied_sequence(site_id)
        if sequence >= current:
            self._current[site_id] = incarnation

    # -- queries -----------------------------------------------------------

    @property
    def fold_engine(self) -> StreamEngine | None:
        """The pluggable fold target (``None`` for the plain family map)."""
        return self._engine

    @property
    def is_windowed(self) -> bool:
        """Whether the fold target buckets incoming deltas by time.

        True only for a windowed :class:`StreamEngine` fold target.
        Exposing it here lets an uplink :class:`StreamSite` backed by
        this coordinator stamp its re-exports with the aggregated
        watermark automatically — a mid-tree node forwards windowed
        state upward exactly like a leaf.
        """
        return self._engine is not None and self._engine.is_windowed

    @property
    def window_clock(self) -> float:
        """The fold engine's window watermark (``-inf`` when unwindowed)."""
        if self._engine is None:
            return float("-inf")
        return self._engine.window_clock

    def families(self) -> dict[str, SketchFamily]:
        """``stream -> merged synopsis`` (live objects, not copies).

        The delta-export surface: an uplink
        :class:`StreamSite` backed by this coordinator diffs these
        families to re-export the *aggregated* state up a federation
        tree.
        """
        if self._engine is not None:
            return self._engine.families()
        return dict(self._families)

    def stream_names(self) -> list[str]:
        """Streams with a merged synopsis at the coordinator."""
        if self._engine is not None:
            return self._engine.stream_names()
        return sorted(self._families)

    def _require_streams(self, names: Iterable[str]) -> None:
        missing = sorted(set(names) - set(self.stream_names()))
        if missing:
            known = ", ".join(self.stream_names()) or "<none>"
            raise UnknownStreamError(
                f"no synopsis collected for stream(s) "
                f"{', '.join(repr(name) for name in missing)}; "
                f"known streams: {known}"
            )

    def _check_windowed_query(self, window: float | None) -> None:
        if window is not None and not self.is_windowed:
            raise ValueError(
                "windowed queries need a windowed fold engine; construct "
                "the coordinator with engine=StreamEngine(spec, "
                "window_span=...)"
            )

    def query(
        self,
        expression: SetExpression | str,
        epsilon: float = 0.1,
        window: float | None = None,
    ) -> WitnessEstimate:
        """Estimate ``|E|`` over the merged global synopses.

        Raises :class:`~repro.errors.UnknownStreamError` (naming the
        missing stream and listing the known ones) when the expression
        references a stream no site has shipped yet.

        ``window`` restricts the estimate to the most recent ``window``
        time units of federated traffic — it requires a *windowed* fold
        engine, which buckets incoming deltas by their exports'
        ``window_at`` stamps (:class:`DeltaExport`).
        """
        self._check_windowed_query(window)
        if isinstance(expression, str):
            expression = parse(expression)
        self._require_streams(expression.streams())
        if self._engine is not None:
            return self._engine.query(expression, epsilon, window=window)
        return estimate_expression(expression, self._families, epsilon)

    def query_union(
        self,
        stream_names: Iterable[str],
        epsilon: float = 0.1,
        window: float | None = None,
    ) -> UnionEstimate:
        """Estimate the distinct-element count of a union of streams.

        Raises :class:`~repro.errors.UnknownStreamError` for stream
        names without a collected synopsis.  ``window`` as in
        :meth:`query`.
        """
        self._check_windowed_query(window)
        names = list(stream_names)
        self._require_streams(names)
        if self._engine is not None:
            return self._engine.query_union(names, epsilon, window=window)
        families = [self._families[name] for name in names]
        return estimate_union(families, epsilon)

    def query_many(
        self,
        expressions: Sequence[SetExpression | str],
        epsilon: float = 0.1,
        window: float | None = None,
    ) -> list[WitnessEstimate]:
        """Estimate many expressions in one pass over the merged synopses.

        With a :class:`StreamEngine` fold target this delegates to its
        batched :meth:`StreamEngine.query_many` (expressions over the
        same stream set share one union estimate and one mask pass); the
        plain family map evaluates each expression in turn.  Either way
        each answer is bit-identical to querying alone, and unknown
        streams raise :class:`~repro.errors.UnknownStreamError` before
        anything is evaluated.
        """
        self._check_windowed_query(window)
        parsed = [
            parse(expression) if isinstance(expression, str) else expression
            for expression in expressions
        ]
        names: set[str] = set()
        for expression in parsed:
            names.update(expression.streams())
        self._require_streams(names)
        if self._engine is not None:
            return self._engine.query_many(parsed, epsilon, window=window)
        return [
            estimate_expression(expression, self._families, epsilon)
            for expression in parsed
        ]

    @property
    def snapshot_position(self) -> tuple[int, int]:
        """A monotone snapshot token for the merged view.

        With a :class:`StreamEngine` fold target this is the engine's
        own ``(updates_processed, mutation_epoch)`` pair; for the plain
        family map it is the count of applied collects, so two queries
        answered at the same position saw the same merged synopses.
        """
        if self._engine is not None:
            return self._engine.snapshot_position
        return (self._collects_applied, 0)

    def to_engine(self, batch_size: int = 4096) -> StreamEngine:
        """Hand the merged global synopses to a live engine.

        The engine adopts each merged family (shared storage) and can then
        keep ingesting updates — e.g. a coordinator that also tails a
        local stream after the periodic collection round.  A fold engine
        is returned as-is.
        """
        if self._engine is not None:
            return self._engine
        engine = StreamEngine(self.spec, batch_size=batch_size)
        for name, family in self._families.items():
            engine.adopt_family(name, family)
        return engine
