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
:class:`DeltaExport` objects — the non-zero cells of the counter *diff*
since its previous export (:class:`DeltaPayload`), tagged with the site
id and a monotone sequence number.  The coordinator applies each
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

from repro.core.family import SketchFamily, SketchSpec, check_cells, sum_cells
from repro.core.results import UnionEstimate, WitnessEstimate
from repro.errors import (
    DeltaSequenceError,
    IncompatibleSketchesError,
    UnknownStreamError,
)
from repro.expr.ast import SetExpression
from repro.expr.parser import parse
from repro.streams.engine import StreamEngine
from repro.streams.updates import Update
from repro.streams.windows import bucket_end, bucket_index, finite_time

__all__ = [
    "DeltaPayload",
    "DeltaExport",
    "StreamSite",
    "Coordinator",
    "coalesce_exports",
]


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only ``int64`` view of ``array`` (payloads are shared)."""
    view = np.asarray(array, dtype=np.int64).view()
    view.flags.writeable = False
    return view


class DeltaPayload:
    """One stream's counter delta: its non-zero cells and its wire blob.

    The cells are the delta's strictly increasing flat ``indices`` into
    the ``(r, levels, s, 2)`` counter slab and their non-zero ``int64``
    ``values`` (:meth:`~repro.core.family.SketchFamily.nonzero_cells`);
    the wire form is one ``(encoding, blob)`` pair of
    :mod:`repro.streams.net.codec`.  A payload starts from either side
    — a site's export from cells (:meth:`from_cells`), a received frame
    from its blob (:meth:`from_wire`) — and computes the other at most
    once, on first use, and keeps it.  So a delta is encoded once
    however often it is retransmitted or re-synced, and a mid-tree
    node forwards a child's delta in the very blob it arrived in.

    Both sides are immutable once set (the cell arrays are read-only),
    which is what lets one payload be shared by a site's retained
    export, a coordinator's pending cut and a batch.
    """

    __slots__ = ("_indices", "_values", "_num_cells", "_encoding", "_blob")

    def __init__(self) -> None:
        self._indices: np.ndarray | None = None
        self._values: np.ndarray | None = None
        self._num_cells: int | None = None
        self._encoding: str | None = None
        self._blob: bytes | None = None

    @classmethod
    def from_cells(
        cls, indices: np.ndarray, values: np.ndarray, num_cells: int
    ) -> "DeltaPayload":
        """A payload of cells over a ``num_cells``-cell slab, not yet
        encoded."""
        payload = cls()
        payload._indices, payload._values = _frozen(indices), _frozen(values)
        if payload._indices.shape != payload._values.shape:
            raise ValueError("cell indices and values must align")
        payload._num_cells = int(num_cells)
        return payload

    @classmethod
    def from_wire(cls, encoding: str, blob: bytes) -> "DeltaPayload":
        """A payload as received: its blob, decoded on first
        :meth:`cells` call."""
        payload = cls()
        payload._encoding, payload._blob = encoding, blob
        return payload

    @property
    def encoding(self) -> str | None:
        """The wire encoding of the kept blob (``None`` before any)."""
        return self._encoding

    @property
    def blob(self) -> bytes | None:
        """The kept wire blob (``None`` until first encoded)."""
        return self._blob

    def cells(self, num_cells: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(indices, values)`` cells, decoding the blob the first
        time against a ``num_cells``-cell slab.

        A malformed blob raises
        :class:`~repro.streams.net.codec.CodecError`; a blob in a
        dense-based encoding becomes cells through
        :meth:`~repro.core.family.SketchFamily.nonzero_cells`' rule
        (every non-zero counter).
        """
        if self._indices is None:
            # Deferred so importing this module never pulls the network
            # stack in (repro.streams.net imports this module back).
            from repro.streams.net import codec

            cells = codec.decode_cells(self._blob, self._encoding, num_cells)
            if cells is None:  # dense-based encoding (e.g. dense+zlib)
                counters = np.frombuffer(
                    codec.decode_dense(self._blob, self._encoding, num_cells),
                    dtype="<i8",
                )
                indices = np.flatnonzero(counters)
                cells = indices, counters[indices]
            self._indices, self._values = _frozen(cells[0]), _frozen(cells[1])
            self._num_cells = int(num_cells)
        return self._indices, self._values

    def wire(
        self, allowed: Sequence[str], *, compress_level: int = 6
    ) -> tuple[str, bytes]:
        """The ``(encoding, blob)`` to ship in a session allowing
        ``allowed`` encodings (``dense`` always is).

        The kept blob is reused whenever its encoding is allowed;
        otherwise the cells are encoded once through
        :func:`~repro.streams.net.codec.encode_delta` (smallest allowed
        encoding) and that blob is kept instead.
        """
        if self._encoding is not None and (
            self._encoding == "dense" or self._encoding in allowed
        ):
            return self._encoding, self._blob
        if self._indices is None:
            raise ValueError(
                f"a payload received as {self._encoding!r} must be decoded "
                f"(cells()) before it can be re-encoded"
            )
        from repro.streams.net import codec

        self._encoding, self._blob = codec.encode_delta(
            self._indices,
            self._values,
            self._num_cells,
            allowed,
            compress_level=compress_level,
        )
        return self._encoding, self._blob


@dataclass(frozen=True)
class DeltaExport:
    """One site's shippable unit: counter deltas since its previous export.

    ``payloads`` maps stream name to its *delta* counters, a
    :class:`DeltaPayload` (non-zero cells, plus the wire blob once
    encoded or as received); streams whose counters did not change
    since the previous export are omitted.  ``sequence`` starts at 1 and
    increases by exactly one per :meth:`StreamSite.export` call, which
    is what makes retransmits detectable (and droppable) at the
    coordinator.  ``incarnation`` scopes the numbering to one lifetime
    of the exporting site process: a restarted site starts a fresh
    incarnation (and fresh counters), so its sequence 1 can never be
    confused with — or dropped as a duplicate of — a previous life's.

    A **batch** export (:func:`coalesce_exports`) covers the contiguous
    sequence range ``first_sequence..sequence``; by linearity its
    payloads are the entrywise sums of the covered exports' deltas, so
    applying the batch is equivalent to applying each export in turn.
    ``first_sequence`` of 0 means the export covers just ``sequence``
    (the common, unbatched case).

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
    payloads: Mapping[str, DeltaPayload] = field(default_factory=dict)
    incarnation: str = ""
    first_sequence: int = 0
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
        """Total wire bytes of this export's blobs (0 before encoding)."""
        return sum(
            len(payload.blob)
            for payload in self.payloads.values()
            if payload.blob is not None
        )


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

    The inputs must come from one site and incarnation, form a
    contiguous ascending sequence run — exactly the shape of a
    :meth:`StreamSite.exports_after` tail — and agree on ``window_at``.
    The last condition is what keeps batching sound under windowing:
    exports cut at different watermarks belong in different ring buckets
    at the coordinator, so summing them would smear traffic across
    buckets; group a retained tail into equal-``window_at`` runs before
    coalescing (:mod:`repro.streams.net` does).

    A stream that only one input carries keeps that input's payload,
    wire blob and all; the others are summed as cells
    (:func:`~repro.core.family.sum_cells`) and encoded once, when the
    batch ships.  Received payloads are decoded (and validated) first.
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
    if len(exports) == 1:
        return head
    parts: dict[str, list[DeltaPayload]] = {}
    for export in exports:
        for stream, payload in export.payloads.items():
            parts.setdefault(stream, []).append(payload)
    num_cells = spec.counter_cells
    payloads = {}
    for stream, stream_parts in parts.items():
        if len(stream_parts) == 1:
            payloads[stream] = stream_parts[0]
            continue
        indices, values = sum_cells(
            [payload.cells(num_cells) for payload in stream_parts]
        )
        if indices.size:
            payloads[stream] = DeltaPayload.from_cells(indices, values, num_cells)
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
    parent — the uplink of a federation tree).  A stream engine's
    exports diff its families against per-stream baselines of the
    previous export; a coordinator's exports are the per-stream sums of
    the deltas it folded since the previous export
    (:meth:`Coordinator.take_pending`).  Either way consecutive exports
    never overlap and sum to the full state.
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
        if isinstance(self._engine, Coordinator):
            self._engine.record_pending()
        self._sequence = 0
        # Counter snapshots as of the last export, per stream, for a
        # stream-engine backing; the next export diffs against these.
        self._shipped: dict[str, SketchFamily] = {}
        # sequence -> export, kept until acknowledged (fail-over replay).
        self._retained: dict[int, DeltaExport] = {}
        # Whether anything was observed since the last export, and the
        # latest instant of the window bucket observations go into.
        self._unexported = False
        self._bucket_end = float("-inf")

    # -- observing ---------------------------------------------------------

    def observe(self, update: Update, at: float | None = None) -> None:
        """Observe one local update tuple.

        ``at`` (windowed backing engines only) is the update's
        timestamp; it routes through
        :meth:`~repro.streams.engine.StreamEngine.observe` so the update
        lands in the local window ring.  An update that enters a new
        window bucket while observations are un-exported first cuts and
        retains an export of those, stamped with the old watermark: a
        windowed coordinator files each export in the one bucket of its
        stamp, so no export may span a bucket boundary.
        """
        if at is None:
            self._engine.process(update)
        else:
            if at > self._bucket_end:
                self._enter_bucket(at)
            self._engine.observe(update, at)
        self._unexported = True

    def observe_many(self, updates: Iterable[Update]) -> None:
        """Observe a sequence of local updates."""
        self._engine.process_many(updates)
        self._unexported = True

    def _enter_bucket(self, at: float) -> None:
        """Cut the un-exported observations if ``at`` opens a new bucket."""
        engine = self._engine
        if not engine.is_windowed:
            return  # engine.observe() refuses the timestamp
        width, clock = engine.bucket_width, engine.window_clock
        bucket = bucket_index(max(finite_time(at), clock), width)
        if self._unexported and clock > float("-inf"):
            if bucket > bucket_index(clock, width):
                self.export()
        self._bucket_end = bucket_end(bucket, width)

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
            window_at = finite_time(window_at)
        elif self._engine.is_windowed:
            clock = self._engine.window_clock
            if clock != float("-inf"):
                window_at = clock
        if isinstance(self._engine, Coordinator):
            payloads = self._engine.take_pending()
        else:
            num_cells = self.spec.counter_cells
            payloads = {
                name: DeltaPayload.from_cells(*cells, num_cells)
                for name, cells in self._engine.diff_advance(self._shipped).items()
            }
        self._unexported = False
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
        to :meth:`from_state`.
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
        engine: "Coordinator",
        payloads: Mapping[int, Mapping[str, DeltaPayload]] | None = None,
    ) -> "StreamSite":
        """Rebuild an uplink site from :meth:`to_state` output (checkpoint
        restore).

        The restored site keeps its previous **incarnation** — that is
        the point: a coordinator's uplink restored from a checkpoint must
        continue the very numbering its parent already tracks, so the
        parent sees neither a gap nor a duplicate-shadowing fresh life.

        ``engine`` is the restored :class:`Coordinator` the uplink
        re-exports, and ``payloads`` maps each retained export's sequence
        to its per-stream payloads, exactly the streams :meth:`to_state`
        listed.  The coordinator starts with nothing pending: that is
        exact when the state was captured right after an export and the
        coordinator restored from the same instant — the network
        coordinator's invariant, since it cuts an uplink export at the
        start of every checkpoint.
        """
        site = cls(
            str(state["site_id"]),
            spec,
            incarnation=str(state["incarnation"]),
            engine=engine,
        )
        engine.take_pending()  # everything folded so far was cut
        site._sequence = int(state["sequence"])
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

    Every coordinator folds into one :class:`StreamEngine`: ``engine``
    when given — e.g. a windowed one, so a coordinator of a federation
    tree buckets incoming network deltas by time and answers windowed
    queries — and a plain ``StreamEngine(spec)`` otherwise.  Synopses
    from many sites merge by addition, so each delta payload folds as
    its non-zero cells through :meth:`StreamEngine.merge_cells`, and
    every query, snapshot position and checkpoint is the engine's.  The
    coordinator adds the per-site sequence and incarnation bookkeeping
    that makes collection idempotent and gap-checked.
    """

    def __init__(
        self, spec: SketchSpec, *, engine: StreamEngine | None = None
    ) -> None:
        if engine is not None and engine.spec != spec:
            raise IncompatibleSketchesError(
                "the fold engine does not follow the coordinator's SketchSpec"
            )
        self.spec = spec
        self._engine = engine if engine is not None else StreamEngine(spec)
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
        # stream -> the sum of the deltas folded since the last uplink
        # cut; None unless an uplink StreamSite re-exports this
        # coordinator (record_pending), so a tree's root keeps nothing.
        self._pending: dict[str, DeltaPayload] | None = None

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
        stream.  Received payloads are decoded to cells here, at fold
        time, and scatter straight into the fold engine's synopses
        (:meth:`StreamEngine.merge_cells`) without materialising a dense
        slab.  Decoding is all-or-nothing: every payload is decoded and
        validated, and ``window_at`` checked, before any synopsis is
        touched, so a malformed blob
        (:class:`~repro.streams.net.codec.CodecError`), a cell outside
        the counter slab
        (:class:`~repro.errors.IncompatibleSketchesError`) or a
        non-finite stamp (:class:`ValueError`) leaves the coordinator
        exactly as it was — the site can re-ship the same export without any stream
        being folded twice.

        A coordinator that backs an uplink (:meth:`record_pending`) also
        adds each applied payload to its pending cut.
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
        # Decode every payload, and check the stamp, before touching any
        # synopsis.  Fold-time decode failure is an expected path under
        # wire-format v2 (the server answers with an error and the site
        # re-ships the same export after re-syncing); folding stream by
        # stream would leave a failed export half-applied with
        # applied_sequence unadvanced, and the re-shipped copy would
        # then double-count the streams folded before the failure.
        at = export.window_at
        if at is not None:
            at = finite_time(at)
        num_cells = self.spec.counter_cells
        decoded = [
            (stream, payload, payload.cells(num_cells))
            for stream, payload in export.payloads.items()
        ]
        for _, _, (indices, _) in decoded:
            check_cells(indices, num_cells)
        for stream, payload, (indices, values) in decoded:
            self._engine.merge_cells(stream, indices, values, at=at)
            if self._pending is not None:
                self._add_pending(stream, payload, indices, values)
        site_history = self._applied.setdefault(export.site_id, {})
        site_history[export.incarnation] = export.sequence
        self._current[export.site_id] = export.incarnation
        # A batch counts as every export it covers: the logical tally
        # stays comparable whether or not the uplink coalesced.
        self._collects_applied += export.sequence - first + 1
        return True

    def _add_pending(
        self,
        stream: str,
        payload: DeltaPayload,
        indices: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Add one applied payload to the pending cut.

        The first delta of a stream since the cut is kept as it came,
        blob included, so a lone delta is forwarded byte for byte.  A
        dense-based blob is dropped (the cut re-encodes the cells, which
        is never larger), and every further delta is summed in as cells.
        """
        if not indices.size:
            return
        num_cells = self.spec.counter_cells
        held = self._pending.get(stream)
        if held is None:
            if payload.encoding is not None and payload.encoding.startswith(
                "dense"
            ):
                payload = DeltaPayload.from_cells(indices, values, num_cells)
            self._pending[stream] = payload
            return
        summed = sum_cells([held.cells(num_cells), (indices, values)])
        if summed[0].size:
            self._pending[stream] = DeltaPayload.from_cells(*summed, num_cells)
        else:
            del self._pending[stream]

    def record_pending(self) -> None:
        """Keep the deltas folded from now on for :meth:`take_pending`.

        Called by the uplink :class:`StreamSite` a coordinator backs;
        only such a coordinator keeps them, so a tree's root holds no
        pending deltas however much traffic it folds.  Whatever the
        coordinator already holds counts as pending, so the uplink's
        first cut ships the whole state.
        """
        if self._pending is not None:
            return
        num_cells = self.spec.counter_cells
        self._pending = {}
        for name, family in self.families().items():
            indices, values = family.nonzero_cells()
            if indices.size:
                self._pending[name] = DeltaPayload.from_cells(
                    indices, values, num_cells
                )

    def take_pending(self) -> dict[str, DeltaPayload]:
        """The per-stream sum of the deltas folded since the last take.

        The uplink cut of a mid-tree coordinator: by linearity the sum
        is exactly what the merged synopses moved by, so a parent that
        folds every cut holds this coordinator's state.  A stream that
        one delta touched comes back as that delta's payload, in the
        blob it arrived in.  Empty when :meth:`record_pending` was never
        called.
        """
        if self._pending is None:
            return {}
        pending, self._pending = self._pending, {}
        return pending

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
        self._engine.adopt_family(stream, family)

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
    def fold_engine(self) -> StreamEngine:
        """The engine every delta folds into and every query reads."""
        return self._engine

    @property
    def is_windowed(self) -> bool:
        """Whether the fold engine buckets incoming deltas by time.

        Exposing it here lets an uplink :class:`StreamSite` backed by
        this coordinator stamp its re-exports with the aggregated
        watermark automatically — a mid-tree node forwards windowed
        state upward exactly like a leaf.
        """
        return self._engine.is_windowed

    @property
    def window_clock(self) -> float:
        """The fold engine's window watermark (``-inf`` when unwindowed)."""
        return self._engine.window_clock

    def families(self) -> dict[str, SketchFamily]:
        """``stream -> merged synopsis`` (live objects, not copies)."""
        return self._engine.families()

    def stream_names(self) -> list[str]:
        """Streams with a merged synopsis at the coordinator."""
        return self._engine.stream_names()

    def _require_streams(self, names: Iterable[str]) -> None:
        missing = sorted(set(names) - set(self.stream_names()))
        if missing:
            known = ", ".join(self.stream_names()) or "<none>"
            raise UnknownStreamError(
                f"no synopsis collected for stream(s) "
                f"{', '.join(repr(name) for name in missing)}; "
                f"known streams: {known}"
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
        engine (:class:`ValueError` otherwise), which buckets incoming
        deltas by their exports' ``window_at`` stamps
        (:class:`DeltaExport`).
        """
        if isinstance(expression, str):
            expression = parse(expression)
        self._require_streams(expression.streams())
        return self._engine.query(expression, epsilon, window=window)

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
        names = list(stream_names)
        self._require_streams(names)
        return self._engine.query_union(names, epsilon, window=window)

    def query_many(
        self,
        expressions: Sequence[SetExpression | str],
        epsilon: float = 0.1,
        window: float | None = None,
    ) -> list[WitnessEstimate]:
        """Estimate many expressions in one pass over the merged synopses.

        Delegates to the fold engine's batched
        :meth:`StreamEngine.query_many` (expressions over the same
        stream set share one union estimate and one mask pass); each
        answer is bit-identical to querying alone, and unknown streams
        raise :class:`~repro.errors.UnknownStreamError` before anything
        is evaluated.
        """
        parsed = [
            parse(expression) if isinstance(expression, str) else expression
            for expression in expressions
        ]
        names: set[str] = set()
        for expression in parsed:
            names.update(expression.streams())
        self._require_streams(names)
        return self._engine.query_many(parsed, epsilon, window=window)

    @property
    def snapshot_position(self) -> tuple[int, int]:
        """The fold engine's ``(updates_processed, mutation_epoch)``
        snapshot token: every fold advances it, so two queries answered
        at the same position saw the same merged synopses."""
        return self._engine.snapshot_position
