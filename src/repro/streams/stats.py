"""Plain-data introspection snapshots of the stream-processing layers.

:class:`QueryStats` counts the engine's query-cache outcomes,
:class:`WindowStats` its window-ring rotations and expiries, and
:class:`TransportStats` one peer's delta-shipping traffic.  Each is a
cheap snapshot, safe to read while ingestion continues.
:class:`~repro.core.plan.HashPlanStats` (re-exported here) reports the
shared hash plan's batch counts and hash-vs-scatter time breakdown via
:meth:`repro.streams.engine.StreamEngine.plan_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.plan import HashPlanStats

__all__ = [
    "HashPlanStats",
    "QueryStats",
    "WindowStats",
    "TransportStats",
    "rollup_transport_stats",
]


@dataclass
class QueryStats:
    """Query-path counters of a :class:`~repro.streams.engine.StreamEngine`.

    Answered expression queries split three ways:

    * ``cache_hits`` — served from the semantic cache with no updates
      processed since the entry was stored;
    * ``revalidations`` — updates *were* processed, but every sketch level
      the entry's estimate consulted was still clean in every
      participating family, so the stored (bit-identical) result was
      served after an O(streams) version check;
    * ``recomputes`` — a full estimator run.

    The ``union_*`` trio counts the same outcomes for union estimates
    (both ``query_union`` calls and the ``ε/3`` sub-estimates of
    expression queries).  ``batch_queries``/``batch_groups`` describe
    :meth:`~repro.streams.engine.StreamEngine.query_many`: how many
    queries went through the batch path and how many shared evaluation
    groups (one per distinct stream set) they collapsed into.

    Mutable by design — the engine counts in place and
    :meth:`~repro.streams.engine.StreamEngine.query_stats` hands out
    copies.
    """

    queries: int = 0
    cache_hits: int = 0
    revalidations: int = 0
    recomputes: int = 0
    union_queries: int = 0
    union_cache_hits: int = 0
    union_revalidations: int = 0
    union_recomputes: int = 0
    batch_queries: int = 0
    batch_groups: int = 0
    #: Expression/union queries answered over a sliding window
    #: (``query(..., window=...)``); included in the totals above.
    window_queries: int = 0

    @property
    def served_from_cache(self) -> int:
        """Expression queries answered without an estimator run."""
        return self.cache_hits + self.revalidations

    @property
    def hit_rate(self) -> float:
        """Fraction of expression queries answered from the cache."""
        if self.queries == 0:
            return 0.0
        return self.served_from_cache / self.queries


@dataclass
class WindowStats:
    """Window-ring counters of a windowed
    :class:`~repro.streams.engine.StreamEngine` (summed over its
    per-stream rings).

    ``empty_expiries`` counts expired buckets that were all-zero —
    those rotations leave the in-window totals' versions untouched, so
    cached windowed estimates revalidate in O(streams) instead of
    recomputing; the difference ``buckets_expired - empty_expiries`` is
    the number of expiries that actually changed a window.
    """

    #: Bucket-boundary crossings of the ring clocks.
    rotations: int = 0
    #: Buckets aged out of the rings (subtracted from window totals
    #: unless all-zero).
    buckets_expired: int = 0
    #: Expired buckets that were all-zero (no version bump anywhere).
    empty_expiries: int = 0
    #: Memoised sub-window sums rebuilt because their member buckets
    #: changed.
    subwindow_rebuilds: int = 0


@dataclass
class TransportStats:
    """Per-peer counters of the delta-shipping transport
    (:mod:`repro.streams.net`).

    One instance describes one site's traffic as seen from one endpoint:
    the :class:`~repro.streams.net.site.SiteClient` keeps a single
    instance for itself; the
    :class:`~repro.streams.net.coordinator.CoordinatorServer` keeps one
    per connected site id.  Counters that only one side can observe stay
    at zero on the other (e.g. ``retries`` is client-side,
    ``deltas_applied`` coordinator-side).

    Mutable by design — the transport counts in place and hands out
    copies via ``snapshot()``.
    """

    site_id: str = ""
    role: str = "site"
    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    deltas_shipped: int = 0
    deltas_applied: int = 0
    duplicates_dropped: int = 0
    resyncs: int = 0
    retries: int = 0
    reconnects: int = 0
    acks_received: int = 0
    checkpoints_written: int = 0
    # -- wire-format v2 counters --
    #: Exports that rode inside another export's frame instead of their
    #: own (uplink batching): each coalesced frame covering ``n``
    #: exports adds ``n - 1``.
    exports_coalesced: int = 0
    #: What the shipped delta frames' payloads would have cost as plain
    #: dense counter slabs (streams per frame × slab bytes — the v1
    #: wire format for the *same* frames).  Site and coordinator apply
    #: this one definition, so the derived ``compression_ratio`` agrees
    #: at both endpoints and isolates the codec's effect; frame-count
    #: savings from uplink batching show in ``exports_coalesced``.
    payload_bytes_dense: int = 0
    #: What the delta payloads actually cost under the negotiated
    #: encodings.  ``payload_bytes_dense - payload_bytes_wire`` is the
    #: codec's whole effect; framing/header bytes live in
    #: ``bytes_sent``/``bytes_received``.
    payload_bytes_wire: int = 0
    #: ``message type -> total frame bytes`` through this endpoint, both
    #: directions (hello, welcome, delta, ack, error).
    message_bytes: dict = field(default_factory=dict)

    def count_message(self, message_type: str, nbytes: int) -> None:
        """Attribute one frame's bytes to its message type."""
        self.message_bytes[message_type] = (
            self.message_bytes.get(message_type, 0) + nbytes
        )

    @property
    def payload_bytes_saved(self) -> int:
        """Payload bytes the v2 codec kept off the wire (vs. dense)."""
        return self.payload_bytes_dense - self.payload_bytes_wire

    @property
    def compression_ratio(self) -> float:
        """``payload_bytes_dense / payload_bytes_wire`` (1.0 before any)."""
        if self.payload_bytes_wire == 0:
            return 1.0
        return self.payload_bytes_dense / self.payload_bytes_wire

    def snapshot(self) -> "TransportStats":
        """A point-in-time copy (the original keeps counting)."""
        return replace(self, message_bytes=dict(self.message_bytes))

    def merged_with(self, other: "TransportStats") -> "TransportStats":
        """Counter-wise sum of two snapshots (per-hop roll-up step).

        ``site_id``/``role`` keep this instance's values when they
        agree with ``other``'s and turn into ``"*"`` when they differ —
        a summed row spanning several peers no longer describes one.
        """
        merged = {
            name: getattr(self, name) + getattr(other, name)
            for name in (
                "frames_sent", "frames_received", "bytes_sent",
                "bytes_received", "deltas_shipped", "deltas_applied",
                "duplicates_dropped", "resyncs", "retries", "reconnects",
                "acks_received", "checkpoints_written",
                "exports_coalesced", "payload_bytes_dense",
                "payload_bytes_wire",
            )
        }
        message_bytes = dict(self.message_bytes)
        for message_type, nbytes in other.message_bytes.items():
            message_bytes[message_type] = (
                message_bytes.get(message_type, 0) + nbytes
            )
        return TransportStats(
            site_id=self.site_id if self.site_id == other.site_id else "*",
            role=self.role if self.role == other.role else "*",
            message_bytes=message_bytes,
            **merged,
        )

    @property
    def delivery_ratio(self) -> float:
        """``deltas_applied / (deltas_applied + duplicates_dropped)``.

        1.0 means no redundant shipping reached this endpoint; lower
        values quantify retransmission overhead (never correctness —
        duplicates are dropped idempotently).
        """
        seen = self.deltas_applied + self.duplicates_dropped
        if seen == 0:
            return 1.0
        return self.deltas_applied / seen


def rollup_transport_stats(stats, site_id: str = "total") -> TransportStats:
    """Sum an iterable of :class:`TransportStats` into one roll-up row.

    A coordinator in a federation tree sees one stats instance per
    connected child plus one for its own uplink hop; this collapses them
    into a single per-hop total (e.g. for the ``repro serve`` shutdown
    summary).  An empty iterable yields an all-zero row.
    """
    total: TransportStats | None = None
    for entry in stats:
        total = entry.snapshot() if total is None else total.merged_with(entry)
    if total is None:
        return TransportStats(site_id=site_id, role="*")
    return replace(total, site_id=site_id)
