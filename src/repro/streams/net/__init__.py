"""Asyncio network transport for the distributed delta protocol.

The distributed stored-coins model (:mod:`repro.streams.distributed`)
moved sites onto delta exports — counter diffs since the last export,
tagged with a site id and a monotone sequence.  This package puts those
exports on the wire:

* :mod:`~repro.streams.net.protocol` — length-framed messages (a JSON
  header plus raw counter blobs) and the asyncio read/write helpers;
* :mod:`~repro.streams.net.codec` — wire-format v2: the sparse
  varint-delta payload codec with optional zlib, picked per blob by
  measured size and negotiated per session in the hello/welcome
  handshake (v1 peers transparently stay dense);
* :mod:`~repro.streams.net.coordinator` —
  :class:`~repro.streams.net.coordinator.CoordinatorServer`, an asyncio
  TCP server that folds incoming deltas, as sparse cells, into a live
  :class:`~repro.streams.distributed.Coordinator`'s
  :class:`~repro.streams.engine.StreamEngine` by sketch linearity,
  periodically checkpoints (counters plus the per-site sequence map)
  through :mod:`repro.streams.checkpoint`, and re-syncs reconnecting
  sites from their last applied sequence;
* :mod:`~repro.streams.net.site` —
  :class:`~repro.streams.net.site.SiteClient`, the shipping side:
  connect/send timeouts, bounded exponential backoff with jitter,
  reconnection, and retained-export replay.

Because exports are idempotent (sequence-tagged deltas), every failure
mode — duplicate delivery, dropped connection mid-frame, coordinator
restart from a checkpoint — converges to the same merged synopses an
unfailed run produces, bit for bit.  This container's single core means
the design goal is *concurrency* (many sites overlapping I/O on one
event loop), not parallel speedup.

Coordinators compose into **federation trees**: a
:class:`~repro.streams.net.coordinator.CoordinatorServer` folds into a
plain or windowed :class:`~repro.streams.engine.StreamEngine`
(``engine_factory=`` picks the window configuration) and re-exports its
aggregated deltas to a parent coordinator through an uplink :class:`~repro.streams.net.site.SiteClient` (``parent_port=``) —
the same sequence/retention/re-sync machinery at every hop, so the
whole tree inherits the per-hop exactly-once-in-effect guarantees.
"""

from repro.streams.net.codec import (
    DENSE_ONLY,
    PREFERRED_ENCODINGS,
    WIRE_ENCODINGS,
    CodecError,
)
from repro.streams.net.coordinator import CoordinatorServer
from repro.streams.net.protocol import (
    PROTOCOL_VERSION,
    ROLES,
    SUPPORTED_VERSIONS,
    ProtocolError,
)
from repro.streams.net.site import SiteClient, SiteConnectionError

__all__ = [
    "CoordinatorServer",
    "SiteClient",
    "SiteConnectionError",
    "ProtocolError",
    "CodecError",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "ROLES",
    "WIRE_ENCODINGS",
    "PREFERRED_ENCODINGS",
    "DENSE_ONLY",
]
