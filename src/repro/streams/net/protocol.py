"""Length-framed wire protocol for shipping delta exports over TCP.

Every message travels as one frame::

    u32 frame_length | frame

    frame := u32 header_length | header (UTF-8 JSON) | blob*

The header is a small JSON object with a ``type`` field; binary counter
payloads ride as raw blobs after the header, their lengths listed in the
header's ``blobs`` array (in order).  Keeping counters out of the JSON
avoids base64 inflation, and :func:`decode_message` hands blobs back as
zero-copy :class:`memoryview` slices over the one received frame buffer
— a multi-MiB counter slab is never copied just to be parsed.

Message types
-------------

``hello``   (site → coordinator): ``site_id``, ``incarnation``,
            ``version``, a ``role`` — ``"site"`` for a leaf observer,
            ``"uplink"`` for a child coordinator re-exporting
            aggregated deltas up a federation tree — and, from v2
            peers, ``encodings`` (payload encodings the site can
            produce, preference first) plus ``features`` (``"batch"``:
            the site may coalesce several retained exports into one
            frame).  First frame on every connection.
``welcome`` (coordinator → site): ``sequence`` (last applied for the
            site), ``durable`` (last checkpoint-covered), and — only
            answering a hello that advertised them — the negotiated
            ``encodings`` (the coordinator's pick, see
            :func:`~repro.streams.net.codec.negotiate_encodings`) and
            ``features``.  The site prunes retained exports ≤
            ``durable`` and re-ships every retained export >
            ``sequence`` — the re-sync that makes coordinator fail-over
            transparent.
``delta``   (site → coordinator): ``site_id``, ``sequence``,
            ``streams`` (names, in blob order); blobs are the delta
            counter payloads.  V2 extensions, both optional: a
            per-blob ``encodings`` list (aligned with ``streams``;
            absent = all dense, the v1 payload), ``first_sequence``
            marking a *batched* frame whose payloads are the linearity
            sum of exports ``first_sequence..sequence`` (absent =
            ``sequence``, an unbatched frame), and ``window_at`` — the
            window watermark the export was cut at, so a windowed
            coordinator buckets the deltas by time (absent = all-time
            fold only).
``ack``     (coordinator → site): ``sequence`` (the site's last applied
            sequence *after* handling the frame), ``durable``.  An ack
            whose ``sequence`` is below the just-shipped export signals
            a gap (or, for a batch, an overlap); the site rewinds and
            re-ships from ``sequence``.
``error``   (either direction): ``message``; the connection closes.

Query-session messages (client → query server on the coordinator's
``query_port``; the handshake is the same hello/welcome, with
``role: "query"``):

``query``        ``id`` (client-chosen request id echoed in the
                 answer), ``tenant``, exactly one of ``expressions``
                 (set-expression texts) or ``streams`` (a plain union),
                 ``epsilon``, optional ``window``.
``query_result`` ``id``, ``kind`` (``"expression"``/``"union"``),
                 ``results`` (one estimate object per input), and
                 ``position`` — the engine's
                 ``(updates_processed, mutation_epoch)`` snapshot token
                 the whole batch was answered at.
``query_error``  ``id`` (``-1`` when the request id could not be
                 parsed), ``error`` (a machine-readable kind, e.g.
                 ``"unknown-stream"``/``"rate-limited"``), ``message``,
                 plus kind-specific payload fields (``unknown``/
                 ``known`` name lists, ``retry_after``).  Unlike the
                 ingest ``error`` frame this does **not** close the
                 connection — framing is length-prefixed, so a bad
                 request never corrupts the stream.

All integers are big-endian.  Frames above ``max_bytes`` (default
64 MiB) are rejected before allocation — a garbage length prefix cannot
make either endpoint swallow gigabytes.

Version 2 changes only *header fields* — the frame layout is untouched
and every new field is optional, so v1 peers interoperate without a
flag day in either rollout order: a hello without ``encodings`` gets a
v1 welcome and ships dense, unbatched frames, the coordinator accepts
any version in :data:`SUPPORTED_VERSIONS`, and a v2 site that offers
no v2 capability announces ``version: 1`` outright — acceptable to a
genuine v1 coordinator build, which knows no other version.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ReproError
from repro.streams.distributed import DeltaExport, DeltaPayload
from repro.streams.net import codec

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "MAX_FRAME_BYTES",
    "ROLES",
    "FEATURES",
    "ProtocolError",
    "encode_message",
    "decode_message",
    "read_message",
    "write_message",
    "hello_message",
    "welcome_message",
    "delta_message",
    "ack_message",
    "error_message",
    "export_from_message",
    "MAX_QUERY_ITEMS",
    "QueryRequest",
    "query_message",
    "query_result_message",
    "query_error_message",
    "query_from_message",
]

PROTOCOL_VERSION = 2

#: Hello versions this endpoint accepts.  V2 is a pure field-level
#: extension of v1, so both speak the same frames.
SUPPORTED_VERSIONS = (1, 2)

#: Optional capabilities negotiated in the hello/welcome handshake.
#: ``"batch"``: the site may coalesce several consecutive retained
#: exports into one delta frame (summed by linearity, ``first_sequence``
#: set); the coordinator acks the batch's max sequence.
FEATURES = ("batch",)

#: Default refusal threshold for a single frame.  Far above any sane
#: delta (a 512-sketch, 16-column synopsis is ~4 MiB per stream) but
#: small enough that a corrupt length prefix fails fast.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(ReproError, ValueError):
    """A frame or message violated the wire protocol."""


# -- message encoding ---------------------------------------------------------


def encode_message(header: dict, blobs: Sequence[bytes] = ()) -> bytes:
    """Serialise ``header`` plus binary ``blobs`` into one frame payload."""
    head = dict(header)
    head["blobs"] = [len(blob) for blob in blobs]
    header_bytes = json.dumps(head, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [_LENGTH.pack(len(header_bytes)), header_bytes, *blobs]
    )


def decode_message(payload: bytes) -> tuple[dict, list[memoryview]]:
    """Inverse of :func:`encode_message`; validates structure strictly.

    Blobs come back as **zero-copy** :class:`memoryview` slices over the
    one frame buffer — at the default shape a delta frame carries
    multi-MiB counter slabs, and slicing them out as ``bytes`` used to
    double the peak allocation per frame.  Memoryviews compare equal to
    bytes and feed ``np.frombuffer``/``zlib`` directly; call ``bytes()``
    only where a blob must outlive the frame, as
    :func:`export_from_message` does.
    """
    if len(payload) < _LENGTH.size:
        raise ProtocolError("frame too short for a header length")
    (header_length,) = _LENGTH.unpack_from(payload)
    offset = _LENGTH.size
    if offset + header_length > len(payload):
        raise ProtocolError("frame shorter than its declared header")
    view = memoryview(payload)
    try:
        header = json.loads(bytes(view[offset : offset + header_length]))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparseable message header: {exc}") from exc
    if not isinstance(header, dict) or "type" not in header:
        raise ProtocolError("message header must be an object with 'type'")
    offset += header_length
    blobs: list[memoryview] = []
    for length in header.pop("blobs", []):
        if not isinstance(length, int) or length < 0:
            raise ProtocolError("blob lengths must be non-negative integers")
        if offset + length > len(payload):
            raise ProtocolError("frame shorter than its declared blobs")
        blobs.append(view[offset : offset + length])
        offset += length
    if offset != len(payload):
        raise ProtocolError("frame has trailing bytes beyond declared blobs")
    return header, blobs


# -- asyncio framing ----------------------------------------------------------


async def write_message(
    writer: asyncio.StreamWriter, header: dict, blobs: Sequence[bytes] = ()
) -> int:
    """Frame and send one message; returns the bytes written."""
    payload = encode_message(header, blobs)
    writer.write(_LENGTH.pack(len(payload)) + payload)
    await writer.drain()
    return _LENGTH.size + len(payload)


async def read_message(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> tuple[dict, list[bytes], int]:
    """Read one framed message; returns ``(header, blobs, bytes_read)``.

    Raises :class:`asyncio.IncompleteReadError` when the peer closes
    mid-frame (the caller treats that as a dropped connection, never as
    a partially applied message) and :class:`ProtocolError` on malformed
    or oversized frames.
    """
    prefix = await reader.readexactly(_LENGTH.size)
    (length,) = _LENGTH.unpack(prefix)
    if length > max_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    payload = await reader.readexactly(length)
    header, blobs = decode_message(payload)
    return header, blobs, _LENGTH.size + length


# -- message constructors -----------------------------------------------------


#: Valid values for the hello ``role`` field.  ``"site"`` is a leaf
#: observer; ``"uplink"`` is a child *coordinator* re-exporting its
#: aggregated deltas up a federation tree; ``"query"`` opens a
#: query session against the serving front end
#: (:mod:`repro.streams.serving`) — the ingest port refuses it with a
#: pointer at the query port, so a misconfigured client fails loudly
#: instead of shipping garbage deltas.  For the ingest roles the fold
#: path is identical (deltas are deltas); the role only feeds transport
#: stats and diagnostics, so version 1 peers that omit it stay
#: compatible.
ROLES = ("site", "uplink", "query")


def hello_message(
    site_id: str,
    incarnation: str,
    role: str = "site",
    *,
    encodings: Sequence[str] = (),
    features: Sequence[str] = (),
) -> dict:
    """The session-opening frame.

    ``encodings``/``features`` advertise v2 capabilities; leaving both
    empty produces a hello that is field-for-field what a v1 peer sends
    — version number included — and the coordinator answers it with a
    v1 welcome: dense, unbatched frames both directions.  Announcing
    version 1 in that case is what keeps the rollout order free: a site
    configured with ``encodings=()`` can talk to a genuine v1
    coordinator build, which accepts only ``version == 1``.
    """
    if role not in ROLES:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")
    header = {
        "type": "hello",
        "site_id": site_id,
        "incarnation": incarnation,
        "role": role,
        "version": PROTOCOL_VERSION if (encodings or features) else 1,
    }
    if encodings:
        header["encodings"] = list(encodings)
    if features:
        unknown = [f for f in features if f not in FEATURES]
        if unknown:
            raise ValueError(f"unknown features {unknown} (have {FEATURES})")
        header["features"] = list(features)
    return header


def welcome_message(
    sequence: int,
    durable: int,
    *,
    encodings: Sequence[str] | None = None,
    features: Sequence[str] | None = None,
) -> dict:
    """The coordinator's handshake answer.

    ``encodings`` is the coordinator's pick — the subset of the hello's
    advertisement the site may use, preference first; ``None`` (for a
    v1 hello) omits the field entirely so old peers see exactly the
    welcome they always did.
    """
    header = {"type": "welcome", "sequence": sequence, "durable": durable}
    if encodings is not None:
        header["encodings"] = list(encodings)
    if features is not None:
        header["features"] = list(features)
    return header


def delta_message(
    export: DeltaExport,
    allowed_encodings: Sequence[str] = codec.DENSE_ONLY,
    *,
    compress_level: int = 6,
) -> tuple[dict, list[bytes]]:
    """Header and blobs for one delta export (blobs in ``streams`` order).

    Each payload ships its kept blob when the session allows that blob's
    encoding — a forwarded child delta goes out byte for byte, a
    retransmit is never re-encoded — and is otherwise encoded once
    through :func:`~repro.streams.net.codec.encode_delta`, choosing the
    smallest allowed encoding, and kept
    (:meth:`~repro.streams.distributed.DeltaPayload.wire`).  The per-blob
    choices ride in the header's ``encodings`` list.  With the default
    dense-only allowance the header is field-for-field the v1 message.
    A batched export (``first_sequence < sequence``) adds
    ``first_sequence``.
    """
    streams = sorted(export.payloads)
    header = {
        "type": "delta",
        "site_id": export.site_id,
        "incarnation": export.incarnation,
        "sequence": export.sequence,
        "streams": streams,
    }
    if export.first_sequence and export.first_sequence != export.sequence:
        header["first_sequence"] = export.first_sequence
    if export.window_at is not None:
        header["window_at"] = export.window_at
    blobs = []
    encodings = []
    for name in streams:
        encoding, blob = export.payloads[name].wire(
            allowed_encodings, compress_level=compress_level
        )
        encodings.append(encoding)
        blobs.append(blob)
    if any(encoding != "dense" for encoding in encodings):
        header["encodings"] = encodings
    return header, blobs


def ack_message(sequence: int, durable: int) -> dict:
    return {"type": "ack", "sequence": sequence, "durable": durable}


def error_message(message: str) -> dict:
    return {"type": "error", "message": message}


def export_from_message(header: dict, blobs: Sequence[bytes]) -> DeltaExport:
    """Rebuild a :class:`DeltaExport` from a decoded ``delta`` message.

    Each payload keeps its blob as received, with its wire encoding,
    copied out of the frame buffer so that a payload a coordinator holds
    for its uplink cut does not pin the whole frame.  Decoding to cells
    happens at fold time in
    :meth:`~repro.streams.distributed.Coordinator.collect`.
    """
    if header.get("type") != "delta":
        raise ProtocolError(f"expected a delta message, got {header.get('type')!r}")
    streams = header.get("streams")
    site_id = header.get("site_id")
    sequence = header.get("sequence")
    incarnation = header.get("incarnation")
    if not isinstance(site_id, str) or not isinstance(sequence, int):
        raise ProtocolError("delta message needs a site_id and an int sequence")
    if not isinstance(incarnation, str) or not incarnation:
        raise ProtocolError("delta message needs a non-empty incarnation")
    if sequence < 1:
        raise ProtocolError("delta sequence numbers start at 1")
    if not isinstance(streams, list) or len(streams) != len(blobs):
        raise ProtocolError("delta stream names must align with payload blobs")
    if len(set(streams)) != len(streams):
        raise ProtocolError("delta stream names must be unique")
    first_sequence = header.get("first_sequence", sequence)
    if not isinstance(first_sequence, int) or not (
        1 <= first_sequence <= sequence
    ):
        raise ProtocolError(
            "first_sequence must be an int in [1, sequence] when present"
        )
    window_at = header.get("window_at", None)
    if window_at is not None:
        if isinstance(window_at, bool) or not isinstance(
            window_at, (int, float)
        ):
            raise ProtocolError("window_at must be a number when present")
        window_at = float(window_at)
        if not math.isfinite(window_at):  # JSON admits NaN and Infinity
            raise ProtocolError(f"window_at must be finite, got {window_at}")
    wire_encodings = header.get("encodings", None)
    if wire_encodings is None:
        wire_encodings = ["dense"] * len(streams)
    elif (
        not isinstance(wire_encodings, list)
        or len(wire_encodings) != len(streams)
        or any(e not in codec.WIRE_ENCODINGS for e in wire_encodings)
    ):
        raise ProtocolError(
            "delta encodings must name a known encoding per stream"
        )
    return DeltaExport(
        site_id=site_id,
        sequence=sequence,
        payloads={
            name: DeltaPayload.from_wire(encoding, bytes(blob))
            for name, encoding, blob in zip(streams, wire_encodings, blobs)
        },
        incarnation=incarnation,
        first_sequence=first_sequence,
        window_at=window_at,
    )


# -- query messages -----------------------------------------------------------


#: Most expressions (or union stream names) one query frame may carry.
#: Queries are evaluated synchronously on the server's event loop, so an
#: unbounded batch would let a single frame stall every other session.
MAX_QUERY_ITEMS = 64


@dataclass(frozen=True)
class QueryRequest:
    """One validated ``query`` message.

    ``kind`` is ``"expression"`` (``items`` are set-expression texts)
    or ``"union"`` (``items`` are stream names for a plain distinct-
    union estimate).  ``window`` is ``None`` for an all-time query.
    """

    id: int
    tenant: str
    kind: str
    items: tuple[str, ...]
    epsilon: float
    window: float | None = None


def query_message(
    request_id: int,
    tenant: str,
    *,
    expressions: Sequence[str] | None = None,
    streams: Sequence[str] | None = None,
    epsilon: float = 0.1,
    window: float | None = None,
) -> dict:
    """A query frame: exactly one of ``expressions`` or ``streams``."""
    if (expressions is None) == (streams is None):
        raise ValueError("pass exactly one of expressions= or streams=")
    header = {
        "type": "query",
        "id": int(request_id),
        "tenant": tenant,
        "epsilon": float(epsilon),
    }
    if expressions is not None:
        header["expressions"] = list(expressions)
    else:
        header["streams"] = list(streams)
    if window is not None:
        header["window"] = float(window)
    return header


def query_result_message(
    request_id: int,
    kind: str,
    results: Sequence[dict],
    position: Sequence[int],
) -> dict:
    """The answer to one query frame; ``results`` align with its items.

    ``position`` is the serving target's snapshot token — every result
    in the frame (and every other frame answered in the same drain) was
    computed against exactly this engine state.
    """
    return {
        "type": "query_result",
        "id": int(request_id),
        "kind": kind,
        "results": list(results),
        "position": list(position),
    }


def query_error_message(
    request_id: int,
    kind: str,
    message: str,
    *,
    details: dict | None = None,
) -> dict:
    """A typed per-request failure; the connection stays open.

    ``kind`` is machine-readable (see
    :data:`repro.streams.serving.QUERY_ERROR_KINDS`); ``details``
    carries kind-specific payload fields such as the ``unknown``/
    ``known`` name lists of an unknown-stream error or the
    ``retry_after`` hint of a rate limit.
    """
    header = {
        "type": "query_error",
        "id": int(request_id),
        "error": kind,
        "message": message,
    }
    for key, value in (details or {}).items():
        if key in header:
            raise ValueError(f"details must not override the {key!r} field")
        header[key] = value
    return header


def _query_number(header: dict, field: str) -> float | None:
    value = header.get(field, None)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"query {field} must be a number when present")
    value = float(value)
    if value != value:  # NaN (JSON parsers that admit NaN literals)
        raise ProtocolError(f"query {field} must not be NaN")
    return value


def query_from_message(header: dict) -> QueryRequest:
    """Validate a decoded ``query`` header strictly.

    Structural violations raise :class:`ProtocolError` (the frame is
    malformed); *semantic* problems — unknown tenant or stream names,
    out-of-range epsilon, rate limits — are the serving layer's job and
    come back as typed ``query_error`` frames instead.
    """
    if header.get("type") != "query":
        raise ProtocolError(
            f"expected a query message, got {header.get('type')!r}"
        )
    request_id = header.get("id")
    if isinstance(request_id, bool) or not isinstance(request_id, int):
        raise ProtocolError("query id must be an integer")
    if request_id < 0:
        raise ProtocolError("query id must be non-negative")
    tenant = header.get("tenant")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("query tenant must be a non-empty string")
    expressions = header.get("expressions", None)
    streams = header.get("streams", None)
    if (expressions is None) == (streams is None):
        raise ProtocolError(
            "query must carry exactly one of 'expressions' or 'streams'"
        )
    kind = "expression" if expressions is not None else "union"
    items = expressions if expressions is not None else streams
    if not isinstance(items, list) or not items:
        raise ProtocolError("query items must be a non-empty list")
    if len(items) > MAX_QUERY_ITEMS:
        raise ProtocolError(
            f"query carries {len(items)} items; at most "
            f"{MAX_QUERY_ITEMS} per frame"
        )
    if any(not isinstance(item, str) or not item for item in items):
        raise ProtocolError("query items must be non-empty strings")
    epsilon = _query_number(header, "epsilon")
    if epsilon is None:
        raise ProtocolError("query must carry an epsilon")
    window = _query_number(header, "window")
    return QueryRequest(
        id=request_id,
        tenant=tenant,
        kind=kind,
        items=tuple(items),
        epsilon=epsilon,
        window=window,
    )
