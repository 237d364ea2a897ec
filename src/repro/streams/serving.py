"""Multi-tenant query serving front end.

Everything below :mod:`repro.streams.net` feeds data *in* — sites ship
delta exports, coordinators fold them, trees re-export upward.  This
module is the path *out*: :class:`QueryServer` mounts an asyncio query
service on a :class:`~repro.streams.engine.StreamEngine` — or on a
:class:`~repro.streams.distributed.Coordinator`, whose answers come from
the engine it folds into — and answers set-expression cardinality
queries over the same length-framed protocol the ingest path speaks
(``role: "query"`` in the hello; see :mod:`repro.streams.net.protocol`),
so one port discipline, one framing codec, and one strict-decoding
posture cover both directions.

Three properties carry the design:

**Snapshot consistency without locks.**  The server runs on the same
event loop as ingest and evaluates queries *synchronously* — a drain
never awaits between reading the engine state and stamping the answers.
Every response carries the target's ``snapshot_position`` (the
``(updates_processed, mutation_epoch)`` pair that also keys the engine's
query cache, PR 9): all results in a drain were computed against exactly
that state, ingest was never paused, and a torn read — an answer
straddling a half-applied fold — is structurally impossible.

**Parse-once plans, batched evaluation.**  Expression texts are parsed
and compiled once into a :class:`ServingPlan` (LRU-cached in a
:class:`PlanCache`), shared across tenants; each tenant's stream
namespace is applied as a memoised prefix rewrite of the immutable AST.
Concurrent requests that land in the same drain window are folded into
one :meth:`~repro.streams.engine.StreamEngine.query_many` call per
``(epsilon, window)`` group, so equivalent expressions from different
clients share one union estimate and one mask pass — the PR-3 batching,
wired to the network.

**Tenant isolation.**  A :class:`TenantSpec` names a stream-namespace
prefix, a token-bucket rate limit, and gets its own
:class:`ServingStats` counters.  Tenants share compiled plans (parsing
is namespace-free) but never cache entries or visible streams: a
tenant's queries resolve only streams under its prefix, and
unknown-name errors list only *its* namespace.

Failures never drop the connection: every server-surfaced exception maps
to a typed ``query_error`` frame (:data:`QUERY_ERROR_KINDS`) carrying a
machine-readable kind plus payload fields — unknown-name lists, a
``retry_after`` hint — and the session continues.  Only an oversized
frame (the stream cannot be re-synchronised past unread bytes) or a
broken handshake closes the socket.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.core.results import UnionEstimate, WitnessEstimate
from repro.errors import (
    EstimationError,
    ExpressionError,
    RateLimitedError,
    ReproError,
    UnknownQueryError,
    UnknownStreamError,
    UnknownTenantError,
)
from repro.expr.ast import SetExpression, StreamRef
from repro.expr.compile import compile_expression
from repro.expr.parser import parse
from repro.streams.net import protocol

__all__ = [
    "DEFAULT_TENANT",
    "MAX_QUERY_FRAME_BYTES",
    "QUERY_ERROR_KINDS",
    "TenantSpec",
    "TokenBucket",
    "ServingPlan",
    "PlanCache",
    "ServingStats",
    "QueryServer",
    "QueryClient",
    "estimate_to_dict",
    "estimate_from_dict",
    "error_from_header",
]

#: Name of the implicit tenant a server constructed without ``tenants=``
#: gets: empty prefix (every stream visible), no rate limit.
DEFAULT_TENANT = "public"

#: Default per-frame cap for query sessions.  Query frames are a few KiB
#: of JSON — nothing like the multi-MiB counter slabs of the ingest path
#: — so the refusal threshold is far lower: a corrupt length prefix (or
#: a client speaking the wrong protocol) fails fast without the server
#: ever allocating ingest-sized buffers for it.
MAX_QUERY_FRAME_BYTES = 1024 * 1024


# -- tenants ------------------------------------------------------------------


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the serving front end.

    ``prefix`` maps the tenant's logical stream names onto the engine's
    physical namespace (logical ``"A"`` resolves to ``prefix + "A"``).
    It must be valid as the leading part of a stream name —
    alphanumerics and underscores, e.g. ``"acme_"`` — or empty for the
    whole-engine view.  ``rate`` is the sustained query budget in
    expression evaluations per second (``None`` = unlimited);
    ``burst`` is the bucket depth (defaults to ``max(1, rate)``).
    """

    name: str
    prefix: str = ""
    rate: float | None = None
    burst: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.prefix and not all(
            ch.isalnum() or ch == "_" for ch in self.prefix
        ):
            raise ValueError(
                "tenant prefix must contain only alphanumerics and "
                f"underscores (it prefixes stream names), got {self.prefix!r}"
            )
        if self.rate is not None and not self.rate >= 0:
            raise ValueError("tenant rate must be non-negative")
        if self.burst is not None and not self.burst > 0:
            raise ValueError("tenant burst must be positive")

    @property
    def bucket_burst(self) -> float:
        return self.burst if self.burst is not None else max(1.0, self.rate)


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, depth ``burst``.

    ``try_acquire(cost)`` never blocks: it returns ``0.0`` and debits
    the bucket when the budget covers ``cost``, else the seconds until
    it would — the serving layer turns that into a typed
    :class:`~repro.errors.RateLimitedError` with a ``retry_after`` hint
    instead of queueing (a hang) or silently dropping.  ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(
        self, rate: float, burst: float, *, clock=time.monotonic
    ) -> None:
        if rate < 0:
            raise ValueError("rate must be non-negative")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()

    @property
    def tokens(self) -> float:
        """Current token balance (refreshed to now)."""
        self._refill()
        return self._tokens

    def _refill(self) -> None:
        now = self._clock()
        if now > self._last:
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
        self._last = now

    def try_acquire(self, cost: float = 1.0) -> float:
        """Debit ``cost`` tokens; returns 0.0, or the retry-after delay."""
        if cost <= 0:
            raise ValueError("cost must be positive")
        self._refill()
        if self._tokens >= cost:
            self._tokens -= cost
            return 0.0
        missing = cost - self._tokens
        if self.rate == 0:
            return float("inf")
        return missing / self.rate


# -- query plans --------------------------------------------------------------


class ServingPlan:
    """One parsed-and-compiled expression text, shared across tenants.

    Parsing and compilation see only *logical* stream names, so one plan
    serves every tenant; a namespace is applied afterwards as a memoised
    structural rewrite (:meth:`resolved`) of the immutable AST.  What is
    deliberately **not** shared is evaluation state: the engine's query
    cache keys on the resolved (physical) expression plus the mutation
    epoch, so tenants with the same text never see each other's
    estimates.
    """

    __slots__ = ("text", "expression", "program", "_resolved")

    def __init__(self, text: str, expression: SetExpression) -> None:
        self.text = text
        self.expression = expression
        self.program = compile_expression(expression)
        self._resolved: dict[str, SetExpression] = {}

    def resolved(self, prefix: str) -> SetExpression:
        """The AST with every stream name rewritten under ``prefix``."""
        if not prefix:
            return self.expression
        expression = self._resolved.get(prefix)
        if expression is None:
            expression = _rebase(self.expression, prefix)
            self._resolved[prefix] = expression
        return expression


def _rebase(node: SetExpression, prefix: str) -> SetExpression:
    if isinstance(node, StreamRef):
        return StreamRef(prefix + node.name)
    return type(node)(
        _rebase(node.left, prefix), _rebase(node.right, prefix)
    )


class PlanCache:
    """Parse-once LRU of expression text → :class:`ServingPlan`.

    The counters (``parses``/``hits``/``evictions``) exist so tests can
    pin the parse-once property: two tenants issuing the same text must
    account for exactly one parse.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._plans: OrderedDict[str, ServingPlan] = OrderedDict()
        self.parses = 0
        self.hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, text: str) -> ServingPlan:
        """The cached plan for ``text``, parsing (and caching) on miss.

        Raises :class:`~repro.errors.ExpressionError` for unparseable
        text — nothing is cached in that case, so a tenant cannot fill
        the cache with garbage.
        """
        plan = self._plans.get(text)
        if plan is not None:
            self.hits += 1
            self._plans.move_to_end(text)
            return plan
        expression = parse(text)
        plan = ServingPlan(text, expression)
        self.parses += 1
        self._plans[text] = plan
        if len(self._plans) > self.maxsize:
            self._plans.popitem(last=False)
            self.evictions += 1
        return plan


# -- per-tenant counters ------------------------------------------------------


@dataclass
class ServingStats:
    """Per-tenant serving counters (the ``TransportStats`` idiom).

    ``queries`` counts answered request frames, ``items`` the
    expressions/union inputs inside them; ``batched_queries`` counts
    requests that shared a drain with at least one other request (the
    cross-client batching actually firing).  All errors are also broken
    out by kind in ``errors_by_kind``.
    """

    tenant: str = ""
    connections: int = 0
    frames_in: int = 0
    frames_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    queries: int = 0
    items: int = 0
    errors: int = 0
    rate_limited: int = 0
    batched_queries: int = 0
    errors_by_kind: dict = field(default_factory=dict)

    def count_error(self, kind: str) -> None:
        """Count one error, both in total and under its typed ``kind``."""
        self.errors += 1
        self.errors_by_kind[kind] = self.errors_by_kind.get(kind, 0) + 1

    def snapshot(self) -> "ServingStats":
        """A point-in-time copy safe to hand across the API."""
        return replace(self, errors_by_kind=dict(self.errors_by_kind))


# -- error mapping ------------------------------------------------------------


#: Machine-readable ``query_error`` kinds and the exception each maps
#: to, in classification order (first match wins — subclasses before
#: their bases).  The client re-raises the same types, so a typed error
#: crosses the wire round-trip intact.
QUERY_ERROR_KINDS: tuple[tuple[str, type], ...] = (
    ("rate-limited", RateLimitedError),
    ("unknown-tenant", UnknownTenantError),
    ("unknown-stream", UnknownStreamError),
    ("unknown-query", UnknownQueryError),
    ("expression", ExpressionError),
    ("estimation", EstimationError),
    ("protocol", protocol.ProtocolError),
    ("bad-request", ValueError),
    ("internal", Exception),
)

_KIND_TO_EXC = {kind: exc for kind, exc in QUERY_ERROR_KINDS}


def _error_text(exc: BaseException) -> str:
    # KeyError subclasses repr() their argument in str(); use the raw
    # message so the wire carries clean text.
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def classify_error(exc: BaseException) -> tuple[str, str, dict]:
    """``(kind, message, details)`` for a server-surfaced exception."""
    details = dict(getattr(exc, "details", None) or {})
    if isinstance(exc, RateLimitedError):
        details.setdefault("retry_after", exc.retry_after)
    for kind, exc_type in QUERY_ERROR_KINDS:
        if isinstance(exc, exc_type):
            return kind, _error_text(exc), details
    return "internal", _error_text(exc), details


def error_from_header(header: dict) -> Exception:
    """Rebuild the typed exception a ``query_error`` frame describes.

    The client raises exactly the class the server classified —
    :class:`~repro.errors.RateLimitedError` keeps its ``retry_after``,
    name-lookup errors keep their ``unknown``/``known`` lists on a
    ``details`` attribute.
    """
    kind = header.get("error", "internal")
    message = header.get("message", "")
    details = {
        key: value
        for key, value in header.items()
        if key not in ("type", "id", "error", "message")
    }
    exc_type = _KIND_TO_EXC.get(kind)
    if exc_type is RateLimitedError:
        exc: Exception = RateLimitedError(
            message, retry_after=float(details.get("retry_after", 0.0))
        )
    elif exc_type is None or exc_type is Exception:
        exc = ReproError(f"server error [{kind}]: {message}")
    else:
        exc = exc_type(message)
    exc.details = details
    return exc


# -- estimate serialisation ---------------------------------------------------


def estimate_to_dict(estimate) -> dict:
    """A JSON-safe mapping for one estimator result.

    JSON floats round-trip exactly (``repr`` is the shortest exact
    representation), so the rebuilt dataclass is bit-identical to the
    server's — the e2e suites compare with ``==``, no tolerance.
    """
    if isinstance(estimate, WitnessEstimate):
        return {
            "est": "witness",
            "value": estimate.value,
            "level": estimate.level,
            "union_estimate": estimate.union_estimate,
            "num_valid": estimate.num_valid,
            "num_witnesses": estimate.num_witnesses,
            "num_sketches": estimate.num_sketches,
        }
    if isinstance(estimate, UnionEstimate):
        return {
            "est": "union",
            "value": estimate.value,
            "level": estimate.level,
            "non_empty_fraction": estimate.non_empty_fraction,
            "num_sketches": estimate.num_sketches,
            "saturated": estimate.saturated,
        }
    raise TypeError(f"cannot serialise {type(estimate).__name__}")


def estimate_from_dict(payload: dict):
    """Inverse of :func:`estimate_to_dict` (strict about shape)."""
    if not isinstance(payload, dict):
        raise protocol.ProtocolError("estimate payload must be an object")
    kind = payload.get("est")
    try:
        if kind == "witness":
            return WitnessEstimate(
                value=float(payload["value"]),
                level=int(payload["level"]),
                union_estimate=float(payload["union_estimate"]),
                num_valid=int(payload["num_valid"]),
                num_witnesses=int(payload["num_witnesses"]),
                num_sketches=int(payload["num_sketches"]),
            )
        if kind == "union":
            return UnionEstimate(
                value=float(payload["value"]),
                level=int(payload["level"]),
                non_empty_fraction=float(payload["non_empty_fraction"]),
                num_sketches=int(payload["num_sketches"]),
                saturated=bool(payload["saturated"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise protocol.ProtocolError(
            f"malformed {kind!r} estimate payload: {exc}"
        ) from exc
    raise protocol.ProtocolError(f"unknown estimate kind {kind!r}")


# -- the server ---------------------------------------------------------------


@dataclass
class _Pending:
    """One validated request parked for the next drain."""

    request: protocol.QueryRequest
    tenant: TenantSpec
    resolved: tuple
    future: asyncio.Future
    batched: bool = False
    results: list | None = None


class QueryServer:
    """Asyncio query service over a fold target.

    ``target`` is a :class:`~repro.streams.engine.StreamEngine` or a
    :class:`~repro.streams.distributed.Coordinator`: the server uses
    their ``query``/``query_many``/``query_union``/``stream_names``,
    ``is_windowed`` and ``snapshot_position``.  See the module docstring
    for the consistency and batching model.

    ``batch_window`` (seconds) widens the micro-batch: requests are
    parked and drained together after at most that long.  The default
    ``0.0`` drains on the next event-loop iteration — concurrent
    requests already in flight still coalesce, at no added latency.
    """

    def __init__(
        self,
        target,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tenants: Iterable[TenantSpec] | None = None,
        max_frame_bytes: int = MAX_QUERY_FRAME_BYTES,
        plan_cache_size: int = 256,
        batch_window: float = 0.0,
        clock=time.monotonic,
    ) -> None:
        self.target = target
        self._host = host
        self._port = port
        self._max_frame_bytes = max_frame_bytes
        if batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        self._batch_window = batch_window
        self._clock = clock
        if tenants is None:
            tenants = [TenantSpec(DEFAULT_TENANT)]
        self._tenants: dict[str, TenantSpec] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._stats: dict[str, ServingStats] = {}
        for tenant in tenants:
            if tenant.name in self._tenants:
                raise ValueError(f"duplicate tenant {tenant.name!r}")
            self._tenants[tenant.name] = tenant
            if tenant.rate is not None:
                self._buckets[tenant.name] = TokenBucket(
                    tenant.rate, tenant.bucket_burst, clock=clock
                )
            self._stats[tenant.name] = ServingStats(tenant=tenant.name)
        self.plans = PlanCache(plan_cache_size)
        self._server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task] = set()
        self._pending: list[_Pending] = []
        self._drain_handle: asyncio.Handle | None = None
        self.drains = 0
        self.batched_drains = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting query sessions (resolves ``port``)."""
        if self._server is not None:
            raise RuntimeError("query server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener, cancel live sessions and parked drains."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            for task in list(self._handlers):
                task.cancel()
            if self._handlers:
                await asyncio.gather(*self._handlers, return_exceptions=True)
            self._handlers.clear()
        if self._drain_handle is not None:
            self._drain_handle.cancel()
            self._drain_handle = None
        for pending in self._pending:
            if not pending.future.done():
                pending.future.cancel()
        self._pending.clear()

    async def __aenter__(self) -> "QueryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when ``port=0``)."""
        return self._port

    # -- introspection -----------------------------------------------------

    def tenant_names(self) -> list[str]:
        """Configured tenant names, sorted."""
        return sorted(self._tenants)

    def stats(self) -> dict[str, ServingStats]:
        """Per-tenant serving counters (point-in-time copies)."""
        return {name: stats.snapshot() for name, stats in self._stats.items()}

    # -- connection handling -----------------------------------------------

    def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._guarded_serve(reader, writer)
        )
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _guarded_serve(self, reader, writer) -> None:
        try:
            await self._serve_session(reader, writer)
        except asyncio.IncompleteReadError:
            pass  # client went away; nothing to clean up
        except protocol.ProtocolError as exc:
            # Handshake violations and oversized frames: the stream
            # cannot be trusted past this point — answer and close.
            try:
                await protocol.write_message(
                    writer, protocol.error_message(str(exc))
                )
            except (ConnectionError, OSError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_session(self, reader, writer) -> None:
        header, _, _ = await protocol.read_message(
            reader, self._max_frame_bytes
        )
        if header.get("type") != "hello":
            raise protocol.ProtocolError(
                f"expected hello, got {header.get('type')!r}"
            )
        if header.get("version") not in protocol.SUPPORTED_VERSIONS:
            raise protocol.ProtocolError(
                f"protocol version {header.get('version')!r} not supported "
                f"(this server speaks {protocol.SUPPORTED_VERSIONS})"
            )
        role = header.get("role", "site")
        if role != "query":
            raise protocol.ProtocolError(
                f"this is the query port; hello role must be 'query', "
                f"got {role!r} (deltas go to the ingest port)"
            )
        await protocol.write_message(writer, protocol.welcome_message(0, 0))
        session_tenant: ServingStats | None = None
        while True:
            header, _, nbytes = await protocol.read_message(
                reader, self._max_frame_bytes
            )
            if header.get("type") == "error":
                return  # client-side goodbye
            try:
                request = protocol.query_from_message(header)
            except protocol.ProtocolError as exc:
                # The frame parsed but the header is not a valid query:
                # framing is intact, so answer typed and keep serving.
                request_id = header.get("id")
                if not isinstance(request_id, int) or isinstance(
                    request_id, bool
                ):
                    request_id = -1
                kind, message, details = classify_error(exc)
                if session_tenant is not None:
                    session_tenant.count_error(kind)
                await self._send(
                    writer,
                    protocol.query_error_message(
                        request_id, kind, message, details=details
                    ),
                    session_tenant,
                )
                continue
            stats = self._stats.get(request.tenant)
            if stats is not None:
                if session_tenant is None:
                    stats.connections += 1
                session_tenant = stats
                stats.frames_in += 1
                stats.bytes_in += nbytes
            try:
                pending = self._admit(request)
            except Exception as exc:  # typed below; nothing is unrecoverable
                kind, message, details = classify_error(exc)
                if stats is not None:
                    stats.count_error(kind)
                    if kind == "rate-limited":
                        stats.rate_limited += 1
                await self._send(
                    writer,
                    protocol.query_error_message(
                        request.id, kind, message, details=details
                    ),
                    stats,
                )
                continue
            try:
                results, position, batched = await pending.future
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                kind, message, details = classify_error(exc)
                if stats is not None:
                    stats.count_error(kind)
                await self._send(
                    writer,
                    protocol.query_error_message(
                        request.id, kind, message, details=details
                    ),
                    stats,
                )
                continue
            if stats is not None:
                stats.queries += 1
                stats.items += len(request.items)
                if batched:
                    stats.batched_queries += 1
            await self._send(
                writer,
                protocol.query_result_message(
                    request.id,
                    request.kind,
                    [estimate_to_dict(result) for result in results],
                    position,
                ),
                stats,
            )

    async def _send(
        self, writer, header: dict, stats: ServingStats | None
    ) -> None:
        nbytes = await protocol.write_message(writer, header)
        if stats is not None:
            stats.frames_out += 1
            stats.bytes_out += nbytes

    # -- request admission --------------------------------------------------

    def _admit(self, request: protocol.QueryRequest) -> _Pending:
        """Validate one request and park it for the next drain.

        Raises the typed errors the protocol maps: unknown tenant,
        rate limit, unparseable expression, unknown stream, bad
        epsilon/window.  Nothing is enqueued on failure.
        """
        tenant = self._tenants.get(request.tenant)
        if tenant is None:
            known = self.tenant_names()
            exc = UnknownTenantError(
                f"unknown tenant {request.tenant!r}; "
                f"known tenants: {', '.join(known) or '<none>'}"
            )
            exc.details = {"unknown": [request.tenant], "known": known}
            raise exc
        if not 0 < request.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if request.window is not None:
            if not self.target.is_windowed:
                raise ValueError(
                    "windowed queries need a windowed serving target"
                )
            if not request.window > 0:
                raise ValueError("window must be positive")
        bucket = self._buckets.get(tenant.name)
        if bucket is not None:
            retry_after = bucket.try_acquire(float(len(request.items)))
            if retry_after > 0:
                raise RateLimitedError(
                    f"tenant {tenant.name!r} is over its "
                    f"{bucket.rate:g}/s query budget",
                    retry_after=retry_after,
                )
        if request.kind == "expression":
            logical: set[str] = set()
            resolved = []
            for text in request.items:
                plan = self.plans.get(text)  # ExpressionError on bad text
                logical.update(plan.expression.streams())
                resolved.append(plan.resolved(tenant.prefix))
            self._require_visible(tenant, logical)
            parked = _Pending(
                request, tenant, tuple(resolved), self._new_future()
            )
        else:
            self._require_visible(tenant, request.items)
            parked = _Pending(
                request,
                tenant,
                tuple(tenant.prefix + name for name in request.items),
                self._new_future(),
            )
        self._pending.append(parked)
        self._schedule_drain()
        return parked

    def _new_future(self) -> asyncio.Future:
        return asyncio.get_running_loop().create_future()

    def _require_visible(
        self, tenant: TenantSpec, names: Iterable[str]
    ) -> None:
        """Check logical ``names`` against the tenant's namespace.

        The error lists only streams under the tenant's prefix (by
        their logical names) — one tenant can never enumerate
        another's namespace from its error payloads.
        """
        prefix = tenant.prefix
        visible = {
            name[len(prefix):]
            for name in self.target.stream_names()
            if name.startswith(prefix)
        }
        unknown = sorted(set(names) - visible)
        if unknown:
            known = sorted(visible)
            exc = UnknownStreamError(
                f"no synopsis for stream(s) "
                f"{', '.join(repr(name) for name in unknown)}; "
                f"known streams: {', '.join(known) or '<none>'}"
            )
            exc.details = {"unknown": unknown, "known": known}
            raise exc

    # -- the drain ----------------------------------------------------------

    def _schedule_drain(self) -> None:
        if self._drain_handle is not None:
            return
        loop = asyncio.get_running_loop()
        if self._batch_window > 0:
            self._drain_handle = loop.call_later(
                self._batch_window, self._drain
            )
        else:
            self._drain_handle = loop.call_soon(self._drain)

    def _drain(self) -> None:
        """Answer every parked request against ONE engine snapshot.

        This method is synchronous — it never awaits between the first
        evaluation and the position read at the end, so on the single
        event loop no ingest fold, window expiry, or checkpoint can
        interleave: all answers in a drain describe exactly the state
        ``position`` names.  That is the whole snapshot-consistency
        mechanism; ingest is never locked out, merely *not scheduled*
        for the (microseconds-scale) duration of a drain.
        """
        self._drain_handle = None
        parked, self._pending = self._pending, []
        if not parked:
            return
        self.drains += 1
        if len(parked) > 1:
            self.batched_drains += 1
            for pending in parked:
                pending.batched = True
        try:
            groups: dict[tuple, list[_Pending]] = {}
            for pending in parked:
                key = (
                    pending.request.kind,
                    pending.request.epsilon,
                    pending.request.window,
                )
                groups.setdefault(key, []).append(pending)
            for (kind, epsilon, window), members in groups.items():
                if kind == "expression":
                    self._drain_expressions(members, epsilon, window)
                else:
                    self._drain_unions(members, epsilon, window)
            position = list(self.target.snapshot_position)
        except Exception as exc:
            # A loop callback must never leak: fail every still-parked
            # request typed instead of stranding its handler forever.
            for pending in parked:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        for pending in parked:
            if pending.future.done():
                continue  # evaluation error already set
            pending.future.set_result(
                (pending.results, position, pending.batched)
            )

    def _drain_expressions(
        self, members: list[_Pending], epsilon: float, window: float | None
    ) -> None:
        flat = [
            expression for pending in members for expression in pending.resolved
        ]
        try:
            estimates = self.target.query_many(flat, epsilon, window=window)
        except Exception:
            # Isolate the failure: re-evaluate per request below so
            # one bad expression fails one request, not the batch.
            estimates = None
        if estimates is not None:
            cursor = iter(estimates)
            for pending in members:
                pending.results = [next(cursor) for _ in pending.resolved]
            return
        for pending in members:
            try:
                pending.results = [
                    self.target.query(expression, epsilon, window=window)
                    for expression in pending.resolved
                ]
            except Exception as exc:
                pending.future.set_exception(exc)

    def _drain_unions(
        self, members: list[_Pending], epsilon: float, window: float | None
    ) -> None:
        for pending in members:
            try:
                result = self.target.query_union(
                    pending.resolved, epsilon, window=window
                )
            except Exception as exc:
                pending.future.set_exception(exc)
            else:
                pending.results = [result]


# -- the client ---------------------------------------------------------------


class QueryClient:
    """A query session against a :class:`QueryServer`.

    Mirrors the :class:`~repro.streams.net.site.SiteClient` connection
    idiom (connect/io timeouts, explicit ``close``, async context
    manager) on the query side of the protocol.  Typed server errors
    re-raise locally as the same exception classes
    (:func:`error_from_header`); ``last_position`` is the snapshot token
    of the most recent answer.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = DEFAULT_TENANT,
        client_id: str | None = None,
        connect_timeout: float = 5.0,
        io_timeout: float = 30.0,
        max_frame_bytes: int = MAX_QUERY_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.client_id = client_id or f"query-{uuid.uuid4().hex[:8]}"
        self._connect_timeout = connect_timeout
        self._io_timeout = io_timeout
        self._max_frame_bytes = max_frame_bytes
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0
        self.last_position: tuple[int, int] | None = None

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def connect(self) -> None:
        """Open the session (idempotent): hello/welcome handshake."""
        if self._writer is not None:
            return
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port),
            self._connect_timeout,
        )
        try:
            await protocol.write_message(
                writer,
                protocol.hello_message(self.client_id, "0", role="query"),
            )
            header, _, _ = await asyncio.wait_for(
                protocol.read_message(reader, self._max_frame_bytes),
                self._io_timeout,
            )
        except BaseException:
            writer.close()
            raise
        if header.get("type") == "error":
            writer.close()
            raise protocol.ProtocolError(
                f"server refused the session: {header.get('message')}"
            )
        if header.get("type") != "welcome":
            writer.close()
            raise protocol.ProtocolError(
                f"expected welcome, got {header.get('type')!r}"
            )
        self._reader, self._writer = reader, writer

    async def close(self) -> None:
        """Close the session; safe to call repeatedly."""
        if self._writer is None:
            return
        writer, self._writer, self._reader = self._writer, None, None
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "QueryClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- queries -----------------------------------------------------------

    async def query(
        self,
        expressions: str | Sequence[str],
        epsilon: float = 0.1,
        window: float | None = None,
    ):
        """Estimate one expression text (or a batch of them).

        A single ``str`` returns one
        :class:`~repro.core.results.WitnessEstimate`; a sequence
        returns the aligned list — evaluated by the server in one
        snapshot-consistent pass.
        """
        single = isinstance(expressions, str)
        batch = [expressions] if single else list(expressions)
        results = await self._request(expressions=batch, epsilon=epsilon, window=window)
        return results[0] if single else results

    async def query_union(
        self,
        streams: Sequence[str],
        epsilon: float = 0.1,
        window: float | None = None,
    ) -> UnionEstimate:
        """Estimate the distinct count of a union of named streams."""
        results = await self._request(
            streams=list(streams), epsilon=epsilon, window=window
        )
        return results[0]

    async def _request(
        self,
        *,
        expressions: Sequence[str] | None = None,
        streams: Sequence[str] | None = None,
        epsilon: float,
        window: float | None,
    ) -> list:
        await self.connect()
        self._next_id += 1
        request_id = self._next_id
        await asyncio.wait_for(
            protocol.write_message(
                self._writer,
                protocol.query_message(
                    request_id,
                    self.tenant,
                    expressions=expressions,
                    streams=streams,
                    epsilon=epsilon,
                    window=window,
                ),
            ),
            self._io_timeout,
        )
        while True:
            header, _, _ = await asyncio.wait_for(
                protocol.read_message(self._reader, self._max_frame_bytes),
                self._io_timeout,
            )
            kind = header.get("type")
            if kind == "error":
                await self.close()
                raise protocol.ProtocolError(
                    f"server closed the session: {header.get('message')}"
                )
            if kind not in ("query_result", "query_error"):
                await self.close()
                raise protocol.ProtocolError(
                    f"unexpected {kind!r} frame in a query session"
                )
            if header.get("id") != request_id:
                continue  # stale answer from an abandoned request
            if kind == "query_error":
                raise error_from_header(header)
            position = header.get("position")
            if (
                not isinstance(position, list)
                or len(position) != 2
                or not all(isinstance(part, int) for part in position)
            ):
                raise protocol.ProtocolError(
                    "query_result carries no usable position"
                )
            self.last_position = tuple(position)
            results = header.get("results")
            if not isinstance(results, list):
                raise protocol.ProtocolError(
                    "query_result carries no results list"
                )
            return [estimate_from_dict(result) for result in results]
