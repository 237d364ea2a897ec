"""Asyncio coordinator server: folds shipped deltas, checkpoints, re-syncs.

:class:`CoordinatorServer` is the network face of
:class:`~repro.streams.distributed.Coordinator`.  Each connected site
speaks the framed protocol of :mod:`repro.streams.net.protocol`:

1. The site says ``hello``; the server answers ``welcome`` carrying the
   site's last *applied* sequence and last *durable* (checkpoint-covered)
   sequence.  The site re-ships everything newer — so a server restarted
   from a checkpoint is transparently re-synced by its sites.
2. Each ``delta`` frame is folded into the coordinator by sketch
   linearity.  Duplicates (retransmits after a lost ack) are dropped
   idempotently; a sequence gap is answered with the current applied
   sequence so the site rewinds.  Either way the server acks with the
   applied/durable pair.
3. Every ``checkpoint_every`` applied deltas the merged synopses plus
   the per-site sequence map are written through
   :func:`~repro.streams.checkpoint.checkpoint_engine`; acks then carry
   the new durable sequences, letting sites prune their retained tails.

The server runs every site on one event loop — concurrency, not
parallelism — and all state mutation happens between ``await`` points of
a single-threaded loop, so no locks are needed.

Two extensions make servers composable into **federation trees**
(millions of sites cannot all terminate on one coordinator):

* ``engine_factory=`` chooses the window configuration of the
  :class:`~repro.streams.engine.StreamEngine` every coordinator folds
  network deltas into — e.g. a windowed one, which buckets deltas by
  time; without it the fold engine is a plain ``StreamEngine(spec)``.
* ``parent_host``/``parent_port`` give the server an **uplink**: a
  :class:`~repro.streams.distributed.StreamSite` backed by the
  coordinator's own aggregated state, shipped to a parent coordinator
  through a :class:`~repro.streams.net.site.SiteClient` exactly like
  any leaf site — same incarnation-scoped sequences, same
  retention-until-durable-ack, same re-sync.  When checkpointing is
  enabled, uplink exports are cut *only inside* :meth:`checkpoint`, so
  every sequence the parent can ever see is persisted before it goes on
  the wire; a leaf restored from its checkpoint therefore re-ships
  bit-identical deltas instead of diverging, and a mid-tree crash
  loses nothing and double-applies nothing.  An uplink export is the
  sum of the child deltas folded since the previous cut (a lone one
  forwarded in the blob it arrived in), so the uplink keeps no
  baseline copy of the state.  Each retained uplink
  export is written once, as one sparse-cell file under ``uplink/`` in
  the checkpoint directory.  Because every cut is made inside a
  checkpoint, a cut holds exactly the cells folded since the previous
  generation, so its file doubles as that generation's log entry
  (:func:`~repro.streams.checkpoint.append_checkpoint_log`): a leaf's
  checkpoint writes only that file and the manifest, and a dense base
  only when the log outgrows it.  A file is deleted once the parent
  durably acknowledged its export and a newer base covers it.
"""

from __future__ import annotations

import asyncio
import math
import pathlib
import uuid
from urllib.parse import quote

from repro.core.family import SketchSpec
from repro.streams.checkpoint import (
    CheckpointError,
    append_checkpoint_log,
    checkpoint_engine,
    prune_checkpoint_files,
    read_checkpoint_extra,
    read_checkpoint_file,
    restore_engine,
    write_checkpoint_files,
)
from repro.streams.distributed import (
    Coordinator,
    DeltaExport,
    DeltaPayload,
    StreamSite,
)
from repro.streams.net import codec, protocol
from repro.streams.net.site import SiteClient, SiteConnectionError
from repro.streams.stats import TransportStats, rollup_transport_stats
from repro.streams.windows import bucket_index

__all__ = ["CoordinatorServer"]

_SITE_SEQUENCES_KEY = "site_sequences"
_UPLINK_KEY = "uplink"
#: Checkpoint sub-directory holding one sparse file per retained uplink
#: export.
_UPLINK_DIR = "uplink"


def _retained_file(incarnation: str, sequence: int) -> str:
    """File name (under ``uplink/``) of one retained uplink export."""
    return f"{quote(incarnation, safe='')}-{int(sequence)}.cells"


def _site_sequences(extra: dict) -> list[tuple[str, str, int]]:
    """The ``(site id, incarnation, sequence)`` triples of a checkpoint's
    ``extra["site_sequences"]``, validated."""
    sequences = extra.get(_SITE_SEQUENCES_KEY, {})
    if not isinstance(sequences, dict) or not all(
        isinstance(history, dict) for history in sequences.values()
    ):
        raise CheckpointError(
            "manifest 'extra[\"site_sequences\"]' is not a mapping of "
            "site id to {incarnation: sequence}"
        )
    triples = []
    for site_id, history in sequences.items():
        for incarnation, sequence in history.items():
            if type(sequence) is not int or sequence < 0:
                raise CheckpointError(
                    f"site {site_id!r} has an unusable applied sequence "
                    f"{sequence!r}"
                )
            triples.append((str(site_id), str(incarnation), sequence))
    return triples


def _check_uplink_state(state) -> None:
    """Validate a checkpoint's ``extra["uplink"]`` field by field."""

    def unusable(field: str, value):
        return CheckpointError(
            f"manifest 'extra[\"uplink\"]' has an unusable {field} {value!r}"
        )

    if not isinstance(state, dict):
        raise unusable("section", state)
    if "baselines" in state:
        raise CheckpointError(
            "the checkpoint holds uplink state in the retired format-2 "
            "layout (base64 baselines in the manifest); it cannot be "
            "restored as a leaf"
        )
    for field in ("site_id", "incarnation"):
        if not isinstance(state.get(field), str):
            raise unusable(field, state.get(field))
    sequence = state.get("sequence")
    if type(sequence) is not int or sequence < 0:
        raise unusable("sequence", sequence)
    retained = state.get("retained", [])
    if not isinstance(retained, list) or not all(
        isinstance(entry, dict) for entry in retained
    ):
        raise unusable("retained", retained)
    for entry in retained:
        number = entry.get("sequence")
        if type(number) is not int or not 0 < number <= sequence:
            raise unusable("retained sequence", number)
        streams = entry.get("streams")
        if not isinstance(streams, list) or not all(
            isinstance(name, str) for name in streams
        ):
            raise unusable("retained streams", streams)
        window_at = entry.get("window_at")
        if window_at is not None and (
            type(window_at) not in (int, float) or not math.isfinite(window_at)
        ):
            raise unusable("retained window_at", window_at)


def _restore_uplink_site(directory, state, coordinator) -> StreamSite:
    """The uplink site of a checkpoint's ``extra["uplink"]`` state, its
    retained exports read back from their ``uplink/`` files."""
    _check_uplink_state(state)
    num_cells = coordinator.spec.counter_cells
    payloads = {}
    for entry in state.get("retained", ()):
        sequence = int(entry["sequence"])
        streams = [str(name) for name in entry["streams"]]
        blob = read_checkpoint_file(
            directory,
            _UPLINK_DIR,
            _retained_file(str(state["incarnation"]), sequence),
        )
        try:
            cell_sets = codec.decode_cell_sets(blob, len(streams), num_cells)
        except codec.CodecError as exc:
            raise CheckpointError(
                f"retained uplink export {sequence} is corrupt: {exc}"
            ) from exc
        payloads[sequence] = {
            name: DeltaPayload.from_cells(indices, values, num_cells)
            for name, (indices, values) in zip(streams, cell_sets)
        }
    return StreamSite.from_state(
        state, coordinator.spec, engine=coordinator, payloads=payloads
    )


class CoordinatorServer:
    """TCP server feeding a :class:`~repro.streams.distributed.Coordinator`.

    Parameters
    ----------
    spec:
        Sketch recipe shared with every site ("stored coins").  Ignored
        when ``coordinator`` is given.
    coordinator:
        An existing coordinator to serve (the restore path); by default
        a fresh one is built from ``spec``.
    host, port:
        Bind address.  ``port=0`` picks a free port — read it back from
        :attr:`port` after :meth:`start`.
    checkpoint_dir:
        Directory for periodic checkpoints (fail-over state).  ``None``
        disables checkpointing; acks then report every applied delta as
        durable, since there is no restart to replay for.
    checkpoint_every:
        Write a checkpoint after this many applied deltas (0 = only
        explicit :meth:`checkpoint` calls).
    engine_factory:
        ``spec -> StreamEngine`` callable building the coordinator's fold
        engine, which chooses its window configuration (e.g. ``lambda
        spec: StreamEngine(spec, window_span=60)``).  ``None`` folds
        into a plain unwindowed ``StreamEngine(spec)``.  Ignored when
        ``coordinator`` is given (the restore path wires the engine
        itself).
    parent_host, parent_port:
        Address of a parent coordinator.  When ``parent_port`` is set
        the server becomes a leaf in a federation tree: it runs an
        uplink :class:`~repro.streams.net.site.SiteClient` whose
        :class:`~repro.streams.distributed.StreamSite` is backed by this
        coordinator's aggregated state.
    uplink_id:
        Site id announced to the parent.  Defaults to a random
        ``leaf-<hex>``; give tree nodes stable ids in production so a
        restarted-without-checkpoint leaf is recognisably the same peer.
    uplink_every:
        Auto-ship aggregated deltas upstream after this many applied
        child deltas (0 = only explicit :meth:`ship_upstream` calls).
    uplink_site:
        A pre-built uplink site (the restore path); overrides
        ``uplink_id``.
    uplink_options:
        Extra keyword arguments forwarded to the uplink
        :class:`~repro.streams.net.site.SiteClient` (timeouts, retry
        budget, ``rng`` for deterministic backoff in tests).
    encodings:
        Wire encodings this server accepts, preference first (see
        :mod:`repro.streams.net.codec`).  Each session's encodings are
        the intersection with what the site's hello offered, announced
        back in the welcome; v1 hellos (no ``encodings`` field) get a
        v1-shaped welcome and plain dense frames.  Pass
        ``codec.DENSE_ONLY`` to force dense for every peer.
    query_port:
        Mount a :class:`~repro.streams.serving.QueryServer` on this
        port (0 = ephemeral), serving set-expression queries over the
        coordinator's merged synopses while ingest keeps running.
        ``query_options`` forwards keyword arguments (tenants, rate
        limits, ``batch_window``) to the query server.
    """

    def __init__(
        self,
        spec: SketchSpec | None = None,
        *,
        coordinator: Coordinator | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_dir: str | pathlib.Path | None = None,
        checkpoint_every: int = 0,
        engine_factory=None,
        parent_host: str = "127.0.0.1",
        parent_port: int | None = None,
        uplink_id: str | None = None,
        uplink_every: int = 0,
        uplink_site: StreamSite | None = None,
        uplink_options: dict | None = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        encodings: tuple = codec.PREFERRED_ENCODINGS,
        query_port: int | None = None,
        query_options: dict | None = None,
    ) -> None:
        if coordinator is None:
            if spec is None:
                raise ValueError("need a SketchSpec or a Coordinator")
            engine = engine_factory(spec) if engine_factory is not None else None
            coordinator = Coordinator(spec, engine=engine)
        self.coordinator = coordinator
        self._host = host
        self._port = port
        self._checkpoint_dir = (
            pathlib.Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        self._checkpoint_every = checkpoint_every
        self._max_frame_bytes = max_frame_bytes
        unknown = sorted(set(encodings) - set(codec.WIRE_ENCODINGS))
        if unknown:
            raise ValueError(
                f"unknown wire encoding(s) {unknown}; "
                f"this build speaks {codec.WIRE_ENCODINGS}"
            )
        self._encodings = tuple(encodings)
        self._server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task] = set()
        self._stats: dict[str, TransportStats] = {}
        # site id -> incarnation -> last sequence covered by a written
        # checkpoint.
        self._durable: dict[str, dict[str, int]] = {}
        self._applied_since_checkpoint = 0
        self._checkpoints_written = 0
        # Retained uplink exports already written under uplink/ (each is
        # written once, however many checkpoints it stays retained for).
        self._uplink_files: set[str] = set()
        # -- uplink (federation trees) --
        if uplink_every < 0:
            raise ValueError("uplink_every must be non-negative")
        self._uplink: SiteClient | None = None
        self._uplink_every = uplink_every
        self._applied_since_uplink = 0
        self._uplink_lock = asyncio.Lock()
        self._uplink_tasks: set[asyncio.Task] = set()
        # Newest window_at stamp among the deltas folded since the last
        # uplink cut (None: none folded, or an unwindowed fold target),
        # and whether an unstamped delta was folded since then.
        self._uncut_window_at: float | None = None
        self._uncut_unstamped = False
        # Whether the published checkpoint plus the next uplink cut is
        # the fold state, so the next generation may be a log entry.
        self._log_continues = False
        if parent_port is not None:
            site = uplink_site
            if site is None:
                site = StreamSite(
                    uplink_id or f"leaf-{uuid.uuid4().hex[:8]}",
                    self.coordinator.spec,
                    engine=self.coordinator,
                )
            self._uplink = SiteClient(
                site=site,
                host=parent_host,
                port=parent_port,
                role="uplink",
                max_frame_bytes=max_frame_bytes,
                **(uplink_options or {}),
            )
        elif uplink_site is not None or uplink_id is not None:
            raise ValueError("uplink_id/uplink_site need a parent_port")
        # -- serving front end (query sessions) --
        self._query_server = None
        if query_port is not None:
            # Imported lazily: serving builds on this module's protocol
            # but the ingest path must not depend on the serving layer.
            from repro.streams.serving import QueryServer

            self._query_server = QueryServer(
                self.coordinator,
                host=host,
                port=query_port,
                **(query_options or {}),
            )
        elif query_options is not None:
            raise ValueError("query_options need a query_port")

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def restore(
        cls,
        checkpoint_dir: str | pathlib.Path,
        *,
        engine_factory=None,
        **kwargs,
    ) -> "CoordinatorServer":
        """Rebuild a server from a checkpoint written by a previous run.

        The merged synopses come back through
        :func:`~repro.streams.checkpoint.restore_engine`; the per-site
        applied sequences come from the checkpoint's extra metadata, so
        reconnecting sites are greeted with exactly the sequence the
        restored state covers and re-ship everything newer.

        Without ``engine_factory`` the engine
        :func:`~repro.streams.checkpoint.restore_engine` rebuilt (window
        rings included, for a windowed checkpoint) becomes the
        coordinator's fold engine; with one, the factory's engine adopts
        the restored synopses.  ``engine_factory`` cannot be combined
        with a windowed checkpoint: the factory's engine would start
        with empty rings, silently dropping in-window state, so that
        combination raises :class:`ValueError` instead.

        When the checkpoint carries uplink state, the restored server
        keeps the same uplink incarnation, sequence counter, and
        retained exports (read back from their ``uplink/`` files), so
        the parent coordinator sees an unbroken peer: retained exports
        re-ship bit-identical cells and nothing is lost or
        double-applied.  The restored coordinator starts with no pending
        deltas (see :meth:`checkpoint`).  Pass the same ``parent_port``
        (and friends) as the original run.  Uplink state written by the
        format-2 layout, and an ill-typed ``extra["site_sequences"]`` or
        ``extra["uplink"]``, raise
        :class:`~repro.streams.checkpoint.CheckpointError`.
        """
        replay = restore_engine(checkpoint_dir)
        if engine_factory is None:
            coordinator = Coordinator(replay.spec, engine=replay)
        elif replay.is_windowed:
            raise ValueError(
                "cannot restore a windowed checkpoint into a "
                "factory-built fold engine (its window rings would "
                "start empty); omit engine_factory"
            )
        else:
            fold = engine_factory(replay.spec)
            fold.mark_replayed(replay.updates_processed)
            coordinator = Coordinator(replay.spec, engine=fold)
            for name, family in replay.families().items():
                coordinator.adopt_family(name, family)
        extra = read_checkpoint_extra(checkpoint_dir)
        for site_id, incarnation, sequence in _site_sequences(extra):
            coordinator.set_applied_sequence(site_id, incarnation, sequence)
        uplink_state = extra.get(_UPLINK_KEY)
        uplink_files: set[str] = set()
        restored_uplink = bool(uplink_state) and kwargs.get("parent_port") is not None
        if restored_uplink:
            kwargs = dict(kwargs)
            site = _restore_uplink_site(
                checkpoint_dir, uplink_state, coordinator
            )
            kwargs["uplink_site"] = site
            kwargs.pop("uplink_id", None)
            uplink_files = {
                _retained_file(site.incarnation, export.sequence)
                for export in site.exports_after(0)
            }
        server = cls(
            coordinator=coordinator, checkpoint_dir=checkpoint_dir, **kwargs
        )
        server._uplink_files = uplink_files
        # A restored uplink starts with nothing pending, so the restored
        # generation plus its next cut is the fold state.
        server._log_continues = restored_uplink
        # Everything the checkpoint restored is durable by definition.
        server._durable = coordinator.site_sequences()
        return server

    async def start(self) -> None:
        """Bind and start accepting site connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        if self._query_server is not None:
            await self._query_server.start()

    async def stop(self) -> None:
        """Stop accepting, drop live connections, and close the server.

        The uplink connection is closed too; its retained (unacked)
        exports stay on the site object — and, with checkpointing, in
        the checkpoint — for the next life to re-sync.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            for task in list(self._handlers):
                task.cancel()
            if self._handlers:
                await asyncio.gather(*self._handlers, return_exceptions=True)
            self._handlers.clear()
        for task in list(self._uplink_tasks):
            task.cancel()
        if self._uplink_tasks:
            await asyncio.gather(*self._uplink_tasks, return_exceptions=True)
        self._uplink_tasks.clear()
        if self._uplink is not None:
            await self._uplink.close()
        if self._query_server is not None:
            await self._query_server.stop()

    async def __aenter__(self) -> "CoordinatorServer":
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

    @property
    def query_server(self):
        """The mounted :class:`~repro.streams.serving.QueryServer`
        (``None`` unless constructed with ``query_port=``)."""
        return self._query_server

    @property
    def query_port(self) -> int | None:
        """The serving front end's bound port (``None`` when unmounted)."""
        if self._query_server is None:
            return None
        return self._query_server.port

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, TransportStats]:
        """Per-site transport counters (point-in-time copies)."""
        return {
            site_id: stats.snapshot() for site_id, stats in self._stats.items()
        }

    @property
    def uplink(self) -> SiteClient | None:
        """The uplink client to the parent coordinator (``None`` at the
        tree root)."""
        return self._uplink

    def uplink_stats(self) -> TransportStats | None:
        """Transport counters of the uplink hop (``None`` at the root)."""
        if self._uplink is None:
            return None
        return self._uplink.stats.snapshot()

    def transport_rollup(self) -> TransportStats:
        """One summed row over every connected child plus the uplink hop
        (for shutdown summaries and tree-wide dashboards)."""
        rows = list(self._stats.values())
        if self._uplink is not None:
            rows.append(self._uplink.stats)
        return rollup_transport_stats(rows)

    @property
    def total_deltas_applied(self) -> int:
        return self.coordinator.sites_collected

    @property
    def checkpoints_written(self) -> int:
        return self._checkpoints_written

    # -- queries (pass-through) -------------------------------------------

    def query(self, expression, epsilon: float = 0.1, window=None):
        return self.coordinator.query(expression, epsilon, window=window)

    def query_union(self, stream_names, epsilon: float = 0.1, window=None):
        return self.coordinator.query_union(
            stream_names, epsilon, window=window
        )

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> None:
        """Write the fold state plus the per-site sequence map now.

        With an uplink configured, a fresh uplink export is cut *first*
        and the uplink's state (incarnation, sequence counter, retained
        exports) is persisted with the same checkpoint.  That ordering
        is the tree-consistency invariant: the parent can only ever
        receive exports that this checkpoint (or an earlier one) can
        reproduce bit-identically, so a restored leaf never diverges
        from what its parent already folded.  It also leaves nothing
        pending at the checkpoint, so a restore needs no record of what
        the uplink had already cut.

        Retained exports not yet on disk are written to ``uplink/``
        before the manifest is published.  The cut holds everything
        folded since the previous generation, so its file is this
        generation's log entry; a dense base is written instead when
        there is no generation of this state to extend, when the log
        would outgrow the base, or when a windowed cut mixes stamped and
        unstamped deltas.  Files neither an unacked export nor the log
        needs are deleted after the manifest.  Durable acks advance only
        once the new manifest is in place.
        """
        if self._checkpoint_dir is None:
            raise ValueError("no checkpoint_dir configured")
        extra: dict = {_SITE_SEQUENCES_KEY: self.coordinator.site_sequences()}
        engine = self.coordinator.fold_engine
        retained: set[str] = set()
        # Should this checkpoint fail, the next one must write a base.
        log_continues, self._log_continues = self._log_continues, False
        if self._uplink is not None:
            uplink_site = self._uplink.site
            cut = uplink_site.export(window_at=self._uncut_window_at)
            # Where the cut's cells folded: at its stamp, but not past the
            # clock (a stamped empty delta does not move it).
            at = self._uncut_window_at
            if at is not None and engine.is_windowed:
                log_continues = log_continues and not self._uncut_unstamped
                at = min(at, engine.window_clock)
                if at == float("-inf"):  # no stamped cells folded yet
                    at = None
            self._uncut_window_at = None
            self._uncut_unstamped = False
            extra[_UPLINK_KEY] = uplink_site.to_state()
            unwritten = {}
            num_cells = self.coordinator.spec.counter_cells
            for export in uplink_site.exports_after(0):
                name = _retained_file(uplink_site.incarnation, export.sequence)
                retained.add(name)
                if name not in self._uplink_files:
                    unwritten[name] = codec.encode_cell_sets(
                        (
                            payload.cells(num_cells)
                            for payload in export.payloads.values()
                        ),
                        num_cells,
                    )
            write_checkpoint_files(self._checkpoint_dir, _UPLINK_DIR, unwritten)
            self._uplink_files.update(unwritten)
            log_continues = log_continues and append_checkpoint_log(
                engine,
                self._checkpoint_dir,
                _UPLINK_DIR,
                _retained_file(uplink_site.incarnation, cut.sequence),
                list(cut.payloads),
                window_at=at,
                extra=extra,
            )
        if not log_continues:
            checkpoint_engine(engine, self._checkpoint_dir, extra=extra)
        prune_checkpoint_files(self._checkpoint_dir, _UPLINK_DIR, retained)
        self._uplink_files &= retained
        self._log_continues = self._uplink is not None
        self._durable = {
            site: dict(history)
            for site, history in extra[_SITE_SEQUENCES_KEY].items()
        }
        self._applied_since_checkpoint = 0
        self._checkpoints_written += 1
        for stats in self._stats.values():
            stats.checkpoints_written += 1
        if self._uplink is not None:
            self._uplink.stats.checkpoints_written += 1

    # -- uplink (federation trees) ----------------------------------------

    async def ship_upstream(self) -> None:
        """Cut an aggregated export and push the retained backlog to the
        parent coordinator.

        With checkpointing enabled the cut happens inside
        :meth:`checkpoint` (see its invariant); without it the export is
        cut directly — a restart then starts a fresh incarnation, which
        keeps parent bookkeeping consistent without any durable state.
        Raises :class:`~repro.streams.net.site.SiteConnectionError` when
        the parent stays unreachable; the exports stay retained for the
        next attempt.
        """
        if self._uplink is None:
            raise ValueError("no parent coordinator configured")
        async with self._uplink_lock:
            self._cut_uplink()
            await self._uplink.flush_retained()

    def _cut_uplink(self) -> None:
        """Cut one uplink export of everything folded since the last cut,
        stamped with those deltas' newest ``window_at``."""
        if self._checkpoint_dir is not None:
            self.checkpoint()
        else:
            self._uplink.site.export(window_at=self._uncut_window_at)
            self._uncut_window_at = None

    def _keep_uplink_cut_in_one_bucket(self, window_at: float | None) -> None:
        """Cut the uplink before folding a delta from another window bucket.

        The parent files a whole uplink export in the one ring bucket
        of its stamp, so one cut must never span two buckets: deltas
        folded either side of a boundary and cut together would land a
        bucket late at the parent (a ``window_at`` of 2.0 in bucket 1
        and 2.1 in bucket 2, cut once and stamped 2.1).  Cutting here
        is synchronous — the pending ``flush_retained`` of a concurrent
        :meth:`ship_upstream` ships the extra export with the rest.

        Only exports that :meth:`_apply` is about to fold come here, so
        a re-shipped duplicate never cuts.  Sites whose clocks straddle
        a boundary fold alternately from two buckets, and every switch
        costs one cut (a full :meth:`checkpoint` when checkpointing)
        until the slowest site crosses.
        """
        if self._uplink is None or window_at is None:
            return
        if self._uncut_window_at is None or not self.coordinator.is_windowed:
            return
        width = self.coordinator.fold_engine.bucket_width
        if bucket_index(window_at, width) != bucket_index(self._uncut_window_at, width):
            self._cut_uplink()

    def _maybe_ship_upstream(self) -> None:
        if self._uplink is None or self._uplink_every == 0:
            return
        if self._applied_since_uplink < self._uplink_every:
            return
        self._applied_since_uplink = 0
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:  # applied outside the event loop (tests)
            return
        task = loop.create_task(self._ship_upstream_quietly())
        self._uplink_tasks.add(task)
        task.add_done_callback(self._uplink_tasks.discard)

    async def _ship_upstream_quietly(self) -> None:
        try:
            await self.ship_upstream()
        except (SiteConnectionError, protocol.ProtocolError, OSError):
            # The parent is down or misbehaving; retained exports
            # re-ship on the next scheduled or explicit attempt.
            pass

    def _durable_for(self, site_id: str, incarnation: str) -> int:
        if self._checkpoint_dir is None:
            # Nothing to restart from, so applied == durable: sites may
            # prune immediately instead of retaining forever.
            return self.coordinator.applied_sequence(site_id, incarnation)
        return self._durable.get(site_id, {}).get(incarnation, 0)

    def _maybe_checkpoint(self) -> None:
        if self._checkpoint_dir is None or self._checkpoint_every == 0:
            return
        if self._applied_since_checkpoint >= self._checkpoint_every:
            self.checkpoint()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            await self._serve_site(reader, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.CancelledError,
        ):
            # Dropped connection (possibly mid-frame): nothing was
            # applied for the partial message — frames are decoded in
            # full before any state changes — so the site simply
            # reconnects and re-syncs.
            pass
        except (protocol.ProtocolError, codec.CodecError) as exc:
            # CodecError: a malformed v2 payload is a protocol violation
            # detected at fold time (decoding happens inside collect).
            await self._send_error(writer, str(exc))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: a task cancelled mid-serve (server
                # shutdown) re-raises at this await; the socket is
                # already closing and the task ends right after, so
                # swallowing it here only silences loop-callback noise.
                pass

    async def _serve_site(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        header, _, nbytes = await protocol.read_message(
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
        site_id = header.get("site_id")
        if not isinstance(site_id, str) or not site_id:
            raise protocol.ProtocolError("hello carries no usable site_id")
        incarnation = header.get("incarnation")
        if not isinstance(incarnation, str) or not incarnation:
            raise protocol.ProtocolError("hello carries no usable incarnation")
        role = header.get("role", "site")
        if role not in protocol.ROLES:
            raise protocol.ProtocolError(
                f"hello role {role!r} not one of {protocol.ROLES}"
            )
        if role == "query":
            # A query client dialled the ingest port.  Fail loudly with
            # a pointer instead of waiting forever for deltas that will
            # never come.
            where = (
                f"the query port ({self._query_server.port})"
                if self._query_server is not None
                else "a coordinator started with query_port="
            )
            raise protocol.ProtocolError(
                f"this is the delta-ingest port; query sessions connect to {where}"
            )
        # -- v2 negotiation.  A v1 hello carries neither field; the
        # welcome then answers without them and the session stays dense
        # and unbatched — no flag day, old peers never see v2 framing.
        offered = header.get("encodings")
        session_encodings = codec.DENSE_ONLY
        if offered is not None:
            if not isinstance(offered, list) or not all(
                isinstance(name, str) for name in offered
            ):
                raise protocol.ProtocolError(
                    "hello 'encodings' must be a list of strings"
                )
            session_encodings = codec.negotiate_encodings(
                offered, self._encodings
            )
        requested = header.get("features")
        session_features: tuple = ()
        if requested is not None:
            if not isinstance(requested, list) or not all(
                isinstance(name, str) for name in requested
            ):
                raise protocol.ProtocolError(
                    "hello 'features' must be a list of strings"
                )
            session_features = tuple(
                name for name in protocol.FEATURES if name in requested
            )
        stats = self._stats.setdefault(
            site_id, TransportStats(site_id=site_id, role=role)
        )
        stats.role = role
        stats.frames_received += 1
        stats.bytes_received += nbytes
        stats.count_message("hello", nbytes)
        applied = self.coordinator.applied_sequence(site_id, incarnation)
        nbytes = await protocol.write_message(
            writer,
            protocol.welcome_message(
                applied,
                self._durable_for(site_id, incarnation),
                encodings=(
                    list(session_encodings) if offered is not None else None
                ),
                features=(
                    list(session_features) if requested is not None else None
                ),
            ),
        )
        stats.bytes_sent += nbytes
        stats.frames_sent += 1
        stats.count_message("welcome", nbytes)
        stats.resyncs += 1

        while True:
            header, blobs, nbytes = await protocol.read_message(
                reader, self._max_frame_bytes
            )
            stats.frames_received += 1
            stats.bytes_received += nbytes
            stats.count_message(str(header.get("type")), nbytes)
            if header.get("type") != "delta":
                raise protocol.ProtocolError(
                    f"expected delta, got {header.get('type')!r}"
                )
            export = protocol.export_from_message(header, blobs)
            if export.site_id != site_id or export.incarnation != incarnation:
                raise protocol.ProtocolError(
                    f"delta for site {export.site_id!r} "
                    f"(incarnation {export.incarnation!r}) on a connection "
                    f"that said hello as {site_id!r} ({incarnation!r})"
                )
            unexpected = sorted(
                {payload.encoding for payload in export.payloads.values()}
                - set(session_encodings)
            )
            if unexpected:
                raise protocol.ProtocolError(
                    f"delta uses encoding(s) {unexpected} the session did "
                    f"not negotiate (agreed: {list(session_encodings)})"
                )
            if export.batch_size > 1 and "batch" not in session_features:
                raise protocol.ProtocolError(
                    "delta covers a sequence range but the session did not "
                    "negotiate the 'batch' feature"
                )
            self._apply(export, stats)
            nbytes = await protocol.write_message(
                writer,
                protocol.ack_message(
                    self.coordinator.applied_sequence(site_id, incarnation),
                    self._durable_for(site_id, incarnation),
                ),
            )
            stats.bytes_sent += nbytes
            stats.frames_sent += 1
            stats.count_message("ack", nbytes)

    def _apply(self, export: DeltaExport, stats: TransportStats) -> None:
        from repro.errors import DeltaSequenceError

        last = self.coordinator.applied_sequence(export.site_id, export.incarnation)
        if export.batch_start == last + 1:  # collect() folds it: no duplicate
            self._keep_uplink_cut_in_one_bucket(export.window_at)
        try:
            applied = self.coordinator.collect(export)
        except DeltaSequenceError:
            # A gap (or a batch straddling the applied prefix): the ack
            # below carries the coordinator's actual applied sequence
            # and the site rewinds — and re-batches — from there.
            return
        if applied:
            if self._uplink is not None and export.window_at is not None:
                uncut = self._uncut_window_at
                self._uncut_window_at = (
                    export.window_at if uncut is None else max(uncut, export.window_at)
                )
            elif self._uplink is not None:
                self._uncut_unstamped = True
            stats.deltas_applied += export.batch_size
            stats.exports_coalesced += export.batch_size - 1
            stats.payload_bytes_wire += export.payload_bytes()
            stats.payload_bytes_dense += (
                len(export.payloads)
                * self.coordinator.spec.counter_payload_bytes
            )
            self._applied_since_checkpoint += export.batch_size
            self._applied_since_uplink += export.batch_size
            self._maybe_checkpoint()
            self._maybe_ship_upstream()
        else:
            stats.duplicates_dropped += 1

    async def _send_error(
        self, writer: asyncio.StreamWriter, message: str
    ) -> None:
        try:
            await protocol.write_message(
                writer, protocol.error_message(message)
            )
        except (ConnectionError, OSError):
            pass
