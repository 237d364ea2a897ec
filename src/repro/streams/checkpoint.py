"""Engine checkpointing.

Stream processing is one-pass: if the process dies, the stream cannot be
replayed to rebuild the synopses.  A checkpoint writes the engine's whole
state — the sketch spec (the coins) and every stream's counter array — to
a directory that :func:`restore_engine` turns back into a live engine.

Layout (format version 4)::

    <checkpoint>/
        manifest.json                    # version, generation, spec,
                                         # base stream-name -> file map,
                                         # log entries, extra
        streams/<escaped>.<gen>.sketch   # dense base payload (to_bytes)
        uplink/<incarnation>-<seq>.cells # cell files: log entries and
                                         # retained uplink exports
                                         # (network coordinator leaves)

Stream names are user data and may contain anything (``/``, ``..``,
``NUL``, characters illegal on the target filesystem), so they are never
used as file names directly: each name is percent-escaped into a safe
file stem and the manifest records the exact ``name -> file`` mapping.

**A generation is a dense base plus a cell log.**  The synopses are
linear, so a generation may keep the previous *base* (the dense payloads
:func:`checkpoint_engine` last wrote) and add one *log entry*
(:func:`append_checkpoint_log`): a sparse cells file already on disk,
the streams it covers and the window instant it folds at.  Restore is
the base plus every entry in generation order through
:meth:`~repro.streams.engine.StreamEngine.merge_cells`, exact because
int64 wrapping addition is a group.  A new base is written once the
log's bytes would exceed the base's, which empties the log.  Network
coordinator leaves log their uplink cuts' files.

**Publishing is atomic.**  Every generation is new: base payload files
carry the generation in their name and log files are written before a
manifest names them, so a checkpoint never overwrites a file the current
manifest names.  The payloads are written and fsynced first; then the
manifest is written to a temporary file, fsynced, and moved over
``manifest.json`` with ``os.replace``, and the directory is fsynced.
Only after that are files the new manifest does not name deleted.  A
crash at any point therefore leaves either the old checkpoint or the new
one — never new counters under an old manifest's metadata (for the
network coordinator, its per-site sequence map).

Immutable side files (``uplink/``) are added through
:func:`write_checkpoint_files` before the manifest that names them is
published, read back with :func:`read_checkpoint_file`, and dropped with
:func:`prune_checkpoint_files` once neither the caller nor the
published manifest's log needs them.  The network coordinator keeps
each retained uplink export there as one sparse-cell file, written once
however many generations it stays retained or logged for.

Formats 3 (a base with no log) and 4 are readable; older formats and
checkpoints of the removed sharded engine (a manifest with a ``shards``
key) are refused with a :class:`CheckpointError` naming them.

The counters are the only state; hash functions regenerate from the spec
seed, so checkpoints are small and portable across machines.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from typing import Iterable, Mapping
from urllib.parse import quote

from repro.core.family import SketchFamily, SketchSpec
from repro.errors import ReproError
from repro.streams.engine import StreamEngine

__all__ = [
    "checkpoint_engine",
    "append_checkpoint_log",
    "restore_engine",
    "read_checkpoint_extra",
    "read_checkpoint_spec",
    "write_checkpoint_files",
    "read_checkpoint_file",
    "prune_checkpoint_files",
    "CheckpointError",
]

_FORMAT_VERSION = 4
_READABLE_VERSIONS = (3, _FORMAT_VERSION)
_MANIFEST = "manifest.json"
_STAGED_MANIFEST = "manifest.json.tmp"
_STREAMS_DIR = "streams"


class CheckpointError(ReproError, ValueError):
    """A checkpoint directory is missing, malformed, or incompatible."""


def _escape_stream_name(name: str) -> str:
    """A filesystem-safe, collision-free file stem for a stream name.

    Percent-escapes everything outside ``[A-Za-z0-9_-]`` (``safe=""``
    escapes ``/`` too, so names cannot nest or traverse directories) and
    caps the stem length; the manifest mapping — not the escaping — is
    authoritative on restore, so the cap cannot cause ambiguity.
    """
    escaped = quote(name, safe="")
    escaped = escaped.replace(".", "%2E")  # forbid "..", hidden files
    if not escaped:
        escaped = "%00empty"
    return escaped[:150]


# -- durable file operations ---------------------------------------------------
#
# A file is fsynced before any manifest names it, and no file a published
# manifest names is ever rewritten or deleted: _publish below is the whole
# crash-consistency argument.


def _write_synced(path: pathlib.Path, payload) -> None:
    """Create (or truncate) ``path`` with ``payload`` and fsync it."""
    with open(path, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())


def _sync_dir(path: pathlib.Path) -> None:
    """Fsync a directory, making the entries created in it durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _remove_unnamed(folder: pathlib.Path, keep: set[str]) -> None:
    """Delete every file directly in ``folder`` whose name is not kept."""
    if not folder.is_dir():
        return
    for path in folder.iterdir():
        if path.name not in keep and path.is_file():
            os.unlink(path)


def _write_stream_payloads(
    streams_dir: pathlib.Path, named_payloads, generation: int
) -> dict[str, str]:
    """Write payloads under escaped, generation-tagged names; return the
    name -> file mapping."""
    files: dict[str, str] = {}
    used: set[str] = set()
    for name, payload in named_payloads:
        stem = _escape_stream_name(name)
        candidate = stem
        suffix = 0
        while candidate in used:  # length-capped stems may collide
            suffix += 1
            candidate = f"{stem}~{suffix}"
        used.add(candidate)
        files[name] = f"{candidate}.{generation}.sketch"
        _write_synced(streams_dir / files[name], payload)
    return files


def _publish(directory: pathlib.Path, manifest: dict) -> None:
    """Make ``manifest`` the current generation: a fsynced temporary
    file moved over ``manifest.json`` with ``os.replace``, then a
    directory fsync.  Every file it names must already be durable."""
    staged = directory / _STAGED_MANIFEST
    _write_synced(staged, json.dumps(manifest).encode())
    os.replace(staged, directory / _MANIFEST)
    _sync_dir(directory)


def _published(directory: pathlib.Path) -> dict | None:
    """The published manifest, or None when there is none usable."""
    try:
        return _load_manifest(directory)
    except CheckpointError:
        return None


def _plain_name(part: str) -> str:
    """``part`` if it is one plain path component, else CheckpointError."""
    if not part or part in (".", "..") or "/" in part or "\x00" in part:
        raise CheckpointError(f"unsafe checkpoint file name {part!r}")
    return part


def write_checkpoint_files(
    directory: str | pathlib.Path, folder: str, named_payloads: Mapping[str, bytes]
) -> None:
    """Durably add immutable side files under ``<directory>/<folder>/``.

    Call *before* publishing the checkpoint whose ``extra`` metadata
    refers to them: each file is fsynced, then the folder, so a manifest
    that names a file is never published ahead of its bytes.  Names
    must be unique to their content; a name is only ever rewritten
    after a crash lost the manifest that would have named it.
    """
    if not named_payloads:
        return
    folder_path = pathlib.Path(directory) / _plain_name(folder)
    folder_path.mkdir(parents=True, exist_ok=True)
    for name, payload in named_payloads.items():
        _write_synced(folder_path / _plain_name(name), payload)
    _sync_dir(folder_path)


def read_checkpoint_file(
    directory: str | pathlib.Path, folder: str, name: str
) -> bytes:
    """The bytes of a side file written by :func:`write_checkpoint_files`."""
    path = pathlib.Path(directory) / _plain_name(folder) / _plain_name(name)
    if not path.is_file():
        raise CheckpointError(f"missing checkpoint file {folder}/{name}")
    return path.read_bytes()


def prune_checkpoint_files(
    directory: str | pathlib.Path, folder: str, keep: Iterable[str]
) -> None:
    """Delete the side files under ``<directory>/<folder>/`` not in ``keep``.

    Call only *after* the manifest that needs ``keep`` has been
    published; leftovers of a crashed checkpoint go the same way.  The
    files the published manifest's log names are kept too, whatever
    ``keep`` says.
    """
    directory = pathlib.Path(directory)
    keep = set(keep)
    manifest = _published(directory)
    if manifest is not None:
        keep.update(
            name for entry_folder, name, _, _ in _manifest_log(manifest)
            if entry_folder == folder
        )
    _remove_unnamed(directory / _plain_name(folder), keep)


def checkpoint_engine(
    engine: StreamEngine,
    directory: str | pathlib.Path,
    extra: dict | None = None,
) -> None:
    """Write the engine's flushed state into ``directory`` (created if
    needed) as a new base generation with an empty log, published
    atomically.

    Payloads go to generation-named files and the manifest replaces the
    previous one in a single ``os.replace``; the previous generation's
    payloads are deleted only afterwards.  A crash mid-checkpoint leaves
    the previous checkpoint restorable and untouched.

    ``extra`` is an optional JSON-serialisable mapping stored verbatim in
    the manifest and returned by :func:`read_checkpoint_extra` — layers
    above the engine (e.g. the network coordinator's per-site delta
    sequence map, :mod:`repro.streams.net`) ride their fail-over metadata
    along in the same atomic unit as the counters they describe.
    Restore functions ignore it, so checkpoints with extra metadata stay
    readable by every existing consumer.

    A windowed engine's ring state rides automatically: the window
    config, shared clock, and live bucket indices land in
    ``extra["windows"]`` (a reserved key) and each non-zero bucket's
    counter payload is written next to the stream payloads under the key
    ``window/<stream>@<bucket>``.  :func:`restore_engine` rebuilds the
    rings; every other consumer simply ignores them and restores the
    all-time synopses.
    """
    engine.flush()
    stream_names = engine.stream_names()
    named_payloads = [
        (name, engine.family(name).to_bytes()) for name in stream_names
    ]
    extra = dict(extra) if extra else {}
    if engine.is_windowed:
        extra["windows"], bucket_payloads = engine.window_state()
        named_payloads.extend(
            (_window_key(key), payload) for key, payload in bucket_payloads
        )
    directory = pathlib.Path(directory)
    streams_dir = directory / _STREAMS_DIR
    streams_dir.mkdir(parents=True, exist_ok=True)
    previous = _published(directory)
    generation = 1 + (previous["generation"] if previous else 0)
    files = _write_stream_payloads(streams_dir, named_payloads, generation)
    _sync_dir(streams_dir)
    manifest = {
        "format_version": _FORMAT_VERSION,
        "generation": generation,
        "spec": engine.spec.to_json_dict(),
        "streams": stream_names,
        "updates_processed": engine.updates_processed,
        "stream_files": files,
        "base_bytes": sum(len(payload) for _, payload in named_payloads),
        "log": [],
    }
    if extra:
        manifest["extra"] = extra
    _publish(directory, manifest)
    _remove_unnamed(streams_dir, set(files.values()))


def append_checkpoint_log(
    engine: StreamEngine,
    directory: str | pathlib.Path,
    folder: str,
    name: str,
    streams: list[str],
    window_at: float | None = None,
    extra: dict | None = None,
) -> bool:
    """Publish the previous generation's base and log plus one entry:
    the cells file ``<folder>/<name>`` (:func:`write_checkpoint_files`,
    one :func:`~repro.streams.net.codec.encode_cell_sets` cell set per
    name in ``streams``), folded at ``window_at`` on restore.

    The caller guarantees that the previous generation plus the entry is
    ``engine``'s state: the file holds exactly the cells folded since,
    each at an instant in ``window_at``'s bucket and not after it.
    ``extra`` is stored as by :func:`checkpoint_engine` (the base's
    window section rides along).  Returns ``False``, publishing nothing,
    when there is no generation to extend or the log's bytes would
    exceed the base's; the caller then writes a base instead.
    """
    directory = pathlib.Path(directory)
    previous = _published(directory)
    if previous is None or "base_bytes" not in previous:  # format 3
        return False
    log = previous["log"]
    entry_bytes = (
        directory / _plain_name(folder) / _plain_name(name)
    ).stat().st_size
    log_bytes = sum(entry.get("bytes", 0) for entry in log) + entry_bytes
    if log_bytes > previous["base_bytes"]:
        return False
    manifest = {
        **previous,
        "generation": previous["generation"] + 1,
        "updates_processed": engine.updates_processed,
        "log": log
        + [
            {
                "file": f"{folder}/{name}",
                "streams": list(streams),
                "window_at": window_at,
                "bytes": entry_bytes,
            }
        ],
    }
    extra = dict(extra) if extra else {}
    windows = _window_meta(previous)
    if windows is not None:
        extra["windows"] = windows
    manifest.pop("extra", None)
    if extra:
        manifest["extra"] = extra
    _publish(directory, manifest)
    return True


def read_checkpoint_extra(directory: str | pathlib.Path) -> dict:
    """The ``extra`` metadata stored with a checkpoint (``{}`` if none)."""
    manifest = _load_manifest(pathlib.Path(directory))
    extra = manifest.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError("manifest 'extra' is not a mapping")
    return extra


def read_checkpoint_spec(directory: str | pathlib.Path) -> SketchSpec:
    """The :class:`~repro.core.family.SketchSpec` a checkpoint was written
    under, without restoring any counters.

    Lets a consumer build its own fold target first — e.g. a
    coordinator restoring into a factory-built engine — and then adopt
    the restored families into it.
    """
    return _manifest_spec(_load_manifest(pathlib.Path(directory)))


def _manifest_spec(manifest: dict) -> SketchSpec:
    try:
        return SketchSpec.from_json_dict(manifest["spec"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"manifest spec is unusable: {exc!r}") from exc


def _manifest_streams(manifest: dict) -> list[str]:
    streams = manifest.get("streams")
    if not isinstance(streams, list) or not all(
        isinstance(name, str) for name in streams
    ):
        raise CheckpointError("manifest 'streams' is not a list of names")
    return streams


def _manifest_updates(manifest: dict) -> int:
    updates = manifest.get("updates_processed", 0)
    if type(updates) is not int or updates < 0:
        raise CheckpointError(
            f"manifest 'updates_processed' is not a non-negative integer: "
            f"{updates!r}"
        )
    return updates


def _load_manifest(directory: pathlib.Path) -> dict:
    manifest_path = directory / _MANIFEST
    if not manifest_path.is_file():
        raise CheckpointError(f"no manifest.json under {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError("manifest is not a JSON object")
    version = manifest.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise CheckpointError(
            f"checkpoint format {version!r} not supported (this build "
            f"reads formats {_READABLE_VERSIONS[0]} and {_FORMAT_VERSION})"
        )
    return manifest


def _stream_file(manifest: dict, name: str) -> str:
    """The base payload file for ``name``."""
    files = manifest.get("stream_files")
    if not isinstance(files, dict) or name not in files:
        raise CheckpointError(f"manifest has no payload file for stream {name!r}")
    return files[name]


def _manifest_log(manifest: dict) -> list[tuple[str, str, list[str], float | None]]:
    """The ``(folder, file, streams, window_at)`` log entries, validated."""
    log = manifest.get("log", [])
    if not isinstance(log, list):
        raise CheckpointError(f"manifest 'log' is not a list: {log!r}")
    entries = []
    for entry in log:
        try:
            folder, name = entry["file"].split("/")
            streams, window_at = entry["streams"], entry.get("window_at")
        except (TypeError, KeyError, ValueError, AttributeError):
            streams = None
        if not (
            isinstance(streams, list)
            and all(isinstance(stream, str) for stream in streams)
            and (
                window_at is None
                or (_is_number(window_at) and math.isfinite(window_at))
            )
        ):
            raise CheckpointError(f"manifest has an unusable log entry {entry!r}")
        entries.append((_plain_name(folder), _plain_name(name), streams, window_at))
    return entries


def _replay_log(engine: StreamEngine, directory: pathlib.Path, manifest: dict) -> None:
    """Fold every log entry onto the restored base, in generation order."""
    # Deferred: the cells-file codec lives in the network layer, which
    # imports this module.
    from repro.streams.net import codec

    num_cells = engine.spec.counter_cells
    for folder, name, streams, window_at in _manifest_log(manifest):
        blob = read_checkpoint_file(directory, folder, name)
        try:
            cell_sets = codec.decode_cell_sets(blob, len(streams), num_cells)
        except codec.CodecError as exc:
            raise CheckpointError(
                f"log entry {folder}/{name} is corrupt: {exc}"
            ) from exc
        for stream, (indices, values) in zip(streams, cell_sets):
            engine.merge_cells(stream, indices, values, at=window_at)


def _read_family(
    directory: pathlib.Path, manifest: dict, name: str, spec: SketchSpec
) -> SketchFamily:
    payload_path = directory / _STREAMS_DIR / _stream_file(manifest, name)
    if not payload_path.is_file():
        raise CheckpointError(f"missing sketch payload for stream {name!r}")
    # from_bytes rebuilds the family's incremental per-level aggregates
    # from the restored counters, so queries on a restored engine go
    # straight to the maintained-totals fast path.
    return SketchFamily.from_bytes(payload_path.read_bytes(), spec)


def _window_key(bucket_key: str) -> str:
    """Payload-map key of one ring bucket (``bucket_key`` is
    ``"<stream>@<bucket>"`` from :meth:`StreamEngine.window_state`)."""
    return f"window/{bucket_key}"


def _window_meta(manifest: dict) -> dict | None:
    """The ``extra["windows"]`` section, validated (None if absent)."""
    extra = manifest.get("extra")
    if not isinstance(extra, dict):
        return None
    windows = extra.get("windows")
    if windows is None:
        return None

    def malformed(field: str):
        return CheckpointError(
            f"manifest 'extra[\"windows\"]' has an unusable {field}"
        )

    if not isinstance(windows, dict):
        raise malformed("section (not a mapping)")
    if not _is_number(windows.get("window_span")):
        raise malformed("window_span")
    for field in ("bucket_width", "clock"):
        if windows.get(field) is not None and not _is_number(windows[field]):
            raise malformed(field)
    streams = windows.get("streams", {})
    if not isinstance(streams, dict) or not all(
        isinstance(indices, list)
        and all(type(index) is int for index in indices)
        for indices in streams.values()
    ):
        raise malformed("streams (not a mapping of stream to bucket indices)")
    return windows


def _is_number(value) -> bool:
    return type(value) in (int, float) and value == value


def restore_engine(
    directory: str | pathlib.Path, batch_size: int = 4096
) -> StreamEngine:
    """Rebuild a live engine from a checkpoint directory.

    Accepts checkpoints of format 3 or 4: the base, then every log entry
    folded onto it in generation order.  A malformed manifest — a
    missing or unusable ``spec``, a ``streams`` entry that is not a list
    of names, a non-integer ``updates_processed``, an ill-typed
    ``extra["windows"]`` section or log entry, or the removed sharded
    layout — and a missing or corrupt log file raise
    :class:`CheckpointError`.

    A checkpoint written by a windowed engine restores as a windowed
    engine: the window config and ring clock come from
    ``extra["windows"]``, the live buckets from their payload files, and
    each ring's in-window total is rebuilt by summation (bit-identical
    by linearity).  Checkpoints without the section — anything written
    before windows existed — restore unwindowed, exactly as before.
    """
    directory = pathlib.Path(directory)
    manifest = _load_manifest(directory)
    if "shards" in manifest:
        raise CheckpointError(
            "the checkpoint holds the retired sharded layout (one payload "
            "per shard and stream); it cannot be restored"
        )
    spec = _manifest_spec(manifest)
    stream_names = _manifest_streams(manifest)
    updates_processed = _manifest_updates(manifest)
    windows = _window_meta(manifest)
    if windows is None:
        engine = StreamEngine(spec, batch_size=batch_size)
    else:
        try:
            engine = StreamEngine(
                spec,
                batch_size=batch_size,
                window_span=windows["window_span"],
                bucket_width=windows.get("bucket_width"),
                clock_policy=windows.get("clock_policy", "raise"),
            )
        except ValueError as exc:
            raise CheckpointError(
                f"manifest 'extra[\"windows\"]' has an unusable window "
                f"config: {exc}"
            ) from exc
    for name in stream_names:
        engine.adopt_family(name, _read_family(directory, manifest, name, spec))
    if windows is not None:
        files = manifest.get("stream_files", {})
        buckets_by_stream: dict[str, dict[int, SketchFamily]] = {}
        for stream, indices in windows.get("streams", {}).items():
            decoded: dict[int, SketchFamily] = {}
            for index in indices:
                key = _window_key(f"{stream}@{index}")
                if key in files:
                    decoded[int(index)] = _read_family(
                        directory, manifest, key, spec
                    )
            buckets_by_stream[stream] = decoded
        engine.restore_window_state(windows, buckets_by_stream)
    _replay_log(engine, directory, manifest)
    engine.mark_replayed(updates_processed)
    return engine
