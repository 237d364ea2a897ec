"""Engine checkpointing.

Stream processing is one-pass: if the process dies, the stream cannot be
replayed to rebuild the synopses.  A checkpoint writes the engine's whole
state — the sketch spec (the coins) and every stream's counter array — to
a directory that :func:`restore_engine` turns back into a live engine.

Layout (format version 3)::

    <checkpoint>/
        manifest.json                    # version, generation, spec,
                                         # stream-name -> file map, extra
        streams/<escaped>.<gen>.sketch   # counter payload (to_bytes)
        uplink/<incarnation>-<seq>.cells # retained uplink exports
                                         # (network coordinator leaves)

Stream names are user data and may contain anything (``/``, ``..``,
``NUL``, characters illegal on the target filesystem), so they are never
used as file names directly: each name is percent-escaped into a safe
file stem and the manifest records the exact ``name -> file`` mapping.

**Publishing is atomic.**  Every checkpoint is a new *generation*:
payload files carry the generation in their name, so a checkpoint never
overwrites a file the current manifest names.  The payloads are written
and fsynced first; then the manifest is written to a temporary file,
fsynced, and moved over ``manifest.json`` with ``os.replace``, and the
directory is fsynced.  Only after that are files the new manifest does
not name deleted.  A crash at any point therefore leaves either the old
checkpoint or the new one — never new counters under an old manifest's
metadata (for the network coordinator, its per-site sequence map).

Immutable side files (``uplink/``) are added through
:func:`write_checkpoint_files` before the manifest that names them is
published, read back with :func:`read_checkpoint_file`, and dropped with
:func:`prune_checkpoint_files` once a published manifest no longer needs
them.  The network coordinator keeps each retained uplink export there
as one sparse-cell file (:func:`~repro.streams.net.codec.
encode_cell_sets`), written once however many checkpoints it stays
retained for.

Format-1 (raw names, no mapping) and format-2 (in-place writes)
checkpoints are still restorable through the manifest's file map.

Checkpoints of the removed sharded engine (a manifest with a ``shards``
key) are refused with a :class:`CheckpointError` naming that layout.

The counters are the only state; hash functions regenerate from the spec
seed, so checkpoints are small and portable across machines.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Iterable, Mapping
from urllib.parse import quote

from repro.core.family import SketchFamily, SketchSpec
from repro.errors import ReproError
from repro.streams.engine import StreamEngine

__all__ = [
    "checkpoint_engine",
    "restore_engine",
    "read_checkpoint_extra",
    "read_checkpoint_spec",
    "write_checkpoint_files",
    "read_checkpoint_file",
    "prune_checkpoint_files",
    "CheckpointError",
]

_FORMAT_VERSION = 3
_READABLE_VERSIONS = (1, 2, _FORMAT_VERSION)
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


def _previous_generation(directory: pathlib.Path) -> int:
    """The published manifest's generation (0 if there is none yet)."""
    try:
        manifest = json.loads((directory / _MANIFEST).read_text())
        return int(manifest.get("generation", 0))
    except (OSError, ValueError, TypeError, AttributeError):
        return 0


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


def _publish(directory, manifest: dict, named_payloads) -> None:
    """Write one checkpoint generation and make it the current one.

    The single writer behind every layout (flat and windowed):
    payloads first, each fsynced under a name unique to the new
    generation; then the manifest through a fsynced temporary file and
    ``os.replace``; then a directory fsync.  Files the new manifest no
    longer names are deleted only after that, so a crash at any step
    leaves a complete checkpoint — the old generation or the new one.
    """
    directory = pathlib.Path(directory)
    streams_dir = directory / _STREAMS_DIR
    streams_dir.mkdir(parents=True, exist_ok=True)
    generation = _previous_generation(directory) + 1
    files = _write_stream_payloads(streams_dir, named_payloads, generation)
    _sync_dir(streams_dir)
    manifest = {
        "format_version": _FORMAT_VERSION,
        "generation": generation,
        **manifest,
        "stream_files": files,
    }
    staged = directory / _STAGED_MANIFEST
    _write_synced(staged, json.dumps(manifest).encode())
    os.replace(staged, directory / _MANIFEST)
    _sync_dir(directory)
    _remove_unnamed(streams_dir, set(files.values()))


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

    Call only *after* the manifest that names exactly ``keep`` has been
    published; leftovers of a crashed checkpoint go the same way.
    """
    _remove_unnamed(pathlib.Path(directory) / _plain_name(folder), set(keep))


def checkpoint_engine(
    engine: StreamEngine,
    directory: str | pathlib.Path,
    extra: dict | None = None,
) -> None:
    """Write the engine's flushed state into ``directory`` (created if
    needed) as a new checkpoint generation, published atomically.

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
    manifest = {
        "spec": engine.spec.to_json_dict(),
        "streams": stream_names,
        "updates_processed": engine.updates_processed,
    }
    if extra:
        manifest["extra"] = extra
    _publish(directory, manifest, named_payloads)


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
            f"checkpoint format {version!r} not supported (expected "
            f"{_FORMAT_VERSION})"
        )
    return manifest


def _stream_file(manifest: dict, name: str) -> str:
    """The payload file for ``name`` (mapping in v2, raw name in v1)."""
    files = manifest.get("stream_files")
    if files is not None:
        try:
            return files[name]
        except KeyError:
            raise CheckpointError(
                f"manifest has no payload file for stream {name!r}"
            ) from None
    return f"{name}.sketch"  # format v1: raw names on disk


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

    Accepts checkpoints of format 1, 2 or 3.  A malformed manifest — a
    missing or unusable ``spec``, a ``streams`` entry that is not a list
    of names, a non-integer ``updates_processed``, an ill-typed
    ``extra["windows"]`` section, or the removed sharded layout — raises
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
    engine.mark_replayed(updates_processed)
    return engine
