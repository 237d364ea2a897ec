"""Build, cache and load the compiled hot loops in ``_kernel.c``.

The first import compiles the C source with the local ``gcc -O3`` into
``__pycache__/_kernel-<sha256 of the source>.so`` next to it; later
imports only ``dlopen`` the cached library.  Concurrent first imports
each compile to a private temp file and ``os.replace`` it into place,
so neither ever loads a half-written library.  Where the package
directory is read-only, each process compiles a private copy.

:data:`LIB` is the loaded library, or ``None`` when there is no
compiler, the build fails or outlasts :data:`_BUILD_TIMEOUT_S`, or the
host is big-endian: callers then take the numpy path that the C
functions are tested against.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_SOURCE = Path(__file__).with_name("_kernel.c")
#: A build takes well under a second; a compiler still running after
#: this long is treated as missing, so no import hangs on it.
_BUILD_TIMEOUT_S = 10.0
_P = ctypes.c_void_p
_I = ctypes.c_int64
_SIGNATURES = {
    "hash_scatter": (ctypes.c_int, [_P, _P, _I, _P, _I, _P, _P, _I, _I, _I, _P, _P, _P]),
    "diff_advance": (_I, [_P, _P, _P, _P, _P, _I]),
    "merge_cells": (_I, [_P, _P, _I, _P, _P, _I, _P, _P]),
    "sparse_body": (_I, [_P, _P, _I, _P]),
    "sparse_decode": (ctypes.c_int, [_P, _I, _I, ctypes.c_uint64, _P, _P]),
}


def _build(target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, scratch = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(handle)
    try:
        subprocess.run(
            ["gcc", "-O3", "-shared", "-fPIC", "-o", scratch, str(_SOURCE)],
            check=True,
            capture_output=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        os.replace(scratch, target)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _load() -> ctypes.CDLL | None:
    if sys.byteorder != "little":
        return None  # the C code reads the little-endian wire slabs natively
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    cached = _SOURCE.parent / "__pycache__" / f"_kernel-{digest}.so"
    try:
        if not cached.exists():
            _build(cached)
        lib = ctypes.CDLL(str(cached))
    except subprocess.TimeoutExpired:
        return None
    except (OSError, subprocess.CalledProcessError):
        # A read-only install: build a private, uncached copy instead of
        # loading from a predictable path in a shared temp directory.
        try:
            with tempfile.TemporaryDirectory() as private:
                target = Path(private) / "_kernel.so"
                _build(target)
                lib = ctypes.CDLL(str(target))
        except (OSError, subprocess.SubprocessError):
            return None
    for function, (restype, argtypes) in _SIGNATURES.items():
        getattr(lib, function).restype = restype
        getattr(lib, function).argtypes = argtypes
    return lib


#: The loaded kernel library, or ``None`` (numpy fallback).
LIB = _load()
