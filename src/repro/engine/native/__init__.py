"""The native sorted-slot loop and its on-demand build.

``slots.c`` holds ``slot_run``, the C form of an ensemble lane's
sorted-slot loop (:class:`~repro.engine.ensemble.lane.SlotLane`), and
``slot_store``, which files a pair Python resolved.  It
is built with the system C compiler the first time a packed cell needs
it — never at import — and loaded through :mod:`ctypes`, so the package
needs nothing beyond the standard library, a compiler and numpy.

The shared object is cached under the user cache directory
(``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``; only if that cannot
be used, a mode-0700 ``repro-<uid>`` directory in the system temp
directory), named by a hash of the source and the compile command, so
an edited source or compiler rebuilds and every later process just
loads it.  A directory or library that is not this user's alone is
never loaded from: another local user could have planted the file.
The build writes a temporary file and renames it into place, so
concurrent workers never load a half-written library.  Without a
compiler, or when the build or load fails, :func:`load_slots` logs once
and returns ``None``, and lanes run the Python loop, which produces the
same trajectories.
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path

__all__ = [
    "SLOT_BUDGET",
    "SLOT_GROW",
    "SLOT_MISS",
    "SLOT_REFILL",
    "SLOT_TARGET",
    "SlotLaneState",
    "load_slots",
]

_SOURCE = Path(__file__).with_name("slots.c")

#: Compiler flags.  The source goes in on stdin, so the command — part
#: of the cache key, like the source — names no checkout path.
_FLAGS = ("-O2", "-shared", "-fPIC", "-x", "c", "-")

#: Seconds a build may take before it counts as failed.
_BUILD_TIMEOUT = 120

# slot_run() return codes (the enum in slots.c).
SLOT_BUDGET = 0
SLOT_TARGET = 1
SLOT_REFILL = 2
SLOT_MISS = 3
SLOT_GROW = 4

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p


class SlotLaneState(ctypes.Structure):
    """The ``slot_lane`` struct of ``slots.c``, field for field."""

    _fields_ = [
        ("d1", _ptr),
        ("d2", _ptr),
        ("batch", _i64),
        ("cursor", _i64),
        ("slots", _ptr),
        ("prefix", _ptr),
        ("n", _i64),
        ("lead", _i64),
        ("target", _i64),
        ("post0", _ptr),
        ("post1", _ptr),
        ("cap", _i64),
        ("locals", _i64),
        ("limit", _i64),
        ("mark", _ptr),
        ("global_of", _ptr),
        ("local_of", _ptr),
        ("gpost0", _ptr),
        ("gpost1", _ptr),
        ("gcap", _i64),
        ("gmark", _ptr),
        ("steps", _i64),
        ("hits", _i64),
        ("pre0", _i64),
        ("pre1", _i64),
        ("gpre0", _i64),
        ("gpre1", _i64),
    ]


# The build's modules (hashlib, logging, shutil, subprocess, tempfile)
# are imported by the functions below, on first use: importing the
# engine must not pay for a build it may never run.


def _warn(message: str, *args) -> None:
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _private(path: Path) -> bool:
    """Whether ``path`` belongs to this user and no one else can write it."""
    try:
        info = path.stat()
    except OSError:
        return False
    return info.st_uid == os.getuid() and not info.st_mode & 0o022


def _cache_dir() -> Path | None:
    """The directory the library is built in and loaded from.

    The user cache directory, or — only when that cannot be used — a
    per-user ``repro-<uid>`` directory (mode 0700) in the system temp
    directory.  Either must belong to this user and be writable by no
    one else, so no other user can plant or swap a library in it.
    """
    import tempfile

    if not hasattr(os, "getuid"):
        return None
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    for directory in (
        Path(base) / "repro",
        Path(tempfile.gettempdir()) / f"repro-{os.getuid()}",
    ):
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue
        if _private(directory):
            return directory
    return None


def _build(compiler: str, source: bytes, key: str) -> Path | None:
    """The cached library for ``key``, compiling it if the cache lacks it.

    A cached file someone else could have written is not loaded: it is
    rebuilt over.
    """
    import subprocess
    import tempfile

    directory = _cache_dir()
    if directory is None:
        _warn(
            "no private cache directory for the native slot loop; "
            "lanes run in Python"
        )
        return None
    target = directory / f"slots-{key}.so"
    if _private(target):
        return target
    try:
        handle, partial = tempfile.mkstemp(
            prefix=target.name + ".", suffix=".tmp", dir=directory
        )
    except OSError as exc:
        _warn(
            "could not build the native slot loop (%s); lanes run in Python",
            exc,
        )
        return None
    os.close(handle)
    command = [compiler, "-o", partial, *_FLAGS]
    try:
        result = subprocess.run(
            command,
            input=source,
            capture_output=True,
            timeout=_BUILD_TIMEOUT,
            check=False,
        )
        if result.returncode != 0:
            _warn(
                "building the native slot loop failed (%s); lanes run "
                "in Python: %s",
                " ".join(command),
                result.stderr.decode(errors="replace").strip(),
            )
            return None
        os.replace(partial, target)
        return target
    except (OSError, subprocess.SubprocessError) as exc:
        _warn(
            "could not build the native slot loop (%s); lanes run in Python",
            exc,
        )
        return None
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


@functools.cache
def load_slots() -> ctypes.CDLL | None:
    """The loaded native loop, built on first use; ``None`` without one.

    Runs once per process: a failure is logged once and every later
    call returns the same ``None``.
    """
    import hashlib
    import shutil

    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        _warn("no C compiler found; ensemble lanes run in Python")
        return None
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source)
    digest.update(" ".join((compiler, *_FLAGS)).encode())
    path = _build(compiler, source, digest.hexdigest()[:16])
    if path is None:
        return None
    try:
        library = ctypes.CDLL(str(path))
    except OSError as exc:
        _warn("could not load %s (%s); lanes run in Python", path, exc)
        return None
    library.slot_run.argtypes = [ctypes.POINTER(SlotLaneState), _i64]
    library.slot_run.restype = ctypes.c_int
    library.slot_store.argtypes = [ctypes.POINTER(SlotLaneState), _i64, _i64]
    library.slot_store.restype = ctypes.c_int
    return library
