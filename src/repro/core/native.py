"""The native Greedy-Counting walk: ``_walk.c``, compiled at first use.

Standard library only.  The first call to :func:`kernel` in a process
compiles ``_walk.c`` with the C compiler named by ``$CC`` (default
``cc``) into the user's cache directory, ``$XDG_CACHE_HOME/repro-dod/``
(default ``~/.cache/repro-dod/``), and loads it with :mod:`ctypes`.
Later processes load the cached library.

* The compiler runs without a shell, under a timeout, with
  ``-O2 -ffp-contract=off`` and no fast-math: each coordinate term must
  round exactly as numpy's does (docs/margins.md, "Native walk
  margin").
* The file name carries the SHA-256 of the source, the flags and the
  machine type, so an edited source compiles to a new file.
* A library is written to a temporary file and moved into place with
  :func:`os.replace`, so concurrent processes never load a torn file.
  Its last 32 bytes are the SHA-256 of the rest; a file whose digest
  does not match (truncated or damaged) is rebuilt, not loaded.
* The cache directory is created with mode 0700.  When it cannot be
  used (not ours, not writable), the library is built in a private
  temporary directory that is removed once the library is loaded.

Any failure (no compiler, a compile error, a timeout, a library that
will not load) leaves :func:`kernel` returning ``None``, and
:func:`status` says why; the callers then run the numpy walk.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import tempfile
import threading
from pathlib import Path

SOURCE = Path(__file__).with_name("_walk.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
#: seconds one compile may take before it counts as a failure.
COMPILE_TIMEOUT = 60.0
_DIGEST = hashlib.sha256().digest_size


class CompileError(Exception):
    """The kernel could not be built or loaded (the message says why)."""


def cache_root() -> Path:
    """``$XDG_CACHE_HOME/repro-dod``, or ``~/.cache/repro-dod``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-dod"


def library_name(source: bytes) -> str:
    """File name of the library built from ``source`` with :data:`CFLAGS`."""
    key = hashlib.sha256(source)
    for part in (*CFLAGS, platform.machine()):
        key.update(b"\0" + part.encode())
    return f"walk-{key.hexdigest()[:32]}.so"


def _private_dir(path: Path) -> bool:
    """Create ``path`` (mode 0700) and report whether only we can write it."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return False
    getuid = getattr(os, "getuid", None)
    if getuid is not None and st.st_uid != getuid():
        return False
    return (st.st_mode & 0o022) == 0 and os.access(path, os.W_OK | os.X_OK)


def _intact(path: Path) -> bool:
    """True when ``path`` ends with the SHA-256 of the bytes before it."""
    try:
        blob = path.read_bytes()
    except OSError:
        return False
    body, digest = blob[:-_DIGEST], blob[-_DIGEST:]
    return len(blob) > _DIGEST and hashlib.sha256(body).digest() == digest


def build(source: bytes, directory: Path, cc: str) -> Path:
    """Compile ``source`` into ``directory`` unless an intact library is there.

    Returns the library's path; raises :class:`CompileError`.
    """
    target = directory / library_name(source)
    if _intact(target):
        return target
    argv = shlex.split(cc)
    if not argv:
        raise CompileError("CC is empty")
    with tempfile.TemporaryDirectory(dir=directory, prefix=".build-") as tmp:
        src, out = Path(tmp) / "walk.c", Path(tmp) / "walk.so"
        src.write_bytes(source)
        try:
            done = subprocess.run(
                [*argv, *CFLAGS, "-o", str(out), str(src), "-lm"],
                capture_output=True, timeout=COMPILE_TIMEOUT, check=False,
            )
        except subprocess.TimeoutExpired:
            raise CompileError(
                f"{argv[0]} took over {COMPILE_TIMEOUT:g} s"
            ) from None
        except OSError as exc:
            raise CompileError(f"cannot run {argv[0]}: {exc.strerror}") from None
        if done.returncode != 0 or not out.is_file():
            tail = done.stderr.decode(errors="replace").strip().splitlines()
            raise CompileError(
                f"{argv[0]} exited {done.returncode}"
                + (f": {tail[-1]}" if tail else "")
            )
        body = out.read_bytes()
        staged = Path(tmp) / "staged.so"
        staged.write_bytes(body + hashlib.sha256(body).digest())
        os.replace(staged, target)
    return target


class WalkKernel:
    """The loaded ``repro_walk_count`` entry point (see ``_walk.c``).

    Pointers are passed as addresses (``ndarray.ctypes.data``); the
    caller checks every array and keeps it alive during the call.
    """

    def __init__(self, path: Path):
        try:
            self._lib = ctypes.CDLL(str(path))
            fn = self._lib.repro_walk_count
        except (OSError, AttributeError) as exc:
            raise CompileError(f"cannot load {path.name}: {exc}") from None
        ptr = ctypes.c_void_p
        fn.argtypes = (
            ptr, ctypes.c_int64, ctypes.c_int,            # store, dim, p
            ptr, ptr, ptr,                                # indptr, indices, pivot
            ptr, ctypes.c_int64,                          # sources, nsrc
            ctypes.c_double, ctypes.c_int64, ctypes.c_double,  # r, k, band
            ptr, ptr, ctypes.c_int32,                     # stamp, queue, epoch
            ptr, ptr,                                     # counts, flagged
        )
        fn.restype = ctypes.c_int64
        self.walk_count = fn


def load(cc: str, directory: "Path | None") -> WalkKernel:
    """Build (or find) and load the kernel; raises :class:`CompileError`.

    ``directory`` is the cache to use, or ``None`` for a private
    temporary directory removed after loading.
    """
    source = SOURCE.read_bytes()
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="repro-dod-") as tmp:
            return WalkKernel(build(source, Path(tmp), cc))
    return WalkKernel(build(source, directory, cc))


_lock = threading.Lock()
_loaded: "tuple[WalkKernel | None, str] | None" = None


def _load_once() -> "tuple[WalkKernel | None, str]":
    global _loaded
    with _lock:
        if _loaded is None:
            root = cache_root()
            cc = os.environ.get("CC") or "cc"
            try:
                kern = load(cc, root if _private_dir(root) else None)
                _loaded = (kern, "native")
            except (CompileError, OSError) as exc:
                _loaded = (None, f"numpy: {exc}")
        return _loaded


def kernel() -> "WalkKernel | None":
    """The process's native walk, compiled or loaded at the first call;
    ``None`` when it could not be built (see :func:`status`)."""
    return _load_once()[0]


def status() -> str:
    """``"native"``, or ``"numpy: <reason>"`` when the kernel is missing."""
    return _load_once()[1]
