"""The native walk's loader (``repro.core.native``).

* without a compiler (``CC`` failing, empty cache) the numpy walk runs,
  with the same outliers and no exception;
* a truncated cached library is rebuilt, not loaded;
* an edited source compiles to a new file name;
* two processes starting together on one empty cache both load it.

Tests that compile need the compiler the kernel was built with; they
skip where the kernel is unavailable.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import Dataset, build_graph
from repro.core import native
from repro.core.dod import graph_dod

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: fits a small L2 detector and prints the walk's status and outliers.
_DETECT = """
import json, numpy as np
from repro import Dataset, build_graph
from repro.core import native
from repro.core.dod import graph_dod
ds = Dataset(np.random.default_rng(0).normal(size=(300, 8)), "l2")
graph = build_graph("kgraph", ds, K=8, rng=0)
res = graph_dod(ds, graph, 2.5, 10)
print(json.dumps({"status": native.status(),
                  "outliers": res.outliers.tolist()}))
"""


@pytest.fixture()
def cc():
    """The compiler command; skips where the kernel is unavailable."""
    if native.kernel() is None:
        pytest.skip(native.status())
    return os.environ.get("CC") or "cc"


def _run(code, cache, **env):
    """Start ``python -c code`` with ``XDG_CACHE_HOME=cache``."""
    full = dict(os.environ, XDG_CACHE_HOME=str(cache), **env)
    full["PYTHONPATH"] = SRC + os.pathsep + full.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", code], env=full,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def _walk_line(kern):
    """Counts of a walk over three points on a line, linked 0-1-2."""
    store = np.array([[0.0], [1.0], [2.0]])
    indptr = np.array([0, 1, 3, 4], dtype=np.int64)
    indices = np.array([1, 0, 2, 1], dtype=np.int64)
    pivots = np.zeros(3, dtype=bool)
    sources = np.arange(3, dtype=np.int64)
    row = np.zeros(3, dtype=np.int32)
    queue = np.empty(3, dtype=np.int32)
    counts = np.empty(3, dtype=np.int64)
    flagged = np.empty(3, dtype=np.uint8)
    pairs = kern.walk_count(
        store.ctypes.data, 1, 2, indptr.ctypes.data, indices.ctypes.data,
        pivots.ctypes.data, sources.ctypes.data, 3, 1.5, 3, 0.0,
        row.ctypes.data, queue.ctypes.data, 0,
        counts.ctypes.data, flagged.ctypes.data,
    )
    return counts.tolist(), flagged.tolist(), pairs


def test_failing_compiler_runs_the_numpy_walk(tmp_path):
    """``CC=false`` with an empty cache: no exception, the numpy walk's
    status, no library written, and the native run's outliers."""
    proc = _run(_DETECT, tmp_path, CC="false")
    got = _finish(proc)
    assert got["status"].startswith("numpy: "), got["status"]
    assert not list((tmp_path / "repro-dod").glob("*.so"))
    ds = Dataset(np.random.default_rng(0).normal(size=(300, 8)), "l2")
    expected = graph_dod(ds, build_graph("kgraph", ds, K=8, rng=0), 2.5, 10)
    assert got["outliers"] == expected.outliers.tolist()


def test_truncated_library_is_rebuilt(tmp_path, cc):
    source = native.SOURCE.read_bytes()
    path = native.build(source, tmp_path, cc)
    whole = path.read_bytes()
    # Never loaded in this process, so truncating it in place is safe.
    path.write_bytes(whole[: len(whole) // 2])
    kern = native.load(cc, tmp_path)
    assert len(path.read_bytes()) == len(whole)
    assert _walk_line(kern) == ([1, 2, 1], [0, 0, 0], 6)


def test_edited_source_gets_a_new_file(tmp_path, cc):
    source = native.SOURCE.read_bytes()
    edited = source + b"\n/* edited */\n"
    assert native.library_name(edited) != native.library_name(source)
    first = native.build(source, tmp_path, cc)
    second = native.build(edited, tmp_path, cc)
    assert first != second and first.is_file() and second.is_file()
    # An intact library is found again, not recompiled.
    stamp = second.stat().st_mtime_ns
    assert native.build(edited, tmp_path, "false") == second
    assert second.stat().st_mtime_ns == stamp


def test_concurrent_first_loads_share_one_cache(tmp_path, cc):
    """Two processes compile into one empty cache at once; both load a
    whole library, and one file and no build directory remain."""
    procs = [_run(_DETECT, tmp_path, CC=cc) for _ in range(2)]
    first, second = (_finish(p) for p in procs)
    assert first["status"] == second["status"] == "native"
    assert first["outliers"] == second["outliers"]
    cache = tmp_path / "repro-dod"
    assert [p.name for p in cache.iterdir()] == [
        native.library_name(native.SOURCE.read_bytes())
    ]
    assert (cache.stat().st_mode & 0o777) == 0o700


def test_unusable_cache_builds_in_a_private_directory(tmp_path, cc, monkeypatch):
    """A cache path under a file cannot hold the library; it is built in
    a temporary directory instead, which is gone after loading."""
    blocked = tmp_path / "file"
    blocked.write_text("")
    assert not native._private_dir(blocked / "repro-dod")
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    kern = native.load(cc, None)
    assert _walk_line(kern)[0] == [1, 2, 1]
    assert not list(scratch.iterdir())
