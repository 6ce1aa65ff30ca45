"""Zero-copy data plane: one shared object log, out-of-core sweeps.

Three acceptance measurements for the storage layer:

* **resident memory** — the mutable sharded engine keeps its vector
  log in one shared segment and must pin ~one copy of it regardless of
  shard count.  Accounting is exact, not sampled: the store reports
  its segment bytes, every worker reports the private bytes its
  dataset pins (``worker_store_nbytes`` — zero), and the post-vacuum
  segment is compacted to exact fit.  Headline: resident bytes
  <= 1.2x one copy of the live rows at 4 shards.
* **broadcast bytes** — an insert broadcast carries store metadata
  (name + offsets + generation, ~1e2 bytes) plus each shard's owned
  positions instead of the object batch; measured by serialising
  exactly what crosses the pool, it must be >= 10x smaller than the
  pickled batch.
* **out-of-core** — a memmapped dataset at least 2x larger than a
  hard allocation cap (``RLIMIT_DATA`` on a subprocess) must sweep to
  outlier sets bit-identical to the uncapped in-RAM run, while the
  same workload on the in-RAM path dies under the cap (proving the
  cap binds and the mapping, not the machine, is what fits).

Emits the machine-readable ``BENCH_store.json`` at the repo root with
:func:`hardware_gate` audit fields; identity assertions (the churn pass
== brute force, memmap == ram) always run, scaling assertions only at
full scale.
``REPRO_BENCH_SCALE`` shrinks the cardinality for a quick pass.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro import Dataset
from repro.datasets import blobs_with_outliers, calibrate_r
from repro.engine import MutableShardedDetectionEngine
from repro.harness import bench_scale, hardware_gate
from repro.index import brute_force_outliers
from repro.io import create_memmap_store

N_FULL = 4_000
DIM = 32
N_SHARDS = 4
K_NEIGHBORS = 8
#: out-of-core leg: allocation cap and a store >= 2x larger.
CAP_BYTES = 96 * 1024 * 1024
OOC_DIM_FULL = 12_288
OOC_N_FULL = 2_048
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_store.json"


@pytest.fixture(scope="module")
def workload():
    n = max(400, int(round(N_FULL * bench_scale())))
    points = blobs_with_outliers(
        n + n // 4, dim=DIM, n_clusters=8, core_std=0.7, tail_std=2.2,
        tail_frac=0.06, center_spread=13.0, planted_frac=0.01,
        planted_spread=60.0, rng=42,
    )
    base, extra = points[:n], points[n:]
    r, _ = calibrate_r(Dataset(base, "l2"), K_NEIGHBORS, 0.01)
    return base, extra, float(r)


class _BroadcastMeter:
    """Serialise exactly what one pool call ships to the shard actors."""

    def __init__(self, pool):
        self._pool = pool
        self._call = pool.call
        self.bytes_by_method: "dict[str, int]" = {}

    def install(self) -> None:
        def metered(method, shard_args=None, common=None):
            size = len(pickle.dumps((shard_args, common),
                                    protocol=pickle.HIGHEST_PROTOCOL))
            self.bytes_by_method[method] = (
                self.bytes_by_method.get(method, 0) + size
            )
            return self._call(method, shard_args=shard_args, common=common)

        self._pool.call = metered

    def remove(self) -> None:
        self._pool.call = self._call


def _run_store(base, extra, r):
    """One churn pass; returns its record and whether every detect
    matched brute force over the live rows."""
    engine = MutableShardedDetectionEngine(
        metric="l2", n_shards=N_SHARDS, workers=1, K=8, seed=0,
    )

    def exact(outliers) -> bool:
        live = engine.active_ids()
        brute = live[brute_force_outliers(engine.live_dataset(), r, K_NEIGHBORS)]
        return bool(np.array_equal(outliers, brute))

    try:
        engine.bulk_load(base)
        meter = _BroadcastMeter(engine._pool)
        meter.install()
        t0 = time.perf_counter()
        ids = engine.insert(extra)
        insert_s = time.perf_counter() - t0
        meter.remove()
        victims = engine.active_ids()[:: max(2, len(base) // 64)]
        engine.remove(victims.tolist())
        exact_pre = exact(engine.detect(r, K_NEIGHBORS).outliers)
        stats_pre = engine.store_stats()
        worker_pre = engine.worker_store_nbytes()
        engine.vacuum()
        exact_post = exact(engine.detect(r, K_NEIGHBORS).outliers)
        stats_post = engine.store_stats()
        worker_post = engine.worker_store_nbytes()
        single_copy = int(engine.live_dataset().store.nbytes)
        batch_bytes = len(
            pickle.dumps(list(extra), protocol=pickle.HIGHEST_PROTOCOL)
        )
        record = {
            "store": stats_post["kind"],
            "insert_seconds": round(insert_s, 6),
            "insert_broadcast_bytes": meter.bytes_by_method.get("ingest", 0),
            "pickled_batch_bytes": batch_bytes,
            "resident_nbytes_pre_vacuum": int(
                stats_pre["resident_nbytes"] + sum(worker_pre)
            ),
            "resident_nbytes_post_vacuum": int(
                stats_post["resident_nbytes"] + sum(worker_post)
            ),
            "single_copy_nbytes": single_copy,
            "replicas": stats_post["replicas"],
            "worker_store_nbytes": [int(b) for b in worker_pre + worker_post],
        }
        assert ids.tolist() == list(range(len(base), len(base) + len(extra)))
        return record, exact_pre and exact_post
    finally:
        engine.close()


_CHILD_SWEEP = textwrap.dedent("""\
    import json, resource, sys
    sys.path.insert(0, {src!r})
    import numpy as np
    from repro.engine import create_engine
    from repro.io import open_memmap_dataset

    resource.setrlimit(resource.RLIMIT_DATA, ({cap}, {cap}))
    dataset = open_memmap_dataset({path!r}, "l2")
    with create_engine(dataset, seed=3, K=8) as engine:
        sweep = engine.sweep({r_grid!r}, k={k})
        out = {{f"{{r:.17g}}": sweep.result(r, {k}).outliers.tolist()
               for r in {r_grid!r}}}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(json.dumps({{"outliers": out, "peak_rss": peak}}))
""")

_CHILD_RAM = textwrap.dedent("""\
    import resource, sys
    sys.path.insert(0, {src!r})
    import numpy as np
    resource.setrlimit(resource.RLIMIT_DATA, ({cap}, {cap}))
    try:
        arr = np.load({path!r})          # full in-RAM materialisation
        arr = arr + 0.0                  # force private pages
    except MemoryError:
        print("capped")
        sys.exit(0)
    print("fit", arr.nbytes)
""")


def _out_of_core_leg(tmpdir: str):
    """Sweep a memmapped store >= 2x an allocation cap; diff vs in-RAM."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    n = max(256, int(round(OOC_N_FULL * bench_scale())))
    points = blobs_with_outliers(
        n, dim=OOC_DIM_FULL, n_clusters=6, core_std=0.7, tail_std=2.0,
        tail_frac=0.05, center_spread=12.0, planted_frac=0.01,
        planted_spread=50.0, rng=7,
    )
    path = os.path.join(tmpdir, "ooc.npy")
    create_memmap_store(path, points, "l2")
    file_bytes = os.path.getsize(path)

    dataset = Dataset(points, "l2")
    # calibrate_r's kNN pass is wall-clock prohibitive at this width; a
    # pairwise-distance quantile picks an equally serviceable radius.
    gen = np.random.default_rng(0)
    qa = gen.integers(0, n, size=1500)
    qb = gen.integers(0, n, size=1500)
    keep = qa != qb
    r = float(np.quantile(dataset.pair_dist(qa[keep], qb[keep]), 0.10))
    r_grid = [0.95 * r, r, 1.05 * r]
    from repro.engine import create_engine

    with create_engine(dataset, seed=3, K=8) as engine:
        sweep = engine.sweep(r_grid, k=K_NEIGHBORS)
        ram_out = {f"{rr:.17g}": sweep.result(rr, K_NEIGHBORS).outliers.tolist()
                   for rr in r_grid}

    env = dict(os.environ, PYTHONPATH=src)
    capped = subprocess.run(
        [sys.executable, "-c",
         _CHILD_SWEEP.format(src=src, cap=CAP_BYTES, path=path,
                             r_grid=r_grid, k=K_NEIGHBORS)],
        capture_output=True, text=True, env=env, timeout=1800,
    )
    control = subprocess.run(
        [sys.executable, "-c",
         _CHILD_RAM.format(src=src, cap=CAP_BYTES, path=path)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    # A failed capped child is recorded, and asserted on after the
    # JSON is written.
    child = (
        json.loads(capped.stdout) if capped.returncode == 0
        else {"outliers": None, "peak_rss": 0}
    )
    record = {
        "store_file_bytes": int(file_bytes),
        "cap_bytes": CAP_BYTES,
        "file_over_cap": round(file_bytes / CAP_BYTES, 3),
        "n": n,
        "dim": OOC_DIM_FULL,
        "child_exit": capped.returncode,
        "child_error": (capped.stderr.strip().splitlines() or [""])[-1],
        "child_peak_rss": int(child["peak_rss"]),
        "identical_to_ram": child["outliers"] == ram_out,
        "ram_path_under_cap": control.stdout.strip(),
    }
    return record, child["outliers"], ram_out


def test_store_baseline(workload):
    base, extra, r = workload
    shm, exact = _run_store(base, extra, r)
    # Identity first: every detect of the churn pass is exact.
    assert exact

    with tempfile.TemporaryDirectory() as tmpdir:
        ooc, ooc_child, ooc_ram = _out_of_core_leg(tmpdir)

    memory_ratio = shm["resident_nbytes_post_vacuum"] / max(
        shm["single_copy_nbytes"], 1
    )
    broadcast_ratio = shm["pickled_batch_bytes"] / max(
        shm["insert_broadcast_bytes"], 1
    )

    full_scale = int(round(N_FULL * bench_scale())) >= N_FULL
    gate = hardware_gate(
        full_scale=full_scale and ooc["file_over_cap"] >= 2.0,
        required_cores=1,
    )
    payload = {
        "description": "object stores: the mutable engine's one shared "
                       f"vector log at {N_SHARDS} shards (resident bytes "
                       "against one copy, insert broadcast bytes against "
                       "the pickled batch), plus an out-of-core memmap "
                       "sweep under a hard allocation cap",
        "cpu_count": os.cpu_count() or 1,
        "n": len(base),
        "dim": DIM,
        "metric": "l2",
        "k": K_NEIGHBORS,
        "r": r,
        "shards": N_SHARDS,
        "records": [shm, ooc],
        "shm_memory_ratio_post_vacuum": round(memory_ratio, 3),
        "insert_broadcast_reduction": round(broadcast_ratio, 1),
        "hardware_gate": gate,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nshm resident {memory_ratio:.2f}x single copy, insert "
          f"broadcasts {broadcast_ratio:.0f}x smaller than the batch, "
          f"out-of-core {ooc['file_over_cap']:.1f}x over the cap "
          f"(baseline written to {OUTPUT.name})")

    assert shm["replicas"] == 1, payload
    assert not any(shm["worker_store_nbytes"]), payload
    if full_scale:
        assert memory_ratio <= 1.2, payload
        assert broadcast_ratio >= 10.0, payload
    assert ooc["child_exit"] == 0, ooc["child_error"]
    assert ooc["identical_to_ram"], (ooc_child, ooc_ram)
    if gate["assertion_ran"]:
        # The out-of-core acceptance numbers, asserted at full scale.
        assert ooc["file_over_cap"] >= 2.0, payload
        assert ooc["ram_path_under_cap"] == "capped", payload
