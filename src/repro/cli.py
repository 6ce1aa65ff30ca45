"""Command-line interface.

Installed as ``repro-dod``::

    repro-dod suites                         # list the dataset suites
    repro-dod detect --suite glove           # detect outliers on a suite
    repro-dod detect --input pts.npy --r 0.5 --k 20
    repro-dod sweep --suite glove --k-grid 15,20,25   # engine-served grid
    repro-dod serve --suite glove --port 8734         # HTTP serving tier
    repro-dod experiment table5 --save-dir results
    repro-dod calibrate --suite sift --k 20 --target 0.01
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .datasets import SUITES, calibrate_r, get_spec, load_suite, make_objects


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dod",
        description=(
            "Proximity graph-based exact distance-based outlier detection "
            "(SIGMOD 2021 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_suites = sub.add_parser("suites", help="list the built-in dataset suites")
    p_suites.set_defaults(func=_cmd_suites)

    p_detect = sub.add_parser("detect", help="run outlier detection")
    src = p_detect.add_mutually_exclusive_group(required=True)
    src.add_argument("--suite", choices=sorted(SUITES), help="built-in suite")
    src.add_argument("--input", help=".npy file of row vectors, or a text file "
                                     "with one string per line (with --metric edit)")
    p_detect.add_argument("--metric", default="l2", help="metric for --input data")
    p_detect.add_argument("--n", type=int, default=None, help="suite cardinality")
    p_detect.add_argument("--r", type=float, default=None, help="distance threshold")
    p_detect.add_argument("--k", type=int, default=None, help="count threshold")
    p_detect.add_argument("--graph", default="mrpg",
                          choices=["mrpg", "mrpg-basic", "kgraph", "nsw"])
    p_detect.add_argument("--K", type=int, default=16, help="graph degree")
    p_detect.add_argument("--seed", type=int, default=0)
    p_detect.add_argument("--shards", type=int, default=1,
                          help="partition the dataset into this many shards, "
                               "each owning a shard-local graph (exact merge)")
    p_detect.add_argument("--workers", type=int, default=None,
                          help="worker processes hosting the shards "
                               "(default: min(shards, cpu count); 1 = in-process)")
    p_detect.add_argument("--store", default="ram", choices=["ram", "memmap"],
                          help="object storage: ram (in-memory copy) or memmap "
                               "(map an --input .npy written by "
                               "repro.io.create_memmap_store; out-of-core, "
                               "identical answers)")
    p_detect.add_argument("--build-workers", type=int, default=1,
                          help="processes for graph construction (worker-count-"
                               "invariant: same seed, same graph at any count; "
                               "default: 1, in-process)")
    p_detect.add_argument("--verbose", action="store_true",
                          help="print per-phase graph-build statistics")
    p_detect.add_argument("--output", help="write outlier ids to this file")
    p_detect.set_defaults(func=_cmd_detect)

    p_sweep = sub.add_parser(
        "sweep", help="serve an (r, k) grid from one DetectionEngine"
    )
    src = p_sweep.add_mutually_exclusive_group(required=True)
    src.add_argument("--suite", choices=sorted(SUITES), help="built-in suite")
    src.add_argument("--input", help=".npy file of row vectors, or a text file "
                                     "with one string per line (with --metric edit)")
    p_sweep.add_argument("--metric", default="l2", help="metric for --input data")
    p_sweep.add_argument("--n", type=int, default=None, help="suite cardinality")
    p_sweep.add_argument("--r", type=float, default=None,
                         help="base distance threshold (default: suite default)")
    p_sweep.add_argument("--k", type=int, default=None,
                         help="base count threshold (default: suite default)")
    p_sweep.add_argument("--r-grid", default=None,
                         help="comma-separated radii (default: 0.9..1.1 x base r)")
    p_sweep.add_argument("--k-grid", default=None,
                         help="comma-separated k values (default: base k)")
    p_sweep.add_argument("--graph", default="mrpg",
                         choices=["mrpg", "mrpg-basic", "kgraph", "nsw"])
    p_sweep.add_argument("--K", type=int, default=16, help="graph degree")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--shards", type=int, default=1,
                         help="partition the dataset into this many shards, "
                              "each owning a shard-local graph (exact merge)")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker processes hosting the shards "
                              "(default: min(shards, cpu count); 1 = in-process)")
    p_sweep.add_argument("--store", default="ram", choices=["ram", "memmap"],
                         help="object storage: ram (in-memory copy) or memmap "
                              "(map an --input .npy written by "
                              "repro.io.create_memmap_store; out-of-core, "
                              "identical answers)")
    p_sweep.add_argument("--build-workers", type=int, default=1,
                         help="processes for graph construction (worker-count-"
                              "invariant; default: 1, in-process)")
    p_sweep.add_argument("--check", action="store_true",
                         help="verify every grid point against a fresh graph_dod "
                              "run and report the reuse speedup")
    p_sweep.add_argument("--snapshot", default=None,
                         help="engine snapshot directory: loaded warm when it "
                              "exists, written after the sweep")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("name", help="experiment id (table1..table8, fig6..fig10, "
                                    "ablation) or 'all'")
    p_exp.add_argument("--save-dir", default=None, help="directory for .txt tables")
    p_exp.add_argument("--scale", type=float, default=None,
                       help="override REPRO_BENCH_SCALE")
    p_exp.set_defaults(func=_cmd_experiment)

    p_topn = sub.add_parser("topn", help="rank the top-n outliers by k-NN distance")
    p_topn.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_topn.add_argument("--n-top", type=int, default=10)
    p_topn.add_argument("--k", type=int, default=None)
    p_topn.add_argument("--n", type=int, default=None)
    p_topn.add_argument("--K", type=int, default=16, help="graph degree for seeding")
    p_topn.add_argument("--no-graph", action="store_true",
                        help="plain ORCA without graph seeding")
    p_topn.add_argument("--seed", type=int, default=0)
    p_topn.set_defaults(func=_cmd_topn)

    p_update = sub.add_parser(
        "update",
        help="churn a mutable engine: batched inserts/removes answered "
             "from repaired evidence",
    )
    p_update.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_update.add_argument("--n", type=int, default=None, help="suite cardinality")
    p_update.add_argument("--r", type=float, default=None)
    p_update.add_argument("--k", type=int, default=None)
    p_update.add_argument("--batches", type=int, default=5,
                          help="insert the suite in this many batches")
    p_update.add_argument("--churn", type=float, default=0.1,
                          help="fraction of live objects removed between batches")
    p_update.add_argument("--K", type=int, default=16,
                          help="incremental graph degree")
    p_update.add_argument("--rebuild-every", type=int, default=None,
                          help="auto-rebuild the graph after this many mutations")
    p_update.add_argument("--shards", type=int, default=1,
                          help="route mutations across this many mutable "
                               "shards (batched per-shard evidence repair)")
    p_update.add_argument("--workers", type=int, default=None,
                          help="worker processes hosting the shards "
                               "(default: min(shards, cpu count); 1 = in-process)")
    p_update.add_argument("--store", default="ram", choices=["ram", "shm"],
                          help="object storage: ram (per-worker copies) or shm "
                               "(one growable shared segment every shard "
                               "worker maps zero-copy; identical answers)")
    p_update.add_argument("--build-workers", type=int, default=1,
                          help="processes for graph rebuilds (worker-count-"
                               "invariant; default: 1, in-process)")
    p_update.add_argument("--rebalance", action="store_true",
                          help="run the automatic shard split/merge policy "
                               "after every batch (needs --shards > 1)")
    p_update.add_argument("--seed", type=int, default=0)
    p_update.add_argument("--check", action="store_true",
                          help="verify every detection against brute force "
                               "over the live objects")
    p_update.add_argument("--snapshot", default=None,
                          help="mutable-engine snapshot directory: loaded warm "
                               "when it exists (skipping the churn trace), "
                               "written after a cold run")
    p_update.set_defaults(func=_cmd_update)

    p_stream = sub.add_parser("stream", help="sliding-window outlier monitoring")
    p_stream.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_stream.add_argument("--n", type=int, default=None)
    p_stream.add_argument("--r", type=float, default=None)
    p_stream.add_argument("--k", type=int, default=None)
    p_stream.add_argument("--window", type=int, default=None,
                          help="window size (default n/4)")
    p_stream.add_argument("--shards", type=int, default=1,
                          help="drive the window over a mutable sharded "
                               "engine with this many shards")
    p_stream.add_argument("--workers", type=int, default=None,
                          help="worker processes hosting the shards")
    p_stream.add_argument("--seed", type=int, default=0)
    p_stream.add_argument("--check", action="store_true",
                          help="verify every report against quadratic window "
                               "recomputation")
    p_stream.set_defaults(func=_cmd_stream)

    p_serve = sub.add_parser(
        "serve",
        help="serve (r, k) queries over HTTP with coalesced concurrent "
             "batching (async front-end on one engine)",
    )
    src = p_serve.add_mutually_exclusive_group(required=True)
    src.add_argument("--suite", choices=sorted(SUITES), help="built-in suite")
    src.add_argument("--input", help=".npy file of row vectors, or a text file "
                                     "with one string per line (with --metric edit)")
    p_serve.add_argument("--metric", default="l2", help="metric for --input data")
    p_serve.add_argument("--n", type=int, default=None, help="suite cardinality")
    p_serve.add_argument("--graph", default="mrpg",
                         choices=["mrpg", "mrpg-basic", "kgraph", "nsw"])
    p_serve.add_argument("--K", type=int, default=16, help="graph degree")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--shards", type=int, default=1,
                         help="serve from a sharded engine with this many shards")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="worker processes hosting the shards")
    p_serve.add_argument("--mutable", action="store_true",
                         help="serve a mutable engine (enables POST "
                              "/insert and /remove)")
    p_serve.add_argument("--store", default="ram",
                         choices=["ram", "shm", "memmap"],
                         help="object storage: ram (in-memory), shm (growable "
                              "shared segment, needs --mutable), or memmap "
                              "(map an --input .npy written by "
                              "repro.io.create_memmap_store)")
    p_serve.add_argument("--build-workers", type=int, default=1,
                         help="processes for graph construction (worker-count-"
                              "invariant; default: 1, in-process)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8734,
                         help="listening port (0 picks a free port)")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="most requests drained into one engine call")
    p_serve.add_argument("--max-queue", type=int, default=1024,
                         help="queue depth past which requests get 503")
    p_serve.add_argument("--max-cold", type=int, default=4,
                         help="cold (never-served) radii admitted per batch")
    p_serve.add_argument("--deadline", type=float, default=30.0,
                         help="default per-request deadline in seconds "
                              "(expiry returns 504)")
    p_serve.add_argument("--serve-seconds", type=float, default=None,
                         help="stop after this many seconds (smoke tests; "
                              "default: serve until SIGTERM or SIGINT)")
    p_serve.set_defaults(func=_cmd_serve)

    p_cal = sub.add_parser("calibrate", help="calibrate r for a target outlier ratio")
    p_cal.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_cal.add_argument("--k", type=int, required=True)
    p_cal.add_argument("--target", type=float, required=True,
                       help="target outlier ratio in (0, 1)")
    p_cal.add_argument("--n", type=int, default=None)
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.set_defaults(func=_cmd_calibrate)
    return parser


def _cmd_suites(args: argparse.Namespace) -> int:
    print(f"{'suite':9s} {'n':>6s} {'dim':>6s} {'metric':8s} "
          f"{'r':>10s} {'k':>4s} {'ratio':>7s}  description")
    for spec in SUITES.values():
        print(
            f"{spec.name:9s} {spec.default_n:6d} {spec.dim:>6s} "
            f"{spec.metric:8s} {spec.default_r:10g} {spec.default_k:4d} "
            f"{100 * spec.calibrated_ratio:6.2f}%  {spec.description}"
        )
    return 0


def _load_input(path: str, metric: str):
    if path.endswith(".npy"):
        return np.load(path)
    with open(path, "r", encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if line.strip()]


def _memmap_dataset(args: argparse.Namespace, metric: str):
    """Map ``--input`` as an out-of-core dataset (``--store memmap``)."""
    from .exceptions import ParameterError
    from .io import open_memmap_dataset

    if not args.input or not args.input.endswith(".npy"):
        raise ParameterError(
            "--store memmap maps an --input .npy store (write one with "
            "repro.io.create_memmap_store)"
        )
    return open_memmap_dataset(args.input, metric)


def _print_build_stats(engine) -> None:
    """Per-phase graph-build statistics (``detect --verbose``)."""
    getter = getattr(engine, "build_stats", None)
    stats = getter() if callable(getter) else {}
    if not stats:
        print("build stats: unavailable for this engine")
        return
    print("build stats:")
    per_shard = stats.pop("per_shard", None)
    for key in sorted(stats):
        value = stats[key]
        if isinstance(value, float):
            print(f"  {key}: {value:.3f}")
        else:
            print(f"  {key}: {value}")
    if per_shard:
        for s, entry in enumerate(per_shard):
            secs = entry.get("build_seconds")
            secs = "?" if secs is None else f"{float(secs):.3f}s"
            print(f"  shard {s}: build {secs}, "
                  f"workers {entry.get('build_workers', 1)}")


def _cmd_detect(args: argparse.Namespace) -> int:
    if args.suite:
        objects = make_objects(args.suite, n=args.n, seed=args.seed)
        spec = get_spec(args.suite)
        metric = spec.metric
        r = args.r if args.r is not None else spec.default_r
        k = args.k if args.k is not None else spec.default_k
    else:
        metric = args.metric
        if args.r is None or args.k is None:
            print("detect: --r and --k are required with --input", file=sys.stderr)
            return 2
        r, k = args.r, args.k
        objects = (None if args.store == "memmap"
                   else _load_input(args.input, args.metric))
    if args.store == "memmap":
        if args.suite:
            print("detect: --store memmap needs --input (a prepared .npy "
                  "store)", file=sys.stderr)
            return 2
        objects = _memmap_dataset(args, metric)
    from .engine import create_engine

    with create_engine(
        objects, metric=metric, graph=args.graph, K=args.K, seed=args.seed,
        shards=args.shards, workers=args.workers,
        build_workers=args.build_workers,
    ) as engine:
        result = engine.query(r, k)
        print(result.summary())
        print(f"index size: {engine.index_nbytes / 1024:.1f} KiB "
              f"({engine.describe()})")
        if args.verbose:
            _print_build_stats(engine)
    if args.output:
        np.savetxt(args.output, result.outliers, fmt="%d")
        print(f"outlier ids written to {args.output}")
    else:
        preview = ", ".join(str(int(p)) for p in result.outliers[:20])
        more = "" if result.n_outliers <= 20 else f", ... (+{result.n_outliers - 20})"
        print(f"outliers: [{preview}{more}]")
    return 0


def _parse_grid(raw: "str | None", cast):
    if raw is None:
        return None
    from .exceptions import ParameterError

    values = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            values.append(cast(tok))
        except ValueError:
            raise ParameterError(
                f"invalid grid value {tok!r} (expected comma-separated "
                f"{cast.__name__}s)"
            ) from None
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time

    from .core.dod import graph_dod
    from .exceptions import GraphError

    if args.suite:
        objects = make_objects(args.suite, n=args.n, seed=args.seed)
        spec = get_spec(args.suite)
        metric = spec.metric
        base_r = args.r if args.r is not None else spec.default_r
        base_k = args.k if args.k is not None else spec.default_k
    else:
        metric = args.metric
        if (args.r is None and args.r_grid is None) or (
            args.k is None and args.k_grid is None
        ):
            print("sweep: --r/--r-grid and --k/--k-grid are required with --input",
                  file=sys.stderr)
            return 2
        base_r, base_k = args.r, args.k
        objects = (None if args.store == "memmap"
                   else _load_input(args.input, args.metric))

    r_grid = _parse_grid(args.r_grid, float)
    if r_grid is None:
        r_grid = [base_r * f for f in (0.9, 0.95, 1.0, 1.05, 1.1)]
    k_grid = _parse_grid(args.k_grid, int)
    if k_grid is None:
        k_grid = [base_k]
    if not r_grid or not k_grid:
        print("sweep: --r-grid/--k-grid must name at least one value",
              file=sys.stderr)
        return 2

    from .data import Dataset
    from .engine import create_engine

    if args.store == "memmap":
        if args.suite:
            print("sweep: --store memmap needs --input (a prepared .npy "
                  "store)", file=sys.stderr)
            return 2
        dataset = _memmap_dataset(args, metric)
    else:
        dataset = Dataset(objects, metric)
    engine = None
    if args.snapshot is not None and os.path.exists(args.snapshot):
        from .io import load_any_engine

        try:
            engine = load_any_engine(
                args.snapshot, dataset=dataset, workers=args.workers
            )
            print(f"loaded warm engine snapshot from {args.snapshot} "
                  f"({engine.stats['queries']} queries served before restart)")
            if engine.graph_name != args.graph or engine.graph_degree != args.K:
                print(
                    f"sweep: note: snapshot was built with "
                    f"graph={engine.graph_name} K={engine.graph_degree}; the "
                    f"--graph/--K arguments are ignored on a warm load",
                    file=sys.stderr,
                )
        except GraphError as exc:
            print(f"sweep: cannot load snapshot: {exc}", file=sys.stderr)
            return 2
    if engine is None:
        engine = create_engine(
            dataset, graph=args.graph, K=args.K, seed=args.seed,
            shards=args.shards, workers=args.workers,
            build_workers=args.build_workers,
        )

    try:
        t0 = time.perf_counter()
        sweep = engine.sweep(r_grid, k_grid=k_grid)
        engine_s = time.perf_counter() - t0

        print(f"{'r':>10s} {'k':>5s} {'outliers':>9s} {'seconds':>9s} "
              f"{'cache_decided':>14s}")
        for r, k in sweep.queries:
            res = sweep.result(r, k)
            print(f"{r:10.4g} {k:5d} {res.n_outliers:9d} {res.seconds:9.4f} "
                  f"{res.counts['cache_decided']:14d}")
        print(f"{len(sweep.queries)} queries in {engine_s:.3f}s, "
              f"{sweep.pairs:,} distance computations")

        if args.check:
            # The check runs the scalar oracle path over one full
            # (unsharded) fresh graph, so it also cross-checks the
            # batched kernels and any shard merge against the
            # one-object-at-a-time walk.
            from .graphs.base import build_graph
            from .rng import ensure_rng

            check_graph = build_graph(
                args.graph, dataset, K=args.K, rng=ensure_rng(args.seed)
            )
            t0 = time.perf_counter()
            for r, k in sweep.queries:
                fresh = graph_dod(
                    dataset.view(), check_graph, r, k, rng=args.seed,
                    mode="scalar",
                )
                if not fresh.same_outliers(sweep.result(r, k)):
                    print(f"sweep: MISMATCH vs graph_dod at r={r} k={k}",
                          file=sys.stderr)
                    return 1
            naive_s = time.perf_counter() - t0
            print(f"check passed: all {len(sweep.queries)} grid points "
                  f"identical to fresh graph_dod runs ({naive_s:.3f}s naive, "
                  f"{naive_s / engine_s:.2f}x speedup from reuse)")

        if args.snapshot is not None:
            engine.save(args.snapshot)
            print(f"engine snapshot written to {args.snapshot}")
        return 0
    finally:
        # Worker processes (and any spawn-mode shared memory) must be
        # released on every exit path, including --check mismatches.
        engine.close()


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .harness import EXPERIMENTS, run_experiment

    if args.scale is not None:
        os.environ["REPRO_BENCH_SCALE"] = str(args.scale)
    names = sorted(EXPERIMENTS) if args.name.lower() == "all" else [args.name]
    for name in names:
        for table in run_experiment(name, save_dir=args.save_dir):
            print(table.format())
            print()
    return 0


def _cmd_topn(args: argparse.Namespace) -> int:
    from .extensions import top_n_outliers
    from .graphs import build_graph

    dataset, spec = load_suite(args.suite, n=args.n, seed=args.seed)
    k = args.k if args.k is not None else spec.default_k
    graph = None
    if not args.no_graph:
        graph = build_graph("mrpg", dataset, K=args.K, rng=args.seed)
    result = top_n_outliers(dataset, args.n_top, k, graph=graph, rng=args.seed)
    print(f"suite={args.suite} n={dataset.n} k={k} "
          f"seeding={'mrpg' if graph is not None else 'none'}")
    print(f"{result.seconds:.3f}s, {result.pairs:,} distance computations, "
          f"{result.pruned_objects} objects pruned")
    print(f"{'rank':>4s} {'id':>7s} {'kNN distance':>13s}")
    for rank, (obj, score) in enumerate(zip(result.ids, result.scores), start=1):
        print(f"{rank:4d} {int(obj):7d} {score:13.4f}")
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from .engine import create_engine
    from .exceptions import GraphError
    from .index import brute_force_outliers

    objects = make_objects(args.suite, n=args.n, seed=args.seed)
    spec = get_spec(args.suite)
    r = args.r if args.r is not None else spec.default_r
    k = args.k if args.k is not None else spec.default_k
    if args.batches < 1 or not 0.0 <= args.churn < 1.0:
        print("update: need --batches >= 1 and 0 <= --churn < 1", file=sys.stderr)
        return 2
    if args.rebalance and args.shards < 2:
        print("update: --rebalance needs --shards > 1", file=sys.stderr)
        return 2
    def checked_detect(engine, tag: str) -> "int | None":
        result = engine.detect(r, k)
        cache_hits = result.counts.get("cache_decided", 0)
        print(f"{tag:>18s}: live={engine.n_active:5d} "
              f"outliers={result.n_outliers:4d} pairs={result.pairs:9,d} "
              f"cache_decided={cache_hits}")
        if args.check:
            ref = engine.active_ids()[
                brute_force_outliers(engine.live_dataset(), r, k)
            ]
            if not np.array_equal(result.outliers, ref):
                print(f"update: MISMATCH vs brute force at {tag}", file=sys.stderr)
                return 1
        return None

    print(f"suite={args.suite} metric={spec.metric} r={r:g} k={k} "
          f"batches={args.batches} churn={int(100 * args.churn)}% "
          f"shards={args.shards}")
    if args.snapshot is not None and os.path.exists(args.snapshot):
        from .io import load_any_engine

        try:
            engine = load_any_engine(
                args.snapshot, objects=objects, workers=args.workers,
                rebuild_every=args.rebuild_every, store=args.store,
                build_workers=args.build_workers,
            )
        except GraphError as exc:
            print(f"update: cannot load snapshot: {exc}", file=sys.stderr)
            return 2
        print(f"loaded warm mutable snapshot from {args.snapshot} "
              f"({engine.stats['inserts']} inserts, "
              f"{engine.stats['removes']} removes served before restart)")
        code = checked_detect(engine, "warm detect")
        engine.close()
        if code is not None:
            return code
        if args.check:
            print("check passed: warm answers identical to brute force")
        return 0

    engine = create_engine(
        None, metric=spec.metric, K=args.K, seed=args.seed, mutable=True,
        shards=args.shards, workers=args.workers,
        rebuild_every=args.rebuild_every, store=args.store,
        build_workers=args.build_workers,
    )
    gen = np.random.default_rng(args.seed + 1)
    n = len(objects)
    chunk = max(1, n // args.batches)
    for lo in range(0, n, chunk):
        batch = objects[lo : lo + chunk]
        engine.insert(list(batch) if spec.metric == "edit" else batch)
        live = engine.active_ids()
        if args.churn > 0 and live.size > 2 * chunk:
            victims = gen.choice(
                live, size=max(1, int(args.churn * live.size)), replace=False
            )
            engine.remove(victims.tolist())
        if args.rebalance and engine.rebalance():
            print(f"{'rebalanced':>18s}: shard sizes "
                  f"{engine.shard_sizes().tolist()}")
        code = checked_detect(engine, f"batch {lo // chunk + 1}")
        if code is not None:
            engine.close()
            return code
    if args.check:
        print("check passed: all detections identical to brute force")
    if args.snapshot is not None:
        engine.save(args.snapshot)
        print(f"mutable-engine snapshot written to {args.snapshot}")
    engine.close()
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .streaming import SlidingWindowDOD, window_outliers_bruteforce

    dataset, spec = load_suite(args.suite, n=args.n, seed=args.seed)
    r = args.r if args.r is not None else spec.default_r
    k = args.k if args.k is not None else spec.default_k
    window = args.window if args.window is not None else max(8, dataset.n // 4)
    stream = np.random.default_rng(args.seed).permutation(dataset.n)
    print(f"suite={args.suite} n={dataset.n} r={r:g} k={k} window={window}"
          + (f" shards={args.shards}" if args.shards > 1 else ""))
    with SlidingWindowDOD(
        dataset, r, k, window, shards=args.shards, workers=args.workers
    ) as monitor:
        reports = monitor.run(stream, report_every=max(1, window // 2))
    for rep in reports:
        print(f"t={rep.time:6d}  window outliers: {rep.n_outliers}")
    print(f"{len(reports)} reports; {dataset.counter.pairs:,} distance computations")
    if args.check:
        for rep in reports:
            ref = window_outliers_bruteforce(
                dataset.view(), rep.window_ids, r, k
            )
            if not np.array_equal(np.unique(rep.outliers), np.unique(ref)):
                print(f"stream: MISMATCH vs recomputation at t={rep.time}",
                      file=sys.stderr)
                return 1
        print(f"check passed: all {len(reports)} reports identical to "
              f"quadratic recomputation")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .engine import create_engine
    from .serving import EngineServer, ServingConfig

    if args.suite:
        objects = make_objects(args.suite, n=args.n, seed=args.seed)
        metric = get_spec(args.suite).metric
    else:
        metric = args.metric
        objects = (None if args.store == "memmap"
                   else _load_input(args.input, args.metric))
    if args.store == "memmap":
        if args.suite:
            print("serve: --store memmap needs --input (a prepared .npy "
                  "store)", file=sys.stderr)
            return 2
        if args.mutable:
            print("serve: --store memmap serves static engines; use "
                  "--store shm for mutable serving", file=sys.stderr)
            return 2
        objects = _memmap_dataset(args, metric)
    elif args.store == "shm" and not args.mutable:
        print("serve: --store shm needs --mutable", file=sys.stderr)
        return 2
    config = ServingConfig(
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        max_cold=args.max_cold,
        default_deadline=args.deadline,
    )
    engine = create_engine(
        objects, metric=metric, graph=args.graph, K=args.K, seed=args.seed,
        shards=args.shards, workers=args.workers, mutable=args.mutable,
        store="shm" if args.store == "shm" else "ram",
        build_workers=args.build_workers,
    )

    async def _run() -> None:
        # SIGTERM and SIGINT end serving through the server's exit, which
        # closes the engine: its worker processes and shared segments go
        # with it.  The handler replaces an inherited SIG_IGN too.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        async with EngineServer(
            engine, host=args.host, port=args.port, config=config,
            close_engine=True,
        ) as server:
            host, port = server.address
            print(f"serving {engine.describe()}")
            print(f"listening on http://{host}:{port} "
                  f"(POST /query, GET /healthz, GET /stats"
                  + (", POST /insert, POST /remove" if args.mutable else "")
                  + ")", flush=True)
            try:
                await asyncio.wait_for(stop.wait(), args.serve_seconds)
            except TimeoutError:
                pass

    asyncio.run(_run())
    print("serving stopped")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    dataset, _ = load_suite(args.suite, n=args.n, seed=args.seed)
    r, ratio = calibrate_r(dataset, args.k, args.target)
    print(f"suite={args.suite} n={dataset.n} k={args.k}")
    print(f"calibrated r={r:.6g} achieving outlier ratio {100 * ratio:.2f}% "
          f"(target {100 * args.target:.2f}%)")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    from .exceptions import ReproError

    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Library validation errors (bad parameters, malformed files)
        # surface as clean CLI errors, not tracebacks.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
