"""Remove-Links (§5.4 of the paper).

After Connect-SubGraphs and Remove-Detours, objects one hop apart often
share many common neighbors, which ``Greedy-Counting`` would touch twice
(once per endpoint).  This pass prunes such triangles *through pivots*:
when a non-pivot ``p`` links to a pivot ``p'``, links from ``p`` to
objects they share are dropped — the shared object stays reachable via
``p'``, because Algorithm 2 (lines 13-14) enqueues pivots even when they
fall outside the query radius.

Pruning never touches pivot link lists, exact-K'NN vertices, or the
last two links of a vertex (a safety floor so no vertex is stranded);
the paper notes this step does not change reachability and therefore
does not affect false positives, only traversal cost and index size.
"""

from __future__ import annotations

import time

from .adjacency import Graph
from .build_kernels import graph_arrays, prune_proposals
from .parallel_build import build_partitions


def remove_links(graph: Graph, pool=None) -> dict:
    """Prune pivot-shadowed redundant links in place.

    Removal candidates come from one snapshot of the graph — per id
    partition on ``pool``'s workers when given, else in-process — and
    are applied in ascending ``(p, q)`` order, each re-checked against
    the live degree floor and link state.  Returns ``{"removed":
    #undirected edges removed, "seconds": ...}``.
    """
    t0 = time.perf_counter()
    min_degree = 2
    snapshot = graph_arrays(graph)
    parts = build_partitions(graph.n)
    if pool is None:
        proposals = [prune_proposals(*snapshot, ids) for ids in parts]
    else:
        pool.broadcast("load_graph", snapshot)
        proposals = pool.run("prune_scan", parts)
    removed = 0
    for ps, qs in proposals:
        for p, q in zip(ps.tolist(), qs.tolist()):
            if graph.degree(p) <= min_degree or graph.degree(q) <= min_degree:
                continue
            if not graph.has_link(p, q) and not graph.has_link(q, p):
                continue
            graph.remove_edge(p, q)
            removed += 1
    return {"removed": removed, "seconds": time.perf_counter() - t0}
