"""Unit tests for the Graph container."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs import Graph


def test_add_link_directed():
    g = Graph(5)
    assert g.add_link(0, 1)
    assert g.has_link(0, 1)
    assert not g.has_link(1, 0)


def test_add_link_dedupes():
    g = Graph(5)
    assert g.add_link(0, 1)
    assert not g.add_link(0, 1)
    assert g.degree(0) == 1


def test_self_loop_refused():
    g = Graph(5)
    assert not g.add_link(2, 2)
    assert g.degree(2) == 0


def test_add_edge_both_directions():
    g = Graph(5)
    g.add_edge(1, 3)
    assert g.has_link(1, 3) and g.has_link(3, 1)


def test_remove_link():
    g = Graph(5)
    g.add_edge(0, 1)
    assert g.remove_link(0, 1)
    assert not g.has_link(0, 1)
    assert g.has_link(1, 0)
    assert not g.remove_link(0, 1)  # already gone


def test_remove_edge():
    g = Graph(5)
    g.add_edge(0, 1)
    g.remove_edge(0, 1)
    assert g.degree(0) == 0 and g.degree(1) == 0


def test_set_links_replaces_and_filters():
    g = Graph(6)
    g.add_link(0, 5)
    g.set_links(0, [1, 2, 2, 0, 3])  # dups and self dropped
    assert g.neighbors_list(0) == [1, 2, 3]
    assert not g.has_link(0, 5)


def test_neighbors_array_and_finalize():
    g = Graph(4)
    g.add_link(0, 2)
    g.add_link(0, 3)
    np.testing.assert_array_equal(g.neighbors(0), [2, 3])
    g.finalize()
    assert g.finalized
    np.testing.assert_array_equal(g.neighbors(0), [2, 3])
    # Mutation invalidates the frozen arrays.
    g.add_link(0, 1)
    assert not g.finalized
    np.testing.assert_array_equal(np.sort(g.neighbors(0)), [1, 2, 3])


def test_n_links_counts_directed():
    g = Graph(4)
    g.add_edge(0, 1)
    g.add_link(2, 3)
    assert g.n_links == 3


def test_empty_neighbors_shared_array():
    g = Graph(3)
    assert g.neighbors(0).size == 0
    g.finalize()
    assert g.neighbors(0).size == 0


def test_copy_is_deep():
    g = Graph(4)
    g.add_edge(0, 1)
    g.pivots[2] = True
    g.exact_knn[3] = (np.asarray([0, 1]), np.asarray([1.0, 2.0]))
    g.meta["K"] = 9
    c = g.copy()
    c.add_link(0, 2)
    c.pivots[2] = False
    c.exact_knn[3][0][0] = 99
    assert not g.has_link(0, 2)
    assert g.pivots[2]
    assert g.exact_knn[3][0][0] == 0
    assert c.meta["K"] == 9


def test_validate_detects_internal_corruption():
    g = Graph(4)
    g.add_link(0, 1)
    g.validate()
    g._adj[0].append(1)  # bypass the API: duplicate link
    with pytest.raises(GraphError):
        g.validate()


def test_validate_detects_out_of_range():
    g = Graph(3)
    g._adj[0].append(7)
    g._members[0].add(7)
    with pytest.raises(GraphError):
        g.validate()


def test_nbytes_grows_with_links():
    g1 = Graph(10)
    g2 = Graph(10)
    for v in range(1, 10):
        g2.add_link(0, v)
    assert g2.nbytes > g1.nbytes


def test_zero_vertices_rejected():
    with pytest.raises(GraphError):
        Graph(0)


def test_pivot_and_exact_flags():
    g = Graph(5)
    g.pivots[1] = True
    g.exact_knn[2] = (np.asarray([0]), np.asarray([1.0]))
    assert g.is_pivot(1) and not g.is_pivot(0)
    assert g.has_exact_knn(2) and not g.has_exact_knn(1)


# -- compact: CSR array operations vs the per-vertex construction -------------


def _compact_by_lists(graph, keep):
    """Oracle: the per-vertex ``set_links`` construction of a live-only copy."""
    keep = np.asarray(keep, dtype=np.int64)
    remap = np.full(graph.n, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    twin = Graph(keep.size)
    twin.pivots = graph.pivots[keep].copy()
    for new_u, old_u in enumerate(keep):
        twin.set_links(
            new_u,
            (int(remap[w]) for w in graph.neighbors_list(int(old_u))
             if remap[w] >= 0),
        )
    for old_v, (ids, dists) in graph.exact_knn.items():
        if remap[old_v] >= 0 and np.all(remap[ids] >= 0):
            twin.exact_knn[int(remap[old_v])] = (remap[ids], dists.copy())
    return twin.finalize(), remap


def _random_graph(n, seed):
    gen = np.random.default_rng(seed)
    g = Graph(n)
    for u in range(n):
        g.set_links(u, gen.choice(n, size=int(gen.integers(0, 9)), replace=False))
    g.pivots[gen.random(n) < 0.2] = True
    for v in gen.choice(n, size=max(1, n // 4), replace=False):
        ids = gen.choice(np.delete(np.arange(n), v), size=min(4, n - 1),
                         replace=False)
        g.exact_knn[int(v)] = (ids.astype(np.int64), np.sort(gen.random(ids.size)))
    return g


def _assert_same_graph(got, want):
    assert got.n == want.n
    for a, b in zip(got.csr(), want.csr()):
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got.pivots, want.pivots)
    assert got.exact_knn.keys() == want.exact_knn.keys()
    for v, (ids, dists) in want.exact_knn.items():
        np.testing.assert_array_equal(got.exact_knn[v][0], ids)
        np.testing.assert_array_equal(got.exact_knn[v][1], dists)
    assert got.n_links == want.n_links
    assert got.nbytes == want.nbytes
    assert [got.degree(v) for v in range(got.n)] == [
        want.degree(v) for v in range(want.n)
    ]
    for v in range(got.n):
        assert got.neighbors_list(v) == want.neighbors_list(v)


@pytest.mark.parametrize("seed", range(6))
def test_compact_matches_per_vertex_construction_after_tombstones(seed):
    gen = np.random.default_rng(100 + seed)
    g = _random_graph(60, seed)
    victims = gen.choice(g.n, size=int(gen.integers(3, 9)), replace=False)
    alive = np.ones(g.n, dtype=bool)
    alive[victims] = False
    g.tombstone_many(victims, alive=alive)
    keep = np.flatnonzero(alive)
    # Holders of both kinds survive the tombstones: lists that lost a
    # member (dropped by compact) and lists that lost none (kept).
    lost = [
        v for v, (ids, _) in g.exact_knn.items() if not np.all(alive[ids])
    ]
    assert lost and len(lost) < len(g.exact_knn)
    got, remap = g.compact(keep)
    want, want_remap = _compact_by_lists(g, keep)
    np.testing.assert_array_equal(remap, want_remap)
    _assert_same_graph(got, want)
    assert got.finalized


@pytest.mark.parametrize("which", ["all", "one", "shuffled"])
def test_compact_edge_keep_sets(which):
    g = _random_graph(40, 7)
    keep = {
        "all": np.arange(g.n),
        "one": np.asarray([17]),
        "shuffled": np.random.default_rng(3).permutation(g.n)[:25],
    }[which]
    got, remap = g.compact(keep)
    want, want_remap = _compact_by_lists(g, keep)
    np.testing.assert_array_equal(remap, want_remap)
    _assert_same_graph(got, want)
    if which == "all":
        assert got.exact_knn.keys() == g.exact_knn.keys()
    if which == "one":
        assert got.n_links == 0 and got.neighbors(0).size == 0


def test_compact_of_unfinalized_graph_finalizes_the_source():
    g = _random_graph(30, 2)
    g.add_link(0, 1)  # any edit drops the frozen arrays
    assert not g.finalized
    got, _ = g.compact(np.arange(0, 30, 2))
    want, _ = _compact_by_lists(g, np.arange(0, 30, 2))
    _assert_same_graph(got, want)


_EDITS = {
    "add_edge": lambda g: g.add_edge(0, g.n - 1),
    "remove_edge": lambda g: [
        g.remove_edge(u, int(v)) for u in range(g.n) for v in g.neighbors(u)[:1]
    ],
    "set_links": lambda g: g.set_links(2, [5, 5, 2, 7, 1]),
    "tombstone_many": lambda g: g.tombstone_many(
        [1, 4], alive=np.asarray([v not in (1, 4) for v in range(g.n)])
    ),
    "grow": lambda g: (g.grow(g.n + 3), g.add_link(g.n - 1, 0)),
    "add_link_redundant": lambda g: g.add_link(3, 3),
}


def _assert_same_links(got, want):
    for u in range(want.n):
        for v in range(want.n):
            assert got.has_link(u, v) == want.has_link(u, v), (u, v)


@pytest.mark.parametrize("edit", sorted(_EDITS))
def test_editing_a_compacted_graph_matches_a_list_built_twin(edit):
    g = _random_graph(50, 11)
    keep = np.arange(0, 50, 3)
    compacted, _ = g.compact(keep)
    twin, _ = _compact_by_lists(g, keep)
    assert compacted._adj is None  # no per-vertex lists until an edit
    _assert_same_links(compacted, twin)
    _EDITS[edit](compacted)
    _EDITS[edit](twin)
    compacted.validate()
    twin.validate()
    _assert_same_graph(compacted, twin)
    _assert_same_links(compacted, twin)
    _assert_same_graph(compacted.copy(), twin.copy())


def test_copy_of_a_compacted_graph_is_deep_and_csr_backed():
    g = _random_graph(30, 5)
    keep = np.arange(1, 30)
    compacted, _ = g.compact(keep)
    clone = compacted.copy()
    assert clone._adj is None
    _assert_same_graph(clone, compacted)
    clone.csr()[1][:] = 0  # the copy owns its arrays
    clone.pivots[:] = True
    _assert_same_graph(compacted, _compact_by_lists(g, keep)[0])
    compacted.validate()


def test_validate_checks_a_csr_backed_graph():
    g = _random_graph(20, 9)
    compacted, _ = g.compact(np.arange(20))
    compacted.validate()
    indptr, indices = compacted.csr()
    assert indices.size
    indices[0] = compacted.n + 5  # bypass the API: out-of-range target
    with pytest.raises(GraphError):
        compacted.validate()


def test_finalize_one_pass_matches_per_vertex_arrays():
    g = _random_graph(40, 4)
    g.add_link(0, 1)  # force a rebuild from the lists
    indptr, indices = g.finalize().csr()
    want = np.concatenate(
        [np.asarray(g.neighbors_list(v), dtype=np.int64) for v in range(g.n)]
    )
    np.testing.assert_array_equal(indices, want)
    np.testing.assert_array_equal(
        np.diff(indptr), [g.degree(v) for v in range(g.n)]
    )
    empty = Graph(3).finalize()
    assert empty.csr()[1].dtype == np.int64 and empty.csr()[1].size == 0
