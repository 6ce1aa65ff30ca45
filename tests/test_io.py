"""Unit tests for graph (de)serialisation and memmap stores."""

import numpy as np
import pytest

import repro.data
from repro import Dataset, graph_dod, load_graph, save_graph
from repro.engine import create_engine
from repro.exceptions import GraphError
from repro.index import brute_force_outliers
from repro.io import create_memmap_store, open_memmap_dataset


def test_roundtrip_adjacency(mrpg_l2, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(mrpg_l2, path)
    loaded = load_graph(path)
    assert loaded.n == mrpg_l2.n
    for v in range(mrpg_l2.n):
        assert loaded.neighbors_list(v) == mrpg_l2.neighbors_list(v)


def test_roundtrip_pivots_and_exact(mrpg_l2, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(mrpg_l2, path)
    loaded = load_graph(path)
    np.testing.assert_array_equal(loaded.pivots, mrpg_l2.pivots)
    assert sorted(loaded.exact_knn) == sorted(mrpg_l2.exact_knn)
    for p, (ids, dists) in mrpg_l2.exact_knn.items():
        lids, ldists = loaded.exact_knn[p]
        np.testing.assert_array_equal(lids, ids)
        np.testing.assert_allclose(ldists, dists)


def test_roundtrip_meta(mrpg_l2, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(mrpg_l2, path)
    loaded = load_graph(path)
    assert loaded.meta["builder"] == "mrpg"
    assert loaded.meta["K"] == mrpg_l2.meta["K"]


def test_loaded_graph_detects_identically(
    mrpg_l2, l2_dataset, l2_params, tmp_path
):
    r, k = l2_params
    path = tmp_path / "g.npz"
    save_graph(mrpg_l2, path)
    loaded = load_graph(path)
    a = graph_dod(l2_dataset, mrpg_l2, r, k)
    b = graph_dod(l2_dataset, loaded, r, k)
    assert a.same_outliers(b)


def test_loaded_graph_is_finalized(kgraph_l2, tmp_path):
    path = tmp_path / "g.npz"
    save_graph(kgraph_l2, path)
    assert load_graph(path).finalized


def test_version_check(tmp_path, kgraph_l2):
    path = tmp_path / "g.npz"
    save_graph(kgraph_l2, path)
    import numpy as np

    with np.load(path) as data:
        payload = dict(data)
    payload["format_version"] = np.asarray(99)
    np.savez(path, **payload)
    with pytest.raises(GraphError):
        load_graph(path)


@pytest.mark.parametrize("metric", ["l2", "l1", "angular"])
def test_chunked_memmap_store_matches_ram(blob_points, metric, tmp_path, monkeypatch):
    """Memmap gathers chunk, and no chunk split changes a float or an answer."""
    monkeypatch.setattr(repro.data, "MEMMAP_ELEM_BUDGET", 64)
    chunked = []
    gather_chunk = Dataset._gather_chunk

    def counted(self, n_rows):
        chunk = gather_chunk(self, n_rows)
        chunked.append(chunk is not None)
        return chunk

    monkeypatch.setattr(Dataset, "_gather_chunk", counted)
    ram = Dataset(blob_points, metric)
    path = create_memmap_store(tmp_path / "s.npy", blob_points, metric)
    mapped = open_memmap_dataset(path, metric)
    gen = np.random.default_rng(0)
    idx = gen.integers(0, ram.n, size=500)
    for i in (0, 17, ram.n - 1):
        np.testing.assert_array_equal(
            mapped.dist_many(i, idx).view(np.uint64),
            ram.dist_many(i, idx).view(np.uint64),
        )
    a = gen.integers(0, ram.n, size=500)
    np.testing.assert_array_equal(
        mapped.pair_dist(a, idx).view(np.uint64),
        ram.pair_dist(a, idx).view(np.uint64),
    )
    r = float(np.quantile(ram.pair_dist(a, idx), 0.05))
    with create_engine(mapped, seed=1, K=8) as engine:
        np.testing.assert_array_equal(
            engine.query(r, 8).outliers, brute_force_outliers(ram, r, 8)
        )
    assert any(chunked)
