"""Neighbor-graph construction against a brute-force oracle."""

from itertools import permutations, product

import numpy as np
import pytest

from scipy.spatial import cKDTree

from conftest import periodic_grid
from reference_cycles import neighbor_rows
from torusforge import knn
from torusforge.errors import ConfigError, DisconnectedGraphError
from torusforge.knn import NeighborGraph, build_knn_graph
from torusforge.samplers import PointCloud


def brute_force_edges(pts, k):
    """Union-symmetrized KNN under (distance, index) ordering."""
    n = len(pts)
    edges = set()
    for i in range(n):
        cand = sorted((float(np.linalg.norm(pts[i] - pts[j])), j)
                      for j in range(n) if j != i)[:k]
        for _, j in cand:
            edges.add((min(i, j), max(i, j)))
    return edges


@pytest.mark.parametrize("dim,k", [(3, 3), (4, 5), (6, 4), (64, 5)])
def test_matches_brute_force_on_random_clouds(dim, k):
    rng = np.random.default_rng(100 + dim)
    cloud = PointCloud(rng.random((60, dim)))
    graph = build_knn_graph(cloud, k=k)
    assert set(map(tuple, graph.edges.tolist())) == \
        brute_force_edges(cloud.points, k)
    diff = cloud.points[graph.edges[:, 0]] - cloud.points[graph.edges[:, 1]]
    expected = np.sqrt(np.sum(diff ** 2, axis=1))
    assert graph.lengths == pytest.approx(expected, rel=1e-14)


def test_matches_brute_force_with_distance_ties():
    # integer lattice: many exactly equidistant candidates
    pts = np.array(list(product(range(4), repeat=3)), dtype=np.float64)
    cloud = PointCloud(pts)
    graph = build_knn_graph(cloud, k=6)
    assert set(map(tuple, graph.edges.tolist())) == \
        brute_force_edges(pts, 6)


def test_tie_straddling_the_window_requeries(monkeypatch):
    """The origin and the 30 integer points at distance 5 from it, the
    signed permutations of (5, 0, 0) and (3, 4, 0): the origin's 30
    neighbours tie, so with k = 6 its candidate window of 15 and then of
    30 ends inside the tie, and the kd-tree is queried again until it
    holds all 31 points. The graph still equals brute force."""
    shell = {tuple(s * c for s, c in zip(signs, perm))
             for base in ((5, 0, 0), (3, 4, 0))
             for perm in permutations(base)
             for signs in product((1, -1), repeat=3)}
    assert len(shell) == 30
    pts = np.array([(0, 0, 0)] + sorted(shell), dtype=np.float64)
    pads = []

    class CountedTree(cKDTree):
        def query(self, x, k=1, **kwargs):
            pads.append(k)
            return super().query(x, k=k, **kwargs)
    monkeypatch.setattr(knn, "cKDTree", CountedTree)
    graph = build_knn_graph(PointCloud(pts), k=6)
    assert pads == [15, 30, 31]
    assert set(map(tuple, graph.edges.tolist())) == brute_force_edges(pts, 6)


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    pts = rng.random((80, 3))
    perm = rng.permutation(80)
    g1 = build_knn_graph(PointCloud(pts), k=4)
    g2 = build_knn_graph(PointCloud(pts[perm]), k=4)
    inv = np.argsort(perm)
    relabeled = {tuple(sorted((inv[i], inv[j])))
                 for i, j in g1.edges.tolist()}
    # relabel g1 into g2's vertex ids: perm maps new->old, inv maps old->new
    assert {tuple(e) for e in g2.edges.tolist()} == relabeled


def test_degree_at_least_k():
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.random((50, 3)))
    graph = build_knn_graph(cloud, k=5)
    assert int(np.bincount(graph.edges.ravel()).min()) >= 5


def test_edges_sorted_and_indexed():
    graph = build_knn_graph(
        PointCloud(np.random.default_rng(2).random((30, 3))),
        k=3)
    e = graph.edges
    assert np.all(e[:, 0] < e[:, 1])
    order = np.lexsort((e[:, 1], e[:, 0]))
    assert np.array_equal(order, np.arange(len(e)))
    ids = np.arange(len(e))
    assert np.array_equal(graph.edge_ids(e[:, 0], e[:, 1]), ids)
    assert np.array_equal(graph.edge_ids(e[:, 1], e[:, 0]), ids)
    # per-edge loop reference for the neighbour rows and the degrees
    ref = [[] for _ in range(graph.vertex_count)]
    for i, j in e.tolist():
        ref[i].append(j)
        ref[j].append(i)
    for row, r in zip(neighbor_rows(graph), ref):
        assert row.tolist() == sorted(r)
    assert np.bincount(e.ravel()).tolist() == [len(r) for r in ref]


def test_edge_ids_raise_on_pairs_that_are_not_edges():
    graph = periodic_grid(3)            # vertex 1 joins 0, 2, 4 and 7
    assert graph.edge_ids([1, 2, 7], [0, 1, 1]).tolist() == [0, 4, 6]
    # (0, 11) and (-1, 10) share their keys i * 9 + j with the edges
    # (1, 2) and (0, 1)
    for a, b in ((1, 5), (1, 1), (0, 11), (-1, 10)):
        with pytest.raises(KeyError):
            graph.edge_ids([1, a], [0, b])


def test_disconnected_graph_reports_component_sizes():
    rng = np.random.default_rng(1)
    far = np.vstack([rng.random((30, 3)), rng.random((20, 3)) + 100.0])
    cloud = PointCloud(far)
    with pytest.raises(DisconnectedGraphError) as err:
        build_knn_graph(cloud, k=3)
    assert err.value.details["component_sizes"] == [30, 20]
    assert "30" in str(err.value) and "20" in str(err.value)
    # vertex 0 lies in the smallest cluster and the largest comes second:
    # the sizes are listed largest first, not in vertex order
    three = np.vstack([rng.random((12, 3)), rng.random((40, 3)) + 100.0,
                       rng.random((25, 3)) - 100.0])
    with pytest.raises(DisconnectedGraphError) as err:
        build_knn_graph(PointCloud(three), k=3)
    assert err.value.details["component_sizes"] == [40, 25, 12]


def test_k_bounds():
    cloud = PointCloud(np.random.default_rng(0).random((10, 3)))
    with pytest.raises(ConfigError):
        build_knn_graph(cloud, k=1)
    with pytest.raises(ConfigError):
        build_knn_graph(cloud, k=10)


def test_from_edges_validation():
    with pytest.raises(ConfigError):
        NeighborGraph.from_edges(3, [(0, 0)], [1.0])
    with pytest.raises(ConfigError):
        NeighborGraph.from_edges(3, [(0, 1), (1, 0)], [1.0, 1.0])
    with pytest.raises(ConfigError):
        NeighborGraph.from_edges(3, [(0, 1)], [0.0])


def test_direct_construction_checks_edge_order():
    """A graph built without from_edges must hold its rows as edge_ids
    searches them; from_edges sorts the same rows."""
    rows = [[1, 2], [0, 1], [0, 2]]
    for bad in (rows, [[0, 1], [2, 1]], [[0, 1], [0, 1]], [[0, 1], [0, 3]],
                [[1, 1]]):
        with pytest.raises(ConfigError):
            NeighborGraph(3, bad, np.ones(len(bad)))
    with pytest.raises(ConfigError):
        NeighborGraph(3, [[0, 1], [1, 2]], np.ones(3))
    graph = NeighborGraph.from_edges(3, rows, [3.0, 1.0, 2.0])
    assert graph.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert graph.lengths.tolist() == [1.0, 2.0, 3.0]
    assert graph.edge_ids([0], [1]).tolist() == [0]


@pytest.mark.parametrize("length", [np.nan, np.inf])
def test_from_edges_rejects_non_finite_lengths(length):
    with pytest.raises(ConfigError, match="finite length"):
        NeighborGraph.from_edges(3, [(0, 1), (1, 2)], [1.0, length])


def test_grid_helper_is_four_regular():
    graph = periodic_grid(5)
    assert graph.vertex_count == 25
    assert graph.edge_count == 50
    assert np.all(np.bincount(graph.edges.ravel()) == 4)
