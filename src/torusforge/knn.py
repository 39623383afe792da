"""Exact k-nearest-neighbor graph construction with union symmetrization."""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DisconnectedGraphError
from .mesher import _components

log = logging.getLogger("torusforge.knn")


def _pair_keys(i, j, n):
    """int64 keys lo * n + hi of the pairs {i[t], j[t]} of vertices below
    n; they sort as the pairs (lo, hi) do, lexicographically."""
    return np.minimum(i, j) * n + np.maximum(i, j)


@dataclass
class NeighborGraph:
    """Undirected weighted graph: edges (i, j) with i < j and Euclidean
    lengths measured in the native embedding space."""

    vertex_count: int
    edges: np.ndarray          # (E, 2) int64, i < j, lexicographically sorted
    lengths: np.ndarray        # (E,) float64

    @classmethod
    def from_edges(cls, vertex_count, edges, lengths):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        lengths = np.asarray(lengths, dtype=np.float64)
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ConfigError("self-loop edge")
        if np.any((edges < 0) | (edges >= vertex_count)):
            raise ConfigError(f"edge vertex ids must lie in [0, "
                              f"{vertex_count})")
        keys = _pair_keys(edges[:, 0], edges[:, 1], vertex_count)
        order = np.argsort(keys)
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ConfigError("parallel edges")
        edges = np.column_stack(np.divmod(keys, vertex_count))
        lengths = lengths[order]
        if np.any(lengths <= 0):
            raise ConfigError("non-positive edge length")
        return cls(vertex_count, edges, lengths)

    @property
    def edge_count(self):
        return len(self.edges)

    def edge_ids(self, a, b):
        """Ids of the edges joining a[t] and b[t], each pair in either
        order. Raises KeyError naming the first pair that is not an edge."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        n = self.vertex_count
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = self.edges[:, 0] * n + self.edges[:, 1]      # sorted
        query = lo * n + hi
        pos = np.searchsorted(keys, query)
        hit = (lo >= 0) & (hi < n) & (pos < len(keys))
        hit[hit] = keys[pos[hit]] == query[hit]
        if not np.all(hit):
            t = np.argmin(hit)
            raise KeyError((int(lo.flat[t]), int(hi.flat[t])))
        return pos


def _knn_pairs(points, k):
    """Directed neighbor lists, equal to brute force under the
    (distance, index) tie-break; kd-tree accelerated with a safety margin
    that re-queries when a distance tie straddles the candidate window."""
    n = len(points)
    tree = cKDTree(points)
    pad = min(n, k + 9)
    while True:
        _, idx = tree.query(points, k=pad)
        idx = idx.reshape(n, pad)
        sel = idx != np.arange(n)[:, None]
        cand = idx[sel].reshape(n, pad - 1)
        diff = points[:, None, :] - points[cand]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        # lexicographic (distance, index): stable sort by index, then distance
        order = np.argsort(cand, axis=1, kind="stable")
        cand = np.take_along_axis(cand, order, axis=1)
        dist = np.take_along_axis(dist, order, axis=1)
        order = np.argsort(dist, axis=1, kind="stable")
        cand = np.take_along_axis(cand, order, axis=1)
        dist = np.take_along_axis(dist, order, axis=1)
        if pad < n and cand.shape[1] > k and np.any(dist[:, k - 1] >= dist[:, -1]):
            pad = min(n, pad * 2)
            continue
        return cand[:, :k]


def build_knn_graph(cloud, k):
    """Union-symmetrized exact KNN graph of a point cloud.

    Edge (i, j) is present iff j is among the k nearest neighbors of i or
    vice versa, nearest under (Euclidean distance, index) ordering. Raises
    DisconnectedGraphError, naming the component sizes largest first, if
    `mesher._components` finds more than one component.
    """
    pts = cloud.points
    n = len(pts)
    k = int(k)
    if not (2 <= k < n):
        raise ConfigError(f"need 2 <= k < N, got k={k}, N={n}")
    neigh = _knn_pairs(pts, k)
    i = np.repeat(np.arange(n), k)
    j = neigh.ravel()
    pairs = np.column_stack(np.divmod(np.unique(_pair_keys(i, j, n)), n))
    diff = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    lengths = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    graph = NeighborGraph.from_edges(n, pairs, lengths)
    _, sizes = np.unique(_components(n, pairs[:, 0], pairs[:, 1]),
                         return_counts=True)
    if len(sizes) != 1:
        raise DisconnectedGraphError(sizes.tolist())
    log.info("knn graph: %d vertices, %d edges, k=%d", n, len(pairs), k)
    return graph

