"""Exact k-nearest-neighbor graph construction with union symmetrization."""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DisconnectedGraphError
from .mesher import _components

log = logging.getLogger("torusforge.knn")


@dataclass
class NeighborGraph:
    """Undirected weighted graph, checked when built: edge rows (i, j),
    i < j, strictly ascending, each with its Euclidean length."""

    vertex_count: int
    edges: np.ndarray          # (E, 2) int64, i < j, lexicographically sorted
    lengths: np.ndarray        # (E,) float64, finite and positive

    def __post_init__(self):
        n = self.vertex_count
        e = self.edges = np.asarray(self.edges, np.int64).reshape(-1, 2)
        w = self.lengths = np.asarray(self.lengths, dtype=np.float64)
        if w.shape != (len(e),) or not np.all(np.isfinite(w)):
            raise ConfigError(f"need one finite length per edge, E = {len(e)}")
        if np.any(e[:, 0] == e[:, 1]):
            raise ConfigError("self-loop edge")
        if np.any((e < 0) | (e >= n)):
            raise ConfigError(f"edge vertex ids must lie in [0, {n})")
        step = np.diff(e[:, 0] * n + e[:, 1])
        if np.any(step == 0):
            raise ConfigError("parallel edges")
        if np.any(e[:, 0] > e[:, 1]) or np.any(step < 0):
            raise ConfigError("edge rows must be ascending pairs i < j")
        if np.any(w <= 0):
            raise ConfigError("non-positive edge length")

    @classmethod
    def from_edges(cls, vertex_count, edges, lengths):
        """The graph of `edges` given in any row order and orientation."""
        edges = np.sort(np.asarray(edges, np.int64).reshape(-1, 2), axis=1)
        lengths = np.asarray(lengths, dtype=np.float64)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        if lengths.shape == order.shape:
            lengths = lengths[order]
        return cls(vertex_count, edges[order], lengths)

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
        dist, idx = tree.query(points, k=pad)
        sel = idx != np.arange(n)[:, None]
        cand = idx[sel].reshape(n, pad - 1)
        dist = dist[sel].reshape(n, pad - 1)
        # lexicographic (distance, index) within each row
        order = np.lexsort((cand, dist), axis=1)
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
    keys = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    pairs = np.column_stack(np.divmod(keys, n))     # i < j, sorted as keys
    diff = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    lengths = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    graph = NeighborGraph(n, pairs, lengths)
    _, sizes = np.unique(_components(n, pairs[:, 0], pairs[:, 1]),
                         return_counts=True)
    if len(sizes) != 1:
        sizes = sorted(sizes.tolist(), reverse=True)
        raise DisconnectedGraphError(
            f"disconnected graph: {len(sizes)} components of sizes "
            f"{sizes}; retry with a larger k or a denser cloud",
            component_sizes=sizes)
    log.info("knn graph: %d vertices, %d edges, k=%d", n, len(pairs), k)
    return graph

