"""Minimum cycle basis of a weighted undirected graph.

Exact greedy over the Horton candidate family (cycles formed by two
shortest paths plus a closing edge), run in two phases. A banded phase
harvests short cycles from distance-limited shortest-path trees in
global weight order; it builds the candidates and their path
signatures only from the vertices each truncated Dijkstra reaches. Once
few basis slots remain, de Pina's rule finishes the basis (Kavitha et
al., "Cycle bases in graphs", 2009): each vector of the GF(2) orthogonal
complement of the selected span, in turn, takes the lightest cycle
pairing oddly with it. That cycle is one Dijkstra on the graph's parity
double cover, started only from the vertices of the vector's seam.

Cycle vectors live in GF(2) coordinates indexed by non-tree edges of a
fixed spanning tree and are stored as Python integers.
"""

import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra, minimum_spanning_tree

from .errors import CycleBasisError, GeneratorClassificationError

log = logging.getLogger("torusforge.cycles")

_INTERNAL_SEED = 0x5EED
_PERTURB_EPS = 1e-10
_CORANK_SWITCH = 8


@dataclass
class Cycle:
    """Simple cycle: vertex loop, sorted edge ids, true weight."""

    vertices: np.ndarray
    edges: np.ndarray
    weight: float

    @property
    def hops(self):
        return int(len(self.edges))

    def oriented_pairs(self):
        """Consecutive (a, b) vertex pairs walking the loop once."""
        v = self.vertices
        for t in range(len(v)):
            yield int(v[t]), int(v[(t + 1) % len(v)])


@dataclass
class CycleBasis:
    vertex_count: int
    cycles: list

    @property
    def size(self):
        return len(self.cycles)

    def total_weight(self):
        return float(sum(c.weight for c in self.cycles))

    def hop_histogram(self):
        hist = {}
        for c in self.cycles:
            hist[c.hops] = hist.get(c.hops, 0) + 1
        return hist


@dataclass
class Classification:
    trivial: list
    poloidal: Cycle
    toroidal: Cycle


def _cycle_from_edges(graph, edge_ids):
    """Canonical Cycle from a set of edge ids forming one simple cycle."""
    ids = np.array(sorted(int(i) for i in edge_ids), dtype=np.int64)
    adj = {}
    for e in ids:
        i, j = (int(x) for x in graph.edges[e])
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    for v, nb in adj.items():
        if len(nb) != 2:
            raise CycleBasisError(f"edge set is not a simple cycle at vertex {v}")
    start = min(adj)
    loop = [start]
    cur, prev = min(adj[start]), start
    while cur != start:
        loop.append(cur)
        a, b = adj[cur]
        cur, prev = (b if a == prev else a), cur
    if len(loop) != len(ids):
        raise CycleBasisError("edge set is not a single simple cycle")
    weight = float(np.sum(graph.lengths[ids]))
    return Cycle(np.array(loop, dtype=np.int64), ids, weight)


def _xor_to_root(anc, g):
    """XOR of g along each node's parent chain up to its root, by pointer
    doubling. anc holds each node's parent, a root is its own parent and
    carries g == 0. Each round doubles the hops every pointer skips, and
    the rounds stop once every pointer is a root."""
    while True:
        up = anc[anc]
        if np.array_equal(up, anc):
            return g
        g = g ^ g[anc]
        anc = up


class _Workspace:
    """Shared state: perturbed weights, spanning tree, GF(2) coordinates."""

    def __init__(self, graph):
        self.graph = graph
        self.n = graph.vertex_count
        self.E = len(graph.edges)
        self.m = self.E - self.n + 1
        self.ex = graph.edges[:, 0].astype(np.int64)
        self.ey = graph.edges[:, 1].astype(np.int64)
        self.keys = self.ex * self.n + self.ey
        if np.any(np.diff(self.keys) <= 0):
            raise CycleBasisError("edge list must be sorted and duplicate free")
        rng = np.random.default_rng(_INTERNAL_SEED)
        # deterministic tie-breaking perturbation, far above float noise
        # and far below any honest weight difference
        self.w_pert = graph.lengths * (1.0 + _PERTURB_EPS * (1.0 + rng.random(self.E)))
        self.zob = rng.integers(0, 2**63, size=self.E, dtype=np.uint64)
        i, j = self.ex, self.ey
        self.csgraph = coo_matrix(
            (np.concatenate([self.w_pert, self.w_pert]),
             (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(self.n, self.n)).tocsr()
        tree = minimum_spanning_tree(self.csgraph).tocoo()
        tid = self._edge_ids_bulk(tree.row.astype(np.int64),
                                  tree.col.astype(np.int64))
        self.coord = np.full(self.E, -1, dtype=np.int64)
        nontree = np.setdiff1d(np.arange(self.E), tid)
        if len(nontree) != self.m:
            raise CycleBasisError("spanning tree construction failed")
        self.coord[nontree] = np.arange(self.m)
        self.nontree = nontree
        # edges are sorted by (ex, ey): those with ex == v are the slice
        # edge_start[v]:edge_start[v + 1]
        self.edge_start = np.searchsorted(self.ex, np.arange(self.n + 1))
        # sources per Dijkstra block: c x n float64 distances stay <= 12 MB
        self.chunk = max(1, min(512, 1_500_000 // max(self.n, 1)))

    def _edge_ids_bulk(self, a, b):
        lo = np.minimum(a, b).astype(np.int64)
        hi = np.maximum(a, b).astype(np.int64)
        pos = np.searchsorted(self.keys, lo * self.n + hi)
        if np.any(pos >= self.E) or np.any(self.keys[pos] != lo * self.n + hi):
            raise CycleBasisError("edge lookup miss")
        return pos

    def path_xor(self, pred, values):
        """XOR of per-edge values along the tree path from each vertex to
        the root of one predecessor row (0 where the row has no path)."""
        v = np.flatnonzero(pred >= 0)
        anc = np.arange(self.n)
        anc[v] = pred[v]
        g = np.zeros(self.n, dtype=values.dtype)
        g[v] = values[self._edge_ids_bulk(pred[v], v)]
        return _xor_to_root(anc, g)

    def vector_from_edges(self, edge_ids):
        vec = 0
        for e in edge_ids:
            cidx = self.coord[e]
            if cidx >= 0:
                vec |= 1 << int(cidx)
        return vec


def _reduce_vector(vec, pivots):
    """Eliminate vec against pivot rows; returns (residual, new pivot bit)
    with bit None when vec lies in the current span."""
    while vec:
        low = (vec & -vec).bit_length() - 1
        row = pivots.get(low)
        if row is None:
            return vec, low
        vec ^= row
    return 0, None


def _walk_to_source(ws, prow, v, x):
    """Tree path x -> v in a predecessor row: vertex list and edge ids."""
    verts = [x]
    eids = []
    u = x
    idx = ws.graph.edge_index
    while u != v:
        p = int(prow[u])
        if p < 0:
            raise CycleBasisError("broken predecessor chain")
        eids.append(idx[(p, u) if p < u else (u, p)])
        u = p
        verts.append(u)
    return verts, eids


def _candidate_cycle(ws, prow, v, e):
    """Edge set of the Horton candidate (v, e), or None when the two
    shortest paths share a vertex besides v (non-simple candidate)."""
    x, y = int(ws.ex[e]), int(ws.ey[e])
    vx, ex_ids = _walk_to_source(ws, prow, v, x)
    vy, ey_ids = _walk_to_source(ws, prow, v, y)
    if len(set(vx) & set(vy)) != 1:
        return None
    eset = set(ex_ids) ^ set(ey_ids)
    if e in eset:
        return None
    eset.add(int(e))
    return eset


def _banded_chunks(ws, horizon, theta):
    """Yield, per block of sources, the candidates weighing (horizon,
    theta] as arrays (weight, source, edge, signature), and the int32
    predecessor rows of shortest paths truncated at distance theta.

    Works on the reached (row, vertex) entries only, kept as sorted keys
    row * n + vertex and looked up by searchsorted. A candidate (v, e)
    closes e = (x, y) with both ends reached from v, e on neither tree
    path; it is generated once, from x's slice of the edge list. Its
    signature XORs the Zobrist path values of x and y with e's own.
    """
    n = ws.n
    for lo in range(0, n, ws.chunk):
        src = np.arange(lo, min(lo + ws.chunk, n))
        dist, preds = dijkstra(ws.csgraph, indices=src, limit=theta,
                               return_predecessors=True)
        key = np.flatnonzero(np.isfinite(dist))
        row, v = np.divmod(key, n)
        d = dist.ravel()[key]
        p = preds.ravel()[key].astype(np.int64)
        del dist
        tree = np.flatnonzero(p >= 0)
        anc = np.arange(len(key))
        anc[tree] = np.searchsorted(key, row[tree] * n + p[tree])
        g = np.zeros(len(key), dtype=np.uint64)
        g[tree] = ws.zob[ws._edge_ids_bulk(p[tree], v[tree])]
        zpath = _xor_to_root(anc, g)
        cnt = ws.edge_start[v + 1] - ws.edge_start[v]
        at = np.repeat(np.arange(len(key)), cnt)
        es = (np.arange(len(at))
              + np.repeat(ws.edge_start[v] - (np.cumsum(cnt) - cnt), cnt))
        ky = row[at] * n + ws.ey[es]
        to = np.minimum(np.searchsorted(key, ky), len(key) - 1)
        ok = (key[to] == ky) & (p[at] != ws.ey[es]) & (p[to] != ws.ex[es])
        at, es, to = at[ok], es[ok], to[ok]
        wc = d[at] + ws.w_pert[es] + d[to]
        band = (wc > horizon) & (wc <= theta)
        at, es, to = at[band], es[band], to[band]
        sig = zpath[at] ^ zpath[to] ^ ws.zob[es]
        yield wc[band], lo + row[at], es, sig, preds


def _harvest_band(ws, pivots, chosen, seen, horizon, theta):
    """Greedy over the candidates weighing (horizon, theta], each walked
    on the predecessor row its band computed. Only the first candidate of
    each signature not in seen (the earlier bands' signatures) is walked.
    The rows (n x n int32) live only in this frame, so one band's are
    freed before the next's. Returns seen joined with this band's
    signatures."""
    parts = list(_banded_chunks(ws, horizon, theta))
    preds = [p[4] for p in parts]
    wc, vs, es, sg = (np.concatenate([p[k] for p in parts]) for k in range(4))
    order = np.lexsort((es, vs, wc))
    vs, es, sg = vs[order], es[order], sg[order]
    _, first = np.unique(sg, return_index=True)
    walk = np.sort(first[~np.isin(sg[first], seen)])
    seen = np.union1d(seen, sg)
    for v, e in zip(vs[walk].tolist(), es[walk].tolist()):
        eset = _candidate_cycle(ws, preds[v // ws.chunk][v % ws.chunk], v, e)
        if eset is None:
            continue
        resid, bit = _reduce_vector(ws.vector_from_edges(eset), pivots)
        if bit is None:
            continue
        pivots[bit] = resid
        chosen.append(eset)
        if len(chosen) == ws.m:
            break
    return seen


def _phase_a(ws, pivots, chosen, theta0):
    """Greedy over banded Horton candidates in nondecreasing weight order.

    Each band runs one truncated Dijkstra per source. Its reached
    entries give the candidates, ranked by weight, and their Zobrist
    signatures, so that only the first candidate of each cycle is
    walked, on the band's predecessor rows. Doubles the
    band until the basis is complete, few slots remain, or the band
    covers the whole graph.
    """
    seen = np.empty(0, dtype=np.uint64)
    horizon = 0.0
    theta = theta0
    wsum = float(ws.w_pert.sum()) + 1.0
    while len(chosen) < ws.m:
        seen = _harvest_band(ws, pivots, chosen, seen, horizon, theta)
        horizon = theta
        corank = ws.m - len(chosen)
        log.info("cycle band theta=%.6g rank=%d/%d", theta, len(chosen), ws.m)
        if corank == 0 or corank <= _CORANK_SWITCH or theta > wsum:
            break
        theta *= 2.0


def _complement_basis(ws, pivots):
    """Basis of the GF(2) orthogonal complement of the selected span."""
    piv_bits = sorted(pivots)
    in_piv = set(piv_bits)
    out = []
    for f in range(ws.m):
        if f in in_piv:
            continue
        s = 1 << f
        for p in reversed(piv_bits):
            if (pivots[p] & s).bit_count() & 1:
                s |= 1 << p
        out.append(s)
    return out


def _lightest_odd_cycle(ws, s):
    """Edge ids of the lightest cycle pairing oddly with the coordinate
    vector s, or None when the search finds no such cycle.

    s is a cut: the non-tree edges whose coordinate it sets. Adding the
    coboundary of its parity along the shortest-path tree from vertex 0
    changes no pairing and leaves the cut on that tree's seam only. On
    the double cover whose two sheets swap across the cut, the distance
    from v to its copy is the lightest closed walk through v that pairs
    oddly with s. Every such walk crosses the seam, so its endpoints are
    the only sources needed, and the lightest walk among them is a
    simple cycle: a repeated vertex would split off a lighter odd walk.
    """
    n = ws.n
    raw = np.frombuffer(s.to_bytes((ws.m + 7) // 8, "little"), dtype=np.uint8)
    cut = np.zeros(ws.E, dtype=np.uint8)
    cut[ws.nontree] = np.unpackbits(raw, bitorder="little")[:ws.m]
    _, root = dijkstra(ws.csgraph, indices=[0], return_predecessors=True)
    parity = ws.path_xor(root[0], cut)
    cross = (cut ^ parity[ws.ex] ^ parity[ws.ey]).astype(bool)
    seam = np.unique(np.concatenate([ws.ex[cross], ws.ey[cross]]))
    x, y = ws.ex, ws.ey + n * cross      # cut edges join the two sheets
    x1, y1 = x + n, ws.ey + n * ~cross
    cover = coo_matrix(
        (np.tile(ws.w_pert, 4),
         (np.concatenate([x, y, x1, y1]), np.concatenate([y, x, y1, x1]))),
        shape=(2 * n, 2 * n)).tocsr()
    best, source = np.inf, None
    for lo in range(0, len(seam), ws.chunk):
        block = seam[lo:lo + ws.chunk]
        dist = dijkstra(cover, indices=block, limit=best)
        odd = dist[np.arange(len(block)), block + n]
        k = int(np.argmin(odd))
        if odd[k] < best:
            best, source = odd[k], int(block[k])
    if source is None:
        return None
    _, pred = dijkstra(cover, indices=[source], return_predecessors=True)
    walk = [source + n]
    while walk[-1] != source:
        walk.append(int(pred[0, walk[-1]]))
    base = np.array(walk) % n
    return ws._edge_ids_bulk(base[:-1], base[1:]).tolist()


def _phase_b(ws, pivots, chosen):
    """Finish the basis by de Pina's rule: each complement vector in turn
    takes the lightest cycle pairing oddly with it, and is folded into
    every later vector that cycle also pairs oddly with, which keeps the
    later vectors orthogonal to every chosen cycle."""
    comp = _complement_basis(ws, pivots)
    for i, s in enumerate(comp):
        eids = _lightest_odd_cycle(ws, s)
        if eids is None:
            raise CycleBasisError(
                f"cycle basis incomplete: {ws.m - len(chosen)} slots left "
                f"unfilled, no cycle pairs oddly with a complement vector")
        vec = ws.vector_from_edges(eids)
        if not (vec & s).bit_count() & 1:
            raise CycleBasisError("lightest odd cycle pairs evenly")
        resid, bit = _reduce_vector(vec, pivots)
        if bit is None:
            raise CycleBasisError("odd pairing on a dependent cycle")
        pivots[bit] = resid
        chosen.append(eids)
        comp[i + 1:] = [t ^ s if (vec & t).bit_count() & 1 else t
                        for t in comp[i + 1:]]


def minimum_cycle_basis(graph, theta0=None):
    """Exact minimum-weight cycle basis, sorted by nondecreasing weight.

    Ties anywhere in the weight ordering are broken by a fixed internal
    perturbation so results are deterministic for identical input.
    """
    ws = _Workspace(graph)
    if ws.m == 0:
        return CycleBasis(ws.n, [])
    if theta0 is None:
        theta0 = 5.0 * float(np.median(ws.w_pert))
    pivots = {}
    chosen = []
    _phase_a(ws, pivots, chosen, theta0)
    if len(chosen) < ws.m:
        log.info("support-vector phase for %d remaining cycles",
                 ws.m - len(chosen))
        _phase_b(ws, pivots, chosen)
    if len(chosen) != ws.m:
        raise CycleBasisError(
            f"basis incomplete: {len(chosen)} of {ws.m} cycles")
    cycles = [_cycle_from_edges(graph, eset) for eset in chosen]
    cycles.sort(key=lambda c: (c.weight, c.hops, tuple(c.edges.tolist())))
    log.info("cycle basis: %d cycles, total weight %.6g",
             len(cycles), sum(c.weight for c in cycles))
    return CycleBasis(ws.n, cycles)


def exhaustive_minimum_cycle_basis(graph, max_edges=20):
    """Brute-force oracle: greedy over every simple cycle, enumerated from
    all edge subsets. Only for small graphs; exact including ties."""
    E = len(graph.edges)
    if E > max_edges:
        raise CycleBasisError(f"exhaustive search limited to {max_edges} edges")
    n = graph.vertex_count
    m = E - n + 1 if n else 0
    simple = []
    for mask in range(1, 1 << E):
        ids = [e for e in range(E) if mask >> e & 1]
        deg = {}
        for e in ids:
            for v in graph.edges[e]:
                deg[int(v)] = deg.get(int(v), 0) + 1
        if any(d != 2 for d in deg.values()):
            continue
        # connectivity: walk from one vertex, must visit every edge
        adj = {}
        for e in ids:
            i, j = (int(x) for x in graph.edges[e])
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
        start = min(deg)
        seen_v = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for nb in adj[u]:
                if nb not in seen_v:
                    seen_v.add(nb)
                    stack.append(nb)
        if len(seen_v) != len(deg):
            continue
        simple.append((float(np.sum(graph.lengths[ids])), tuple(ids)))
    simple.sort()
    ws = _Workspace(graph)
    pivots = {}
    chosen = []
    for _, ids in simple:
        if len(chosen) == m:
            break
        resid, bit = _reduce_vector(ws.vector_from_edges(ids), pivots)
        if bit is None:
            continue
        pivots[bit] = resid
        chosen.append(ids)
    if len(chosen) != m:
        raise CycleBasisError("exhaustive enumeration missed the cycle space")
    cycles = [_cycle_from_edges(graph, ids) for ids in chosen]
    cycles.sort(key=lambda c: (c.weight, c.hops, tuple(c.edges.tolist())))
    return CycleBasis(n, cycles)


def classify_cycles(basis, ratio=1.25):
    """Split a torus-graph basis into trivial cycles and the two homology
    generators (heaviest two; the heavier is the toroidal direction).

    Requires the lighter generator to outweigh the heaviest trivial cycle
    by `ratio`; anything closer means the split is not trustworthy.
    """
    if basis.size < 2:
        raise GeneratorClassificationError(
            f"need at least 2 cycles to classify, have {basis.size}")
    cyc = basis.cycles
    poloidal, toroidal = cyc[-2], cyc[-1]
    trivial = list(cyc[:-2])
    if trivial and poloidal.weight < ratio * trivial[-1].weight:
        raise GeneratorClassificationError(
            "generator weights not separated from trivial cycles: "
            f"{poloidal.weight:.6g} vs {trivial[-1].weight:.6g} "
            f"(need factor {ratio})")
    return Classification(trivial, poloidal, toroidal)


def export_cycles_json(path, basis, classification=None):
    """Dump a cycle basis (optionally with roles) as deterministic JSON."""
    roles = {}
    if classification is not None:
        roles[id(classification.poloidal)] = "poloidal"
        roles[id(classification.toroidal)] = "toroidal"
        for c in classification.trivial:
            roles[id(c)] = "trivial"
    payload = {
        "cycle_count": basis.size,
        "vertex_count": basis.vertex_count,
        "total_weight": basis.total_weight(),
        "cycles": [
            {
                "vertices": c.vertices.tolist(),
                "edges": c.edges.tolist(),
                "weight": c.weight,
                "hops": c.hops,
                "role": roles.get(id(c)),
            }
            for c in basis.cycles
        ],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
