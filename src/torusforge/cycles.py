"""The cycle basis of a torus graph, split into trivial cycles and two
homology generators.

The split, which `oneforms.parameterize` runs, starts from the graph's
triangles and chordless squares (4-cycles whose diagonals are not
edges), found with array operations on the wedges (pairs of edges at
one vertex) of the graph's one CSR adjacency, which the shortest-path
tree and the double cover below read too; a graph with more than
_WEDGE_BOUND wedges stops before the search. One GF(2) column reduction
of the faces x coordinates matrix, faces in weight order, keeps the
faces a greedy in that order keeps; on a well-sampled torus they fill
every slot but the generators. The columns that vanish give
the complement basis of their span. de Pina's rule fills the slots left
(Kavitha et al., "Cycle bases in graphs", 2009): each complement vector,
in turn, takes the lightest cycle pairing oddly with it. That cycle is
found by Dijkstras on the graph's parity double cover, started only
from a vertex cover of the vector's seam and stopped half way round: a
walk of weight L <= B meets some vertex x with both copies of x within
B/2 + w_max (the heaviest edge) of its source, so a search to that
radius is exact whenever a walk of weight at most B exists. The sources
run _BLOCK at a time, so one block's 2n-wide distance rows take 256 n
bytes (1.5 MiB at n = 6,000), and each block searches only as far as a
walk lighter than the best one so far needs. `_finish` states when the
split is the minimum basis.

Every phase produces each cycle as a vertex loop. The basis holds the
loops as one CSR block (`CycleBasis`), certified simple when it is
built; `classify_cycles` fixes where each of its last two rows, the
homology generators, starts and which way it runs. Every basis is split
on the shortest-path tree from vertex 0 under the perturbed weights,
which the angle map of its one-forms shares. A cycle's GF(2) vector is
the set of its edges off that tree, each edge named by its coordinate;
complement vectors are such sets too, each holding one free coordinate
no other holds. The fundamental cycle of a non-tree edge (the edge and
the tree paths joining its ends) crosses that edge's coordinate alone,
so where the faces leave two slots, a unit row on each free coordinate
stands for a generator, and two such cycles complete the basis without
de Pina's search; `oneforms.parameterize` decides when they may.
"""

import hashlib
import logging
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import (ConfigError, CycleBasisError,
                     GeneratorClassificationError)
from .mesher import _write_json

log = logging.getLogger("torusforge.cycles")

_INTERNAL_SEED = 0x5EED
_PERTURB_EPS = 1e-10
# seam sources per de Pina Dijkstra block: 16 rows of 2n float64
_BLOCK = 16
# factor by which the lighter generator must outweigh every trivial cycle
_GENERATOR_RATIO = 1.25
# wedges `_short_cycles` may enumerate: a 1 GiB budget over 256 bytes per
# wedge. The search and the face reduction peaked at 59-113 bytes per
# wedge on the 2k torus at k = 8 and 30 and the 6k 6D cloud, and at 246
# on the 300-point torus at k = 120, where the wedge pairs that close
# squares grow faster than the wedges
_WEDGE_BOUND = 2**30 // 256


def _edge_ids(graph, a, b):
    """graph.edge_ids, with a pair that is not an edge raised as
    CycleBasisError."""
    try:
        return graph.edge_ids(a, b)
    except KeyError as exc:
        raise CycleBasisError(f"vertex pair {exc.args[0]} is not a graph "
                              "edge") from None


def _flat(loops):
    """Hop counts and flat vertices of a list of vertex loops."""
    return (np.fromiter(map(len, loops), dtype=np.int64, count=len(loops)),
            np.fromiter(chain.from_iterable(loops), dtype=np.int64))


def _loop_steps(graph, hops, vertices):
    """indptr and step edge ids of vertex loops laid end to end in
    vertices, hops[r] of them in loop r; each loop's last step runs back
    to its first vertex."""
    indptr = np.zeros(len(hops) + 1, dtype=np.int64)
    np.cumsum(hops, out=indptr[1:])
    heads = np.roll(vertices, -1)
    heads[indptr[1:] - 1] = vertices[indptr[:-1]]
    return indptr, _edge_ids(graph, vertices, heads)


def _hop_groups(indptr, edges):
    """Per hop count h: the rows with h steps, and their edge ids sorted
    within each row as a (rows, h) matrix."""
    hops = np.diff(indptr)
    for h in np.unique(hops):
        rows = np.flatnonzero(hops == h)
        yield rows, np.sort(edges[indptr[rows, None] + np.arange(h)], axis=1)


@dataclass
class CycleBasis:
    """Simple cycles of a graph, held as one CSR block.

    Cycle r is the vertex loop vertices[indptr[r]:indptr[r + 1]], closed
    back to its first vertex. Its step t runs from loop vertex t to the
    next one along edge edges[indptr[r] + t], and weights[r] is its true
    length. `_finish` returns its cycles sorted by weight, and where a
    loop starts and which way it runs carry no meaning there;
    `classify_cycles` fixes both for the last two rows, the generators.
    """

    vertex_count: int
    indptr: np.ndarray
    vertices: np.ndarray
    edges: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_loops(cls, graph, loops):
        """Block of vertex loops, in the order given. Raises
        CycleBasisError unless every loop is a simple cycle of the graph:
        at least 3 vertices, all distinct, and every step a graph edge."""
        return cls.from_flat(graph, *_flat(loops))

    @classmethod
    def from_flat(cls, graph, hops, vertices):
        """`from_loops` of the loops laid end to end in vertices."""
        indptr, edges = _loop_steps(graph, hops, vertices)
        if np.any(hops < 3):
            raise CycleBasisError("a cycle needs at least 3 vertices")
        key = np.sort(np.repeat(np.arange(len(hops)), hops)
                      * graph.vertex_count + vertices)
        if np.any(key[1:] == key[:-1]):
            raise CycleBasisError("a cycle repeats a vertex")
        weights = np.empty(len(hops))
        for rows, ids in _hop_groups(indptr, edges):
            # summed in sorted edge order, as np.sum over each cycle's ids
            weights[rows] = graph.lengths[ids].sum(axis=1)
        return cls(graph.vertex_count, indptr, vertices, edges, weights)

    @property
    def size(self):
        return len(self.indptr) - 1

    @property
    def hops(self):
        return np.diff(self.indptr)

    def total_weight(self):
        return float(sum(self.weights.tolist()))

    def hop_histogram(self):
        hops, counts = np.unique(self.hops, return_counts=True)
        return dict(zip(hops.tolist(), counts.tolist()))

    def take(self, rows):
        """Block of the given rows, in that order."""
        hops = self.hops[rows]
        indptr = np.zeros(len(hops) + 1, dtype=np.int64)
        np.cumsum(hops, out=indptr[1:])
        flat = (np.repeat(self.indptr[rows] - indptr[:-1], hops)
                + np.arange(indptr[-1]))
        return CycleBasis(self.vertex_count, indptr, self.vertices[flat],
                          self.edges[flat], self.weights[rows])

    def sorted(self):
        """The same cycles ordered by weight, then hops, then their sorted
        edge ids compared lexicographically."""
        rank = np.empty(self.size, dtype=np.int64)
        for rows, ids in _hop_groups(self.indptr, self.edges):
            rank[rows[np.lexsort(ids.T[::-1])]] = np.arange(len(rows))
        return self.take(np.lexsort((rank, self.hops, self.weights)))

    def digest(self):
        """sha256 of indptr, then of each cycle's edge ids in ascending
        order, all as little-endian int64."""
        row = np.repeat(np.arange(self.size), self.hops)
        ordered = self.edges[np.lexsort((self.edges, row))]
        digest = hashlib.sha256(self.indptr.astype("<i8").tobytes())
        digest.update(ordered.astype("<i8").tobytes())
        return digest.hexdigest()


class _Workspace:
    """Shared state: perturbed weights, the adjacency in CSR order (row v
    is head[indptr[v]:indptr[v + 1]], ascending, eid each slot's edge),
    the shortest-path tree from vertex 0 (`pred`, negative at vertex 0,
    and the perturbed distance `dist`), and the GF(2) coordinates of the
    edges off it (`nontree`, ascending)."""

    def __init__(self, graph):
        self.graph = graph
        self.n = graph.vertex_count
        self.E = len(graph.edges)
        self.m = self.E - self.n + 1
        self.ex, self.ey = graph.edges.T
        rng = np.random.default_rng(_INTERNAL_SEED)
        # deterministic tie-breaking perturbation, far above float noise
        # and far below any honest weight difference
        self.w_pert = graph.lengths * (1.0 + _PERTURB_EPS * (1.0 + rng.random(self.E)))
        tail, head = np.r_[self.ex, self.ey], np.r_[self.ey, self.ex]
        order = np.lexsort((head, tail))
        self.head, self.eid = head[order], order % self.E
        self.indptr = np.searchsorted(tail[order], np.arange(self.n + 1))
        # shortest-path tree from vertex 0: its non-tree edges are the
        # coordinates, so a complement vector is already a cut on its seam
        adjacency = csr_matrix((self.w_pert[self.eid], self.head, self.indptr),
                               shape=(self.n, self.n))
        dist, pred = dijkstra(adjacency, indices=0, return_predecessors=True)
        v = np.flatnonzero(pred >= 0)
        nontree = np.setdiff1d(np.arange(self.E), _edge_ids(graph, pred[v], v))
        if len(nontree) != self.m:
            raise CycleBasisError("spanning tree construction failed")
        self.pred, self.dist = pred, dist
        self.coord = np.full(self.E, -1, dtype=np.int64)
        self.coord[nontree] = np.arange(self.m)
        self.nontree = nontree
        # the first bound of the odd-cycle search
        self.theta0 = 5.0 * float(np.median(self.w_pert)) if self.E else 0.0
        self.w_max = float(np.max(self.w_pert, initial=0.0))


def _slot_pairs(ptr):
    """Every pair of positions p < q inside one slice ptr[i]:ptr[i + 1],
    as two arrays (p, q), in order of p, then q."""
    pos = np.arange(ptr[-1])
    later = np.repeat(ptr[1:], np.diff(ptr)) - pos - 1
    # the k-th pair of p sits at start[p] + k and has q = p + 1 + k
    q = np.repeat(pos + 1 - (np.cumsum(later) - later), later)
    q += np.arange(len(q))
    return np.repeat(pos, later), q


def _check_wedges(ws):
    """Raise ConfigError when the graph has more than _WEDGE_BOUND wedges
    (pairs of edges at one vertex), naming the largest k that could fit:
    every vertex of a k-nearest-neighbour graph has at least k
    neighbours, so it has at least n k (k - 1) / 2 wedges."""
    deg = np.diff(ws.indptr)
    wedges = int(np.sum(deg * (deg - 1) // 2))
    if wedges > _WEDGE_BOUND:
        k_max = (math.isqrt(4 * (2 * _WEDGE_BOUND // ws.n) + 1) + 1) // 2
        raise ConfigError(
            f"the neighbour graph has {wedges} wedges (pairs of edges at "
            f"one vertex), over the {_WEDGE_BOUND} that keep the triangle "
            f"and square search within 1 GiB; k is at most the least "
            f"degree, {int(deg.min())}, and {ws.n} points fit only with "
            f"k <= {k_max}: retry with a smaller k",
            wedges=wedges, wedge_bound=_WEDGE_BOUND, k_max=k_max)


def _short_cycles(ws):
    """Every triangle and every chordless square of the graph, once each,
    as (vertex loops, edge ids) pairs: one of (k3, 3) arrays, one of
    (k4, 4) arrays.

    A wedge is a centre c with two of its neighbours x < y. A closed wedge
    (x and y adjacent) is a triangle, kept at its smallest vertex c. Two
    open wedges on one pair x, y whose centres c1, c2 are not adjacent
    make the chordless square x c1 y c2; its other diagonal c1 c2 finds it
    again, so it is kept from the diagonal holding its smallest vertex.
    A wedge is held as its two slots in the sorted adjacency lists, and
    its centre, ends and edges are looked up only where they are needed:
    a few wedge-long arrays are alive at a time, after `_check_wedges`.
    """
    _check_wedges(ws)
    n, E = ws.n, ws.E
    keys = ws.ex * n + ws.ey

    def edge_at(q):
        # (position of each key q = a * n + b, whether that pair is an edge)
        pos = np.searchsorted(keys, q)
        np.minimum(pos, E - 1, out=pos)
        return pos, keys[pos] == q

    head, eid = ws.head, ws.eid
    tail = np.repeat(np.arange(n), np.diff(ws.indptr))
    # wedge w: centre tail[a[w]], ends x = head[a[w]] < y = head[b[w]]
    a, b = _slot_pairs(ws.indptr)
    q = head[a] * n
    q += head[b]
    exy, closed = edge_at(q)
    del q
    t = np.flatnonzero(closed & (tail[a] < head[a]))
    ta, tb = a[t], b[t]
    triangles = (np.column_stack([tail[ta], head[ta], head[tb]]),
                 np.column_stack([eid[ta], exy[t], eid[tb]]))
    del exy, t, ta, tb
    open_ = ~closed
    a, b = a[open_], b[open_]
    # open wedges grouped by their pair; within a group the centres
    # ascend, as the wedges were made in centre order and the sort is stable
    q = head[a] * n
    q += head[b]
    order = np.argsort(q, kind="stable")
    del q
    a, b = a[order], b[order]
    x, y, c = head[a], head[b], tail[a]
    i, j = _slot_pairs(np.flatnonzero(np.r_[True, (x[1:] != x[:-1])
                                            | (y[1:] != y[:-1]), True]))
    keep = ~edge_at(c[i] * n + c[j])[1] & (x[i] < c[i])
    i, j = i[keep], j[keep]
    squares = (np.column_stack([x[i], c[i], y[i], c[j]]),
               np.column_stack([eid[a[i]], eid[b[i]], eid[b[j]], eid[a[j]]]))
    return triangles, squares


def _face_reduction(faces, m):
    """GF(2) column reduction of the rows faces[r], sets of coordinates
    (-1 pads a row) in rank order: (kept, comp), the rows independent of
    all earlier ones, ascending, and the complement basis of their span
    with one vector per free coordinate f, ascending, holding f as its
    largest coordinate and no other free coordinate.

    Column c holds the rows meeting c, then the tracking row R - 1 - c;
    its pivot is its first row. Each round, each pivot no column owns
    yet is claimed and frozen by the lowest column holding it, and every
    other column adds the frozen owner of its pivot. Column additions
    keep the rank of every row prefix, so the owned rows are those a
    greedy keeps (the pairing lemma of column-reduction persistence,
    Bauer, "Ripser", 2021). A column whose face rows cancel owns the
    tracking row of its largest coordinate, a free one; back-substitution
    in ascending f clears its lower free coordinates with vectors of
    lower coordinates only, so f stays the largest."""
    F, R = len(faces), len(faces) + m
    r, j = np.nonzero(faces >= 0)
    c = np.arange(m)
    # column after column, each as its sorted keys col * R + row
    keys = np.sort(np.concatenate([faces[r, j] * R + r, c * R + R - 1 - c]))
    owner = np.full(R, -1, dtype=np.int64)
    start = np.zeros(m, dtype=np.int64)     # the rows of frozen column c
    size = np.zeros(m, dtype=np.int64)      # are store[start[c]:][:size[c]]
    store, end = np.empty(len(keys), dtype=np.int64), 0
    while len(keys):
        col = keys // R
        head = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
        lead, pivot = col[head], keys[head] % R
        free = owner[pivot] < 0
        won, first = np.unique(pivot[free], return_index=True)
        owner[won] = lead[free][first]
        frozen = np.zeros(m, dtype=bool)
        frozen[owner[won]] = True
        held, claimed = frozen[col], frozen[lead]
        rows = keys[held] % R
        if end + len(rows) > len(store):
            grown = np.empty(len(store) + len(rows), dtype=np.int64)
            store = np.concatenate([store[:end], grown])
        store[end:end + len(rows)] = rows
        counts = np.diff(np.r_[head, len(keys)])[claimed]
        start[lead[claimed]] = end + np.cumsum(counts) - counts
        size[lead[claimed]] = counts
        end += len(rows)
        src = owner[pivot[~claimed]]
        k = size[src]
        at = np.repeat(start[src] - np.cumsum(k) + k, k) + np.arange(k.sum())
        # two sorted runs, which the stable sort merges; XOR drops pairs
        keys = np.sort(np.concatenate([
            keys[~held], store[at] + np.repeat(lead[~claimed], k) * R]),
            kind="stable")
        odd = np.ones(len(keys), dtype=bool)
        pair = keys[1:] == keys[:-1]
        odd[1:] &= ~pair
        odd[:-1] &= ~pair
        keys = keys[odd]
    comp = {}
    for f in np.flatnonzero(owner[F:][::-1] >= 0).tolist():
        o = owner[R - 1 - f]
        s = set((R - 1 - store[start[o]:start[o] + size[o]]).tolist())
        for g in s.intersection(comp):
            s ^= comp[g]
        comp[f] = s
    return np.flatnonzero(owner[:F] >= 0), list(comp.values())


def _short_cycle_basis(ws):
    """The triangles and chordless squares independent of all lighter
    ones, as (k3, 3) and (k4, 4) vertex loops; the complement basis of
    their span, certified to pair evenly with every one of them; and
    every triangle and chordless square as a CSR row over the m
    coordinates, +1 on a step from the lower id to the higher, else -1."""
    (tri, tri_e), (sq, sq_e) = _short_cycles(ws)
    faces = np.full((len(tri) + len(sq), 4), -1, dtype=np.int64)
    faces[:len(tri), :3] = ws.coord[tri_e]
    faces[len(tri):] = ws.coord[sq_e]
    order = np.argsort(np.concatenate([ws.w_pert[tri_e].sum(axis=1),
                                       ws.w_pert[sq_e].sum(axis=1)]),
                       kind="stable")
    kept, comp = _face_reduction(faces[order], ws.m)
    kept = order[kept]
    # bit i of word[c]: complement vector lo + i holds coordinate c;
    # word[-1] stays 0 for the padding and the tree edges
    for lo in range(0, len(comp), 64):
        word = np.zeros(ws.m + 1, dtype=np.uint64)
        for i, s in enumerate(comp[lo:lo + 64]):
            word[list(s)] |= np.uint64(1 << i)
        if np.any(np.bitwise_xor.reduce(word[faces], axis=1)):
            raise CycleBasisError("a complement vector pairs oddly with a "
                                  "triangle or square")
    log.info("short cycles: %d triangles and %d squares fill %d of %d slots",
             len(tri), len(sq), len(kept), ws.m)
    # built after the reduction, whose transient is this step's peak RSS
    signs = np.zeros(faces.shape, dtype=np.int8)
    signs[:len(tri), :3] = np.where(tri == ws.ex[tri_e], 1, -1)
    signs[len(tri):] = np.where(sq == ws.ex[sq_e], 1, -1)
    on = faces >= 0
    rows = csr_matrix((signs[on], faces[on], np.r_[0, np.cumsum(on.sum(1))]),
                      shape=(len(faces), ws.m))
    is_tri = kept < len(tri)
    return [tri[kept[is_tri]], sq[kept[~is_tri] - len(tri)]], comp, rows


def _walk_to_source(prow, v, x):
    """Tree path x -> v in a predecessor row, as a vertex list."""
    verts = [x]
    while x != v:
        x = int(prow[x])
        if x < 0:
            raise CycleBasisError("broken predecessor chain")
        verts.append(x)
    return verts


def _vertex_cover(x, y):
    """Sorted vertex cover of the edges (x[t], y[t]), taken greedily: the
    vertex meeting most uncovered edges, the smallest on ties, until no
    edge is left."""
    cover = []
    while len(x):
        v = int(np.argmax(np.bincount(np.concatenate([x, y]))))
        cover.append(v)
        keep = (x != v) & (y != v)
        x, y = x[keep], y[keep]
    return np.sort(np.array(cover, dtype=np.int64))


def _odd_walks(ws, cover, seam, radius):
    """Lightest odd closed walk found by Dijkstras on the double cover
    limited to radius, _BLOCK seam sources at a time: (weight, source,
    meeting vertex x), weight inf when none is found.

    From source v, d(v, x) + d(v, x') over x and its copy x' on the other
    sheet is the weight of an odd closed walk through v and x. A later
    source replaces the best walk so far, of weight b, only with a walk
    lighter than b, which a search to b/2 + w_max finds exactly; so each
    block searches to min(radius, b/2 + w_max), and the first strictly
    lightest source is kept as with radius alone. One block's distances
    are alive at a time, the halves of each row summed in place; a row
    at a time, as a reduction over the strided half-block would copy it."""
    n = ws.n
    best, source, meet = np.inf, None, None
    for lo in range(0, len(seam), _BLOCK):
        block = seam[lo:lo + _BLOCK]
        dist = dijkstra(cover, indices=block,
                        limit=min(radius, best / 2 + ws.w_max))
        for v, row in zip(block.tolist(), dist):
            odd = row[:n]
            odd += row[n:]
            x = int(np.argmin(odd))
            if odd[x] < best:
                best, source, meet = float(odd[x]), v, x
        del dist
    return best, source, meet


def _lightest_odd_cycle(ws, s):
    """Vertex loop of the lightest cycle pairing oddly with the coordinate
    set s, or None when the search finds no such cycle.

    s is a cut: the edges off the shortest-path tree from vertex 0 whose
    coordinate it holds, so the cut lies on that tree's seam. On the
    double cover whose two sheets swap across the cut, the distance
    from v to its copy v' is the lightest closed walk through v that
    pairs oddly with s. Every such walk crosses the seam, so it passes
    through each vertex cover of the seam's edges; the vertices of one
    cover are the only sources needed, and the lightest walk among them
    is a simple cycle: a repeated vertex would split off a lighter odd
    walk.

    The search only reaches half way round. A shortest path of weight L
    from v to v' has a vertex x with d(v, x) <= L/2 and, as swapping the
    sheets maps it onto a path from v' to x, d(v, x') <= L/2 + w_max.
    So Dijkstras limited to B/2 + w_max (scipy keeps distances equal to
    the limit) find the lightest walk exactly whenever it weighs at most
    B, and no walk they find is lighter than it. The first round takes
    B = theta0; when its best walk is heavier than that, a second round
    takes B from that walk or, when it found none, from one unlimited
    Dijkstra from a seam vertex.

    Per slot it costs O(E) to lay out the cover's CSR arrays from the
    shared adjacency, with no sort, plus the limited Dijkstras from the
    seam cover and the one that walks the chosen cycle back.
    """
    n = ws.n
    cross = np.zeros(ws.E, dtype=bool)
    cross[ws.nontree[list(s)]] = True
    seam = _vertex_cover(ws.ex[cross], ws.ey[cross])
    if not len(seam):
        return None
    jump = n * cross[ws.eid]        # cut edges join the two sheets
    cover = csr_matrix(
        (np.tile(ws.w_pert[ws.eid], 2),
         np.concatenate([ws.head + jump, ws.head + n - jump]),
         np.r_[ws.indptr, ws.indptr[1:] + 2 * ws.E]), shape=(2 * n, 2 * n))
    bound = ws.theta0
    best, source, meet = _odd_walks(ws, cover, seam, bound / 2 + ws.w_max)
    if not best <= bound:
        bound = best if source is not None else float(
            dijkstra(cover, indices=seam[0])[seam[0] + n])
        best, source, meet = _odd_walks(ws, cover, seam,
                                        bound / 2 + ws.w_max)
    if source is None:
        return None
    _, pred = dijkstra(cover, indices=source, limit=bound / 2 + ws.w_max,
                       return_predecessors=True)
    # v -> x', which the sheet swap maps onto v' -> x, then x -> v
    walk = (_walk_to_source(pred, source, meet + n)[::-1]
            + _walk_to_source(pred, source, meet)[1:])
    return [u % n for u in walk[:-1]]


def _phase_b(ws, chosen, comp):
    """Finish the basis by de Pina's rule: each complement vector in turn
    takes the lightest cycle pairing oddly with it, and is folded into
    every later vector that cycle also pairs oddly with, which keeps the
    later vectors orthogonal to every chosen cycle, so the odd pairing
    makes each new cycle independent of them."""
    for i, s in enumerate(comp):
        loop = _lightest_odd_cycle(ws, s)
        if loop is None:
            raise CycleBasisError(
                f"cycle basis incomplete: {len(comp) - i} slots left "
                f"unfilled, no cycle pairs oddly with a complement vector")
        coord = ws.coord[_loop_steps(ws.graph, *_flat([loop]))[1]]
        vec = set(coord[coord >= 0].tolist())
        if not len(vec & s) & 1:
            raise CycleBasisError("lightest odd cycle pairs evenly")
        chosen.append(np.array([loop], dtype=np.int64))
        comp[i + 1:] = [t ^ s if len(vec & t) & 1 else t
                        for t in comp[i + 1:]]


def _sorted_block(ws, loops):
    """The loops of 2-D vertex arrays (a loop per row) as one block sorted
    by weight."""
    return CycleBasis.from_flat(
        ws.graph, np.concatenate([np.full(len(a), a.shape[1]) for a in loops]),
        np.concatenate([a.ravel() for a in loops])).sorted()


def _finish(ws, chosen, comp):
    """Fill the slots left by de Pina's rule, from comp, the complement
    basis of the span of chosen (2-D vertex arrays, a loop per row), and
    return the basis as a block sorted by weight.

    On the triangles and chordless squares `_short_cycle_basis` keeps,
    the result is always a basis of simple cycles. It is the minimum
    basis whenever every minimum-basis cycle lighter than the heaviest
    chosen triangle or square has at most 4 hops: the family then holds
    every cycle the exact greedy picks up to that weight, so the greedy
    over it picks the same ones, and de Pina's rule completes them
    exactly."""
    if comp:
        log.info("support-vector phase for %d remaining cycles", len(comp))
        _phase_b(ws, chosen, comp)
    basis = _sorted_block(ws, chosen)
    if basis.size != ws.m:
        raise CycleBasisError(
            f"basis incomplete: {basis.size} of {ws.m} cycles")
    log.info("cycle basis: %d cycles, total weight %.6g",
             basis.size, basis.total_weight())
    return basis


def classify_cycles(basis):
    """The basis with its last two rows, the heaviest two cycles, as the
    homology generators: the poloidal one, then the toroidal one.

    Each generator's loop starts at its smallest vertex and runs toward
    the smaller of that vertex's two neighbours on the loop, which fixes
    the sign of its form; its steps follow. The other rows are kept as
    they are, and `basis` is not changed.

    Requires the lighter generator to outweigh the heaviest trivial cycle
    by _GENERATOR_RATIO, or the split is not trustworthy; the error's
    `diagnostics` holds both weights and their ratio.
    """
    if basis.size < 2:
        raise GeneratorClassificationError(
            f"need at least 2 cycles to classify, have {basis.size}")
    k = basis.size - 2
    weight = float(basis.weights[k])
    ratio = _GENERATOR_RATIO
    if k and weight < ratio * basis.weights[k - 1]:
        trivial = float(basis.weights[k - 1])
        raise GeneratorClassificationError(
            "generator weights not separated from trivial cycles: "
            f"{weight:.6g} vs {trivial:.6g} (need factor {ratio}); "
            "the cloud is sparse or uneven: raise k or sample more points",
            diagnostics={"generator_weight": weight,
                         "trivial_weight_max": trivial,
                         "ratio": weight / trivial, "required_ratio": ratio})
    return _run_generators(basis)


def _run_generators(basis):
    """`basis` with its last two loops run by `classify_cycles`'s rule."""
    k = basis.size - 2
    vertices, edges = basis.vertices.copy(), basis.edges.copy()
    for lo, hi in zip(basis.indptr[k:-1], basis.indptr[k + 1:]):
        start = -int(np.argmin(vertices[lo:hi]))
        loop = np.roll(vertices[lo:hi], start)
        steps = np.roll(edges[lo:hi], start)
        if loop[-1] < loop[1]:
            loop, steps = np.roll(loop[::-1], 1), steps[::-1]
        vertices[lo:hi], edges[lo:hi] = loop, steps
    return CycleBasis(basis.vertex_count, basis.indptr, vertices, edges,
                      basis.weights)


def _fundamental_weights(ws, edges):
    """Perturbed weight of each given non-tree edge's fundamental cycle:
    the edge and the tree paths from its ends to their lowest common
    ancestor. Ancestors lie strictly closer to vertex 0, so the end
    farther from it (both, on a tie) steps up until the two meet."""
    pred, d = ws.pred, ws.dist
    a, b = ws.ex[edges], ws.ey[edges]
    while len(live := np.flatnonzero(a != b)):
        up_a = live[d[a[live]] >= d[b[live]]]
        up_b = live[d[b[live]] >= d[a[live]]]
        a[up_a], b[up_b] = pred[a[up_a]], pred[b[up_b]]
    return d[ws.ex[edges]] + d[ws.ey[edges]] - 2.0 * d[a] + ws.w_pert[edges]


def _fundamental_loop(ws, edge):
    """Vertex loop of a non-tree edge's fundamental cycle, from one end of
    the edge up the tree and down to its other end."""
    i, j = int(ws.ex[edge]), int(ws.ey[edge])
    up_i = _walk_to_source(ws.pred, 0, i)
    up_j = _walk_to_source(ws.pred, 0, j)
    while len(up_i) > 1 and len(up_j) > 1 and up_i[-2] == up_j[-2]:
        up_i.pop()
        up_j.pop()
    return up_i + up_j[-2::-1]


def _with_generators(graph, trivial, loops):
    """The rows of the block `trivial`, then the two generator loops, the
    poloidal one first, each run as `classify_cycles` runs it."""
    gens = _run_generators(CycleBasis.from_loops(graph, loops))
    return CycleBasis(
        trivial.vertex_count,
        np.r_[trivial.indptr, trivial.indptr[-1] + gens.indptr[1:]],
        np.r_[trivial.vertices, gens.vertices],
        np.r_[trivial.edges, gens.edges],
        np.r_[trivial.weights, gens.weights])


def export_cycles_json(path, basis):
    """Dump a classified cycle basis as deterministic JSON: the two
    generators in full, the trivial cycles as a summary of their count,
    their count per hop and their digest."""
    k = basis.size - 2
    rest = basis.take(np.arange(k))
    ptr = basis.indptr.tolist()
    payload = {
        "cycle_count": basis.size,
        "vertex_count": basis.vertex_count,
        "total_weight": basis.total_weight(),
        "generators": [
            {
                "vertices": basis.vertices[ptr[r]:ptr[r + 1]].tolist(),
                "edges": np.sort(basis.edges[ptr[r]:ptr[r + 1]]).tolist(),
                "weight": float(basis.weights[r]),
                "hops": ptr[r + 1] - ptr[r],
                "role": name,
            }
            for r, name in ((k, "poloidal"), (k + 1, "toroidal"))
        ],
        "summary": {
            "role": "trivial",
            "count": rest.size,
            "hop_counts": {str(h): c for h, c in rest.hop_histogram().items()},
            "sha256": rest.digest(),
        },
    }
    _write_json(path, payload, indent=True)
