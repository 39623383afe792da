"""Exact minimum cycle bases, kept beside the tests as the references that
the library's split is compared with.

`homology_split` is that split on its own: the triangles and chordless
squares the column reduction keeps, completed by de Pina's rule, as
`parameterize` runs it when the period lattice defers. It is the
minimum basis under the condition `_finish` states.

`minimum_cycle_basis` is exact on every graph: one band, then de Pina.
The band is a greedy over the Horton candidate family (cycles formed by
two shortest paths plus a closing edge) up to a weight theta0, in global
weight order, harvested from shortest-path trees truncated at theta0; it
builds the candidates and their path signatures only from the vertices
each truncated Dijkstra reaches. The library's de Pina rule finishes the
basis, and is exact after any greedy prefix of the minimum basis
(Kavitha et al., "Cycle bases in graphs", 2009).

`exhaustive_minimum_cycle_basis` is the brute-force oracle for small
graphs: a greedy over every simple cycle.

All three run on the library's workspace, so their weights carry the
same tie-breaking perturbation.

`greedy` and `complement_basis` are the set-based GF(2) elimination the
library's column reduction is compared with: a row at a time, each row
a set of coordinates reduced against the pivot rows kept so far, and
the complement basis back-substituted over the pivot rows.
"""

import heapq
from itertools import islice

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from torusforge.cycles import (_INTERNAL_SEED, _PERTURB_EPS, CycleBasis,
                               _edge_ids, _finish, _flat, _loop_steps,
                               _short_cycle_basis, _short_cycles,
                               _walk_to_source, _Workspace)
from torusforge.errors import CycleBasisError


def homology_split(graph):
    """The library's cycle basis of a torus graph, sorted by nondecreasing
    weight, with de Pina's rule filling every slot the faces leave."""
    ws = _Workspace(graph)
    return _finish(ws, *_short_cycle_basis(ws)[:2])


def chunk_size(n):
    """Loops per edge lookup in `vectors`, and sources per n-wide Dijkstra
    block of the band: c x n float64 <= 12 MB."""
    return max(1, min(512, 1_500_000 // max(n, 1)))


def vectors(ws, loops):
    """(loop, GF(2) vector) for each vertex loop, the vector as the set of
    the loop's coordinates. The loops' edges are looked up a chunk of
    loops at a time, so an iterator of loops is consumed only as far as
    the caller reads."""
    loops = iter(loops)
    while batch := list(islice(loops, chunk_size(ws.n))):
        indptr, edges = _loop_steps(ws.graph, *_flat(batch))
        coord = ws.coord[edges].tolist()
        ptr = indptr.tolist()
        for loop, lo, hi in zip(batch, ptr[:-1], ptr[1:]):
            yield loop, {c for c in coord[lo:hi] if c >= 0}


def reduce_vector(vec, pivots):
    """Eliminate the coordinate set vec against the pivot rows, in place;
    returns (residual, new pivot) with pivot None when vec lies in the
    current span. A pivot is its row's smallest coordinate."""
    while vec:
        low = min(vec)
        row = pivots.get(low)
        if row is None:
            return vec, low
        vec ^= row
    return vec, None


def greedy(ws, pivots, chosen, rows):
    """Append to chosen, in order, the loop of each (loop, vector) row
    independent of the span of the pivot rows, until the basis is
    complete."""
    for loop, vec in rows:
        resid, pivot = reduce_vector(vec, pivots)
        if pivot is None:
            continue
        pivots[pivot] = resid
        chosen.append(loop)
        if len(chosen) == ws.m:
            break


def complement_basis(ws, pivots):
    """Basis of the GF(2) orthogonal complement of the span of the pivot
    rows: for each free coordinate f, the coordinate set s holding f that
    pairs evenly with every pivot row.

    Back-substitution adds pivot p to s when row p pairs oddly with s so
    far, in decreasing pivot order, as a row holds no coordinate below
    its pivot. A row that meets s nowhere pairs evenly, so only the rows
    meeting s are visited: a column index lists, for each coordinate,
    the pivots below it whose row holds it, and a max-heap hands them out
    in decreasing order."""
    below = {}
    for p, row in pivots.items():
        for c in row:
            if c != p:
                below.setdefault(c, []).append(-p)
    out = []
    for f in range(ws.m):
        if f in pivots:
            continue
        s = {f}
        heap = list(below.get(f, ()))
        heapq.heapify(heap)
        last = None
        while heap:
            p = -heapq.heappop(heap)
            if p == last:
                continue
            last = p
            if len(pivots[p] & s) & 1:
                s.add(p)
                for q in below.get(p, ()):
                    heapq.heappush(heap, q)
        out.append(s)
    return out


def short_cycle_greedy(ws, pivots, chosen):
    """The set-based greedy over the triangles and chordless squares in
    perturbed weight order, appending each independent one's vertex loop
    to chosen and its pivot row to pivots."""
    loops, rows, weights = [], [], []
    for verts, eids in _short_cycles(ws):
        loops += verts.tolist()
        rows += ws.coord[eids].tolist()
        weights.append(ws.w_pert[eids].sum(axis=1))
    order = np.argsort(np.concatenate(weights), kind="stable").tolist()
    greedy(ws, pivots, chosen,
           ((loops[r], {c for c in rows[r] if c >= 0}) for r in order))


def neighbor_rows(graph):
    """Each vertex's neighbours in ascending order, as the rows of the
    graph's CSR adjacency matrix."""
    n = graph.vertex_count
    src, dst = np.concatenate([graph.edges, graph.edges[:, ::-1]]).T
    csr = csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    return np.split(csr.indices.astype(np.int64), csr.indptr[1:-1])


def workspace(graph):
    """The library's workspace plus the band's tables: the perturbed
    weights as a CSR matrix on the workspace's adjacency, `csgraph`, a
    Zobrist value per edge, drawn from the internal seed right after the
    weight perturbation, edge_start, with the edges whose first end is v
    at edge_start[v]:edge_start[v + 1] (the edge list is sorted), and the
    band's sources per block, `chunk`."""
    ws = _Workspace(graph)
    ws.csgraph = csr_matrix((ws.w_pert[ws.eid], ws.head, ws.indptr),
                            shape=(ws.n, ws.n))
    rng = np.random.default_rng(_INTERNAL_SEED)
    pert = graph.lengths * (1.0 + _PERTURB_EPS * (1.0 + rng.random(ws.E)))
    assert np.array_equal(pert, ws.w_pert), "perturbation draw moved"
    ws.zob = rng.integers(0, 2**63, size=ws.E, dtype=np.uint64)
    ws.edge_start = np.searchsorted(ws.ex, np.arange(ws.n + 1))
    ws.chunk = chunk_size(ws.n)
    return ws


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


def _candidate_loop(ws, prow, v, e):
    """Vertex loop of the Horton candidate (v, e): the tree path from x to
    v, then back from v to y, closed by e = (x, y). None when the two
    paths share a vertex besides v, or e lies on one of them (the loop
    would not be simple)."""
    vx = _walk_to_source(prow, v, int(ws.ex[e]))
    vy = _walk_to_source(prow, v, int(ws.ey[e]))
    if len(set(vx) & set(vy)) != 1 or len(vx) + len(vy) < 4:
        return None
    return vx + vy[-2::-1]


def banded_chunks(ws, theta):
    """Yield, per block of sources, the candidates weighing at most theta
    as arrays (weight, source, edge, signature), and the int32
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
        g[tree] = ws.zob[_edge_ids(ws.graph, p[tree], v[tree])]
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
        band = wc <= theta
        at, es, to = at[band], es[band], to[band]
        sig = zpath[at] ^ zpath[to] ^ ws.zob[es]
        yield wc[band], lo + row[at], es, sig, preds


def phase_a(ws, pivots, chosen, theta):
    """Greedy over the Horton candidates weighing at most theta, in
    nondecreasing weight order: one band.

    The band runs one truncated Dijkstra per source. Its reached entries
    give the candidates, ranked by weight, and their Zobrist signatures,
    so that only the first candidate of each cycle is walked, on the
    band's predecessor rows (n x n int32, alive only in this frame).
    Every candidate that light is reached, so the band picks exactly the
    minimum basis's cycles up to theta; de Pina's rule finishes it.
    """
    parts = list(banded_chunks(ws, theta))
    preds = [p[4] for p in parts]
    wc, vs, es, sg = (np.concatenate([p[k] for p in parts]) for k in range(4))
    del parts
    order = np.lexsort((es, vs, wc))
    vs, es, sg = vs[order], es[order], sg[order]
    walk = np.sort(np.unique(sg, return_index=True)[1])
    loops = (_candidate_loop(ws, preds[v // ws.chunk][v % ws.chunk], v, e)
             for v, e in zip(vs[walk].tolist(), es[walk].tolist()))
    greedy(ws, pivots, chosen,
           vectors(ws, (loop for loop in loops if loop is not None)))


def minimum_cycle_basis(graph, theta0=None):
    """Exact minimum-weight cycle basis, sorted by nondecreasing weight:
    one band, then de Pina.

    The band takes the Horton candidates weighing at most theta0 (default
    five median edge weights), which gives the minimum basis's greedy
    prefix up to theta0; de Pina's rule completes it exactly. Ties
    anywhere in the weight ordering are broken by the library's fixed
    internal perturbation, so results are deterministic for identical
    input.
    """
    ws = workspace(graph)
    if ws.m == 0:
        return CycleBasis.from_loops(graph, [])
    pivots = {}
    chosen = []
    phase_a(ws, pivots, chosen, ws.theta0 if theta0 is None else theta0)
    return _finish(ws, [np.array([loop]) for loop in chosen],
                   complement_basis(ws, pivots))


def exhaustive_minimum_cycle_basis(graph, max_edges=20):
    """Brute-force oracle: greedy over every simple cycle, in the order
    `CycleBasis.sorted` gives. Only for small graphs; exact including
    ties."""
    E = len(graph.edges)
    if E > max_edges:
        raise CycleBasisError(f"exhaustive search limited to {max_edges} edges")
    n = graph.vertex_count
    m = E - n + 1 if n else 0
    adjacency = neighbor_rows(graph)
    loops = []

    def extend(path):
        # each cycle is found from its smallest vertex, once per direction
        for w in adjacency[path[-1]].tolist():
            if w == path[0] and len(path) >= 3 and path[1] < path[-1]:
                loops.append(path)
            elif w > path[0] and w not in path:
                extend(path + [w])

    for s in range(n):
        extend([s])
    block = CycleBasis.from_loops(graph, loops).sorted()
    chosen = []
    ws = _Workspace(graph)
    greedy(ws, {}, chosen,
           vectors(ws, np.split(block.vertices, block.indptr[1:-1])))
    if len(chosen) != m:
        raise CycleBasisError("exhaustive enumeration missed the cycle space")
    return CycleBasis.from_loops(graph, chosen)
