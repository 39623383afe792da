"""Cycle bases: the exact references (frozen grid oracles, brute-force
comparison on random graphs, GF(2) rank), the CSR cycle block, the
triangle and chordless-square split against the exact minimum basis, and
generator classification."""

import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import bmat, coo_matrix
from scipy.sparse.csgraph import dijkstra

import reference_cycles
from conftest import graph_from_edges, periodic_grid, solve_oneforms
from reference_cycles import (exhaustive_minimum_cycle_basis, homology_split,
                              minimum_cycle_basis, neighbor_rows)
from torusforge import cycles
from torusforge.cycles import CycleBasis, classify_cycles, export_cycles_json
from torusforge.errors import (CycleBasisError, GeneratorClassificationError)
from torusforge.knn import build_knn_graph
from torusforge.samplers import sample_torus_revolution

# Frozen oracles for the flat-torus grids, confirmed by the exhaustive
# enumerator where feasible: basis size E - V + 1, total weight, and the
# hop histogram are all unique even though individual cycles may tie.
GRID_ORACLE = {
    3: (10, 34.0, {3: 6, 4: 4}),
    5: (26, 106.0, {4: 24, 5: 2}),
    6: (37, 152.0, {4: 35, 6: 2}),
}


def block_rows(block):
    """(vertex loop, step edge ids) of each cycle of a block."""
    ptr = block.indptr.tolist()
    return [(block.vertices[a:b], block.edges[a:b])
            for a, b in zip(ptr[:-1], ptr[1:])]


def block_row(block, r):
    """(vertex loop, step edge ids) of row r of a block."""
    lo, hi = block.indptr[r], block.indptr[r + 1]
    return block.vertices[lo:hi], block.edges[lo:hi]


def canonical_loop(loop):
    """Reference rule for a generator's loop: started at its smallest
    vertex and run toward the smaller of that vertex's two neighbours."""
    loop = [int(v) for v in loop]
    start = loop.index(min(loop))
    loop = loop[start:] + loop[:start]
    if loop[-1] < loop[1]:
        loop = loop[:1] + loop[:0:-1]
    return loop


def assert_rows_are_simple_cycles(graph, block):
    index = {(i, j): e for e, (i, j) in enumerate(graph.edges.tolist())}
    for r, (loop, steps) in enumerate(block_rows(block)):
        loop = loop.tolist()
        assert len(loop) >= 3 and len(set(loop)) == len(loop)
        pairs = zip(loop, loop[1:] + loop[:1])
        ids = [index[min(a, b), max(a, b)] for a, b in pairs]
        assert ids == steps.tolist()
        deg = {}
        for e in steps:
            for v in graph.edges[e]:
                deg[int(v)] = deg.get(int(v), 0) + 1
        assert all(d == 2 for d in deg.values())
        assert block.weights[r] == np.sum(graph.lengths[np.sort(steps)])


def gf2_rank(block):
    masks = []
    for _, steps in block_rows(block):
        m = 0
        for e in steps:
            m |= 1 << int(e)
        masks.append(m)
    pivots = {}
    rank = 0
    for m in masks:
        while m:
            top = m.bit_length() - 1
            if top not in pivots:
                pivots[top] = m
                rank += 1
                break
            m ^= pivots[top]
    return rank


@pytest.mark.parametrize("n", [3, 5, 6])
def test_grid_basis_matches_frozen_oracle(n):
    graph = periodic_grid(n)
    basis = minimum_cycle_basis(graph)
    size, weight, hist = GRID_ORACLE[n]
    assert basis.size == size
    assert basis.total_weight() == pytest.approx(weight, abs=1e-9)
    assert basis.hop_histogram() == hist
    assert_rows_are_simple_cycles(graph, basis)
    assert gf2_rank(basis) == basis.size


def test_grid3_equals_exhaustive_enumeration():
    graph = periodic_grid(3)
    greedy = minimum_cycle_basis(graph)
    brute = exhaustive_minimum_cycle_basis(graph)
    assert brute.size == greedy.size == 10
    assert brute.total_weight() == pytest.approx(greedy.total_weight())
    assert brute.hop_histogram() == greedy.hop_histogram()


def test_basis_sorted_by_weight():
    basis = homology_split(periodic_grid(5))
    assert np.all(np.diff(basis.weights) >= 0)


def random_connected_graph(rng, n, extra_edges, tie_weights):
    """Random spanning tree plus chords; integer weights force ties."""
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.add((u, v))
    while len(edges) < n - 1 + extra_edges:
        u, v = rng.integers(n), rng.integers(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    if tie_weights:
        lengths = rng.integers(1, 4, size=len(edges)).astype(np.float64)
    else:
        lengths = rng.random(len(edges)) + 0.5
    return graph_from_edges(n, np.array(edges), lengths)


@pytest.mark.parametrize("theta0", [None, 1e-12, float("inf")])
@pytest.mark.parametrize("tie_weights", [False, True])
def test_random_graphs_match_exhaustive(tie_weights, theta0):
    """theta0=1e-12 leaves every slot to de Pina's double-cover search;
    theta0=inf runs one band whose trees span the whole graph."""
    rng = np.random.default_rng(314)
    for _ in range(10):
        graph = random_connected_graph(rng, 8, 6, tie_weights)
        if graph.edge_count > 18:
            continue
        greedy = minimum_cycle_basis(graph, theta0=theta0)
        brute = exhaustive_minimum_cycle_basis(graph)
        assert greedy.size == brute.size == graph.edge_count - 8 + 1
        assert greedy.total_weight() == pytest.approx(brute.total_weight(),
                                                      rel=1e-12)
        assert gf2_rank(greedy) == greedy.size
        assert_rows_are_simple_cycles(graph, greedy)
        assert_rows_are_simple_cycles(graph, brute)


def test_split_is_a_basis_on_random_graphs():
    """Where a lighter cycle of five or more hops beats a chosen triangle
    or square the split may differ from the minimum basis, but it is
    still a basis of simple cycles and never lighter than the minimum."""
    rng = np.random.default_rng(314)
    for tie_weights in (False, True):
        for _ in range(10):
            graph = random_connected_graph(rng, 8, 6, tie_weights)
            if graph.edge_count > 18:
                continue
            split = homology_split(graph)
            brute = exhaustive_minimum_cycle_basis(graph)
            assert split.size == graph.edge_count - 8 + 1
            assert gf2_rank(split) == split.size
            assert_rows_are_simple_cycles(graph, split)
            assert split.total_weight() >= brute.total_weight() - 1e-12
            assert np.all(np.diff(split.weights) >= 0)


def short_cycles_reference(graph):
    """Per-vertex brute force: the vertex sets of the triangles, and the
    edge-id sets of the 4-cycles whose two diagonals are not edges."""
    adj = [set(a.tolist()) for a in neighbor_rows(graph)]
    index = {(i, j): e for e, (i, j) in enumerate(graph.edges.tolist())}

    def eid(a, b):
        return index[min(a, b), max(a, b)]

    triangles, squares = set(), set()
    for a in range(graph.vertex_count):
        for b in adj[a]:
            for c in adj[b] - {a}:
                if c in adj[a]:
                    triangles.add(frozenset((a, b, c)))
                    continue
                for d in (adj[c] & adj[a]) - {b}:
                    if d not in adj[b]:
                        squares.add(frozenset((eid(a, b), eid(b, c),
                                               eid(c, d), eid(d, a))))
    return triangles, squares


def short_cycle_graphs():
    rng = np.random.default_rng(7)
    graphs = [periodic_grid(n) for n in (3, 5, 6)]
    graphs += [random_connected_graph(rng, 30, 45, True) for _ in range(3)]
    graphs.append(build_knn_graph(
        sample_torus_revolution(2.0, 0.5, 300, 0, "grid"), 8))
    return graphs


@pytest.mark.parametrize("case", range(7), ids=[
    "grid3", "grid5", "grid6", "random0", "random1", "random2", "knn300"])
def test_short_cycles_match_per_vertex_reference(case):
    """The array enumeration finds every triangle and chordless square
    of the reference, each once, as loops whose steps are their edges."""
    graph = short_cycle_graphs()[case]
    (tri, tri_e), (sq, sq_e) = cycles._short_cycles(cycles._Workspace(graph))
    want_tri, want_sq = short_cycles_reference(graph)
    assert want_sq
    for loops, eids in ((tri, tri_e), (sq, sq_e)):
        steps = graph.edge_ids(loops, np.roll(loops, -1, axis=1))
        assert np.array_equal(steps, eids)
    got_tri = [frozenset(row) for row in tri.tolist()]
    got_sq = [frozenset(row) for row in sq_e.tolist()]
    assert len(set(got_tri)) == len(got_tri)
    assert len(set(got_sq)) == len(got_sq)
    assert set(got_tri) == want_tri
    assert set(got_sq) == want_sq


def assert_split_equals_minimum_basis(graph, split):
    exact = minimum_cycle_basis(graph)
    assert split.digest() == exact.digest()
    assert np.array_equal(split.weights, exact.weights)
    for r in (exact.size - 2, exact.size - 1):
        assert (canonical_loop(block_row(split, r)[0])
                == canonical_loop(block_row(exact, r)[0]))


@pytest.mark.parametrize("n", [5, 6, 8])
def test_split_equals_minimum_basis_on_grids(n):
    """Unit weights: only the internal perturbation orders the squares."""
    graph = periodic_grid(n)
    assert_split_equals_minimum_basis(graph, homology_split(graph))


@pytest.mark.parametrize("bundle",
                         ["torus_bundle", "stdmap_bundle", "cm_bundle"])
def test_split_equals_minimum_basis_on_fixtures(bundle, request):
    bundle = request.getfixturevalue(bundle)
    assert_split_equals_minimum_basis(bundle.graph, bundle.basis)


# homology_split digests on the fixture clouds, frozen so that a drift the
# split and the reference minimum_cycle_basis share still shows
FIXTURE_DIGESTS = {
    "torus_bundle":
        "dec7b21ff33fc5bec561fe15b7b95fdb4629c04ae725cf3d6eabc36941bdc85e",
    "stdmap_bundle":
        "1a44bac6be988652545ffb57563cd70b829ca1bcfc8067c307c209e07be63e0a",
    # the closed-form flow moves the 6D cloud by up to 7.1e-9; some faces
    # differ in weight by less, so they swap order and the split keeps
    # others (the generators are the same)
    "cm_bundle":
        "b5a97be82c3ee84570ff4209abc0c28cda6c9d680d37a50d178d6dc125daac87",
    "random_torus_bundle":
        "6b467f974934012a2ccbf200d754ea7926bef620d5a8f86767aba1a69ee5bbec",
}


@pytest.mark.parametrize("bundle", sorted(FIXTURE_DIGESTS))
def test_split_digest_is_frozen_on_fixtures(bundle, request):
    basis = request.getfixturevalue(bundle).basis
    assert basis.digest() == FIXTURE_DIGESTS[bundle]


def test_split_keeps_generators_and_forms_on_random_torus(
        random_torus_bundle):
    """On the random 2k torus the split's trivial cycles reach five hops
    and more, so it need not be the minimum basis; it still has the
    minimum basis's two generators and solves to the same one-forms."""
    bundle = random_torus_bundle
    split, exact = bundle.basis, minimum_cycle_basis(bundle.graph)
    assert max(bundle.classified.hops[:-2]) >= 5
    assert split.size == exact.size
    for r in (exact.size - 2, exact.size - 1):
        (got, got_steps), (want, want_steps) = (block_row(split, r),
                                                block_row(exact, r))
        assert canonical_loop(got) == canonical_loop(want)
        assert np.array_equal(np.sort(got_steps), np.sort(want_steps))
        assert split.weights[r] == exact.weights[r]
    forms = solve_oneforms(bundle.graph, classify_cycles(exact))
    assert np.max(np.abs(forms.du - bundle.forms.du)) <= 1e-12
    assert np.max(np.abs(forms.dv - bundle.forms.dv)) <= 1e-12


def dense_path_xor(ws, preds, values):
    """Reference: fixed-round pointer doubling over full c x n rows."""
    c, n = preds.shape
    anc = np.where(preds < 0, np.arange(n)[None, :], preds).astype(np.int64)
    g = np.zeros((c, n), dtype=values.dtype)
    reached = preds >= 0
    if np.any(reached):
        uu = np.broadcast_to(np.arange(n), (c, n))[reached]
        g[reached] = values[ws.graph.edge_ids(anc[reached], uu)]
    for _ in range(max(1, int(np.ceil(np.log2(max(n, 2)))) + 1)):
        g ^= np.take_along_axis(g, anc, axis=1)
        anc = np.take_along_axis(anc, anc, axis=1)
    return g


def dense_banded_chunks(ws, theta):
    """Reference band: every (source, edge) pair of a block tested on
    dense c x E arrays, rows in (source, edge) order."""
    for lo in range(0, ws.n, ws.chunk):
        src = np.arange(lo, min(lo + ws.chunk, ws.n))
        dist, preds = dijkstra(ws.csgraph, indices=src, limit=theta,
                               return_predecessors=True)
        zpath = dense_path_xor(ws, preds, ws.zob)
        wc = dist[:, ws.ex] + ws.w_pert[None, :] + dist[:, ws.ey]
        ok = np.isfinite(wc)
        ok &= preds[:, ws.ex] != ws.ey[None, :]
        ok &= preds[:, ws.ey] != ws.ex[None, :]
        ok &= wc <= theta
        rows, es = np.nonzero(ok)
        sig = zpath[rows, ws.ex[es]] ^ zpath[rows, ws.ey[es]] ^ ws.zob[es]
        yield wc[rows, es], src[rows], es, sig, preds


@pytest.mark.parametrize("band", ["first", "whole"])
def test_sparse_band_matches_dense_reference(band):
    """The band built from reached entries only has exactly the dense
    formulation's (weight, source, edge, signature) rows and the same
    predecessor rows, block by block."""
    rng = np.random.default_rng(11)
    graphs = [build_knn_graph(
        sample_torus_revolution(2.0, 0.5, 300, 0, "grid"), 8)]
    graphs += [random_connected_graph(rng, 40, 50, True) for _ in range(3)]
    for graph in graphs:
        ws = reference_cycles.workspace(graph)
        ws.chunk = 17                       # several blocks, the last short
        theta = {"first": 5.0 * float(np.median(ws.w_pert)),
                 "whole": np.inf}[band]
        new = list(reference_cycles.banded_chunks(ws, theta))
        ref = list(dense_banded_chunks(ws, theta))
        assert len(new) == len(ref) == -(-ws.n // ws.chunk)
        assert sum(len(part[0]) for part in new) > 0
        for part, expect in zip(new, ref):
            for got, want in zip(part, expect):
                assert np.array_equal(got, want)


def ring_graph(n):
    edges = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
    return graph_from_edges(n, np.array(edges), np.ones(n))


def test_doubling_matches_parent_walk_on_deep_trees():
    """Shortest-path trees on a 50-vertex ring are 24-25 hops deep, so
    pointer doubling that stops one round early leaves the deepest
    vertices short of their root; check the band's signatures against a
    per-vertex walk."""
    graph = ring_graph(50)
    ws = reference_cycles.workspace(graph)
    ws.chunk = 8
    _, preds = dijkstra(ws.csgraph, return_predecessors=True)

    def walk(prow, v):
        acc = np.uint64(0)
        while prow[v] >= 0:
            p = int(prow[v])
            acc ^= ws.zob[graph.edge_ids([p], [v])[0]]
            v = p
        return acc

    ref = np.array([[walk(prow, v) for v in range(ws.n)] for prow in preds],
                   dtype=np.uint64)
    # each source's one candidate closes the ring at its antipode
    rows = 0
    for _, vs, es, sig, _ in reference_cycles.banded_chunks(ws, np.inf):
        for v, e, s in zip(vs, es, sig):
            assert s == ref[v, ws.ex[e]] ^ ref[v, ws.ey[e]] ^ ws.zob[e]
            rows += 1
    assert rows == ws.n


def test_theta0_forcing_second_phase_gives_same_basis():
    graph = periodic_grid(6)
    default = minimum_cycle_basis(graph)
    forced = minimum_cycle_basis(graph, theta0=1e-12)
    assert forced.size == default.size
    assert forced.total_weight() == pytest.approx(default.total_weight())
    assert forced.hop_histogram() == default.hop_histogram()


def test_support_vector_phase_without_candidates_fails_clean(monkeypatch):
    """When the odd-cycle search finds nothing, the basis is reported
    incomplete, never completed with uncertified cycles."""
    monkeypatch.setattr(cycles, "_lightest_odd_cycle", lambda ws, s: None)
    # the split of the 6x6 grid leaves its two generators to the
    # support-vector phase
    with pytest.raises(CycleBasisError, match="2 slots left unfilled"):
        homology_split(periodic_grid(6))


def coordinate_rows(vectors):
    """The GF(2) vectors as the rows of a coordinate matrix, -1 padded."""
    width = max(map(len, vectors), default=0)
    rows = np.full((len(vectors), width), -1, dtype=np.int64)
    for r, vec in enumerate(vectors):
        rows[r, :len(vec)] = sorted(vec)
    return rows


def test_seam_search_finds_lightest_odd_walk(torus_bundle):
    """Starting the double-cover search only at the seam of each
    complement vector finds a cycle that pairs oddly with it and weighs
    as little as the lightest odd closed walk through any vertex."""
    ws = cycles._Workspace(torus_bundle.graph)
    basis = torus_bundle.basis
    trivial = basis.take(np.arange(basis.size - 2))
    vectors = [vec for _, vec in reference_cycles.vectors(
        ws, (loop for loop, _ in block_rows(trivial)))]
    kept, comp = cycles._face_reduction(coordinate_rows(vectors), ws.m)
    assert len(kept) == trivial.size
    assert len(comp) == 2
    n = ws.n
    for s in comp:
        loop = cycles._lightest_odd_cycle(ws, s)
        [(_, vec)] = reference_cycles.vectors(ws, [loop])
        assert len(vec & s) & 1
        eids = CycleBasis.from_loops(ws.graph, [loop]).edges
        # unrestricted reference: the cover [[even, odd], [odd, even]] of
        # the vector's own edges, searched from every vertex
        odd = np.zeros(ws.E, dtype=bool)
        for e in range(ws.E):
            odd[e] = int(ws.coord[e]) in s

        def half(mask):
            i, j, w = ws.ex[mask], ws.ey[mask], ws.w_pert[mask]
            return coo_matrix((np.concatenate([w, w]),
                               (np.concatenate([i, j]),
                                np.concatenate([j, i]))), shape=(n, n))

        cover = bmat([[half(~odd), half(odd)],
                      [half(odd), half(~odd)]]).tocsr()
        lightest = np.inf
        for lo in range(0, n, 250):
            src = np.arange(lo, min(lo + 250, n))
            dist = dijkstra(cover, indices=src)
            lightest = min(lightest, float(np.min(dist[src - lo, src + n])))
        assert float(np.sum(ws.w_pert[eids])) == pytest.approx(lightest,
                                                              rel=1e-12)


def complement_basis_reference(ws, pivots):
    """Back-substitution over every pivot row, in decreasing pivot
    order, for each free coordinate."""
    piv_bits = sorted(pivots)
    in_piv = set(piv_bits)
    out = []
    for f in range(ws.m):
        if f in in_piv:
            continue
        s = {f}
        for p in reversed(piv_bits):
            if len(pivots[p] & s) & 1:
                s.add(p)
        out.append(s)
    return out


def complement_graphs():
    rng = np.random.default_rng(314)
    graphs = [periodic_grid(n) for n in (5, 6, 8)]
    graphs += [random_connected_graph(rng, 8, 6, tie) for tie in (False, True)
               for _ in range(5)]
    graphs += [random_connected_graph(rng, 30, 45, True) for _ in range(3)]
    return graphs


BUNDLES = [None, "torus_bundle", "stdmap_bundle", "cm_bundle",
           "random_torus_bundle"]


def bundle_graphs(bundle, request):
    """complement_graphs() for None, else the bundle's kNN graph."""
    if bundle is None:
        return complement_graphs()
    return [request.getfixturevalue(bundle).graph]


@pytest.mark.parametrize("bundle", BUNDLES)
def test_complement_basis_matches_full_back_substitution(bundle, request):
    """The set-based back-substitution visiting only the pivot rows that
    meet s, and the column reduction, give the vectors of the walk over
    every pivot row, after the short-cycle greedy and, on the small
    graphs, also after a band."""
    for graph in bundle_graphs(bundle, request):
        ws = cycles._Workspace(graph)
        pivots, chosen = {}, []
        reference_cycles.short_cycle_greedy(ws, pivots, chosen)
        want = complement_basis_reference(ws, pivots)
        assert len(want) == ws.m - len(chosen)
        assert reference_cycles.complement_basis(ws, pivots) == want
        assert cycles._short_cycle_basis(ws)[1] == want
        if bundle is None:
            ws, pivots, chosen = reference_cycles.workspace(graph), {}, []
            reference_cycles.phase_a(ws, pivots, chosen, ws.theta0)
            want = complement_basis_reference(ws, pivots)
            assert reference_cycles.complement_basis(ws, pivots) == want
            rows = coordinate_rows(
                [vec for _, vec in reference_cycles.vectors(ws, chosen)])
            kept, comp = cycles._face_reduction(rows, ws.m)
            assert kept.tolist() == list(range(len(chosen)))
            assert comp == want


@pytest.mark.parametrize("bundle", BUNDLES)
def test_short_cycle_reduction_matches_set_greedy(bundle, request):
    """The column reduction keeps exactly the triangles and squares the
    set-based greedy keeps, as the same vertex loops, and gives its
    complement basis in the same order."""
    for graph in bundle_graphs(bundle, request):
        ws = cycles._Workspace(graph)
        pivots, want = {}, []
        reference_cycles.short_cycle_greedy(ws, pivots, want)
        chosen, comp, _ = cycles._short_cycle_basis(ws)
        got = [tuple(loop) for rows in chosen for loop in rows.tolist()]
        assert len(got) == len(want)
        assert set(got) == {tuple(loop) for loop in want}
        assert comp == reference_cycles.complement_basis(ws, pivots)


@pytest.mark.parametrize("bundle", [None, "torus_bundle"])
def test_face_rows_are_the_signed_loops(bundle, request):
    """`_short_cycle_basis`'s rows are every triangle and chordless square,
    walked step by step: +1 on the coordinate of a step from the lower
    vertex id to the higher, -1 on a step back, nothing on a tree edge."""
    for graph in bundle_graphs(bundle, request):
        ws = cycles._Workspace(graph)
        (tri, _), (sq, _) = cycles._short_cycles(ws)
        rows = cycles._short_cycle_basis(ws)[2]
        assert rows.shape == (len(tri) + len(sq), ws.m)
        for r, loop in enumerate(tri.tolist() + sq.tolist()):
            want = {}
            for a, b in zip(loop, loop[1:] + loop[:1]):
                c = int(ws.coord[graph.edge_ids([a], [b])[0]])
                if c >= 0:
                    want[c] = 1 if a < b else -1
            lo, hi = rows.indptr[r], rows.indptr[r + 1]
            assert dict(zip(rows.indices[lo:hi].tolist(),
                            rows.data[lo:hi].tolist())) == want, r


def test_face_reduction_on_random_and_edge_case_matrices():
    """Random coordinate matrices, repeated and empty rows among them,
    against the set-based greedy; no coordinates at all; a coordinate no
    row holds, whose complement vector is that coordinate alone; and a
    graph its triangles fill completely."""
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(1, 12))
        # up to four distinct coordinates per row, some dropped to -1
        rows = np.argsort(rng.random((int(rng.integers(0, 20)), m)),
                          axis=1)[:, :4]
        rows[rng.random(rows.shape) < 0.3] = -1
        ws = SimpleNamespace(m=m)
        pivots, kept = {}, []
        reference_cycles.greedy(
            ws, pivots, kept, ((r, set(row[row >= 0].tolist()))
                               for r, row in enumerate(rows)))
        got, comp = cycles._face_reduction(rows, m)
        assert got.tolist() == kept
        assert comp == reference_cycles.complement_basis(ws, pivots)
    for F in (0, 3):
        got, comp = cycles._face_reduction(np.full((F, 4), -1), 0)
        assert len(got) == 0 and comp == []
    got, comp = cycles._face_reduction(np.array([[0, 1, 2, -1],
                                                 [1, 2, 4, -1]]), 5)
    assert got.tolist() == [0, 1]
    assert comp == [{1, 2}, {3}, {0, 1, 4}]
    # a triangle and a pentagon sharing vertex 0: no short cycle holds the
    # pentagon's coordinate, and de Pina's rule finds the pentagon
    edges = np.array([(0, 1), (0, 2), (0, 3), (0, 6), (1, 2), (3, 4), (4, 5),
                      (5, 6)])
    graph = graph_from_edges(7, edges, np.ones(8))
    ws = cycles._Workspace(graph)
    chosen, comp, _ = cycles._short_cycle_basis(ws)
    assert comp == [{int(ws.coord[graph.edge_ids([4], [5])[0]])}]
    assert [rows.tolist() for rows in chosen] == [[[0, 1, 2]], []]
    assert homology_split(graph).hops.tolist() == [3, 5]
    # the complete graph on 5 vertices: m = 6, ten triangles, no squares
    edges = np.array([(a, b) for a in range(5) for b in range(a + 1, 5)])
    graph = graph_from_edges(5, edges, 1.0 + 0.01 * np.arange(10))
    ws = cycles._Workspace(graph)
    chosen, comp, _ = cycles._short_cycle_basis(ws)
    assert comp == []
    assert [rows.shape for rows in chosen] == [(6, 3), (0, 4)]
    basis = homology_split(graph)
    assert basis.size == ws.m == 6
    assert gf2_rank(basis) == 6


def test_complement_vector_pairing_oddly_is_refused(monkeypatch):
    """The certificate that every complement vector pairs evenly with
    every triangle and square, which de Pina's independence rests on,
    refuses a vector that does not."""
    reduce = cycles._face_reduction

    def corrupt(faces, m):
        kept, comp = reduce(faces, m)
        comp[0] ^= {int(faces[0, 0])}
        return kept, comp

    monkeypatch.setattr(cycles, "_face_reduction", corrupt)
    with pytest.raises(CycleBasisError, match="pairs oddly with a triangle"):
        homology_split(periodic_grid(6))


def lightest_odd_cycle_full_cover(ws, s):
    """Unlimited double-cover search: every seam-cover source runs to the
    end, and the lightest source's path from its copy is walked back."""
    n = ws.n
    cross = np.isin(ws.coord, sorted(s))
    seam = cycles._vertex_cover(ws.ex[cross], ws.ey[cross])
    x, y = ws.ex, ws.ey + n * cross
    x1, y1 = x + n, ws.ey + n * ~cross
    cover = coo_matrix(
        (np.tile(ws.w_pert, 4),
         (np.concatenate([x, y, x1, y1]), np.concatenate([y, x, y1, x1]))),
        shape=(2 * n, 2 * n)).tocsr()
    best, source = np.inf, None
    chunk = reference_cycles.chunk_size(n)
    for lo in range(0, len(seam), chunk):
        block = seam[lo:lo + chunk]
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
    return [u % n for u in walk[:-1]]


def test_half_radius_search_matches_full_cover(random_torus_bundle,
                                               monkeypatch):
    """On every residual slot of the random 2k torus the half-radius
    search picks the cycle the unlimited search picks. Its slots take
    all three ways through the search: certified by the first round, a
    second round bounded by the first round's walk, and a second round
    bounded by one unlimited source. Some slot's seam spans several
    blocks and its lightest walk starts from a later block, so the
    limit that shrinks from block to block is checked too."""
    ws = cycles._Workspace(random_torus_bundle.graph)
    _, comp, _ = cycles._short_cycle_basis(ws)
    assert len(comp) > 100
    rounds = []
    shrunk = []
    odd_walks = cycles._odd_walks

    def counted(ws, cover, seam, radius):
        found = odd_walks(ws, cover, seam, radius)
        rounds.append((radius, found[0]))
        at = np.searchsorted(seam, found[1]) if found[1] is not None else 0
        if at >= cycles._BLOCK:
            # the first block's own best: the limit later blocks ran under
            first = odd_walks(ws, cover, seam[:cycles._BLOCK], radius)[0]
            shrunk.append(found[0] < first < np.inf)
        return found

    monkeypatch.setattr(cycles, "_odd_walks", counted)
    ways = set()
    for i, s in enumerate(comp):
        del rounds[:]
        loop = cycles._lightest_odd_cycle(ws, s)
        want = lightest_odd_cycle_full_cover(ws, s)
        got_ids = np.sort(CycleBasis.from_loops(ws.graph, [loop]).edges)
        want_ids = np.sort(CycleBasis.from_loops(ws.graph, [want]).edges)
        assert np.array_equal(got_ids, want_ids), i
        first = rounds[0][1]
        ways.add("first" if first <= ws.theta0 else
                 "walk" if np.isfinite(first) else "unlimited")
        _, vec = next(reference_cycles.vectors(ws, [loop]))
        comp[i + 1:] = [t ^ s if len(vec & t) & 1 else t
                        for t in comp[i + 1:]]
    assert ways == {"first", "walk", "unlimited"}
    # some seam spans two or more blocks, and its lightest walk is found
    # after the first one, under a limit the first block's walk shrank
    assert any(shrunk), shrunk


def test_adjacency_and_double_cover_are_the_coo_builds(monkeypatch):
    """The workspace's CSR adjacency is the symmetric COO build of the
    edge list, each slot carrying its edge id, and the double cover that
    `_lightest_odd_cycle` builds from it for a coordinate set is the COO
    cover of that set's cut, entry for entry."""
    rng = np.random.default_rng(5)
    graphs = [periodic_grid(6)]
    graphs += [random_connected_graph(rng, 40, 50, True) for _ in range(3)]
    covers = []
    odd_walks = cycles._odd_walks

    def captured(ws, cover, seam, radius):
        covers.append(cover)
        return odd_walks(ws, cover, seam, radius)

    monkeypatch.setattr(cycles, "_odd_walks", captured)
    for graph in graphs:
        ws = cycles._Workspace(graph)
        n, i, j = ws.n, ws.ex, ws.ey
        ids = coo_matrix((np.tile(np.arange(1, ws.E + 1), 2),
                          (np.r_[i, j], np.r_[j, i])), shape=(n, n)).tocsr()
        assert np.array_equal(ws.indptr, ids.indptr)
        assert np.array_equal(ws.head, ids.indices)
        assert np.array_equal(ws.eid, ids.data - 1)
        for size in (1, 2, 5):
            s = set(rng.choice(ws.m, size=size, replace=False).tolist())
            del covers[:]
            cycles._lightest_odd_cycle(ws, s)
            cross = np.isin(ws.coord, sorted(s))
            x, y = i, j + n * cross
            x1, y1 = x + n, j + n * ~cross
            want = coo_matrix(
                (np.tile(ws.w_pert, 4),
                 (np.r_[x, y, x1, y1], np.r_[y, x, y1, x1])),
                shape=(2 * n, 2 * n)).tocsr()
            got = covers[0].sorted_indices()
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)


def test_de_pina_finish_memory_is_bounded(cm_bundle):
    """de Pina's finish on the 6k 6D cloud keeps one block of 2n-wide
    distance rows alive at a time: its traced peak stays within 8 MiB."""
    ws = cycles._Workspace(cm_bundle.graph)
    chosen, comp, _ = cycles._short_cycle_basis(ws)
    assert len(comp) == 2             # the generators' slots
    tracemalloc.start()
    try:
        basis = cycles._finish(ws, chosen, comp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.digest() == cm_bundle.basis.digest()
    assert peak <= 8 * 2 ** 20, peak / 2 ** 20


def test_deterministic_across_calls():
    graph = periodic_grid(5)
    a = homology_split(graph)
    b = homology_split(graph)
    for key in ("indptr", "vertices", "edges", "weights"):
        assert np.array_equal(getattr(a, key), getattr(b, key))


def test_exhaustive_rejects_large_graphs():
    with pytest.raises(CycleBasisError):
        exhaustive_minimum_cycle_basis(periodic_grid(5))


def test_tree_graph_has_empty_basis():
    edges = np.array([(0, 1), (1, 2), (2, 3)])
    graph = graph_from_edges(4, edges, np.ones(3))
    assert homology_split(graph).size == 0
    basis = minimum_cycle_basis(graph)
    assert basis.size == 0
    with pytest.raises(GeneratorClassificationError):
        classify_cycles(basis)


def test_classification_on_grid5(monkeypatch):
    basis = minimum_cycle_basis(periodic_grid(5))
    classified = classify_cycles(basis)
    assert classified.size == 26
    assert classified.hops[-2:].tolist() == [5, 5]
    assert set(classified.hops[:-2].tolist()) == {4}
    # the 5 vs 4 split sits exactly on the default 1.25 ratio gate
    monkeypatch.setattr(cycles, "_GENERATOR_RATIO", 1.26)
    with pytest.raises(GeneratorClassificationError):
        classify_cycles(basis)


def test_classification_error_says_what_to_do(monkeypatch):
    """The stop names its remedy and carries the weights it compared:
    on grid 5 the generators weigh 5 and the trivial squares 4, one
    hair under a 1.26 gate."""
    monkeypatch.setattr(cycles, "_GENERATOR_RATIO", 1.26)
    with pytest.raises(GeneratorClassificationError,
                       match="raise k or sample more points") as info:
        classify_cycles(homology_split(periodic_grid(5)))
    assert info.value.details["diagnostics"] == {
        "generator_weight": 5.0, "trivial_weight_max": 4.0, "ratio": 1.25,
        "required_ratio": 1.26}


def test_classification_rejects_grid3():
    """On the 3x3 grid the row and column loops are as light as the
    faces, so the two heaviest basis cycles are ordinary squares and the
    homology split is not trustworthy."""
    basis = minimum_cycle_basis(periodic_grid(3))
    with pytest.raises(GeneratorClassificationError):
        classify_cycles(basis)


@pytest.mark.xfail(
    strict=True,
    reason="claimed basis of the 3x3 grid with exactly two 3-hop cycles: "
           "the six full-row and full-column loops are GF(2) independent "
           "and all weigh 3, so the true minimum basis contains six")
def test_grid3_two_three_hop_cycles_claim():
    basis = minimum_cycle_basis(periodic_grid(3))
    assert basis.hop_histogram()[3] == 2


def test_torus_fixture_classification(torus_bundle):
    heaviest_trivial, poloidal, toroidal = \
        torus_bundle.classified.weights[-3:]
    assert poloidal >= 1.25 * heaviest_trivial
    assert toroidal >= poloidal
    # tube loop is shorter than the loop around the central hole
    assert poloidal < 0.8 * toroidal


def test_export_cycles_json(tmp_path, grid5_forms):
    basis, classified = grid5_forms.basis, grid5_forms.classified
    path = tmp_path / "cycles.json"
    export_cycles_json(path, classified)
    payload = json.loads(path.read_text())
    assert payload["cycle_count"] == 26
    assert payload["vertex_count"] == 25
    assert payload["total_weight"] == basis.total_weight() == 106.0
    gens = payload["generators"]
    assert [g["role"] for g in gens] == ["poloidal", "toroidal"]
    for g, r in zip(gens, (24, 25)):
        loop, steps = block_row(classified, r)
        assert loop.tolist() == canonical_loop(block_row(basis, r)[0])
        assert g == {"vertices": loop.tolist(),
                     "edges": np.sort(steps).tolist(), "weight": 5.0,
                     "hops": 5, "role": g["role"]}
    summary = payload["summary"]
    assert summary["role"] == "trivial"
    assert summary["count"] == 24
    assert summary["hop_counts"] == {"4": 24}
    # indptr, then each row's edge ids in ascending order, little-endian
    trivial = classified.take(np.arange(24))
    rows = [np.sort(steps) for _, steps in block_rows(trivial)]
    want = hashlib.sha256(np.arange(0, 97, 4).astype("<i8").tobytes()
                          + np.concatenate(rows).astype("<i8").tobytes())
    assert summary["sha256"] == want.hexdigest()
    # the loops run backwards from their second vertex: the same rows
    turned = CycleBasis.from_loops(
        grid5_forms.graph,
        [np.roll(loop[::-1], 1) for loop, _ in block_rows(trivial)])
    assert not np.array_equal(turned.vertices, trivial.vertices)
    assert turned.digest() == summary["sha256"]


def cycle_from_edges_reference(graph, edge_ids):
    """Per-edge reference: the vertex loop, sorted edge ids, weight and
    hops of an edge set forming one simple cycle, walked with a dict from
    its smallest vertex toward that vertex's smaller neighbour."""
    ids = np.array(sorted(int(i) for i in edge_ids), dtype=np.int64)
    adj = {}
    for e in ids:
        i, j = (int(x) for x in graph.edges[e])
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    assert all(len(nb) == 2 for nb in adj.values())
    start = min(adj)
    loop = [start]
    cur, prev = min(adj[start]), start
    while cur != start:
        loop.append(cur)
        a, b = adj[cur]
        cur, prev = (b if a == prev else a), cur
    assert len(loop) == len(ids)
    weight = float(np.sum(graph.lengths[ids]))
    return SimpleNamespace(vertices=np.array(loop, dtype=np.int64),
                           edges=ids, weight=weight, hops=len(ids))


@pytest.mark.parametrize("bundle", ["torus_bundle", "grid5_forms"])
def test_cycles_match_dict_walk_reference(bundle, request):
    """Every basis cycle under the reference rule, and the two classified
    generators as they stand, equal the dict walk over the cycle's edges:
    vertex order, sorted edge ids and weight, bit for bit."""
    bundle = request.getfixturevalue(bundle)
    graph, basis, classified = bundle.graph, bundle.basis, bundle.classified
    for r, (loop, steps) in enumerate(block_rows(basis)):
        want = cycle_from_edges_reference(graph, steps)
        assert canonical_loop(loop) == want.vertices.tolist()
        assert np.array_equal(np.sort(steps), want.edges)
        assert basis.weights[r] == want.weight
    for r in (basis.size - 2, basis.size - 1):
        loop, steps = block_row(classified, r)
        want = cycle_from_edges_reference(graph, steps)
        assert np.array_equal(loop, want.vertices)
        assert np.array_equal(np.sort(steps), want.edges)
        assert classified.weights[r] == want.weight


@pytest.mark.parametrize("bundle",
                         ["torus_bundle", "stdmap_bundle", "cm_bundle"])
def test_classified_generators_follow_reference_rule(bundle, request):
    """classify_cycles runs the two generator rows by the reference rule,
    with their steps re-aligned to the loops, keeps every other row as it
    is, and leaves its input unchanged. The pipeline's basis has the same
    trivial rows, whichever way `parameterize` found its generators."""
    bundle = request.getfixturevalue(bundle)
    graph, basis = bundle.graph, bundle.basis
    keys = ("indptr", "vertices", "edges", "weights")
    before = {key: getattr(basis, key).copy() for key in keys}
    classified = classify_cycles(basis)
    k = basis.size - 2
    head = basis.indptr[k]
    trivial = bundle.classified.take(np.arange(k))
    for key in keys:
        assert np.array_equal(getattr(basis, key), before[key]), key
        assert np.array_equal(getattr(trivial, key),
                              getattr(classified.take(np.arange(k)), key)), key
    assert np.array_equal(classified.indptr, basis.indptr)
    assert np.array_equal(classified.weights, basis.weights)
    assert np.array_equal(classified.vertices[:head], basis.vertices[:head])
    assert np.array_equal(classified.edges[:head], basis.edges[:head])
    for r in (k, k + 1):
        loop, steps = block_row(classified, r)
        assert loop.tolist() == canonical_loop(block_row(basis, r)[0])
        assert np.array_equal(steps,
                              graph.edge_ids(loop, np.roll(loop, -1)))


def test_classify_rolls_and_reverses_generators():
    """Hand-built generators, one started mid-loop and one also running
    the other way, come out by the reference rule; steps follow."""
    graph = periodic_grid(5)
    squares = [[a, a + 1, a + 6, a + 5] for a in range(19) if a % 5 != 4]
    col = [10, 15, 20, 0, 5]                 # rolled only
    row = [3, 2, 1, 0, 4]                    # rolled and reversed
    basis = CycleBasis.from_loops(graph, squares + [col, row])
    classified = classify_cycles(basis)
    k = basis.size - 2
    for r, want in ((k, [0, 5, 10, 15, 20]), (k + 1, [0, 1, 2, 3, 4])):
        loop, steps = block_row(classified, r)
        assert loop.tolist() == want
        assert np.array_equal(steps, graph.edge_ids(loop, np.roll(loop, -1)))
    assert block_row(basis, k + 1)[0].tolist() == row


def test_block_constructor_certifies_simple_cycles():
    graph = periodic_grid(5)
    block = CycleBasis.from_loops(graph, [[0, 1, 6, 5], [7, 2, 3, 8]])
    assert block.indptr.tolist() == [0, 4, 8]
    assert block.weights.tolist() == [4.0, 4.0]
    heads = [1, 6, 5, 0, 2, 3, 8, 7]
    assert np.array_equal(block.edges, graph.edge_ids(block.vertices, heads))
    with pytest.raises(CycleBasisError, match="repeats a vertex"):
        CycleBasis.from_loops(graph, [[0, 1, 6, 5], [0, 1, 2, 1]])
    with pytest.raises(CycleBasisError, match="not a graph edge"):
        CycleBasis.from_loops(graph, [[0, 1, 7]])
    with pytest.raises(CycleBasisError, match="at least 3 vertices"):
        CycleBasis.from_loops(graph, [[0, 1]])


def test_block_sorted_breaks_ties_by_sorted_edge_ids():
    """Rows of equal weight and hops come out in the lexicographic order
    of their sorted edge ids, as a sort over per-cycle tuples gives."""
    graph = periodic_grid(5)
    rng = np.random.default_rng(5)
    loops = [[a, a + 1, a + 6, a + 5] for a in (0, 1, 2, 3, 5, 6, 7, 11, 12)]
    loops += [[5 * r + j for j in range(5)] for r in range(5)]    # rows
    loops += [[c + 5 * i for i in range(5)][::-1] for c in range(5)]
    loops = [loops[i] for i in rng.permutation(len(loops))]
    block = CycleBasis.from_loops(graph, loops).sorted()
    cycles = [cycle_from_edges_reference(graph, steps)
              for _, steps in block_rows(CycleBasis.from_loops(graph, loops))]
    cycles.sort(key=lambda c: (c.weight, c.hops, tuple(c.edges.tolist())))
    assert [np.sort(steps).tolist() for _, steps in block_rows(block)] == \
        [c.edges.tolist() for c in cycles]
