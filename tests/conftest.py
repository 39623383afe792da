"""Shared fixtures: flat-torus grid graphs and the three embedding
pipelines, built once per session because the larger ones take tens of
seconds, plus the brute-force flat-torus Delaunay certificate."""

from types import SimpleNamespace

import numpy as np
import pytest

from torusforge.samplers import (sample_center_manifold_torus,
                                 sample_standard_map_torus,
                                 sample_torus_revolution)
from torusforge.knn import NeighborGraph, build_knn_graph
from torusforge.cycles import CycleBasis, _Workspace, classify_cycles
from torusforge.oneforms import (_checked, _coclosed_rows, _cycle_rows,
                                 _solve_exact, parameterize)
from torusforge.mesher import mesh_flat_torus
from torusforge.orientation import orient_mesh
from reference_cycles import homology_split, minimum_cycle_basis

# rotation numbers rationally independent of each other and of 1
GOLDEN = 0.6180339887498949
SILVER = 0.41421356237309515

EARTH_MOON_MU = 0.01215


def graph_from_edges(vertex_count, edges, lengths):
    """The NeighborGraph of `edges` given in any row order and orientation,
    each edge's length in `lengths` (which the graph checks)."""
    edges = np.sort(np.asarray(edges, np.int64).reshape(-1, 2), axis=1)
    lengths = np.asarray(lengths, dtype=np.float64)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    if lengths.shape == order.shape:
        lengths = lengths[order]
    return NeighborGraph(vertex_count, edges[order], lengths)


def periodic_grid(rows, cols=None):
    """Unit-weight neighbor graph of the rows x cols flat-torus grid.

    Vertex (i, j) is i * cols + j; edges wrap in both directions, so the
    graph is 4-regular with 2 * rows * cols edges.
    """
    if cols is None:
        cols = rows
    edges = set()
    for i in range(rows):
        for j in range(cols):
            a = i * cols + j
            for b in (i * cols + (j + 1) % cols,
                      ((i + 1) % rows) * cols + j):
                edges.add((min(a, b), max(a, b)))
    edges = np.array(sorted(edges), dtype=np.int64)
    return graph_from_edges(rows * cols, edges, np.ones(len(edges)))


def manual_grid_basis(graph, rows, cols):
    """Hand-built classified basis for a grid: all unit squares but one as
    trivial cycles, then column 0 as the poloidal generator and row 0 as
    the toroidal one, each from vertex 0 toward its smaller neighbour, as
    `classify_cycles` runs them."""
    squares = []
    for i in range(rows):
        for j in range(cols):
            if i == rows - 1 and j == cols - 1:
                continue
            a = i * cols + j
            b = i * cols + (j + 1) % cols
            c = ((i + 1) % rows) * cols + (j + 1) % cols
            d = ((i + 1) % rows) * cols + j
            squares.append([a, b, c, d])
    row0 = list(range(cols))
    col0 = [i * cols for i in range(rows)]
    return CycleBasis.from_loops(graph, squares + [col0, row0])


def solve_oneforms(graph, basis):
    """The one-forms of any classified basis of the graph, hand-built or
    not, solved on the graph's shortest-path tree from the basis's own
    rows, as `parameterize` solves them, and checked by the same residual
    gates."""
    ws = _Workspace(graph)
    A = _coclosed_rows(graph)
    C = _cycle_rows(graph, basis)
    du, dv, theta, _ = _solve_exact(graph, A, C[:, ws.nontree], ws.nontree)
    return _checked(A, C, du, dv, theta)


def _circumcircle(pts, a, b, c):
    ax, ay = pts[a]
    bx, by = pts[b]
    cx, cy = pts[c]
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return np.nan, np.nan, np.inf
    aa, bb, cc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = (aa * (by - cy) + bb * (cy - ay) + cc * (ay - by)) / d
    uy = (aa * (cx - bx) + bb * (ax - cx) + cc * (bx - ax)) / d
    return ux, uy, float(np.hypot(ux - ax, uy - ay))


def unwrapped_corners(uv, tri):
    """Corners of a unit-flat-torus triangle, unwrapped around its first
    vertex by minimum image (edges must be shorter than half a period)."""
    corners = uv[list(tri)]
    offset = corners - corners[0]
    return corners[0] + offset - np.round(offset)


def brute_force_delaunay_check(uv, triangles, tol=1e-9):
    """Number of triangles whose open circumdisk holds a point of the
    3x3 periodic copy of `uv`, on the unit flat torus."""
    shifts = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    copies = (uv[None, :, :] + shifts[:, None, :]).reshape(-1, 2)
    violations = 0
    for tri in triangles:
        cx, cy, rad = _circumcircle(unwrapped_corners(uv, tri), 0, 1, 2)
        dist = np.hypot(copies[:, 0] - cx, copies[:, 1] - cy)
        violations += int(np.sum(dist < rad - tol) > 0)
    return violations


def assert_closed_face_chain(triangles, chain):
    """Consecutive faces of the chain, the last and first included, share
    an edge."""
    assert len(chain) >= 2
    for s, t in zip(chain, chain[1:] + chain[:1]):
        assert s != t
        assert len(set(triangles[s]) & set(triangles[t])) >= 2, (s, t)


def klein_bottle(n=6):
    """Closed n x n grid triangulation of the Klein bottle: the
    identification across the top edge reverses the columns."""
    def vid(i, j):
        if j == n:
            i, j = (n - i) % n, 0
        return (i % n) * n + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
    return tris


def build_pipeline(cloud, k=8):
    """The library chain the CLI runs, cloud -> oriented mesh, bundled
    for tests."""
    graph = build_knn_graph(cloud, k=k)
    classified, forms = parameterize(graph)
    mesh = mesh_flat_torus(graph, forms, cloud)
    oriented = orient_mesh(mesh)
    return SimpleNamespace(cloud=cloud, graph=graph, classified=classified,
                           forms=forms, mesh=mesh, oriented=oriented)


def fixture_pipeline(cloud):
    """build_pipeline with de Pina's split beside it, as `basis`."""
    bundle = build_pipeline(cloud)
    bundle.basis = homology_split(bundle.graph)
    return bundle


@pytest.fixture(scope="session")
def torus_bundle():
    return fixture_pipeline(sample_torus_revolution(2.0, 0.5, 2000, 0,
                                                    "grid"))


@pytest.fixture(scope="session")
def random_torus_bundle():
    """The 2k torus with distribution="random": its sampling gaps give
    trivial cycles of five and more hops."""
    return fixture_pipeline(sample_torus_revolution(2.0, 0.5, 2000, 0,
                                                    distribution="random"))


@pytest.fixture(scope="session")
def stdmap_bundle():
    return fixture_pipeline(sample_standard_map_torus(
        K1=0.3, K2=0.3, theta1=0.0, theta2=0.0, p1=GOLDEN, p2=SILVER, N=4000))


@pytest.fixture(scope="session")
def cm_bundle():
    cloud = sample_center_manifold_torus(EARTH_MOON_MU, "L2", 5e-3, 5e-3,
                                         6000)
    return fixture_pipeline(cloud)


@pytest.fixture(scope="session")
def grid5_forms():
    """5x5 grid with its automatic cycle basis and solved one-forms."""
    graph = periodic_grid(5)
    basis = minimum_cycle_basis(graph)
    classified = classify_cycles(basis)
    forms = solve_oneforms(graph, classified)
    return SimpleNamespace(graph=graph, basis=basis, classified=classified,
                           forms=forms)


@pytest.fixture(scope="session")
def grid3_manual_forms():
    """3x3 grid with a hand-built classified basis (the automatic
    classification refuses this graph: the homology generators are
    lighter than the squares)."""
    graph = periodic_grid(3)
    classified = manual_grid_basis(graph, 3, 3)
    forms = solve_oneforms(graph, classified)
    return SimpleNamespace(graph=graph, classified=classified, forms=forms)
