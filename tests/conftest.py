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
from torusforge.cycles import Cycle, CycleBasis, Classification, \
    classify_cycles, homology_split
from torusforge.oneforms import solve_oneforms
from torusforge.mesher import mesh_flat_torus
from torusforge.orientation import orient_mesh
from reference_cycles import minimum_cycle_basis

# rotation numbers rationally independent of each other and of 1
GOLDEN = 0.6180339887498949
SILVER = 0.41421356237309515

EARTH_MOON_MU = 0.01215


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
    return NeighborGraph.from_edges(rows * cols, edges,
                                    np.ones(len(edges)))


def cycle_from_vertices(graph, loop):
    """Cycle dataclass from an explicit vertex loop."""
    loop = np.array(loop, dtype=np.int64)
    ids = np.sort(graph.edge_ids(loop, np.roll(loop, -1)))
    return Cycle(loop, ids, float(np.sum(graph.lengths[ids])))


def manual_grid_classification(graph, rows, cols):
    """Hand-built homology split for a grid: all unit squares but one as
    trivial cycles, row 0 as toroidal, column 0 as poloidal."""
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
    row0 = cycle_from_vertices(graph, list(range(cols)))
    col0 = cycle_from_vertices(graph, [i * cols for i in range(rows)])
    return Classification(CycleBasis.from_loops(graph, squares), col0, row0)


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
    """Full library chain cloud -> oriented mesh, bundled for tests."""
    graph = build_knn_graph(cloud, k=k)
    basis = homology_split(graph)
    classification = classify_cycles(basis)
    forms = solve_oneforms(graph, classification)
    mesh = mesh_flat_torus(graph, forms, cloud)
    oriented = orient_mesh(mesh)
    return SimpleNamespace(cloud=cloud, graph=graph, basis=basis,
                           classification=classification, forms=forms,
                           mesh=mesh, oriented=oriented)


@pytest.fixture(scope="session")
def torus_bundle():
    return build_pipeline(sample_torus_revolution(2.0, 0.5, 2000, 0, "grid"))


@pytest.fixture(scope="session")
def random_torus_bundle():
    """The 2k torus with distribution="random": its sampling gaps give
    trivial cycles of five and more hops."""
    return build_pipeline(sample_torus_revolution(2.0, 0.5, 2000, 0,
                                                  distribution="random"))


@pytest.fixture(scope="session")
def stdmap_bundle():
    return build_pipeline(sample_standard_map_torus(
        K1=0.3, K2=0.3, theta1=0.0, theta2=0.0, p1=GOLDEN, p2=SILVER, N=4000))


@pytest.fixture(scope="session")
def cm_bundle():
    cloud = sample_center_manifold_torus(EARTH_MOON_MU, "L2", 5e-3, 5e-3,
                                         6000)
    return build_pipeline(cloud)


@pytest.fixture(scope="session")
def grid5_forms():
    """5x5 grid with its automatic cycle basis and solved one-forms."""
    graph = periodic_grid(5)
    basis = minimum_cycle_basis(graph)
    classification = classify_cycles(basis)
    forms = solve_oneforms(graph, classification)
    return SimpleNamespace(graph=graph, basis=basis,
                           classification=classification, forms=forms)


@pytest.fixture(scope="session")
def grid3_manual_forms():
    """3x3 grid with a hand-built classification (the automatic one
    refuses this graph: the homology generators are lighter than the
    squares)."""
    graph = periodic_grid(3)
    classification = manual_grid_classification(graph, 3, 3)
    forms = solve_oneforms(graph, classification)
    return SimpleNamespace(graph=graph, classification=classification,
                           forms=forms)
