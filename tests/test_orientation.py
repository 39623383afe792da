"""Winding propagation: local consistency, the seed-flip bijection,
non-orientable detection, and embedding independence."""

import numpy as np
import pytest

from torusforge.errors import OrientationConflictError
from torusforge.mesher import SurfaceMesh
from torusforge.orientation import orient_mesh
from torusforge.samplers import PointCloud


def plain_mesh(points, triangles):
    cloud = PointCloud(dim=points.shape[1], points=points)
    return SurfaceMesh(cloud, np.asarray(triangles, dtype=np.int64), {})


@pytest.fixture
def quad_mesh():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    return pts


def test_consistent_pair_untouched(quad_mesh):
    mesh = plain_mesh(quad_mesh, [(0, 1, 2), (1, 3, 2)])
    out = orient_mesh(mesh)
    assert out.orientation_parity.tolist() == [0, 0]
    assert np.array_equal(out.mesh.triangles, mesh.triangles)


def test_inconsistent_neighbor_gets_flipped(quad_mesh):
    mesh = plain_mesh(quad_mesh, [(0, 1, 2), (1, 2, 3)])
    out = orient_mesh(mesh)
    assert out.orientation_parity.tolist() == [0, 1]
    assert out.mesh.triangles[1].tolist() == [1, 3, 2]
    # shared edge is now walked in opposite directions
    assert out.mesh.triangles[0].tolist() == [0, 1, 2]


def cyclic_forms(tri):
    a, b, c = (int(v) for v in tri)
    return {(a, b, c), (b, c, a), (c, a, b)}


def test_seed_flip_reverses_every_face(torus_bundle):
    """Reversing the seed triangle's vertex order must reverse the
    propagated winding of every face, a bijection between the two global
    orientations."""
    mesh = torus_bundle.mesh
    flipped = mesh.triangles.copy()
    flipped[0] = flipped[0][[0, 2, 1]]
    out_a = orient_mesh(mesh)
    out_b = orient_mesh(SurfaceMesh(mesh.cloud, flipped, {}))
    tri_a = out_a.mesh.triangles
    tri_b = out_b.mesh.triangles
    for ta, tb in zip(tri_a, tri_b):
        assert tuple(tb) in cyclic_forms(ta[[0, 2, 1]])


def test_seed_triangle_choice_gives_one_of_two_orientations(torus_bundle):
    mesh = torus_bundle.mesh
    base = orient_mesh(mesh, seed_triangle=0).mesh.triangles
    for seed in (1, 17, 1234):
        other = orient_mesh(mesh, seed_triangle=seed).mesh.triangles
        same = all(tuple(o) in cyclic_forms(b)
                   for o, b in zip(other, base))
        reversed_ = all(tuple(o) in cyclic_forms(b[[0, 2, 1]])
                        for o, b in zip(other, base))
        assert same or reversed_


def test_orientation_is_coordinate_free(torus_bundle):
    """Propagation never reads vertex positions, so permuting the
    embedding coordinates changes nothing."""
    mesh = torus_bundle.mesh
    permuted = PointCloud(dim=3, points=mesh.cloud.points[:, [2, 0, 1]],
                          provenance=mesh.cloud.provenance)
    out_a = orient_mesh(mesh)
    out_b = orient_mesh(SurfaceMesh(permuted, mesh.triangles, {}))
    assert np.array_equal(out_a.orientation_parity, out_b.orientation_parity)
    assert np.array_equal(out_a.mesh.triangles, out_b.mesh.triangles)


def test_moebius_strip_detected():
    ang = np.linspace(0, 2 * np.pi, 5, endpoint=False)
    pts = np.column_stack([np.cos(ang), np.sin(ang), 0.1 * np.arange(5)])
    strip = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
    with pytest.raises(OrientationConflictError) as err:
        orient_mesh(plain_mesh(pts, strip))
    # the reported conflict names a closed chain of triangle indices
    assert len(err.value.conflict_cycle) >= 2
    assert all(0 <= t < 5 for t in err.value.conflict_cycle)


def test_disconnected_triangulation_rejected(quad_mesh):
    pts = np.vstack([quad_mesh, quad_mesh + 10.0])
    tris = [(0, 1, 2), (4, 5, 6)]
    with pytest.raises(OrientationConflictError):
        orient_mesh(plain_mesh(pts, tris))


def test_empty_and_bad_seed(quad_mesh):
    mesh = plain_mesh(quad_mesh, [(0, 1, 2)])
    with pytest.raises(OrientationConflictError):
        orient_mesh(SurfaceMesh(mesh.cloud, np.zeros((0, 3), np.int64), {}))
    with pytest.raises(OrientationConflictError):
        orient_mesh(mesh, seed_triangle=5)


def test_oriented_torus_mesh_needs_no_flips(torus_bundle):
    # every triangle is wound counter-clockwise in the one flat-torus chart
    assert int(torus_bundle.oriented.orientation_parity.sum()) == 0


def test_oriented_normals_agree_with_surface(torus_bundle):
    """All face normals of the oriented torus mesh point to the same
    side: their dot product with the analytic outward direction has one
    sign across all 4000 faces."""
    pts = torus_bundle.oriented.mesh.cloud.points
    tris = torus_bundle.oriented.mesh.triangles
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    normal = np.cross(b - a, c - a)
    centroid = (a + b + c) / 3.0
    rho = np.hypot(centroid[:, 0], centroid[:, 1])
    ring = np.column_stack([2.0 * centroid[:, 0] / rho,
                            2.0 * centroid[:, 1] / rho,
                            np.zeros(len(centroid))])
    side = np.einsum("ij,ij->i", normal, centroid - ring)
    assert np.all(side > 0) or np.all(side < 0)


def test_every_shared_edge_walked_both_ways(torus_bundle):
    tris = torus_bundle.oriented.mesh.triangles
    directed = {}
    for a, b, c in tris.tolist():
        for i, j in ((a, b), (b, c), (c, a)):
            directed[(i, j)] = directed.get((i, j), 0) + 1
    # closed oriented surface: each directed edge appears exactly once
    assert all(n == 1 for n in directed.values())
    assert all((j, i) in directed for i, j in directed)
