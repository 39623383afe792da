"""Winding by the orientation double cover: local consistency, the
anchor-flip bijection, non-orientable detection, and embedding
independence."""

import numpy as np
import pytest

from conftest import assert_closed_face_chain, klein_bottle
from torusforge.errors import OrientationConflictError
from torusforge.mesher import SurfaceMesh, validate_mesh
from torusforge.orientation import orient_mesh
from torusforge.samplers import PointCloud


def plain_mesh(points, triangles):
    cloud = PointCloud(points)
    return SurfaceMesh(cloud, np.asarray(triangles, dtype=np.int64), {})


@pytest.fixture
def quad_mesh():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    return pts


def test_consistent_pair_untouched(quad_mesh):
    mesh = plain_mesh(quad_mesh, [(0, 1, 2), (1, 3, 2)])
    out = orient_mesh(mesh)
    assert isinstance(out, SurfaceMesh)
    assert np.array_equal(out.triangles, mesh.triangles)


def test_inconsistent_neighbor_gets_flipped(quad_mesh):
    mesh = plain_mesh(quad_mesh, [(0, 1, 2), (1, 2, 3)])
    out = orient_mesh(mesh)
    assert out.triangles[1].tolist() == [1, 3, 2]
    # shared edge is now walked in opposite directions
    assert out.triangles[0].tolist() == [0, 1, 2]


def cyclic_forms(tri):
    a, b, c = (int(v) for v in tri)
    return {(a, b, c), (b, c, a), (c, a, b)}


def same_orientation(tris_a, tris_b):
    return all(tuple(b) in cyclic_forms(a) for a, b in zip(tris_a, tris_b))


def test_seed_flip_reverses_every_face(torus_bundle):
    """Reversing the anchor triangle's vertex order (face 0, whose
    winding every other face follows) must reverse the winding of every
    face, a bijection between the two global orientations."""
    mesh = torus_bundle.mesh
    flipped = mesh.triangles.copy()
    flipped[0] = flipped[0][[0, 2, 1]]
    out_a = orient_mesh(mesh)
    out_b = orient_mesh(SurfaceMesh(mesh.cloud, flipped, {}))
    assert same_orientation(out_a.triangles[:, [0, 2, 1]], out_b.triangles)


def test_seed_triangle_choice_gives_one_of_two_orientations(torus_bundle):
    """Permuting the face order makes another triangle the anchor; the
    result is still one of the two global orientations."""
    mesh = torus_bundle.mesh
    base = orient_mesh(mesh).triangles
    for seed in (1, 17, 1234):
        order = np.random.default_rng(seed).permutation(len(base))
        other = orient_mesh(SurfaceMesh(mesh.cloud, mesh.triangles[order],
                                        {})).triangles
        assert (same_orientation(base[order], other)
                or same_orientation(base[order][:, [0, 2, 1]], other))


def test_orientation_is_coordinate_free(torus_bundle):
    """Propagation never reads vertex positions, so permuting the
    embedding coordinates changes nothing."""
    mesh = torus_bundle.mesh
    permuted = PointCloud(mesh.cloud.points[:, [2, 0, 1]],
                          mesh.cloud.provenance)
    out_a = orient_mesh(mesh)
    out_b = orient_mesh(SurfaceMesh(permuted, mesh.triangles, {}))
    assert np.array_equal(out_a.triangles, out_b.triangles)


def test_moebius_strip_detected():
    ang = np.linspace(0, 2 * np.pi, 5, endpoint=False)
    pts = np.column_stack([np.cos(ang), np.sin(ang), 0.1 * np.arange(5)])
    strip = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
    with pytest.raises(OrientationConflictError) as err:
        orient_mesh(plain_mesh(pts, strip))
    # the reported conflict names a closed chain of triangle indices
    cycle = err.value.details["conflict_cycle"]
    assert len(cycle) >= 2
    assert all(0 <= t < 5 for t in cycle)
    assert_closed_face_chain(strip, cycle)


def test_klein_bottle_conflict_cycle():
    tris = klein_bottle()
    report = validate_mesh(tris, strict=False)
    assert report["problems"] == []
    pts = np.random.default_rng(0).normal(size=(36, 4))
    with pytest.raises(OrientationConflictError) as err:
        orient_mesh(plain_mesh(pts, tris))
    assert_closed_face_chain(tris, err.value.details["conflict_cycle"])


def test_duplicated_face_rejected(torus_bundle):
    """A face repeated on the closed torus puts three faces on each of
    its edges; no winding walks such an edge in opposite directions."""
    tris = np.vstack([torus_bundle.mesh.triangles,
                      torus_bundle.mesh.triangles[:1]])
    with pytest.raises(OrientationConflictError) as err:
        orient_mesh(SurfaceMesh(torus_bundle.mesh.cloud, tris, {}))
    chain = err.value.details["conflict_cycle"]
    # face 0, its copy and face 0's neighbour across one of its edges
    assert len(chain) == 3 and {0, len(tris) - 1} < set(chain)
    assert_closed_face_chain(tris.tolist(), chain)


def test_three_faces_on_one_edge_rejected():
    # s1 and s2 each disagree with t on edge (0, 1) but agree with each
    # other, so one of the pairs always walks the edge the same way
    tris = [(0, 1, 2), (1, 0, 3), (1, 0, 4)]
    pts = np.random.default_rng(0).normal(size=(5, 3))
    with pytest.raises(OrientationConflictError) as err:
        orient_mesh(plain_mesh(pts, tris))
    assert err.value.details["conflict_cycle"] == [0, 1, 2]
    assert_closed_face_chain(tris, err.value.details["conflict_cycle"])


def test_disconnected_triangulation_rejected(quad_mesh):
    pts = np.vstack([quad_mesh, quad_mesh + 10.0])
    tris = [(0, 1, 2), (4, 5, 6)]
    with pytest.raises(OrientationConflictError):
        orient_mesh(plain_mesh(pts, tris))


def test_empty_mesh_rejected(quad_mesh):
    mesh = plain_mesh(quad_mesh, [(0, 1, 2)])
    with pytest.raises(OrientationConflictError):
        orient_mesh(SurfaceMesh(mesh.cloud, np.zeros((0, 3), np.int64), {}))


def test_oriented_torus_mesh_needs_no_flips(torus_bundle):
    # every triangle is wound counter-clockwise in the one flat-torus chart
    assert np.array_equal(torus_bundle.oriented.triangles,
                          torus_bundle.mesh.triangles)


def test_oriented_normals_agree_with_surface(torus_bundle):
    """All face normals of the oriented torus mesh point to the same
    side: their dot product with the analytic outward direction has one
    sign across all 4000 faces."""
    pts = torus_bundle.oriented.cloud.points
    tris = torus_bundle.oriented.triangles
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    normal = np.cross(b - a, c - a)
    centroid = (a + b + c) / 3.0
    rho = np.hypot(centroid[:, 0], centroid[:, 1])
    ring = np.column_stack([2.0 * centroid[:, 0] / rho,
                            2.0 * centroid[:, 1] / rho,
                            np.zeros(len(centroid))])
    side = np.einsum("ij,ij->i", normal, centroid - ring)
    assert np.all(side > 0) or np.all(side < 0)


def assert_each_directed_edge_once(tris):
    directed = {}
    for a, b, c in tris.tolist():
        for i, j in ((a, b), (b, c), (c, a)):
            directed[(i, j)] = directed.get((i, j), 0) + 1
    # closed oriented surface: each directed edge appears exactly once
    assert all(n == 1 for n in directed.values())
    assert all((j, i) in directed for i, j in directed)


def test_every_shared_edge_walked_both_ways(torus_bundle):
    assert_each_directed_edge_once(torus_bundle.oriented.triangles)


@pytest.mark.parametrize("seed", range(20))
def test_scrambled_torus_gets_one_global_orientation(torus_bundle, seed):
    """Random per-face flips plus face and vertex relabelling: the
    result is one of the two global orientations of the relabelled
    mesh, and walks every directed edge once."""
    mesh = torus_bundle.mesh
    rng = np.random.default_rng(seed)
    label = rng.permutation(mesh.cloud.n)
    order = rng.permutation(len(mesh.triangles))
    base = label[mesh.triangles][order]
    scrambled = base.copy()
    flip = rng.random(len(base)) < 0.5
    scrambled[flip] = scrambled[flip][:, [0, 2, 1]]
    points = np.empty_like(mesh.cloud.points)
    points[label] = mesh.cloud.points
    out = orient_mesh(SurfaceMesh(PointCloud(points), scrambled,
                                  {})).triangles
    assert (same_orientation(base, out)
            or same_orientation(base[:, [0, 2, 1]], out))
    assert_each_directed_edge_once(out)
