"""Projection and export: coordinate selection, PCA optimality, custom
matrices, OBJ/PLY round trips, and sidedness coloring."""

import struct
from itertools import combinations

import numpy as np
import pytest

from torusforge.errors import ProjectionError
from torusforge.projection import (Projection, ProjectedMesh, export_mesh,
                                   pca_axes, project, read_obj, read_ply)


def test_identity_coordinate_select(torus_bundle):
    out = project(torus_bundle.oriented, Projection.coordinates((0, 1, 2)))
    assert np.array_equal(out.points, torus_bundle.cloud.points)
    assert np.array_equal(out.triangles, torus_bundle.oriented.triangles)
    assert out.source_dim == 3
    assert out.captured_variance is None


def test_project_accepts_plain_mesh(torus_bundle):
    out = project(torus_bundle.mesh, Projection.coordinates((0, 1, 2)))
    assert np.array_equal(out.points, torus_bundle.cloud.points)


def test_coordinate_select_keeps_circle_constraint(stdmap_bundle):
    """Selecting the first angle pair from the 4D embedding keeps the
    unit-circle constraint exactly: selection copies coordinates."""
    out = project(stdmap_bundle.oriented, Projection.coordinates((0, 1, 2)))
    radius = np.hypot(out.points[:, 0], out.points[:, 1])
    assert np.max(np.abs(radius - 1.0)) < 1e-12


def test_coordinate_select_validation(cm_bundle):
    with pytest.raises(ProjectionError):
        project(cm_bundle.oriented, Projection.coordinates((0, 1, 1)))
    with pytest.raises(ProjectionError):
        project(cm_bundle.oriented, Projection.coordinates((0, 1, 6)))
    with pytest.raises(ProjectionError):
        project(cm_bundle.oriented, Projection("banana"))


def test_pca_beats_every_coordinate_triple(cm_bundle):
    """The top-3 principal subspace captures at least as much variance as
    any axis-aligned triple, and markedly more on this 6D cloud."""
    centered = cm_bundle.cloud.points - cm_bundle.cloud.points.mean(axis=0)
    out = project(cm_bundle.oriented, Projection.pca())
    assert out.captured_variance is not None
    for triple in combinations(range(6), 3):
        fraction = np.sum(centered[:, triple] ** 2) / np.sum(centered ** 2)
        assert out.captured_variance >= fraction - 1e-12
    assert 0.85 < out.captured_variance <= 1.0


def test_pca_axes_orthonormal_and_sign_fixed(cm_bundle):
    axes, captured = pca_axes(cm_bundle.cloud.points)
    assert axes.shape == (3, 6)
    assert np.allclose(axes @ axes.T, np.eye(3), atol=1e-12)
    for row in axes:
        assert row[int(np.argmax(np.abs(row)))] > 0
    assert 0 < captured <= 1


def test_custom_matrix_is_plain_linear_map(cm_bundle):
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(3, 6))
    out = project(cm_bundle.oriented, Projection.matrix(mat))
    assert np.array_equal(out.points, cm_bundle.cloud.points @ mat.T)


def test_custom_matrix_validation(cm_bundle):
    with pytest.raises(ProjectionError, match="3x6"):
        project(cm_bundle.oriented, Projection.matrix(np.eye(4)[:2]))
    degenerate = np.zeros((3, 6))
    degenerate[0, 0] = degenerate[1, 0] = degenerate[2, 0] = 1.0
    with pytest.raises(ProjectionError, match="rank deficient"):
        project(cm_bundle.oriented, Projection.matrix(degenerate))


@pytest.fixture(scope="module")
def torus_projected(torus_bundle):
    return project(torus_bundle.oriented, Projection.coordinates((0, 1, 2)))


def test_obj_round_trip_exact(torus_projected, tmp_path):
    path = tmp_path / "mesh.obj"
    export_mesh(torus_projected, "obj", path)
    pts, tris = read_obj(path)
    # %.17g reproduces every float64 bit for bit
    assert np.array_equal(pts, torus_projected.points)
    assert np.array_equal(tris, torus_projected.triangles)


def test_ply_round_trip_exact(torus_projected, tmp_path):
    path = tmp_path / "mesh.ply"
    export_mesh(torus_projected, "ply", path)
    pts, tris, colors = read_ply(path)
    assert np.array_equal(pts, torus_projected.points)
    assert np.array_equal(tris, torus_projected.triangles)
    assert colors.shape == (len(tris), 3)


def test_ply_color_geometry_unchanged(torus_projected, tmp_path):
    """The PLY's face colours leave its geometry that of the OBJ, which
    carries no colour."""
    obj, ply = tmp_path / "mesh.obj", tmp_path / "mesh.ply"
    export_mesh(torus_projected, "obj", obj)
    export_mesh(torus_projected, "ply", ply)
    pts_a, tris_a = read_obj(obj)
    pts_b, tris_b, colors = read_ply(ply)
    assert np.array_equal(pts_a, pts_b)
    assert np.array_equal(tris_a, tris_b)
    assert colors.shape == (len(tris_a), 3)


def test_sidedness_single_color_on_clean_projection(torus_projected,
                                                    tmp_path):
    """An embedded torus projected identically has no fold-over, so every
    face lands on the same side of its local reference."""
    path = tmp_path / "tinted.ply"
    export_mesh(torus_projected, "ply", path)
    _, _, colors = read_ply(path)
    assert len(np.unique(colors, axis=0)) == 1


def reference_ply_faces(pmesh):
    """Face records of a sidedness-coloured PLY, one face at a time:
    the per-face reference for the array writer and colouring."""
    pts, tris = pmesh.points, pmesh.triangles
    nbrs = {}
    for a, b, c in tris.tolist():
        nbrs.setdefault(a, set()).update((b, c))
        nbrs.setdefault(b, set()).update((a, c))
        nbrs.setdefault(c, set()).update((a, b))
    ring = {v: pts[sorted(ns)].mean(axis=0) for v, ns in nbrs.items()}
    out = b""
    for a, b, c in tris.tolist():
        pa, pb, pc = pts[a], pts[b], pts[c]
        normal = np.cross(pb - pa, pc - pa)
        ringmean = (ring[a] + ring[b] + ring[c]) / 3.0
        side = float(np.dot(normal, (pa + pb + pc) / 3.0 - ringmean))
        color = (220, 50, 47) if side >= 0 else (38, 139, 210)
        out += struct.pack("<B3i3B", 3, a, b, c, *color)
    return out


def test_ply_bytes_match_per_face_reference(cm_bundle, tmp_path):
    """PCA folds the 6D torus over itself, so both colours occur."""
    pm = project(cm_bundle.oriented, Projection.pca())
    path = tmp_path / "cm.ply"
    export_mesh(pm, "ply", path)
    faces = reference_ply_faces(pm)
    assert path.read_bytes().endswith(pm.points.astype("<f8").tobytes()
                                      + faces)
    _, _, colors = read_ply(path)
    assert len(np.unique(colors, axis=0)) == 2


def test_ply_colours_with_unused_point(cm_bundle, tmp_path):
    """A point no face uses has an empty one-ring and changes no face's
    colour."""
    pm = project(cm_bundle.oriented, Projection.pca())
    pm = ProjectedMesh(np.vstack([pm.points, [[9.0, 9.0, 9.0]]]),
                       pm.triangles, pm.source_dim)
    path = tmp_path / "extra.ply"
    export_mesh(pm, "ply", path)
    assert path.read_bytes().endswith(reference_ply_faces(pm))


def test_export_validation(torus_projected, tmp_path):
    empty = ProjectedMesh(np.zeros((4, 3)), np.zeros((0, 3), np.int64), 3)
    with pytest.raises(ProjectionError, match="empty"):
        export_mesh(empty, "obj", tmp_path / "e.obj")
    with pytest.raises(ProjectionError, match="format"):
        export_mesh(torus_projected, "stl", tmp_path / "m.stl")


def test_readers_reject_foreign_files(tmp_path):
    junk = tmp_path / "junk.ply"
    junk.write_bytes(b"solid nope\n")
    with pytest.raises(ProjectionError, match="not a PLY"):
        read_ply(junk)
    header = (b"ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
              b"element face 2\nproperty list uchar int vertex_indices\n")
    quad_ply = tmp_path / "quad.ply"
    quad_ply.write_bytes(header + b"end_header\n" + bytes([3]) + bytes(12))
    with pytest.raises(ProjectionError, match="no face colors"):
        read_ply(quad_ply)
    quad_ply.write_bytes(
        header + b"property uchar red\nproperty uchar green\n"
        b"property uchar blue\nend_header\n"
        + bytes([3]) + bytes(15) + bytes([4]) + bytes(15))
    with pytest.raises(ProjectionError, match="triangle"):
        read_ply(quad_ply)
    quad_ply.write_bytes(quad_ply.read_bytes()[:-1])
    with pytest.raises(ProjectionError, match="truncated"):
        read_ply(quad_ply)
    quad = tmp_path / "quad.obj"
    quad.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(ProjectionError, match="triangle"):
        read_obj(quad)
