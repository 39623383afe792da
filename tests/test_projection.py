"""Projection and export: coordinate selection, PCA optimality, custom
matrices, OBJ/PLY round trips, and sidedness coloring."""

import struct
import warnings
from itertools import combinations

import numpy as np
import pytest

from torusforge.errors import ProjectionError
from torusforge.mesher import SurfaceMesh, _half_edges
from torusforge.projection import (ProjectedMesh, export_mesh, pca_axes,
                                   project)
from torusforge.samplers import PointCloud

from reference_readers import read_obj, read_ply


def test_identity_coordinate_select(torus_bundle):
    out = project(torus_bundle.oriented, np.eye(3))
    assert np.array_equal(out.points, torus_bundle.cloud.points)
    assert np.array_equal(out.triangles, torus_bundle.oriented.triangles)
    assert out.source_dim == 3
    assert out.captured_variance is None


def test_project_accepts_plain_mesh(torus_bundle):
    out = project(torus_bundle.mesh, np.eye(3))
    assert np.array_equal(out.points, torus_bundle.cloud.points)


def test_coordinate_select_keeps_circle_constraint(stdmap_bundle):
    """Selecting the first angle pair from the 4D embedding keeps the
    unit-circle constraint exactly: np.eye(3, D) copies coordinates."""
    out = project(stdmap_bundle.oriented, np.eye(3, 4))
    radius = np.hypot(out.points[:, 0], out.points[:, 1])
    assert np.max(np.abs(radius - 1.0)) < 1e-12


@pytest.mark.parametrize("bundle", ["torus_bundle", "stdmap_bundle",
                                    "cm_bundle"])
def test_first_three_coordinates_bit_for_bit(bundle, request):
    """The matrix np.eye(3, D) selects the first three coordinates
    exactly: each output is one coordinate times 1 plus zeros."""
    b = request.getfixturevalue(bundle)
    pts = b.cloud.points
    out = project(b.oriented, np.eye(3, pts.shape[1]))
    assert np.array_equal(out.points, pts[:, :3])
    assert out.captured_variance is None


def test_pca_is_centred_principal_axes_bit_for_bit(cm_bundle):
    pts = cm_bundle.cloud.points
    axes, captured = pca_axes(pts)
    out = project(cm_bundle.oriented, None)
    assert np.array_equal(out.points, (pts - pts.mean(axis=0)) @ axes.T)
    assert out.captured_variance == captured


def test_pca_beats_every_coordinate_triple(cm_bundle):
    """The top-3 principal subspace captures at least as much variance as
    any axis-aligned triple, and markedly more on this 6D cloud."""
    centered = cm_bundle.cloud.points - cm_bundle.cloud.points.mean(axis=0)
    out = project(cm_bundle.oriented, None)
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
    out = project(cm_bundle.oriented, mat)
    assert np.array_equal(out.points, cm_bundle.cloud.points @ mat.T)


def test_custom_matrix_validation(cm_bundle):
    with pytest.raises(ProjectionError, match="3x6"):
        project(cm_bundle.oriented, np.eye(4)[:2])
    degenerate = np.zeros((3, 6))
    degenerate[0, 0] = degenerate[1, 0] = degenerate[2, 0] = 1.0
    with pytest.raises(ProjectionError, match="rank deficient"):
        project(cm_bundle.oriented, degenerate)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_is_refused(torus_bundle, entry):
    """A non-finite entry stops with ProjectionError, naming it, before
    the SVD (which a NaN makes raise LinAlgError) and before the product
    (which an infinity fills with non-finite points)."""
    mat = np.eye(3)
    mat[1, 2] = entry
    with pytest.raises(ProjectionError, match="non-finite"):
        project(torus_bundle.oriented, mat)


def test_overflowing_matrix_is_refused(torus_bundle):
    """A finite matrix that maps a point out of float range stops with
    ProjectionError, and the product's overflow raises no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProjectionError, match="overflow float range"):
            project(torus_bundle.oriented, 1e308 * np.eye(3))


@pytest.mark.parametrize("scale", [1e200, 1e306])
def test_overflowing_pca_is_refused(torus_bundle, scale):
    """A finite cloud whose variance (at 1e200) or mean (at 1e306)
    overflows float range stops the pca projection with ProjectionError,
    with no warning: the captured variance is never NaN, and the SVD
    never sees a non-finite entry."""
    oriented = torus_bundle.oriented
    mesh = SurfaceMesh(PointCloud(scale * oriented.cloud.points),
                       oriented.triangles, {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ProjectionError, match="overflow"):
            project(mesh, None)


@pytest.fixture(scope="module")
def torus_projected(torus_bundle):
    return project(torus_bundle.oriented, np.eye(3))


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


def test_sidedness_marks_the_fold(stdmap_bundle, tmp_path):
    """Under xyz the 4D Clifford torus (cos t1, sin t1, cos t2, sin t2)
    folds where its dropped coordinate sin t2 changes sign, and the
    colours mark that fold. Every colour change lies on an edge with an
    endpoint where |sin t2| <= 0.2 (measured: 0.169 at most, over 278
    edges), and every face whose corners all have |sin t2| > 0.2 takes
    the colour of sign(sin t2), up to one global swap (6,433 faces, no
    exception; a band of 0.1 leaves 1 exception)."""
    path = tmp_path / "stdmap.ply"
    export_mesh(project(stdmap_bundle.oriented, np.eye(3, 4)), "ply", path)
    _, tris, colors = read_ply(path)
    red = colors[:, 0] == 220
    sin_t2 = stdmap_bundle.cloud.points[:, 3]
    he = _half_edges(tris)
    order = np.argsort(he.edge, kind="stable")
    faces = (order // 3).reshape(-1, 2)          # the two faces of an edge
    change = red[faces[:, 0]] != red[faces[:, 1]]
    assert change.any()
    ends = he.edges[change]
    assert np.all(np.min(np.abs(sin_t2[ends]), axis=1) <= 0.2)
    away = np.all(np.abs(sin_t2[tris]) > 0.2, axis=1)
    assert away.sum() > 0.75 * len(tris)
    agree = (sin_t2[tris[away, 0]] > 0) == red[away]
    assert agree.all() or not agree.any()


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
    pm = project(cm_bundle.oriented, None)
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
    pm = project(cm_bundle.oriented, None)
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
