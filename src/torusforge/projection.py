"""Linear down-projection of D-dimensional meshes to 3D and mesh export.

A projection is one (3, D) matrix applied to the vertices: the first
three coordinates are `np.eye(3, D)`, and `None` stands for the cloud's
principal axes. Connectivity and winding stay untouched. Exports write
OBJ (ASCII, universal) and binary little-endian PLY with per-face
sidedness RGB. The sidedness color of a face is the sign of its
projected normal against a local outward reference: the face centroid
minus the mean of its vertices' one-ring neighborhoods. On a surface
without projection fold-over that sign is constant; a flip marks
self-intersection artifacts introduced by the projection.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ProjectionError
from .mesher import _half_edges

log = logging.getLogger("torusforge.projection")

_RED = (220, 50, 47)
_BLUE = (38, 139, 210)


@dataclass
class ProjectedMesh:
    points: np.ndarray       # (N, 3)
    triangles: np.ndarray    # (T, 3)
    source_dim: int
    captured_variance: float = None


def pca_axes(points):
    """Top-3 principal axes of a centered cloud, rows sign-normalized so
    each axis's largest-magnitude component is positive. Returns
    (3, D) matrix and captured variance fraction. Raises ProjectionError
    when the mean, the centered points or the variance overflow float
    range."""
    with np.errstate(over="ignore", invalid="ignore"):
        centered = points - points.mean(axis=0)
        if not np.isfinite(centered).all():
            raise ProjectionError("the points about their mean overflow "
                                  "float range")
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        total = float(np.sum(svals ** 2))
        captured = float(np.sum(svals[:3] ** 2) / total) if total > 0 else 1.0
    if not np.isfinite(captured):
        raise ProjectionError("the captured variance overflows float range")
    axes = vt[:3].copy()
    for row in axes:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return axes, captured


def project(mesh, axes):
    """Map a SurfaceMesh to 3D by the (3, D) matrix `axes` -> ProjectedMesh.

    `axes=None` takes the cloud's top three principal axes about its mean
    (`pca_axes`) and records the variance they capture. Raises
    ProjectionError for a non-finite or rank-deficient matrix, for one
    that maps a point out of float range, and for a pca projection
    whose variance overflows it."""
    pts = mesh.cloud.points
    D = pts.shape[1]
    captured = None
    if axes is None:
        axes, captured = pca_axes(pts)
        pts = pts - pts.mean(axis=0)
    mat = np.asarray(axes, dtype=np.float64)
    if mat.shape != (3, D):
        raise ProjectionError(f"projection matrix must be 3x{D}, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise ProjectionError("projection matrix has a non-finite entry")
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise ProjectionError("projection matrix is rank deficient")
    with np.errstate(over="ignore", invalid="ignore"):
        projected = pts @ mat.T
    if not np.isfinite(projected).all():
        raise ProjectionError("projected points overflow float range")
    return ProjectedMesh(projected, np.array(mesh.triangles, dtype=np.int64),
                         D, captured)


def _sidedness_colors(pmesh):
    """Per-face RGB: red/blue by the sign of the projected normal against
    the local outward reference direction."""
    pts = pmesh.points
    tris = np.asarray(pmesh.triangles, dtype=np.int64)
    edges = _half_edges(tris).edges
    n = len(pts)
    src, dst = np.concatenate([edges, edges[:, ::-1]]).T
    # np.add.at adds one term at a time, here in sorted-neighbour order,
    # so each ring sum has one fixed rounding (np.add.reduceat pairs terms)
    src, dst = np.divmod(np.sort(src * n + dst), n)
    ring = np.zeros_like(pts)
    np.add.at(ring, src, pts[dst])
    ring /= np.maximum(np.bincount(src, minlength=n), 1)[:, None]
    pa, pb, pc = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    normal = np.cross(pb - pa, pc - pa)
    centroid = (pa + pb + pc) / 3.0
    ringmean = (ring[tris[:, 0]] + ring[tris[:, 1]] + ring[tris[:, 2]]) / 3.0
    side = np.einsum("ij,ij->i", normal, centroid - ringmean)
    return np.array([_BLUE, _RED], dtype=np.uint8)[(side >= 0).astype(int)]


def export_mesh(pmesh, fmt, path):
    """Write a projected mesh as OBJ or binary PLY. A PLY face carries
    its sidedness RGB; OBJ has no standard face colors."""
    if len(pmesh.triangles) == 0:
        raise ProjectionError("refusing to export an empty mesh")
    if fmt == "obj":
        _write_obj(pmesh, path)
    elif fmt == "ply":
        _write_ply(pmesh, path)
    else:
        raise ProjectionError(f"unknown export format {fmt!r}")
    log.info("wrote %s (%s, %d faces)", path, fmt, len(pmesh.triangles))


def _write_obj(pmesh, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines("v %.17g %.17g %.17g\n" % tuple(p)
                      for p in pmesh.points.tolist())
        fh.writelines("f %d %d %d\n" % (a + 1, b + 1, c + 1)
                      for a, b, c in pmesh.triangles.tolist())


_FACE_DTYPE = np.dtype([("count", "u1"), ("vertices", "<i4", (3,)),
                        ("color", "u1", (3,))])


def _write_ply(pmesh, path):
    n, t = len(pmesh.points), len(pmesh.triangles)
    header = [
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {n}",
        "property double x",
        "property double y",
        "property double z",
        f"element face {t}",
        "property list uchar int vertex_indices",
        "property uchar red", "property uchar green", "property uchar blue",
        "end_header",
    ]
    faces = np.empty(t, dtype=_FACE_DTYPE)
    faces["count"] = 3
    faces["vertices"] = pmesh.triangles
    faces["color"] = _sidedness_colors(pmesh)
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(pmesh.points.astype("<f8").tobytes(order="C"))
        fh.write(faces.tobytes())
