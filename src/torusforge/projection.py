"""Linear down-projection of D-dimensional meshes to 3D and mesh export.

Projection keeps connectivity and winding untouched; only vertex
coordinates are mapped. Exports write OBJ (ASCII, universal) and binary
little-endian PLY with per-face sidedness RGB. The sidedness color of a
face is the sign of its projected normal against a local outward
reference: the face centroid minus the mean of its vertices' one-ring
neighborhoods. On a surface without projection fold-over that sign is
constant; a flip marks self-intersection artifacts introduced by the
projection.
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
class Projection:
    kind: str                # coordinate_select | pca | custom_matrix
    spec: object = None      # index triple or (3, D) matrix

    @classmethod
    def coordinates(cls, indices=(0, 1, 2)):
        return cls("coordinate_select", tuple(int(i) for i in indices))

    @classmethod
    def pca(cls):
        return cls("pca")

    @classmethod
    def matrix(cls, mat):
        return cls("custom_matrix", np.asarray(mat, dtype=np.float64))


@dataclass
class ProjectedMesh:
    points: np.ndarray       # (N, 3)
    triangles: np.ndarray    # (T, 3)
    source_dim: int
    captured_variance: float = None


def pca_axes(points):
    """Top-3 principal axes of a centered cloud, rows sign-normalized so
    each axis's largest-magnitude component is positive. Returns
    (3, D) matrix and captured variance fraction."""
    centered = points - points.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt[:3].copy()
    for row in axes:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    total = float(np.sum(svals ** 2))
    captured = float(np.sum(svals[:3] ** 2) / total) if total > 0 else 1.0
    return axes, captured


def project(mesh, proj):
    """Apply a projection to a SurfaceMesh -> ProjectedMesh."""
    pts = mesh.cloud.points
    D = pts.shape[1]
    captured = None
    if proj.kind == "coordinate_select":
        idx = proj.spec
        if len(idx) != 3 or len(set(idx)) != 3:
            raise ProjectionError(f"need 3 distinct coordinate indices, got {idx}")
        if any(not 0 <= i < D for i in idx):
            raise ProjectionError(f"coordinate index out of range for dim {D}: {idx}")
        out = pts[:, list(idx)].copy()
    elif proj.kind == "pca":
        axes, captured = pca_axes(pts)
        out = (pts - pts.mean(axis=0)) @ axes.T
    elif proj.kind == "custom_matrix":
        mat = np.asarray(proj.spec, dtype=np.float64)
        if mat.shape != (3, D):
            raise ProjectionError(f"projection matrix must be 3x{D}, got {mat.shape}")
        svals = np.linalg.svd(mat, compute_uv=False)
        if svals[-1] <= 1e-12 * svals[0]:
            raise ProjectionError("projection matrix is rank deficient")
        out = pts @ mat.T
    else:
        raise ProjectionError(f"unknown projection kind {proj.kind!r}")
    return ProjectedMesh(out, np.array(mesh.triangles, dtype=np.int64),
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
        for p in pmesh.points:
            fh.write("v %.17g %.17g %.17g\n" % (p[0], p[1], p[2]))
        for a, b, c in pmesh.triangles:
            fh.write("f %d %d %d\n" % (a + 1, b + 1, c + 1))


def read_obj(path):
    """Read back vertices and faces written by _write_obj (subset of OBJ)."""
    pts, tris = [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                pts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                idx = [int(tok.split("/")[0]) - 1 for tok in parts[1:]]
                if len(idx) != 3:
                    raise ProjectionError("only triangle faces supported")
                tris.append(idx)
    return (np.array(pts, dtype=np.float64),
            np.array(tris, dtype=np.int64).reshape(-1, 3))


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


def read_ply(path):
    """(points, triangles, colors) of a PLY written by _write_ply."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply") or end < 0:
        raise ProjectionError("not a PLY file")
    header = data[:end].decode("ascii").splitlines()
    if "format binary_little_endian 1.0" not in header:
        raise ProjectionError("only binary little-endian PLY supported")
    if "property uchar red" not in header:
        raise ProjectionError("PLY has no face colors")
    nverts = ntris = 0
    for line in header:
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            nverts = int(parts[2])
        elif parts[:2] == ["element", "face"]:
            ntris = int(parts[2])
    body = data[end + len(b"end_header\n"):]
    if len(body) < nverts * 24 + ntris * _FACE_DTYPE.itemsize:
        raise ProjectionError(f"truncated PLY: {len(body)} bytes of body "
                              f"for {nverts} vertices and {ntris} faces")
    pts = np.frombuffer(body, dtype="<f8", count=3 * nverts).reshape(-1, 3)
    faces = np.frombuffer(body, dtype=_FACE_DTYPE, count=ntris,
                          offset=nverts * 24)
    if np.any(faces["count"] != 3):
        raise ProjectionError("only triangle faces supported")
    return (pts.copy(), faces["vertices"].astype(np.int64),
            faces["color"].copy())
