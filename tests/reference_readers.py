"""Readers of the library's OBJ and PLY exports, for round-trip tests.

Each reads exactly the layout `export_mesh` writes and asserts it, so a
change of that layout fails the round trip instead of being read around.
"""

import numpy as np

_PLY_FACE = np.dtype([("count", "u1"), ("vertices", "<i4", (3,)),
                      ("color", "u1", (3,))])


def read_obj(path):
    """(points (N, 3), triangles (T, 3)) of an OBJ: "v x y z" lines, then
    "f a b c" lines with 1-based vertex ids."""
    pts, tris = [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            kind, *values = line.split()
            assert len(values) == 3, line
            if kind == "v":
                assert not tris, "a vertex after the faces"
                pts.append([float(x) for x in values])
            else:
                assert kind == "f", line
                tris.append([int(x) - 1 for x in values])
    return (np.array(pts, dtype=np.float64).reshape(-1, 3),
            np.array(tris, dtype=np.int64).reshape(-1, 3))


def read_ply(path):
    """(points (N, 3), triangles (T, 3), colors (T, 3)) of a binary
    little-endian PLY: float64 vertices, then faces of a uchar count,
    three int32 ids and an RGB triple."""
    with open(path, "rb") as fh:
        head, body = fh.read().split(b"end_header\n", 1)
    lines = head.decode("ascii").splitlines()
    nverts, ntris = int(lines[2].split()[-1]), int(lines[6].split()[-1])
    assert lines == [
        "ply", "format binary_little_endian 1.0",
        f"element vertex {nverts}", "property double x",
        "property double y", "property double z", f"element face {ntris}",
        "property list uchar int vertex_indices", "property uchar red",
        "property uchar green", "property uchar blue"], lines
    assert len(body) == nverts * 24 + ntris * _PLY_FACE.itemsize
    pts = np.frombuffer(body, dtype="<f8", count=3 * nverts).reshape(-1, 3)
    faces = np.frombuffer(body, dtype=_PLY_FACE, offset=nverts * 24)
    assert np.all(faces["count"] == 3)
    return (pts.copy(), faces["vertices"].astype(np.int64),
            faces["color"].copy())
