"""Seeded input mesh for the restage workload.

The mesh is a jittered 160 x 120 grid on the flat torus, embedded in 6D
as (2 cos u, 2 sin u, cos v, sin v, cos(u+v)/2, sin(u+v)/2). Vertex order
is shuffled and every face gets a random winding, so `orient_mesh` has
about half of the 38,400 faces to flip. The file is written in the
documented `mesh.json` format (the CLI's "re-validate any mesh.json"
input), not through library internals, so it stays readable by any
version of the CLI that accepts that format.
"""

import json

import numpy as np

NU, NV = 160, 120
VERTICES = NU * NV
FACES = 2 * NU * NV


def restage_mesh(seed):
    """Return (points (V, 6), triangles (F, 3)) for `seed`."""
    rng = np.random.default_rng(seed)
    j, i = np.divmod(np.arange(VERTICES), NU)
    # jitter inside the central half of each cell keeps points distinct
    u = 2.0 * np.pi * (i + 0.25 + 0.5 * rng.random(VERTICES)) / NU
    v = 2.0 * np.pi * (j + 0.25 + 0.5 * rng.random(VERTICES)) / NV
    grid_points = np.column_stack([
        2.0 * np.cos(u), 2.0 * np.sin(u), np.cos(v), np.sin(v),
        0.5 * np.cos(u + v), 0.5 * np.sin(u + v)])
    i1, j1 = (i + 1) % NU, (j + 1) % NV
    a, b = j * NU + i, j * NU + i1
    c, d = j1 * NU + i1, j1 * NU + i
    tris = np.concatenate([np.column_stack([a, b, c]),
                           np.column_stack([a, c, d])])
    flip = rng.random(FACES) < 0.5
    tris[flip] = tris[flip][:, [0, 2, 1]]
    tris = tris[rng.permutation(FACES)]
    # grid vertex g becomes vertex label[g]
    label = rng.permutation(VERTICES)
    points = np.empty_like(grid_points)
    points[label] = grid_points
    return points, label[tris]


def write_mesh_json(path, points, triangles, report):
    payload = {
        "dim": int(points.shape[1]),
        "provenance": "synthetic",
        "points": points.tolist(),
        "triangles": triangles.tolist(),
        "report": report,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
