"""Torus meshing in the angle coordinates the solved one-forms define.

The exact solve gives the one-forms integer periods and hands over the
angle map theta: V -> R^2 / Z^2 it integrates them to along the cycle
basis's shortest-path tree. The mesh is the Delaunay triangulation of
the points theta(v) on that flat torus, under the arclength chart
metric: the triangles the 3x3 periodic copy of the points gives the
central copy (Caroli & Teillaud, "Delaunay triangulations of closed
Euclidean d-orbifolds", DCG 2016). Qhull runs only on the periodic
copies within a margin of the box, which gives the same triangles once
every kept circumdisk lies inside the padded box; the margin doubles
until it does, and the whole 3x3 copy is the last step. No points are
moved, added or dropped: a cloud the construction cannot triangulate
fails validation loudly.
"""

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import orjson

from .errors import ConfigError, MeshValidationError, ResidualError

log = logging.getLogger("torusforge.mesher")

_WRAP_THRESHOLD = 0.5
_PERIOD_DEFECT_GATE = 1e-6


@dataclass
class SurfaceMesh:
    cloud: object
    triangles: np.ndarray      # (T, 3) vertex indices with winding
    report: dict


class _HalfEdges(NamedTuple):
    """Half-edge table of a triangle list. Half-edge 3t + k runs from
    corner k of face t to corner k + 1; its face is therefore h // 3."""
    edges: np.ndarray      # (E, 2) undirected edges, rows i < j, sorted
    counts: np.ndarray     # (E,) half-edges on each edge
    edge: np.ndarray       # (3T,) undirected edge id of each half-edge
    forward: np.ndarray    # (3T,) True where it runs from i to j


def _half_edges(triangles):
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    tail = tris.reshape(-1)
    head = np.roll(tris, -1, axis=1).reshape(-1)
    lo, hi = np.minimum(tail, head), np.maximum(tail, head)
    base = int(lo.min(initial=0))     # keys stay distinct for any ids
    span = int(hi.max(initial=0)) - base + 1
    keys, edge, counts = np.unique((lo - base) * span + hi - base,
                                   return_inverse=True, return_counts=True)
    edges = np.column_stack(np.divmod(keys, span)) + base
    return _HalfEdges(edges, counts, edge.reshape(-1), tail < head)


def _components(n, a, b):
    """Connected-component label of each of n nodes joined by the edges
    (a[i], b[i]): the smallest node id in its component. Each round
    hooks every root to the least root it meets, then jumps pointers
    until each node points at its root; a tree that meets another either
    hooks or is hooked onto, so each round at least halves the trees."""
    label = np.arange(n)
    while True:
        a, b = label[a], label[b]
        live = a != b
        if not live.any():
            return label
        a, b = np.minimum(a[live], b[live]), np.maximum(a[live], b[live])
        np.minimum.at(label, b, a)
        jump = label[label]
        while not np.array_equal(jump, label):
            label, jump = jump, jump[jump]


def _link_offenders(he):
    """Vertices whose triangle fan is not a single closed cycle, on a
    mesh whose every edge has two faces. Node 2e + s is the incidence of
    edge e with its endpoint edges[e, s]; the corner at the head of
    half-edge h joins its incidences with h and with the next half-edge
    of the face. The link of a vertex is one cycle exactly when its
    incidences form one component."""
    h = np.arange(len(he.edge))
    nxt = h - h % 3 + (h + 1) % 3
    a = 2 * he.edge + he.forward
    b = 2 * he.edge[nxt] + ~he.forward[nxt]
    n = 2 * len(he.edges)
    vertex_label = np.unique(he.edges.reshape(-1) * n + _components(n, a, b))
    verts, fans = np.unique(vertex_label // n, return_counts=True)
    return verts[fans > 1].tolist()


def validate_mesh(triangles, strict=True):
    """Closed-2-manifold and Euler-characteristic report; raises on
    failure. A closed Klein bottle also has chi = 0 and passes it:
    orientability and connectedness come from `orient_mesh`, which
    `cli.stage_validate` adds.

    Report keys: vertices, edges, faces, euler_characteristic,
    nonmanifold_edges, boundary_edges, problems.
    """
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    return _validate(tris, _half_edges(tris), strict)


def _validate(tris, he, strict):
    """validate_mesh on the (T, 3) triangles and their half-edge table."""
    edges, counts = he.edges, he.counts
    nverts = len(np.unique(tris))
    nedges = len(edges)
    nfaces = len(tris)
    boundary = int(np.sum(counts == 1))
    nonmanifold = int(np.sum(counts > 2))
    euler = nverts - nedges + nfaces
    report = {
        "vertices": nverts,
        "edges": nedges,
        "faces": nfaces,
        "euler_characteristic": euler,
        "nonmanifold_edges": nonmanifold,
        "boundary_edges": boundary,
    }
    problems = []
    if nfaces == 0:
        problems.append("empty mesh")
    if boundary:
        offenders = [tuple(e) for e in edges[counts == 1][:20].tolist()]
        problems.append(f"{boundary} boundary edges, e.g. {offenders[:5]}")
        report["boundary_edge_list"] = [list(e) for e in offenders]
    if nonmanifold:
        offenders = [tuple(e) for e in edges[counts > 2][:20].tolist()]
        problems.append(f"{nonmanifold} non-manifold edges, e.g. {offenders[:5]}")
        report["nonmanifold_edge_list"] = [list(e) for e in offenders]
    if not boundary and not nonmanifold and nfaces:
        bad_links = _link_offenders(he)
        if bad_links:
            problems.append(f"link condition fails at vertices {bad_links[:10]}")
            report["link_offenders"] = bad_links[:50]
    if euler != 0:
        problems.append(f"Euler characteristic {euler}, expected 0")
    report["problems"] = problems
    if problems and strict:
        raise MeshValidationError("; ".join(problems), report=report)
    return report


def _chart_metric(graph, forms):
    """Per-axis arclength scale of the chart, least squares over edges:
    len^2 ~ (su du)^2 + (sv dv)^2. Makes chart geometry near-isotropic,
    so the Delaunay predicate approximates the embedding's. Raises
    ResidualError, carrying the fitted (su^2, sv^2), when the fit is not
    positive: the forms then do not parameterize the edges' lengths."""
    design = np.stack([forms.du ** 2, forms.dv ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(design, graph.lengths ** 2, rcond=None)
    if not np.all(np.isfinite(coef) & (coef > 0)):
        raise ResidualError(
            f"chart metric fit is not positive: (su^2, sv^2) = "
            f"({coef[0]:.3e}, {coef[1]:.3e})",
            diagnostics={"chart_metric_coefficients": coef.tolist()})
    return (float(np.sqrt(coef[0])), float(np.sqrt(coef[1])))


def _inside_margin(pts, simp, period, r):
    """Whether every triangle's closed circumdisk lies inside the box
    [-r, px + r] x [-r, py + r], shrunk by a relative 1e-9 so that the
    rounding of the circumcentres cannot let a disk out."""
    a = pts[simp[:, 0]]
    b, c = pts[simp[:, 1]] - a, pts[simp[:, 2]] - a
    bb, cc = np.sum(b * b, axis=1), np.sum(c * c, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        off = np.column_stack([c[:, 1] * bb - b[:, 1] * cc,
                               b[:, 0] * cc - c[:, 0] * bb]) / d[:, None]
        rad = np.hypot(off[:, 0], off[:, 1])[:, None]
        inner = r * (1.0 - 1e-9)
        return bool(np.all(a + off - rad >= -inner)
                    and np.all(a + off + rad <= period + inner))


def _reject_coincident_points(graph, points, period):
    """Raise MeshValidationError, naming the points and their kNN
    neighbours, when chart points lie within a billionth of the mean
    spacing of each other on the flat torus: Qhull would drop them."""
    from scipy.spatial import cKDTree
    tol = 1e-9 * np.sqrt(np.prod(period) / len(points))
    pairs = sorted(cKDTree(np.mod(points, period), boxsize=period)
                   .query_pairs(tol, output_type="ndarray").tolist())
    if pairs:
        ei, ej = graph.edges[:, 0], graph.edges[:, 1]
        # edges are sorted, so lower neighbours then higher ones ascend
        near = {str(v): np.concatenate([ei[ej == v], ej[ei == v]]).tolist()
                for v in np.unique(pairs).tolist()}
        message = (f"chart points coincide in pairs {pairs[:3]}, kNN "
                   f"neighbours {dict(list(near.items())[:6])}")
        raise MeshValidationError(message, report={
            "coincident_pairs": pairs, "neighbors": near,
            "problems": [message]})


def _periodic_delaunay(points, period):
    """Delaunay triangles of `points` on the flat torus [0, px) x [0, py),
    from a Qhull run on the points and their periodic copies within a
    margin r of the box.

    Keeps the simplices touching the central copy and maps them to base
    ids. Each triangle keeps the counter-clockwise winding scipy gives
    2-D simplices, is rotated to start at its smallest id (which dedupes
    its periodic translates), and the rows are sorted. Also returns the
    base ids Qhull dropped as coplanar. The result is a triangulation of
    the torus only when the cloud is dense enough for the copy
    construction; callers validate.

    The margin starts at 4 sqrt(px py / n). Its triangles are kept only
    when no central point lies on the hull of the padded set, Qhull
    dropped no point, and every kept triangle's circumdisk lies inside
    the padded box: the disk then holds no periodic copy the margin
    left out, so the triangle is Delaunay on the whole periodic set, and
    the central points' complete fans are exactly the triangles the
    3x3 copy gives them (Caroli & Teillaud 2016). Otherwise r doubles;
    once it reaches a period, the whole 3x3 copy is triangulated.
    """
    from scipy.spatial import Delaunay
    n = len(points)
    period = np.asarray(period, dtype=np.float64)
    shifts = np.array([(0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1),
                       (1, -1), (1, 0), (1, 1)]) * period
    lifted = (points[None, :, :] + shifts[:, None, :]).reshape(-1, 2)
    r = 4.0 * np.sqrt(np.prod(period) / max(n, 1))
    while True:
        full = not r < np.min(period)
        keep = full | np.all((lifted > -r) & (lifted < period + r), axis=1)
        keep[:n] = True                 # the central copy comes first
        dela = Delaunay(lifted[keep])
        simp = dela.simplices[np.any(dela.simplices < n, axis=1)]
        if full or (not len(dela.coplanar)
                    and not np.any(dela.convex_hull < n)
                    and _inside_margin(dela.points, simp, period, r)):
            break
        r *= 2.0
    ids = np.flatnonzero(keep) % n
    simp = ids[simp]
    lead = np.argmin(simp, axis=1)[:, None]
    simp = np.take_along_axis(simp, (lead + np.arange(3)) % 3, axis=1)
    dropped = np.unique(ids[dela.coplanar[:, 0]])
    return np.unique(simp, axis=0), dropped


def mesh_flat_torus(graph, forms, cloud):
    """Mesh the cloud as the Delaunay triangulation of its angle map.

    Takes theta from `forms.theta` and certifies the integer periods
    over every graph edge: the largest distance of
    theta_j - theta_i - (du, dv) from an integer is the report's
    `period_defect_max`, and ResidualError is raised when it exceeds
    1e-6 or when the chart metric fit is not positive. Triangulates
    theta mod 1, scaled by the chart metric, on the flat torus. Raises
    MeshValidationError, carrying the report, when chart points
    coincide, when the result is not a closed genus-1 manifold, when a
    directed edge is walked by two faces (so the chart winding is not
    one global orientation), when an input point is not a mesh vertex,
    or when a mesh edge that is also a graph edge spans a period seam.
    """
    V = graph.vertex_count
    ei, ej = graph.edges[:, 0], graph.edges[:, 1]
    keys = ei * V + ej                # sorted, as graph.edges is
    inc = np.column_stack([forms.du, forms.dv])
    theta = forms.theta
    gap = theta[ej] - theta[ei] - inc
    defect = float(np.max(np.abs(gap - np.round(gap)), initial=0.0))
    if not defect <= _PERIOD_DEFECT_GATE:
        raise ResidualError(
            f"angle map is not single-valued: an edge misses an integer "
            f"period by {defect:.3e} (gate {_PERIOD_DEFECT_GATE:.0e})",
            diagnostics={"period_defect_max": defect})
    metric = np.asarray(_chart_metric(graph, forms))
    chart = np.mod(theta, 1.0) * metric
    _reject_coincident_points(graph, chart, metric)
    triangles, dropped = _periodic_delaunay(chart, metric)
    he = _half_edges(triangles)
    report = _validate(triangles, he, strict=False)
    report["period_defect_max"] = defect
    problems = report["problems"]
    if len(dropped) or report["vertices"] != V:
        problems.append(
            f"input points missing from the mesh: {V - report['vertices']} "
            f"are not vertices, {len(dropped)} dropped by Qhull as coplanar")
    twice = int(np.sum(np.bincount(2 * he.edge + he.forward) > 1))
    if twice:
        problems.append(f"winding is inconsistent: {twice} directed edges "
                        f"are walked by two faces")
    seam = np.any(np.abs(inc) >= _WRAP_THRESHOLD, axis=1)
    crossing = int(np.sum(np.isin(keys[seam],
                                  he.edges[:, 0] * V + he.edges[:, 1])))
    if crossing:
        problems.append(f"{crossing} mesh edges span a period seam")
    if problems:
        raise MeshValidationError("; ".join(problems), report=report)
    log.info("mesh: %d faces on the flat torus, period defect %.2e",
             len(triangles), defect)
    return SurfaceMesh(cloud, triangles, report)


_JSON_OPTIONS = (orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
                 | orjson.OPT_APPEND_NEWLINE)


def _write_json(path, payload, indent=False):
    """Write `payload` as sorted-key JSON with a trailing newline, compact
    or indented by two spaces. Arrays are written as nested lists
    directly: numpy arrays must be C-contiguous. Floats take their
    shortest round-trip spelling; a non-finite one would be written as
    null, so every writer keeps them out of its payload."""
    option = _JSON_OPTIONS | (orjson.OPT_INDENT_2 if indent else 0)
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(payload, option=option))


def _read_json(path):
    """The JSON value in the file at `path`. Raises ValueError when the
    file is not ASCII or not strict JSON: a NaN, Infinity or out-of-range
    number is refused, so no non-finite float is read."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        raise ValueError("the file is not ASCII")
    return orjson.loads(data)


def export_mesh_json(path, mesh):
    """Native mesh artifact: D-dimensional points + oriented triangles."""
    _write_json(path, {
        "dim": mesh.cloud.dim,
        "provenance": mesh.cloud.provenance,
        "points": np.ascontiguousarray(mesh.cloud.points),
        "triangles": np.ascontiguousarray(mesh.triangles),
        "report": mesh.report,
    })


def _read_triangles(triangles, n):
    """The JSON list `triangles` as a (T, 3) int64 array; an empty list is
    no triangles. Raises ValueError unless it holds rows of three integer
    ids in [0, n)."""
    tris = np.array(triangles)
    if tris.shape == (0,):
        return np.empty((0, 3), dtype=np.int64)
    if tris.shape[1:] != (3,) or tris.dtype.kind not in "iu":
        raise ValueError(f"triangles are not (T, 3) integer ids in [0, {n})")
    outside = np.unique(tris[(tris < 0) | (tris >= n)])
    if len(outside):
        raise ValueError(f"{len(outside)} triangle vertex ids do not index "
                         f"the {n} points, e.g. {outside[:5].tolist()}")
    return tris.astype(np.int64)


def load_mesh_json(path):
    """Read a mesh.json; raises MeshValidationError, naming the path, when
    the file is not ASCII JSON with `dim`, `points` and `triangles`, when
    its points are not a valid PointCloud (say, two equal points or an
    unknown `provenance`) or `dim` is not an integer equal to their
    width, when its triangles are not (T, 3) integer ids of its points,
    or when its `report` is not a JSON object whose `period_defect_max`,
    if present, is a number. A NaN or infinite number is not JSON, so
    the file is refused."""
    from .samplers import PointCloud
    try:
        payload = _read_json(path)
        cloud = PointCloud(np.array(payload["points"], dtype=np.float64),
                           payload.get("provenance", "external"))
        dim = payload["dim"]
        if type(dim) is not int or dim != cloud.dim:
            raise ValueError(f"dim {dim!r} but the points have {cloud.dim} "
                             f"columns")
        triangles = _read_triangles(payload["triangles"], cloud.n)
        report = payload.get("report", {})
        if not isinstance(report, dict):
            raise TypeError(f"report must be a JSON object, got "
                            f"{type(report).__name__}")
        defect = report.get("period_defect_max", 0.0)
        if type(defect) not in (int, float):
            raise TypeError(f"report period_defect_max must be a number, "
                            f"got {defect!r}")
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        problem = f"{path} is not a mesh.json: {type(exc).__name__}: {exc}"
        raise MeshValidationError(problem,
                                  report={"problems": [problem]}) from None
    return SurfaceMesh(cloud, triangles, report)
