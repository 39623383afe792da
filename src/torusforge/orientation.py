"""Globally consistent triangle winding from the orientation double cover.

Two triangles sharing an edge must traverse it in opposite directions.
The double cover has two nodes per face, (t, kept) and (t, flipped), and
every shared edge joins the node pairs that make its two faces agree.
The surface is orientable exactly when no face's two nodes fall in one
component; then the component of face 0 as given picks, for every face,
the winding that agrees with it. The rule never consults embedding
coordinates, so it works identically in any dimension. A non-orientable
surface, which for a torus pipeline always indicates an upstream
meshing defect, is reported with a closed chain of faces along which
the winding contradicts itself. An edge with three or more faces admits
no such winding either and is reported with the faces on it.
"""

import logging

import numpy as np

from .errors import OrientationConflictError
from .mesher import SurfaceMesh, _components, _half_edges

log = logging.getLogger("torusforge.orientation")


def _double_cover(he, T):
    """Edges (rows, cols) of the orientation double cover of T faces
    with half-edge table `he`, whose edges have at most two faces: node
    t keeps face t's winding, node T + t flips it. Each half-edge's face
    is joined to the face of the first half-edge on the same edge."""
    _, first = np.unique(he.edge, return_index=True)
    first = first[he.edge]
    h = np.flatnonzero(first != np.arange(3 * T))
    face, anchor = h // 3, first[h] // 3
    # walking the edge the same way as the anchor face means one flips
    same = (he.forward[h] == he.forward[first[h]]).astype(np.int64)
    rows = np.concatenate([face, face + T])
    cols = np.concatenate([anchor + T * same, anchor + T * (1 - same)])
    return rows, cols


def _conflict_cycle(rows, cols, t, T):
    """Faces on a shortest cover path from (t, kept) to (t, flipped): a
    closed chain of edge-adjacent faces whose winding contradicts itself
    once round. Runs only on a failing mesh, so scipy loads only then."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import breadth_first_order
    cover = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                       shape=(2 * T, 2 * T)).tocsr()
    _, pred = breadth_first_order(cover, t, directed=False)
    node, chain = T + t, []
    while node != t:
        node = pred[node]
        chain.append(int(node % T))
    return chain[::-1]


def orient_mesh(mesh):
    """Wind every face consistently with face 0.

    Returns a SurfaceMesh whose triangles traverse every shared edge in
    opposite directions; a face that disagrees with face 0 has its last
    two corners swapped. Raises OrientationConflictError carrying a
    closed chain of faces when the surface is non-orientable or an edge
    has more than two faces, and with an empty chain when the faces do
    not form one edge-connected surface.
    """
    tris = np.asarray(mesh.triangles, dtype=np.int64).reshape(-1, 3)
    T = len(tris)
    if T == 0:
        raise OrientationConflictError("cannot orient an empty mesh",
                                       conflict_cycle=[])
    he = _half_edges(tris)
    crowded = np.flatnonzero(he.counts > 2)
    if len(crowded):
        # two of three or more faces on one edge always walk it alike
        e = int(crowded[0])
        faces = np.unique(np.flatnonzero(he.edge == e) // 3).tolist()
        raise OrientationConflictError(
            f"edge {he.edges[e].tolist()} has {he.counts[e]} faces, which "
            f"no winding can make walk it in opposite directions",
            conflict_cycle=faces)
    rows, cols = _double_cover(he, T)
    label = _components(2 * T, rows, cols)
    ncomp = int(np.sum(label == np.arange(2 * T)))
    twisted = np.flatnonzero(label[:T] == label[T:])
    if len(twisted):
        raise OrientationConflictError(
            "contradictory winding parity: mesh is non-orientable along "
            "the reported triangle cycle",
            conflict_cycle=_conflict_cycle(rows, cols, int(twisted[0]), T))
    if ncomp > 2:
        reached = int(np.sum(label == label[0]))
        raise OrientationConflictError(
            f"triangle adjacency is disconnected: reached {reached} of {T}",
            conflict_cycle=[])
    flip = label[:T] != label[0]
    out = tris.copy()
    out[flip] = out[flip][:, [0, 2, 1]]
    log.info("oriented %d triangles (%d flips)", T, int(np.sum(flip)))
    return SurfaceMesh(mesh.cloud, out, dict(mesh.report))
