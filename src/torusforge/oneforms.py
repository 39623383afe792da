"""Discrete one-form parameterization on a torus graph.

Two one-forms (du, dv) live on graph edges, stored once per undirected
edge with the convention that the value on edge (i, j), i < j, is the
increment seen walking i -> j; walking j -> i sees the negated value.

The solved forms satisfy, per form:
  - co-closedness at every vertex (rows A): sum of signed weighted
    values over incident edges is zero,
  - unit period on one homology generator, zero on the other (rows
    C[:2]; u pairs with the toroidal generator, v with the poloidal),
  - closedness on every trivial basis cycle (rows C[2:]): signed sum
    is zero.

The solver enforces the cycle constraints exactly by splitting the form
into an exact part (vertex potential) plus a correction on non-tree
edges, then makes the form co-closed by one weighted-Laplacian solve.
The correction is an integer cocycle (its entry on a non-tree edge is
the periods of the edge's fundamental cycle), solved in int64 by
peeling the basis rows, SuperLU on the core left, and certified by one
integer product over every face. The Laplacian solve renders the
remaining residuals at machine precision; SuperLU factors the grounded
Laplacian L alone, which is symmetric positive definite, in symmetric
mode: minimum degree on L^T + L and pivots taken from the diagonal (0.61M
L+U entries at 6k points against COLAMD's 1.11M). The correction is zero
on the spanning tree, so the two potentials are the angle map theta:
the forms integrated along the tree from vertex 0. It is the cycle
basis's shortest-path tree, so the basis and the angle map share one.

`parameterize` is the pipeline's split, classification and solve in one
call, one solve per cloud, with the generators taken from the period
lattice where its reduced classes are clear of a near-tie.
"""

import logging
from contextlib import suppress
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, vstack
from scipy.sparse.linalg import splu

from . import cycles
from .cycles import (_finish, _fundamental_loop, _fundamental_weights,
                     _short_cycle_basis, _sorted_block, _with_generators,
                     _Workspace, classify_cycles)
from .errors import (CycleBasisError, GeneratorClassificationError,
                     ResidualError)
from .mesher import _write_json

log = logging.getLogger("torusforge.oneforms")

# Co-closedness in the graph's own units: RMS(A dx) times the median edge
# length over the median |dx|. A's entries are 1 / length, so RMS(A dx)
# alone grows as 1 / scale when the cloud is scaled; this ratio does not.
_COCLOSED_GATE = 1e-10
_CLOSED_GATE = 1e-6
_PERIOD_GATE = 1e-6
# Relative gap below which two flat lengths of homology classes count as
# tied. The flat length under the fitted chart metric estimates the
# weight of a class's lightest loop only to about 1 %: on the random 2k
# torus it puts (1, -1) 0.7 % below (1, 0), the other way round from
# their exact loops, and on the standard-map cloud (`run --dim 4`) the
# two generator classes are 0.9 % apart flat and 0.1 % apart exactly.
# The margin is about twice those gaps; the closest gap that clears it
# on the tier-1 clouds is 3.5 % (grid tori: the toroidal class against
# its sum with the poloidal one).
_TIE_MARGIN = 0.02


@dataclass
class OneFormPair:
    du: np.ndarray
    dv: np.ndarray
    theta: np.ndarray          # (V, 2) angle map, theta[0] = (0, 0)
    diagnostics: dict


def _cycle_rows(graph, basis):
    """C: the toroidal and poloidal rows, then the trivial rows, from a
    basis `classify_cycles` returned. A row has +1 on each step from the
    lower vertex id to the higher, -1 on each step back. A trivial row's
    sign follows the way its loop runs, which a zero right-hand side
    makes moot; a generator row's sign follows the way `classify_cycles`
    runs its loop and sets the sign of its form. A block of trivial rows
    alone gives them all, in some order."""
    k, r = basis.size - 2, np.arange(basis.size)
    low_first = basis.vertices == graph.edges[basis.edges, 0]
    return coo_matrix(
        (np.where(low_first, 1.0, -1.0),
         (np.repeat(np.where(r < k, r + 2, k + 1 - r), basis.hops),
          basis.edges)),
        shape=(basis.size, graph.edge_count)).tocsr()


def _coclosed_rows(graph):
    """A: edge (i, j) puts -1/length in row i and +1/length in row j."""
    w = 1.0 / graph.lengths
    return coo_matrix((np.concatenate([-w, w]),
                       (graph.edges.T.reshape(-1),
                        np.tile(np.arange(graph.edge_count), 2))),
                      shape=(graph.vertex_count, graph.edge_count)).tocsr()


def _integer_cocycle(M, faces=None):
    """psi: the int64 (m, 2) solution of M psi = [e_0, e_1; 0], M the m x m
    cycle rows over the non-tree coordinates, entries +-1: the toroidal
    and poloidal generator rows, then rows that close.

    Structured Gaussian elimination (LaMacchia & Odlyzko, CRYPTO 1990):
    a row with one unknown coordinate left fixes it, and each round
    solves every such row (the first, where several fix one coordinate),
    then updates only the rows of the columns it solved, through the CSC
    index. A row keeps the count of its unknowns, the sum of their ids
    and the sum of their signs, so with one left the sums name it and
    its sign; on small integers this is exact in any order. SuperLU
    solves the core left, as many rows as unknowns, and its solution is
    rounded. One int64 product M psi certifies every row, and one of
    `faces` that psi closes each. Raises CycleBasisError naming the
    coordinates no row fixes (a core not square, singular or out of
    range), the rows the product misses, or the faces left open.
    """
    R, m = M.shape
    M = M.tocsr().astype(np.int64)
    M.eliminate_zeros()
    T = M.tocsc()
    row = np.repeat(np.arange(R), np.diff(M.indptr))
    count = np.diff(M.indptr)
    ids = np.bincount(row, M.indices, R).astype(np.int64)
    signs = np.bincount(row, M.data, R).astype(np.int64)
    target = np.eye(R, 2, dtype=np.int64)       # [e_0, e_1; 0]
    rhs, psi = target.copy(), np.zeros((m, 2), dtype=np.int64)
    solved = np.zeros(m, dtype=bool)
    ready, rounds = np.flatnonzero(count == 1), 0
    while len(ready):
        cols, first = np.unique(ids[ready], return_index=True)
        rows = ready[first]
        psi[cols] = signs[rows, None] * rhs[rows]
        solved[cols] = True
        lo = T.indptr[cols]
        k = T.indptr[cols + 1] - lo
        at = np.repeat(lo - np.cumsum(k) + k, k) + np.arange(k.sum())
        hit, where = np.unique(T.indices[at], return_inverse=True)
        col, sign = np.repeat(cols, k), T.data[at]
        count[hit] -= np.bincount(where, minlength=len(hit))
        for held, step in ((ids, col), (signs, sign),
                           (rhs[:, 0], sign * psi[col, 0]),
                           (rhs[:, 1], sign * psi[col, 1])):
            held[hit] -= np.bincount(where, step, len(hit)).astype(np.int64)
        ready, rounds = hit[count[hit] == 1], rounds + 1
    core_rows, core = np.flatnonzero(count), np.flatnonzero(~solved)
    log.info("cycle constraints: %d of %d coordinates peeled from %d rows "
             "in %d rounds, core %d", m - len(core), m, R, rounds, len(core))
    x = np.full((len(core), 2), np.nan)
    if len(core) and len(core_rows) == len(core):
        with suppress(RuntimeError):      # SuperLU: exactly singular
            x = np.rint(splu(M[core_rows][:, core].astype(float).tocsc())
                        .solve(rhs[core_rows].astype(float)))
    if not np.all(np.abs(x) < 2.0 ** 52):
        raise CycleBasisError(
            f"no cycle row fixes {len(core)} of the {m} non-tree "
            f"coordinates, e.g. {core[:10].tolist()}",
            coordinates=core.tolist())
    psi[core] = x
    if len(bad := np.flatnonzero(np.any(M @ psi != target, axis=1))):
        raise CycleBasisError(
            f"cycle rows are inconsistent: the solution misses the "
            f"right-hand side of {len(bad)} rows, e.g. {bad[:10].tolist()}",
            rows=bad.tolist())
    if faces is not None and len(
            bad := np.flatnonzero(np.any(faces @ psi, axis=1))):
        raise CycleBasisError(
            f"the cocycle leaves {len(bad)} of the {faces.shape[0]} triangles "
            f"and squares open, e.g. {bad[:10].tolist()}", faces=bad.tolist())
    return psi


def _solve_exact(graph, A, M, nontree, faces=None):
    """Hard cycle constraints by elimination, then exact co-closedness.

    dx = B pi + psi with psi supported on `nontree`, the edges off the
    cycle basis's shortest-path tree from vertex 0: the integer cocycle
    `_integer_cocycle` solves from M, the m x m basis rows on those
    coordinates, generator rows first, and certifies on `faces` too.
    The remaining weighted Laplacian solve makes A dx vanish identically
    (discrete Hodge decomposition). Returns du, dv, the potentials
    (pi_u, pi_v) as a (V, 2) array, and psi on the non-tree edges as an
    int64 (m, 2) array: pi[0] = 0, and psi is zero on the tree, so pi
    integrates the forms along it.
    """
    V, E = graph.vertex_count, graph.edge_count
    B = A.sign().T                    # w > 0, so A's signs are B^T
    psi = _integer_cocycle(M, faces)
    full = np.zeros((2, E))
    full[:, nontree] = psi.T
    llu = splu((A @ B)[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A",
               diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    forms, theta = [], np.zeros((V, 2))
    for k in range(2):                # periods (1, 0) and (0, 1)
        theta[1:, k] = llu.solve(-(A @ full[k])[1:])
        forms.append(B @ theta[:, k] + full[k])
    return forms[0], forms[1], theta, psi


def _diagnose(A, C, dx):
    return {
        "coclosedness_rms": float(np.sqrt(np.mean((A @ dx) ** 2))),
        "value_scale": float(np.median(np.abs(dx))),
        "max_trivial_cycle_error": float(
            np.max(np.abs(C[2:] @ dx), initial=0.0)),
        "periods": [float(p) for p in C[:2] @ dx],
    }


def _checked(A, C, du, dv, theta):
    """The solved forms with their residual diagnostics on the rows A and
    C; raises ResidualError naming each residual out of tolerance."""
    diag_u = _diagnose(A, C, du)
    diag_v = _diagnose(A, C, dv)
    period_matrix = [diag_u["periods"], diag_v["periods"]]
    period_err = float(np.max(np.abs(np.array(period_matrix) - np.eye(2))))
    diagnostics = {"u": diag_u, "v": diag_v, "period_matrix": period_matrix,
                   "period_error": period_err}
    median_length = float(np.median(1.0 / np.abs(A.data)))  # A is +-1/length
    failures = []
    for name, d in (("u", diag_u), ("v", diag_v)):
        gate = (_COCLOSED_GATE * max(d["value_scale"], np.finfo(float).tiny)
                / median_length)
        if not d["coclosedness_rms"] <= gate:
            failures.append(
                f"{name}-form co-closedness RMS {d['coclosedness_rms']:.3e} "
                f"exceeds {gate:.3e}")
        if not d["max_trivial_cycle_error"] <= _CLOSED_GATE:
            failures.append(
                f"{name}-form trivial-cycle closedness "
                f"{d['max_trivial_cycle_error']:.3e} exceeds "
                f"{_CLOSED_GATE:.3e}")
    if not period_err <= _PERIOD_GATE:
        failures.append(
            f"period matrix error {period_err:.3e} exceeds {_PERIOD_GATE:.3e}")
    if failures:
        raise ResidualError("; ".join(failures), diagnostics=diagnostics)
    log.info("one-forms solved: cc rms %.2e/%.2e, period err %.2e",
             diag_u["coclosedness_rms"], diag_v["coclosedness_rms"],
             period_err)
    return OneFormPair(du, dv, theta, diagnostics)


def _loop_lower_bound(graph, du, dv):
    """A weight no non-trivial loop is lighter than: a loop with a nonzero
    period under a closed form phi has |period| >= 1, and the period is
    at most max_e |phi_e| / length_e times the loop's weight. Every
    non-trivial loop has a nonzero period under du or dv."""
    return float(min(1.0 / np.max(np.abs(f) / graph.lengths)
                     for f in (du, dv)))


def _chart_gram(graph, du, dv):
    """The 2 x 2 chart metric G fitted by least squares over the edges:
    length^2 ~ G11 du^2 + 2 G12 du dv + G22 dv^2."""
    design = np.stack([du * du, 2.0 * du * dv, dv * dv], axis=1)
    (g11, g12, g22), *_ = np.linalg.lstsq(design, graph.lengths ** 2,
                                          rcond=None)
    return np.array([[g11, g12], [g12, g22]])


def _form(G, x, y):
    """x^T G y for 2-vectors."""
    return float(x @ G @ y)


def _gauss_reduce(G):
    """Lagrange-Gauss reduced basis (b1, b2) of Z^2 under the positive
    definite form G: b1 is a shortest nonzero vector, b2 a shortest one
    independent of it, and |b1| <= |b2| <= |b2 - b1|, |b2 + b1|."""
    def norm2(x):
        return _form(G, x, x)
    b1, b2 = np.array([1, 0]), np.array([0, 1])
    if norm2(b2) < norm2(b1):
        b1, b2 = b2, b1
    while True:
        b2 = b2 - int(np.rint(_form(G, b1, b2) / norm2(b1))) * b1
        if norm2(b2) >= norm2(b1):
            return b1, b2
        b1, b2 = b2, b1


def parameterize(graph):
    """The classified cycle basis of a torus graph and its one-forms,
    solved once and checked by the residual gates. Raises
    GeneratorClassificationError where the triangles and squares leave
    fewer than two slots (`details` holds `slots`: the graph has fewer
    independent loops than a torus) or from `classify_cycles`,
    CycleBasisError naming the triangles and squares the cocycle leaves
    open, and ResidualError naming each tripped residual (co-closedness,
    trivial-cycle closedness, or the period matrix).

    Where the triangles and squares leave more than two slots, de Pina's
    rule fills them (`_finish`), and the forms are solved on its basis.
    Where they leave two, any two loops whose classes generate H1 fix the
    same forms up to a unimodular map, as harmonic forms are unique in
    their cohomology class (Gortler, Gotsman & Thurston, CAGD 2006). So
    the forms are solved with unit periods on the free coordinates (each
    one's fundamental cycle crosses it alone) and the kept faces closed,
    and Z^2, the classes by their periods, is Lagrange-Gauss reduced
    under the chart metric G fitted with its cross term: the shorter
    class is poloidal (a shortest homology basis: Erickson & Whittlesey,
    SODA 2005), and each generator row takes the lightest fundamental
    cycle of its class. de Pina's rule picks the generators instead when
    G is not positive definite, when the two reduced lengths, or b2
    against b2 +- b1, are within _TIE_MARGIN, when no non-tree edge
    carries a reduced class, or when `_loop_lower_bound` of the forms is
    below the generator ratio (and 1) times the heaviest face; de Pina's
    lighter generator weighs at least the bound, so `classify_cycles`'s
    gate would pass on its basis too. `_mapped` then takes the forms to
    the chosen rows. That the reduced classes are de Pina's, and so the
    mesh is, is a heuristic: the flat lengths only estimate the classes'
    lightest loops, and _TIE_MARGIN is set from the errors seen on the
    tier-1 clouds. A cloud whose estimate errs by more (a strongly
    anisotropic or noisy sampling, say) can take other classes than de
    Pina's and mesh a sheared chart, with every gate still passing.
    """
    ws = _Workspace(graph)
    faces, comp, closed = _short_cycle_basis(ws)
    if len(comp) < 2:
        raise GeneratorClassificationError(
            f"the triangles and chordless squares leave {len(comp)} "
            f"slot(s) in the cycle basis where a torus leaves two: at this "
            f"sampling the neighbour graph has fewer independent loops than "
            f"a torus; sample more points across the cloud's thin "
            f"direction, or check that it is a torus", slots=len(comp))
    A = _coclosed_rows(graph)
    if len(comp) == 2:
        # unit rows on the free coordinates, then the kept faces
        trivial = _sorted_block(ws, faces)
        M = vstack([csr_matrix((np.ones(2), [max(comp[1]), max(comp[0])],
                                [0, 1, 2]), shape=(2, ws.m)),
                    _cycle_rows(graph, trivial)[:, ws.nontree]])
    else:
        basis = classify_cycles(_finish(ws, faces, comp))
        C = _cycle_rows(graph, basis)
        M = C[:, ws.nontree]
    du, dv, theta, psi = _solve_exact(graph, A, M, ws.nontree, closed)
    if len(comp) == 2:
        found = _lattice_generators(ws, trivial, du, dv, theta, psi)
        if found is None:
            log.info("generators by de Pina's rule: the period lattice "
                     "leaves them in doubt")
            found = _mapped(graph, classify_cycles(_finish(ws, faces, comp)),
                            du, dv, theta)
        basis, C, du, dv, theta = found
    return basis, _checked(A, C, du, dv, theta)


def _mapped(graph, basis, du, dv, theta):
    """(basis, C, du, dv, theta): the rows C of `basis`, and the forms and
    theta mapped by det(P) adj(P), P their period matrix on its generator
    rows: P's inverse, or periods det(P)^2 I that the period gate refuses."""
    C = _cycle_rows(graph, basis)
    (a, b), (c, d) = np.rint(C[:2] @ np.column_stack([du, dv])).T
    inverse = (a * d - b * c) * np.array([[d, -b], [-c, a]])
    du, dv = inverse[:, :1] * du + inverse[:, 1:] * dv
    theta = theta[:, :1] * inverse[:, 0] + theta[:, 1:] * inverse[:, 1]
    return basis, C, du, dv, theta


def _lattice_generators(ws, trivial, du, dv, theta, psi):
    """`_mapped` on the period lattice's generators, from the forms solved
    with unit periods on the free coordinates, or None where it leaves them
    in doubt. psi, the solve's integer cocycle, is the class (the periods)
    of each non-tree edge's fundamental cycle."""
    graph, nontree = ws.graph, ws.nontree
    G = _chart_gram(graph, du, dv)
    if not (G[0, 0] > 0 and G[0, 0] * G[1, 1] > G[0, 1] ** 2):
        return None
    b1, b2 = _gauss_reduce(G)

    def length(x):
        return np.sqrt(_form(G, x, x))
    if (length(b2) < (1.0 + _TIE_MARGIN) * length(b1)
            or min(length(b2 - b1), length(b2 + b1))
            < (1.0 + _TIE_MARGIN) * length(b2)):
        return None
    loops = []
    for c in (b1, b2):
        carry = nontree[np.all(psi == c, axis=1) | np.all(psi == -c, axis=1)]
        if not len(carry):
            return None
        lightest = carry[np.argmin(_fundamental_weights(ws, carry))]
        loops.append(_fundamental_loop(ws, lightest))
    found = _mapped(graph, _with_generators(graph, trivial, loops),
                    du, dv, theta)
    heaviest = float(trivial.weights[-1]) if trivial.size else 0.0
    bound = _loop_lower_bound(graph, *found[2:4])
    if bound < max(cycles._GENERATOR_RATIO, 1.0) * heaviest:
        return None
    log.info("generators from the period lattice: classes %s and %s, "
             "loop bound %.6g over the heaviest face %.6g",
             b1.tolist(), b2.tolist(), bound, heaviest)
    return found


def export_residuals_json(path, pair):
    """Residual diagnostics as deterministic JSON."""
    _write_json(path, pair.diagnostics, indent=True)
