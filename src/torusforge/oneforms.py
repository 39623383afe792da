"""Discrete one-form parameterization on a torus graph.

Two one-forms (du, dv) live on graph edges, stored once per undirected
edge with the convention that the value on edge (i, j), i < j, is the
increment seen walking i -> j; walking j -> i sees the negated value.

The solved forms satisfy, per form:
  - co-closedness at every vertex: sum of signed weighted values over
    incident edges is zero,
  - closedness on every trivial basis cycle: signed sum is zero,
  - unit period on one homology generator, zero on the other
    (u pairs with the toroidal generator, v with the poloidal).

The solver enforces the cycle constraints exactly by splitting the form
into an exact part (vertex potential) plus a correction on non-tree
edges, then makes the form co-closed by one weighted-Laplacian solve.
That renders all residuals at machine precision. The grounded Laplacian
is symmetric positive definite, so SuperLU factors it in symmetric mode:
minimum degree on A^T + A and pivots taken from the diagonal (0.61M L+U
entries at 6k points against COLAMD's 1.11M). The correction is zero
on the spanning tree, so the two potentials are the angle map theta:
the forms integrated along the tree from vertex 0. It is the cycle
basis's shortest-path tree, so the basis and the angle map share one.
"""

import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, vstack
from scipy.sparse.linalg import splu

from .cycles import CycleBasis, _Workspace
from .errors import CycleBasisError, ConfigError, ResidualError

log = logging.getLogger("torusforge.oneforms")

_RMS_REL_GATE = 1e-6
_CLOSED_GATE = 1e-6
_PERIOD_GATE = 1e-6


@dataclass
class OneFormSystem:
    graph: object
    matrix: csr_matrix
    rhs_u: np.ndarray
    rhs_v: np.ndarray
    n_coclosed: int
    n_closed: int


@dataclass
class OneFormPair:
    du: np.ndarray
    dv: np.ndarray
    theta: np.ndarray          # (V, 2) angle map, theta[0] = (0, 0)
    diagnostics: dict


def edge_weights(graph, weights="inverse_length"):
    """Edge weight vector of a scheme: 'inverse_length' (default) or
    'uniform'."""
    if isinstance(weights, str) and weights == "inverse_length":
        return 1.0 / graph.lengths
    if isinstance(weights, str) and weights == "uniform":
        return np.ones(graph.edge_count)
    raise ConfigError(f"unknown weight scheme {weights!r}")


def assemble_system(graph, classification, weights="inverse_length"):
    """Build the sparse constraint system for both one-forms.

    Rows: V weighted co-closedness rows, one closedness row per trivial
    cycle, then a toroidal and a poloidal period row. A cycle row has +1
    on each step that runs from the lower vertex id to the higher and -1
    on each step back. A trivial row's sign follows the way its loop
    happens to run; with a zero right-hand side it does not change the
    solution. A generator row's sign follows its Cycle's vertex order
    and sets the sign of its form. Right-hand sides request periods
    (1, 0) for the u-form and (0, 1) for the v-form.
    """
    w = edge_weights(graph, weights)
    V, E = graph.vertex_count, graph.edge_count
    ei, ej = graph.edges[:, 0], graph.edges[:, 1]
    data = np.concatenate([-w, w])
    rows = np.concatenate([ei, ej])
    cols = np.concatenate([np.arange(E), np.arange(E)])
    coclosed = coo_matrix((data, (rows, cols)), shape=(V, E)).tocsr()
    generators = CycleBasis.from_loops(
        graph, [classification.toroidal.vertices,
                classification.poloidal.vertices])
    blocks = [classification.trivial, generators]
    hops = np.concatenate([b.hops for b in blocks])
    steps = np.concatenate([b.edges for b in blocks])
    low_first = np.concatenate([b.vertices for b in blocks]) == ei[steps]
    ncyc = len(hops)
    cycblock = coo_matrix(
        (np.where(low_first, 1.0, -1.0),
         (np.repeat(np.arange(ncyc), hops), steps)),
        shape=(ncyc, E)).tocsr()
    matrix = vstack([coclosed, cycblock]).tocsr()
    rhs_u = np.zeros(V + ncyc)
    rhs_v = np.zeros(V + ncyc)
    rhs_u[-2] = 1.0
    rhs_v[-1] = 1.0
    return OneFormSystem(graph, matrix, rhs_u, rhs_v, V,
                         classification.trivial.size)


def _solve_exact(system):
    """Hard cycle constraints by elimination, then exact co-closedness.

    dx = B pi + psi with psi supported on the edges off the cycle
    basis's shortest-path tree from vertex 0. The cycle rows
    restricted to non-tree coordinates form a square matrix with odd
    determinant (the cycles are a basis over GF(2)), so psi is unique.
    The remaining weighted Laplacian solve makes every co-closedness row
    vanish identically (discrete Hodge decomposition). Returns du, dv
    and the potentials (pi_u, pi_v) as a (V, 2) array: pi[0] = 0, and
    psi is zero on the tree, so pi integrates the forms along it.
    """
    graph = system.graph
    V, E = graph.vertex_count, graph.edge_count
    nontree = _Workspace(graph).nontree
    m = len(nontree)
    ncyc = system.matrix.shape[0] - V
    if ncyc != m:
        raise CycleBasisError(
            f"need {m} independent cycles for exact elimination, got {ncyc}")
    M = system.matrix[V:][:, nontree].tocsc()
    try:
        mlu = splu(M)
    except RuntimeError as exc:
        raise CycleBasisError(f"cycle rows are singular: {exc}") from None
    psi = np.zeros((2, E))
    for k, rhs in enumerate((system.rhs_u, system.rhs_v)):
        psi[k, nontree] = mlu.solve(rhs[V:])
    del M, mlu                        # one factor alive at a time
    A = system.matrix[:V]             # the weighted co-closedness rows, B^T w
    B = A.sign().T                    # w > 0, so A's signs are B^T
    # the grounded Laplacian is symmetric positive definite: a symmetric
    # ordering and diagonal pivots keep its factor near Cholesky's fill
    llu = splu((A @ B)[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A",
               diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    forms, theta = [], np.zeros((V, 2))
    for k in range(2):
        theta[1:, k] = llu.solve(-(A @ psi[k])[1:])
        forms.append(B @ theta[:, k] + psi[k])
    return forms[0], forms[1], theta


def _diagnose(system, dx):
    V = system.n_coclosed
    cc = system.matrix[:V] @ dx
    rms = float(np.sqrt(np.mean(cc ** 2)))
    scale = float(np.median(np.abs(dx)))
    nclosed = system.n_closed
    closed_vals = system.matrix[V:V + nclosed] @ dx
    max_closed = float(np.max(np.abs(closed_vals))) if nclosed else 0.0
    periods = system.matrix[V + nclosed:] @ dx
    return {
        "coclosedness_rms": rms,
        "value_scale": scale,
        "max_trivial_cycle_error": max_closed,
        "periods": [float(p) for p in periods],
    }


def solve_oneforms(system):
    """Solve for both one-forms and verify residual gates.

    Raises ResidualError naming the tripped residual when co-closedness,
    trivial-cycle closedness, or the period matrix is out of tolerance;
    that typically signals misclassified generators or undersampling.
    """
    du, dv, theta = _solve_exact(system)
    diag_u = _diagnose(system, du)
    diag_v = _diagnose(system, dv)
    period_matrix = [diag_u["periods"], diag_v["periods"]]
    period_err = float(np.max(np.abs(np.array(period_matrix) - np.eye(2))))
    diagnostics = {
        "u": diag_u,
        "v": diag_v,
        "period_matrix": period_matrix,
        "period_error": period_err,
    }
    failures = []
    for name, d in (("u", diag_u), ("v", diag_v)):
        gate = _RMS_REL_GATE * max(d["value_scale"], np.finfo(float).tiny)
        if d["coclosedness_rms"] > gate:
            failures.append(
                f"{name}-form co-closedness RMS {d['coclosedness_rms']:.3e} "
                f"exceeds {gate:.3e}")
        if d["max_trivial_cycle_error"] > _CLOSED_GATE:
            failures.append(
                f"{name}-form trivial-cycle closedness "
                f"{d['max_trivial_cycle_error']:.3e} exceeds "
                f"{_CLOSED_GATE:.3e}")
    if period_err > _PERIOD_GATE:
        failures.append(
            f"period matrix error {period_err:.3e} exceeds {_PERIOD_GATE:.3e}")
    if failures:
        raise ResidualError("; ".join(failures), diagnostics)
    log.info("one-forms solved: cc rms %.2e/%.2e, period err %.2e",
             diag_u["coclosedness_rms"], diag_v["coclosedness_rms"],
             period_err)
    return OneFormPair(du, dv, theta, diagnostics)


def export_residuals_json(path, pair):
    """Residual diagnostics as deterministic JSON."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(pair.diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
