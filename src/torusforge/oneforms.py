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
That renders all residuals at machine precision.
"""

import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, vstack
from scipy.sparse.linalg import splu

from .cycles import CycleBasis
from .errors import CycleBasisError, ConfigError, ResidualError
from .knn import _bfs_tree

log = logging.getLogger("torusforge.oneforms")

_RMS_REL_GATE = 1e-6
_CLOSED_GATE = 1e-6
_PERIOD_GATE = 1e-6


@dataclass
class OneFormSystem:
    graph: object
    weights: np.ndarray
    classification: object
    matrix: csr_matrix
    rhs_u: np.ndarray
    rhs_v: np.ndarray
    n_coclosed: int
    n_closed: int
    n_period: int


@dataclass
class OneFormPair:
    du: np.ndarray
    dv: np.ndarray
    diagnostics: dict


def edge_weights(graph, weights=None):
    """Materialize an edge weight vector: uniform (default),
    'inverse_length', or an explicit positive array."""
    E = graph.edge_count
    if weights is None or (isinstance(weights, str) and weights == "uniform"):
        return np.ones(E)
    if isinstance(weights, str):
        if weights == "inverse_length":
            return 1.0 / graph.lengths
        raise ConfigError(f"unknown weight scheme {weights!r}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (E,) or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ConfigError("edge weights must be E positive finite values")
    return w


def assemble_system(graph, basis, classification=None, weights=None):
    """Build the sparse constraint system for both one-forms.

    Rows: V weighted co-closedness rows, one closedness row per trivial
    cycle, then (when a classification is given) a toroidal and a
    poloidal period row. Without a classification every basis cycle
    gets a closedness row. A cycle row has +1 on each step that runs from
    the lower vertex id to the higher and -1 on each step back. A trivial
    row's sign follows the way its loop happens to run; with a zero
    right-hand side it does not change the solution. A generator row's
    sign follows its Cycle's vertex order and sets the sign of its form.
    Right-hand sides request periods (1, 0) for the u-form and (0, 1) for
    the v-form.
    """
    w = edge_weights(graph, weights)
    V, E = graph.vertex_count, graph.edge_count
    ei, ej = graph.edges[:, 0], graph.edges[:, 1]
    data = np.concatenate([-w, w])
    rows = np.concatenate([ei, ej])
    cols = np.concatenate([np.arange(E), np.arange(E)])
    coclosed = coo_matrix((data, (rows, cols)), shape=(V, E)).tocsr()
    if classification is None:
        blocks = [basis]
    else:
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
    n_period = ncyc - blocks[0].size
    if n_period:
        rhs_u[V + ncyc - 2] = 1.0
        rhs_v[V + ncyc - 1] = 1.0
    return OneFormSystem(graph, w, classification, matrix, rhs_u, rhs_v,
                         V, blocks[0].size, n_period)


def _solve_exact(system):
    """Hard cycle constraints by elimination, then exact co-closedness.

    dx = B pi + psi with psi supported on non-tree edges. The cycle rows
    restricted to non-tree coordinates form a square matrix with odd
    determinant (the cycles are a basis over GF(2)), so psi is unique.
    The remaining weighted Laplacian solve makes every co-closedness row
    vanish identically (discrete Hodge decomposition).
    """
    graph, w = system.graph, system.weights
    V, E = graph.vertex_count, graph.edge_count
    _, _, tree_edge = _bfs_tree(graph)
    nontree = np.setdiff1d(np.arange(E), tree_edge)
    m = len(nontree)
    ncyc = system.n_closed + system.n_period
    if ncyc != m:
        raise CycleBasisError(
            f"need {m} independent cycles for exact elimination, got {ncyc}")
    M = system.matrix[V:][:, nontree].tocsc()
    cyc_rhs_u = system.rhs_u[V:]
    cyc_rhs_v = system.rhs_v[V:]
    try:
        mlu = splu(M)
    except RuntimeError as exc:
        raise CycleBasisError(f"cycle rows are singular: {exc}") from None
    psi_u = np.zeros(E)
    psi_v = np.zeros(E)
    psi_u[nontree] = mlu.solve(cyc_rhs_u)
    psi_v[nontree] = mlu.solve(cyc_rhs_v)
    ei, ej = graph.edges[:, 0], graph.edges[:, 1]
    B = coo_matrix(
        (np.concatenate([-np.ones(E), np.ones(E)]),
         (np.concatenate([np.arange(E), np.arange(E)]),
          np.concatenate([ei, ej]))),
        shape=(E, V)).tocsr()
    A = (B.T
         .multiply(w[None, :])
         .tocsr())
    L = (A @ B).tocsc()
    red = L[1:, :][:, 1:].tocsc()
    llu = splu(red)
    out = []
    for psi in (psi_u, psi_v):
        rhs = -(A @ psi)
        pi = np.zeros(V)
        pi[1:] = llu.solve(rhs[1:])
        out.append(B @ pi + psi)
    return out[0], out[1]


def _diagnose(system, dx):
    graph, w = system.graph, system.weights
    V = graph.vertex_count
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
    du, dv = _solve_exact(system)
    diag_u = _diagnose(system, du)
    diag_v = _diagnose(system, dv)
    has_periods = system.n_period == 2
    if has_periods:
        period_matrix = [
            [diag_u["periods"][-2], diag_u["periods"][-1]],
            [diag_v["periods"][-2], diag_v["periods"][-1]],
        ]
        target = np.eye(2)
        period_err = float(np.max(np.abs(np.array(period_matrix) - target)))
    else:
        period_matrix = []
        period_err = 0.0
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
    if has_periods and period_err > _PERIOD_GATE:
        failures.append(
            f"period matrix error {period_err:.3e} exceeds {_PERIOD_GATE:.3e}")
    if failures:
        raise ResidualError("; ".join(failures), diagnostics)
    log.info("one-forms solved: cc rms %.2e/%.2e, period err %.2e",
             diag_u["coclosedness_rms"], diag_v["coclosedness_rms"],
             period_err)
    return OneFormPair(du, dv, diagnostics)


def export_residuals_json(path, pair):
    """Residual diagnostics as deterministic JSON."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(pair.diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
