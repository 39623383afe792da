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

The default solver enforces the cycle constraints exactly by splitting
the form into an exact part (vertex potential) plus a correction on
non-tree edges, then makes the form co-closed by one weighted-Laplacian
solve. That renders all residuals at machine precision. A penalty-based
least-squares mode is kept for cross-checking.
"""

import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags, vstack
from scipy.sparse.linalg import lsqr, splu

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
    cycles_in_rows: list
    n_coclosed: int
    n_closed: int
    n_period: int

    @property
    def row_count(self):
        return self.matrix.shape[0]

    @property
    def col_count(self):
        return self.matrix.shape[1]


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


def _cycle_row(graph, cycle):
    """Signed sparse row of a cycle: +1 on edges walked low->high."""
    cols, vals = [], []
    for a, b in cycle.oriented_pairs():
        e = graph.edge_index[(a, b) if a < b else (b, a)]
        cols.append(e)
        vals.append(1.0 if a < b else -1.0)
    return cols, vals


def assemble_system(graph, basis, classification=None, weights=None):
    """Build the sparse constraint system for both one-forms.

    Rows: V weighted co-closedness rows, one closedness row per trivial
    cycle, then (when a classification is given) a toroidal and a
    poloidal period row. Right-hand sides request periods (1, 0) for the
    u-form and (0, 1) for the v-form.
    """
    w = edge_weights(graph, weights)
    V, E = graph.vertex_count, graph.edge_count
    ei, ej = graph.edges[:, 0], graph.edges[:, 1]
    data = np.concatenate([-w, w])
    rows = np.concatenate([ei, ej])
    cols = np.concatenate([np.arange(E), np.arange(E)])
    coclosed = coo_matrix((data, (rows, cols)), shape=(V, E)).tocsr()
    if classification is not None:
        trivial = list(classification.trivial)
        tail = [classification.toroidal, classification.poloidal]
    else:
        trivial = list(basis.cycles)
        tail = []
    cyc_rows, cyc_cols, cyc_vals = [], [], []
    for rix, cyc in enumerate(trivial + tail):
        cols_c, vals_c = _cycle_row(graph, cyc)
        cyc_rows.extend([rix] * len(cols_c))
        cyc_cols.extend(cols_c)
        cyc_vals.extend(vals_c)
    ncyc = len(trivial) + len(tail)
    cycblock = coo_matrix((cyc_vals, (cyc_rows, cyc_cols)),
                          shape=(ncyc, E)).tocsr()
    matrix = vstack([coclosed, cycblock]).tocsr()
    rhs_u = np.zeros(V + ncyc)
    rhs_v = np.zeros(V + ncyc)
    if tail:
        rhs_u[V + ncyc - 2] = 1.0
        rhs_v[V + ncyc - 1] = 1.0
    return OneFormSystem(graph, w, classification, matrix, rhs_u, rhs_v,
                         trivial + tail, V, len(trivial), len(tail))


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
    ncyc = len(system.cycles_in_rows)
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


def _solve_penalty(system, penalty=1e6):
    """Least squares with period/closedness rows inflated by `penalty`
    relative to the co-closedness block. Numerically inferior to the
    exact path; retained as an independent cross-check."""
    V = system.graph.vertex_count
    scale = np.ones(system.row_count)
    scale[V:] = penalty
    A = diags(scale) @ system.matrix
    out = []
    for rhs in (system.rhs_u, system.rhs_v):
        res = lsqr(A, scale * rhs, atol=1e-14, btol=1e-14,
                   iter_lim=20 * system.col_count)
        out.append(res[0])
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


def solve_oneforms(system, method="exact", penalty=1e6,
                   rms_rel_gate=_RMS_REL_GATE, closed_gate=_CLOSED_GATE,
                   period_gate=_PERIOD_GATE):
    """Solve for both one-forms and verify residual gates.

    Raises ResidualError naming the tripped residual when co-closedness,
    trivial-cycle closedness, or the period matrix is out of tolerance;
    that typically signals misclassified generators or undersampling.
    """
    if method == "exact":
        du, dv = _solve_exact(system)
    elif method == "penalty":
        du, dv = _solve_penalty(system, penalty)
    else:
        raise ConfigError(f"unknown solve method {method!r}")
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
        "method": method,
    }
    failures = []
    for name, d in (("u", diag_u), ("v", diag_v)):
        gate = rms_rel_gate * max(d["value_scale"], np.finfo(float).tiny)
        if d["coclosedness_rms"] > gate:
            failures.append(
                f"{name}-form co-closedness RMS {d['coclosedness_rms']:.3e} "
                f"exceeds {gate:.3e}")
        if d["max_trivial_cycle_error"] > closed_gate:
            failures.append(
                f"{name}-form trivial-cycle closedness "
                f"{d['max_trivial_cycle_error']:.3e} exceeds {closed_gate:.3e}")
    if has_periods and period_err > period_gate:
        failures.append(
            f"period matrix error {period_err:.3e} exceeds {period_gate:.3e}")
    if failures:
        raise ResidualError("; ".join(failures), diagnostics)
    log.info("one-forms solved (%s): cc rms %.2e/%.2e, period err %.2e",
             method, diag_u["coclosedness_rms"], diag_v["coclosedness_rms"],
             period_err)
    return OneFormPair(du, dv, diagnostics)


def export_residuals_json(path, pair):
    """Residual diagnostics as deterministic JSON."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(pair.diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
