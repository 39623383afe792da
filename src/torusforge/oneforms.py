"""Discrete one-form parameterization on a torus graph.

Two one-forms (du, dv) live on graph edges, stored once per undirected
edge with the convention that the value on edge (i, j), i < j, is the
increment seen walking i -> j; walking j -> i sees the negated value.

The solved forms satisfy, per form:
  - co-closedness at every vertex (rows A): sum of signed weighted
    values over incident edges is zero,
  - closedness on every trivial basis cycle (rows C[:-2]): signed sum
    is zero,
  - unit period on one homology generator, zero on the other (rows
    C[-2:]; u pairs with the toroidal generator, v with the poloidal).

The solver enforces the cycle constraints exactly by splitting the form
into an exact part (vertex potential) plus a correction on non-tree
edges, then makes the form co-closed by one weighted-Laplacian solve.
That renders all residuals at machine precision. The grounded Laplacian
L is symmetric positive definite, so SuperLU factors it in symmetric
mode: minimum degree on L^T + L and pivots taken from the diagonal (0.61M
L+U entries at 6k points against COLAMD's 1.11M). The correction is zero
on the spanning tree, so the two potentials are the angle map theta:
the forms integrated along the tree from vertex 0. It is the cycle
basis's shortest-path tree, so the basis and the angle map share one.
"""

import json
import logging
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .cycles import CycleBasis, _Workspace
from .errors import CycleBasisError, ResidualError

log = logging.getLogger("torusforge.oneforms")

_RMS_REL_GATE = 1e-6
_CLOSED_GATE = 1e-6
_PERIOD_GATE = 1e-6


@dataclass
class OneFormPair:
    du: np.ndarray
    dv: np.ndarray
    theta: np.ndarray          # (V, 2) angle map, theta[0] = (0, 0)
    diagnostics: dict


def _cycle_rows(graph, classification):
    """C: the trivial rows, then the toroidal and poloidal rows. A row has
    +1 on each step from the lower vertex id to the higher, -1 on each
    step back. A trivial row's sign follows the way its loop runs, which
    a zero right-hand side makes moot; a generator row's sign follows its
    Cycle's vertex order and sets the sign of its form."""
    generators = CycleBasis.from_loops(
        graph, [classification.toroidal.vertices,
                classification.poloidal.vertices])
    blocks = [classification.trivial, generators]
    hops = np.concatenate([b.hops for b in blocks])
    steps = np.concatenate([b.edges for b in blocks])
    low_first = (np.concatenate([b.vertices for b in blocks])
                 == graph.edges[steps, 0])
    return coo_matrix(
        (np.where(low_first, 1.0, -1.0),
         (np.repeat(np.arange(len(hops)), hops), steps)),
        shape=(len(hops), graph.edge_count)).tocsr()


def _solve_exact(graph, A, C):
    """Hard cycle constraints by elimination, then exact co-closedness.

    dx = B pi + psi with psi supported on the edges off the cycle
    basis's shortest-path tree from vertex 0. C restricted to non-tree
    coordinates is square with odd determinant (the cycles are a basis
    over GF(2)), so psi is unique. The remaining weighted Laplacian
    solve makes A dx vanish identically (discrete Hodge decomposition).
    Returns du, dv and the potentials (pi_u, pi_v) as a (V, 2) array:
    pi[0] = 0, and psi is zero on the tree, so pi integrates the forms
    along it.
    """
    V, E = graph.vertex_count, graph.edge_count
    nontree = _Workspace(graph).nontree
    m = len(nontree)
    if C.shape[0] != m:
        raise CycleBasisError(f"need {m} independent cycles for exact "
                              f"elimination, got {C.shape[0]}")
    B = A.sign().T                    # w > 0, so A's signs are B^T
    L = (A @ B)[1:, 1:].tocsc()       # the Laplacian grounded at vertex 0
    try:
        mlu = splu(C[:, nontree].tocsc())
    except RuntimeError as exc:
        raise CycleBasisError(f"cycle rows are singular: {exc}") from None
    psi = np.zeros((2, E))
    for k in range(2):                # periods (1, 0) and (0, 1)
        psi[k, nontree] = mlu.solve(np.eye(1, m, m - 2 + k)[0])
    del mlu                           # one factor alive at a time
    # L is symmetric positive definite: a symmetric ordering and
    # diagonal pivots keep its factor near Cholesky's fill
    llu = splu(L, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               options={"SymmetricMode": True})
    forms, theta = [], np.zeros((V, 2))
    for k in range(2):
        theta[1:, k] = llu.solve(-(A @ psi[k])[1:])
        forms.append(B @ theta[:, k] + psi[k])
    return forms[0], forms[1], theta


def _diagnose(A, C, dx):
    return {
        "coclosedness_rms": float(np.sqrt(np.mean((A @ dx) ** 2))),
        "value_scale": float(np.median(np.abs(dx))),
        "max_trivial_cycle_error": float(
            np.max(np.abs(C[:-2] @ dx), initial=0.0)),
        "periods": [float(p) for p in C[-2:] @ dx],
    }


def solve_oneforms(graph, classification):
    """Solve for both one-forms and verify residual gates.

    Raises ResidualError naming the tripped residual when co-closedness,
    trivial-cycle closedness, or the period matrix is out of tolerance;
    that typically signals misclassified generators or undersampling.
    """
    w = 1.0 / graph.lengths           # edge (i, j): -w at i, +w at j
    A = coo_matrix((np.concatenate([-w, w]),
                    (graph.edges.T.reshape(-1),
                     np.tile(np.arange(graph.edge_count), 2))),
                   shape=(graph.vertex_count, graph.edge_count)).tocsr()
    C = _cycle_rows(graph, classification)
    du, dv, theta = _solve_exact(graph, A, C)
    diag_u = _diagnose(A, C, du)
    diag_v = _diagnose(A, C, dv)
    period_matrix = [diag_u["periods"], diag_v["periods"]]
    period_err = float(np.max(np.abs(np.array(period_matrix) - np.eye(2))))
    diagnostics = {"u": diag_u, "v": diag_v, "period_matrix": period_matrix,
                   "period_error": period_err}
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
