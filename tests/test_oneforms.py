"""Harmonic one-forms: grid solutions with known closed forms, residual
gates, a dense least-squares cross-check, cycle rows against a per-edge
reference, and period integrality."""

import json
from collections import deque

import numpy as np
import pytest

from conftest import manual_grid_classification, periodic_grid
from reference_cycles import minimum_cycle_basis, neighbor_rows
from torusforge.cycles import Classification, CycleBasis, _Workspace, \
    classify_cycles
from torusforge.errors import ResidualError
from torusforge.knn import NeighborGraph
from torusforge.oneforms import _cycle_rows, export_residuals_json, \
    solve_oneforms


def coclosed_reference(graph):
    """Dense co-closedness block, one edge at a time: edge (i, j), i < j,
    puts -1/length in row i and +1/length in row j."""
    rows = np.zeros((graph.vertex_count, graph.edge_count))
    for e, ((i, j), length) in enumerate(zip(graph.edges.tolist(),
                                             graph.lengths.tolist())):
        rows[i, e] -= 1.0 / length
        rows[j, e] += 1.0 / length
    return rows


def dense_system(graph, classification):
    """The co-closedness block over the cycle rows, with the right-hand
    sides that ask the u-form for periods (1, 0) and the v-form for
    (0, 1)."""
    matrix = np.vstack([coclosed_reference(graph),
                        _cycle_rows(graph, classification).toarray()])
    rhs = np.zeros((len(matrix), 2))
    rhs[-2:] = np.eye(2)
    return matrix, rhs


def test_system_row_counts(grid5_forms):
    """24 trivial rows and 2 period rows over the 50 edges; with the 25
    vertex balance rows, one more row than unknowns."""
    graph, cls = grid5_forms.graph, grid5_forms.classification
    assert cls.trivial.size == 24
    assert _cycle_rows(graph, cls).shape == (26, 50)
    matrix, rhs = dense_system(graph, cls)
    assert matrix.shape == (51, 50) and rhs.shape == (51, 2)


def test_grid5_forms_are_the_flat_parameterization(grid5_forms):
    """On the uniform 5x5 grid the harmonic forms are constant along the
    two lattice directions: every edge carries (1/5, 0) or (0, 1/5) up to
    sign, 25 of each."""
    forms = grid5_forms.forms
    au = np.abs(forms.du)
    av = np.abs(forms.dv)
    u_edges = au > 1e-9
    assert int(u_edges.sum()) == 25
    assert np.max(np.abs(au[u_edges] - 0.2)) < 1e-12
    assert np.max(av[u_edges]) < 1e-12
    v_edges = av > 1e-9
    assert int(v_edges.sum()) == 25
    assert np.max(np.abs(av[v_edges] - 0.2)) < 1e-12
    assert np.max(au[v_edges]) < 1e-12


def test_grid5_residual_diagnostics(grid5_forms):
    d = grid5_forms.forms.diagnostics
    for key in ("u", "v"):
        assert d[key]["coclosedness_rms"] < 1e-13
        assert d[key]["max_trivial_cycle_error"] < 1e-12
        # median |value| over 25 zero and 25 one-fifth edges
        assert d[key]["value_scale"] == pytest.approx(0.1, abs=1e-12)
    assert np.allclose(d["period_matrix"], np.eye(2), atol=1e-12)
    assert d["period_error"] < 1e-12


def test_grid3_manual_classification_solution(grid3_manual_forms):
    # same flat structure at period 1/3 once the homology split is given
    forms = grid3_manual_forms.forms
    values = {round(x, 12) for x in np.concatenate([forms.du, forms.dv])}
    assert values == {round(v, 12) for v in (-1 / 3, 0.0, 1 / 3)}
    assert np.allclose(forms.diagnostics["period_matrix"], np.eye(2),
                       atol=1e-12)


def test_exact_solver_matches_dense_lstsq(grid5_forms):
    """The system has full column rank and is consistent, so dense least
    squares over all its rows finds the same forms."""
    dense, rhs = dense_system(grid5_forms.graph, grid5_forms.classification)
    assert np.linalg.matrix_rank(dense) == dense.shape[1]
    for k, form in enumerate((grid5_forms.forms.du, grid5_forms.forms.dv)):
        ref = np.linalg.lstsq(dense, rhs[:, k], rcond=None)[0]
        assert np.max(np.abs(ref - form)) < 1e-12


def test_inconsistent_trivial_row_trips_closedness_gate():
    """A trivial row that is not a loop still makes a basis, and the solve
    meets it exactly, but a potential's gradient does not sum to zero
    along it, so the closedness gate of each form it breaks trips. The
    square 0-1-6-5 closing on edge (1, 2) breaks both forms by 0.2; on
    the poloidal edge (0, 20) it breaks the v-form alone, by 0.4."""
    graph = periodic_grid(5)
    cls = manual_grid_classification(graph, 5, 5)
    trivial = cls.trivial
    lo, hi = trivial.indptr[0], trivial.indptr[1]
    assert trivial.vertices[lo:hi].tolist() == [0, 1, 6, 5]
    assert graph.edges[trivial.edges[hi - 1]].tolist() == [0, 5]
    for (i, j), errors in (((1, 2), {"u": 0.2, "v": 0.2}),
                           ((0, 20), {"u": 0.0, "v": 0.4})):
        edges = trivial.edges.copy()
        edges[hi - 1] = graph.edge_ids([i], [j])[0]
        broken = CycleBasis(trivial.vertex_count, trivial.indptr,
                            trivial.vertices, edges, trivial.weights)
        with pytest.raises(ResidualError) as err:
            solve_oneforms(graph, Classification(
                broken, poloidal=cls.poloidal, toroidal=cls.toroidal))
        d = err.value.diagnostics
        for key, error in errors.items():
            assert d[key]["max_trivial_cycle_error"] == pytest.approx(
                error, abs=1e-12)
            assert (f"{key}-form trivial-cycle" in str(err.value)) == (
                error > 0)
        assert d["period_error"] < 1e-12


def cycle_row_reference(index, cycle):
    """Per-edge reference for one cycle row: +1 on edges walked low->high,
    -1 on edges walked back. index maps (i, j), i < j, to edge ids."""
    v = cycle.vertices.tolist()
    return {index[min(a, b), max(a, b)]: (1.0 if a < b else -1.0)
            for a, b in zip(v, v[1:] + v[:1])}


def test_cycle_rows_match_per_edge_reference(torus_bundle):
    """Generator rows equal the per-edge reference exactly; a trivial row
    equals it up to one sign, set by the way its loop runs."""
    graph, cls = torus_bundle.graph, torus_bundle.classification
    index = {(i, j): e for e, (i, j) in enumerate(graph.edges.tolist())}
    rows = _cycle_rows(graph, cls)
    k = cls.trivial.size
    assert rows.shape[0] == k + 2
    generators = {k: cls.toroidal, k + 1: cls.poloidal}
    for r in range(k + 2):
        lo, hi = rows.indptr[r], rows.indptr[r + 1]
        got = dict(zip(rows.indices[lo:hi].tolist(),
                       rows.data[lo:hi].tolist()))
        if r in generators:
            assert got == cycle_row_reference(index, generators[r])
        else:
            want = cycle_row_reference(index, cls.trivial.cycle(r))
            sign = got[rows.indices[lo]] * want[rows.indices[lo]]
            assert got == {e: sign * x for e, x in want.items()}


def test_uniform_weight_scaling_invariance(grid5_forms):
    """Lengths scaled by 1/3.7 scale every inverse-length weight by 3.7,
    which leaves the forms as they are."""
    graph = grid5_forms.graph
    scaled = NeighborGraph.from_edges(graph.vertex_count, graph.edges,
                                      graph.lengths / 3.7)
    pair = solve_oneforms(scaled, grid5_forms.classification)
    assert np.max(np.abs(pair.du - grid5_forms.forms.du)) < 1e-12
    assert np.max(np.abs(pair.dv - grid5_forms.forms.dv)) < 1e-12


def tree_potentials(graph, forms):
    """Integrate both forms over a BFS spanning tree from vertex 0."""
    n = graph.vertex_count
    pot = np.full((n, 2), np.nan)
    pot[0] = 0.0
    tree = set()
    queue = deque([0])
    adjacency = neighbor_rows(graph)
    while queue:
        u = queue.popleft()
        for nb in adjacency[u]:
            nb = int(nb)
            if not np.isnan(pot[nb, 0]):
                continue
            e = int(graph.edge_ids([u], [nb])[0])
            s = 1.0 if u < nb else -1.0
            pot[nb, 0] = pot[u, 0] + s * forms.du[e]
            pot[nb, 1] = pot[u, 1] + s * forms.dv[e]
            tree.add(e)
            queue.append(nb)
    return pot, tree


def test_closed_forms_have_integer_windings(torus_bundle):
    """Summing a closed one-form around any fundamental cycle gives the
    cycle's winding number, an exact integer up to round-off; the solve's
    angle map is the tree integral up to integers, and starts at 0."""
    graph, forms = torus_bundle.graph, torus_bundle.forms
    pot, tree = tree_potentials(graph, forms)
    off = pot - forms.theta
    assert np.max(np.abs(off - np.round(off))) < 1e-12
    assert forms.theta[0].tolist() == [0.0, 0.0]
    nontree = [e for e in range(graph.edge_count) if e not in tree]
    rng = np.random.default_rng(42)
    sample = rng.choice(len(nontree), size=200, replace=False)
    windings = []
    for idx in sample:
        e = nontree[idx]
        i, j = graph.edges[e]
        w_u = pot[i, 0] + forms.du[e] - pot[j, 0]
        w_v = pot[i, 1] + forms.dv[e] - pot[j, 1]
        windings.append((w_u, w_v))
    windings = np.array(windings)
    assert np.max(np.abs(windings - np.round(windings))) < 1e-9
    # the sample crosses each period seam at least once
    assert np.any(np.abs(np.round(windings)) > 0)


@pytest.mark.parametrize("bundle", ["torus_bundle", "random_torus_bundle",
                                    "stdmap_bundle", "cm_bundle"])
def test_angle_map_integrates_the_forms_on_the_basis_tree(bundle, request):
    """The solve and the cycle basis share one tree: on every edge of the
    basis's shortest-path tree, theta_j - theta_i is the form's value,
    not that value plus a period."""
    b = request.getfixturevalue(bundle)
    graph = b.graph
    tree = np.setdiff1d(np.arange(graph.edge_count),
                        _Workspace(graph).nontree)
    ei, ej = graph.edges[tree].T
    gap = (b.forms.theta[ej] - b.forms.theta[ei]
           - np.column_stack([b.forms.du, b.forms.dv])[tree])
    assert np.max(np.abs(gap)) < 1e-12


def test_pipeline_forms_pass_gates(torus_bundle):
    """The gates pass, and the forms are co-closed under inverse-length
    weights summed edge by edge, not only under the solve's own rows."""
    graph, forms = torus_bundle.graph, torus_bundle.forms
    d = forms.diagnostics
    for key, form in (("u", forms.du), ("v", forms.dv)):
        assert d[key]["coclosedness_rms"] < 1e-6 * d[key]["value_scale"]
        assert d[key]["max_trivial_cycle_error"] < 1e-6
        balance = np.zeros(graph.vertex_count)
        np.add.at(balance, graph.edges[:, 0], -form / graph.lengths)
        np.add.at(balance, graph.edges[:, 1], form / graph.lengths)
        assert np.sqrt(np.mean(balance ** 2)) < 1e-6 * d[key]["value_scale"]
    assert d["period_error"] < 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="the automatic chain cannot parameterize the 3x3 grid: its "
           "homology generators weigh no more than the squares, so "
           "classification refuses the split before any solve happens")
def test_grid3_periods_via_automatic_chain():
    graph = periodic_grid(3)
    basis = minimum_cycle_basis(graph)
    cls = classify_cycles(basis)
    forms = solve_oneforms(graph, cls)
    assert np.allclose(forms.diagnostics["period_matrix"], np.eye(2))


def test_export_residuals_json(tmp_path, grid5_forms):
    path = tmp_path / "residuals.json"
    export_residuals_json(path, grid5_forms.forms)
    payload = json.loads(path.read_text())
    assert set(payload) == {"u", "v", "period_matrix", "period_error"}
    assert set(payload["u"]) == {"coclosedness_rms", "value_scale",
                                 "max_trivial_cycle_error", "periods"}
    assert payload["period_error"] < 1e-12


def test_manual_classification_matches_docstring_sign_convention():
    """The stored value on edge (i, j) with i < j is the increment seen
    walking i -> j; integrating row 0 forward accumulates period 1."""
    graph = periodic_grid(4)
    cls = manual_grid_classification(graph, 4, 4)
    forms = solve_oneforms(graph, cls)
    total = 0.0
    v = cls.toroidal.vertices.tolist()
    for a, b in zip(v, v[1:] + v[:1]):
        e = int(graph.edge_ids([a], [b])[0])
        total += forms.du[e] if a < b else -forms.du[e]
    assert total == pytest.approx(1.0, abs=1e-12)
