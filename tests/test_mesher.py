"""Flat-torus meshing: the angle map's integer-period certificate, the
periodic Delaunay triangulation with its brute-force certificate and
its full-copy reference, the safety gates, the robustness clouds, and
mesh validation."""

import json

import numpy as np
import pytest
from scipy.spatial import Delaunay

from conftest import (EARTH_MOON_MU, brute_force_delaunay_check,
                      build_pipeline, periodic_grid, unwrapped_corners)
from reference_cycles import minimum_cycle_basis
from torusforge import cr3bp
from torusforge.cycles import classify_cycles
from torusforge.errors import MeshValidationError, ResidualError
from torusforge.knn import NeighborGraph
from torusforge import mesher
from torusforge.mesher import (_periodic_delaunay, export_mesh_json,
                               load_mesh_json, mesh_flat_torus, validate_mesh)
from torusforge.oneforms import OneFormPair, assemble_system, solve_oneforms
from torusforge.samplers import (PointCloud, sample_center_manifold_torus,
                                 sample_torus_revolution)


@pytest.fixture(scope="module")
def grid8_forms():
    graph = periodic_grid(8)
    basis = minimum_cycle_basis(graph)
    forms = solve_oneforms(assemble_system(graph, basis,
                                           classify_cycles(basis)))
    return graph, forms


def flat_torus_graph(rows=12, seed=0):
    """Jittered rows x rows grid on the unit flat torus with its periodic
    grid edges; the one-forms are the minimum-image angle increments."""
    rng = np.random.default_rng(seed)
    ij = np.indices((rows, rows)).reshape(2, -1).T
    theta = (ij + rng.uniform(-0.2, 0.2, ij.shape)) / rows
    edges = periodic_grid(rows).edges
    inc = theta[edges[:, 1]] - theta[edges[:, 0]]
    inc -= np.round(inc)
    graph = NeighborGraph.from_edges(rows * rows, edges, np.hypot(*inc.T))
    return graph, OneFormPair(inc[:, 0].copy(), inc[:, 1].copy(), {})


def test_flat_torus_mesh_certifies_integer_periods():
    graph, forms = flat_torus_graph()
    mesh = mesh_flat_torus(graph, forms, None)
    assert mesh.report["problems"] == []
    assert mesh.report["vertices"] == 144
    assert mesh.report["faces"] == 288
    assert mesh.report["period_defect_max"] < 1e-12


def test_period_defect_raises_residual_error():
    graph, forms = flat_torus_graph()
    forms.du[5] += 0.01
    with pytest.raises(ResidualError) as err:
        mesh_flat_torus(graph, forms, None)
    defect = err.value.diagnostics["period_defect_max"]
    assert defect == pytest.approx(0.01, abs=1e-9)


def test_point_missing_from_mesh_fails_validation():
    """A vertex whose angle equals another's is a duplicate chart point;
    Qhull drops it, and the mesh must not pass without it."""
    graph, forms = flat_torus_graph()
    edges = np.vstack([graph.edges, [[0, 144]]])
    twin = NeighborGraph.from_edges(145, edges,
                                    np.append(graph.lengths, 1e-3))
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    du = np.append(forms.du, 0.0)[order]
    dv = np.append(forms.dv, 0.0)[order]
    with pytest.raises(MeshValidationError, match="missing from the mesh"):
        mesh_flat_torus(twin, OneFormPair(du, dv, {}), None)


def test_mesh_edge_across_period_seam_rejected():
    """Adding a whole period to an edge's increment keeps the periods
    integer, but the edge then spans a seam and must not be meshed."""
    graph, forms = flat_torus_graph()
    mesh = mesh_flat_torus(graph, forms, None)
    tri = mesh.triangles[0]
    e = int(graph.edge_ids(tri[:1], tri[1:2])[0])
    forms.du[e] += 1.0
    graph.lengths[e] = np.hypot(forms.du[e], forms.dv[e])
    with pytest.raises(MeshValidationError, match="period seam"):
        mesh_flat_torus(graph, forms, None)


def test_exact_lattice_fails_validation(grid5_forms, grid8_forms):
    """Unjittered lattices are all cocircular ties: Qhull breaks them
    differently in different periodic copies, so the mesh must fail
    loudly rather than pass."""
    for graph, forms in ((grid5_forms.graph, grid5_forms.forms),
                         grid8_forms):
        with pytest.raises(MeshValidationError):
            mesh_flat_torus(graph, forms, None)


@pytest.mark.parametrize("seed", range(5))
def test_triangulation_passes_empty_circumcircle_oracle(seed):
    rng = np.random.default_rng(seed)
    uv = rng.random((200, 2))
    tris, dropped = _periodic_delaunay(uv, (1.0, 1.0))
    assert len(dropped) == 0
    # a closed torus triangulation has F = 2V
    assert len(tris) == 400
    assert validate_mesh(tris, strict=False)["problems"] == []
    for tri in tris:
        # counterclockwise winding in the chart, smallest id first
        a, b, c = unwrapped_corners(uv, tri)
        assert (b[0] - a[0]) * (c[1] - a[1]) > (c[0] - a[0]) * (b[1] - a[1])
        assert tri[0] == min(tri)
    assert np.array_equal(tris, np.unique(tris, axis=0))
    assert brute_force_delaunay_check(uv, tris) == 0


def test_triangulation_empty_cases():
    """Any triangulation of the torus needs at least 7 vertices, so
    sparser clouds must fail validation, never pass."""
    for n in range(1, 7):
        for seed in range(3):
            uv = np.random.default_rng(seed).random((n, 2))
            tris, _ = _periodic_delaunay(uv, (1.0, 1.0))
            assert validate_mesh(tris, strict=False)["problems"], (n, seed)


def periodic_delaunay_full_copy(points, period):
    """One Qhull run on the whole 3x3 periodic copy of the points."""
    n = len(points)
    shifts = np.array([(0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1),
                       (1, -1), (1, 0), (1, 1)]) * np.asarray(period)
    lifted = (points[None, :, :] + shifts[:, None, :]).reshape(-1, 2)
    dela = Delaunay(lifted)
    simp = dela.simplices[np.any(dela.simplices < n, axis=1)] % n
    lead = np.argmin(simp, axis=1)[:, None]
    simp = np.take_along_axis(simp, (lead + np.arange(3)) % 3, axis=1)
    dropped = np.unique(dela.coplanar[:, 0] % n)
    return np.unique(simp, axis=0), dropped


def empty_disk_cloud(seed, n, period, centre, radius):
    """n uniform points on the box, none within radius of centre on the
    flat torus."""
    period = np.asarray(period)
    uv = np.random.default_rng(seed).random((3 * n, 2)) * period
    off = np.mod(uv - centre + period / 2, period) - period / 2
    return uv[np.hypot(off[:, 0], off[:, 1]) > radius][:n], tuple(period)


def strip_cloud():
    """A jittered 11 x 50 lattice filling 0.3 <= y <= 0.5 of the unit
    box, its first and last rows straight. The gap above the strip is
    wider than the first margin, so the rows' points lie on the hull of
    the padded set while every kept circumdisk fits inside the padded
    box: only the hull check can make the margin grow."""
    k, j = np.divmod(np.arange(550), 50)
    uv = np.column_stack([(j + 0.5 * (k % 2)) / 50, 0.3 + 0.02 * k])
    noise = np.random.default_rng(4).uniform(-0.002, 0.002, uv.shape)
    noise[(k == 0) | (k == 10), 1] = 0.0
    return uv + noise, (1.0, 1.0)


def repeated_point_cloud():
    """300 random points and one point twice, which Qhull drops."""
    uv = np.random.default_rng(3).random((300, 2))
    return np.vstack([uv, [[0.5, 0.5], [0.5, 0.5]]]), (1.0, 1.0)


@pytest.fixture(scope="module")
def fixture_angle_maps(torus_bundle, stdmap_bundle, cm_bundle):
    """The scaled angle map each fixture hands to the triangulation."""
    maps = []

    def capture(points, period):
        maps.append((points, period))
        return _periodic_delaunay(points, period)

    for bundle in (torus_bundle, stdmap_bundle, cm_bundle):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesher, "_periodic_delaunay", capture)
            mesh_flat_torus(bundle.graph, bundle.forms, bundle.cloud)
    return maps


def test_periodic_delaunay_matches_full_copy(fixture_angle_maps,
                                             monkeypatch):
    """The margin-only triangulation equals the full 3x3 copy's on
    seeded clouds and the three fixture angle maps; on clouds where the
    margin must grow: an empty disk across the box edge, one across a
    corner whose circumdisks end just past the margin (a box only 10 %
    looser would keep a triangle the full copy does not have), a strip
    whose edge points lie on the padded hull, a repeated point; and on
    clouds of at most 16 points, which go straight to the full copy."""
    runs = []
    delaunay = mesher.Delaunay

    def counted(points):
        runs.append(len(points))
        return delaunay(points)

    monkeypatch.setattr(mesher, "Delaunay", counted)

    def qhull_runs(points, period):
        del runs[:]
        got = _periodic_delaunay(points, period)
        want = periodic_delaunay_full_copy(points, period)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        return list(runs)

    clouds = [(np.random.default_rng(seed).random((200, 2)), (1.0, 1.0))
              for seed in range(5)]
    for points, period in clouds + fixture_angle_maps:
        assert qhull_runs(points, period)[0] < 9 * len(points)
    for points, period in (
            empty_disk_cloud(5, 800, (1.3, 0.7), (0.02, 0.35), 0.25),
            empty_disk_cloud(1, 400, (1.0, 1.0), (0.95, 0.95), 0.15),
            strip_cloud(), repeated_point_cloud()):
        assert len(qhull_runs(points, period)) > 1
    for n in range(1, 17):
        for seed in range(3):
            uv = np.random.default_rng(seed).random((n, 2))
            assert qhull_runs(uv, (1.0, 1.0)) == [9 * n]


def test_merge_produces_closed_torus(torus_bundle):
    report = torus_bundle.mesh.report
    assert report["boundary_edges"] == 0
    assert report["nonmanifold_edges"] == 0
    assert report["euler_characteristic"] == 0
    assert report["vertices"] == 2000
    assert report["faces"] == 4000
    assert report["problems"] == []
    assert report["period_defect_max"] < 1e-6


def test_merge_is_deterministic(torus_bundle):
    mesh2 = mesh_flat_torus(torus_bundle.graph, torus_bundle.forms,
                            torus_bundle.cloud)
    assert np.array_equal(mesh2.triangles, torus_bundle.mesh.triangles)


def test_merge_seed_choice_does_not_change_topology():
    """The angle map is integrated from vertex 0; another root only
    translates it on the flat torus, which leaves the triangles alone."""
    uv = np.random.default_rng(7).random((300, 2))
    base, _ = _periodic_delaunay(uv, (1.0, 1.0))
    moved, _ = _periodic_delaunay(np.mod(uv + [0.37, 0.81], 1.0), (1.0, 1.0))
    assert np.array_equal(base, moved)


def test_random_distribution_meshes_closed(random_torus_bundle):
    """The random torus sampler leaves sampling gaps wider than any
    single-valued BFS patch; the flat-torus mesh still closes."""
    report = random_torus_bundle.mesh.report
    assert report["problems"] == []
    assert report["euler_characteristic"] == 0
    assert report["faces"] == 4000
    assert report["vertices"] == 2000


def robustness_cloud(name):
    if name == "thin":
        return sample_torus_revolution(2.0, 0.2, 2000, 0)
    if name == "random4k":
        return sample_torus_revolution(2.0, 0.5, 4000, 0,
                                       distribution="random")
    if name.startswith("noise"):
        # the 2k grid torus, each point moved along its surface normal by
        # Gaussian noise of standard deviation sigma
        pts = sample_torus_revolution(2.0, 0.5, 2000, 0).points
        core = pts * [2.0, 2.0, 0.0] / np.hypot(pts[:, :1], pts[:, 1:2])
        normal = (pts - core) / 0.5
        sigma = float(name[len("noise"):])
        shift = np.random.default_rng(0).normal(0.0, sigma, (len(pts), 1))
        return PointCloud(dim=3, points=pts + shift * normal,
                          provenance="synthetic")
    point = next(p for p in cr3bp.libration_points(EARTH_MOON_MU)
                 if p.label == name)
    return sample_center_manifold_torus(EARTH_MOON_MU, point, 5e-3, 5e-3,
                                        6000)


@pytest.mark.parametrize("name", ["thin", "random4k", "L1", "L3", "noise0.005",
                                  "noise0.01", "noise0.02", "noise0.04"])
def test_robustness_clouds_mesh_closed(name):
    """The thin torus (R/r = 10), the randomly sampled 4k torus, the L1
    and L3 center-manifold tori and the 2k torus with normal noise up to
    sigma = 0.04 (r = 0.5) run through the whole library chain and
    close."""
    cloud = robustness_cloud(name)
    report = build_pipeline(cloud).mesh.report
    assert report["problems"] == []
    assert report["euler_characteristic"] == 0
    assert report["vertices"] == cloud.n
    assert report["faces"] == 2 * cloud.n


def test_merged_mesh_stays_off_period_seams(torus_bundle):
    graph, forms = torus_bundle.graph, torus_bundle.forms
    knn = set(map(tuple, graph.edges.tolist()))
    sides = [(min(i, j), max(i, j)) for a, b, c in torus_bundle.mesh.triangles
             for i, j in ((a, b), (b, c), (c, a))]
    shared = np.array([p for p in sides if p in knn])
    e = graph.edge_ids(shared[:, 0], shared[:, 1])
    assert np.all(np.abs(forms.du[e]) < 0.5)
    assert np.all(np.abs(forms.dv[e]) < 0.5)


def test_validate_mesh_closed_tetrahedron():
    tet = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    report = validate_mesh(tet, strict=False)
    assert report["boundary_edges"] == 0
    assert report["nonmanifold_edges"] == 0
    # sphere topology is closed but flagged by the genus-1 gate
    assert report["euler_characteristic"] == 2
    assert report["problems"] == ["Euler characteristic 2, expected 0"]
    with pytest.raises(MeshValidationError):
        validate_mesh(tet, strict=True)


def test_validate_mesh_face_removed(torus_bundle):
    tris = torus_bundle.mesh.triangles[1:]
    report = validate_mesh(tris, strict=False)
    assert report["boundary_edges"] == 3
    assert report["euler_characteristic"] == -1
    assert len(report["problems"]) == 2
    assert len(report["boundary_edge_list"]) == 3
    with pytest.raises(MeshValidationError) as err:
        validate_mesh(tris, strict=True)
    assert err.value.report["boundary_edges"] == 3


@pytest.mark.xfail(
    strict=True,
    reason="claimed Euler characteristic +1 after removing one face: "
           "V - E + (F - 1) makes the characteristic drop to -1, the "
           "value of a torus with an open disk removed")
def test_face_removal_claimed_euler_increase(torus_bundle):
    report = validate_mesh(torus_bundle.mesh.triangles[1:], strict=False)
    assert report["euler_characteristic"] == 1


def test_validate_mesh_report_ignores_id_offset(torus_bundle):
    """Shifting every vertex id, negative ids included, leaves the edge
    table and so the report unchanged (ids are not point indices)."""
    tris = torus_bundle.mesh.triangles
    base = validate_mesh(tris[1:], strict=False)
    shifted = validate_mesh(tris[1:] - 1000, strict=False)
    assert shifted["edges"] == base["edges"]
    assert shifted["euler_characteristic"] == base["euler_characteristic"]
    assert shifted["boundary_edges"] == base["boundary_edges"] == 3
    assert (np.array(shifted["boundary_edge_list"]) + 1000).tolist() \
        == base["boundary_edge_list"]
    # keyed as lo * (max id + 1) + hi, edges (-7, 5) and (-6, -5) collide
    tet = np.array([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])
    ids = np.array([-7, 5, -6, -5])
    report = validate_mesh(ids[tet], strict=False)
    assert report["edges"] == 6
    assert report["euler_characteristic"] == 2


def test_validate_mesh_duplicated_face(torus_bundle):
    tris = np.vstack([torus_bundle.mesh.triangles,
                      torus_bundle.mesh.triangles[:1]])
    report = validate_mesh(tris, strict=False)
    assert report["nonmanifold_edges"] == 3
    assert report["euler_characteristic"] == 1
    assert "nonmanifold_edge_list" in report


def test_validate_mesh_pinched_vertex():
    # two tetrahedra sharing vertex 0: every edge is fine but the link
    # of the shared vertex is two disjoint loops
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2),
            (0, 4, 5), (0, 5, 6), (0, 6, 4), (4, 6, 5)]
    report = validate_mesh(tris, strict=False)
    assert report["boundary_edges"] == 0
    assert report["nonmanifold_edges"] == 0
    assert report["euler_characteristic"] == 3
    assert report["link_offenders"] == [0]
    assert len(report["problems"]) == 2


def test_reversed_face_fails_winding_certificate(torus_bundle, monkeypatch):
    """One triangle wound against the chart keeps every edge count, the
    links and the Euler characteristic intact; only the directed-edge
    certificate catches it."""
    def one_reversed(points, period):
        triangles, dropped = _periodic_delaunay(points, period)
        triangles[7] = triangles[7][[0, 2, 1]]
        return triangles, dropped

    monkeypatch.setattr(mesher, "_periodic_delaunay", one_reversed)
    b = torus_bundle
    with pytest.raises(MeshValidationError, match="winding") as err:
        mesh_flat_torus(b.graph, b.forms, b.cloud)
    assert err.value.report["euler_characteristic"] == 0
    assert "3 directed edges" in str(err.value)


def test_validate_mesh_empty():
    report = validate_mesh([], strict=False)
    assert report["problems"] == ["empty mesh"]
    assert report["faces"] == 0


def test_mesh_json_round_trip(tmp_path, torus_bundle):
    path = tmp_path / "mesh.json"
    export_mesh_json(path, torus_bundle.mesh)
    back = load_mesh_json(path)
    assert back.cloud.dim == 3
    assert back.cloud.provenance == "synthetic"
    assert np.array_equal(back.cloud.points, torus_bundle.cloud.points)
    assert np.array_equal(back.triangles, torus_bundle.mesh.triangles)
    assert back.report == torus_bundle.mesh.report


def test_mesh_json_minimal_payload(tmp_path):
    path = tmp_path / "minimal.json"
    payload = {"dim": 3,
               "points": np.eye(4, 3).tolist(),
               "triangles": [[0, 1, 2]]}
    path.write_text(json.dumps(payload))
    mesh = load_mesh_json(path)
    assert mesh.cloud.provenance == "external"
    assert mesh.report == {}
    assert mesh.triangles.shape == (1, 3)
