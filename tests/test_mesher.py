"""Flat-torus meshing: the angle map's integer-period certificate, the
periodic Delaunay triangulation with its brute-force certificate and
its full-copy reference, the safety gates, the robustness clouds, and
mesh validation."""

import hashlib
import json
import logging

import numpy as np
import pytest
import scipy.spatial
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay

from conftest import (EARTH_MOON_MU, brute_force_delaunay_check,
                      build_pipeline, periodic_grid, solve_oneforms,
                      unwrapped_corners)
from reference_cycles import homology_split, minimum_cycle_basis
from torusforge.cycles import classify_cycles
from torusforge.errors import (GeneratorClassificationError,
                               MeshValidationError, ResidualError)
from torusforge.knn import NeighborGraph
from torusforge import mesher
from torusforge.mesher import (SurfaceMesh, _components, _half_edges,
                               _periodic_delaunay, export_mesh_json,
                               load_mesh_json, mesh_flat_torus, validate_mesh)
from torusforge.orientation import _double_cover
from torusforge.oneforms import OneFormPair, parameterize
from torusforge.samplers import (PointCloud, sample_center_manifold_torus,
                                 sample_torus_revolution)


@pytest.fixture(scope="module")
def grid8_forms():
    graph = periodic_grid(8)
    basis = minimum_cycle_basis(graph)
    forms = solve_oneforms(graph, classify_cycles(basis))
    return graph, forms


def flat_torus_graph(rows=12, seed=0):
    """Jittered rows x rows grid on the unit flat torus with its periodic
    grid edges; the one-forms are the minimum-image angle increments of
    the jittered angles, which are the angle map."""
    rng = np.random.default_rng(seed)
    ij = np.indices((rows, rows)).reshape(2, -1).T
    theta = (ij + rng.uniform(-0.2, 0.2, ij.shape)) / rows
    edges = periodic_grid(rows).edges
    inc = theta[edges[:, 1]] - theta[edges[:, 0]]
    inc -= np.round(inc)
    graph = NeighborGraph.from_edges(rows * rows, edges, np.hypot(*inc.T))
    return graph, OneFormPair(inc[:, 0].copy(), inc[:, 1].copy(), theta, {})


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
    defect = err.value.details["diagnostics"]["period_defect_max"]
    assert defect == pytest.approx(0.01, abs=1e-9)


def test_chart_metric_fit_not_positive_raises_residual_error():
    """A hand-built OneFormPair whose edges run along u but are short,
    and along v but long, gives the least-squares chart metric a
    negative u coefficient."""
    graph, forms = flat_torus_graph()
    along_u = np.abs(forms.du) > np.abs(forms.dv)
    lengths = np.where(along_u, 0.01, 1.0)
    twisted = NeighborGraph.from_edges(graph.vertex_count, graph.edges,
                                       lengths)
    with pytest.raises(ResidualError, match="chart metric") as err:
        mesh_flat_torus(twisted, forms, None)
    su2, sv2 = err.value.details["diagnostics"]["chart_metric_coefficients"]
    assert su2 < 0 < sv2


def test_point_missing_from_mesh_fails_validation(monkeypatch):
    """A vertex whose angle equals another's is a duplicate chart point.
    The mesher names the pair and its kNN neighbours before Qhull runs;
    without that check Qhull drops it, and the mesh must not pass
    without it."""
    graph, forms = flat_torus_graph()
    edges = np.vstack([graph.edges, [[0, 144]]])
    twin = NeighborGraph.from_edges(145, edges,
                                    np.append(graph.lengths, 1e-3))
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    du = np.append(forms.du, 0.0)[order]
    dv = np.append(forms.dv, 0.0)[order]
    theta = np.vstack([forms.theta, forms.theta[:1]])
    with pytest.raises(MeshValidationError,
                       match=r"chart points coincide in pairs \[\[0, 144\]\]"
                       ) as err:
        mesh_flat_torus(twin, OneFormPair(du, dv, theta, {}), None)
    assert err.value.details["report"] == {
        "coincident_pairs": [[0, 144]],
        "neighbors": {"0": [1, 11, 12, 132, 144], "144": [0]},
        "problems": [str(err.value)]}
    monkeypatch.setattr(mesher, "_reject_coincident_points",
                        lambda *args: None)
    with pytest.raises(MeshValidationError, match="missing from the mesh"):
        mesh_flat_torus(twin, OneFormPair(du, dv, theta, {}), None)


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
    clouds of at most 16 points, which go straight to the full copy.
    Qhull runs are counted through scipy.spatial.Delaunay, which
    `_periodic_delaunay` imports when called."""
    runs = []

    def counted(points):
        runs.append(len(points))
        return Delaunay(points)

    monkeypatch.setattr(scipy.spatial, "Delaunay", counted)

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
        return sample_torus_revolution(2.0, 0.2, 2000, 0, "grid")
    if name == "random4k":
        return sample_torus_revolution(2.0, 0.5, 4000, 0,
                                       distribution="random")
    if name.startswith("noise"):
        # the 2k grid torus, each point moved along its surface normal by
        # Gaussian noise of standard deviation sigma
        pts = sample_torus_revolution(2.0, 0.5, 2000, 0, "grid").points
        core = pts * [2.0, 2.0, 0.0] / np.hypot(pts[:, :1], pts[:, 1:2])
        normal = (pts - core) / 0.5
        sigma = float(name[len("noise"):])
        shift = np.random.default_rng(0).normal(0.0, sigma, (len(pts), 1))
        return PointCloud(pts + shift * normal, "synthetic")
    return sample_center_manifold_torus(EARTH_MOON_MU, name, 5e-3, 5e-3,
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


def graded_torus(a, n=2000):
    """The torus R = 2, r = 0.5 with angle density proportional to
    1 + a cos u: uniform (u, v) candidates, n at a time from
    default_rng(0), each accepted with probability (1 + a cos u)/(1 + a),
    until n are accepted."""
    rng = np.random.default_rng(0)
    u, v = np.empty(0), np.empty(0)
    while len(u) < n:
        cu, cv = rng.uniform(0.0, 2.0 * np.pi, (2, n))
        ok = rng.random(n) < (1.0 + a * np.cos(cu)) / (1.0 + a)
        u, v = np.r_[u, cu[ok]], np.r_[v, cv[ok]]
    ring = 2.0 + 0.5 * np.cos(v[:n])
    return PointCloud(np.column_stack(
        [ring * np.cos(u[:n]), ring * np.sin(u[:n]), 0.5 * np.sin(v[:n])]))


@pytest.mark.parametrize("a, stop", [
    (0.5, None),
    (0.8, (3.1383002850618946, 2.7758565344132915)),
    (0.95, (2.9639886622934664, 2.38763250683226))])
def test_density_gradient_outcome_is_pinned(a, stop):
    """With this sampler and seed, k = 8, a = 0.5 meshes closed, while
    a = 0.8 and 0.95 stop at the unchanged 1.25 ratio gate with a named
    GeneratorClassificationError carrying the weights it compared."""
    cloud = graded_torus(a)
    if stop is None:
        report = build_pipeline(cloud).mesh.report
        assert report["problems"] == []
        assert report["faces"] == 2 * cloud.n
        return
    with pytest.raises(GeneratorClassificationError,
                       match="raise k or sample more points") as err:
        build_pipeline(cloud)
    diag = err.value.details["diagnostics"]
    assert diag["required_ratio"] == 1.25
    assert diag["generator_weight"] == pytest.approx(stop[0], rel=1e-12)
    assert diag["trivial_weight_max"] == pytest.approx(stop[1], rel=1e-12)
    assert diag["ratio"] == pytest.approx(stop[0] / stop[1], rel=1e-12)
    assert diag["ratio"] < 1.25


def coupled_map_cloud(c, n=4000):
    """Froeschle's coupled standard maps, in turns: with
    s = c sin 2pi(x1 + x2), each p_i <- p_i + 0.05 sin 2pi x_i + s and then
    x_i <- x_i + p_i, all mod 1, from x = (0, 0) and the golden and silver
    p. The n states before each step go to 6D as the unit circles of x1
    and x2 and the circle of radius 0.2 of p1."""
    x = np.zeros(2)
    p = np.array([0.6180339887498949, 0.41421356237309515])
    orbit = np.empty((n, 3))
    for step in range(n):
        orbit[step] = (x[0], x[1], p[0])
        s = c * np.sin(2.0 * np.pi * (x[0] + x[1]))
        p = (p + 0.05 * np.sin(2.0 * np.pi * x) + s) % 1.0
        x = (x + p) % 1.0
    x1, x2, p1 = 2.0 * np.pi * orbit.T
    return PointCloud(np.column_stack(
        [np.cos(x1), np.sin(x1), np.cos(x2), np.sin(x2),
         0.2 * np.cos(p1), 0.2 * np.sin(p1)]))


@pytest.mark.parametrize("c, stop", [
    (0.0, None),
    (0.001, (6.589829700552109, 6.426813639464376)),
    (0.005, None)])
def test_coupled_map_outcome_is_pinned(c, stop):
    """The coupled map's 4000 iterates at k = 8: c = 0 and c = 0.005 mesh
    closed, while c = 0.001 stops at the unchanged 1.25 ratio gate with a
    named GeneratorClassificationError carrying the weights it compared."""
    cloud = coupled_map_cloud(c)
    if stop is None:
        report = build_pipeline(cloud).mesh.report
        assert report["problems"] == []
        assert report["faces"] == 2 * cloud.n
        return
    with pytest.raises(GeneratorClassificationError,
                       match="raise k or sample more points") as err:
        build_pipeline(cloud)
    diag = err.value.details["diagnostics"]
    assert diag["required_ratio"] == 1.25
    assert diag["generator_weight"] == pytest.approx(stop[0], rel=1e-12)
    assert diag["trivial_weight_max"] == pytest.approx(stop[1], rel=1e-12)
    assert diag["ratio"] < 1.25


def undirected_triangles(triangles):
    """The triangle set with winding and corner order dropped, as sorted
    rows of sorted vertex ids."""
    return np.unique(np.sort(triangles, axis=1), axis=0)


@pytest.fixture(scope="module")
def fibonacci_bundle():
    return build_pipeline(sample_torus_revolution(2.0, 0.5, 2000, 0,
                                                  distribution="fibonacci"))


@pytest.mark.parametrize("bundle", ["torus_bundle", "random_torus_bundle",
                                    "fibonacci_bundle"])
def test_relabeling_keeps_undirected_triangles(bundle, request):
    """The grid, random and fibonacci 2k tori with their points relabeled
    by three seeded permutations mesh to the same undirected triangles,
    mapped back to the original labels."""
    bundle = request.getfixturevalue(bundle)
    want = undirected_triangles(bundle.mesh.triangles)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(bundle.cloud.n)
        moved = PointCloud(bundle.cloud.points[perm])
        got = perm[build_pipeline(moved).mesh.triangles]
        assert np.array_equal(undirected_triangles(got), want), seed


def de_pina_chain(bundle):
    """The classified basis, forms and mesh of de Pina's generators on a
    bundle's graph: classify_cycles(homology_split), solve_oneforms, mesh."""
    classified = classify_cycles(homology_split(bundle.graph))
    forms = solve_oneforms(bundle.graph, classified)
    return classified, forms, mesh_flat_torus(bundle.graph, forms,
                                              bundle.cloud).triangles


def assert_same_or_reversed(got, want):
    """The directed triangle sets are equal, or every face is reversed."""
    want = np.unique(want, axis=0)
    same = np.array_equal(np.unique(got, axis=0), want)
    back = np.unique(np.roll(got[:, ::-1], 1, axis=1), axis=0)
    assert same or np.array_equal(back, want)


def lattice_classes(graph, caplog):
    """The reduced classes `parameterize` logs for a graph, in the
    coordinates of its first solve, as sorted absolute values: [[0, 1],
    [1, 0]] where the reduction kept the first classes. None when de
    Pina's rule gave the generators."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="torusforge.oneforms"):
        parameterize(graph)
    found = [r.args[:2] for r in caplog.records
             if r.msg.startswith("generators from the period lattice")]
    return sorted(np.abs(c).tolist() for c in found[0]) if found else None


@pytest.mark.parametrize("bundle, classes", [
    ("torus_bundle", [[0, 1], [1, 0]]),
    ("stdmap_bundle", None),
    ("cm_bundle", [[0, 1], [1, 0]]),
    ("random_torus_bundle", None),
    ("fibonacci_bundle", [[1, 0], [1, 1]])])
def test_lattice_generators_keep_the_undirected_mesh(bundle, classes,
                                                     request, caplog):
    """The pipeline's mesh has de Pina's undirected triangles. Where the
    period lattice gives the generators, they are other loops than de
    Pina's, and the winding is the same or reversed on every face; the
    fibonacci torus's reduced basis is not the one first solved for.
    Where de Pina's rule runs (the standard map's two generator classes
    are a near-tie, the random torus leaves more than two slots), the
    basis, the forms (the standard map's solved on the lattice solve's
    Laplacian factor) and the directed triangles are de Pina's exactly."""
    b = request.getfixturevalue(bundle)
    assert lattice_classes(b.graph, caplog) == classes
    classified, forms, triangles = de_pina_chain(b)
    assert np.array_equal(undirected_triangles(b.mesh.triangles),
                          undirected_triangles(triangles))
    same = np.array_equal(b.classified.edges, classified.edges)
    assert same == (classes is None)
    if same:
        for key in ("du", "dv", "theta"):
            assert np.array_equal(getattr(b.forms, key),
                                  getattr(forms, key)), key
        assert b.forms.diagnostics == forms.diagnostics
        assert np.array_equal(b.mesh.triangles, triangles)
    else:
        assert_same_or_reversed(b.mesh.triangles, triangles)


def test_lattice_generators_keep_the_16k_grid_mesh(caplog):
    """On the 16k grid torus the reduced basis is not the one first solved
    for either, and the mesh has de Pina's triangles."""
    b = build_pipeline(sample_torus_revolution(2.0, 0.5, 16000, 0, "grid"))
    assert lattice_classes(b.graph, caplog) == [[1, 0], [1, 1]]
    triangles = de_pina_chain(b)[2]
    assert np.array_equal(undirected_triangles(b.mesh.triangles),
                          undirected_triangles(triangles))
    assert_same_or_reversed(b.mesh.triangles, triangles)


# triangle-set digests of the fixture meshes, frozen so that a change to
# the one-form solve or the mesher that moves a triangle shows
MESH_DIGESTS = {
    "torus_bundle":
        "a0614bf2eee61d6145591951a808911ae409e03c5199f4ffa4775790548eb2e0",
    "random_torus_bundle":
        "402d8962ef645c6336b3bc2396d7ee263effebafb765f11fc6b54227719aaa73",
    "stdmap_bundle":
        "4dff580b00c5e97fd7119c227174a6c05bd8d48c4db1a2f17f939cb730ab8ae2",
    # the period-lattice generators run the other way on this cloud, so
    # every face is reversed against de Pina's (the undirected set is the
    # same; see test_lattice_generators_keep_the_undirected_mesh)
    "cm_bundle":
        "079af924c4dc61a5ff5c3b108e72847f9531500fb707b379f30b256687e28c4b",
}


def mesh_digest(triangles):
    """sha256 of the triangles, each rotated to start at its smallest id
    (winding kept), rows sorted, as little-endian int64."""
    tris = np.asarray(triangles, dtype=np.int64)
    lead = np.argmin(tris, axis=1)[:, None]
    tris = np.take_along_axis(tris, (lead + np.arange(3)) % 3, axis=1)
    tris = tris[np.lexsort(tris.T[::-1])]
    return hashlib.sha256(tris.astype("<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("bundle", sorted(MESH_DIGESTS))
def test_mesh_digest_is_frozen_on_fixtures(bundle, request):
    mesh = request.getfixturevalue(bundle).mesh
    assert mesh_digest(mesh.triangles) == MESH_DIGESTS[bundle]


@pytest.mark.parametrize("move", ["axes", "scale", "rotation"])
def test_grid_torus_mesh_invariant_under_similarity(move, torus_bundle):
    """Permuting the coordinate axes, scaling by 3.7 and a seeded
    rotation of the 2k grid torus keep its undirected triangles."""
    pts = torus_bundle.cloud.points
    rng = np.random.default_rng(4)
    if move == "axes":
        pts = pts[:, rng.permutation(3)]
    elif move == "scale":
        pts = 3.7 * pts
    else:
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        pts = pts @ (q * np.sign(np.diag(r))).T
    got = build_pipeline(PointCloud(pts)).mesh.triangles
    assert np.array_equal(undirected_triangles(got),
                          undirected_triangles(torus_bundle.mesh.triangles))


@pytest.mark.parametrize("cloud, scale", [
    *(("grid", s) for s in (1e-12, 1e-9, 1e-6, 1e6, 1e9, 1e12)),
    ("L2", 5e-7)])
def test_coclosedness_gate_does_not_depend_on_units(cloud, scale,
                                                    torus_bundle):
    """The co-closedness gate has no units: the 2k grid torus scaled by
    1e-12 to 1e12 keeps its undirected triangles, and the L2
    center-manifold torus with both amplitudes 5e-7 meshes closed. A
    gate of RMS(A dx) against the median |dx| alone, which moves with
    the cloud's scale, stopped the grid at 1e-9 and 1e-12 and the small
    L2 torus with ResidualError."""
    if cloud == "grid":
        got = build_pipeline(PointCloud(scale * torus_bundle.cloud.points))
        assert np.array_equal(
            undirected_triangles(got.mesh.triangles),
            undirected_triangles(torus_bundle.mesh.triangles))
    else:
        small = sample_center_manifold_torus(EARTH_MOON_MU, cloud, scale,
                                             scale, 6000)
        report = build_pipeline(small).mesh.report
        assert report["problems"] == []
        assert report["euler_characteristic"] == 0
        assert report["faces"] == 2 * small.n


def test_isometric_lift_to_r12_keeps_triangles(cm_bundle):
    """Nothing after PointCloud depends on the embedding dimension: the
    6D cloud mapped into R^12 by a seeded orthonormal map meshes to the
    same triangle array, winding and row order included."""
    q, _ = np.linalg.qr(np.random.default_rng(12).normal(size=(12, 6)))
    cloud = cm_bundle.cloud
    lifted = PointCloud(cloud.points @ q.T, cloud.provenance)
    assert lifted.dim == 12
    got = build_pipeline(lifted).mesh.triangles
    assert np.array_equal(got, cm_bundle.mesh.triangles)


def test_five_character_torus_in_r10_meshes_closed():
    """A flat torus through five characters (cos, sin of a u + b v) in
    R^10, at 2000 seeded random angles, meshes to a closed torus."""
    rng = np.random.default_rng(0)
    angles = 2.0 * np.pi * rng.random((2, 2000))
    phases = np.array([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]) @ angles
    cloud = PointCloud(np.column_stack(
        [f(p) for p in phases for f in (np.cos, np.sin)]))
    assert cloud.dim == 10
    report = build_pipeline(cloud).mesh.report
    assert report["problems"] == []
    assert report["faces"] == 4000
    assert report["vertices"] == 2000


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
    assert err.value.details["report"]["boundary_edges"] == 3


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
    assert err.value.details["report"]["euler_characteristic"] == 0
    assert "3 directed edges" in str(err.value)


def assert_components_match_scipy(n, a, b):
    """`_components` gives scipy's partition, each node labelled with
    the smallest id in its component."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    graph = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    ncomp, want = connected_components(graph, directed=False)
    smallest = np.full(ncomp, n)
    np.minimum.at(smallest, want, np.arange(n))
    assert np.array_equal(_components(n, a, b), smallest[want])


def test_components_match_scipy(torus_bundle, stdmap_bundle, cm_bundle):
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(1, 400))
        m = int(rng.integers(0, 2 * n))
        assert_components_match_scipy(n, rng.integers(0, n, m),
                                      rng.integers(0, n, m))
    assert_components_match_scipy(6, [], [])
    assert_components_match_scipy(6, [0, 2, 3, 5], [0, 2, 4, 5])
    # a path listed from its far end hooks one node per step
    down = np.arange(10 ** 4 - 1)[::-1]
    assert_components_match_scipy(10 ** 4, down, down + 1)
    assert_components_match_scipy(10 ** 4, down + 1, down)
    for bundle in (torus_bundle, stdmap_bundle, cm_bundle):
        tris = bundle.mesh.triangles
        he = _half_edges(tris)
        assert_components_match_scipy(2 * len(tris),
                                      *_double_cover(he, len(tris)))
        # the corner incidences `_link_offenders` joins
        h = np.arange(len(he.edge))
        nxt = h - h % 3 + (h + 1) % 3
        assert_components_match_scipy(
            2 * len(he.edges), 2 * he.edge + he.forward,
            2 * he.edge[nxt] + ~he.forward[nxt])


def test_validate_mesh_empty():
    report = validate_mesh([], strict=False)
    assert report["problems"] == ["empty mesh"]
    assert report["faces"] == 0


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_mesh_json_round_trip(tmp_path, torus_bundle):
    path = tmp_path / "mesh.json"
    export_mesh_json(path, torus_bundle.mesh)
    back = load_mesh_json(path)
    assert back.cloud.dim == 3
    assert back.cloud.provenance == "synthetic"
    assert np.array_equal(back.cloud.points, torus_bundle.cloud.points)
    assert np.array_equal(back.triangles, torus_bundle.mesh.triangles)
    assert back.report == torus_bundle.mesh.report
    # a negative zero, the least subnormal, the largest finite float and
    # numbers whose shortest spelling differs between JSON writers come
    # back bit for bit, in an ASCII file that strict JSON readers take
    points = np.array([[-0.0, 5e-324, 1e-05], [1e16, 1.7976931348623157e308,
                                               0.1], [1.0, 2.0, 3.0],
                       [-1e-300, 4.0, 6.02214076e23]])
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    export_mesh_json(path, SurfaceMesh(PointCloud(points), triangles, {}))
    back = load_mesh_json(path)
    assert back.cloud.points.tobytes() == points.tobytes()
    assert back.triangles.tobytes() == triangles.astype(np.int64).tobytes()
    data = path.read_bytes()
    assert data.isascii()
    plain = json.loads(data, parse_constant=_refuse_constant)
    assert np.array(plain["points"]).tobytes() == points.tobytes()
    assert plain["triangles"] == triangles.tolist()


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
