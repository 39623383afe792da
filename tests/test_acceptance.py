"""Acceptance gate: one test per release criterion, each run at the
tolerance its docstring names. Each test line in `pytest -v` is the
pass/fail verdict for that criterion."""

import json
import time

import numpy as np
import pytest

from torusforge import cli
from torusforge.cr3bp import eom, integrate, jacobi_constant, libration_points
from torusforge.cycles import homology_split
from torusforge.mesher import SurfaceMesh, _periodic_delaunay
from torusforge.orientation import orient_mesh
from torusforge.samplers import (PointCloud, StandardMapConfig,
                                 sample_standard_map_torus)

from conftest import (EARTH_MOON_MU, GOLDEN, SILVER,
                      brute_force_delaunay_check, build_pipeline,
                      periodic_grid)
from reference_cycles import (exhaustive_minimum_cycle_basis,
                              minimum_cycle_basis)


def assert_closed_torus(report):
    assert report["euler_characteristic"] == 0
    assert report["boundary_edges"] == 0
    assert report["nonmanifold_edges"] == 0
    assert report["problems"] == []


def test_c1_torus_pipeline_within_budget(tmp_path):
    """Revolution torus R=2 r=0.5, N=2000, k=8: full pipeline exits 0
    with a closed oriented genus-1 mesh in under 120 s single-threaded."""
    cfg = cli.default_config()
    cfg["output_dir"] = str(tmp_path)
    start = time.perf_counter()
    code, report = cli.run_pipeline(cfg)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert_closed_torus(report)
    assert report["orientation_conflicts"] == 0
    assert elapsed < 120.0
    print(f"ACCEPTANCE PASS: C1 torus pipeline, {elapsed:.1f}s")


def test_c2_standard_map_topology_and_flat_limit(stdmap_bundle):
    """Coupled standard map K=0.3: correct torus topology. At K=0 the
    dynamics are exactly linear flow, so every mesh vertex stays on both
    unit circles of the 4D embedding to 1e-12."""
    assert_closed_torus(stdmap_bundle.mesh.report)
    flat = sample_standard_map_torus(StandardMapConfig(
        K1=0.0, K2=0.0, theta1=0.0, theta2=0.0,
        p1=GOLDEN, p2=SILVER, N=4000))
    bundle = build_pipeline(flat)
    assert_closed_torus(bundle.mesh.report)
    pts = bundle.mesh.cloud.points
    first = np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - 1.0)
    second = np.abs(pts[:, 2] ** 2 + pts[:, 3] ** 2 - 1.0)
    assert first.max() <= 1e-12
    assert second.max() <= 1e-12
    print("ACCEPTANCE PASS: C2 standard map")


def test_c3_center_manifold_six_dim(cm_bundle):
    """Quasi-periodic 6D cloud near L2: closed torus mesh, and every
    graph edge's angle-map difference within 1e-6 of its one-form
    increment plus an integer period."""
    assert_closed_torus(cm_bundle.mesh.report)
    assert cm_bundle.mesh.report["period_defect_max"] < 1e-6
    print("ACCEPTANCE PASS: C3 center manifold")


def test_c4_oneform_residual_gates(torus_bundle, stdmap_bundle, cm_bundle):
    """Every fixture's solved one-form pair meets the residual gates:
    closedness RMS under 1e-6 of the typical increment, trivial-cycle
    sums under 1e-6, period matrix within 1e-6 of the identity."""
    for bundle in (torus_bundle, stdmap_bundle, cm_bundle):
        diag = bundle.forms.diagnostics
        for form in ("u", "v"):
            d = diag[form]
            assert d["coclosedness_rms"] < 1e-6 * d["value_scale"]
            assert d["max_trivial_cycle_error"] < 1e-6
        period = np.asarray(diag["period_matrix"])
        assert np.max(np.abs(period - np.eye(2))) < 1e-6
        assert diag["period_error"] < 1e-6
    print("ACCEPTANCE PASS: C4 one-form gates")


def test_c5_cycle_basis_matches_brute_force():
    """3x3 periodic grid: the library's cycle basis has the full size
    2E - 2V + 2 = 10 and exactly the brute-force optimal total weight."""
    graph = periodic_grid(3)
    basis = homology_split(graph)
    exact = exhaustive_minimum_cycle_basis(graph)
    assert basis.size == 10
    assert basis.total_weight() == pytest.approx(exact.total_weight(),
                                                 abs=1e-9)
    print("ACCEPTANCE PASS: C5 cycle basis weight")


@pytest.mark.xfail(
    strict=True,
    reason="the 3x3 periodic grid has six independent weight-3 loops (three "
           "rows, three columns), so every minimum basis carries six 3-hop "
           "generators, not two")
def test_c5_claimed_two_three_hop_generators():
    basis = minimum_cycle_basis(periodic_grid(3))
    assert int(np.sum(basis.hops == 3)) == 2


def test_c6_dynamics_gates():
    """Rotating-frame dynamics: equilibria are stationary to 1e-10, the
    triangular points sit at their closed-form locations with the
    closed-form integral value to 1e-12, and the integral drifts below
    1e-9 along a 10-unit trajectory."""
    mu = EARTH_MOON_MU
    points = {p.label: p for p in libration_points(mu)}
    for p in points.values():
        acc = eom(np.concatenate([p.position, np.zeros(3)]), mu)
        assert np.max(np.abs(acc)) < 1e-10
    assert points["L4"].position.tolist() == [0.5 - mu, np.sqrt(3) / 2, 0.0]
    assert points["L5"].position.tolist() == [0.5 - mu, -np.sqrt(3) / 2, 0.0]
    expected_c = 3.0 - mu + mu ** 2
    assert abs(points["L4"].jacobi - expected_c) < 1e-12
    state0 = np.array([1.5, 0.0, 0.1, 0.0, 0.5, 0.0])
    _, states = integrate(state0, mu, 10.0, tol=1e-12)
    c_vals = np.array([jacobi_constant(s, mu) for s in states])
    assert np.max(np.abs(c_vals - c_vals[0])) < 1e-9
    print("ACCEPTANCE PASS: C6 dynamics")


def test_c7_orientation_flip_and_coordinate_freedom(torus_bundle):
    """Reversing the anchor triangle (face 0) reverses every face (the
    two global orientations are a bijection), and permuting embedding
    coordinates changes nothing about the result."""
    mesh = torus_bundle.mesh
    flipped = mesh.triangles.copy()
    flipped[0] = flipped[0][[0, 2, 1]]
    out_a = orient_mesh(mesh)
    out_b = orient_mesh(SurfaceMesh(mesh.cloud, flipped, {}))
    for ta, tb in zip(out_a.triangles, out_b.triangles):
        a, b, c = (int(v) for v in ta[[0, 2, 1]])
        assert tuple(tb) in {(a, b, c), (b, c, a), (c, a, b)}
    permuted = PointCloud(dim=3, points=mesh.cloud.points[:, [1, 2, 0]],
                          provenance=mesh.cloud.provenance)
    out_c = orient_mesh(SurfaceMesh(permuted, mesh.triangles, {}))
    assert np.array_equal(out_a.triangles, out_c.triangles)
    print("ACCEPTANCE PASS: C7 orientation invariance")


def test_c8_byte_determinism(tmp_path_factory):
    """Identical configs give byte-identical artifacts."""
    dirs = [tmp_path_factory.mktemp(f"acc_det{i}") for i in range(2)]
    for out in dirs:
        assert cli.main(["run", "--output-dir", str(out)]) == 0
    for name in ("validation.json", "mesh.json"):
        blobs = [(d / name).read_bytes() for d in dirs]
        assert blobs[0] == blobs[1], name
    print("ACCEPTANCE PASS: C8 determinism")


def test_c9_empty_circumcircle_property():
    """Flat-torus triangulations are Delaunay: 200 random points give
    exactly 400 triangles, and brute force certifies that the open
    circumdisk of every triangle holds no point of the 9 periodic
    copies."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        uv = rng.uniform(0.0, 1.0, size=(200, 2))
        triangles, dropped = _periodic_delaunay(uv, (1.0, 1.0))
        assert len(dropped) == 0
        assert len(triangles) == 400
        violations = brute_force_delaunay_check(uv, triangles)
        assert violations == 0
    print("ACCEPTANCE PASS: C9 Delaunay certificate")
