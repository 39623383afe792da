"""Point-cloud samplers: surface membership, determinism, map dynamics,
linear center-manifold structure, and cloud I/O."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from torusforge import cr3bp
from torusforge.errors import ConfigError
from torusforge.samplers import (PointCloud, StandardMapConfig,
                                 center_manifold_model, iterate_standard_map,
                                 load_point_cloud,
                                 sample_center_manifold_torus,
                                 sample_standard_map_torus,
                                 sample_torus_revolution, save_point_cloud)

TWO_PI = 2.0 * np.pi


def torus_residual(pts, R, r):
    ring = np.hypot(pts[:, 0], pts[:, 1]) - R
    return np.abs(ring ** 2 + pts[:, 2] ** 2 - r * r)


@pytest.mark.parametrize("distribution", ["grid", "fibonacci", "random"])
def test_torus_points_on_surface(distribution):
    cloud = sample_torus_revolution(2.0, 0.5, 500, 7,
                                    distribution=distribution)
    assert cloud.n == 500
    assert cloud.dim == 3
    assert cloud.provenance == "synthetic"
    assert np.max(torus_residual(cloud.points, 2.0, 0.5)) < 1e-13


def test_torus_exact_count_odd_n():
    # row balancing must hold when N does not divide into the grid
    for n in (2000, 1999, 1987, 613):
        assert sample_torus_revolution(2.0, 0.5, n, 0).n == n


def test_torus_deterministic_and_seed_sensitive():
    a = sample_torus_revolution(2.0, 0.5, 300, 42)
    b = sample_torus_revolution(2.0, 0.5, 300, 42)
    c = sample_torus_revolution(2.0, 0.5, 300, 43)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_torus_grid_bounds_minimum_separation():
    """Jitter stays inside the central half of each grid cell, so no two
    samples can come close relative to the typical spacing."""
    cloud = sample_torus_revolution(2.0, 0.5, 2000, 0)
    d, _ = cKDTree(cloud.points).query(cloud.points, k=2)
    nn = d[:, 1]
    assert nn.min() > 0.3 * np.median(nn)


def test_torus_argument_validation():
    with pytest.raises(ConfigError):
        sample_torus_revolution(0.5, 2.0, 100, 0)
    with pytest.raises(ConfigError):
        sample_torus_revolution(2.0, 0.5, 8, 0)
    with pytest.raises(ConfigError):
        sample_torus_revolution(2.0, 0.5, 100, 0, distribution="sobol")


def test_standard_map_single_step_by_hand():
    cfg = StandardMapConfig(K1=0.3, K2=0.7, theta1=1.1, p1=0.4,
                            theta2=2.2, p2=0.9, N=4)
    orbit = iterate_standard_map(cfg)
    assert np.array_equal(orbit[0], [1.1, 0.4, 2.2, 0.9])
    p1 = (0.4 + 0.3 * np.sin(1.1)) % TWO_PI
    t1 = (1.1 + p1) % TWO_PI
    p2 = (0.9 + 0.7 * np.sin(2.2)) % TWO_PI
    t2 = (2.2 + p2) % TWO_PI
    assert orbit[1] == pytest.approx([t1, p1, t2, p2], abs=1e-15)


def test_standard_map_zero_k_preserves_momenta():
    cfg = StandardMapConfig(K1=0.0, K2=0.0, p1=1.3, p2=0.7, N=200)
    orbit = iterate_standard_map(cfg)
    assert np.max(np.abs(orbit[:, 1] - 1.3)) < 1e-12
    assert np.max(np.abs(orbit[:, 3] - 0.7)) < 1e-12


def test_standard_map_rational_rotation_is_periodic():
    cfg = StandardMapConfig(K1=0.0, K2=0.0, p1=TWO_PI / 8, p2=TWO_PI / 8,
                            N=20)
    orbit = iterate_standard_map(cfg)
    assert np.max(np.abs(orbit[8] - orbit[0])) < 1e-12
    assert np.max(np.abs(orbit[16] - orbit[0])) < 1e-12


def test_standard_map_periodic_orbit_rejected_as_cloud():
    # an 8-periodic orbit yields duplicate embedded points
    cfg = StandardMapConfig(K1=0.0, K2=0.0, p1=TWO_PI / 8, p2=TWO_PI / 8,
                            N=100)
    with pytest.raises(ConfigError):
        sample_standard_map_torus(cfg)


def test_standard_map_embedding_on_clifford_torus():
    cfg = StandardMapConfig(K1=0.3, K2=0.3, p1=0.6180339887498949,
                            p2=0.41421356237309515, N=800)
    cloud = sample_standard_map_torus(cfg)
    assert cloud.dim == 4
    assert cloud.n == 800
    assert cloud.provenance == "standard_map"
    p = cloud.points
    assert np.max(np.abs(p[:, 0] ** 2 + p[:, 1] ** 2 - 1)) < 1e-12
    assert np.max(np.abs(p[:, 2] ** 2 + p[:, 3] ** 2 - 1)) < 1e-12


def test_standard_map_config_validation():
    with pytest.raises(ConfigError):
        StandardMapConfig(K1=-0.1, K2=0.0)
    with pytest.raises(ConfigError):
        StandardMapConfig(K1=0.0, K2=0.0, N=3)


@pytest.fixture(scope="module")
def l2_point():
    return next(p for p in cr3bp.libration_points(0.01215)
                if p.label == "L2")


def test_center_manifold_model_frequencies(l2_point):
    J, om_p, om_v, u_p, u_v = center_manifold_model(0.01215, l2_point)
    assert om_p > 0 and om_v > 0
    # eigenvector residuals of the two center modes
    for om, u in ((om_p, u_p), (om_v, u_v)):
        assert np.linalg.norm(J @ u - 1j * om * u) < 1e-8 * np.linalg.norm(u)
    # planar mode has no vertical content, vertical mode only vertical
    assert np.max(np.abs(u_p[[2, 5]])) < 1e-9 * np.max(np.abs(u_p))
    assert np.max(np.abs(u_v[[0, 1, 3, 4]])) < 1e-9 * np.max(np.abs(u_v))


def test_center_manifold_rejects_equilateral_point():
    l4 = next(p for p in cr3bp.libration_points(0.01215)
              if p.label == "L4")
    with pytest.raises(ConfigError):
        center_manifold_model(0.01215, l4)


def test_center_manifold_cloud_shape(l2_point):
    cloud = sample_center_manifold_torus(0.01215, l2_point, 5e-3, 5e-3, 600)
    assert cloud.dim == 6
    assert cloud.n == 600
    assert cloud.provenance == "cr3bp_linear"


def test_center_manifold_linear_dynamics_second_order(l2_point):
    """Sampled points obey dx/dt = J x; the centered difference error
    must shrink quadratically with the forced time step."""
    J, *_ = center_manifold_model(0.01215, l2_point)
    center = np.concatenate([l2_point.position, np.zeros(3)])
    errs = []
    for dt in (0.01, 0.005):
        cloud = sample_center_manifold_torus(0.01215, l2_point, 5e-3, 5e-3,
                                             64, dt=dt)
        x = cloud.points - center
        fd = (x[2:] - x[:-2]) / (2 * dt)
        errs.append(np.max(np.abs(fd - x[1:-1] @ J.T)))
    assert errs[0] < 1e-5
    assert errs[1] < errs[0] / 3.0


def test_center_manifold_vertical_amp_zero_is_planar(l2_point):
    cloud = sample_center_manifold_torus(0.01215, l2_point, 5e-3, 0.0, 500)
    off = cloud.points - np.concatenate([l2_point.position, np.zeros(3)])
    assert np.max(np.abs(off[:, [2, 5]])) == 0.0
    # amplitude calibration: positional excursion tops out at amp_planar
    exc = np.linalg.norm(off[:, :3], axis=1)
    assert exc.max() <= 5e-3 * (1 + 1e-9)
    assert exc.max() > 0.9 * 5e-3


def test_center_manifold_planar_amp_zero_is_vertical(l2_point):
    cloud = sample_center_manifold_torus(0.01215, l2_point, 0.0, 4e-3, 500)
    off = cloud.points - np.concatenate([l2_point.position, np.zeros(3)])
    assert np.max(np.abs(off[:, [0, 1, 3, 4]])) < 1e-12
    assert np.abs(off[:, 2]).max() == pytest.approx(4e-3, rel=0.1)


def test_center_manifold_freq_override(l2_point):
    """The model's planar frequency drives the sampled phases: with the
    vertical mode off, every coordinate must lie exactly in
    span{cos(om t), sin(om t)} at that rate."""
    om_p = center_manifold_model(0.01215, l2_point)[1]
    cloud = sample_center_manifold_torus(0.01215, l2_point, 5e-3, 0.0, 128,
                                         dt=0.05)
    center = np.concatenate([l2_point.position, np.zeros(3)])
    x = cloud.points - center
    t = np.arange(128) * 0.05
    basis = np.column_stack([np.cos(om_p * t), np.sin(om_p * t)])
    for col in range(6):
        coef, *_ = np.linalg.lstsq(basis, x[:, col], rcond=None)
        assert np.max(np.abs(x[:, col] - basis @ coef)) < 1e-12


def test_center_manifold_amp_validation(l2_point):
    with pytest.raises(ConfigError):
        sample_center_manifold_torus(0.01215, l2_point, 0.0, 0.0, 100)
    with pytest.raises(ConfigError):
        sample_center_manifold_torus(0.01215, l2_point, -1e-3, 1e-3, 100)
    with pytest.raises(ConfigError):
        sample_center_manifold_torus(0.01215, l2_point, 1e-3, 1e-3, 3)


def test_point_cloud_validation():
    good = np.random.default_rng(0).random((10, 4))
    with pytest.raises(ConfigError):
        PointCloud(dim=7, points=np.zeros((10, 7)))
    with pytest.raises(ConfigError):
        PointCloud(dim=3, points=good)
    with pytest.raises(ConfigError):
        PointCloud(dim=4, points=np.vstack([good, good[:1]]))
    bad = good.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ConfigError):
        PointCloud(dim=4, points=bad)
    with pytest.raises(ConfigError):
        PointCloud(dim=4, points=good, provenance="mystery")


def test_cloud_csv_round_trip_exact(tmp_path):
    """CSV is the one cloud format, whatever the path's extension."""
    cloud = sample_torus_revolution(2.0, 0.5, 64, 3)
    for name in ("cloud.csv", "cloud.txt", "cloud.CSV"):
        path = tmp_path / name
        save_point_cloud(path, cloud)
        assert path.read_text().startswith("# dim=3\n")
        back = load_point_cloud(path)
        assert back.dim == 3
        assert np.array_equal(back.points, cloud.points)
        assert back.provenance == "external"


def test_cloud_load_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# dim=4\n1,2,3\n")
    with pytest.raises(ConfigError):
        load_point_cloud(path)
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ConfigError):
        load_point_cloud(path)
    path.write_text("1,2,notanumber\n")
    with pytest.raises(ConfigError):
        load_point_cloud(path)
    path.write_text("")
    with pytest.raises(ConfigError):
        load_point_cloud(path)
    path.write_text("# dim=three\n1,2,3\n")
    with pytest.raises(ConfigError, match=r"bad\.csv: bad header at line 1"):
        load_point_cloud(path)


def test_cloud_load_drops_duplicates(tmp_path, caplog):
    path = tmp_path / "dup.csv"
    rows = ["1,2,3", "4,5,6", "1,2,3", "7,8,9", "0,0,1"]
    path.write_text("\n".join(rows) + "\n")
    with caplog.at_level("WARNING"):
        cloud = load_point_cloud(path)
    assert cloud.n == 4
    # first occurrence kept, original order preserved
    assert cloud.points[0].tolist() == [1, 2, 3]
    assert cloud.points[1].tolist() == [4, 5, 6]
    assert any("duplicate" in r.message for r in caplog.records)
