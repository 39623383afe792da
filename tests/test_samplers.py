"""Point-cloud samplers: surface membership, determinism, map dynamics,
linear center-manifold structure, and cloud I/O."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from torusforge import cr3bp
from torusforge.errors import ConfigError

from reference_cr3bp import jacobian
from torusforge.samplers import (PointCloud, _linear_flow, _pick_time_step,
                                 iterate_standard_map, load_point_cloud,
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
        assert sample_torus_revolution(2.0, 0.5, n, 0, "grid").n == n


def test_torus_deterministic_and_seed_sensitive():
    a = sample_torus_revolution(2.0, 0.5, 300, 42, "grid")
    b = sample_torus_revolution(2.0, 0.5, 300, 42, "grid")
    c = sample_torus_revolution(2.0, 0.5, 300, 43, "grid")
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_torus_grid_bounds_minimum_separation():
    """Jitter stays inside the central half of each grid cell, so no two
    samples can come close relative to the typical spacing."""
    cloud = sample_torus_revolution(2.0, 0.5, 2000, 0, "grid")
    d, _ = cKDTree(cloud.points).query(cloud.points, k=2)
    nn = d[:, 1]
    assert nn.min() > 0.3 * np.median(nn)


def test_torus_argument_validation():
    with pytest.raises(ConfigError):
        sample_torus_revolution(0.5, 2.0, 100, 0, "grid")
    with pytest.raises(ConfigError):
        sample_torus_revolution(2.0, 0.5, 8, 0, "grid")
    with pytest.raises(ConfigError):
        sample_torus_revolution(2.0, 0.5, 100, 0, distribution="sobol")


def test_standard_map_single_step_by_hand():
    orbit = iterate_standard_map(K1=0.3, K2=0.7, theta1=1.1, theta2=2.2,
                                 p1=0.4, p2=0.9, N=4)
    assert np.array_equal(orbit[0], [1.1, 0.4, 2.2, 0.9])
    p1 = (0.4 + 0.3 * np.sin(1.1)) % TWO_PI
    t1 = (1.1 + p1) % TWO_PI
    p2 = (0.9 + 0.7 * np.sin(2.2)) % TWO_PI
    t2 = (2.2 + p2) % TWO_PI
    assert orbit[1] == pytest.approx([t1, p1, t2, p2], abs=1e-15)


def test_standard_map_zero_k_preserves_momenta():
    orbit = iterate_standard_map(K1=0.0, K2=0.0, theta1=0.0, theta2=0.0,
                                 p1=1.3, p2=0.7, N=200)
    assert np.max(np.abs(orbit[:, 1] - 1.3)) < 1e-12
    assert np.max(np.abs(orbit[:, 3] - 0.7)) < 1e-12


def test_standard_map_rational_rotation_is_periodic():
    orbit = iterate_standard_map(K1=0.0, K2=0.0, theta1=0.0, theta2=0.0,
                                 p1=TWO_PI / 8, p2=TWO_PI / 8, N=20)
    assert np.max(np.abs(orbit[8] - orbit[0])) < 1e-12
    assert np.max(np.abs(orbit[16] - orbit[0])) < 1e-12


def test_standard_map_periodic_orbit_rejected_as_cloud():
    # an 8-periodic orbit yields duplicate embedded points
    with pytest.raises(ConfigError):
        sample_standard_map_torus(K1=0.0, K2=0.0, theta1=0.0, theta2=0.0,
                                  p1=TWO_PI / 8, p2=TWO_PI / 8, N=100)


def test_standard_map_embedding_on_clifford_torus():
    cloud = sample_standard_map_torus(K1=0.3, K2=0.3, theta1=0.0, theta2=0.0,
                                      p1=0.6180339887498949,
                                      p2=0.41421356237309515, N=800)
    assert cloud.dim == 4
    assert cloud.n == 800
    assert cloud.provenance == "standard_map"
    p = cloud.points
    assert np.max(np.abs(p[:, 0] ** 2 + p[:, 1] ** 2 - 1)) < 1e-12
    assert np.max(np.abs(p[:, 2] ** 2 + p[:, 3] ** 2 - 1)) < 1e-12


def test_standard_map_config_validation():
    """A negative stochasticity parameter or fewer than 4 iterates stops
    both the iteration and the sampler."""
    start = dict(theta1=0.0, theta2=0.0, p1=0.6180339887498949,
                 p2=0.41421356237309515)
    for fn in (iterate_standard_map, sample_standard_map_torus):
        with pytest.raises(ConfigError, match="stochasticity"):
            fn(K1=-0.1, K2=0.0, N=1000, **start)
        with pytest.raises(ConfigError, match="4 iterates"):
            fn(K1=0.0, K2=0.0, N=3, **start)


@pytest.fixture(scope="module")
def l2_point():
    return next(p for p in cr3bp.libration_points(0.01215)
                if p.label == "L2")


COLLINEAR = [(mu, label) for mu in (1e-4, 0.01215, 0.2, 0.5)
             for label in ("L1", "L2", "L3")]


def oracle_center_pairs(mu, label):
    """(om_planar, om_vertical): the center eigenvalues of the oracle's
    central-difference Jacobian at a collinear point, told apart by
    where their eigenvectors carry their mass."""
    point = next(p for p in cr3bp.libration_points(mu) if p.label == label)
    vals, vecs = np.linalg.eig(jacobian(point.position, mu))
    centers = [i for i in range(6)
               if abs(vals[i].real) < 1e-6 * np.max(np.abs(vals))
               and vals[i].imag > 0]
    assert len(centers) == 2
    vertical = [np.sum(np.abs(vecs[[2, 5], i]) ** 2) > 0.5 for i in centers]
    assert sorted(vertical) == [False, True]
    om = {v: vals[i].imag for v, i in zip(vertical, centers)}
    return om[False], om[True]


def test_center_manifold_model_frequencies():
    """At L1-L3 for each mu, c > 1, om_v^2 = c, and the closed form's two
    frequencies are the center eigenvalues of the oracle's
    central-difference Jacobian of the equations of motion (their own
    error is about 1e-10 at these mu; it reaches 3.6e-8 at mu = 1e-6,
    which is left out)."""
    for mu, label in COLLINEAR:
        x = next(p for p in cr3bp.libration_points(mu)
                 if p.label == label).position[0]
        c = (1 - mu) / abs(x + mu) ** 3 + mu / abs(x - 1 + mu) ** 3
        assert c > 1, (mu, label)
        om_p, om_v, _ = _linear_flow(mu, label, 5e-3, 5e-3)
        assert om_v ** 2 == pytest.approx(c, rel=1e-15)
        ref_p, ref_v = oracle_center_pairs(mu, label)
        assert abs(om_p - ref_p) < 1e-8, (mu, label)
        assert abs(om_v - ref_v) < 1e-8, (mu, label)


def test_center_manifold_rejects_equilateral_point():
    for label in ("L4", "L5"):
        with pytest.raises(ConfigError, match=label):
            _linear_flow(0.01215, label, 5e-3, 5e-3)


@pytest.mark.parametrize("label", ["L4", "L7"])
def test_center_manifold_sampler_rejects_label(label):
    """The sampler takes a collinear point's label: an equilateral point
    or a name that is no libration point stops with ConfigError naming it."""
    with pytest.raises(ConfigError, match=label):
        sample_center_manifold_torus(0.01215, label, 5e-3, 5e-3, 600)


def test_center_manifold_cloud_shape():
    cloud = sample_center_manifold_torus(0.01215, "L2", 5e-3, 5e-3, 600)
    assert cloud.dim == 6
    assert cloud.n == 600
    assert cloud.provenance == "cr3bp_linear"


def test_center_manifold_linear_dynamics_second_order():
    """At L1-L3 for each mu, the sampler's closed form obeys dx/dt = J x,
    J the oracle's central-difference Jacobian; the centered difference
    error must shrink quadratically with the time step."""
    for mu, label in COLLINEAR:
        point = next(p for p in cr3bp.libration_points(mu)
                     if p.label == label)
        J = jacobian(point.position, mu)
        center = np.concatenate([point.position, np.zeros(3)])
        _, _, orbit = _linear_flow(mu, label, 5e-3, 5e-3)
        errs = []
        for dt in (0.01, 0.005):
            x = orbit(np.arange(64) * dt) - center
            fd = (x[2:] - x[:-2]) / (2 * dt)
            errs.append(np.max(np.abs(fd - x[1:-1] @ J.T)))
        assert errs[0] < 1e-5, (mu, label)
        assert errs[1] < errs[0] / 3.0, (mu, label)


def one_mode_points(amp_planar, amp_vertical, n=500):
    """The n points the sampler would take from the linear flow with one
    amplitude zero, a closed curve that the sampler refuses."""
    om_p, om_v, orbit = _linear_flow(0.01215, "L2", amp_planar, amp_vertical)
    return orbit(np.arange(n) * _pick_time_step(om_p, om_v, n))


def test_center_manifold_vertical_amp_zero_is_planar(l2_point):
    off = (one_mode_points(5e-3, 0.0)
           - np.concatenate([l2_point.position, np.zeros(3)]))
    assert np.max(np.abs(off[:, [2, 5]])) == 0.0
    # amplitude calibration: positional excursion tops out at amp_planar
    exc = np.linalg.norm(off[:, :3], axis=1)
    assert exc.max() <= 5e-3 * (1 + 1e-9)
    assert exc.max() > 0.9 * 5e-3


def test_center_manifold_planar_amp_zero_is_vertical(l2_point):
    off = (one_mode_points(0.0, 4e-3)
           - np.concatenate([l2_point.position, np.zeros(3)]))
    assert np.max(np.abs(off[:, [0, 1, 3, 4]])) < 1e-12
    assert np.abs(off[:, 2]).max() == pytest.approx(4e-3, rel=0.1)


def test_center_manifold_freq_override(l2_point):
    """The planar frequency the flow returns, which picks the sampler's
    time step, drives the sampled phases: with the vertical mode off,
    every coordinate must lie exactly in span{cos(om t), sin(om t)} at
    that rate."""
    om_p, _, orbit = _linear_flow(0.01215, "L2", 5e-3, 0.0)
    center = np.concatenate([l2_point.position, np.zeros(3)])
    t = np.arange(128) * 0.05
    x = orbit(t) - center
    basis = np.column_stack([np.cos(om_p * t), np.sin(om_p * t)])
    for col in range(6):
        coef, *_ = np.linalg.lstsq(basis, x[:, col], rcond=None)
        assert np.max(np.abs(x[:, col] - basis @ coef)) < 1e-12


def test_center_manifold_amp_validation():
    with pytest.raises(ConfigError):
        sample_center_manifold_torus(0.01215, "L2", 0.0, 0.0, 100)
    with pytest.raises(ConfigError):
        sample_center_manifold_torus(0.01215, "L2", -1e-3, 1e-3, 100)
    with pytest.raises(ConfigError):
        sample_center_manifold_torus(0.01215, "L2", 1e-3, 1e-3, 3)


@pytest.mark.parametrize("amps", [(5e-3, 0.0), (0.0, 5e-3)])
def test_center_manifold_one_zero_amplitude_is_refused(amps):
    """With one amplitude zero the flow is one mode's closed curve, not a
    torus; the sampler stops with ConfigError naming both amplitudes
    instead of leaving the kNN graph or the generator split to fail on
    it."""
    with pytest.raises(ConfigError, match="amp_planar=.*amp_vertical=") as err:
        sample_center_manifold_torus(0.01215, "L2", *amps, 6000)
    assert "closed curve" in str(err.value)


@pytest.mark.parametrize("amps", [(np.nan, 5e-3), (5e-3, np.nan),
                                  (np.nan, np.nan)])
def test_center_manifold_nan_amplitude_is_refused(amps):
    """A NaN amplitude is no amplitude: it stops with ConfigError naming
    both, rather than being read as zero (a rank-2 loop, not a torus)."""
    with pytest.raises(ConfigError, match="amp_planar=.*amp_vertical="):
        sample_center_manifold_torus(0.01215, "L2", *amps, 600)


def test_point_cloud_dim_is_width():
    """Any embedding dimension D >= 3 is a cloud, and D is the width of
    its points; fewer than three columns, or a 1-D array, is not."""
    rng = np.random.default_rng(0)
    for width in (3, 7, 12):
        assert PointCloud(rng.random((10, width))).dim == width
    for bad in (rng.random((10, 2)), rng.random(10)):
        with pytest.raises(ConfigError, match="D >= 3"):
            PointCloud(bad)


def test_point_cloud_validation():
    good = np.random.default_rng(0).random((10, 4))
    with pytest.raises(ConfigError):
        PointCloud(np.vstack([good, good[:1]]))
    bad = good.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ConfigError):
        PointCloud(bad)
    with pytest.raises(ConfigError):
        PointCloud(good, provenance="mystery")


def test_cloud_csv_round_trip_exact(tmp_path):
    """CSV is the one cloud format, whatever the path's extension, and
    it keeps the sampler's provenance."""
    cloud = sample_torus_revolution(2.0, 0.5, 64, 3, "grid")
    for name in ("cloud.csv", "cloud.txt", "cloud.CSV"):
        path = tmp_path / name
        save_point_cloud(path, cloud)
        assert path.read_text().startswith(
            "# dim=3\n# provenance=synthetic\n")
        back = load_point_cloud(path)
        assert back.dim == 3
        assert np.array_equal(back.points, cloud.points)
        assert back.provenance == "synthetic"


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


def test_cloud_rows_are_what_loadtxt_reads(tmp_path, recwarn):
    """A row is what `np.loadtxt(delimiter=",", comments="#")` reads:
    blank and indented comment lines are skipped, text after a row's "#"
    is a note, float spellings such as " 2 " and "1e400" parse as float
    reads them, and digit-group underscores are refused."""
    path = tmp_path / "cloud.csv"
    path.write_text("# dim=3\n  # indented\n\n 2 ,0,1 # note\n0,1,0\n"
                    "1,0,0\n1,1,-1e-320\n")
    points = load_point_cloud(path).points
    assert points.tolist() == [[2, 0, 1], [0, 1, 0], [1, 0, 0],
                               [1, 1, -1e-320]]
    path.write_text("1e400,0,1\n0,1,0\n1,0,0\n1,1,1\n")
    with pytest.raises(ConfigError, match="non-finite"):
        load_point_cloud(path)
    path.write_text("1_0,0,1\n0,1,0\n1,0,0\n1,1,1\n")
    with pytest.raises(ConfigError, match="could not convert string '1_0'"):
        load_point_cloud(path)
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ConfigError, match="number of columns changed"):
        load_point_cloud(path)
    # a file of comments and blank lines stops before numpy parses it, so
    # numpy's empty-input warning never fires
    path.write_text("# dim=3\n\n  \n")
    with pytest.raises(ConfigError, match="no data rows"):
        load_point_cloud(path)
    assert not recwarn.list


@pytest.mark.parametrize("text, problem", [
    ("1,2\n3,4\n5,6\n7,8\n", "D >= 3"),
    ("1,2,3\n4,5,6\n7,8,nan\n0,0,1\n", "non-finite"),
    ("1,2,3\n4,5,6\n7,8,9\n", "at least 4 points"),
    ("# provenance=scanner\n1,2,3\n4,5,6\n7,8,9\n0,0,1\n", "provenance")],
    ids=["2-columns", "nan", "3-points", "unknown-provenance"])
def test_cloud_load_errors_name_the_file(tmp_path, text, problem):
    """Every cloud the file's rows do not make names the file."""
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=problem) as err:
        load_point_cloud(path)
    assert str(err.value).startswith(f"{path}: ")


def test_cloud_load_drops_duplicates(tmp_path, caplog):
    path = tmp_path / "dup.csv"
    rows = ["1,2,3", "4,5,6", "1,2,3", "7,8,9", "0,0,1"]
    path.write_text("\n".join(rows) + "\n")
    with caplog.at_level("WARNING"):
        cloud = load_point_cloud(path)
    assert cloud.n == 4
    assert cloud.provenance == "external"     # no "# provenance=" line
    # first occurrence kept, original order preserved
    assert cloud.points[0].tolist() == [1, 2, 3]
    assert cloud.points[1].tolist() == [4, 5, 6]
    assert any("duplicate" in r.message for r in caplog.records)
