"""Rotating-frame dynamics: frozen-value oracles, conservation laws,
equilibria, and trajectory I/O."""

import numpy as np
import pytest
from scipy.optimize import brentq

from torusforge import cr3bp
from torusforge.errors import ConfigError, SingularityError

# Frozen with an independent symbolic evaluation (sympy, 25 digits) of
# the rotating-frame acceleration and Jacobi function at mu = 0.2,
# r = (0.5, 0.1, 0.05), v = (0.3, -0.2, 0.1).
ACC_ORACLE = (0.7562621374738478583155,
              -0.7340462417607733193297,
              -0.4170231208803866596649)
JACOBI_ORACLE = 3.626496065856362984365

MU = 0.2
STATE_REST = np.array([0.5, 0.1, 0.05, 0.0, 0.0, 0.0])
STATE_MOVING = np.array([0.5, 0.1, 0.05, 0.3, -0.2, 0.1])


def test_acceleration_matches_symbolic_oracle():
    acc = cr3bp.eom(STATE_REST, MU)
    assert acc == pytest.approx(ACC_ORACLE, rel=1e-14, abs=1e-15)


def test_coriolis_terms():
    # velocity enters only through (+2 vy, -2 vx, 0)
    acc0 = cr3bp.eom(STATE_REST, MU)
    acc1 = cr3bp.eom(STATE_MOVING, MU)
    delta = acc1 - acc0
    assert delta == pytest.approx([2 * (-0.2), -2 * 0.3, 0.0], abs=1e-15)


def test_jacobi_matches_symbolic_oracle():
    assert cr3bp.jacobi_constant(STATE_MOVING, MU) == pytest.approx(
        JACOBI_ORACLE, rel=1e-15)


def test_jacobi_is_two_u_minus_vsq():
    u = cr3bp.augmented_potential(STATE_MOVING[:3], MU)
    v = STATE_MOVING[3:]
    expected = 2 * u - float(v @ v)
    assert cr3bp.jacobi_constant(STATE_MOVING, MU) == expected


@pytest.mark.parametrize("mu", [0.5, 0.2, 0.01215, 1e-4])
def test_collinear_points_match_independent_root_finder(mu):
    """brentq on the generic x-axis acceleration (not the dedicated
    collinear polynomial) must land on the same roots."""

    def ax(x):
        return cr3bp.eom([x, 0.0, 0.0, 0.0, 0.0, 0.0], mu)[0]

    pts = {p.label: p for p in cr3bp.libration_points(mu)}
    eps = 1e-7
    brackets = {
        "L1": (-mu + eps, 1.0 - mu - eps),
        "L2": (1.0 - mu + eps, 3.0),
        "L3": (-3.0, -mu - eps),
    }
    for label, (a, b) in brackets.items():
        x_ref = brentq(ax, a, b, xtol=1e-15, rtol=8.9e-16)
        assert pts[label].position[0] == pytest.approx(x_ref, abs=1e-12)
        assert pts[label].position[1] == 0.0
        assert pts[label].position[2] == 0.0


@pytest.mark.parametrize("mu", [0.5, 0.2, 0.01215])
def test_equilateral_points_exact(mu):
    pts = {p.label: p for p in cr3bp.libration_points(mu)}
    assert pts["L4"].position.tolist() == [0.5 - mu, np.sqrt(3.0) / 2.0, 0.0]
    assert pts["L5"].position.tolist() == [0.5 - mu, -np.sqrt(3.0) / 2.0, 0.0]


@pytest.mark.parametrize("mu", [0.5, 0.2, 0.01215, 1e-4])
def test_acceleration_vanishes_at_all_libration_points(mu):
    for p in cr3bp.libration_points(mu):
        state = np.concatenate([p.position, np.zeros(3)])
        assert np.linalg.norm(cr3bp.eom(state, mu)) < 1e-10


@pytest.mark.parametrize("mu", [0.5, 0.2, 0.01215, 1e-4])
def test_jacobi_at_l4_closed_form(mu):
    # C(L4) = 3 - mu + mu^2 in these units
    pts = {p.label: p for p in cr3bp.libration_points(mu)}
    assert pts["L4"].jacobi == pytest.approx(3 - mu + mu * mu, abs=1e-12)
    assert pts["L5"].jacobi == pytest.approx(3 - mu + mu * mu, abs=1e-12)


def test_collinear_ordering():
    pts = {p.label: p for p in cr3bp.libration_points(0.01215)}
    x1, x2, x3 = (pts[k].position[0] for k in ("L1", "L2", "L3"))
    assert -0.01215 < x1 < 1 - 0.01215 < x2
    assert x3 < -0.01215


def test_jacobi_conservation_along_trajectory():
    mu = 0.01215
    s0 = np.array([1.5, 0.0, 0.1, 0.0, 0.5, 0.0])
    ts, states = cr3bp.integrate(s0, mu, 10.0, tol=1e-12)
    c0 = cr3bp.jacobi_constant(s0, mu)
    drift = max(abs(cr3bp.jacobi_constant(s, mu) - c0) for s in states)
    assert ts[-1] == pytest.approx(10.0)
    assert drift < 1e-9


def test_time_reversal_symmetry():
    """The flow commutes with (y, vx, vz) -> (-y, -vx, -vz) plus time
    reversal, so conjugating the endpoint and integrating forward again
    returns to the conjugated start."""
    mu = 0.01215
    flip = np.array([1, -1, 1, -1, 1, -1], dtype=np.float64)
    s0 = np.array([1.5, 0.0, 0.1, 0.0, 0.5, 0.0])
    _, fwd = cr3bp.integrate(s0, mu, 5.0, tol=1e-12)
    _, back = cr3bp.integrate(flip * fwd[-1], mu, 5.0, tol=1e-12)
    assert np.max(np.abs(back[-1] - flip * s0)) < 1e-9


def test_integrate_zero_span_returns_initial():
    ts, states = cr3bp.integrate(STATE_MOVING, MU, 0.0)
    assert ts.tolist() == [0.0]
    assert np.array_equal(states[0], STATE_MOVING)


def test_vector_field_layout():
    f = cr3bp.vector_field(0.0, STATE_MOVING, MU)
    assert np.array_equal(f[:3], STATE_MOVING[3:])
    assert np.array_equal(f[3:], cr3bp.eom(STATE_MOVING, MU))


@pytest.mark.parametrize("mu", [0.0, -0.1, 0.51, 2.0])
def test_mu_out_of_range(mu):
    with pytest.raises(ConfigError):
        cr3bp.eom(STATE_REST, mu)


def test_singularity_guard():
    mu = 0.2
    at_m1 = np.array([-mu, 0.0, 0.0, 0.0, 0.0, 0.0])
    at_m2 = np.array([1 - mu, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(SingularityError):
        cr3bp.eom(at_m1, mu)
    with pytest.raises(SingularityError):
        cr3bp.jacobi_constant(at_m2, mu)


def test_integrate_argument_validation():
    with pytest.raises(ConfigError):
        cr3bp.integrate(np.zeros(5), 0.2, 1.0)
    with pytest.raises(ConfigError):
        cr3bp.integrate(STATE_MOVING, 0.2, -1.0)


def test_jacobian_velocity_block():
    # position rows couple to velocity with identity; Coriolis block fixed
    mu = 0.01215
    l1 = next(p for p in cr3bp.libration_points(mu) if p.label == "L1")
    J = cr3bp.jacobian(l1.position, mu)
    assert np.allclose(J[:3, 3:], np.eye(3), atol=1e-9)
    coriolis = np.array([[0, 2, 0], [-2, 0, 0], [0, 0, 0]], dtype=float)
    assert np.allclose(J[3:, 3:], coriolis, atol=1e-9)
    assert np.allclose(J[:3, :3], 0.0, atol=1e-9)
