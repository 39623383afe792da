"""Oracles of the rotating-frame dynamics, kept beside the tests that
check the library with them.

`eom` is the CR3BP's equations of motion, `vector_field` their
first-order form, and `jacobian` that form's 6x6 Jacobian by central
differences, whose center eigenpairs check the closed-form linear flow
the center-manifold sampler uses. `jacobi_constant` is the integral
C = 2 U(r) - v.v the flow conserves, and `integrate` runs `vector_field`
with scipy's adaptive eighth-order Runge-Kutta method (DOP853), so a
conservation or time-reversal check on its trajectory checks the
equations of motion themselves.
"""

import numpy as np
from scipy.integrate import solve_ivp

from torusforge.cr3bp import _check_mu

_R_MIN = 1e-12
_JACOBIAN_STEP = 1e-6      # central-difference step of `jacobian`


class SingularityError(Exception):
    """State evaluated at (or numerically on top of) a primary body."""


def primary_offsets(r, mu):
    """Vectors from each primary to the position r, per r1/r2 convention,
    and their norms."""
    r = np.asarray(r, dtype=np.float64)
    r1 = np.array([r[0] + mu, r[1], r[2]])
    r2 = np.array([r[0] - 1.0 + mu, r[1], r[2]])
    n1 = np.linalg.norm(r1)
    n2 = np.linalg.norm(r2)
    if n1 < _R_MIN or n2 < _R_MIN:
        raise SingularityError(
            f"state within {_R_MIN} of a primary (|r1|={n1:.3e}, |r2|={n2:.3e})"
        )
    return r1, r2, n1, n2


def eom(state, mu):
    """Acceleration (xddot, yddot, zddot) of the CR3BP rotating frame at
    a state (x, y, z, vx, vy, vz), mu in (0, 0.5]."""
    mu = _check_mu(mu)
    state = np.asarray(state, dtype=np.float64)
    x, y, z, vx, vy, vz = state
    r1, r2, n1, n2 = primary_offsets(state[:3], mu)
    c1 = (1.0 - mu) / n1**3
    c2 = mu / n2**3
    ax = -(c1 * r1[0] + c2 * r2[0]) + x + 2.0 * vy
    ay = -(c1 * y + c2 * y) + y - 2.0 * vx
    az = -(c1 * z + c2 * z)
    return np.array([ax, ay, az])


def vector_field(state, mu):
    """First-order form of the equations of motion: (velocity, eom)."""
    a = eom(state, mu)
    return np.array([state[3], state[4], state[5], a[0], a[1], a[2]])


def jacobian(point, mu):
    """6x6 Jacobian of the vector field at a position, by central
    differences. The velocity is taken as zero, which does not affect the
    derivative: the velocity coupling is linear."""
    mu = _check_mu(mu)
    state0 = np.zeros(6)
    state0[:3] = np.asarray(point, dtype=np.float64)
    J = np.zeros((6, 6))
    for j in range(6):
        dp = np.zeros(6)
        dp[j] = _JACOBIAN_STEP
        fp = vector_field(state0 + dp, mu)
        fm = vector_field(state0 - dp, mu)
        J[:, j] = (fp - fm) / (2.0 * _JACOBIAN_STEP)
    return J


def augmented_potential(r, mu):
    """U(r) = (x^2 + y^2)/2 + (1 - mu)/|r1| + mu/|r2|."""
    mu = _check_mu(mu)
    r = np.asarray(r, dtype=np.float64)
    _, _, n1, n2 = primary_offsets(r, mu)
    return 0.5 * (r[0] ** 2 + r[1] ** 2) + (1.0 - mu) / n1 + mu / n2


def jacobi_constant(state, mu):
    """Jacobi constant C = 2 U(r) - v.v of a state (x, y, z, vx, vy, vz)."""
    state = np.asarray(state, dtype=np.float64)
    v = state[3:6]
    return 2.0 * augmented_potential(state[:3], mu) - float(v @ v)


def integrate(state0, mu, t_span, tol=1e-12):
    """(ts, states): the flow of `vector_field` from state0 over
    [0, t_span], at DOP853's own steps, with relative and absolute
    tolerance `tol`."""
    sol = solve_ivp(lambda t, state: vector_field(state, mu),
                    (0.0, float(t_span)), np.asarray(state0, dtype=np.float64),
                    method="DOP853", rtol=tol, atol=tol)
    assert sol.success, sol.message
    return sol.t, sol.y.T
