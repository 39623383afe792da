"""Oracles of the rotating-frame dynamics, kept beside the tests that
check the library's equations of motion with them.

`jacobi_constant` is the integral C = 2 U(r) - v.v the flow conserves,
and `integrate` runs the library's own vector field with scipy's
adaptive eighth-order Runge-Kutta method (DOP853), so a conservation or
time-reversal check on its trajectory checks the equations of motion
that the center-manifold sampler's Jacobian differentiates.
"""

import numpy as np
from scipy.integrate import solve_ivp

from torusforge.cr3bp import _check_mu, _primary_offsets, _vector_field


def augmented_potential(r, mu):
    """U(r) = (x^2 + y^2)/2 + (1 - mu)/|r1| + mu/|r2|."""
    mu = _check_mu(mu)
    r = np.asarray(r, dtype=np.float64)
    _, _, n1, n2 = _primary_offsets(r, mu)
    return 0.5 * (r[0] ** 2 + r[1] ** 2) + (1.0 - mu) / n1 + mu / n2


def jacobi_constant(state, mu):
    """Jacobi constant C = 2 U(r) - v.v of a state (x, y, z, vx, vy, vz)."""
    state = np.asarray(state, dtype=np.float64)
    v = state[3:6]
    return 2.0 * augmented_potential(state[:3], mu) - float(v @ v)


def integrate(state0, mu, t_span, tol=1e-12):
    """(ts, states): the flow of the library's equations of motion from
    state0 over [0, t_span], at DOP853's own steps, with relative and
    absolute tolerance `tol`."""
    sol = solve_ivp(lambda t, state: _vector_field(state, mu),
                    (0.0, float(t_span)), np.asarray(state0, dtype=np.float64),
                    method="DOP853", rtol=tol, atol=tol)
    assert sol.success, sol.message
    return sol.t, sol.y.T
