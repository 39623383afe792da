"""Circular restricted three-body problem dynamics in the rotating frame.

Barycentric rotating-frame normalized units throughout: the primaries sit
at (-mu, 0, 0) and (1 - mu, 0, 0), the mean motion and the separation are
both 1, and the mass parameter is mu = m2 / (m1 + m2) with mu in (0, 0.5]
(the symmetric boundary mu = 0.5 is accepted for tests).

The center-manifold sampler needs two things from here: the libration
points and the Jacobian of the vector field at one of them. The
equations of motion stay private to that Jacobian.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularityError

_R_MIN = 1e-12
_JACOBIAN_STEP = 1e-6      # central-difference step of `jacobian`


def _check_mu(mu):
    mu = float(mu)
    if not (0.0 < mu <= 0.5):
        raise ConfigError(f"mass parameter mu={mu} outside (0, 0.5]")
    return mu


def _primary_offsets(r, mu):
    """Vectors from each primary to the position r, per r1/r2 convention."""
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


def _eom(state, mu):
    """Acceleration (xddot, yddot, zddot) of the CR3BP rotating frame.

    Parameters
    ----------
    state : array-like, shape (6,)
        (x, y, z, vx, vy, vz) in normalized rotating-frame units.
    mu : float
        Mass parameter in (0, 0.5].

    Returns
    -------
    ndarray, shape (3,)
    """
    mu = _check_mu(mu)
    state = np.asarray(state, dtype=np.float64)
    x, y, z, vx, vy, vz = state
    r1, r2, n1, n2 = _primary_offsets(state[:3], mu)
    c1 = (1.0 - mu) / n1**3
    c2 = mu / n2**3
    ax = -(c1 * r1[0] + c2 * r2[0]) + x + 2.0 * vy
    ay = -(c1 * y + c2 * y) + y - 2.0 * vx
    az = -(c1 * z + c2 * z)
    return np.array([ax, ay, az])


def _vector_field(state, mu):
    """First-order form of the equations of motion: (velocity, _eom)."""
    a = _eom(state, mu)
    return np.array([state[3], state[4], state[5], a[0], a[1], a[2]])


@dataclass(frozen=True)
class LibrationPoint:
    label: str
    position: np.ndarray


def _collinear_condition(x, mu):
    # x-axis force balance: xddot at (x, 0, 0) with zero velocity
    d1 = x + mu
    d2 = x - 1.0 + mu
    return x - (1.0 - mu) * d1 / abs(d1) ** 3 - mu * d2 / abs(d2) ** 3


def _bisect(f, a, b):
    """Bracketed bisection to machine precision; f(a), f(b) must differ in sign."""
    fa = f(a)
    fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise ConfigError(f"root not bracketed on [{a}, {b}]")
    for _ in range(200):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def libration_points(mu):
    """The five rotating-frame equilibria (with v = 0).

    L1-L3 are located by bracketed bisection on the collinear condition over
    the three fixed intervals (between the bodies, beyond m2, beyond m1);
    L4/L5 sit at the equilateral-triangle vertices (1/2 - mu, +-sqrt(3)/2, 0).
    """
    mu = _check_mu(mu)
    eps = 1e-9
    f = lambda x: _collinear_condition(x, mu)
    x1 = _bisect(f, -mu + eps, 1.0 - mu - eps)
    x2 = _bisect(f, 1.0 - mu + eps, 3.0)
    x3 = _bisect(f, -3.0, -mu - eps)
    pts = [
        ("L1", np.array([x1, 0.0, 0.0])),
        ("L2", np.array([x2, 0.0, 0.0])),
        ("L3", np.array([x3, 0.0, 0.0])),
        ("L4", np.array([0.5 - mu, np.sqrt(3.0) / 2.0, 0.0])),
        ("L5", np.array([0.5 - mu, -np.sqrt(3.0) / 2.0, 0.0])),
    ]
    return [LibrationPoint(label, pos) for label, pos in pts]


def jacobian(point, mu):
    """6x6 Jacobian of the vector field at a position, by central differences.

    `point` is a 3-vector (velocity taken as zero, which does not affect the
    derivative: the velocity coupling is linear and exact here).
    """
    mu = _check_mu(mu)
    state0 = np.zeros(6)
    state0[:3] = np.asarray(point, dtype=np.float64)
    J = np.zeros((6, 6))
    for j in range(6):
        dp = np.zeros(6)
        dp[j] = _JACOBIAN_STEP
        fp = _vector_field(state0 + dp, mu)
        fm = _vector_field(state0 - dp, mu)
        J[:, j] = (fp - fm) / (2.0 * _JACOBIAN_STEP)
    return J
