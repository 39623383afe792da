"""Libration points of the circular restricted three-body problem.

Barycentric rotating-frame normalized units throughout: the primaries sit
at (-mu, 0, 0) and (1 - mu, 0, 0), the mean motion and the separation are
both 1, and the mass parameter is mu = m2 / (m1 + m2) with mu in (0, 0.5]
(the symmetric boundary mu = 0.5 is accepted for tests).

The center-manifold sampler needs only a collinear point from here: its
linear flow has a closed form in the point's position, so the equations
of motion live beside the tests, as the oracle that checks that form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _check_mu(mu):
    mu = float(mu)
    if not (0.0 < mu <= 0.5):
        raise ConfigError(f"mass parameter mu={mu} outside (0, 0.5]")
    return mu


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
