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
    """Bracketed bisection to machine precision; None if f(a), f(b) share a sign."""
    fa = f(a)
    fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        return None
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
    pts = []
    for label, a, b in (("L1", -mu + eps, 1.0 - mu - eps),
                        ("L2", 1.0 - mu + eps, 3.0), ("L3", -3.0, -mu - eps)):
        x = _bisect(f, a, b)
        if x is None:
            raise ConfigError(
                f"{label} at mu={mu} lies about (mu/3)^(1/3) from m2, inside "
                f"the bisection's {eps:g} margin; use mu above 3e-27")
        pts.append((label, np.array([x, 0.0, 0.0])))
    pts += [("L4", np.array([0.5 - mu, np.sqrt(3.0) / 2.0, 0.0])),
            ("L5", np.array([0.5 - mu, -np.sqrt(3.0) / 2.0, 0.0]))]
    return [LibrationPoint(label, pos) for label, pos in pts]
