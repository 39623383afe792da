"""The cycle-constraint solve by SuperLU on a square system, kept beside
the tests as the oracle of the library's integer cocycle.

`splu_cocycle` factors an m x m system of cycle rows on the non-tree
coordinates, the toroidal and poloidal generator rows first, and solves
it for the periods (1, 0) and (0, 1) on those two rows, in floating
point.
"""

import numpy as np
from scipy.sparse.linalg import splu


def splu_cocycle(M):
    """The float (m, 2) correction psi with M psi = [e_0, e_1], by one
    SuperLU factor of the square M."""
    lu = splu(M.tocsc().astype(float))
    return np.column_stack([lu.solve(np.eye(1, M.shape[0], k)[0])
                            for k in range(2)])
