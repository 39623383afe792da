"""The cycle-constraint solve as SuperLU ran it on the whole cycle matrix,
kept beside the tests as the oracle of the library's integer cocycle.

`splu_cocycle` factors C[:, nontree], the m x m cycle rows on the
non-tree coordinates, and solves it for the periods (1, 0) and (0, 1) on
the two generator rows, in floating point.
"""

import numpy as np
from scipy.sparse.linalg import splu


def splu_cocycle(C, nontree):
    """The float (m, 2) correction psi with C[:, nontree] psi =
    [e_{m-2}, e_{m-1}], by one SuperLU factor of C[:, nontree]."""
    m = len(nontree)
    lu = splu(C[:, nontree].tocsc())
    return np.column_stack([lu.solve(np.eye(1, m, m - 2 + k)[0])
                            for k in range(2)])
