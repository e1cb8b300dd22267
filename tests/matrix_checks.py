"""Matrix comparison shared by the test modules."""

import numpy as np

from qptsim.algebra import EQUALITY_TOL


def mat_close(a, b, tol: float = EQUALITY_TOL) -> bool:
    """Equal shapes and every |a - b| within the absolute ``tol``; a NaN is never close."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= tol)
