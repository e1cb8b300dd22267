"""Matrix comparison and qubit reordering shared by the test modules."""

import numpy as np

from qptsim.algebra import EQUALITY_TOL


def mat_close(a, b, tol: float = EQUALITY_TOL) -> bool:
    """Equal shapes and every |a - b| within the absolute ``tol``; a NaN is never close."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= tol)


def permute_qubits(m, perm) -> np.ndarray:
    """Reorder the tensor factors of an n-qubit operator.

    ``perm[k]`` is the old slot of the qubit that lands in slot k of the
    result, applied to row and column indices alike.
    """
    n = len(perm)
    axes = list(perm) + [n + p for p in perm]
    return np.asarray(m).reshape([2] * (2 * n)).transpose(axes).reshape(2**n, 2**n)
