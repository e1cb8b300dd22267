"""Complex linear algebra core and the bipartite state model.

All values are small dense ``numpy`` arrays (2x2 up to 64x64, complex128).
A pure state of n photon pairs is identified with its 2^n x 2^n coefficient
matrix Psi via ``|Psi>> = sum_nm Psi_nm |nm>``, n indexing the device arms
(beam 1 of each pair, the first pair leading) and m the untouched arms, so
one pair is |00>, |01>, |10>, |11> and n pairs have Psi_1 x .. x Psi_n.
Arrays handed out by this module are marked read-only, and every operation
is a pure function, so values are safe to share across threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional

import numpy as np

from .errors import shown

# Absolute tolerances: equality of normalizations, and slack of hermiticity
# and positivity checks.
EQUALITY_TOL = 1e-12
PSD_SLACK = 1e-10

# Smallest singular value of a coefficient matrix still considered full-rank.
FULL_RANK_MIN_SV = 1e-7


def _check_real(what: str, v) -> None:
    """Refuse ``v`` with ValueError unless it is a real number; numpy reals
    pass, bools and strings do not."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {shown(v)}")


def _frozen(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.setflags(write=False)
    return out


_PAULI = tuple(
    _frozen(m)
    for m in (
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    )
)


def pauli(i: int) -> np.ndarray:
    """Pauli matrix for tetra-vector index i: 0=identity, 1=x, 2=y, 3=z.

    The index-to-matrix map is fixed package-wide: sigma_z is diagonal in
    the horizontal/vertical encoding (|0> horizontal), and sigma_y is the
    standard [[0,-i],[i,0]].
    """
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or i not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be an integer in 0..3, got {shown(i)}")
    return _PAULI[i]


# _PAULI_STACK[i, r, c] is element (r, c) of sigma_i.
_PAULI_STACK = np.stack(_PAULI)
_PAULI_STACK.setflags(write=False)
# The stack as the right operand of each contraction below, in the layout
# np.tensordot would build: rows i and columns (r, c) to expand, rows (c, r)
# and columns i to take coefficients.
_PAULI_ROWS = _PAULI_STACK.reshape(4, 4)
_PAULI_COLS = _PAULI_STACK.transpose(2, 1, 0).reshape(4, 4)
_PAULI_COLS.setflags(write=False)


def pauli_expand(coeffs: np.ndarray, batched: bool = False) -> np.ndarray:
    """Operator sum_{i..l} c[i, .., l] sigma_i x .. x sigma_l on k qubits.

    ``coeffs`` has shape (4,)*k; the result is 2^k x 2^k with the first
    index acting on the first tensor factor.  With ``batched`` axis 0 of
    ``coeffs`` indexes B coefficient tables and the result is (B, 2^k, 2^k).
    """
    t = np.asarray(coeffs)
    lead = t.shape[:1] if batched else ()
    n = len(lead)
    k = t.ndim - n
    if t.shape[n:] != (4,) * k:
        raise ValueError(f"Pauli coefficients must have shape (4,)*k, got {t.shape}")
    for _ in range(k):
        # contract the leading Pauli index; its (row, col) pair moves to the end
        rest = t.shape[:n] + t.shape[n + 1 :]
        axes = [*range(n), *range(n + 1, t.ndim), n]
        t = np.dot(t.transpose(axes).reshape(-1, 4), _PAULI_ROWS).reshape(rest + (2, 2))
    axes = list(range(n)) + [n + a for a in range(0, 2 * k, 2)]
    axes += [n + a for a in range(1, 2 * k, 2)]
    return t.transpose(axes).reshape(lead + (2**k, 2**k))


def pauli_coefficients(op: np.ndarray) -> np.ndarray:
    """Re Tr[op sigma_i x .. x sigma_l] for every index tuple, shape (4,)*k."""
    op = np.asarray(op)
    k = op.shape[0].bit_length() - 1 if op.ndim == 2 else 0
    if k < 1 or op.shape != (2**k, 2**k):
        raise ValueError(f"expected a 2^k x 2^k operator, got shape {op.shape}")
    axes = [a for q in range(k) for a in (q, k + q)]
    t = op.reshape([2] * (2 * k)).transpose(axes)
    for _ in range(k):
        # Tr picks op[r, c] sigma[c, r] for the leading qubit's (r, c) pair
        rest = t.shape[2:]
        t = np.dot(t.transpose([*range(2, t.ndim), 0, 1]).reshape(-1, 4), _PAULI_COLS)
        t = t.reshape(rest + (4,))
    return t.real


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conjugate(np.asarray(m)).swapaxes(-1, -2)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices: the products np.kron forms, as one
    broadcast multiply."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("tensor expects two matrices")
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(shape)


def mat_close(a: np.ndarray, b: np.ndarray, tol: float = EQUALITY_TOL) -> bool:
    """Element-wise equality within an explicit absolute tolerance."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= tol)


def double_ket(m: np.ndarray) -> np.ndarray:
    """Vector of |M>> = sum_nm M_nm |nm> (row-major flatten)."""
    return np.asarray(m, dtype=complex).reshape(-1)


def permute_qubits(m: np.ndarray, perm) -> np.ndarray:
    """Reorder the tensor factors of an n-qubit operator.

    ``perm[k]`` is the old slot of the qubit that lands in slot k of the
    result, applied to row and column indices alike.
    """
    m = np.asarray(m)
    n = len(perm)
    if m.shape != (2**n, 2**n):
        raise ValueError(f"operator shape {m.shape} does not match {n} qubits")
    axes = list(perm) + [n + p for p in perm]
    return m.reshape([2] * (2 * n)).transpose(axes).reshape(2**n, 2**n)


def is_density_matrix(rho: np.ndarray) -> bool:
    """Hermitian, unit trace, eigenvalues >= -PSD_SLACK."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if np.max(np.abs(rho - dagger(rho))) > PSD_SLACK:
        return False
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > PSD_SLACK:
        return False
    return bool(np.min(np.linalg.eigvalsh(rho)) >= -PSD_SLACK)


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """State of n photon pairs, grouped as (device arms | untouched arms).

    Pure states carry their d x d coefficient matrix (d = 2^n); mixed states
    only the d^2 x d^2 density matrix.  One pair is the two-qubit case.
    """

    coeffs: Optional[np.ndarray]
    density: np.ndarray
    pure: bool

    @classmethod
    def from_coeffs(cls, psi: np.ndarray) -> "BipartiteState":
        psi = np.asarray(psi, dtype=complex)
        d = psi.shape[0] if psi.ndim == 2 else 0
        if psi.shape != (d, d) or d < 2 or d & (d - 1):
            raise ValueError(f"coefficient matrix must be 2^n x 2^n, got {psi.shape}")
        # no entry of a normalized matrix exceeds 1 in modulus; this also refuses NaN,
        # infinity and entries whose squares overflow
        if not np.all(np.abs(psi) <= 1.0 + EQUALITY_TOL):
            raise ValueError("coefficient matrix entries must be finite, of modulus at most 1")
        norm = float(np.sum(np.abs(psi) ** 2))
        if abs(norm - 1.0) > EQUALITY_TOL:
            raise ValueError(f"coefficient matrix is not normalized (sum |Psi|^2 = {norm!r})")
        v = psi.reshape(-1)
        rho = np.outer(v, v.conj())
        return cls(coeffs=_frozen(psi), density=_frozen(rho), pure=True)

    @classmethod
    def from_density(cls, rho: np.ndarray) -> "BipartiteState":
        rho = np.asarray(rho, dtype=complex)
        d = int(np.sqrt(rho.shape[0])) if rho.ndim == 2 else 0
        if rho.shape != (d * d, d * d) or d < 2 or d & (d - 1):
            raise ValueError(f"density matrix must be 4^n x 4^n, got {rho.shape}")
        if not is_density_matrix(rho):
            raise ValueError("not a valid density matrix (hermiticity/trace/positivity)")
        return cls(coeffs=None, density=_frozen(rho), pure=False)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Descending singular values of the coefficient matrix, taken once."""
        if not self.pure:
            raise ValueError("singular values are defined for pure states only")
        sv = np.linalg.svd(self.coeffs, compute_uv=False)
        sv.setflags(write=False)
        return sv

    @cached_property
    def coeffs_inverse(self) -> np.ndarray:
        """Inverse of the coefficient matrix of a faithful probe, taken once."""
        if not self.full_rank:
            raise ValueError("only a full-rank pure state has an inverse coefficient matrix")
        return _frozen(np.linalg.inv(self.coeffs))

    @property
    def full_rank(self) -> bool:
        """Whether the coefficient matrix is invertible (faithful probe)."""
        return bool(self.singular_values[-1] > FULL_RANK_MIN_SV)


def pairs(*states: BipartiteState) -> BipartiteState:
    """The n pairs side by side, Psi_1 x .. x Psi_n; pure states only."""
    if not states:
        raise ValueError("pairs needs at least one state")
    if not all(s.pure for s in states):
        raise ValueError("pairs combines pure states only")
    return BipartiteState.from_coeffs(reduce(tensor, [s.coeffs for s in states]))


def bell_state(j: int) -> BipartiteState:
    """Bell state with coefficient matrix sigma_j / sqrt(2).

    j=0 gives (|00>+|11>)/sqrt2 and j=1 the triplet (|01>+|10>)/sqrt2 used
    as the experiment's input.
    """
    return BipartiteState.from_coeffs(pauli(j) / np.sqrt(2.0))
