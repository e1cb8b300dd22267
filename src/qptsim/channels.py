"""Quantum channels on n qubits: operator-sum and Choi representations.

A channel E is stored as a set of d x d Kraus operators (d = 2^n) together
with its unnormalized Choi matrix C = sum_k |K_k>><<K_k| built with the
channel on the first tensor factor, so a deterministic channel has Tr C = d.
The occurrence probability of a non-deterministic channel is Tr[E(rho)].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    PSD_SLACK,
    BipartiteState,
    dagger,
    double_ket,
    pauli,
    tensor,
    _check_real,
    _frozen,
)
from .errors import NullEventError, shown

# Outcome probabilities below this are treated as impossible events.
NULL_EVENT_PROB = 1e-15


def choi_from_kraus(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Unnormalized Choi matrix sum_k |K_k>><<K_k| (dimension-generic)."""
    if len(ops) == 0:
        raise ValueError("need at least one Kraus operator")
    d = np.asarray(ops[0]).shape[0]
    c = np.zeros((d * d, d * d), dtype=complex)
    for k in ops:
        k = np.asarray(k, dtype=complex)
        if k.shape != (d, d):
            raise ValueError(f"Kraus operators must all be {d}x{d}, got {k.shape}")
        v = double_ket(k)
        c += np.outer(v, v.conj())
    return c


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Completely positive, trace-non-increasing map on n qubits."""

    kraus_ops: Tuple[np.ndarray, ...]
    choi: np.ndarray

    @classmethod
    def from_kraus(cls, ops: Sequence[np.ndarray]) -> "QuantumChannel":
        ops = tuple(_frozen(k) for k in ops)
        # sum K^dag K <= I bounds each entry's modulus by 1; this also refuses NaN,
        # infinity and entries whose products overflow in the checks below
        if not all(np.all(np.abs(k) <= 1.0 + PSD_SLACK) for k in ops):
            raise ValueError("Kraus operator entries must be finite, of modulus at most 1")
        choi = choi_from_kraus(ops)  # checks that all operators are d x d
        s = sum(dagger(k) @ k for k in ops)
        excess = np.max(np.linalg.eigvalsh(s - np.eye(len(s))))
        if excess > PSD_SLACK:
            raise ValueError(
                f"channel increases trace: max eigenvalue of sum K^dag K "
                f"exceeds 1 by {float(excess):.3e}"
            )
        return cls(kraus_ops=ops, choi=_frozen(choi))

    @cached_property
    def is_unitary(self) -> bool:
        """Whether the channel is one unitary Kraus operator; checked once."""
        if len(self.kraus_ops) != 1:
            return False
        k = self.kraus_ops[0]
        return bool(np.max(np.abs(dagger(k) @ k - np.eye(len(k)))) <= PSD_SLACK)

    @property
    def unitary_matrix(self) -> Optional[np.ndarray]:
        return self.kraus_ops[0] if self.is_unitary else None


def propagate(ch: QuantumChannel, psi: BipartiteState) -> BipartiteState:
    """Send the device arms of a bipartite state through the channel.

    For a unitary channel and a pure input the result stays pure with
    coefficient matrix U Psi; otherwise the renormalized output density
    matrix (E x I)(|Psi>><<Psi|) is returned.  An n-qubit channel takes n pairs.
    """
    rho = psi.density
    if ch.choi.shape != rho.shape:
        raise ValueError(f"channel (Choi {ch.choi.shape}) and state {rho.shape} differ in size")
    if ch.is_unitary and psi.pure:
        return BipartiteState.from_coeffs(ch.kraus_ops[0] @ psi.coeffs)
    out = np.zeros(rho.shape, dtype=complex)
    eye = np.eye(len(ch.kraus_ops[0]))
    for k in ch.kraus_ops:
        big = tensor(k, eye)
        out += big @ rho @ dagger(big)
    prob = float(np.trace(out).real)
    if prob < NULL_EVENT_PROB:
        raise NullEventError(f"outcome probability {prob:.3e} is numerically zero")
    out /= prob
    out = 0.5 * (out + dagger(out))
    return BipartiteState.from_density(out)


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    """Deterministic channel rho -> U rho U^dag."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got {u.shape}")
    if np.max(np.abs(dagger(u) @ u - np.eye(u.shape[0]))) > PSD_SLACK:
        raise ValueError("matrix is not unitary within tolerance")
    return QuantumChannel.from_kraus([u])


def identity_channel() -> QuantumChannel:
    return unitary_channel(np.eye(2))


def depolarizing(p: float) -> QuantumChannel:
    """Depolarizing channel E(rho) = (1-p) rho + p I/2."""
    _check_real("depolarizing strength", p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {shown(p)}")
    ops = [np.sqrt(1.0 - 3.0 * p / 4.0) * pauli(0)]
    ops += [np.sqrt(p / 4.0) * pauli(a) for a in (1, 2, 3)]
    return QuantumChannel.from_kraus(ops)


def amplitude_damping(gamma: float) -> QuantumChannel:
    """Amplitude damping: decay |1> -> |0> with probability gamma."""
    _check_real("damping strength", gamma)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping strength must be in [0, 1], got {shown(gamma)}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return QuantumChannel.from_kraus([k0, k1])
