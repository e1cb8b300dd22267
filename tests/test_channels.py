"""Operator-sum channels, Choi matrices and bipartite propagation."""

import numpy as np
import pytest
from scipy.stats import unitary_group

from qptsim import (
    NullEventError,
    QuantumChannel,
    amplitude_damping,
    bell_state,
    choi_from_kraus,
    dagger,
    depolarizing,
    double_ket,
    identity_channel,
    pairs,
    pauli,
    propagate,
    tensor,
    unitary_channel,
)
from qptsim.algebra import BipartiteState

from matrix_checks import mat_close, permute_qubits

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def test_apply_unitary_flip():
    # beam 1 of |00> flipped to |1>: the output is the product |10>
    out = propagate(unitary_channel(pauli(1)), BipartiteState.from_coeffs(KET0))
    assert out.pure
    assert mat_close(out.coeffs, [[0.0, 0.0], [1.0, 0.0]])
    assert unitary_channel(pauli(2)).is_unitary
    assert not amplitude_damping(0.3).is_unitary
    assert amplitude_damping(0.3).unitary_matrix is None


def test_apply_projective_filter():
    # the triplet's beam-1 marginal is I/2: the filter passes half of it and
    # leaves the pair in |01>
    ch = QuantumChannel.from_kraus([KET0])
    out = propagate(ch, bell_state(1))
    ket01 = np.array([0.0, 1.0, 0.0, 0.0])
    assert mat_close(out.density, np.outer(ket01, ket01))


def test_apply_depolarizing():
    # operator-sum with the four-Kraus set evaluated directly:
    # (1-p)|0><0| + p I/2 = diag(0.85, 0.15) at p = 0.3 on beam 1 of |00>
    out = propagate(depolarizing(0.3), BipartiteState.from_coeffs(KET0))
    assert mat_close(np.einsum("abcb->ac", out.density.reshape(2, 2, 2, 2)), np.diag([0.85, 0.15]))
    assert mat_close(np.einsum("abac->bc", out.density.reshape(2, 2, 2, 2)), KET0)


def test_propagate_identity_triplet():
    psi = bell_state(1)
    out = propagate(identity_channel(), psi)
    assert out.pure
    assert mat_close(out.coeffs, psi.coeffs)


def test_propagate_unitary_matches_density_route():
    rng = np.random.default_rng(11)
    psi = bell_state(1)
    for _ in range(20):
        u = unitary_group.rvs(2, random_state=rng)
        out = propagate(unitary_channel(u), psi)
        assert out.pure
        assert mat_close(out.coeffs, u @ psi.coeffs)
        big = tensor(u, np.eye(2))
        assert mat_close(out.density, big @ psi.density @ dagger(big), tol=1e-12)


def test_propagate_full_depolarizing():
    out = propagate(depolarizing(1.0), bell_state(1))
    assert mat_close(out.density, np.eye(4) / 4)


def test_propagate_null_event():
    filt = QuantumChannel.from_kraus([KET0])
    psi = BipartiteState.from_coeffs(np.diag([0.0, 1.0]))  # |10>, beam 1 vertical
    with pytest.raises(NullEventError):
        propagate(filt, psi)


def test_propagate_composition():
    rng = np.random.default_rng(5)
    psi = bell_state(1)
    for _ in range(50):
        u = unitary_group.rvs(2, random_state=rng)
        v = unitary_group.rvs(2, random_state=rng)
        two_steps = propagate(unitary_channel(v), propagate(unitary_channel(u), psi))
        direct = propagate(unitary_channel(v @ u), psi)
        assert mat_close(two_steps.coeffs, direct.coeffs, tol=1e-12)


def test_isotropy_of_maximally_entangled_outputs():
    rng = np.random.default_rng(17)
    for j in range(4):
        u = unitary_group.rvs(2, random_state=rng)
        out = propagate(unitary_channel(u), bell_state(j))
        assert mat_close(np.einsum("abac->bc", out.density.reshape(2, 2, 2, 2)), np.eye(2) / 2)
        assert mat_close(np.einsum("abcb->ac", out.density.reshape(2, 2, 2, 2)), np.eye(2) / 2)


def test_choi_identity_corners():
    c = identity_channel().choi
    expected = np.zeros((4, 4))
    for r in (0, 3):
        for s in (0, 3):
            expected[r, s] = 1.0
    assert mat_close(c, expected)


def test_choi_unitary_rank_one():
    rng = np.random.default_rng(23)
    u = unitary_group.rvs(2, random_state=rng)
    c = unitary_channel(u).choi
    v = double_ket(u)
    assert mat_close(c, np.outer(v, v.conj()), tol=1e-12)
    vals = np.linalg.eigvalsh(c)
    assert np.allclose(vals, [0, 0, 0, 2], atol=1e-12)


def test_choi_depolarizing_eigenvalues():
    vals = np.linalg.eigvalsh(depolarizing(0.3).choi)
    assert np.allclose(np.sort(vals), [0.15, 0.15, 0.15, 1.55], atol=1e-12)


def test_trace_increasing_kraus_rejected():
    with pytest.raises(ValueError):
        QuantumChannel.from_kraus([np.eye(2), 0.5 * pauli(1)])


def test_choi_from_kraus_validates_shapes():
    with pytest.raises(ValueError):
        choi_from_kraus([])
    with pytest.raises(ValueError):
        choi_from_kraus([np.eye(2), np.eye(4)])


def test_propagate_two_pairs_matches_pairwise():
    # a channel on device qubit A alone, sent through two pairs, leaves pair B
    # untouched: the grouped output is the two pair outputs side by side
    psi_a, psi_b = bell_state(1), bell_state(3)
    dep = depolarizing(0.4)
    on_a = QuantumChannel.from_kraus([np.kron(k, np.eye(2)) for k in dep.kraus_ops])
    out = propagate(on_a, pairs(psi_a, psi_b))
    assert not out.pure and out.density.shape == (16, 16)
    side_by_side = np.kron(propagate(dep, psi_a).density, psi_b.density)
    # (dev A, anc A, dev B, anc B) -> (dev A, dev B, anc A, anc B)
    assert mat_close(out.density, permute_qubits(side_by_side, (0, 2, 1, 3)), tol=1e-12)


def test_propagate_rejects_dimension_mismatch():
    cnot = np.eye(4)[[0, 1, 3, 2]]
    with pytest.raises(ValueError):
        propagate(unitary_channel(cnot), bell_state(1))
    with pytest.raises(ValueError):
        propagate(depolarizing(0.2), pairs(bell_state(1), bell_state(1)))
