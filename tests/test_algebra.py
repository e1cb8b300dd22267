"""Pauli algebra, double-ket correspondence and matrix helpers."""

import numpy as np
import pytest

from qptsim import (
    BipartiteState,
    bell_state,
    dagger,
    double_ket,
    faithfulness_check,
    pairs,
    pauli,
    tensor,
)
from qptsim.algebra import _PAULI_STACK, pauli_coefficients, pauli_expand

from matrix_checks import mat_close, permute_qubits

RT2 = np.sqrt(2.0)


def test_pauli_matrices():
    assert np.array_equal(pauli(0), np.eye(2))
    assert np.array_equal(pauli(1), [[0, 1], [1, 0]])
    assert np.array_equal(pauli(2), [[0, -1j], [1j, 0]])
    assert np.array_equal(pauli(3), [[1, 0], [0, -1]])


def test_pauli_hermitian_involution():
    for i in range(4):
        s = pauli(i)
        assert mat_close(s, dagger(s))
        assert mat_close(s @ s, np.eye(2))


def test_pauli_orthogonality():
    # quorum basis: Tr[sigma_i sigma_j] = 2 delta_ij
    for i in range(4):
        for j in range(4):
            tr = np.trace(pauli(i) @ pauli(j))
            assert abs(tr - (2.0 if i == j else 0.0)) < 1e-15


def test_pauli_bad_index():
    with pytest.raises(ValueError):
        pauli(4)
    with pytest.raises(ValueError):
        pauli(-1)
    # 1.0 and True compare equal to 1 but are no index
    for i in (1.0, True, "1"):
        with pytest.raises(ValueError, match="must be an integer"):
            pauli(i)


@pytest.mark.parametrize(
    "j,vec",
    [
        (0, [1 / RT2, 0, 0, 1 / RT2]),
        (1, [0, 1 / RT2, 1 / RT2, 0]),
        (3, [1 / RT2, 0, 0, -1 / RT2]),
    ],
)
def test_bell_states(j, vec):
    psi = bell_state(j)
    assert psi.pure
    assert np.allclose(double_ket(psi.coeffs), vec, atol=1e-15)
    assert abs(abs(np.linalg.det(psi.coeffs)) - 0.5) < 1e-15
    assert faithfulness_check(psi).full_rank


def test_double_ket_identity_bruteforce():
    # <<Psi| A x B |Psi>> == Tr[Psi^dag A Psi B^T], checked against an
    # explicit 4-dimensional contraction on random instances.
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        psi = m / np.linalg.norm(m)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v = double_ket(psi)
        brute = v.conj() @ np.kron(a, b) @ v
        closed = np.trace(dagger(psi) @ a @ psi @ b.T)
        assert abs(brute - closed) < 1e-12


def test_tensor_expectation_triplet():
    # direct 4x4 contraction: <sigma_z x sigma_z> on the triplet is -1
    v = double_ket(bell_state(1).coeffs)
    val = v.conj() @ tensor(pauli(3), pauli(3)) @ v
    assert abs(val - (-1.0)) < 1e-14


def test_tensor_rejects_vectors():
    with pytest.raises(ValueError):
        tensor(np.ones(2), np.eye(2))


def same_bits(a, b) -> bool:
    """Equal values, shape and dtype, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_tensor_is_np_kron_bit_for_bit():
    # the same products np.kron forms: real x complex, eye x complex, non-square
    rng = np.random.default_rng(31)
    for _ in range(20):
        real = rng.normal(size=(2, 2))
        cplx = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        tall = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
        wide = rng.normal(size=(1, 2))
        for a, b in (
            (real, cplx), (cplx, real), (cplx, cplx), (np.eye(4), cplx), (cplx, np.eye(2)),
            (tall, wide), (wide, tall), (tall, cplx), (-real, np.zeros((2, 3))),
        ):
            assert same_bits(tensor(a, b), np.kron(a, b))


def test_mat_close_tolerance():
    a = np.eye(2)
    assert mat_close(a, a + 1e-13)
    assert not mat_close(a, a + 1e-11)
    assert mat_close(a, a + 1e-7, tol=1e-6)
    assert not mat_close(a, np.eye(3))
    assert not mat_close(a, a * np.nan, tol=np.inf)


def test_double_ket_roundtrip():
    m = np.arange(4).reshape(2, 2).astype(complex)
    assert np.array_equal(double_ket(m), m.reshape(-1))


def test_permute_qubits_swaps_factors():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert mat_close(permute_qubits(np.kron(a, b), (1, 0)), np.kron(b, a))
    c = rng.normal(size=(2, 2))
    m = np.kron(np.kron(a, b), c)
    assert mat_close(permute_qubits(m, (2, 0, 1)), np.kron(np.kron(c, a), b))


def test_pure_state_validation():
    with pytest.raises(ValueError):
        BipartiteState.from_coeffs(np.eye(2))  # norm sqrt(2)
    with pytest.raises(ValueError):
        BipartiteState.from_coeffs(np.eye(3))


def test_mixed_state_validation():
    with pytest.raises(ValueError):
        BipartiteState.from_density(np.eye(4))  # trace 4
    bad = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        BipartiteState.from_density(bad)
    nonherm = np.diag([0.25] * 4).astype(complex)
    nonherm[0, 1] = 0.2
    with pytest.raises(ValueError):
        BipartiteState.from_density(nonherm)
    ok = BipartiteState.from_density(np.eye(4) / 4)
    assert not ok.pure


def test_full_rank_flag():
    product = BipartiteState.from_coeffs(np.diag([1.0, 0.0]))
    assert not faithfulness_check(product).full_rank
    with pytest.raises(ValueError):
        faithfulness_check(BipartiteState.from_density(np.eye(4) / 4))


def kron_basis_coefficients(op, k):
    """Reference: Re Tr[op sigma_i x .. x sigma_l] by explicit Kronecker products."""
    t = np.empty((4,) * k)
    for idx in np.ndindex(*t.shape):
        basis = np.eye(1)
        for i in idx:
            basis = np.kron(basis, pauli(i))
        t[idx] = np.trace(op @ basis).real
    return t


def random_hermitian(rng, k):
    g = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    return g + dagger(g)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pauli_transform_roundtrip(k):
    rng = np.random.default_rng(100 + k)
    h = random_hermitian(rng, k)
    t = pauli_coefficients(h)
    assert t.shape == (4,) * k
    assert mat_close(pauli_expand(t) / 2**k, h, tol=1e-12)


@pytest.mark.parametrize("k", [2, 4])
def test_pauli_coefficients_match_kron_basis(k):
    rng = np.random.default_rng(200 + k)
    h = random_hermitian(rng, k)
    assert np.max(np.abs(pauli_coefficients(h) - kron_basis_coefficients(h, k))) < 1e-12


def tensordot_expand(coeffs, batched=False):
    """Reference: the Pauli expansion as a chain of np.tensordot contractions."""
    t = np.asarray(coeffs)
    lead = 1 if batched else 0
    k = t.ndim - lead
    for _ in range(k):
        t = np.tensordot(t, _PAULI_STACK, axes=([lead], [0]))
    axes = list(range(lead)) + [lead + a for a in range(0, 2 * k, 2)]
    axes += [lead + a for a in range(1, 2 * k, 2)]
    return t.transpose(axes).reshape(t.shape[:lead] + (2**k, 2**k))


def tensordot_coefficients(op):
    """Reference: the Pauli coefficients as a chain of np.tensordot contractions."""
    k = op.shape[0].bit_length() - 1
    t = op.reshape([2] * (2 * k)).transpose([a for q in range(k) for a in (q, k + q)])
    for _ in range(k):
        t = np.tensordot(t, _PAULI_STACK, axes=([0, 1], [2, 1]))
    return t.real


@pytest.mark.parametrize("k", [1, 2, 4])
def test_pauli_transforms_are_the_tensordot_chain_bit_for_bit(k):
    rng = np.random.default_rng(300 + k)
    for _ in range(5):
        coeffs = rng.normal(size=(4,) * k)
        assert same_bits(pauli_expand(coeffs), tensordot_expand(coeffs))
        batch = rng.normal(size=(3,) + (4,) * k)
        assert same_bits(pauli_expand(batch, batched=True), tensordot_expand(batch, batched=True))
        op = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        for m in (op, op.T, random_hermitian(rng, k)):
            assert same_bits(pauli_coefficients(m), tensordot_coefficients(m))


def test_pauli_transform_shape_checks():
    with pytest.raises(ValueError):
        pauli_expand(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        pauli_coefficients(np.eye(3))
    with pytest.raises(ValueError):
        pauli_coefficients(np.zeros(4))


def test_pairs_is_kron_of_pure_states():
    a = bell_state(1)
    b = BipartiteState.from_coeffs(np.diag([np.cos(0.3), np.sin(0.3)]))
    two = pairs(a, b)
    assert two.pure and two.coeffs.shape == (4, 4) and two.density.shape == (16, 16)
    assert mat_close(two.coeffs, np.kron(a.coeffs, b.coeffs))
    product_svs = np.sort(np.kron(a.singular_values, b.singular_values))[::-1]
    assert mat_close(two.singular_values, product_svs)
    assert mat_close(pairs(a).coeffs, a.coeffs)
    with pytest.raises(ValueError):
        pairs(a, BipartiteState.from_density(np.eye(4) / 4))
    with pytest.raises(ValueError):
        pairs()
    assert not BipartiteState.from_density(np.eye(16) / 16).pure
    with pytest.raises(ValueError):
        BipartiteState.from_density(np.eye(8) / 8)  # three qubits split no way into equal arms
