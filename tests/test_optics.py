"""Jones matrices, Bloch rotations and device compilation."""

import numpy as np
import pytest

from qptsim import (
    DeviceSpec,
    WavePlate,
    compile_device,
    dagger,
    fidelity_unitary,
    pauli,
    waveplate_bloch,
    waveplate_jones,
)

from matrix_checks import mat_close

# Fig. 3 device (retardation 0.45 pi, orientation -0.138 pi), frozen from the
# independent axis-angle form e^{i phi/2}(cos(phi/2) I - i sin(phi/2) n.sigma).
FIG3_PLATE = WavePlate(phi=0.45 * np.pi, theta=-0.138 * np.pi)
FIG3_MATRIX = np.array(
    [
        [0.8511342867052335 + 0.17429935582021105j, -0.3215851123387209 + 0.3765277892500435j],
        [-0.3215851123387209 + 0.3765277892500435j, 0.30530017833499734 + 0.8133889847749267j],
    ]
)
SECOND_PLATE = WavePlate(phi=np.pi, theta=0.29 * np.pi)
STACK_MATRIX = np.array(
    [
        [-0.5231504144038078 + 0.3213519892327471j, 0.37568357712626016 + 0.6941962206774811j],
        [0.7444193726605042 + 0.2624620744660495j, -0.23555685777940377 + 0.5669800912093944j],
    ]
)


def bloch_of_unitary(u):
    # one trace per entry, R_ab = Re Tr[sigma_a U sigma_b U^dag] / 2: the oracle of waveplate_bloch
    r = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            r[a, b] = 0.5 * np.trace(pauli(a + 1) @ u @ pauli(b + 1) @ dagger(u)).real
    return r


def random_plates(n, seed):
    rng = np.random.default_rng(seed)
    phis = rng.uniform(0.0, 2.0 * np.pi, size=n)
    thetas = rng.uniform(-np.pi, np.pi, size=n)
    return [WavePlate(phi=p, theta=t) for p, t in zip(phis, thetas)]


def test_half_wave_at_zero_is_sigma_z():
    assert mat_close(waveplate_jones(WavePlate(np.pi, 0.0)), pauli(3))


def test_zero_retardation_is_identity():
    for theta in (0.0, 0.3, -1.1):
        assert mat_close(waveplate_jones(WavePlate(0.0, theta)), np.eye(2))


def test_fig3_plate_matrix():
    assert mat_close(waveplate_jones(FIG3_PLATE), FIG3_MATRIX, tol=1e-14)


def test_jones_unitary_random():
    for p in random_plates(200, 31):
        w = waveplate_jones(p)
        assert np.max(np.abs(dagger(w) @ w - np.eye(2))) < 1e-12


def test_phi_reduced_modulo_two_pi():
    a = waveplate_jones(WavePlate(0.3, 0.2))
    b = waveplate_jones(WavePlate(0.3 + 2 * np.pi, 0.2))
    assert mat_close(a, b, tol=1e-12)
    with pytest.raises(ValueError):
        WavePlate(np.inf, 0.0)


def test_bloch_zero_phase_identity():
    assert mat_close(waveplate_bloch(WavePlate(0.0, 0.7)), np.eye(3))


def test_bloch_quarter_wave_at_pi4():
    # z -> -y and y -> +z
    r = waveplate_bloch(WavePlate(np.pi / 2, np.pi / 4))
    assert np.allclose(r[:, 2], [0, -1, 0], atol=1e-12)
    assert np.allclose(r[:, 1], [0, 0, 1], atol=1e-12)


def test_bloch_half_wave_at_pi8():
    # reflection exchanging x and z, flipping y
    r = waveplate_bloch(WavePlate(np.pi, np.pi / 8))
    expected = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=float)
    assert np.allclose(r, expected, atol=1e-12)


def test_bloch_so3_random():
    for p in random_plates(200, 37):
        r = waveplate_bloch(p)
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_bloch_matches_the_nine_trace_formula():
    # waveplate_bloch reads the Pauli transform; the entry-by-entry traces must agree with it
    for p in random_plates(200, 59):
        r = waveplate_bloch(p)
        assert np.max(np.abs(r - bloch_of_unitary(waveplate_jones(p)))) <= 1e-14


def test_printed_rotation_entry_regression():
    # The closed-form rotation matrix printed for wave-plates has entry
    # (1,2) (1-based) equal to -c*cos(phi); orthogonality and the derivation
    # from the Jones matrix require -c*sin(phi).  Keep the disagreement on
    # record so nobody "fixes" the derived form back.
    for p in (FIG3_PLATE, WavePlate(1.1, 0.4)):
        c = np.cos(2 * p.theta)
        derived = waveplate_bloch(p)[0, 1]
        assert abs(derived - (-c * np.sin(p.phi))) < 1e-12
        assert abs((-c * np.sin(p.phi)) - (-c * np.cos(p.phi))) > 0.1


def test_bloch_matches_state_conjugation():
    # rotating a Bloch vector with R equals conjugating the state with W
    rng = np.random.default_rng(41)
    for p in random_plates(50, 43):
        w = waveplate_jones(p)
        r = waveplate_bloch(p)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g @ dagger(g)
        rho /= np.trace(rho).real
        vec = np.array([np.trace(pauli(a) @ rho).real for a in (1, 2, 3)])
        rho_out = w @ rho @ dagger(w)
        vec_out = np.array([np.trace(pauli(a) @ rho_out).real for a in (1, 2, 3)])
        assert np.allclose(vec_out, r @ vec, atol=1e-10)


def test_bloch_homomorphism():
    for p1, p2 in zip(random_plates(100, 47), random_plates(100, 53)):
        u = waveplate_jones(p2) @ waveplate_jones(p1)
        lhs = bloch_of_unitary(u)
        rhs = waveplate_bloch(p2) @ waveplate_bloch(p1)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_quarter_wave_makes_circular_modes():
    # equal h/v magnitudes with a +-pi/2 relative phase
    w = waveplate_jones(WavePlate(np.pi / 2, np.pi / 4))
    out = w @ np.array([1.0, 0.0])
    assert abs(out[0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(out[1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    rel = np.angle(out[1]) - np.angle(out[0])
    assert min(abs(rel - np.pi / 2), abs(rel + np.pi / 2)) < 1e-12


def test_compile_single_plate():
    ch = compile_device(DeviceSpec(plates=(WavePlate(np.pi, 0.0),)))
    assert ch.is_unitary
    assert mat_close(ch.unitary_matrix, pauli(3))


def test_compile_order_and_stack():
    dev = DeviceSpec(plates=(FIG3_PLATE, SECOND_PLATE), label="stack")
    u = compile_device(dev).unitary_matrix
    assert mat_close(u, STACK_MATRIX, tol=1e-14)
    # first-traversed plate is the rightmost factor
    assert mat_close(u, waveplate_jones(SECOND_PLATE) @ waveplate_jones(FIG3_PLATE))


def test_two_half_waves_cancel():
    for theta in (0.0, 0.29 * np.pi, -0.7):
        dev = DeviceSpec(plates=(WavePlate(np.pi, theta), WavePlate(np.pi, theta)))
        u = compile_device(dev).unitary_matrix
        assert fidelity_unitary(u, np.eye(2)) == pytest.approx(1.0, abs=1e-12)
        # numerically the product is exactly +I, not -I
        assert mat_close(u, np.eye(2), tol=1e-12)


def test_empty_device_rejected():
    with pytest.raises(ValueError):
        DeviceSpec(plates=())
