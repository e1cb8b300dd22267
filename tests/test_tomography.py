"""Linear-inversion estimators, bootstrap errors and the n-pair Choi estimator."""

import numpy as np
import pytest
from scipy.stats import unitary_group

from qptsim import (
    CNOT,
    SWAP,
    BipartiteState,
    CorrelationTable,
    DegenerateReferenceError,
    ExperimentPlan,
    QuantumChannel,
    UnfaithfulInputError,
    bell_state,
    bootstrap_errors,
    correlations_4party,
    correlations_from_events,
    density_from_correlations,
    depolarizing,
    distance_choi,
    double_ket,
    exact_correlations,
    faithfulness_check,
    fidelity_unitary,
    identity_channel,
    pairs,
    pauli,
    propagate,
    reconstruct_choi,
    reconstruct_state,
    reconstruct_unitary,
    run_experiment,
    select_reference,
    two_pair_output_state,
    unitary_channel,
)
from qptsim.algebra import _PAULI_STACK, dagger, pauli_coefficients
from qptsim.tomography import P_FLOOR, _reference_column

from matrix_checks import mat_close, permute_qubits

TRIPLET = bell_state(1)
RT2 = np.sqrt(2.0)


def mixed_table():
    t = np.zeros((4, 4))
    t[0, 0] = 1.0
    return CorrelationTable(entries=t)


def random_full_rank_state(rng, min_sv=0.2, d=2):
    while True:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        g /= np.linalg.norm(g)
        if np.linalg.svd(g, compute_uv=False)[-1] > min_sv:
            return BipartiteState.from_coeffs(g)


def up_to_phase(a, b, tol=1e-10):
    overlap = abs(np.sum(np.conj(a) * b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return overlap >= 1.0 - tol


def test_estimate_p_rejects_bad_reference():
    with pytest.raises(ValueError):
        reconstruct_state(exact_correlations(TRIPLET), reference=(0, 2))


def test_state_estimators_read_one_pair():
    two_pair = exact_correlations(pairs(TRIPLET, TRIPLET))
    batch = CorrelationTable(entries=np.stack([two_pair.entries] * 2))
    calls = (
        (select_reference, two_pair),
        (reconstruct_state, two_pair),
        (lambda t: reconstruct_state(t, (0, 1)), two_pair),
        (lambda t: reconstruct_unitary(t, TRIPLET, (0, 1)), two_pair),
        (lambda t: reconstruct_state(t, (0, 1)), batch),
    )
    for call, table in calls:
        with pytest.raises(ValueError, match=r"read one pair, got a \(.*4, 4, 4, 4\) table"):
            call(table)


def test_state_estimate_is_reference_column_of_density():
    # rho[:, r] = Psi Psi_r^* for a pure output, so the estimate is that
    # column over sqrt(rho[r, r]) and its reported p is the clipped diagonal
    rng = np.random.default_rng(101)
    states = [random_full_rank_state(rng, min_sv=0.0) for _ in range(50)]
    for w in (0.2, 0.5, 1.0):
        mixed = w * np.eye(4) / 4 + (1 - w) * states[0].density
        states.append(BipartiteState.from_density(mixed))
    states.append(bell_state(0))  # |01> and |10> have no population: below the floor
    for state in states:
        table = exact_correlations(state)
        rho = density_from_correlations(table)
        for ref in ((0, 1), (1, 0), (1, 1), (0, 0)):
            r = 2 * ref[0] + ref[1]
            p = min(max(rho[r, r].real, 0.0), 1.0)
            if p < P_FLOOR:
                with pytest.raises(DegenerateReferenceError):
                    reconstruct_state(table, ref)
                continue
            res = reconstruct_state(table, ref)
            assert res.diagnostics["p"] == pytest.approx(p, abs=1e-12)
            psi = res.matrix
            col = rho[:, r].reshape(2, 2) / np.sqrt(rho[r, r].real)
            phase = np.vdot(col, psi)
            assert mat_close(psi, col * phase / abs(phase), tol=1e-12)


def test_estimate_p_triplet():
    p = reconstruct_state(exact_correlations(TRIPLET), (0, 1)).diagnostics["p"]
    assert p == pytest.approx(0.5, abs=1e-12)


def test_estimate_p_degenerate_for_phi_plus():
    with pytest.raises(DegenerateReferenceError):
        reconstruct_state(exact_correlations(bell_state(0)), (0, 1))


def test_estimate_p_maximally_mixed():
    assert reconstruct_state(mixed_table(), (0, 1)).diagnostics["p"] == pytest.approx(0.25)


def test_reconstruct_state_triplet_exact():
    res = reconstruct_state(exact_correlations(TRIPLET))
    assert mat_close(res.matrix, pauli(1) / RT2, tol=1e-10)
    assert res.diagnostics["reference"] == "|01>"
    assert res.diagnostics["p"] == pytest.approx(0.5, abs=1e-12)
    assert res.diagnostics["norm"] == pytest.approx(1.0, abs=1e-10)
    assert res.kind == "input_state"


def test_reconstruct_state_explicit_reference():
    # sigma_z Bell state via the |00> reference comes out exactly on phase
    res = reconstruct_state(exact_correlations(bell_state(3)), reference=(0, 0))
    assert mat_close(res.matrix, pauli(3) / RT2, tol=1e-10)


def test_reconstruct_state_auto_retry():
    res = reconstruct_state(exact_correlations(bell_state(0)))
    assert res.diagnostics["reference"] == "|11>"
    assert up_to_phase(res.matrix, pauli(0) / RT2)
    with pytest.raises(DegenerateReferenceError):
        reconstruct_state(exact_correlations(bell_state(0)), reference=(0, 1))


def test_select_reference_all_degenerate():
    # a product state |00> leaves only the (0,0) reference populated
    table = exact_correlations(BipartiteState.from_coeffs(np.diag([1.0, 0.0])))
    assert select_reference(table) == (0, 0)


def test_reference_independence_random_states():
    rng = np.random.default_rng(71)
    for _ in range(30):
        psi = random_full_rank_state(rng)
        table = exact_correlations(psi)
        results = []
        for ref in ((0, 1), (1, 0), (1, 1)):
            try:
                results.append(reconstruct_state(table, reference=ref).matrix)
            except DegenerateReferenceError:
                continue
        assert len(results) >= 2
        for other in results[1:]:
            assert up_to_phase(results[0], other, tol=1e-9)


def test_select_reference_takes_a_populated_pair():
    # the chosen pair holds at least 1/8 of the population, for exact tables
    # and for tables of a few hundred events alike
    rng = np.random.default_rng(131)
    for trial in range(60):
        state = random_full_rank_state(rng, min_sv=0.0)
        if trial % 2:
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            mixed = g @ dagger(g)
            mixed /= np.trace(mixed)
            w = rng.random()
            state = BipartiteState.from_density(w * state.density + (1 - w) * mixed)
        for table in (
            exact_correlations(state),
            correlations_from_events(run_experiment(state, ExperimentPlan.uniform(300, trial))),
        ):
            ref = select_reference(table)
            assert _reference_column(table, ref)[1] >= 1 / 8, (trial, ref)


@pytest.mark.parametrize("bell", [0, 3])
def test_sampled_phi_probes_reconstruct_the_identity(bell):
    # Phi+ and Phi- leave |01> and |10> empty; the reference is |11> or |00>
    # whatever the sampling noise, so both estimators find the identity
    probe = bell_state(bell)
    for seed in range(1, 21):
        events = run_experiment(probe, ExperimentPlan.uniform(8000, seed=seed))
        table = correlations_from_events(events)
        state = reconstruct_state(table)
        unitary = reconstruct_unitary(table, probe)
        overlap = abs(np.vdot(probe.coeffs, state.matrix)) / np.linalg.norm(state.matrix)
        fidelities = (overlap, fidelity_unitary(unitary.matrix, np.eye(2)))
        for res, fidelity in zip((state, unitary), fidelities):
            assert res.diagnostics["p"] >= 1 / 8, (seed, res.diagnostics)
            assert fidelity >= 0.99, (seed, fidelity, res.diagnostics)


def test_reconstruct_state_finite_sample_within_3_sigma():
    plan = ExperimentPlan.uniform(8000, seed=20)
    events = run_experiment(TRIPLET, plan)
    table = correlations_from_events(events)
    ref = select_reference(table)
    res = reconstruct_state(table, ref)
    errs = bootstrap_errors(events, lambda t: reconstruct_state(t, ref).matrix, 400, seed=77)
    truth = pauli(1) / RT2  # reference element already real positive
    for k in range(4):
        diff = res.matrix.reshape(-1)[k] - truth.reshape(-1)[k]
        assert abs(diff.real) <= 3.0 * max(errs.real.reshape(-1)[k], 1e-12)
        assert abs(diff.imag) <= 3.0 * max(errs.imag.reshape(-1)[k], 1e-12)


def test_reconstruct_unitary_identity():
    res = reconstruct_unitary(exact_correlations(TRIPLET), TRIPLET)
    assert fidelity_unitary(res.matrix, np.eye(2)) >= 1.0 - 1e-10
    assert res.diagnostics["unitarity_deviation"] < 1e-10
    assert res.kind == "device_unitary"


def test_round_trip_200_random_devices():
    # exact statistics: reconstruct arbitrary unitaries through arbitrary
    # full-rank probes at fidelity 1 - 1e-9
    rng = np.random.default_rng(73)
    for _ in range(200):
        u = unitary_group.rvs(2, random_state=rng)
        psi = random_full_rank_state(rng)
        out = propagate(unitary_channel(u), psi)
        res = reconstruct_unitary(exact_correlations(out), psi)
        assert fidelity_unitary(res.matrix, u) >= 1.0 - 1e-9


def test_reconstruct_unitary_gauge_invariance():
    table1 = exact_correlations(propagate(unitary_channel(pauli(2)), TRIPLET))
    phased = np.exp(0.31j) * pauli(2)
    table2 = exact_correlations(propagate(unitary_channel(phased), TRIPLET))
    a = reconstruct_unitary(table1, TRIPLET).matrix
    b = reconstruct_unitary(table2, TRIPLET).matrix
    assert mat_close(a, b, tol=1e-12)


@pytest.mark.parametrize(
    "kraus, bell, ref",
    [([[0, 0], [0, 1]], 3, (1, 1)), ([[0.5, -0.5], [-0.5, 0.5]], 0, (0, 1))],
    ids=["onto_1", "onto_minus"],
)
def test_reconstruct_unitary_leaves_a_zero_determinant_unrotated(kraus, bell, ref):
    # a projector has det U = 0, here computed as a signed zero, whose angle
    # (pi) would rotate U by -i; U = M Psi^-1 must come out as it is
    probe = bell_state(bell)
    device = QuantumChannel.from_kraus([np.array(kraus, dtype=complex)])
    table = exact_correlations(propagate(device, probe))
    unrotated = reconstruct_state(table, ref).matrix @ np.linalg.inv(probe.coeffs)
    res = reconstruct_unitary(table, probe, ref)
    assert np.linalg.det(res.matrix) == 0.0
    assert mat_close(res.matrix, unrotated, tol=1e-12)


def test_reconstruct_unitary_rejects_unfaithful_probe():
    product = BipartiteState.from_coeffs(np.diag([1.0, 0.0]))
    with pytest.raises(UnfaithfulInputError) as err:
        reconstruct_unitary(exact_correlations(product), product)
    assert err.value.condition_number == np.inf
    with pytest.raises(ValueError):
        reconstruct_unitary(mixed_table(), BipartiteState.from_density(np.eye(4) / 4))


def test_density_from_correlations_roundtrip():
    rng = np.random.default_rng(79)
    u = unitary_group.rvs(4, random_state=rng)
    rho = u @ np.diag([0.4, 0.3, 0.2, 0.1]) @ u.conj().T
    state = BipartiteState.from_density(rho)
    assert mat_close(density_from_correlations(exact_correlations(state)), rho, tol=1e-10)


@pytest.mark.parametrize("n_pairs", [1, 2])
@pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
def test_density_from_correlations_is_hermitian_bit_for_bit(n_pairs, batched):
    # element (b, a) of a real table's Pauli expansion sums the conjugates of
    # element (a, b)'s terms in the same order, so no symmetrizing step is needed
    rng = np.random.default_rng(80 + n_pairs)
    for _ in range(5):
        entries = rng.uniform(-1.0, 1.0, size=(3,) + (4,) * (2 * n_pairs))
        entries[(slice(None),) + (0,) * (2 * n_pairs)] = 1.0
        table = CorrelationTable(entries=entries if batched else entries[0])
        rho = density_from_correlations(table)
        assert rho.shape == (3,) * batched + (4**n_pairs, 4**n_pairs)
        assert np.array_equal(rho, dagger(rho))


def test_reconstruct_choi_identity():
    res = reconstruct_choi(exact_correlations(TRIPLET), TRIPLET)
    assert mat_close(res.matrix, identity_channel().choi, tol=1e-10)
    assert res.diagnostics["occurrence_scale"].startswith("unrecoverable")


def test_reconstruct_choi_depolarizing():
    ch = depolarizing(0.3)
    out = propagate(ch, TRIPLET)
    res = reconstruct_choi(exact_correlations(out), TRIPLET)
    assert np.allclose(np.linalg.eigvalsh(res.matrix), [0.15, 0.15, 0.15, 1.55], atol=1e-9)
    assert distance_choi(res.matrix, ch.choi) < 1e-9


def test_choi_eigenvalues_are_a_tuple_of_floats():
    # the estimator reports numbers; the result document renders them
    res = reconstruct_choi(exact_correlations(propagate(depolarizing(0.3), TRIPLET)), TRIPLET)
    eigs = res.diagnostics["choi_eigenvalues"]
    assert type(eigs) is tuple and all(type(v) is float for v in eigs)
    assert eigs == tuple(np.linalg.eigvalsh(res.matrix).tolist())
    assert eigs[0] == res.diagnostics["min_eigenvalue"]


def test_choi_unitary_consistent_with_unitary_estimator():
    rng = np.random.default_rng(83)
    for _ in range(50):
        u = unitary_group.rvs(2, random_state=rng)
        psi = random_full_rank_state(rng)
        table = exact_correlations(propagate(unitary_channel(u), psi))
        res_c = reconstruct_choi(table, psi)
        vals, vecs = np.linalg.eigh(res_c.matrix)
        dominant = np.sqrt(vals[-1]) * vecs[:, -1].reshape(2, 2)
        res_u = reconstruct_unitary(table, psi)
        assert vals[-1] == pytest.approx(2.0, abs=1e-8)
        assert fidelity_unitary(dominant, res_u.matrix) >= 1.0 - 1e-8


def test_reconstruct_choi_reports_raw_negativity():
    # a unitary device has three exact zero Choi eigenvalues, so shot noise
    # drives the raw linear inversion slightly negative; it is reported, not
    # projected away
    plan = ExperimentPlan.uniform(2000, seed=31)
    table = correlations_from_events(run_experiment(TRIPLET, plan))
    raw = reconstruct_choi(table, TRIPLET)
    assert raw.diagnostics["min_eigenvalue"] < 0
    assert raw.diagnostics["negativity"] > 0
    assert np.linalg.eigvalsh(raw.matrix)[0] == pytest.approx(raw.diagnostics["min_eigenvalue"])


def test_bootstrap_deterministic_and_seed_sensitive():
    events = run_experiment(TRIPLET, ExperimentPlan.uniform(2000, seed=3))
    est = lambda t: reconstruct_state(t, (0, 1)).matrix
    a = bootstrap_errors(events, est, 150, seed=5)
    b = bootstrap_errors(events, est, 150, seed=5)
    c = bootstrap_errors(events, est, 150, seed=6)
    assert np.array_equal(a.real, b.real) and np.array_equal(a.imag, b.imag)
    assert not np.array_equal(a.real, c.real)
    assert a.n_resamples == 150


def test_bootstrap_requires_100_resamples():
    events = run_experiment(TRIPLET, ExperimentPlan.uniform(900, seed=3))
    with pytest.raises(ValueError):
        bootstrap_errors(events, lambda t: reconstruct_state(t).matrix, 1)


def test_bootstrap_error_scaling():
    # element errors scale like a / sqrt(N): the fitted prefactor is stable
    # across N within 20%
    prefactors = []
    for n in (2000, 8000, 32000):
        levels = []
        for seed in range(4):
            events = run_experiment(TRIPLET, ExperimentPlan.uniform(n, seed=100 + seed))
            ref = (0, 1)
            errs = bootstrap_errors(
                events, lambda t: reconstruct_state(t, ref).matrix, 200, seed=seed
            )
            levels.append(0.5 * (errs.real.mean() + errs.imag.mean()))
        prefactors.append(np.mean(levels) * np.sqrt(n))
    assert max(prefactors) / min(prefactors) < 1.2


def test_fidelity_unitary_phase_invariance():
    rng = np.random.default_rng(89)
    u = unitary_group.rvs(2, random_state=rng)
    for alpha in (0.0, 0.4, -2.2):
        assert fidelity_unitary(u, np.exp(1j * alpha) * u) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_unitary(np.eye(2), pauli(1)) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        fidelity_unitary(np.eye(2), np.eye(4))


def test_distance_choi_depolarizing_family():
    for p in (0.1, 0.3, 0.8):
        d = distance_choi(identity_channel().choi, depolarizing(p).choi)
        assert d == pytest.approx(3.0 * p / 4.0, abs=1e-12)
    with pytest.raises(ValueError):
        distance_choi(np.eye(4), np.zeros((4, 4)))


def test_faithfulness_report():
    rep = faithfulness_check(TRIPLET)
    assert rep.full_rank and rep.condition_number == pytest.approx(1.0, abs=1e-12)
    eps = 0.1
    skew = BipartiteState.from_coeffs(np.diag([np.cos(eps), np.sin(eps)]))
    rep = faithfulness_check(skew)
    assert rep.full_rank
    assert rep.condition_number == pytest.approx(9.966644423259238, rel=1e-12)
    rep = faithfulness_check(BipartiteState.from_coeffs(np.diag([1.0, 0.0])))
    assert not rep.full_rank


def two_pair_table(gate, psi_a, psi_b):
    """Exact grouped (4,4,4,4) table of a two-qubit gate probed by two pairs."""
    return exact_correlations(propagate(unitary_channel(gate), pairs(psi_a, psi_b)))


def test_two_qubit_identity_device():
    probe = pairs(TRIPLET, TRIPLET)
    res = reconstruct_choi(two_pair_table(np.eye(4), TRIPLET, TRIPLET), probe)
    assert mat_close(res.matrix, unitary_channel(np.eye(4)).choi, tol=1e-10)


@pytest.mark.parametrize("gate", [CNOT, SWAP], ids=["cnot", "swap"])
def test_two_qubit_gate_reconstruction(gate):
    res = reconstruct_choi(two_pair_table(gate, TRIPLET, TRIPLET), pairs(TRIPLET, TRIPLET))
    truth = unitary_channel(gate).choi
    assert distance_choi(res.matrix, truth) < 1e-9
    vals, vecs = np.linalg.eigh(res.matrix)
    assert vals[-1] == pytest.approx(4.0, abs=1e-9)  # rank one, trace 4
    assert abs(vals[-2]) < 1e-9
    overlap = abs(vecs[:, -1].conj() @ double_ket(gate)) / np.linalg.norm(double_ket(gate))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_two_qubit_mixed_probes():
    # different Bell states on the two pairs still reconstruct the gate
    psi_b = bell_state(3)
    res = reconstruct_choi(two_pair_table(CNOT, TRIPLET, psi_b), pairs(TRIPLET, psi_b))
    assert distance_choi(res.matrix, unitary_channel(CNOT).choi) < 1e-9


def test_two_qubit_rejects_unfaithful_probe():
    product = BipartiteState.from_coeffs(np.diag([1.0, 0.0]))
    table = two_pair_table(CNOT, TRIPLET, product)
    with pytest.raises(UnfaithfulInputError):
        reconstruct_choi(table, pairs(TRIPLET, product))


def test_two_qubit_table_validation():
    with pytest.raises(ValueError):
        CorrelationTable(entries=np.zeros((4, 4, 4, 4)))


def test_register_order_table_is_grouped_table_with_middle_axes_swapped():
    # correlations_4party reads (dev A, anc A, dev B, anc B); the grouped
    # table reads (dev A, dev B, anc A, anc B)
    rng = np.random.default_rng(5)
    psi_a, psi_b = random_full_rank_state(rng), random_full_rank_state(rng)
    u4 = unitary_group.rvs(4, random_state=rng)
    register = correlations_4party(two_pair_output_state(u4, psi_a, psi_b))
    grouped = two_pair_table(u4, psi_a, psi_b).entries
    assert np.max(np.abs(register - grouped.transpose(0, 2, 1, 3))) < 1e-12


def test_estimators_reject_tables_of_other_pair_counts():
    two_pair = two_pair_table(CNOT, TRIPLET, TRIPLET)
    with pytest.raises(ValueError):
        reconstruct_state(two_pair)
    with pytest.raises(ValueError):
        reconstruct_unitary(two_pair, TRIPLET)
    # the Choi estimator needs one table axis pair per probe pair
    with pytest.raises(ValueError):
        reconstruct_choi(two_pair, TRIPLET)
    with pytest.raises(ValueError):
        reconstruct_choi(exact_correlations(TRIPLET), pairs(TRIPLET, TRIPLET))
    with pytest.raises(ValueError, match="one-pair probe"):
        reconstruct_unitary(exact_correlations(TRIPLET), pairs(TRIPLET, TRIPLET))


def test_probe_singular_values_taken_once(monkeypatch):
    # every faithfulness check and every unitary fit of one probe share one SVD
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    probe = BipartiteState.from_coeffs(np.diag([np.cos(0.3), np.sin(0.3)]))
    table = exact_correlations(propagate(unitary_channel(pauli(1)), probe))
    for _ in range(3):
        assert faithfulness_check(probe).full_rank
        reconstruct_unitary(table, probe)
    assert len(calls) == 1


def assert_ulps(a, b, scale, ulps=4):
    """a equals b within a few units in the last place of ``scale``, the
    magnitude of the terms the two were computed from."""
    assert np.all(np.abs(a - b) <= ulps * np.finfo(float).eps * scale)


@pytest.mark.parametrize("ref", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_reference_column_and_unitary_match_the_matrix_formulas(ref):
    # references: rho[:, ref] as a product of Pauli columns, U = M Psi^-1 by
    # numpy's inverse, det U by np.linalg.det and a single table's deviation by norm()
    n0, m0 = ref
    rng = np.random.default_rng(71 + 2 * n0 + m0)
    tables = rng.uniform(-1.0, 1.0, size=(300, 4, 4))
    tables[:, 0, 0] = 1.0
    cols = _PAULI_STACK[:, :, n0].T @ tables @ _PAULI_STACK[:, :, m0] / 4.0
    tables = CorrelationTable(entries=tables[cols[:, n0, m0].real >= 1e-6])
    probe = random_full_rank_state(rng)
    res = reconstruct_unitary(tables, probe, ref)
    for k, t in enumerate(tables.entries):
        col = _PAULI_STACK[:, :, n0].T @ t @ _PAULI_STACK[:, :, m0] / 4.0
        p = min(col[n0, m0].real, 1.0)
        assert_ulps(_reference_column(CorrelationTable(entries=t), ref)[0], col, 1.0)
        single = reconstruct_unitary(CorrelationTable(entries=t), probe, ref)
        u = single.matrix
        assert u.tobytes() == res.matrix[k].tobytes()
        deviation = single.diagnostics["unitarity_deviation"]
        # the estimate is M Psi^-1 rotated by a phase that makes det U real positive
        expected = col / np.sqrt(p) @ np.linalg.inv(probe.coeffs)
        d = np.linalg.det(expected)
        size = np.abs(u).max()
        assert_ulps(u, expected * np.exp(-0.5j * np.angle(d)), size, ulps=16)
        assert_ulps(np.linalg.det(u), abs(d), size**2, ulps=16)
        assert_ulps(deviation, np.linalg.norm(dagger(u) @ u - np.eye(2)), 1 + size**2, ulps=16)


def test_choi_core_three_pairs_random_unitary():
    # "replicate the setup n times": three pairs, one per device qubit, with
    # the triplet and two non-maximal faithful probes
    rng = np.random.default_rng(97)
    u8 = unitary_group.rvs(8, random_state=rng)
    probes = (
        TRIPLET,
        BipartiteState.from_coeffs(np.diag([np.cos(0.3), np.sin(0.3)])),
        random_full_rank_state(rng),
    )
    vec = double_ket(probes[0].coeffs)
    for p in probes[1:]:
        vec = np.kron(vec, double_ket(p.coeffs))
    # U acts on the device qubits; order (d1, d2, d3, a1, a2, a3) is moved to
    # the register order (d1, a1, d2, a2, d3, a3) of the probe vector
    op = permute_qubits(np.kron(u8, np.eye(8)), (0, 3, 1, 4, 2, 5))
    out = op @ vec
    # and the register-order output back to the grouped order of the table
    rho = permute_qubits(np.outer(out, out.conj()), (0, 2, 4, 1, 3, 5))
    table = CorrelationTable(entries=pauli_coefficients(rho))
    res = reconstruct_choi(table, pairs(*probes))
    assert distance_choi(res.matrix, unitary_channel(u8).choi) < 1e-9
    assert np.linalg.eigvalsh(res.matrix)[-1] == pytest.approx(8.0, abs=1e-9)


def random_kraus_channel(rng, d, rank=3):
    """A channel of ``rank`` Kraus operators, the blocks of a random d*rank x d isometry."""
    g = rng.normal(size=(d * rank, d)) + 1j * rng.normal(size=(d * rank, d))
    return QuantumChannel.from_kraus(list(np.linalg.qr(g)[0].reshape(rank, d, d)))


@pytest.mark.parametrize("n_pairs", [1, 2])
def test_choi_of_random_kraus_channels_through_random_probes(n_pairs):
    # T_out = R T_in holds for any channel and any faithful probe, so exact
    # tables give the channel's Choi matrix to round-off
    rng = np.random.default_rng(120 + n_pairs)
    d = 2**n_pairs
    for _ in range(20):
        ch, probe = random_kraus_channel(rng, d), random_full_rank_state(rng, 0.2 / d, d)
        assert not ch.is_unitary
        res = reconstruct_choi(exact_correlations(propagate(ch, probe)), probe)
        assert np.max(np.abs(res.matrix - ch.choi)) < 1e-12


@pytest.mark.parametrize("n_pairs", [1, 2])
def test_choi_batch_rows_equal_single_calls_and_are_hermitian_bit_for_bit(n_pairs):
    # noisy tables near a random channel's: the rows of one batched call are
    # the single calls' bytes, and no estimate needs a symmetrizing step
    rng = np.random.default_rng(130 + n_pairs)
    d = 2**n_pairs
    probe = random_full_rank_state(rng, 0.2 / d, d)
    exact = exact_correlations(propagate(random_kraus_channel(rng, d), probe)).entries
    noisy = np.clip(exact + rng.uniform(-0.05, 0.05, size=(6,) + exact.shape), -1.0, 1.0)
    noisy[(slice(None),) + (0,) * exact.ndim] = 1.0
    batch = reconstruct_choi(CorrelationTable(entries=noisy), probe).matrix
    assert batch.shape == (6, d * d, d * d)
    for row, entries in zip(batch, noisy):
        single = reconstruct_choi(CorrelationTable(entries=entries), probe).matrix
        assert single.tobytes() == row.tobytes()
        assert np.array_equal(single, dagger(single))
