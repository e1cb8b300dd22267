"""Acceptance criteria A1-A10: one test and one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Every tolerance and runtime bound is pinned here; the slow criteria
(A3-A5) stay far below their limits on commodity hardware.
"""

import time

import numpy as np
import pytest
from scipy.stats import chi2_contingency, spearmanr

from qptsim import (
    CNOT,
    BipartiteState,
    DeviceSpec,
    ExperimentPlan,
    LossModel,
    UnfaithfulInputError,
    WavePlate,
    bell_state,
    bootstrap_errors,
    compile_device,
    correlations_from_events,
    dagger,
    depolarizing,
    distance_choi,
    exact_correlations,
    faithfulness_check,
    fidelity_unitary,
    pairs,
    pauli,
    propagate,
    reconstruct_choi,
    reconstruct_state,
    reconstruct_unitary,
    run_experiment,
    select_reference,
    unitary_channel,
    waveplate_bloch,
    waveplate_jones,
)
from qptsim.experiment import SETTINGS, events_to_counts

TRIPLET = bell_state(1)
FIG3_PLATE = WavePlate(phi=0.45 * np.pi, theta=-0.138 * np.pi)
FIG4_PLATE2 = WavePlate(phi=np.pi, theta=0.29 * np.pi)
FIG3_DEVICE = DeviceSpec(plates=(FIG3_PLATE,), label="fig3")
FIG4_DEVICE = DeviceSpec(plates=(FIG3_PLATE, FIG4_PLATE2), label="fig4")


def check(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def align_phase(truth, estimate):
    """Rotate the truth into the estimate's gauge (global phase is unmeasurable)."""
    overlap = np.sum(np.conj(truth) * estimate)
    return truth * np.exp(1j * np.angle(overlap))


def exact_fidelity(device):
    ch = compile_device(device)
    table = exact_correlations(propagate(ch, TRIPLET))
    res = reconstruct_unitary(table, TRIPLET)
    return fidelity_unitary(res.matrix, ch.unitary_matrix)


def test_a1_exact_reconstruction_single_plate():
    start = time.perf_counter()
    fid = exact_fidelity(FIG3_DEVICE)
    elapsed = time.perf_counter() - start
    check(
        "A1 exact single-plate device",
        fid >= 1.0 - 1e-9 and elapsed < 1.0,
        f"fidelity={fid:.12f}, {elapsed:.2f}s < 1s",
    )


def test_a2_exact_reconstruction_two_plate_stack():
    start = time.perf_counter()
    fid = exact_fidelity(FIG4_DEVICE)
    elapsed = time.perf_counter() - start
    check(
        "A2 exact two-plate stack",
        fid >= 1.0 - 1e-9 and elapsed < 1.0,
        f"fidelity={fid:.12f}, {elapsed:.2f}s < 1s",
    )


def test_a3_finite_statistics_8000_events():
    start = time.perf_counter()
    ch = compile_device(FIG3_DEVICE)
    u_true = ch.unitary_matrix
    fidelities = []
    covered = 0
    cells = 0
    for seed in range(200):
        events = run_experiment(propagate(ch, TRIPLET), ExperimentPlan.uniform(8000, seed=seed))
        table = correlations_from_events(events)
        ref = select_reference(table)
        res = reconstruct_unitary(table, TRIPLET, ref)
        fidelities.append(fidelity_unitary(res.matrix, u_true))
        errs = bootstrap_errors(
            events,
            lambda t: reconstruct_unitary(t, TRIPLET, ref).matrix,
            n_resamples=250,
            seed=5000 + seed,
        )
        diff = res.matrix - align_phase(u_true, res.matrix)
        covered += int((np.abs(diff.real) <= 2.0 * errs.real).sum())
        covered += int((np.abs(diff.imag) <= 2.0 * errs.imag).sum())
        cells += 8
    elapsed = time.perf_counter() - start
    median_fid = float(np.median(fidelities))
    coverage = covered / cells
    check(
        "A3 finite statistics (N=8000, 200 seeds)",
        median_fid >= 0.98 and coverage >= 0.90 and elapsed < 120.0,
        f"median fidelity={median_fid:.4f} >= 0.98, "
        f"2-sigma coverage={coverage:.3f} >= 0.90, {elapsed:.0f}s < 120s",
    )


def test_a4_error_scaling_n_to_minus_half():
    start = time.perf_counter()
    ch = compile_device(FIG3_DEVICE)
    out = propagate(ch, TRIPLET)
    sizes = (2000, 8000, 32000)
    mean_errors = []
    for n in sizes:
        levels = []
        for seed in range(6):
            events = run_experiment(out, ExperimentPlan.uniform(n, seed=300 + seed))
            table = correlations_from_events(events)
            ref = select_reference(table)
            errs = bootstrap_errors(
                events,
                lambda t: reconstruct_unitary(t, TRIPLET, ref).matrix,
                n_resamples=200,
                seed=seed,
            )
            levels.append(0.5 * (errs.real.mean() + errs.imag.mean()))
        mean_errors.append(np.mean(levels))
    slope = np.polyfit(np.log(sizes), np.log(mean_errors), 1)[0]
    elapsed = time.perf_counter() - start
    # at 8000 events the element errors sit at the 1e-2 scale
    magnitude_ok = 0.003 < mean_errors[1] < 0.05
    check(
        "A4 error scaling",
        -0.6 <= slope <= -0.4 and magnitude_ok and elapsed < 300.0,
        f"fitted exponent={slope:.3f} within -0.5 +- 0.1, "
        f"error at N=8000 is {mean_errors[1]:.4f}, {elapsed:.0f}s < 300s",
    )


def test_a5_quantum_efficiency_immunity():
    start = time.perf_counter()
    out = propagate(compile_device(FIG3_DEVICE), TRIPLET)
    n = 100_000
    ideal = run_experiment(out, ExperimentPlan.uniform(n, seed=777))
    lossy = run_experiment(out, ExperimentPlan.uniform(n, seed=778, loss=LossModel(eta=0.42)))
    counts_a = events_to_counts(ideal)
    counts_b = events_to_counts(lossy)
    p_values = []
    for k in range(len(SETTINGS)):
        contingency = np.stack([counts_a[k], counts_b[k]])
        contingency = contingency[:, contingency.sum(axis=0) > 0]
        if contingency.shape[1] < 2:
            p_values.append(1.0)  # deterministic setting: identical support
            continue
        p_values.append(chi2_contingency(contingency).pvalue)
    elapsed = time.perf_counter() - start
    worst = min(p_values)
    check(
        "A5 efficiency immunity (eta 0.42 vs 1.0)",
        worst > 0.01 and elapsed < 60.0,
        f"min chi-square p={worst:.3f} > 0.01 over 9 settings, {elapsed:.0f}s < 60s",
    )


def test_a6_non_unitary_depolarizing_channel():
    ch = depolarizing(0.3)
    table = exact_correlations(propagate(ch, TRIPLET))
    res = reconstruct_choi(table, TRIPLET)
    eigs = np.linalg.eigvalsh(res.matrix)
    eig_err = float(np.max(np.abs(eigs - [0.15, 0.15, 0.15, 1.55])))
    dist = distance_choi(res.matrix, ch.choi)
    raw_trace_norm = float(np.abs(np.linalg.eigvalsh(res.matrix - ch.choi)).sum())
    check(
        "A6 non-unitary channel (depolarizing 0.3)",
        eig_err < 1e-9 and dist < 1e-9 and raw_trace_norm < 1e-9,
        f"eigenvalue error={eig_err:.1e}, trace-norm distance={raw_trace_norm:.1e} < 1e-9",
    )


def test_a7_waveplate_algebra_1000_plates():
    rng = np.random.default_rng(1234)
    worst_unitary = worst_orthogonal = worst_det = worst_hom = 0.0
    for _ in range(1000):
        p1 = WavePlate(rng.uniform(0, 2 * np.pi), rng.uniform(-np.pi, np.pi))
        p2 = WavePlate(rng.uniform(0, 2 * np.pi), rng.uniform(-np.pi, np.pi))
        w = waveplate_jones(p1)
        r = waveplate_bloch(p1)
        worst_unitary = max(worst_unitary, float(np.max(np.abs(dagger(w) @ w - np.eye(2)))))
        worst_orthogonal = max(worst_orthogonal, float(np.max(np.abs(r @ r.T - np.eye(3)))))
        worst_det = max(worst_det, abs(np.linalg.det(r) - 1.0))
        u = waveplate_jones(p2) @ w
        hom = np.array(
            [
                [0.5 * np.trace(pauli(a + 1) @ u @ pauli(b + 1) @ dagger(u)).real for b in range(3)]
                for a in range(3)
            ]
        )
        worst_hom = max(worst_hom, float(np.max(np.abs(hom - waveplate_bloch(p2) @ r))))
    # documented single-entry disagreement with the printed rotation matrix
    c = np.cos(2 * FIG3_PLATE.theta)
    derived = waveplate_bloch(FIG3_PLATE)[0, 1]
    regression_ok = (
        abs(derived - (-c * np.sin(FIG3_PLATE.phi))) < 1e-12
        and abs(derived - (-c * np.cos(FIG3_PLATE.phi))) > 0.1
    )
    ok = max(worst_unitary, worst_orthogonal, worst_det, worst_hom) < 1e-10 and regression_ok
    check(
        "A7 wave-plate algebra (1000 plates)",
        ok,
        f"max deviation={max(worst_unitary, worst_orthogonal, worst_det, worst_hom):.1e} < 1e-10, "
        f"printed-entry regression recorded",
    )


def test_a8_two_qubit_cnot():
    start = time.perf_counter()
    probe = pairs(TRIPLET, TRIPLET)
    cnot = unitary_channel(CNOT)
    res = reconstruct_choi(exact_correlations(propagate(cnot, probe)), probe)
    truth = cnot.choi
    raw_trace_norm = float(np.abs(np.linalg.eigvalsh(res.matrix - truth)).sum())
    dist = distance_choi(res.matrix, truth)
    elapsed = time.perf_counter() - start
    check(
        "A8 controlled-NOT on two pairs",
        raw_trace_norm < 1e-9 and dist < 1e-9 and elapsed < 10.0,
        f"trace-norm distance={raw_trace_norm:.1e} < 1e-9, {elapsed:.1f}s < 10s",
    )


def test_a9_bell_pauli_correspondence_and_isotropy():
    references = {}
    for j in range(4):
        table = exact_correlations(bell_state(j))
        marginals_zero = all(
            table.entries[a, 0] == 0.0 and table.entries[0, a] == 0.0 for a in (1, 2, 3)
        )
        res = reconstruct_state(table)
        references[j] = res.diagnostics["reference"]
        target = pauli(j) / np.sqrt(2.0)  # unit norm
        overlap = abs(np.sum(np.conj(res.matrix) * target)) / np.linalg.norm(res.matrix)
        assert marginals_zero
        assert overlap >= 1.0 - 1e-10
    auto_exercised = references[0] != "|01>" and references[3] != "|01>"
    check(
        "A9 Bell/Pauli correspondence + isotropy",
        auto_exercised,
        f"all four states recovered up to phase, marginals exactly 0, "
        f"references={[references[j] for j in range(4)]}",
    )


def test_a10_faithful_non_maximal_probes():
    ch = compile_device(FIG3_DEVICE)
    u_true = ch.unitary_matrix
    eps_grid = (0.1, 0.18, 0.3, 0.5, np.pi / 4)
    conds, errors = [], []
    for eps in eps_grid:
        psi = BipartiteState.from_coeffs(np.diag([np.cos(eps), np.sin(eps)]))
        report = faithfulness_check(psi)
        assert report.full_rank
        conds.append(report.condition_number)
        out = propagate(ch, psi)
        deviations = []
        for seed in range(10):
            events = run_experiment(out, ExperimentPlan.uniform(4000, seed=900 + seed))
            res = reconstruct_unitary(correlations_from_events(events), psi)
            deviations.append(np.abs(res.matrix - align_phase(u_true, res.matrix)).mean())
        errors.append(np.mean(deviations))
    rank_corr = spearmanr(conds, errors).statistic

    # below the full-rank threshold the estimator must refuse, not guess
    degenerate = BipartiteState.from_coeffs(np.diag([np.cos(1e-8), np.sin(1e-8)]))
    assert not faithfulness_check(degenerate).full_rank
    with pytest.raises(UnfaithfulInputError):
        reconstruct_unitary(exact_correlations(propagate(ch, degenerate)), degenerate)

    check(
        "A10 faithful non-maximal probes",
        rank_corr > 0.9,
        f"error/condition-number rank correlation={rank_corr:.3f} > 0.9 "
        f"over conds {np.round(conds, 2).tolist()}",
    )
