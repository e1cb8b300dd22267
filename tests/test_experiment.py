"""Joint outcome probabilities, event sampling and the event-log format."""

import hashlib
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence
from scipy.stats import unitary_group

from qptsim import (
    BipartiteState,
    CorrelationTable,
    ExperimentPlan,
    IncompleteQuorumError,
    LossModel,
    MeasurementSetting,
    bell_state,
    correlations_from_events,
    exact_correlations,
    joint_probs,
    pairs,
    pauli,
    read_event_log,
    run_experiment,
    tensor,
    write_event_log,
)
import qptsim.experiment
from qptsim.errors import DataError, shown, shown_path
from qptsim.experiment import (
    _CELL_MAP,
    _CELL_WEIGHTS,
    _CHUNK_LINES,
    _JUMP_COST,
    _LINE_BYTES,
    _LOSS_BLOCK_DOUBLES,
    _LOSS_CHUNK,
    _LINES,
    AXIS_LETTERS,
    OUTCOMES,
    SETTINGS,
    _cell_probs,
    _invert_cdf,
    _jumped_uniforms,
    _line_buffer,
    _line_codes,
    _parse_header,
    _render_lines,
    _sample,
    _stream_jumps,
    events_to_counts,
    table_from_counts,
    write_file,
)

TRIPLET = bell_state(1)


def brute_force_table(state):
    """Independent oracle: contract the 4x4 density with kron products."""
    rho = state.density
    t = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            t[i, j] = np.trace(rho @ tensor(pauli(i), pauli(j))).real
    return t


def code(setting, s1, s2):
    """Cell code of one event: 4 * setting index + outcome index."""
    return 4 * SETTINGS.index(setting) + OUTCOMES.index((s1, s2))


def minimal_events(extra=()):
    """One (+1,+1) event per setting, plus any extra cell codes."""
    return np.array([code(s, 1, 1) for s in SETTINGS] + list(extra), dtype=np.uint8)


def test_joint_probs_triplet_zz():
    p = joint_probs(TRIPLET, MeasurementSetting(3, 3))
    assert p[(1, 1)] == pytest.approx(0.0, abs=1e-14)
    assert p[(-1, -1)] == pytest.approx(0.0, abs=1e-14)
    assert p[(1, -1)] == pytest.approx(0.5, abs=1e-14)
    assert p[(-1, 1)] == pytest.approx(0.5, abs=1e-14)


def test_joint_probs_triplet_xx():
    p = joint_probs(TRIPLET, MeasurementSetting(1, 1))
    assert p[(1, 1)] == pytest.approx(0.5, abs=1e-14)
    assert p[(-1, -1)] == pytest.approx(0.5, abs=1e-14)
    assert p[(1, -1)] == pytest.approx(0.0, abs=1e-14)


def test_joint_probs_maximally_mixed():
    mixed = BipartiteState.from_density(np.eye(4) / 4)
    for s in SETTINGS:
        for v in joint_probs(mixed, s).values():
            assert v == pytest.approx(0.25, abs=1e-14)


def test_joint_probs_sum_and_marginal_recomposition():
    rng = np.random.default_rng(61)
    for _ in range(30):
        u = unitary_group.rvs(4, random_state=rng)
        rho = u @ np.diag([0.5, 0.3, 0.15, 0.05]) @ u.conj().T
        state = BipartiteState.from_density(rho)
        for setting in SETTINGS:
            p = joint_probs(state, setting)
            assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)
            m1 = np.trace(rho @ tensor(pauli(setting.axis1), pauli(0))).real
            for s1 in (1, -1):
                assert p[(s1, 1)] + p[(s1, -1)] == pytest.approx((1 + s1 * m1) / 2, abs=1e-12)


def test_joint_probs_invalid_setting():
    with pytest.raises(ValueError):
        joint_probs(TRIPLET, MeasurementSetting(0, 3))


@pytest.mark.parametrize(
    "state,expected",
    [
        (bell_state(1), {(1, 1): 1.0, (2, 2): 1.0, (3, 3): -1.0}),
        (bell_state(0), {(1, 1): 1.0, (2, 2): -1.0, (3, 3): 1.0}),
    ],
)
def test_exact_correlations_bell(state, expected):
    t = exact_correlations(state).entries
    assert t[0, 0] == 1.0
    for i in range(4):
        for j in range(4):
            if (i, j) == (0, 0):
                continue
            assert t[i, j] == pytest.approx(expected.get((i, j), 0.0), abs=1e-14)
    assert np.allclose(t, brute_force_table(state), atol=1e-12)


def test_exact_correlations_product_state():
    psi = BipartiteState.from_coeffs(np.diag([1.0, 0.0]))  # |00>
    t = exact_correlations(psi).entries
    assert t[3, 0] == pytest.approx(1.0)
    assert t[0, 3] == pytest.approx(1.0)
    assert t[3, 3] == pytest.approx(1.0)
    for i, j in ((1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 2), (1, 2)):
        assert t[i, j] == pytest.approx(0.0, abs=1e-14)


def test_isotropy_all_bell_states():
    # maximally entangled inputs have exactly zero single-beam marginals
    for j in range(4):
        t = exact_correlations(bell_state(j)).entries
        for a in (1, 2, 3):
            assert t[a, 0] == 0.0
            assert t[0, a] == 0.0


def test_run_experiment_deterministic():
    plan = ExperimentPlan.uniform(900, seed=123)
    a = run_experiment(TRIPLET, plan)
    b = run_experiment(TRIPLET, plan)
    assert a.dtype == np.uint8 and a.ndim == 1
    assert np.array_equal(a, b)


def test_run_experiment_allocation_counts():
    plan = ExperimentPlan.uniform(9005, seed=1)
    events = run_experiment(TRIPLET, plan)
    assert len(events) == 9005
    # events come in setting order
    assert np.all(np.diff(events // 4) >= 0)
    counts = np.bincount(events // 4, minlength=len(SETTINGS))
    # remainder goes to the earliest settings in enumeration order
    assert counts.tolist() == [1001, 1001, 1001, 1001, 1001, 1000, 1000, 1000, 1000]


def test_per_setting_substreams_independent_of_allocation():
    # changing another setting's allocation must not perturb this one's draw
    uniform = ExperimentPlan.uniform(900, seed=5)
    skewed_alloc = {s: 1 for s in SETTINGS}
    skewed_alloc[MeasurementSetting(1, 1)] = 100
    skewed = ExperimentPlan(total=108, allocation=skewed_alloc, seed=5)
    k = SETTINGS.index(MeasurementSetting(1, 1))
    pick = lambda evs: evs[evs // 4 == k]
    assert np.array_equal(pick(run_experiment(TRIPLET, uniform)), pick(run_experiment(TRIPLET, skewed)))


def test_run_experiment_zero_allocation_setting_absent():
    alloc = {s: 0 for s in SETTINGS}
    alloc[MeasurementSetting(1, 1)] = 50
    plan = ExperimentPlan(total=50, allocation=alloc, seed=7)
    events = run_experiment(TRIPLET, plan)
    assert len(events) == 50
    assert {SETTINGS[k] for k in events // 4} == {MeasurementSetting(1, 1)}


def test_run_experiment_all_zero_rejected():
    with pytest.raises(ValueError):
        ExperimentPlan(total=0, allocation={s: 0 for s in SETTINGS}, seed=0)


def test_plan_allocation_must_sum():
    with pytest.raises(ValueError):
        ExperimentPlan(total=10, allocation={MeasurementSetting(1, 1): 5}, seed=0)


def random_one_pair_states(seed, n):
    """n seeded one-pair states, alternately pure and mixed (of rank 2 to 4)."""
    rng = np.random.default_rng(seed)
    states = []
    for k in range(n):
        if k % 2 == 0:
            psi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            states.append(BipartiteState.from_coeffs(psi / np.linalg.norm(psi)))
        else:
            a = rng.normal(size=(4, 2 + k % 3)) + 1j * rng.normal(size=(4, 2 + k % 3))
            rho = a @ a.conj().T
            states.append(BipartiteState.from_density(rho / np.trace(rho).real))
    return states


def born_probs(state):
    """Independent oracle: Tr[rho (P1 x P2)] with P = (I + s sigma_a) / 2."""
    proj = lambda a, s: (np.eye(2) + s * pauli(a)) / 2
    return np.array([
        [np.trace(state.density @ tensor(proj(a1, s1), proj(a2, s2))).real for s1, s2 in OUTCOMES]
        for a1, a2 in SETTINGS
    ])


def test_sampler_probabilities_are_the_cell_map_of_the_exact_table():
    # the probabilities the sampler and joint_probs read are the map applied
    # to the exact table, over 4, and the Born rule of the state's detectors
    for state in random_one_pair_states(2201, 200):
        probs = _cell_probs(exact_correlations(state))
        mapped = (_CELL_MAP @ brute_force_table(state).reshape(16) / 4).reshape(9, 4)
        assert np.allclose(probs, mapped, rtol=0, atol=1e-15)
        assert np.allclose(probs, born_probs(state), rtol=0, atol=1e-12)
        for k, setting in enumerate(SETTINGS):
            assert list(joint_probs(state, setting).values()) == probs[k].tolist()
    two_pairs = pairs(TRIPLET, TRIPLET)
    with pytest.raises(ValueError, match="one pair"):
        _cell_probs(exact_correlations(two_pairs))
    with pytest.raises(ValueError, match="one pair"):
        run_experiment(two_pairs, ExperimentPlan.uniform(9, seed=0))


def test_cell_map_reduces_expected_frequencies_to_the_exact_table():
    # the estimator inverts the sampler's model: the expected cell frequencies
    # of any allocation reduce through the map's numerator and denominator
    # to the exact table
    rng = np.random.default_rng(2202)
    for state in random_one_pair_states(2203, 200):
        weights = rng.uniform(0.1, 1.0, size=(9, 1))
        freqs = (weights * _cell_probs(exact_correlations(state))).reshape(36)
        table = (freqs @ _CELL_MAP) / (freqs @ _CELL_WEIGHTS)
        assert np.allclose(table.reshape(4, 4), brute_force_table(state), rtol=0, atol=1e-12)


def test_triplet_zz_forbidden_outcomes_never_occur():
    alloc = {s: 0 for s in SETTINGS}
    alloc[MeasurementSetting(3, 3)] = 1000
    events = run_experiment(TRIPLET, ExperimentPlan(total=1000, allocation=alloc, seed=42))
    assert {OUTCOMES[o] for o in events % 4} <= {(1, -1), (-1, 1)}


def test_sampling_within_statistical_band():
    # every entry within 5 standard errors of the exact value, using the
    # per-entry event counts of the plan: a setting's own allocation for a
    # correlation, the pooled allocations of its axis for a marginal
    plan = ExperimentPlan.uniform(1_000_000, seed=2024)
    table = correlations_from_events(run_experiment(TRIPLET, plan))
    exact = exact_correlations(TRIPLET).entries
    n = np.array([plan.allocation[s] for s in SETTINGS]).reshape(3, 3)
    counts = np.zeros((4, 4))
    counts[1:, 1:] = n
    counts[1:, 0] = n.sum(axis=1)
    counts[0, 1:] = n.sum(axis=0)
    for i in range(4):
        for j in range(4):
            if (i, j) == (0, 0):
                continue
            band = 5.0 / np.sqrt(counts[i, j])
            assert abs(table.entries[i, j] - exact[i, j]) <= band


def test_loss_model_preserves_event_count():
    plan = ExperimentPlan.uniform(900, seed=5, loss=LossModel(eta=0.42))
    events = run_experiment(TRIPLET, plan)
    assert len(events) == 900


def three_call_lossy_loop(state, plan):
    """The lossy sampler as first written: per chunk one choice and two random calls."""
    probs = _cell_probs(exact_correlations(state))
    eta = plan.loss.eta
    codes = []
    for idx, setting in enumerate(SETTINGS):
        n = plan.allocation.get(setting, 0)
        if n == 0:
            continue
        rng = np.random.default_rng([plan.seed, idx])
        kept, total = [], 0
        while total < n:
            trial = rng.choice(4, size=_LOSS_CHUNK, p=probs[idx])
            detected = (rng.random(_LOSS_CHUNK) < eta) & (rng.random(_LOSS_CHUNK) < eta)
            kept.append(trial[detected])
            total += kept[-1].size
        codes.append((4 * idx + np.concatenate(kept)[:n]).astype(np.uint8))
    return np.concatenate(codes)


@pytest.mark.parametrize(
    "eta", [0.999, 0.42, 0.26, _JUMP_COST**-0.5, 0.2, 0.07, 1 / _JUMP_COST, 0.06, 0.05, 0.03, 0.01]
)
def test_lossy_stream_matches_three_call_loop(eta):
    # etas on both sides of both crossovers of the row rule and on each; one
    # setting gets nothing, one fewer events than a chunk yields at eta 0.05,
    # and two just below and just above what one block is expected to yield
    assert 0.2 < _JUMP_COST**-0.5 < 0.26 and 0.06 < 1 / _JUMP_COST < 0.07
    rows = sum(share >= 1 / _JUMP_COST for share in (eta * eta, 1.0, eta))
    block_yield = _LOSS_BLOCK_DOUBLES // (rows * _LOSS_CHUNK) * _LOSS_CHUNK * eta**2
    alloc = {s: 250 for s in SETTINGS}
    alloc[SETTINGS[1]] = 0
    alloc[SETTINGS[5]] = 3
    alloc[SETTINGS[6]] = int(block_yield) - 1
    alloc[SETTINGS[7]] = int(block_yield) + 2
    state = BipartiteState.from_coeffs(unitary_group.rvs(2, random_state=8) / np.sqrt(2))
    plan = ExperimentPlan(total=sum(alloc.values()), allocation=alloc, seed=2024, loss=LossModel(eta))
    events = run_experiment(state, plan)
    assert events.dtype == np.uint8
    assert np.array_equal(events, three_call_lossy_loop(state, plan))


def test_lossy_stream_digest_is_frozen():
    # sha256 of these codes as drawn by the three-call loop
    plan = ExperimentPlan.uniform(9000, seed=778, loss=LossModel(eta=0.42))
    digest = hashlib.sha256(run_experiment(TRIPLET, plan).tobytes()).hexdigest()
    assert digest == "a1632ea5deb3a28403109e356a271816309fbb86d3ada4dcd418ee7d32b859b6"


def choice_sampler(state, plan):
    """The lossless sampler as first written: one Generator.choice per setting."""
    probs = _cell_probs(exact_correlations(state))
    codes = []
    for idx, setting in enumerate(SETTINGS):
        n = plan.allocation.get(setting, 0)
        if n == 0:
            continue
        rng = np.random.default_rng([plan.seed, idx])
        codes.append((4 * idx + rng.choice(4, size=n, p=probs[idx])).astype(np.uint8))
    return np.concatenate(codes)


@pytest.mark.parametrize("eta", [1.0, 0.42])
@pytest.mark.parametrize("state_seed", [None, 3, 17])
def test_stream_matches_choice_across_chunks(state_seed, eta):
    # allocations on both sides of one and three chunks, and one setting with
    # nothing; the triplet's xx, yy and zz rows hold zero probabilities, so
    # their cdfs repeat values
    C = _CHUNK_LINES
    sizes = [1, C - 1, C, C + 1, 3 * C + 7, 0, 2, 5, 1]
    alloc = dict(zip(SETTINGS, sizes))
    if state_seed is None:
        state = TRIPLET
    else:
        coeffs = unitary_group.rvs(2, random_state=state_seed) / np.sqrt(2)
        state = BipartiteState.from_coeffs(coeffs)
    loss = LossModel(eta) if eta < 1.0 else None
    plan = ExperimentPlan(total=sum(sizes), allocation=alloc, seed=99, loss=loss)
    events = run_experiment(state, plan)
    assert events.dtype == np.uint8
    reference = choice_sampler if loss is None else three_call_lossy_loop
    assert np.array_equal(events, reference(state, plan))


def test_cdf_inversion_counts_entries_at_or_below_u():
    # Generator.choice's searchsorted(side="right") on uniforms that hit the
    # cdf's (repeated) values exactly, and on 0.0
    p = np.array([0.0, 0.25, 0.0, 0.75])
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = np.array([0.0, 0.1, 0.25, np.nextafter(0.25, 0), np.nextafter(0.25, 1), 0.9, 1 - 2**-53])
    out = np.empty(u.size, dtype=np.uint8)
    reached = [5, 6, 7, 8, 9]  # entries 1..3 gain their counts; 0 and 4 are untouched
    _invert_cdf(cdf, u, out, reached)
    expected = cdf.searchsorted(u, side="right")
    assert out.tolist() == expected.tolist()
    assert set(out.tolist()) <= {1, 3}
    assert reached == [5] + [r + sum(expected >= o) for r, o in ((6, 1), (7, 2), (8, 3))] + [9]


SAMPLER_ALLOCATIONS = {
    "total-1": [0, 0, 0, 1, 0, 0, 0, 0, 0],
    "chunk-edges": [_CHUNK_LINES - 1, _CHUNK_LINES, _CHUNK_LINES + 1, 1, 0, 2, 0, 5, 0],
}


@pytest.mark.parametrize("eta", [1.0, 0.42, 0.1, 0.03])
@pytest.mark.parametrize("sizes", sorted(SAMPLER_ALLOCATIONS))
def test_sampler_counts_are_the_counts_of_its_codes(eta, sizes):
    # the table the sampler tallies while inverting, whether every loss row is
    # drawn (0.42), the outcome row jumped (0.1) or the beam-2 row too (0.03);
    # settings allocated nothing get a row of zeros
    alloc = dict(zip(SETTINGS, SAMPLER_ALLOCATIONS[sizes]))
    state = BipartiteState.from_coeffs(unitary_group.rvs(2, random_state=5) / np.sqrt(2))
    loss = LossModel(eta) if eta < 1.0 else None
    plan = ExperimentPlan(total=sum(alloc.values()), allocation=alloc, seed=31, loss=loss)
    codes, counts = _sample(state, plan)
    assert counts.dtype == np.int64 and counts.shape == (len(SETTINGS), len(OUTCOMES))
    assert np.array_equal(counts, events_to_counts(codes))
    assert counts.sum(axis=1).tolist() == SAMPLER_ALLOCATIONS[sizes]


def test_lossy_uniform_of_zero_draws_an_allowed_outcome(monkeypatch):
    # |11> gives zz outcome (-1,-1) with probability 1 and exactly 0 to the
    # rest.  Generator.choice inverts its cdf from the right, so a uniform of
    # exactly 0.0 (which random() can return) still picks (-1,-1), whether
    # every row is drawn (eta 0.5), the outcome row jumped (eta 0.2) or the
    # beam-2 row jumped too (eta 0.03).
    class ZeroUniforms:
        def __init__(self, bit_generator):
            self.bit_generator = bit_generator

        def random(self, out):
            out[...] = 0.0
            return out

    def zero_jumped_uniforms(s_lo, s_hi, k, jumps):
        return np.zeros(k.size)

    zz = MeasurementSetting(3, 3)
    alloc = {s: 0 for s in SETTINGS}
    alloc[zz] = 5
    one_one = BipartiteState.from_coeffs(np.array([[0, 0], [0, 1]], dtype=complex))
    monkeypatch.setattr(np.random, "Generator", ZeroUniforms)
    monkeypatch.setattr(qptsim.experiment, "_jumped_uniforms", zero_jumped_uniforms)
    for eta in (0.5, 0.2, 0.03):
        plan = ExperimentPlan(total=5, allocation=alloc, seed=0, loss=LossModel(eta=eta))
        assert run_experiment(one_one, plan).tolist() == [code(zz, -1, -1)] * 5


@pytest.mark.parametrize("seed", [[0, 0], [2024, 4], [778, 8], [2**64 - 1, 5]])
def test_jumped_uniforms_match_generator(seed):
    # every draw of one loss chunk (offsets 0, 1, L-1, L, 2L and 3L-1 among
    # them), computed from the state before the chunk; the Python-int oracle
    # below checks that a rotation of 0 and a carry out of the low word occur
    L = _LOSS_CHUNK
    mask64, mask128, mult = (1 << 64) - 1, (1 << 128) - 1, 0x2360ED051FC65DA44385DF649FCCF645
    bitgen = PCG64(SeedSequence(seed))
    Generator(bitgen).random(seed[1] * 1000 + 1)  # start mid-stream
    state = bitgen.state["state"]
    s, inc = state["state"], state["inc"]
    expected = Generator(bitgen).random(3 * L)
    jumps, (a_chunk, c_chunk) = _stream_jumps(inc, 3 * L)
    k = np.arange(3 * L)
    s_lo = np.full(k.size, s & mask64, dtype=np.uint64)
    s_hi = np.full(k.size, s >> 64, dtype=np.uint64)
    u = _jumped_uniforms(s_lo, s_hi, k, jumps)
    for offset in (0, 1, L - 1, L, 2 * L, 3 * L - 1):
        assert u[offset] == expected[offset]
    assert np.array_equal(u, expected)
    assert bitgen.state["state"]["state"] == (a_chunk * s + c_chunk) & mask128

    rotations_of_zero = carries = 0
    a, g = 1, 0
    for _ in range(3 * L):
        g, a = (g + a) & mask128, a * mult & mask128
        a_s, c = a * s & mask128, inc * g & mask128
        rotations_of_zero += ((a_s + c) & mask128) >> 122 == 0
        carries += (a_s & mask64) + (c & mask64) > mask64
    assert rotations_of_zero > 0 and carries > 0


# the table's size in a fresh interpreter after import, after lossless and eta 0.42 draws,
# where every loss row is drawn, and after a draw at eta 0.1, which jumps the outcome row
LAZY_TABLE = """
import qptsim.experiment as e
from qptsim import ExperimentPlan, LossModel, bell_state, run_experiment
sizes = [e._jump_table.cache_info().currsize]
for loss in (None, LossModel(0.42), LossModel(0.1)):
    run_experiment(bell_state(1), ExperimentPlan.uniform(900, seed=1, loss=loss))
    sizes.append(e._jump_table.cache_info().currsize)
print(sizes)
"""


def test_jump_table_is_built_on_the_first_jumped_draw():
    src = os.path.dirname(os.path.dirname(qptsim.experiment.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", LAZY_TABLE], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[0, 0, 0, 1]\n"


def test_loss_model_validation():
    with pytest.raises(ValueError):
        LossModel(eta=0.0)
    with pytest.raises(ValueError):
        LossModel(eta=1.2)
    with pytest.raises(ValueError, match="must be a number"):
        LossModel(eta=True)
    with pytest.raises(ValueError, match="must be a number"):
        LossModel(eta="0.5")
    # stored as a float, so a JSON 1 is written as eta=1.0
    assert repr(LossModel(eta=1).eta) == "1.0"


def test_correlations_single_event_average():
    events = minimal_events([code(MeasurementSetting(3, 3), 1, -1)] * 3)
    # setting (3,3) holds one (+,+) filler and three (+,-): mean s1*s2 = -0.5
    t = correlations_from_events(events)
    assert t.entries[3, 3] == pytest.approx(-0.5)
    only = [code(s, 1, 1) for s in SETTINGS if s != MeasurementSetting(3, 3)]
    only.append(code(MeasurementSetting(3, 3), 1, -1))
    assert correlations_from_events(np.array(only, dtype=np.uint8)).entries[3, 3] == pytest.approx(-1.0)


def test_marginals_pool_across_partner_axis():
    events = minimal_events()
    t = correlations_from_events(events)
    assert t.entries[1, 0] == pytest.approx(1.0)


def test_empty_events_incomplete_quorum():
    for empty in ([], np.array([], dtype=np.uint8)):
        assert not events_to_counts(empty).any()
        with pytest.raises(IncompleteQuorumError):
            correlations_from_events(empty)


@pytest.mark.parametrize(
    "events",
    [
        np.array([0, 36], dtype=np.uint8),
        np.array([-1, 0]),
        np.zeros((2, 9), dtype=np.uint8),
        np.array([0.0, 1.0]),
        np.array([True, False]),
    ],
    ids=["code-36", "negative", "2-d", "float", "bool"],
)
def test_events_to_counts_rejects_non_codes(events):
    with pytest.raises(ValueError):
        events_to_counts(events)


def test_counts_and_table_match_per_event_loops():
    # reference: count event by event, then average setting by setting and
    # pool the marginals axis by axis; the entries must agree bit for bit
    events = run_experiment(TRIPLET, ExperimentPlan.uniform(907, seed=8))
    expected = np.zeros((len(SETTINGS), len(OUTCOMES)), dtype=np.int64)
    for c in events.tolist():
        expected[c // 4, c % 4] += 1
    counts = events_to_counts(events)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, expected)

    s1 = np.array([o[0] for o in OUTCOMES])
    s2 = np.array([o[1] for o in OUTCOMES])
    n = counts.sum(axis=1)
    ref = np.zeros((4, 4))
    ref[0, 0] = 1.0
    for k, (a1, a2) in enumerate(SETTINGS):
        ref[a1, a2] = float((counts[k] * s1 * s2).sum()) / n[k]
    for a in (1, 2, 3):
        rows1 = [k for k, s in enumerate(SETTINGS) if s.axis1 == a]
        rows2 = [k for k, s in enumerate(SETTINGS) if s.axis2 == a]
        ref[a, 0] = float((counts[rows1] * s1).sum()) / n[rows1].sum()
        ref[0, a] = float((counts[rows2] * s2).sum()) / n[rows2].sum()
    assert np.array_equal(correlations_from_events(events).entries, ref)


def pooled_sums_table(counts):
    """Reference: each entry's signed and pooled event counts summed as
    Python integers over the settings and outcomes it pools, divided once."""
    table = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            num = den = 0
            for k, (a1, a2) in enumerate(SETTINGS):
                if i not in (0, a1) or j not in (0, a2):
                    continue
                for o, (s1, s2) in enumerate(OUTCOMES):
                    n = int(counts[k, o])
                    num += n * (s1 if i else 1) * (s2 if j else 1)
                    den += n
            table[i, j] = num / den
    return table


def test_table_from_counts_equals_integer_pooled_sums():
    # the (36, 16) maps sum whole counts in float64, which is exact, so the
    # table is the integer reference bit for bit, zero cells included
    rng = np.random.default_rng(59)
    counts = rng.integers(0, 10**7 + 1, size=(6, len(SETTINGS), len(OUTCOMES)))
    counts[0] = rng.integers(0, 3, size=(len(SETTINGS), len(OUTCOMES)))
    counts[1, :, 1:] = 0  # only (+,+) outcomes: every correlation is 1
    counts[2, :, :2] = 0  # s1 = -1 everywhere
    counts[3] = 10**7
    counts[0, :, 0] += 1  # no empty setting
    expected = np.stack([pooled_sums_table(c) for c in counts])
    assert table_from_counts(counts).entries.tobytes() == expected.tobytes()
    for c, e in zip(counts, expected):
        assert table_from_counts(c).entries.tobytes() == e.tobytes()


def test_table_from_counts_refuses_non_integer_and_negative_counts():
    # 2.7 is not read as 2, and a count of -1 is no table
    with pytest.raises(ValueError, match="must be integers"):
        table_from_counts(np.full((9, 4), 2.7))
    with pytest.raises(ValueError, match="must be integers"):
        table_from_counts(np.full((2, 9, 4), True))
    counts = np.full((3, 9, 4), 5)
    counts[2, 4, 1] = -1
    for bad in (counts[2], counts):
        with pytest.raises(ValueError, match="at least 0"):
            table_from_counts(bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": True},
        {"seed": 1.0},
        {"total": True, "allocation": {SETTINGS[0]: 1}},
        {"total": 2.0},
        {"allocation": {SETTINGS[0]: 2.0}},
        {"total": 1, "allocation": {SETTINGS[0]: True}},
        {"allocation": {SETTINGS[0]: np.float64(2)}},
    ],
)
def test_plan_refuses_bools_and_non_integers(kwargs):
    plan = {"total": 2, "allocation": {SETTINGS[0]: 2}, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match="must be an integer"):
        ExperimentPlan(**plan)


def test_plan_and_loss_model_take_numpy_numbers():
    plan = ExperimentPlan(np.int64(2), {SETTINGS[0]: np.int32(2)}, np.uint64(7), LossModel(np.float64(0.5)))
    assert run_experiment(TRIPLET, plan).size == 2


def test_missing_setting_listed():
    events = minimal_events()
    events = events[events // 4 != SETTINGS.index(MeasurementSetting(2, 3))]
    with pytest.raises(IncompleteQuorumError) as err:
        correlations_from_events(events)
    assert err.value.missing == [(2, 3)]
    assert "yz" in str(err.value)


def test_correlation_table_validation():
    bad = np.zeros((4, 4))
    with pytest.raises(ValueError):
        CorrelationTable(entries=bad)  # (0,0) != 1
    bad = np.zeros((4, 4))
    bad[0, 0] = 1.0
    bad[1, 2] = 1.5
    with pytest.raises(ValueError):
        CorrelationTable(entries=bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cell", [(0, 0), (3, 3)])
def test_correlation_table_refuses_non_finite_entries(value, cell):
    # NaN compares False with every bound, so the range check has to accept
    # only entries that compare True, not refuse those that exceed it
    good = exact_correlations(TRIPLET).entries
    for entries in (good.copy(), np.stack([good] * 3)):
        entries[(-1, *cell) if entries.ndim == 3 else cell] = value
        with pytest.raises(ValueError):
            CorrelationTable(entries=entries)


def test_event_log_roundtrip(tmp_path):
    plan = ExperimentPlan.uniform(450, seed=9, loss=LossModel(eta=0.42))
    events = run_experiment(TRIPLET, plan)
    path = tmp_path / "events.csv"
    write_event_log(path, events, seed=9, eta=0.42)
    back, header = read_event_log(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, events)
    assert header == {"total": 450, "seed": 9, "eta": 0.42}
    first = path.read_text().splitlines()[0]
    assert first == "# total=450 seed=9 eta=0.42"


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(2**64 - 1)])
def test_event_log_header_of_numpy_scalars_reads_back(tmp_path, seed):
    # numpy 2 reprs a scalar as np.float64(0.42); the header holds the plain number
    codes = np.arange(36, dtype=np.uint8)
    path = tmp_path / "events.csv"
    write_event_log(path, codes, seed=seed, eta=np.float64(0.42))
    back, header = read_event_log(path)
    assert np.array_equal(back, codes)
    assert header == {"total": 36, "seed": int(seed), "eta": 0.42}
    assert path.read_text().splitlines()[0] == f"# total=36 seed={int(seed)} eta=0.42"


def test_event_log_matches_per_event_format(tmp_path):
    # reference: the log body written one f-string per event
    plan = ExperimentPlan.uniform(450, seed=12, loss=LossModel(eta=0.3))
    events = run_experiment(TRIPLET, plan)
    expected = "# total=450 seed=12 eta=0.3\n"
    for c in events.tolist():
        (a1, a2), (s1, s2) = SETTINGS[c // 4], OUTCOMES[c % 4]
        expected += f"{AXIS_LETTERS[a1]},{AXIS_LETTERS[a2]},{s1:+d},{s2:+d}\n"
    path = tmp_path / "events.csv"
    write_event_log(path, events, seed=12, eta=0.3)
    assert path.read_bytes() == expected.encode("ascii")


def test_writer_and_counter_work_in_bounded_chunks(tmp_path):
    # 1e6 events are 10 MB of log and, cast to intp, 8 MB of codes; neither
    # may be held whole
    codes = np.random.default_rng(4).integers(0, len(_LINE_BYTES), size=1_000_000, dtype=np.uint8)
    path = tmp_path / "events.csv"
    tracemalloc.start()
    try:
        write_event_log(path, codes, seed=4)
        counts = events_to_counts(codes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert np.array_equal(counts.reshape(-1), np.bincount(codes, minlength=len(_LINE_BYTES)))
    body = path.read_bytes().split(b"\n", 1)[1]
    assert body == _LINE_BYTES[codes].tobytes()


@pytest.mark.parametrize(
    "n", [0, 1, 2, 7, 36, _CHUNK_LINES - 1, _CHUNK_LINES, _CHUNK_LINES + 1, 2 * _CHUNK_LINES + 3]
)
def test_event_log_lines_rendered_in_pairs(tmp_path, n):
    # odd and even lengths, ending the log or a chunk: each line is rendered as
    # its 8-byte head, and its last two bytes come from the pre-filled buffer
    codes = np.random.default_rng(n).integers(0, len(_LINES), size=n, dtype=np.uint8)
    expected = f"# total={n} seed=0 eta=1.0\n" + "".join(_LINES[c] for c in codes)
    path = tmp_path / "events.csv"
    for dtype in (np.uint8, np.int64):  # any integer array of cell codes
        write_event_log(path, codes.astype(dtype), seed=0)
        assert path.read_bytes() == expected.encode("ascii")


def test_line_buffer_reused_for_shorter_chunks():
    # one buffer renders a full chunk holding all 36 codes, then 5 lines, then 1;
    # each slice holds exactly its own lines, whatever the codes' dtype
    full = np.random.default_rng(36).integers(0, len(_LINES), size=_CHUNK_LINES, dtype=np.uint8)
    full[:36] = np.arange(36)[::-1]
    chunks = [full, np.array([35, 0, 17, 3, 35], dtype=np.uint8), np.array([12], dtype=np.uint8)]
    # the reader's codes, decoded by its fast path from the writer's bytes
    decoded = [_line_codes("events.csv", _LINE_BYTES[c].tobytes(), 1, _line_buffer())[0]
               for c in chunks]
    for codes in (chunks, [c.astype(np.int64) for c in chunks], decoded):
        buf = _line_buffer()
        for c in codes:
            assert _render_lines(c, buf).tobytes() == _LINE_BYTES[c].tobytes()


def test_interrupted_rewrite_leaves_a_rejected_log(tmp_path):
    # outputs are rewritten in place; until the first byte goes in last,
    # line 1 is blank, so no mix of the old and new logs reads as valid
    path = tmp_path / "events.csv"
    codes = np.arange(36, dtype=np.uint8)
    write_event_log(path, codes, seed=1)

    def body():
        yield _LINE_BYTES[codes[::-1]].tobytes()[:100]
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_file(path, b"# total=36 seed=2 eta=1.0\n", body())
    with pytest.raises(DataError, match="line 1: missing"):
        read_event_log(path)
    write_event_log(path, codes[:5], seed=3)
    assert path.read_bytes() == b"# total=5 seed=3 eta=1.0\n" + _LINE_BYTES[codes[:5]].tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_event_log_written_to_a_pipe():
    codes = np.arange(36, dtype=np.uint8)
    r, w = os.pipe()
    try:
        write_event_log(f"/dev/fd/{w}", codes, seed=1)
        os.close(w)
        w = None
        assert os.read(r, 1 << 12) == b"# total=36 seed=1 eta=1.0\n" + _LINE_BYTES[codes].tobytes()
    finally:
        os.close(r)
        if w is not None:
            os.close(w)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_write_file_to_a_pipe_sends_the_header_and_chunks_in_order():
    # a pipe cannot seek, so the first byte goes first, not last over a newline;
    # each chunk is written before the next refills the buffer they share
    buf = bytearray(b"x,z,+1,-1\n")

    def chunks():
        yield buf
        buf[:] = b"y,y,-1,-1\n"
        yield buf

    r, w = os.pipe()
    try:
        write_file(f"/dev/fd/{w}", b"# total=2 seed=0 eta=1.0\n", chunks())
        os.close(w)
        w = None
        assert os.read(r, 1) == b"#"
        received = b""
        while data := os.read(r, 1 << 12):
            received += data
        assert received == b" total=2 seed=0 eta=1.0\nx,z,+1,-1\ny,y,-1,-1\n"
    finally:
        os.close(r)
        if w is not None:
            os.close(w)


def test_event_log_malformed_line(tmp_path):
    # only the 36 documented spellings are read; an unsigned 1 is not +1
    path = tmp_path / "events.csv"
    for bad in ("x,q,+1,-1", "x,z,1,-1", "x,z,+1", "x,z,+1,-1,+1"):
        path.write_text(f"# total=2 seed=0 eta=1.0\nx,z,+1,-1\n{bad}\n")
        with pytest.raises(DataError) as err:
            read_event_log(path)
        assert "line 3" in str(err.value)


def line_parser_reference(path):
    """The reader's grammar as a text-mode read, one Python line at a time:
    (codes, header), or the error text of the first fault it meets."""
    name = shown_path(path)
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = _parse_header(path, fh.readline())
            codes = bytearray()
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                if line not in LINE_SPELLINGS:
                    raise DataError(
                        f"{name}: line {lineno}: expected x|y|z,x|y|z,+1|-1,+1|-1: {shown(line)}"
                    )
                codes.append(LINE_SPELLINGS.index(line))
    except DataError as exc:
        return str(exc)
    except UnicodeDecodeError as exc:
        return f"{name}: non-ASCII byte 0x{exc.object[exc.start]:02x} in event log"
    if header["total"] != len(codes):
        return f"{name}: header announces {header['total']} events but {len(codes)} were read"
    return np.frombuffer(codes, dtype=np.uint8), header


LINE_SPELLINGS = [line.strip() for line in _LINES]


def read_or_error(path):
    try:
        return read_event_log(path)
    except DataError as exc:
        return str(exc)


def assert_same_read(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert got[0].dtype == np.uint8 and np.array_equal(got[0], expected[0])
        assert got[1] == expected[1]


def test_event_log_reader_fuzz(tmp_path):
    # random bodies after a valid header, with junk that includes line ends,
    # str.strip() whitespace and non-ASCII bytes: each is read exactly as the
    # text-mode reference reads it, codes or one-line error
    valid = [line.encode("ascii") for line in _LINES]
    pool = np.frombuffer(b"\r\r\n  \t\x0b\x0c\x1c\x1f,+-1xyzq\x00\xe9\xff", dtype=np.uint8)
    rng = np.random.default_rng(404)
    path = tmp_path / "events.csv"
    read_back = failed = 0
    for trial in range(400):
        codes = rng.integers(0, len(valid), size=rng.integers(0, 20))
        body = b"".join(valid[c] for c in codes)
        if trial % 2:
            size = rng.integers(1, 12)
            junk = rng.integers(0, 256, size=size, dtype=np.uint8)
            junk = np.where(rng.random(size) < 0.8, rng.choice(pool, size=size), junk).tobytes()
            at = int(rng.integers(0, len(body) + 1))
            body = body[:at] + junk + body[at:]
        path.write_bytes(f"# total={codes.size} seed=0 eta=1.0\n".encode("ascii") + body)
        got = read_or_error(path)
        assert_same_read(got, line_parser_reference(path))
        if isinstance(got, str):
            assert "\n" not in got
            failed += 1
            continue
        if trial % 2 == 0:
            assert np.array_equal(got[0], codes)
        read_back += 1
    assert read_back >= 200 and failed > 0


def log_header(total):
    return b"# total=%d seed=0 eta=1.0\n" % total


def log_body(n, seed=0):
    """n random lines as the writer emits them."""
    codes = np.random.default_rng(seed).integers(0, len(_LINE_BYTES), size=n)
    return _LINE_BYTES[codes].tobytes()


C = _CHUNK_LINES
# Bytes of one read: the reader's first chunk is the header line and one read.
CHUNK_BYTES = C * _LINE_BYTES.shape[1]


def across_first_chunk_end(header, before, after):
    """A log whose first chunk ends after ``before``: its first line is
    indented with spaces so that ``before`` fills the read."""
    assert len(before) <= CHUNK_BYTES
    return header + b" " * (CHUNK_BYTES - len(before)) + before + after


def crlf_across_first_chunk_end(n, after=b""):
    """A CRLF log of n lines, then ``after``, with a CRLF split by the first chunk's end."""
    body = log_body(n).replace(b"\n", b"\r\n")
    cut = CHUNK_BYTES // 11 * 11 - 1
    header = log_header(n).replace(b"\n", b"\r\n")
    return across_first_chunk_end(header, body[:cut], body[cut:] + after)


READER_CASES = {
    **{f"valid-{n}": log_header(n) + log_body(n) for n in (0, 1, C - 1, C, C + 1, 3 * C + 7)},
    "bad-line-in-second-chunk": log_header(C + 6) + log_body(C) + b"x,q,+1,-1\n" + log_body(5),
    "unsigned-sign-in-second-chunk": log_header(C + 1) + log_body(C) + b"x,z,+1,-2\n",
    # the bad line is the second of a pair of lines, each rendered as its own head word
    "bad-second-line-of-a-pair": log_header(4) + log_body(1) + b"x,z,+1,+2\n" + log_body(2),
    "bad-second-line-of-a-chunk-end": (
        log_header(C + 1) + log_body(C - 1) + b"y,q,-1,+1\n" + log_body(1, seed=1)
    ),
    "blank-line": log_header(5) + log_body(3) + b"\n" + log_body(2, seed=1),
    # 20 lines of 11 bytes, 10 once their line ends are turned into \n
    "crlf-body": log_header(20) + log_body(20).replace(b"\n", b"\r\n"),
    "crlf-everywhere": (log_header(20) + log_body(20)).replace(b"\n", b"\r\n"),
    "crlf-split-at-chunk-end": crlf_across_first_chunk_end(C + 7),
    # the bad line's number counts the split \r\n as one line end
    "crlf-split-then-bad-line": crlf_across_first_chunk_end(C + 7, b"x,q,+1,-1\r\n"),
    "lone-cr": (log_header(3 * C) + log_body(3 * C)).replace(b"\n", b"\r"),
    # the first chunk ends in a blank line, and the second opens with a padded one
    "blank-and-padded-at-chunk-end": across_first_chunk_end(
        log_header(C + 5), log_body(C - 1) + b"\n", b" \tx,z,+1,-1\x0b\x1c \n" + log_body(5)
    ),
    "no-final-newline": log_header(5) + log_body(5)[:-1],
    "malformed-last-line-no-final-newline": log_header(5) + log_body(4) + b"x,z,+1",
    "non-ascii-in-third-chunk": (
        log_header(2 * C + 4) + log_body(2 * C + 1) + b"x,z,+1,-\xe9\n" + log_body(2, seed=1)
    ),
    # a malformed line, then a non-ASCII byte: the reader reports the first
    # chunk that holds either, and the byte when one chunk holds both; the
    # text-mode reference decided per 8 KB block
    "malformed-then-non-ascii-in-one-chunk": (
        log_header(1006) + log_body(3) + b"x,q,+1,-1\n"
        + log_body(1000) + b"x,z,\xb11,-1\n" + log_body(1)
    ),
    "malformed-then-non-ascii-in-the-next-chunk": (
        log_header(C + 2) + log_body(C - 1) + b"x,q,+1,-1\n" + b"x,z,\xb11,-1\n" + log_body(1)
    ),
    "count-mismatch": log_header(C + 4) + log_body(C + 3),
    "cr-in-header": b"# total=1\rseed=0 eta=1.0\nx,z,+1,-1\n",
    "header-longer-than-a-chunk": b"#" + b" " * (2 * CHUNK_BYTES) + log_header(1)[1:] + log_body(1),
    "no-header": log_body(3),
}
# The two-fault cases where the reader and the text-mode reference differ, with the reader's error.
READER_PRECEDENCE = {
    "malformed-then-non-ascii-in-one-chunk": "non-ASCII byte 0xb1 in event log",
    "malformed-then-non-ascii-in-the-next-chunk": (
        f"line {C + 1}: expected x|y|z,x|y|z,+1|-1,+1|-1: 'x,q,+1,-1'"
    ),
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_event_log_reader_matches_line_parser(tmp_path, case):
    path = tmp_path / "events.csv"
    path.write_bytes(READER_CASES[case])
    expected = line_parser_reference(path)
    if case in READER_PRECEDENCE:
        expected_error = f"{shown_path(path)}: {READER_PRECEDENCE[case]}"
        assert isinstance(expected, str) and expected != expected_error
        expected = expected_error
    assert_same_read(read_or_error(path), expected)


@pytest.mark.parametrize("line", [50, 99], ids=["middle", "last"])
def test_event_log_reader_checks_every_byte_of_a_line(tmp_path, monkeypatch, line):
    # a full chunk takes the reader's fast path, which decodes a line from 4 of
    # its bytes and renders only its first 8: each byte of one line, swapped
    # for each other byte below, reads as the text-mode reference reads it
    monkeypatch.setattr(qptsim.experiment, "_CHUNK_LINES", 100)  # 10^3 logs, not 10^5
    body = bytearray(log_body(100, seed=line))
    path = tmp_path / "events.csv"
    for pos in range(line * 10, line * 10 + 10):
        for byte in set(b"xyz,+-12 q\r") - {body[pos]}:
            bad = body.copy()
            bad[pos] = byte
            path.write_bytes(log_header(100) + bad)
            assert_same_read(read_or_error(path), line_parser_reference(path))


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_event_log_reader_works_in_bounded_chunks(tmp_path, line_end):
    # 1e6 events are a 10 MB log and 1 MB of codes; the log may not be held
    # whole, whichever line end it uses
    codes = np.random.default_rng(5).integers(0, len(_LINE_BYTES), size=1_000_000, dtype=np.uint8)
    path = tmp_path / "events.csv"
    write_event_log(path, codes, seed=5)
    if line_end != b"\n":
        path.write_bytes(path.read_bytes().replace(b"\n", line_end))
    tracemalloc.start()
    try:
        back, header = read_event_log(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
    assert np.array_equal(back, codes) and header == {"total": codes.size, "seed": 5, "eta": 1.0}


def test_event_log_line_longer_than_a_read_is_refused_in_linear_time(tmp_path, monkeypatch):
    # with 10-byte reads a 400 KB line spans 40,000 of them: its pieces are
    # joined once, at its line end, not re-joined and re-checked on every read
    monkeypatch.setattr(qptsim.experiment, "_CHUNK_LINES", 1)
    path = tmp_path / "events.csv"
    path.write_bytes(log_header(1) + b"x" * 400_000 + b"\n")
    start = time.perf_counter()
    with pytest.raises(DataError, match=r"line 2: .* \(400002 characters\)$"):
        read_event_log(path)
    assert time.perf_counter() - start < 1.0


def test_event_log_bad_header(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("x,z,+1,-1\n")
    with pytest.raises(DataError) as err:
        read_event_log(path)
    assert "line 1" in str(err.value)


def test_event_log_count_mismatch(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("# total=5 seed=0 eta=1.0\nx,z,+1,-1\n")
    with pytest.raises(DataError):
        read_event_log(path)


def test_exact_correlations_of_two_pairs():
    # device indices first: <sigma_i x sigma_j (dev A, dev B) x sigma_k x sigma_l (anc A, anc B)>
    t = exact_correlations(pairs(TRIPLET, bell_state(0))).entries
    assert t.shape == (4, 4, 4, 4) and t[0, 0, 0, 0] == 1.0
    one_a, one_b = exact_correlations(TRIPLET).entries, exact_correlations(bell_state(0)).entries
    assert np.allclose(t, np.einsum("ik,jl->ijkl", one_a, one_b), atol=1e-12)


def test_sampler_rejects_two_pair_state():
    two = pairs(TRIPLET, TRIPLET)
    with pytest.raises(ValueError):
        run_experiment(two, ExperimentPlan.uniform(90, seed=1))
    with pytest.raises(ValueError):
        joint_probs(two, MeasurementSetting(3, 3))
