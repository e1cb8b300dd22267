"""Batched correlation tables and the one-call bootstrap.

A leading batch axis on a table is one estimator call for B resamples; these
tests pin that contract and check the batched bootstrap against a loop that
resamples one table at a time.
"""

import numpy as np
import pytest

from qptsim import (
    BipartiteState,
    CorrelationTable,
    DataError,
    DegenerateReferenceError,
    ExperimentPlan,
    amplitude_damping,
    bell_state,
    bootstrap_errors,
    correlations_from_events,
    distance_choi,
    exact_correlations,
    fidelity_unitary,
    identity_channel,
    pairs,
    propagate,
    reconstruct_choi,
    reconstruct_state,
    reconstruct_unitary,
    run_experiment,
    select_reference,
    unitary_channel,
)
from qptsim.experiment import SETTINGS, events_to_counts, table_from_counts
from qptsim.tomography import (
    MIN_RESAMPLES,
    REFERENCE_ORDER,
    _reference_column,
)

TRIPLET = bell_state(1)
PROBE = BipartiteState.from_coeffs(np.diag([np.cos(0.4), np.sin(0.4)]))
U = np.array(
    [[np.cos(0.7), -np.sin(0.7) * np.exp(-0.3j)], [np.sin(0.7) * np.exp(0.3j), np.cos(0.7)]]
)


def resample_counts(counts, n_resamples, seed):
    """The (B, 9, 4) counts the bootstrap draws from a (9, 4) count table, as
    first written: one Generator.multinomial call per setting."""
    totals = counts.sum(axis=1)
    probs = counts / totals[:, None]
    rng = np.random.default_rng([seed])
    return np.stack(
        [rng.multinomial(totals[k], probs[k], size=n_resamples) for k in range(len(SETTINGS))],
        axis=1,
    )


def loop_bootstrap(events, estimator, n_resamples, seed):
    """Reference: one table and one estimator call per resample."""
    draws = resample_counts(events_to_counts(events), n_resamples, seed)
    stack = np.stack([np.asarray(estimator(table_from_counts(sample))) for sample in draws])
    return stack.real.std(axis=0, ddof=1), stack.imag.std(axis=0, ddof=1)


def sampled(channel, probe, n, seed):
    events = run_experiment(propagate(channel, probe), ExperimentPlan.uniform(n, seed=seed))
    return events, correlations_from_events(events)


def estimators():
    """(name, events, estimator) for the three pipeline estimators."""
    events_u, table_u = sampled(unitary_channel(U), PROBE, 3000, 11)
    ref_u = select_reference(table_u)
    events_c, _ = sampled(amplitude_damping(0.3), TRIPLET, 3000, 12)
    return [
        ("state_only", events_u, lambda t: reconstruct_state(t, ref_u).matrix),
        ("unitary", events_u, lambda t: reconstruct_unitary(t, PROBE, ref_u).matrix),
        ("choi", events_c, lambda t: reconstruct_choi(t, TRIPLET).matrix),
    ]


@pytest.mark.parametrize("case", range(3))
def test_batched_bootstrap_equals_per_resample_loop(case):
    name, events, est = estimators()[case]
    errs = bootstrap_errors(events, est, n_resamples=150, seed=3 + case)
    real, imag = loop_bootstrap(events, est, 150, 3 + case)
    assert errs.real.tobytes() == real.tobytes(), name
    assert errs.imag.tobytes() == imag.tobytes(), name


@pytest.mark.parametrize("n_resamples", [MIN_RESAMPLES, 1000])
@pytest.mark.parametrize("case", range(4))
def test_one_call_draw_matches_nine_per_setting_calls(case, n_resamples):
    # random count tables with a zero-probability outcome in every setting, and
    # in odd cases a setting of one event; the estimator must see the table of
    # the per-setting draws, and the spreads must be those of its estimates
    rng = np.random.default_rng(500 + case)
    counts = rng.integers(1, 40, size=(len(SETTINGS), 4))
    counts[np.arange(len(SETTINGS)), rng.integers(4, size=len(SETTINGS))] = 0
    if case % 2:
        counts[case] = 0
        counts[case, rng.integers(4)] = 1
    seed = int(rng.integers(2**63))
    seen = []

    def estimator(t):
        seen.append(t.entries)
        return np.exp(1j * t.entries)

    errs = bootstrap_errors(counts, estimator, n_resamples, seed)
    table = table_from_counts(resample_counts(counts, n_resamples, seed)).entries
    assert len(seen) == 1 and seen[0].tobytes() == table.tobytes()
    stack = np.exp(1j * table)
    assert errs.real.tobytes() == stack.real.std(axis=0, ddof=1).tobytes()
    assert errs.imag.tobytes() == stack.imag.std(axis=0, ddof=1).tobytes()


@pytest.mark.parametrize("case", range(3))
def test_bootstrap_of_the_counts_table_equals_that_of_the_codes(case):
    # the (9, 4) counts are the sufficient statistic: the same draws, the same bytes
    name, events, est = estimators()[case]
    of_codes = bootstrap_errors(events, est, 150, 3 + case)
    of_counts = bootstrap_errors(events_to_counts(events), est, 150, 3 + case)
    assert of_counts.real.tobytes() == of_codes.real.tobytes(), name
    assert of_counts.imag.tobytes() == of_codes.imag.tobytes(), name
    assert of_counts.n_resamples == 150


@pytest.mark.parametrize(
    "spoil",
    [lambda c: c.astype(float), lambda c: -c, lambda c: c[:, :3]],
    ids=["float", "negative", "9x3"],
)
def test_bootstrap_refuses_a_counts_table_with_the_message_of_table_from_counts(spoil):
    events, _ = sampled(unitary_channel(U), PROBE, 900, 4)
    counts = spoil(events_to_counts(events))
    with pytest.raises(ValueError) as expected:
        table_from_counts(counts)
    calls = []
    with pytest.raises(ValueError) as err:
        bootstrap_errors(counts, lambda t: calls.append(1) or t.entries, 100)
    assert str(err.value) == str(expected.value)
    assert calls == []


def test_batched_bootstrap_refuses_a_degenerate_row():
    # 45 events of a state whose smallest population is 0.15: the single table
    # takes a populated reference, but some resamples leave it empty, and the
    # bootstrap is refused after its one estimator call
    coeffs = np.array([[0.45, 0.39], [0.39, 0.71]])
    probe = BipartiteState.from_coeffs(coeffs / np.linalg.norm(coeffs))
    events, table = sampled(identity_channel(), probe, 45, 1)
    ref = select_reference(table)
    calls = []

    def estimate(t):
        calls.append(t.entries.shape[0])
        return reconstruct_state(t, ref).matrix

    with pytest.raises(DegenerateReferenceError, match="bootstrap refused: .* of 200") as err:
        bootstrap_errors(events, estimate, n_resamples=200, seed=1)
    assert isinstance(err.value, DataError)
    assert calls == [200]


def test_bootstrap_rejects_estimator_without_one_row_per_resample():
    events, table = sampled(unitary_channel(U), PROBE, 900, 4)
    ref = select_reference(table)
    with pytest.raises(ValueError, match="one estimate per resample"):
        bootstrap_errors(events, lambda t: reconstruct_state(t, ref).matrix[0], 100)


@pytest.mark.parametrize("bell", range(4))
def test_batch_rows_equal_single_calls_on_tables_with_empty_cells(bell):
    # a Bell probe through the identity forbids outcomes, so every resample has
    # empty cells, and its column sums hit exact zeros
    probe = bell_state(bell)
    events, table = sampled(identity_channel(), probe, 8000, 20 + bell)
    draws = resample_counts(events_to_counts(events), 1000, bell)
    assert np.all(np.any(draws == 0, axis=(1, 2)))
    ref = select_reference(table)
    batch = table_from_counts(draws)
    states = reconstruct_state(batch, ref).matrix
    unitaries = reconstruct_unitary(batch, probe, ref).matrix
    for k, counts in enumerate(draws):
        t = table_from_counts(counts)
        assert states[k].tobytes() == reconstruct_state(t, ref).matrix.tobytes()
        assert unitaries[k].tobytes() == reconstruct_unitary(t, probe, ref).matrix.tobytes()
        pops = [_reference_column(t, r)[1] for r in REFERENCE_ORDER]
        assert select_reference(t) == next(r for r, p in zip(REFERENCE_ORDER, pops) if p >= 1 / 8)


def test_table_from_counts_batch_equals_single_calls():
    rng = np.random.default_rng(31)
    counts = rng.integers(1, 60, size=(7, len(SETTINGS), 4))
    batch = table_from_counts(counts)
    assert batch.batched and batch.entries.shape == (7, 4, 4)
    single = np.stack([table_from_counts(c).entries for c in counts])
    assert batch.entries.tobytes() == single.tobytes()


def test_correlation_table_batch_checks_every_row():
    good = np.stack([exact_correlations(TRIPLET).entries] * 3)
    assert CorrelationTable(entries=good).batched
    bad = good.copy()
    bad[2, 0, 0] = 0.5
    with pytest.raises(ValueError, match=r"\(0,..,0\)"):
        CorrelationTable(entries=bad)
    bad = good.copy()
    bad[1, 2, 3] = 1.5
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        CorrelationTable(entries=bad)
    with pytest.raises(ValueError):
        CorrelationTable(entries=np.ones((3, 4, 3)))


def test_even_axis_count_is_never_a_batch():
    two_pair = exact_correlations(pairs(TRIPLET, TRIPLET))
    assert two_pair.entries.shape == (4, 4, 4, 4) and not two_pair.batched
    four_tables = CorrelationTable(entries=np.stack([exact_correlations(TRIPLET).entries] * 4))
    assert four_tables.batched and four_tables.entries.shape == (4, 4, 4)


def assert_same_estimate(estimator, table):
    """A batch of one gives the single call's matrix and gauge and no
    diagnostics; diagnostics belong to the single table."""
    batched, single = estimator(CorrelationTable(entries=table.entries[None])), estimator(table)
    assert batched.matrix.shape == (1,) + single.matrix.shape
    assert batched.matrix[0].tobytes() == single.matrix.tobytes()
    assert batched.gauge == single.gauge
    assert batched.diagnostics == {} and single.diagnostics


def test_estimators_on_a_batch_of_one_equal_the_single_call():
    _, table = sampled(unitary_channel(U), PROBE, 2000, 5)
    ref = select_reference(table)
    assert_same_estimate(lambda t: reconstruct_state(t, ref), table)
    assert_same_estimate(lambda t: reconstruct_unitary(t, PROBE, ref), table)
    assert fidelity_unitary(reconstruct_unitary(table, PROBE, ref).matrix, U) > 0.9
    ch = amplitude_damping(0.3)
    _, table = sampled(ch, TRIPLET, 2000, 6)
    assert_same_estimate(lambda t: reconstruct_choi(t, TRIPLET), table)
    assert distance_choi(reconstruct_choi(table, TRIPLET).matrix, ch.choi) < 0.1


def test_batch_without_reference_is_a_value_error():
    _, table = sampled(unitary_channel(U), PROBE, 900, 7)
    batch = CorrelationTable(entries=np.stack([table.entries] * 2))
    with pytest.raises(ValueError, match="explicit reference"):
        reconstruct_state(batch)
    with pytest.raises(ValueError, match="explicit reference"):
        reconstruct_unitary(batch, PROBE)


def test_degenerate_batch_counts_its_rows():
    # |01> has zero population in the |00>+|11> Bell state
    good = exact_correlations(TRIPLET).entries
    bad = exact_correlations(bell_state(0)).entries
    batch = CorrelationTable(entries=np.stack([good, bad, good, bad]))
    with pytest.raises(DegenerateReferenceError, match=r"\|01> .* in 2 of 4 tables"):
        reconstruct_state(batch, (0, 1))
    with pytest.raises(DegenerateReferenceError, match="in 1 of 1 tables"):
        reconstruct_state(exact_correlations(bell_state(0)), (0, 1))


def test_unitary_gauge_is_the_determinant_in_every_row():
    # full damping leaves a rank-one output column, so det U = 0 and that row
    # is left unrotated; live or dead, a batch row has its single call's bytes
    dead = exact_correlations(propagate(amplitude_damping(1.0), TRIPLET))
    live = exact_correlations(propagate(unitary_channel(U), TRIPLET))
    batch = CorrelationTable(entries=np.stack([live.entries, dead.entries]))
    res = reconstruct_unitary(batch, TRIPLET, (0, 1))
    singles = [reconstruct_unitary(t, TRIPLET, (0, 1)) for t in (live, dead)]
    for r in (res, *singles):
        assert r.gauge == "global phase fixed: determinant rotated real positive"
    for row, single in zip(res.matrix, singles):
        assert row.tobytes() == single.matrix.tobytes()
