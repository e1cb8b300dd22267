"""Batched correlation tables and the one-call bootstrap.

A leading batch axis on a table is one estimator call for B resamples; these
tests pin that contract and check the batched bootstrap against a loop that
resamples one table at a time.
"""

import warnings

import numpy as np
import pytest

from qptsim import (
    BipartiteState,
    CorrelationTable,
    DegenerateReferenceError,
    ExperimentPlan,
    amplitude_damping,
    bell_state,
    bootstrap_errors,
    correlations_from_events,
    exact_correlations,
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

TRIPLET = bell_state(1)
PROBE = BipartiteState.from_coeffs(np.diag([np.cos(0.4), np.sin(0.4)]))
U = np.array(
    [[np.cos(0.7), -np.sin(0.7) * np.exp(-0.3j)], [np.sin(0.7) * np.exp(0.3j), np.cos(0.7)]]
)


def loop_bootstrap(events, estimator, n_resamples, seed):
    """Reference: one table and one estimator call per resample, and each
    degenerate resample redrawn in place until it succeeds."""
    counts = events_to_counts(events)
    totals = counts.sum(axis=1)
    probs = counts / totals[:, None]
    rng = np.random.default_rng([seed])
    draws = np.stack(
        [rng.multinomial(totals[k], probs[k], size=n_resamples) for k in range(len(SETTINGS))],
        axis=1,
    )
    estimates = []
    redraws = 0
    for sample in draws:
        while True:
            try:
                estimates.append(np.asarray(estimator(table_from_counts(sample))))
                break
            except DegenerateReferenceError:
                redraws += 1
                sample = np.stack(
                    [rng.multinomial(totals[k], probs[k]) for k in range(len(SETTINGS))]
                )
    stack = np.stack(estimates)
    return stack.real.std(axis=0, ddof=1), stack.imag.std(axis=0, ddof=1), redraws


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
    real, imag, redraws = loop_bootstrap(events, est, 150, 3 + case)
    assert errs.redraws == redraws == 0, name
    assert errs.real.tobytes() == real.tobytes(), name
    assert errs.imag.tobytes() == imag.tobytes(), name


def test_batched_bootstrap_redraws_like_the_loop():
    # an estimator that degenerates on rows whose zz correlation exceeds a
    # fixed cut; the rows are redrawn in ascending order, each by one-row
    # calls, and then the batch is called again
    events, table = sampled(unitary_channel(U), PROBE, 3000, 21)
    ref = select_reference(table)
    cut = table.entries[3, 3] + 0.02
    sizes = []

    def picky(t):
        rows = np.atleast_1d(t.entries[..., 3, 3] > cut)
        sizes.append(rows.size if t.batched else None)
        if rows.any():
            raise DegenerateReferenceError(
                "zz above the cut", rows=np.flatnonzero(rows) if t.batched else None
            )
        return reconstruct_unitary(t, PROBE, ref).matrix

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        errs = bootstrap_errors(events, picky, n_resamples=200, seed=8)
        first_batch = sizes.copy()
        real, imag, redraws = loop_bootstrap(events, picky, 200, 8)
    batch_calls = [k for k, s in enumerate(first_batch) if s == 200]
    assert batch_calls == [0, len(first_batch) - 1]
    assert first_batch.count(1) == errs.redraws
    assert errs.redraws == redraws
    assert redraws >= 2  # the order of the redrawn rows matters
    assert errs.real.tobytes() == real.tobytes()
    assert errs.imag.tobytes() == imag.tobytes()


def test_bootstrap_rejects_estimator_without_one_row_per_resample():
    events, _ = sampled(unitary_channel(U), PROBE, 900, 4)
    with pytest.raises(ValueError, match="one estimate per resample"):
        bootstrap_errors(events, lambda t: reconstruct_state(t, (0, 1)).matrix[0], 100)


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


def assert_same_result(batched, single):
    assert batched.matrix.shape == (1,) + single.matrix.shape
    assert batched.matrix[0].tobytes() == single.matrix.tobytes()
    assert batched.gauge == single.gauge
    assert batched.diagnostics.keys() == single.diagnostics.keys()
    for key, val in single.diagnostics.items():
        row = batched.diagnostics[key]
        if key == "condition_number":  # a property of the probe, not of a row
            assert row == val
        elif isinstance(val, float):
            assert type(val) is float and row.shape == (1,) and row[0] == val, key
        elif key == "choi_eigenvalues":
            assert val == ", ".join(f"{v:.12g}" for v in row[0])
        else:
            assert row == val, key


def test_estimators_on_a_batch_of_one_equal_the_single_call():
    _, table = sampled(unitary_channel(U), PROBE, 2000, 5)
    one = CorrelationTable(entries=table.entries[None])
    ref = select_reference(table)
    assert_same_result(reconstruct_state(one, ref), reconstruct_state(table, ref))
    assert_same_result(
        reconstruct_unitary(one, PROBE, ref, truth=U),
        reconstruct_unitary(table, PROBE, ref, truth=U),
    )
    ch = amplitude_damping(0.3)
    _, table = sampled(ch, TRIPLET, 2000, 6)
    one = CorrelationTable(entries=table.entries[None])
    assert_same_result(
        reconstruct_choi(one, TRIPLET, truth=ch.choi),
        reconstruct_choi(table, TRIPLET, truth=ch.choi),
    )


def test_batch_without_reference_is_a_value_error():
    _, table = sampled(unitary_channel(U), PROBE, 900, 7)
    batch = CorrelationTable(entries=np.stack([table.entries] * 2))
    with pytest.raises(ValueError, match="explicit reference"):
        reconstruct_state(batch)
    with pytest.raises(ValueError, match="explicit reference"):
        reconstruct_unitary(batch, PROBE)


def test_degenerate_batch_names_its_rows_in_order():
    # |01> has zero population in the |00>+|11> Bell state
    good = exact_correlations(TRIPLET).entries
    bad = exact_correlations(bell_state(0)).entries
    batch = CorrelationTable(entries=np.stack([good, bad, good, bad]))
    with pytest.raises(DegenerateReferenceError) as err:
        reconstruct_state(batch, (0, 1))
    assert err.value.rows == (1, 3)
    with pytest.raises(DegenerateReferenceError) as err:
        reconstruct_state(exact_correlations(bell_state(0)), (0, 1))
    assert err.value.rows is None


def test_unitary_gauge_is_chosen_per_row():
    # full damping leaves a rank-one output column, so |det U| = 0 and that
    # row falls back to the largest-element gauge
    dead = exact_correlations(propagate(amplitude_damping(1.0), TRIPLET))
    live = exact_correlations(propagate(unitary_channel(U), TRIPLET))
    batch = CorrelationTable(entries=np.stack([live.entries, dead.entries]))
    res = reconstruct_unitary(batch, TRIPLET, (0, 1))
    singles = [reconstruct_unitary(t, TRIPLET, (0, 1)) for t in (live, dead)]
    assert [s.gauge.split(": ")[1].split()[0] for s in singles] == ["determinant", "largest"]
    assert "determinant" in res.gauge and "largest element" in res.gauge
    for row, single in zip(res.matrix, singles):
        assert row.tobytes() == single.matrix.tobytes()
