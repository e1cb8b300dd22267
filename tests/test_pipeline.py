"""Config parsing, pipeline stages, result documents and the CLI."""

import hashlib
import json
import os
import subprocess
import sys
import time
from importlib import resources

import numpy as np
import pytest

import qptsim
import qptsim.pipeline
from qptsim import (
    bootstrap_errors,
    correlations_from_events,
    read_event_log,
    reconstruct_unitary,
    select_reference,
)
from qptsim.cli import main
from qptsim.errors import ConfigError, DataError, PlanError
from qptsim.experiment import (
    MAX_SEED,
    MAX_TOTAL,
    MAX_TRIALS,
    SETTINGS,
    ExperimentPlan,
    LossModel,
)
from qptsim.tomography import MAX_RESAMPLES, MIN_RESAMPLES, BootstrapPlan
from qptsim.pipeline import (
    ESTIMATORS,
    PRESETS,
    load_config,
    load_preset,
    parse_config,
    run_pipeline,
    run_plotdata,
    run_reconstruct,
    run_simulate,
)


# coefficient matrix [[1, 0], [0, 0]]: the product state |00>, not a faithful probe
UNFAITHFUL = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
# an integer too large for a float, as a wave-plate angle or a complex entry
HUGE = 10**400
# the 4x4 identity in [re, im] entries: config kraus devices take 2x2 operators only
EYE4 = [[[float(r == c), 0.0] for c in range(4)] for r in range(4)]
# a faithful pair (smallest singular value 1e-6) whose two-pair product, at 1e-12, is not
SINGULAR_PAIR_PRODUCT = {
    "input_state": {"coeffs": [[[np.sqrt(1 - 1e-12), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-6, 0.0]]]},
    "device": {"type": "cnot"},
    "estimator": "choi",
    "plan": {"exact": True},
}
# the probe |11> sent through the filter |0><0| on beam 1: no photon survives
ANNIHILATED = {
    "input_state": {"coeffs": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    "device": {"type": "kraus", "ops": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]},
    "estimator": "state_only",
    "plan": {"exact": True},
}


def one_line_error(capsys) -> str:
    """The captured stderr, checked to be one line and no traceback."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def base_config(**overrides):
    doc = {
        "label": "t",
        "input_state": {"bell": 1},
        "device": {
            "type": "waveplates",
            "plates": [{"phi_over_pi": 0.45, "theta_over_pi": -0.138}],
        },
        "estimator": "unitary",
        "plan": {"total": 3000, "seed": 11, "eta": 1.0},
        "bootstrap": {"resamples": 150, "seed": 2},
    }
    doc.update(overrides)
    return doc


def read_result(path):
    head, table = {}, []
    lines = path.read_text().splitlines()
    split = lines.index("")
    for line in lines[:split]:
        key, val = line.split(": ", 1)
        head[key] = val
    for line in lines[split + 2 :]:
        table.append(line.split(","))
    return head, lines[split + 1], table


def test_parse_minimal_defaults():
    cfg = parse_config(base_config())
    assert cfg.estimator == "unitary"
    assert cfg.plan.total == 3000 and cfg.plan.seed == 11 and cfg.plan.eta == 1.0
    assert cfg.out_events == "t_events.csv"
    assert cfg.channel.unitary_matrix is not None


@pytest.mark.parametrize(
    "mutation",
    [
        {"estimator": "mle"},
        {"input_state": {"bell": 7}},
        {"input_state": {"bell": 1.0}},
        {"input_state": {"bell": True}},
        {"input_state": {}},
        {"device": {"type": "teleporter"}},
        {"device": {"type": "depolarizing"}},
        {"plan": {"total": 0}},
        {"plan": {"total": 100, "eta": 1.5}},
        {"plan": {"total": 100, "allocation": {"xx": 5}}},
        {"plan": {"total": 100, "allocation": {"xq": 100}}},
        {"device": {"type": "cnot"}},
        {"device": {"type": "cnot"}, "estimator": "choi"},
        {"plan": {"total": "abc"}},
        {"plan": {"total": 100, "seed": -1}},
        {"bootstrap": {"resamples": 10}},
        {"input_state": {"coeffs": UNFAITHFUL}},
        {"input_state": {"coeffs": UNFAITHFUL}, "estimator": "choi"},
        {"bootstrap": {"resample": 500}},
        {"plan": {"total": 100, "alloc": {}}},
        {"plan": {"total": 100, "exact": "false"}},
        {"outputs": {"event": "e.csv"}},
        {"inputs": {"bell": 1}},
        {"input_state_b": {"bell": 1}},
        ANNIHILATED,
        {"device": {"type": "kraus", "ops": [EYE4]}},
        {"input_state": {"coeffs": [[[0.5 * (r == c), 0.0] for c in range(4)] for r in range(4)]}},
        SINGULAR_PAIR_PRODUCT,
        {**SINGULAR_PAIR_PRODUCT, "input_state_b": {"coeffs": UNFAITHFUL}},
        {"plan": {"total": MAX_TOTAL + 1}},
        {"plan": {"total": MAX_TRIALS // 1000, "eta": 0.0316}},
        {"plan": {"total": 100, "eta": 1e-200}},
        {"label": "a\ud800"},
        {"label": "a\x00b"},
        {"outputs": {"result": "r\udcff.txt"}},
        {"plan": {"total": 100, "allocation": {"xx": 99, "yy": True}}},
        {"plan": {"exact": True, "total": 100}},
        {"device": {"type": "waveplates", "plates": [{"phi_over_pi": HUGE, "theta_over_pi": 0.0}]}},
        {"input_state": {"coeffs": [[[HUGE, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}},
        {"device": {"type": "kraus", "ops": [[[[HUGE, 0], [0, 0]], [[0, 0], [1, 0]]]]}},
    ],
)
def test_parse_rejects_bad_configs(mutation):
    with pytest.raises(ConfigError):
        parse_config(base_config(**mutation))


def test_complex_entry_refusal_names_its_field():
    # a complex entry that is not an [re, im] pair is refused under its field's name
    kraus = {"type": "kraus", "ops": [[[[1, 0], 0], [[0, 0], [1, 0]]]]}
    for mutation, prefix in (
        ({"input_state": {"coeffs": [[1, [0, 0]], [[0, 0], [1, 0]]]}}, "input_state.coeffs: "),
        ({"device": kraus}, "device (kraus): "),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config(base_config(**mutation))
        assert str(err.value).startswith(prefix + "complex entries must be [re, im] pairs, got ")


@pytest.mark.parametrize(
    "pairs", [{}, {"input_state_b": {"coeffs": UNFAITHFUL}}], ids=["product", "second_pair"]
)
def test_two_pair_probe_refusal_names_both_pairs(pairs):
    # a two-qubit device's probe is the product of the two pairs, checked once
    with pytest.raises(ConfigError, match="^input_state and input_state_b: the choi estimator"):
        parse_config(base_config(**SINGULAR_PAIR_PRODUCT, **pairs))


def test_run_caps(tmp_path, capsys, monkeypatch):
    # the largest accepted run sits on both caps
    cfg = parse_config(base_config(plan={"total": MAX_TOTAL, "eta": 0.1}))
    assert MAX_TOTAL / cfg.plan.eta**2 == pytest.approx(MAX_TRIALS)

    def no_sampling(*args):
        raise AssertionError("sampling started")

    monkeypatch.setattr(qptsim.pipeline, "_sample", no_sampling)
    for plan, fields in (
        ({"total": MAX_TOTAL + 1}, "plan.total:"),
        ({"total": 10**6, "eta": 0.03}, "plan.total, plan.eta:"),
    ):
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(base_config(plan=plan)))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert one_line_error(capsys).startswith(f"config error: {fields}")


# Values a fuzzed config entry takes.  The ones a config accepts are cheap
# (total at most 3000, eta at least 0.3); the rest must be refused before sampling.
FUZZ_POOL = (
    True, False, "abc", "", None, [], [3000], {}, float("nan"), float("inf"),
    -1, -0.5, 0, 0.0, 1, 3, 900, 3000, 0.3, 0.42, 1.0, 1e-5, 1e-200,
    2**64, 10**30, MAX_TOTAL + 1,
)
FUZZ_KEYS = ("total", "seed", "eta", "exact", "allocation", "allocation.xx", "bell")


def fuzz_configs(rng, n):
    """``n`` configs: base_config() with one or two plan entries (or the
    probe's Bell index) drawn from FUZZ_POOL, and exact-statistics configs
    with one more."""
    for _ in range(n):
        exact = rng.random() < 0.25
        doc = base_config(plan={"exact": True}) if exact else base_config()
        for key in rng.choice(FUZZ_KEYS, size=1 if exact else rng.integers(1, 3), replace=False):
            value = FUZZ_POOL[rng.integers(len(FUZZ_POOL))]
            if key == "bell":
                doc["input_state"] = {"bell": value}
            elif key == "allocation.xx":  # the count of xx in an allocation that sums to 3000 at 0
                alloc = {a + b: 375 for a in "xyz" for b in "xyz"}
                doc["plan"]["allocation"] = {**alloc, "xx": value}
            else:
                doc["plan"][key] = value
        yield doc


def test_cli_config_fuzz(tmp_path, capsys):
    # malformed and extreme configs (and --seed values) through the CLI: each
    # runs or is refused with one line, never a traceback, in bounded time
    rng = np.random.default_rng(612)
    cfg_path = tmp_path / "fuzz.json"
    seeds = [v for v in FUZZ_POOL if type(v) is int]
    codes = {0: 0, 2: 0, 3: 0}
    for trial, doc in enumerate(fuzz_configs(rng, 300)):
        cfg_path.write_text(json.dumps(doc))
        argv = ["pipeline", "--config", str(cfg_path), "--out", str(tmp_path)]
        if trial % 4 == 3:
            argv += ["--seed", str(seeds[rng.integers(len(seeds))])]
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 5.0, argv
        err = capsys.readouterr().err
        assert code in codes and "Traceback" not in err, (doc, argv, err)
        assert err.count("\n") == (code != 0), (doc, argv, err)
        codes[code] += 1
    assert all(codes.values()), codes


def test_plan_types_fuzz():
    # the same pool straight into the library types: each call makes a plan
    # within the caps or raises ValueError
    rng = np.random.default_rng(613)
    draw = lambda: FUZZ_POOL[rng.integers(len(FUZZ_POOL))]
    made = refused = 0
    for _ in range(400):
        total, seed, eta, count = draw(), draw(), draw(), draw()
        loss = (None, LossModel(0.3), LossModel(1.0), eta)[rng.integers(4)]
        for call in (
            lambda: LossModel(eta),
            lambda: ExperimentPlan.uniform(total, seed),
            lambda: ExperimentPlan.uniform(total, seed, loss=LossModel(eta)),
            lambda: ExperimentPlan(total, {SETTINGS[0]: count}, seed, loss),
            lambda: ExperimentPlan(total, count, seed),
        ):
            try:
                result = call()
            except ValueError:
                refused += 1
                continue
            made += 1
            if isinstance(result, ExperimentPlan):
                assert 0 < result.total <= MAX_TOTAL
                assert result.total / result.eta**2 <= MAX_TRIALS
    assert made > 0 and refused > 0


# Values a fuzzed bootstrap entry takes; the accepted resample counts are cheap.
BOOTSTRAP_POOL = (
    True, False, "abc", "", None, [], {}, 1.5, float("nan"), float("inf"), -1, 0, 1,
    MIN_RESAMPLES - 1, MIN_RESAMPLES, 150, 2**64, 10**30, MAX_RESAMPLES + 1, -(10**30),
)


def test_cli_bootstrap_fuzz(tmp_path, capsys, monkeypatch):
    # the bootstrap section, one or both entries drawn from BOOTSTRAP_POOL:
    # each config runs, or is refused with one line before sampling starts
    rng = np.random.default_rng(614)
    cfg_path = tmp_path / "fuzz.json"
    sample = qptsim.pipeline._sample
    sampled = []
    monkeypatch.setattr(
        qptsim.pipeline, "_sample", lambda *args: sampled.append(1) or sample(*args)
    )
    codes = {0: 0, 2: 0}
    for _ in range(120):
        boot = {}
        for key in rng.choice(("resamples", "seed"), size=rng.integers(1, 3), replace=False):
            boot[str(key)] = BOOTSTRAP_POOL[rng.integers(len(BOOTSTRAP_POOL))]
        cfg_path.write_text(json.dumps(base_config(plan={"total": 900, "seed": 3}, bootstrap=boot)))
        sampled.clear()
        start = time.perf_counter()
        code = main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert time.perf_counter() - start < 5.0, boot
        err = capsys.readouterr().err
        assert code in codes and "Traceback" not in err, (boot, err)
        assert err.count("\n") == (code != 0) and len(sampled) == (code == 0), (boot, err)
        codes[code] += 1
    assert all(codes.values()), codes


def test_bootstrap_resamples_capped(tmp_path, capsys):
    # a cap on the (B, 9, 4) resampled counts, in the config and in the library
    cfg = parse_config(base_config(bootstrap={"resamples": MAX_RESAMPLES}))
    assert cfg.bootstrap.resamples == MAX_RESAMPLES
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(base_config(bootstrap={"resamples": 10**30})))
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert one_line_error(capsys).startswith("config error: bootstrap.resamples: must be at most")
    assert not any(tmp_path.glob("t_*"))
    events = np.arange(36, dtype=np.uint8)
    with pytest.raises(ValueError, match="at most"):
        bootstrap_errors(events, lambda t: t.entries, n_resamples=MAX_RESAMPLES + 1)


def test_bootstrap_seed_capped(tmp_path, capsys):
    # the bootstrap seed fits in 64 unsigned bits, as plan.seed and --seed do
    assert parse_config(base_config(bootstrap={"seed": MAX_SEED})).bootstrap.seed == 2**64 - 1
    cfg_path = tmp_path / "big.json"
    for seed in (2**64, 10**4000):
        cfg_path.write_text(json.dumps(base_config(bootstrap={"seed": seed})))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert one_line_error(capsys).startswith("config error: bootstrap.seed: must be at most")
    assert not any(tmp_path.glob("t_*"))
    events = np.arange(36, dtype=np.uint8)
    with pytest.raises(ValueError, match="64 unsigned bits"):
        bootstrap_errors(events, lambda t: t.entries, seed=2**64)


# A 4001-digit integer in each integer entry a run checks: the refused field,
# the config entries and the command-line arguments.
LONG_INTEGERS = [
    ("plan.total", {"plan": {"total": 10**4000}}, []),
    ("plan.seed", {"plan": {"total": 3000, "seed": 10**4000}}, []),
    ("plan.allocation", {"plan": {"total": 3000, "allocation": {"xx": -(10**4000)}}}, []),
    ("bootstrap.resamples", {"bootstrap": {"resamples": 10**4000}}, []),
    ("bootstrap.seed", {"bootstrap": {"seed": 10**4000}}, []),
    ("--seed", {}, ["--seed", str(10**4000)]),
    ("input_state.bell", {"input_state": {"bell": 10**4000}}, []),
    ("device (depolarizing)", {"device": {"type": "depolarizing", "p": 10**4000}}, []),
]


@pytest.mark.parametrize("field, config, argv", LONG_INTEGERS, ids=[c[0] for c in LONG_INTEGERS])
def test_long_integer_refusal_is_one_short_line(tmp_path, capsys, field, config, argv):
    # a refused 4001-digit integer is shown by its digit count, not in full
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(base_config(**config)))
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path), *argv]) == 2
    err = one_line_error(capsys)
    assert err.startswith(f"config error: {field}: ") and len(err) < 200, err
    assert "4001-digit integer" in err, err
    assert not any(tmp_path.glob("t_*"))


def test_bootstrap_config_and_library_agree():
    # every pool value: parse_config refuses it exactly when BootstrapPlan does,
    # with its wording under the config field, and bootstrap_errors raises ValueError
    events = np.arange(36, dtype=np.uint8)
    for key, arg in (("resamples", "n_resamples"), ("seed", "seed")):
        for value in BOOTSTRAP_POOL:
            doc = base_config(bootstrap={key: value})
            try:
                BootstrapPlan(**{key: value})
            except PlanError as exc:
                with pytest.raises(ConfigError) as refusal:
                    parse_config(doc)
                assert str(refusal.value) == f"bootstrap.{key}: {exc.problem}"
                with pytest.raises(ValueError) as library:
                    bootstrap_errors(events, lambda t: t.entries, **{arg: value})
                assert str(library.value) == str(exc)
            else:
                assert getattr(parse_config(doc).bootstrap, key) == value


@pytest.mark.parametrize(
    "device",
    [
        {"type": "depolarizing", "p": True},
        {"type": "depolarizing", "p": "0.3"},
        {"type": "depolarizing", "p": None},
        {"type": "amplitude_damping", "gamma": False},
        {"type": "amplitude_damping", "gamma": [0.1]},
        {"type": "waveplates", "plates": [{"phi_over_pi": "0.45", "theta_over_pi": -0.138}]},
        {"type": "waveplates", "plates": [{"phi_over_pi": True, "theta_over_pi": -0.138}]},
        {"type": "waveplates", "plates": [{"phi_over_pi": 0.45, "theta_over_pi": False}]},
        {"type": "waveplates", "plates": [{"phi_over_pi": 0.45, "theta_over_pi": "-0.138"}]},
        {"type": "kraus", "ops": [[[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
    ],
)
def test_device_parameters_must_be_real_numbers(tmp_path, capsys, device):
    # a bool or a string is not read as a number
    cfg_path = tmp_path / "device.json"
    cfg_path.write_text(json.dumps(base_config(device=device, estimator="choi")))
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "must be a real number" in one_line_error(capsys)


def test_parse_missing_required_field():
    doc = base_config()
    del doc["device"]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_explicit_coeffs_and_kraus():
    doc = base_config(
        input_state={"coeffs": [[[0.0, 0.0], [0.7071067811865476, 0.0]],
                               [[0.7071067811865476, 0.0], [0.0, 0.0]]]},
        device={"type": "kraus", "ops": [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]},
    )
    cfg = parse_config(doc)
    assert cfg.channel.is_unitary
    assert np.allclose(cfg.input_state.coeffs, [[0, 1 / np.sqrt(2)], [1 / np.sqrt(2), 0]])


def test_unitary_estimator_warns_on_nonunitary_device():
    doc = base_config(device={"type": "depolarizing", "p": 0.2})
    with pytest.warns(RuntimeWarning):
        parse_config(doc)


def test_allocation_accepted():
    alloc = {a + b: 0 for a in "xyz" for b in "xyz"}
    alloc["zz"] = 100
    cfg = parse_config(base_config(plan={"total": 100, "seed": 1, "allocation": alloc}))
    assert sum(cfg.plan.allocation.values()) == 100


def test_simulate_writes_log(tmp_path):
    cfg = parse_config(base_config())
    path = run_simulate(cfg, tmp_path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3001
    assert lines[0] == "# total=3000 seed=11 eta=1.0"


def test_simulate_exact_config_rejected(tmp_path):
    cfg = load_preset("depol")
    with pytest.raises(ConfigError):
        run_simulate(cfg, tmp_path)


def test_reconstruct_before_simulate_is_data_error(tmp_path):
    cfg = parse_config(base_config())
    with pytest.raises(DataError):
        run_reconstruct(cfg, tmp_path)


@pytest.mark.parametrize(
    "field, plan",
    [
        ("total", {"total": 2999, "seed": 11, "eta": 1.0}),
        ("seed", {"total": 3000, "seed": 5, "eta": 1.0}),
        ("eta", {"total": 3000, "seed": 11, "eta": 0.9}),
    ],
)
def test_reconstruct_rejects_a_log_of_another_config(tmp_path, capsys, field, plan):
    # the result document reports the config's total, seed and eta, so a log
    # whose header disagrees with any of them is a data error, exit 3
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(base_config(plan=plan)))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    cfg_path.write_text(json.dumps(base_config()))
    capsys.readouterr()
    assert main(["reconstruct", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    err = one_line_error(capsys)
    assert f"header {field}=" in err and f"config's {field} " in err
    assert not (tmp_path / "t_result.txt").exists()


def test_unitary_result_document(tmp_path):
    cfg = parse_config(base_config())
    run_simulate(cfg, tmp_path)
    path = run_reconstruct(cfg, tmp_path)
    head, header_row, table = read_result(path)
    assert head["kind"] == "device_unitary"
    assert head["estimator"] == "unitary"
    assert "gauge" in head and "p" in head and "unitarity_deviation" in head
    assert float(head["fidelity"]) > 0.9
    assert header_row == "element,part,estimate,error,theory"
    assert [row[0] for row in table[::2]] == ["U00", "U01", "U10", "U11"]
    assert len(table) == 8
    for row in table:
        float(row[2]), float(row[3]), float(row[4])  # all columns populated
    # the error column is bootstrap_errors of the logged events
    events, _ = read_event_log(tmp_path / cfg.out_events)
    ref = select_reference(correlations_from_events(events))
    errors = bootstrap_errors(
        events,
        lambda t: reconstruct_unitary(t, cfg.input_state, ref).matrix,
        cfg.bootstrap.resamples,
        seed=cfg.bootstrap.seed,
    )
    parts = zip(errors.real.ravel().tolist(), errors.imag.ravel().tolist())
    assert [row[3] for row in table] == [f"{x:.12g}" for pair in parts for x in pair]


def test_theory_column_matches_estimate_gauge(tmp_path):
    cfg = parse_config(base_config(plan={"total": 20000, "seed": 4, "eta": 1.0}))
    run_simulate(cfg, tmp_path)
    _, _, table = read_result(run_reconstruct(cfg, tmp_path))
    for row in table:
        assert abs(float(row[2]) - float(row[4])) < 0.1


def test_state_only_result(tmp_path):
    cfg = parse_config(base_config(estimator="state_only"))
    run_simulate(cfg, tmp_path)
    _, _, table = read_result(run_reconstruct(cfg, tmp_path))
    assert [row[0] for row in table[::2]] == ["Psi00", "Psi01", "Psi10", "Psi11"]


RUN_KEYS = (
    "kind", "label", "estimator", "exact", "n_events", "seed", "eta",
    "bootstrap_resamples", "bootstrap_seed", "gauge",
)
STATE_KEYS = ("p", "reference", "norm")
UNITARY_KEYS = ("p", "reference", "condition_number", "unitarity_deviation")
CHOI_KEYS = (
    "condition_number", "choi_eigenvalues", "min_eigenvalue", "negativity", "occurrence_scale",
)


@pytest.mark.filterwarnings("ignore:unitary estimator configured for a non-unitary device")
@pytest.mark.parametrize(
    "overrides, diagnostics, merit",
    [
        ({"estimator": "state_only"}, STATE_KEYS, "fidelity"),
        (
            {"estimator": "state_only", "device": {"type": "depolarizing", "p": 0.5}},
            STATE_KEYS,
            None,
        ),
        ({}, UNITARY_KEYS, "fidelity"),
        ({"device": {"type": "amplitude_damping", "gamma": 0.3}}, UNITARY_KEYS, None),
        ({"estimator": "choi"}, CHOI_KEYS, "choi_distance"),
    ],
    ids=["state_pure", "state_mixed", "unitary", "unitary_amplitude_damping", "choi"],
)
def test_header_and_theory_column_follow_the_truth(tmp_path, overrides, diagnostics, merit):
    # a mixed output state has no pure-state truth and a non-unitary device no
    # unitary one: then the header has no figure of merit and the theory column
    # stays empty; otherwise the figure of merit comes last
    cfg = parse_config(base_config(**overrides))
    head, _, table = read_result(run_pipeline(cfg, tmp_path)["result"])
    assert list(head) == [*RUN_KEYS, *diagnostics, *([merit] if merit else [])]
    assert all((row[4] == "") == (merit is None) for row in table)
    assert all(row[3] != "" for row in table)  # bootstrap errors always present


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would be a second stderr line
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1e300], ids=str)
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_non_finite_or_huge_probe_or_kraus_entry_is_a_config_error(
    tmp_path, capsys, estimator, value
):
    # JSON's NaN and Infinity parse as floats, and 1e300 squared overflows; none
    # may reach the linear algebra, whose failures are tracebacks
    half = [np.sqrt(0.5), 0.0]
    coeffs = [[[value, 0.0], half], [half, [0.0, 0.0]]]
    kraus = {"type": "kraus", "ops": [[[[value, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}
    cfg_path = tmp_path / "bad.json"
    for field, mutation in (
        ("input_state.coeffs", {"input_state": {"coeffs": coeffs}}),
        ("device (kraus)", {"device": kraus}),
    ):
        cfg_path.write_text(json.dumps(base_config(estimator=estimator, **mutation)))
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert one_line_error(capsys).startswith(f"config error: {field}: "), (field, value)
        assert not (tmp_path / "t_events.csv").exists()


def test_choi_result_has_32_rows(tmp_path):
    cfg = parse_config(base_config(estimator="choi"))
    run_simulate(cfg, tmp_path)
    path = run_reconstruct(cfg, tmp_path)
    _, _, table = read_result(path)
    assert len(table) == 32
    assert table[0][0] == "C00" and table[-1][0] == "C33"
    rows = run_plotdata(cfg, tmp_path).read_text().splitlines()
    assert len(rows) == 33  # header + 16 elements x 2 parts


def test_exact_depol_pipeline(tmp_path):
    paths = run_pipeline(load_preset("depol"), tmp_path)
    assert "events" not in paths
    head, _, table = read_result(paths["result"])
    assert head["exact"] == "true"
    assert float(head["choi_distance"]) < 1e-9
    assert len(table) == 32
    est = {(r[0], r[1]): float(r[2]) for r in table}
    # diagonal corner of the depolarizing Choi: (1 - 3p/4) + p/4 = 0.85
    assert est[("C00", "re")] == pytest.approx(0.85, abs=1e-9)
    assert est[("C03", "re")] == pytest.approx(0.7, abs=1e-9)  # coherence (1 - p)


def test_cnot_preset_pipeline(tmp_path):
    paths = run_pipeline(load_preset("cnot"), tmp_path)
    head, _, table = read_result(paths["result"])
    assert head["kind"] == "device_choi"
    assert float(head["choi_distance"]) < 1e-9
    assert len(table) == 512
    assert table[0][0] == "C0_0"


def test_two_pair_probe_near_full_rank_floor_runs(tmp_path):
    # the product probe's smallest singular value, 1.7e-7 x 0.707, passes the
    # full-rank floor of 1e-7, while its determinant, 7e-15, is below the
    # 1e-14 |det| floor that a determinant-based singularity check would use
    s = 1.7e-7
    doc = base_config(
        input_state={"coeffs": [[[np.sqrt(1 - s * s), 0.0], [0.0, 0.0]], [[0.0, 0.0], [s, 0.0]]]},
        input_state_b={"bell": 1},
        device={"type": "cnot"},
        estimator="choi",
        plan={"exact": True},
    )
    head, _, table = read_result(run_pipeline(parse_config(doc), tmp_path)["result"])
    assert head["kind"] == "device_choi" and len(table) == 512


def test_pipeline_end_to_end_deterministic(tmp_path):
    cfg = parse_config(base_config())
    a, b = tmp_path / "a", tmp_path / "b"
    run_pipeline(cfg, a)
    # outputs are rewritten in place, over longer and shorter old files
    b.mkdir()
    for name, scale in (("t_events.csv", 2), ("t_result.txt", 0.5), ("t_plotdata.csv", 3)):
        (b / name).write_bytes(b"#" * int(scale * (a / name).stat().st_size))
    run_pipeline(cfg, b)
    for name in ("t_events.csv", "t_result.txt", "t_plotdata.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def cli_command(*args) -> tuple[list, dict]:
    """The command and environment that run ``qptsim args`` on this checkout's package."""
    src = os.path.dirname(os.path.dirname(qptsim.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return [sys.executable, "-m", "qptsim.cli", *args], dict(os.environ, PYTHONPATH=path)


def test_closed_stdout_still_writes_every_file(tmp_path):
    # the reader of the progress lines quits after the first, as `| head -1`
    # does: the rest are dropped, with no traceback, and the run goes on;
    # unbuffered, each line is written as it is printed
    piped, direct = tmp_path / "piped", tmp_path / "direct"
    cmd, env = cli_command("pipeline", "--preset", "fig3", "--out", str(piped))
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert first.startswith(b"x,x: ") and err == b""
    run_pipeline(load_preset("fig3"), direct)
    for name in ("fig3_events.csv", "fig3_result.txt", "fig3_plotdata.csv"):
        assert (piped / name).read_bytes() == (direct / name).read_bytes()


@pytest.mark.parametrize(
    "close",
    [
        lambda: os.close(2),  # `2>&-`: Python starts with sys.stderr None
        lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2),  # writing raises
    ],
    ids=["closed", "read-only"],
)
def test_closed_stderr_keeps_the_exit_code(tmp_path, close):
    # the error line has nowhere to go; it is dropped, not sent to stdout,
    # and the exit code still says what went wrong
    for args, code in (
        (["pipeline", "--config", str(tmp_path / "missing.json")], 2),
        (["reconstruct", "--preset", "fig3", "--out", str(tmp_path)], 3),
    ):
        cmd, env = cli_command(*args)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, preexec_fn=close)
        assert proc.returncode == code and proc.stdout == b""


def preset_doc(name):
    return json.loads((resources.files("qptsim") / "presets" / f"{name}.json").read_text("utf-8"))


def lossy_fig3():
    doc = preset_doc("fig3")
    doc["plan"]["eta"] = 0.42
    return parse_config(doc)


# exact statistics on a mixed output: no event log, and an empty theory column
STATE_ONLY_EXACT = base_config(
    estimator="state_only", device={"type": "depolarizing", "p": 0.3}, plan={"exact": True}
)


@pytest.mark.parametrize(
    "make_cfg",
    [
        lambda: load_preset("fig3"),
        lambda: load_preset("fig4"),
        lossy_fig3,
        lambda: parse_config(base_config(plan={
            "total": 2000, "seed": 5,
            "allocation": {"xx": 390, "xy": 10, "xz": 100, "yx": 300, "yy": 200,
                           "yz": 150, "zx": 250, "zy": 350, "zz": 250},
        })),
        lambda: load_preset("depol"),
        lambda: load_preset("cnot"),
        lambda: parse_config(STATE_ONLY_EXACT),
    ],
    ids=["fig3", "fig4", "fig3-eta0.42", "allocation", "depol", "cnot", "state_only-exact"],
)
def test_pipeline_writes_the_bytes_of_the_staged_commands(tmp_path, make_cfg):
    # the pipeline hands events and the result document on in memory; the
    # commands read each other's files.  Exact statistics have no log to simulate.
    cfg = make_cfg()
    run_pipeline(cfg, tmp_path / "pipeline")
    staged = tmp_path / "staged"
    if cfg.plan is not None:
        run_simulate(cfg, staged)
    run_reconstruct(cfg, staged)
    run_plotdata(cfg, staged)
    names = sorted(p.name for p in (tmp_path / "pipeline").iterdir())
    assert names == sorted(p.name for p in staged.iterdir())
    assert len(names) == (2 if cfg.plan is None else 3)
    for name in names:
        assert (tmp_path / "pipeline" / name).read_bytes() == (staged / name).read_bytes()


def test_events_counted_once_per_staged_reconstruct_never_in_pipeline(tmp_path, monkeypatch):
    # the pipeline takes the counts the sampler tallied; reconstruct counts the log it reads
    calls = []
    count = qptsim.pipeline.events_to_counts
    monkeypatch.setattr(
        qptsim.pipeline, "events_to_counts", lambda events: calls.append(1) or count(events)
    )
    cfg = parse_config(base_config())
    run_pipeline(cfg, tmp_path)
    assert calls == []
    run_reconstruct(cfg, tmp_path)
    assert calls == [1]


@pytest.mark.parametrize(
    "doc",
    [preset_doc("depol"), STATE_ONLY_EXACT, preset_doc("fig3")],
    ids=["depol", "state_only-exact", "fig3"],
)
def test_one_propagation_per_run(tmp_path, monkeypatch, doc):
    # parse_config propagates the probe; the stages read the output state it keeps
    calls = []
    propagate = qptsim.pipeline.propagate
    monkeypatch.setattr(
        qptsim.pipeline, "propagate", lambda *args: calls.append(1) or propagate(*args)
    )
    run_pipeline(parse_config(doc), tmp_path)
    assert calls == [1]


# sha256 of the preset event logs; the first eight digits are in ROADMAP.md
PRESET_EVENT_LOGS = {
    "fig3": "aeddf6565d32b118c39f92e5ef41be7d3ffd0dcad7b3803d3c3ed19380afa8ca",
    "fig4": "82358201d0e317d4876b8046e9d6cdf6975845ce08fd871a58f3713cdd2bc4b0",
}


@pytest.mark.parametrize("preset", sorted(PRESET_EVENT_LOGS))
def test_preset_event_logs_keep_their_bytes(tmp_path, preset):
    assert main(["pipeline", "--preset", preset, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{preset}_events.csv").read_bytes()).hexdigest()
    assert digest == PRESET_EVENT_LOGS[preset]


def test_simulate_then_reconstruct_roundtrip_never_errors(tmp_path):
    # any quorum-complete plan must reconstruct without errors
    for seed in (1, 2, 3):
        cfg = parse_config(base_config(plan={"total": 900, "seed": seed, "eta": 1.0},
                                       bootstrap={"resamples": 100, "seed": seed}))
        run_simulate(cfg, tmp_path)
        run_reconstruct(cfg, tmp_path)


def test_eta_recorded_and_same_length(tmp_path):
    cfg = parse_config(base_config(plan={"total": 1000, "seed": 3, "eta": 0.42}))
    path = run_simulate(cfg, tmp_path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1001
    assert "eta=0.42" in lines[0]


def test_presets_all_load():
    for name in PRESETS:
        cfg = load_preset(name)
        assert cfg.label == name
    with pytest.raises(ConfigError):
        load_preset("fig99")


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "line" in str(err.value)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # an integer longer than int() reads is a config error, not a traceback
        huge = tmp_path / "huge.json"
        huge.write_text('{"bootstrap": {"seed": ' + "1" * (limit + 1) + "}}")
        with pytest.raises(ConfigError, match="unreadable JSON"):
            load_config(huge)


def test_cli_pipeline_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(base_config()))
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "t_result.txt").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(estimator="nope")))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err

    few = tmp_path / "few.json"
    few.write_text(json.dumps(base_config(bootstrap={"resamples": 10})))
    assert main(["pipeline", "--config", str(few), "--out", str(tmp_path)]) == 2
    assert "config error: bootstrap.resamples" in capsys.readouterr().err

    null = tmp_path / "null.json"
    null.write_text(json.dumps(base_config(**ANNIHILATED)))
    assert main(["pipeline", "--config", str(null), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: device:") and "annihilates" in err
    assert err.count("\n") == 1 and "Traceback" not in err

    fresh = tmp_path / "fresh"
    assert main(["reconstruct", "--config", str(cfg_path), "--out", str(fresh)]) == 3
    assert "data error" in capsys.readouterr().err

    # a label UTF-8 cannot encode names no file and fits in no result document
    surrogate = tmp_path / "surrogate.json"
    surrogate.write_text(json.dumps(base_config(label="a\ud800")))
    assert main(["pipeline", "--config", str(surrogate), "--out", str(tmp_path)]) == 2
    assert one_line_error(capsys).startswith("config error: label:")

    latin = tmp_path / "latin.json"
    latin.write_bytes(json.dumps(base_config(label="caf\u00e9"), ensure_ascii=False).encode("latin-1"))
    assert main(["pipeline", "--config", str(latin), "--out", str(tmp_path)]) == 2
    assert one_line_error(capsys).startswith("config error: cannot read config")

    # an output under a regular file cannot be created
    assert main(["pipeline", "--preset", "depol", "--out", str(cfg_path / "sub")]) == 2
    assert one_line_error(capsys).startswith("config error: cannot write")

    result = tmp_path / "t_result.txt"
    result.write_bytes(result.read_bytes() + b"\xff\xfe\n")
    assert main(["plotdata", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert one_line_error(capsys).startswith("data error:")


def test_cli_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(base_config()))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(b), "--seed", "99"]) == 0
    assert (a / "t_events.csv").read_bytes() != (b / "t_events.csv").read_bytes()
    assert "seed=99" in (b / "t_events.csv").read_text().splitlines()[0]
    capsys.readouterr()
    # the seed goes through the plan's own check, digits that int() refuses
    # too; an exact config has no plan to seed
    for argv, problem in (
        (["--config", str(cfg_path), "--seed", str(2**64)], "must be at most"),
        (["--config", str(cfg_path), "--seed", "1" + "0" * 5000], "must be at most "
         f"{2**64 - 1} (64 unsigned bits), got a 5001-digit integer"),
        (["--config", str(cfg_path), "--seed", "-1" + "0" * 5000],
         "must be at least 0, got a negative 5001-digit integer"),
        (["--config", str(cfg_path), "--seed", "abc"], "the seed must be an integer"),
        (["--preset", "depol", "--seed", "5"], "an exact-statistics config has no plan seed"),
    ):
        assert main(["pipeline", *argv, "--out", str(tmp_path)]) == 2
        err = one_line_error(capsys)
        assert err.startswith(f"config error: --seed: {problem}") and len(err) < 200


def test_cli_long_malformed_line_is_one_short_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig3_events.csv").write_bytes(b"# total=1 seed=0 eta=1.0\n" + b"x" * 2**20 + b"\n")
    assert main(["reconstruct", "--preset", "fig3", "--out", "."]) == 3
    err = one_line_error(capsys)
    assert err.startswith("data error: fig3_events.csv: line 2: ") and len(err) < 200


@pytest.mark.parametrize("malformed", [True, False])
def test_cli_long_out_path_is_cut_in_the_error_line(tmp_path, capsys, malformed):
    # a path of 4,000 characters is named by its end, which keeps the file name,
    # and a 1 MB malformed line by its start and length
    out = tmp_path
    while len(str(out / "fig3_events.csv")) < 4000:
        out = out / ("d" * min(200, 4000 - len(str(out / "fig3_events.csv"))))
    out.mkdir(parents=True)
    if malformed:
        (out / "fig3_events.csv").write_bytes(b"# total=1 seed=0 eta=1.0\n" + b"x" * 2**20 + b"\n")
    assert len(str(out / "fig3_events.csv")) >= 4000
    assert main(["reconstruct", "--preset", "fig3", "--out", str(out)]) == 3
    err = one_line_error(capsys)
    assert len(err.encode("utf-8")) <= 200 and "fig3_events.csv" in err
    assert ("fig3_events.csv: line 2: " if malformed else "; run simulate first") in err


def test_cli_refuses_a_bootstrap_that_empties_the_reference(tmp_path, capsys):
    # 45 events leave the reference pair empty in some of the 200 resamples:
    # the run is refused with one line and writes no result document
    coeffs = np.array([[0.45, 0.39], [0.39, 0.71]])
    coeffs /= np.linalg.norm(coeffs)
    doc = base_config(
        input_state={"coeffs": [[[v, 0.0] for v in row] for row in coeffs.tolist()]},
        device={"type": "identity"},
        estimator="state_only",
        plan={"total": 45, "seed": 1},
        bootstrap={"resamples": 200, "seed": 1},
    )
    cfg_path = tmp_path / "sparse.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    err = one_line_error(capsys)
    assert err.startswith("data error: bootstrap refused: reference element ") and len(err) <= 200
    assert not (tmp_path / "t_result.txt").exists()


def test_cli_choi_with_non_positive_trace_is_a_data_error(tmp_path, capsys):
    # beam 2 always reads -1, a Bloch vector (-1, -1, -1) that no state has; a
    # probe whose inverse weights the negative eigenvector of (I - sx - sy - sz)/2
    # gives the reconstructed Choi matrix a negative trace
    marginal = np.array([[0.0, -1.0 + 1.0j], [-1.0 - 1.0j, 2.0]]) / 2.0
    _, v = np.linalg.eigh(marginal)
    root = np.outer(v[:, 1], v[:, 1].conj()) + 0.3 * np.outer(v[:, 0], v[:, 0].conj())
    psi = root.conj() / np.linalg.norm(root)
    doc = base_config(
        input_state={"coeffs": [[[z.real, z.imag] for z in row] for row in psi.tolist()]},
        device={"type": "identity"},
        estimator="choi",
        plan={"total": 900, "seed": 0},
    )
    cfg_path = tmp_path / "crafted.json"
    cfg_path.write_text(json.dumps(doc))
    lines = [f"{a},{b},{s:+d},-1" for a in "xyz" for b in "xyz" for s in (1, -1) * 50]
    (tmp_path / "t_events.csv").write_text("# total=900 seed=0 eta=1.0\n" + "\n".join(lines) + "\n")
    assert main(["reconstruct", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    err = one_line_error(capsys)
    assert err.startswith("data error: reconstructed Choi matrix has non-positive trace")


def test_cli_preset_and_malformed_log(tmp_path, capsys):
    assert main(["simulate", "--preset", "fig3", "--out", str(tmp_path)]) == 0
    log = tmp_path / "fig3_events.csv"
    lines = log.read_text().splitlines()
    lines[5] = "x,q,+1,-1"
    log.write_text("\n".join(lines) + "\n")
    assert main(["reconstruct", "--preset", "fig3", "--out", str(tmp_path)]) == 3
    assert "line 6" in capsys.readouterr().err

    lines[5] = "x,z,+1,-1"
    log.write_bytes(("\n".join(lines) + "\n").encode("ascii") + "x,z,\u00b11,-1\n".encode("utf-8"))
    assert main(["reconstruct", "--preset", "fig3", "--out", str(tmp_path)]) == 3
    assert "non-ASCII byte 0xc2" in one_line_error(capsys)

    (tmp_path / "dir" / "fig3_events.csv").mkdir(parents=True)
    assert main(["reconstruct", "--preset", "fig3", "--out", str(tmp_path / "dir")]) == 3
    assert "cannot read event log" in one_line_error(capsys)


def test_cli_requires_config_or_preset():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])
    assert exc.value.code == 2
