"""Config-driven pipeline: simulate, log events, reconstruct, emit plot data.

A run is described by a flat JSON document; wave-plate angles are given in
units of pi so published parameters survive textually (0.45, -0.138, 0.29).
Identical configs (seeds included) produce byte-identical event logs and
result documents.

Result document layout: a ``key: value`` header block, one blank line, then
a comma-delimited element table ``element,part,estimate,error,theory`` in a
fixed row-major element order.  The table is rendered once, by filling a
cached template, and the pipeline writes it again as the plot data; the
standalone plot-data command cuts it back out of the result document.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .algebra import BipartiteState, _check_real, bell_state, pairs
from .channels import (
    QuantumChannel,
    amplitude_damping,
    depolarizing,
    identity_channel,
    propagate,
    unitary_channel,
)
from .errors import ConfigError, DataError, NullEventError, PlanError, shown, shown_path
from .experiment import (
    SETTINGS,
    ExperimentPlan,
    LossModel,
    _sample,
    events_to_counts,
    exact_correlations,
    read_event_log,
    table_from_counts,
    write_event_log,
    write_file,
)
from .optics import DeviceSpec, compile_device
from .tomography import (
    CNOT,
    SWAP,
    BootstrapPlan,
    _state_overlap,
    bootstrap_errors,
    distance_choi,
    faithfulness_check,
    fidelity_unitary,
    reconstruct_choi,
    reconstruct_state,
    reconstruct_unitary,
    select_reference,
)

ESTIMATORS = ("unitary", "choi", "state_only")
TWO_QUBIT_DEVICES = {"cnot": CNOT, "swap": SWAP}
PRESETS = ("fig3", "fig4", "cnot", "depol")

# Accepted keys of the config root and of each of its sections.
_CONFIG_KEYS = (
    "label", "input_state", "input_state_b", "device", "estimator", "plan", "bootstrap", "outputs",
)
_SECTION_KEYS = {
    "plan": ("total", "seed", "eta", "exact", "allocation"),
    "bootstrap": ("resamples", "seed"),
    "outputs": ("events", "result", "plotdata"),
}
# Accepted keys of a device of each type, beside "type".
_DEVICE_KEYS = {
    "waveplates": ("plates",), "identity": (), "depolarizing": ("p",),
    "amplitude_damping": ("gamma",), "kraus": ("ops",), "cnot": (), "swap": (),
}


@dataclass(frozen=True)
class PipelineConfig:
    """A parsed run.  ``input_state`` is the probe: for a two-qubit device,
    the two pairs ``pairs(input_state, input_state_b)``.  ``output_state`` is
    the probe sent through the channel, propagated once when the config is
    parsed.  ``plan`` is None for exact statistics."""

    label: str
    input_state: BipartiteState
    channel: QuantumChannel
    output_state: BipartiteState
    estimator: str
    plan: Optional[ExperimentPlan]
    bootstrap: BootstrapPlan
    out_events: str
    out_result: str
    out_plotdata: str


def _matrix(rows, what: str) -> np.ndarray:
    """The 2x2 complex matrix ``what`` of a config, written as rows of [re, im] pairs."""
    for v in (v for row in rows for v in row):
        if not (isinstance(v, (list, tuple)) and len(v) == 2):
            raise ValueError(f"complex entries must be [re, im] pairs, got {shown(v)}")
        for part in v:
            _check_real("the parts of a complex entry", part)
    m = np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])
    if m.shape != (2, 2):
        raise ValueError(f"{what} must be 2x2, got {m.shape}")
    return m


def _parse_state(field: str, spec) -> BipartiteState:
    _check_keys(field, spec, ("bell", "coeffs"))
    if len(spec) != 1:
        raise ConfigError(f"{field}: needs exactly one of 'bell' and 'coeffs'")
    if "bell" in spec:
        try:
            return bell_state(spec["bell"])
        except ValueError as exc:
            raise ConfigError(f"{field}.bell: {exc}") from None
    try:
        return BipartiteState.from_coeffs(_matrix(spec["coeffs"], "coefficient matrix"))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{field}.coeffs: {exc}") from None


def _parse_device(spec) -> QuantumChannel:
    """The device as a channel: one qubit, or two for cnot and swap."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("device: expected an object with a 'type' field")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _DEVICE_KEYS:
        expected = ", ".join(_DEVICE_KEYS)
        raise ConfigError(f"device.type: unknown type {shown(kind)}; expected one of {expected}")
    _check_keys("device", spec, ("type", *_DEVICE_KEYS[kind]))
    try:
        if kind == "waveplates":
            for i, plate in enumerate(spec["plates"]):
                _check_keys(f"device.plates[{i}]", plate, ("phi_over_pi", "theta_over_pi"))
            return compile_device(DeviceSpec.from_config(spec["plates"]))
        if kind == "identity":
            return identity_channel()
        if kind == "depolarizing":
            return depolarizing(spec["p"])
        if kind == "amplitude_damping":
            return amplitude_damping(spec["gamma"])
        if kind == "kraus":
            return QuantumChannel.from_kraus([_matrix(op, "Kraus operators") for op in spec["ops"]])
        return unitary_channel(TWO_QUBIT_DEVICES[kind])
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"device ({kind}): {exc}") from None


def _checked(section: str, make):
    """``make()``, whose PlanError becomes a config error naming ``section``'s fields."""
    try:
        return make()
    except PlanError as exc:
        fields = ", ".join(f"{section}.{f}" for f in exc.fields)
        raise ConfigError(f"{fields}: {exc.problem}") from None


def _parse_plan(spec: dict) -> Optional[ExperimentPlan]:
    """The plan of a ``plan`` section, None for exact statistics."""
    exact = spec.get("exact", False)
    if not isinstance(exact, bool):
        raise ConfigError(f"plan.exact: expected true or false, got {shown(exact)}")
    if exact:
        if len(spec) > 1:
            others = ", ".join(shown(k) for k in spec if k != "exact")
            raise ConfigError(f"plan: an exact-statistics plan takes no other key, got {others}")
        return None
    total, seed, alloc = spec.get("total", 0), spec.get("seed", 0), spec.get("allocation")
    if isinstance(alloc, dict):  # keys name settings by their axis letters, such as 'xz'
        names = {str(s): s for s in SETTINGS}
        alloc = {names.get(key, key): n for key, n in alloc.items()}
    loss = _checked("plan", lambda: LossModel(spec.get("eta", 1.0)))
    if "allocation" not in spec:
        return _checked("plan", lambda: ExperimentPlan.uniform(total, seed, loss=loss))
    return _checked("plan", lambda: ExperimentPlan(total, alloc, seed, loss))


def _check_keys(where: str, doc: dict, allowed) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(map(shown, unknown))}; "
            f"expected some of {', '.join(allowed)}"
        )


def _section(doc: dict, name: str) -> dict:
    sec = doc.get(name, {})
    _check_keys(name, sec, _SECTION_KEYS[name])
    return sec


def _name_field(where: str, text) -> str:
    """A config string that names output files and is written into UTF-8 documents."""
    if not isinstance(text, str):
        raise ConfigError(f"{where}: expected a string, got {shown(text)}")
    if "\0" in text:
        raise ConfigError(f"{where}: {shown(text)} contains a NUL character")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ConfigError(f"{where}: {shown(text)} has no UTF-8 encoding ({exc.reason})") from None
    return text


def parse_config(doc: dict) -> PipelineConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys("config", doc, _CONFIG_KEYS)
    for key in ("input_state", "device", "estimator"):
        if key not in doc:
            raise ConfigError(f"missing required config field {key!r}")

    estimator = doc["estimator"]
    if estimator not in ESTIMATORS:
        raise ConfigError(f"estimator: expected one of {ESTIMATORS}, got {shown(estimator)}")

    # one pair per device qubit; the second pair defaults to the first's state
    first = _parse_state("input_state", doc["input_state"])
    has_b = "input_state_b" in doc
    second = _parse_state("input_state_b", doc["input_state_b"]) if has_b else first
    channel = _parse_device(doc["device"])
    two_qubit = channel.choi.shape == (16, 16)
    if two_qubit and estimator != "choi":
        raise ConfigError("two-qubit devices require the choi estimator")
    if not two_qubit and has_b:
        raise ConfigError("input_state_b: only two-qubit devices take a second pair")
    probe = pairs(first, second) if two_qubit else first
    try:
        output = propagate(channel, probe)
    except NullEventError as exc:
        raise ConfigError(f"device: the channel annihilates the input state ({exc})") from None
    if estimator != "state_only" and not faithfulness_check(probe).full_rank:  # the pairs' product
        names = "input_state and input_state_b" if two_qubit else "input_state"
        raise ConfigError(f"{names}: the {estimator} estimator needs a faithful (full-rank) probe")

    plan = _parse_plan(_section(doc, "plan"))
    if two_qubit and plan is not None:
        raise ConfigError("two-qubit devices support exact statistics only (plan.exact = true)")

    boot = _section(doc, "bootstrap")
    bootstrap = _checked("bootstrap", lambda: BootstrapPlan(**boot))
    outputs = _section(doc, "outputs")
    label = _name_field("label", doc.get("label", "run"))
    if len(f"x{label}x".splitlines()) > 1:  # the header's label line stays one line
        raise ConfigError(f"label: {shown(label)} contains a line break")
    names = {}
    for key, ext in (("events", "csv"), ("result", "txt"), ("plotdata", "csv")):
        names[key] = _name_field(f"outputs.{key}", outputs.get(key, f"{label}_{key}.{ext}"))
        path = os.path.normpath(names[key])
        if os.path.basename(path) in ("", ".", "..") or names[key][-1:] in (os.sep, os.altsep):
            raise ConfigError(f"outputs.{key}: {shown(names[key])} does not name a file")
    return PipelineConfig(
        label=label,
        input_state=probe,
        channel=channel,
        output_state=output,
        estimator=estimator,
        plan=plan,
        bootstrap=bootstrap,
        out_events=names["events"],
        out_result=names["result"],
        out_plotdata=names["plotdata"],
    )


def load_config(path) -> PipelineConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config {shown_path(path)}: {reason}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"{shown_path(path)}: invalid JSON at line {exc.lineno}"
        raise ConfigError(f"{where}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # over int()'s digit limit, or nested too deep
        raise ConfigError(f"{shown_path(path)}: unreadable JSON: {exc}") from None
    return parse_config(doc)


def load_preset(name: str) -> PipelineConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    text = resources.files("qptsim").joinpath("presets", f"{name}.json").read_text("utf-8")
    return parse_config(json.loads(text))


def _output_paths(cfg: PipelineConfig, out_dir) -> dict[str, Path]:
    """The files the run writes, by output key, each name joined to ``out_dir`` (an
    absolute name stays as it is); an exact run writes no event log.  Two that name
    one file once normalized are a config error, raised before anything is written."""
    paths, seen = {}, {}
    for key in ("events", "result", "plotdata")[cfg.plan is None :]:
        paths[key] = Path(out_dir, getattr(cfg, f"out_{key}"))
        path = os.path.abspath(paths[key])
        if (other := seen.setdefault(path, key)) != key:
            raise ConfigError(f"outputs.{other} and outputs.{key} both name {shown_path(path)}")
    return paths


def _write_output(path: Path, write) -> None:
    """Create the parent directory and call ``write(path)``; an output that
    cannot be created or written is a config error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {shown_path(path)}: {exc.strerror or exc}") from None


def _say(line: str, err: bool = False) -> None:
    """Print a line to stdout, or stderr with ``err``, unless that stream was closed at
    start; once a write fails, point its fd at the null device and drop the rest."""
    stream = sys.stderr if err else sys.stdout
    if stream is not None:
        try:
            print(line, file=stream, flush=True)
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def run_simulate(cfg: PipelineConfig, out_dir=".") -> tuple[Path, np.ndarray]:
    """Draw coincidence events and write the event log; returns its path and
    the events' (9, 4) counts table, which the sampler counted as it drew them."""
    plan = cfg.plan
    if plan is None:
        raise ConfigError("exact-statistics configs have no event log to simulate")
    path = _output_paths(cfg, out_dir)["events"]
    codes, counts = _sample(cfg.output_state, plan)
    _write_output(path, lambda p: write_event_log(p, codes, seed=plan.seed, eta=plan.eta))
    for setting in SETTINGS:
        n = plan.allocation.get(setting, 0)
        _say(f"{','.join(str(setting))}: {n} events")
    _say(f"wrote {codes.size} events to {path}")
    return path, counts


_TABLE_HEADER = "element,part,estimate,error,theory"


@functools.cache
def _table_template(kind: str, n: int, has_errors: bool, has_truth: bool) -> str:
    """The element table of an n x n matrix as one %-template: the column header
    and every row's ``element,part`` cells, then a ``%.12g`` slot for each filled
    cell of the row; a column without values stays empty."""
    name = {"input_state": "Psi{}{}", "device_unitary": "U{}{}"}.get(kind)
    if name is None:
        name = "C{}{}" if n <= 9 else "C{}_{}"
    cells = ",".join(("%.12g", "%.12g" if has_errors else "", "%.12g" if has_truth else ""))
    heads = (name.format(r, c) for r in range(n) for c in range(n))
    rows = "".join(f"{head},{part},{cells}\n" for head in heads for part in ("re", "im"))
    return _TABLE_HEADER + "\n" + rows


# The figure of merit that compares each kind of estimate with its truth, last in the header.
_MERIT = {
    "input_state": ("fidelity", _state_overlap),
    "device_unitary": ("fidelity", fidelity_unitary),
    "device_choi": ("choi_distance", distance_choi),
}


def _format_result(cfg: PipelineConfig, result, truth, errors) -> tuple[str, str]:
    """The header block (through its blank line) and the element table of the
    document of ``result`` and its bootstrap ``errors`` (None when exact); a
    ``truth`` adds its figure of merit, last in the header, and the theory column."""
    plan = cfg.plan
    lines = [
        f"kind: {result.kind}",
        f"label: {cfg.label}",
        f"estimator: {cfg.estimator}",
        f"exact: {str(plan is None).lower()}",
    ]
    if plan is not None:
        lines += [
            f"n_events: {plan.total}",
            f"seed: {plan.seed}",
            f"eta: {plan.eta!r}",
            f"bootstrap_resamples: {cfg.bootstrap.resamples}",
            f"bootstrap_seed: {cfg.bootstrap.seed}",
        ]
    lines.append(f"gauge: {result.gauge}")
    m, header = result.matrix, dict(result.diagnostics)
    if truth is not None:
        name, merit = _MERIT[result.kind]
        header[name] = merit(m, truth)
    for k, v in header.items():  # a float, a string or a tuple of floats
        v = v if isinstance(v, tuple) else (v,)
        lines.append(f"{k}: " + ", ".join(f"{x:.12g}" if isinstance(x, float) else x for x in v))
    if truth is not None:
        # The global phase is unmeasurable; rotate the theory values into the
        # estimate's gauge so the columns compare element by element.
        overlap = np.sum(np.conj(truth) * m)
        if abs(overlap) > 1e-12:
            truth = np.asarray(truth) * np.exp(1j * np.angle(overlap))
    # values in row order, (element, re|im, column), fill the template in one operation;
    # the header, which holds the user's label, stays out of it
    columns = [np.stack([v.real, v.imag], axis=-1) for v in (m, errors, truth) if v is not None]
    values = np.stack(columns, axis=-1).reshape(-1).tolist()
    template = _table_template(result.kind, m.shape[0], errors is not None, truth is not None)
    return "\n".join(lines) + "\n\n", template % tuple(values)


def run_reconstruct(
    cfg: PipelineConfig, out_dir=".", counts: Optional[np.ndarray] = None
) -> tuple[Path, str]:
    """Estimate the configured quantity and write the result document; returns
    its path and element table.  A sampled run's (9, 4) ``counts`` table is read
    from the event log unless it is given, and the bootstrap resamples it."""
    psi_in, out, plan = cfg.input_state, cfg.output_state, cfg.plan
    paths = _output_paths(cfg, out_dir)
    if plan is not None and counts is None:
        events_path = paths["events"]
        if not events_path.exists():
            raise DataError(f"no event log {shown_path(events_path)}; run simulate first")
        events, header = read_event_log(events_path)
        # the result document reports the config's values; the log must share them
        for field, value in (("total", plan.total), ("seed", plan.seed), ("eta", plan.eta)):
            if header[field] != value:
                raise DataError(
                    f"{shown_path(events_path)}: header {field}={header[field]!r} does not match "
                    f"the config's {field} {value!r}"
                )
        counts = events_to_counts(events)
    table = exact_correlations(out) if plan is None else table_from_counts(counts)
    # the pure-state estimators flag a mixed output; purity is Tr rho^2 of one pair
    if cfg.estimator != "choi" and (purity := float(np.sum(table.entries**2)) / 4.0) < 0.9:
        _say(f"warning: the output is mixed (table purity {purity:.3g}); "
             f"{cfg.estimator} estimates a pure state", err=True)

    if cfg.estimator == "state_only":
        truth = out.coeffs if out.pure else None
        ref = select_reference(table)
        result = reconstruct_state(table, ref)
        estimate = lambda t: reconstruct_state(t, ref).matrix
    elif cfg.estimator == "unitary":
        truth = cfg.channel.unitary_matrix
        ref = select_reference(table)
        result = reconstruct_unitary(table, psi_in, ref)

        def estimate(t):
            # the gauge fixes U up to a sign that flips where det U crosses the negative axis,
            # as a half-wave plate's does: keep each resample's sign nearest the point estimate
            stack = reconstruct_unitary(t, psi_in, ref).matrix
            flip = np.einsum("ij,bij->b", result.matrix.conj(), stack).real < 0
            return np.where(flip[:, None, None], -stack, stack)
    else:
        truth = cfg.channel.choi
        result = reconstruct_choi(table, psi_in)
        estimate = lambda t: reconstruct_choi(t, psi_in).matrix

    boot = cfg.bootstrap
    errors = None if plan is None else bootstrap_errors(counts, estimate, boot.resamples, boot.seed)
    head, elements = _format_result(cfg, result, truth, errors)
    path = paths["result"]
    _write_output(path, lambda p: write_file(p, (head + elements).encode("utf-8")))
    _say(f"wrote {result.kind} result to {path}")
    return path, elements


def run_plotdata(cfg: PipelineConfig, out_dir=".", table: Optional[str] = None) -> Path:
    """Write an element table, column header first, as the plot data; without
    ``table``, the one cut from the result document."""
    paths = _output_paths(cfg, out_dir)
    if table is None:
        result_path = paths["result"]
        if not result_path.exists():
            raise DataError(f"no result document {shown_path(result_path)}; run reconstruct first")
        try:
            text = result_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            name = shown_path(result_path)
            raise DataError(f"{name}: cannot read result document: {reason}") from None
        lines = text.splitlines()
        try:
            start = lines.index("") + 1
        except ValueError:
            raise DataError(f"{shown_path(result_path)}: no element table found") from None
        if lines[start : start + 1] != [_TABLE_HEADER]:
            raise DataError(f"{shown_path(result_path)}: malformed element table header")
        table = "\n".join(lines[start:]) + "\n"
    path = paths["plotdata"]
    _write_output(path, lambda p: write_file(p, table.encode("utf-8")))
    rows = table.count("\n") - 1  # after the column header
    _say(f"wrote {rows} plot rows to {path}")
    return path


def run_pipeline(cfg: PipelineConfig, out_dir=".") -> dict[str, Path]:
    """simulate (unless exact), reconstruct, plotdata; one seed end to end.

    Each stage hands its product to the next in memory: reconstruct takes
    the counts simulate's sampler tallied, and plotdata the element table
    reconstruct rendered.  Every file is still written, with the bytes the
    standalone commands write from each other's files.
    """
    paths, counts = {}, None
    if cfg.plan is not None:
        paths["events"], counts = run_simulate(cfg, out_dir)
    paths["result"], table = run_reconstruct(cfg, out_dir, counts)
    paths["plotdata"] = run_plotdata(cfg, out_dir, table)
    return paths
