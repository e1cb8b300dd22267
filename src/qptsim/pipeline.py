"""Config-driven pipeline: simulate, log events, reconstruct, emit plot data.

A run is described by a flat JSON document; wave-plate angles are given in
units of pi so published parameters survive textually (0.45, -0.138, 0.29).
Identical configs (seeds included) produce byte-identical event logs and
result documents.

Result document layout: a ``key: value`` header block, one blank line, then
a comma-delimited element table ``element,part,estimate,error,theory`` in a
fixed row-major element order.  The plot-data command re-emits that table
on its own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import warnings
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
    AXIS_LETTERS,
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
    _bootstrap_counts,
    _state_overlap,
    distance_choi,
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


def _complex_entry(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ValueError(f"complex entries must be [re, im] pairs, got {shown(v)}")
    for part in v:
        _check_real("the parts of a complex entry", part)
    return complex(float(v[0]), float(v[1]))


def _parse_state(field: str, spec) -> BipartiteState:
    if not isinstance(spec, dict):
        raise ConfigError(f"{field}: expected an object with 'bell' or 'coeffs'")
    if "bell" in spec:
        try:
            return bell_state(spec["bell"])
        except ValueError as exc:
            raise ConfigError(f"{field}.bell: {exc}") from None
    if "coeffs" in spec:
        rows = spec["coeffs"]
        try:
            m = np.array([[_complex_entry(v) for v in row] for row in rows])
            if m.shape != (2, 2):
                raise ValueError(f"coefficient matrix must be 2x2, got {m.shape}")
            return BipartiteState.from_coeffs(m)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{field}.coeffs: {exc}") from None
    raise ConfigError(f"{field}: needs either 'bell' or 'coeffs'")


def _parse_device(spec) -> QuantumChannel:
    """The device as a channel: one qubit, or two for cnot and swap."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("device: expected an object with a 'type' field")
    kind = spec["type"]
    try:
        if kind == "waveplates":
            return compile_device(DeviceSpec.from_config(spec["plates"]))
        if kind == "identity":
            return identity_channel()
        if kind == "depolarizing":
            return depolarizing(spec["p"])
        if kind == "amplitude_damping":
            return amplitude_damping(spec["gamma"])
        if kind == "kraus":
            ops = [
                np.array([[_complex_entry(v) for v in row] for row in op])
                for op in spec["ops"]
            ]
            for op in ops:
                if op.shape != (2, 2):
                    raise ValueError(f"Kraus operators must be 2x2, got {op.shape}")
            return QuantumChannel.from_kraus(ops)
        if kind in TWO_QUBIT_DEVICES:
            return unitary_channel(TWO_QUBIT_DEVICES[kind])
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"device ({kind}): {exc}") from None
    raise ConfigError(
        f"device.type: unknown type {shown(kind)}; expected waveplates, identity, "
        f"depolarizing, amplitude_damping, kraus, cnot or swap"
    )


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
        names = {AXIS_LETTERS[s.axis1] + AXIS_LETTERS[s.axis2]: s for s in SETTINGS}
        alloc = {names.get(key, key): n for key, n in alloc.items()}
    loss = _checked("plan", lambda: LossModel(spec.get("eta", 1.0)))
    if "allocation" not in spec:
        return _checked("plan", lambda: ExperimentPlan.uniform(total, seed, loss=loss))
    return _checked("plan", lambda: ExperimentPlan(total, alloc, seed, loss))


def _check_keys(where: str, doc: dict, allowed) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(map(shown, unknown))}; "
            f"expected some of {', '.join(allowed)}"
        )


def _section(doc: dict, name: str) -> dict:
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: expected an object")
    _check_keys(name, sec, _SECTION_KEYS[name])
    return sec


def _name_field(where: str, v) -> str:
    """A config string that names output files and is written into UTF-8 documents."""
    text = str(v)
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
    if estimator != "state_only" and not probe.full_rank:  # the pairs' product, for two qubits
        names = "input_state and input_state_b" if two_qubit else "input_state"
        raise ConfigError(f"{names}: the {estimator} estimator needs a faithful (full-rank) probe")

    plan = _parse_plan(_section(doc, "plan"))
    if two_qubit and plan is not None:
        raise ConfigError("two-qubit devices support exact statistics only (plan.exact = true)")
    if estimator == "unitary" and not channel.is_unitary:
        warnings.warn(
            "unitary estimator configured for a non-unitary device; "
            "the reconstruction will report a large unitarity deviation",
            RuntimeWarning,
            stacklevel=2,
        )

    boot = _section(doc, "bootstrap")
    bootstrap = _checked("bootstrap", lambda: BootstrapPlan(**boot))
    outputs = _section(doc, "outputs")
    label = _name_field("label", doc.get("label", "run"))
    return PipelineConfig(
        label=label,
        input_state=probe,
        channel=channel,
        output_state=output,
        estimator=estimator,
        plan=plan,
        bootstrap=bootstrap,
        out_events=_name_field("outputs.events", outputs.get("events", f"{label}_events.csv")),
        out_result=_name_field("outputs.result", outputs.get("result", f"{label}_result.txt")),
        out_plotdata=_name_field(
            "outputs.plotdata", outputs.get("plotdata", f"{label}_plotdata.csv")
        ),
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
    except ValueError as exc:  # an integer over Python's digit limit for int()
        raise ConfigError(f"{shown_path(path)}: unreadable JSON: {exc}") from None
    return parse_config(doc)


def load_preset(name: str) -> PipelineConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    text = resources.files("qptsim").joinpath("presets", f"{name}.json").read_text("utf-8")
    return parse_config(json.loads(text))


def _resolve(out_dir, name: str) -> Path:
    p = Path(name)
    return p if p.is_absolute() else Path(out_dir) / p


def _write_output(path: Path, write) -> None:
    """Create the parent directory and call ``write(path)``; an output that
    cannot be created or written is a config error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {shown_path(path)}: {exc.strerror or exc}") from None


def _say(line: str) -> None:
    """Print a progress line; once stdout's reader has gone, drop it and the rest."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _simulate(cfg: PipelineConfig, out_dir) -> tuple[Path, np.ndarray]:
    """Draw coincidence events and write the event log; returns its path and
    the events' (9, 4) counts table, which the sampler counted as it drew them."""
    plan = cfg.plan
    if plan is None:
        raise ConfigError("exact-statistics configs have no event log to simulate")
    codes, counts = _sample(cfg.output_state, plan)
    path = _resolve(out_dir, cfg.out_events)
    _write_output(path, lambda p: write_event_log(p, codes, seed=plan.seed, eta=plan.eta))
    for setting in SETTINGS:
        n = plan.allocation.get(setting, 0)
        _say(f"{AXIS_LETTERS[setting.axis1]},{AXIS_LETTERS[setting.axis2]}: {n} events")
    _say(f"wrote {codes.size} events to {path}")
    return path, counts


def run_simulate(cfg: PipelineConfig, out_dir=".") -> Path:
    """Draw coincidence events and write the event log."""
    return _simulate(cfg, out_dir)[0]


@functools.cache
def _row_heads(kind: str, n: int) -> tuple[str, ...]:
    """The ``element,part`` cells of an n x n matrix's table rows, in row order."""
    name = {"input_state": "Psi{}{}", "device_unitary": "U{}{}"}.get(kind)
    if name is None:
        name = "C{}{}" if n <= 9 else "C{}_{}"
    return tuple(
        f"{name.format(r, c)},{part}" for r in range(n) for c in range(n) for part in ("re", "im")
    )


def _row_values(a) -> list[float]:
    """Real and imaginary part of every element of a matrix, or of the
    bootstrap errors, as Python floats in row order."""
    return np.stack([a.real, a.imag], axis=-1).reshape(-1).tolist()


# The figure of merit that compares each kind of estimate with its truth, last in the header.
_MERIT = {
    "input_state": ("fidelity", _state_overlap),
    "device_unitary": ("fidelity", fidelity_unitary),
    "device_choi": ("choi_distance", distance_choi),
}


def _format_result(cfg: PipelineConfig, result, truth, errors) -> str:
    """The document of ``result`` and its bootstrap ``errors`` (None when exact); a
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
    lines += [f"{k}: {v:.12g}" if isinstance(v, float) else f"{k}: {v}" for k, v in header.items()]
    lines.append("")
    lines.append("element,part,estimate,error,theory")
    if truth is not None:
        # The global phase is unmeasurable; rotate the theory values into the
        # estimate's gauge so the columns compare element by element.
        overlap = np.sum(np.conj(truth) * m)
        if abs(overlap) > 1e-12:
            truth = np.asarray(truth) * np.exp(1j * np.angle(overlap))
    # one format call per row; a column without values stays empty
    cell = "{:.12g}"
    row = ",".join(("{}", cell, "" if errors is None else cell, "" if truth is None else cell))
    columns = [_row_values(v) for v in (m, errors, truth) if v is not None]
    lines += map(row.format, _row_heads(result.kind, m.shape[0]), *columns)
    return "\n".join(lines) + "\n"


def _reconstruct(cfg: PipelineConfig, out_dir, counts) -> tuple[Path, str]:
    """Estimate the configured quantity from the (9, 4) counts table (None
    for exact statistics) and write the result document; returns its path
    and text.  The bootstrap resamples the same counts."""
    psi_in, out = cfg.input_state, cfg.output_state
    table = exact_correlations(out) if counts is None else table_from_counts(counts)

    if cfg.estimator == "state_only":
        truth = out.coeffs if out.pure else None
        ref = select_reference(table)
        result = reconstruct_state(table, ref)
        estimate = lambda t: reconstruct_state(t, ref).matrix
    elif cfg.estimator == "unitary":
        truth = cfg.channel.unitary_matrix
        ref = select_reference(table)
        result = reconstruct_unitary(table, psi_in, ref)
        estimate = lambda t: reconstruct_unitary(t, psi_in, ref).matrix
    else:
        truth = cfg.channel.choi
        result = reconstruct_choi(table, psi_in)
        estimate = lambda t: reconstruct_choi(t, psi_in).matrix

    errors = None if counts is None else _bootstrap_counts(counts, estimate, cfg.bootstrap)
    text = _format_result(cfg, result, truth, errors)
    path = _resolve(out_dir, cfg.out_result)
    _write_output(path, lambda p: write_file(p, text.encode("utf-8")))
    _say(f"wrote {result.kind} result to {path}")
    return path, text


def run_reconstruct(cfg: PipelineConfig, out_dir=".") -> Path:
    """Estimate the configured quantity and write the result document."""
    counts, plan = None, cfg.plan
    if plan is not None:
        events_path = _resolve(out_dir, cfg.out_events)
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
    return _reconstruct(cfg, out_dir, counts)[0]


def _plotdata(cfg: PipelineConfig, out_dir, result_path: Path, text: str) -> Path:
    """Write the element table of a result document's text as the plot data."""
    lines = text.splitlines()
    try:
        start = lines.index("") + 1
    except ValueError:
        raise DataError(f"{shown_path(result_path)}: no element table found") from None
    table = lines[start:]
    if not table or table[0] != "element,part,estimate,error,theory":
        raise DataError(f"{shown_path(result_path)}: malformed element table header")
    path = _resolve(out_dir, cfg.out_plotdata)
    _write_output(path, lambda p: write_file(p, ("\n".join(table) + "\n").encode("utf-8")))
    _say(f"wrote {len(table) - 1} plot rows to {path}")
    return path


def run_plotdata(cfg: PipelineConfig, out_dir=".") -> Path:
    """Extract the element table of a result document as a standalone CSV."""
    result_path = _resolve(out_dir, cfg.out_result)
    if not result_path.exists():
        raise DataError(f"no result document {shown_path(result_path)}; run reconstruct first")
    try:
        text = result_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        name = shown_path(result_path)
        raise DataError(f"{name}: cannot read result document: {reason}") from None
    return _plotdata(cfg, out_dir, result_path, text)


def run_pipeline(cfg: PipelineConfig, out_dir=".") -> dict[str, Path]:
    """simulate (unless exact), reconstruct, plotdata; one seed end to end.

    Each stage hands its product to the next in memory: reconstruct takes
    the counts simulate's sampler tallied, and plotdata the document
    reconstruct formatted.  Every file is still written, with the bytes the
    standalone commands write from each other's files.
    """
    paths = {}
    counts = None
    if cfg.plan is not None:
        paths["events"], counts = _simulate(cfg, out_dir)
    paths["result"], text = _reconstruct(cfg, out_dir, counts)
    paths["plotdata"] = _plotdata(cfg, out_dir, paths["result"], text)
    return paths
