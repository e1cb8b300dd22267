"""The four benchmark workloads, their correctness checks and digests.

Each workload derives every plan and bootstrap seed from the one workload
seed it is given, and drives the package only through ``qptsim.cli.main``,
the pipeline's files and the public functions of ``experiment``,
``tomography``, ``channels`` and ``optics``.  Calls the benchmark itself
makes into the package go through the ``api`` namespace, so the tracer can
wrap them like any other cross-module binding.

An operation is one callable from ``ops()``; only operations are timed.
``check`` runs after each operation and ``finish`` after each iteration,
both outside the timed region, and return failure messages.  ``finish``
also returns the iteration's digests, which must repeat exactly across
iterations of one run.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import types
from importlib import resources
from pathlib import Path

import numpy as np

from qptsim import channels, cli, experiment, optics, tomography
from qptsim.algebra import bell_state
from qptsim.experiment import OUTCOMES, SETTINGS, ExperimentPlan, LossModel
from qptsim.optics import DeviceSpec

FIG3_PLATES = [{"phi_over_pi": 0.45, "theta_over_pi": -0.138}]
_CHUNK = 1 << 20


def make_api() -> types.SimpleNamespace:
    """The package functions the benchmark calls directly."""
    return types.SimpleNamespace(
        cli_main=cli.main,
        compile_device=optics.compile_device,
        propagate=channels.propagate,
        run_experiment=experiment.run_experiment,
        correlations_from_events=experiment.correlations_from_events,
        events_to_counts=experiment.events_to_counts,
        select_reference=tomography.select_reference,
        reconstruct_unitary=tomography.reconstruct_unitary,
        bootstrap_errors=tomography.bootstrap_errors,
    )


def warm_caches() -> None:
    """Fill the package's lazy caches through public calls (part of set-up)."""
    probe = bell_state(1)
    table = experiment.exact_correlations(probe)
    tomography.reconstruct_state(table)
    tomography.density_from_correlations(table)
    rho = tomography.two_pair_output_state(tomography.CNOT, probe, probe)
    tomography.correlations_4party(rho)


def _preset_doc(name: str) -> dict:
    text = resources.files("qptsim").joinpath("presets", f"{name}.json").read_text("utf-8")
    return json.loads(text)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def _result_field(path: Path, key: str) -> float:
    """A float from the ``key: value`` header of a result document."""
    prefix = key + ": "
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                break
            if line.startswith(prefix):
                return float(line[len(prefix):])
    raise ValueError(f"{path} has no {key!r} field")


def _element_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Estimate and theory columns of a result document, as complex vectors."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines[lines.index("") + 2:]]
    est = np.array([float(r[2]) for r in rows])
    theory = np.array([float(r[4]) for r in rows])
    return est[0::2] + 1j * est[1::2], theory[0::2] + 1j * theory[1::2]


def _file_digest(path: Path) -> tuple[str, int]:
    """sha256 of a file and its number of lines."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for buf in iter(lambda: fh.read(_CHUNK), b""):
            h.update(buf)
            lines += buf.count(b"\n")
    return h.hexdigest(), lines


class Workload:
    """Base: ``events_per_op`` and ``fits_per_op`` state the input size."""

    name = ""
    events_per_op = 0
    fits_per_op = 0

    def __init__(self, seed: int, smoke: bool, workdir: Path, api: types.SimpleNamespace):
        self.api = api
        workdir.mkdir(parents=True, exist_ok=True)

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, index: int, output) -> str | None:
        raise NotImplementedError

    def finish(self) -> tuple[list[str], dict[str, str]]:
        raise NotImplementedError

    def size(self) -> dict:
        """Input size of one operation, as reported."""
        raise NotImplementedError


class Fig3Large(Workload):
    name = "fig3-1e6"
    fits_per_op = 1

    def __init__(self, seed, smoke, workdir, api):
        super().__init__(seed, smoke, workdir, api)
        self.total = 20_000 if smoke else 1_000_000
        self.resamples = 100 if smoke else 1000
        self.events_per_op = self.total
        plan_seed, boot_seed = _seeds(seed, 2)
        doc = _preset_doc("fig3")
        doc["plan"].update(total=self.total, seed=plan_seed)
        doc["bootstrap"] = {"resamples": self.resamples, "seed": boot_seed}
        config = workdir / "fig3-large.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        self.argv = ["pipeline", "--config", str(config), "--out", str(workdir)]
        self.events_path = workdir / doc["outputs"]["events"]
        self.result_path = workdir / doc["outputs"]["result"]
        self._digests: dict[str, str] = {}

    def size(self):
        return {"events": self.total, "resamples": self.resamples}

    def ops(self):
        return [lambda: self.api.cli_main(self.argv)]

    def check(self, index, rc):
        if rc != 0:
            return f"pipeline exited with code {rc}"
        result_digest, _ = _file_digest(self.result_path)
        events_digest, lines = _file_digest(self.events_path)
        self._digests = {"result": result_digest, "events": events_digest}
        if lines - 1 != self.total:
            return f"event log holds {lines - 1} events, expected {self.total}"
        # The raw linear-inversion estimate is not normalized, so the reported
        # fidelity |Tr(U^dag V)|/2 moves first order with the norm error and
        # reads below 0.999 for about one correct run in six at N = 1e6.  The
        # norm-invariant overlap of the estimate and theory columns moves as
        # 1/N (below 25/N in 1000 seeds); its bound is 0.999 at N = 1e6.
        est, theory = _element_table(self.result_path)
        overlap = abs(np.vdot(theory, est)) / (np.linalg.norm(est) * np.linalg.norm(theory))
        bound = 1.0 - 1000.0 / self.total
        if not overlap >= bound:
            return f"normalized unitary fidelity {overlap} < {bound}"
        return None

    def finish(self):
        digests, self._digests = self._digests, {}
        return [], digests


class A3Sweep(Workload):
    name = "a3-sweep"
    fits_per_op = 1

    def __init__(self, seed, smoke, workdir, api):
        super().__init__(seed, smoke, workdir, api)
        n_seeds = 20 if smoke else 100
        self.total = 2000 if smoke else 8000
        self.resamples = 100 if smoke else 250
        self.events_per_op = self.total
        seeds = _seeds(seed, 2 * n_seeds)
        self.plan_seeds, self.boot_seeds = seeds[:n_seeds], seeds[n_seeds:]
        self.probe = bell_state(1)
        self.channel = optics.compile_device(DeviceSpec.from_config(FIG3_PLATES))
        self.truth = self.channel.unitary_matrix
        self._reset()

    def _reset(self):
        self._fidelities: list[float] = []
        self._covered = 0
        self._cells = 0
        self._hash = hashlib.sha256()

    def size(self):
        return {"events": self.total, "resamples": self.resamples, "seeds": len(self.plan_seeds)}

    def _fit(self, plan_seed: int, boot_seed: int):
        api, probe = self.api, self.probe
        state = api.propagate(self.channel, probe)
        events = api.run_experiment(state, ExperimentPlan.uniform(self.total, seed=plan_seed))
        table = api.correlations_from_events(events)
        ref = api.select_reference(table)
        result = api.reconstruct_unitary(table, probe, ref)
        errors = api.bootstrap_errors(
            events,
            lambda t: api.reconstruct_unitary(t, probe, ref).matrix,
            n_resamples=self.resamples,
            seed=boot_seed,
        )
        return result.matrix, errors

    def ops(self):
        return [
            (lambda p=p, b=b: self._fit(p, b))
            for p, b in zip(self.plan_seeds, self.boot_seeds)
        ]

    def check(self, index, output):
        matrix, errors = output
        self._fidelities.append(tomography.fidelity_unitary(matrix, self.truth))
        overlap = np.sum(np.conj(self.truth) * matrix)
        diff = matrix - self.truth * np.exp(1j * np.angle(overlap))
        self._covered += int((np.abs(diff.real) <= 2.0 * errors.real).sum())
        self._covered += int((np.abs(diff.imag) <= 2.0 * errors.imag).sum())
        self._cells += 2 * matrix.size
        for arr in (matrix, errors.real, errors.imag):
            self._hash.update(np.ascontiguousarray(arr).tobytes())
        return None

    def finish(self):
        failures = []
        if self._fidelities:
            median_fid = statistics.median(self._fidelities)
            coverage = self._covered / self._cells
            if not median_fid >= 0.98:
                failures.append(f"median fidelity {median_fid:.4f} < 0.98")
            if not coverage >= 0.90:
                failures.append(f"2-sigma coverage {coverage:.3f} < 0.90")
        digests = {"result": self._hash.hexdigest()}
        self._reset()
        return failures, digests


class LossyEta(Workload):
    name = "lossy-eta"
    etas = (0.42, 0.1, 0.03)

    def __init__(self, seed, smoke, workdir, api):
        super().__init__(seed, smoke, workdir, api)
        self.total = 3000 if smoke else 50_000
        self.events_per_op = self.total
        self.plans = [
            ExperimentPlan.uniform(self.total, seed=s, loss=LossModel(eta))
            for s, eta in zip(_seeds(seed, len(self.etas)), self.etas)
        ]
        self.state = channels.propagate(
            optics.compile_device(DeviceSpec.from_config(FIG3_PLATES)), bell_state(1)
        )
        self.expected = np.array(
            [[experiment.joint_probs(self.state, s)[o] for o in OUTCOMES] for s in SETTINGS]
        )
        self._hash = hashlib.sha256()

    def size(self):
        return {"events": self.total, "etas": list(self.etas)}

    def ops(self):
        api = self.api

        def draw(plan):
            return api.events_to_counts(api.run_experiment(self.state, plan))

        return [(lambda p=p: draw(p)) for p in self.plans]

    def check(self, index, counts):
        self._hash.update(np.ascontiguousarray(counts).tobytes())
        plan = self.plans[index]
        allocated = np.array([plan.allocation[s] for s in SETTINGS])
        per_setting = counts.sum(axis=1)
        if not np.array_equal(per_setting, allocated):
            return f"eta={self.etas[index]}: per-setting counts {per_setting.tolist()} != allocation"
        p = self.expected
        freq = counts / per_setting[:, None]
        sigma = np.sqrt(p * (1.0 - p) / per_setting[:, None])
        worst = np.max(np.abs(freq - p) - 5.0 * sigma)
        if worst > 1e-12:
            return f"eta={self.etas[index]}: an outcome frequency lies beyond 5 sigma"
        return None

    def finish(self):
        digests = {"counts": self._hash.hexdigest()}
        self._hash = hashlib.sha256()
        return [], digests


class ExactPresets(Workload):
    name = "exact-presets"
    fits_per_op = 1
    # (preset, result diagnostic checked against its exact-statistics bound)
    cases = (
        ("depol", "choi_distance"),
        ("cnot", "choi_distance"),
        ("fig3", "fidelity"),
        ("fig4", "fidelity"),
    )

    def __init__(self, seed, smoke, workdir, api):
        super().__init__(seed, smoke, workdir, api)
        self.rounds = 2 if smoke else 100
        self.argvs = []
        self.results = []
        for name, _ in self.cases:
            doc = _preset_doc(name)
            if name in ("fig3", "fig4"):
                doc["plan"] = {"exact": True}
                doc.pop("bootstrap", None)
                config = workdir / f"{name}-exact.json"
                config.write_text(json.dumps(doc), encoding="utf-8")
                source = ["--config", str(config)]
            else:
                source = ["--preset", name]
            self.argvs.append(["pipeline", *source, "--out", str(workdir)])
            self.results.append(workdir / doc["outputs"]["result"])
        self._hash = hashlib.sha256()

    def size(self):
        return {"rounds": self.rounds, "presets": [name for name, _ in self.cases]}

    def ops(self):
        main = self.api.cli_main
        return [
            (lambda argv=argv: main(argv))
            for _ in range(self.rounds)
            for argv in self.argvs
        ]

    def check(self, index, rc):
        k = index % len(self.cases)
        name, field = self.cases[k]
        if rc != 0:
            return f"{name}: pipeline exited with code {rc}"
        path = self.results[k]
        self._hash.update(path.read_bytes())
        value = _result_field(path, field)
        if field == "fidelity" and not value >= 1.0 - 1e-9:
            return f"{name}: unitary fidelity {value} < 1 - 1e-9"
        if field == "choi_distance" and not value <= 1e-9:
            return f"{name}: Choi distance {value} > 1e-9"
        return None

    def finish(self):
        digests = {"result": self._hash.hexdigest()}
        self._hash = hashlib.sha256()
        return [], digests


WORKLOADS = {cls.name: cls for cls in (Fig3Large, A3Sweep, LossyEta, ExactPresets)}
