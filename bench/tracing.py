"""Span tracing at the package's module boundaries, from outside the package.

The tracer replaces public functions at the names each importing module
binds (``qptsim.pipeline.run_experiment``, ``qptsim.tomography.pauli``,
``qptsim.cli.run_pipeline``, ...) and at the benchmark's own bindings, so a
call from one layer into another opens a span and nesting follows the real
call graph.  Calls a module makes to its own functions stay untraced and
count as that module's self time.

A span is ``[name_id, start, end, parent]`` in a flat in-memory list; the
parent is the index of the enclosing span, or -1 for a root.  Spans are only
recorded while a root span is open, so the benchmark's correctness checks,
which run between operations, never appear in the trace.
"""

from __future__ import annotations

import os
import sys
import time
import types

PACKAGE = "qptsim"
# Modules whose imported names are wrapped, in import order of the package.
IMPORTERS = ("experiment", "channels", "optics", "tomography", "pipeline", "cli")
# The pipeline's stages call each other by module-global name; those own
# bindings are wrapped too, so each stage gets a span.
STAGES = ("parse_config", "run_simulate", "run_reconstruct", "run_plotdata")

ESTIMATOR = "tomography.bootstrap.estimator"

# Per-layer metrics that total the outermost spans of a group of functions.
SPAN_GROUPS = {
    "experiment.sample_s": ("experiment.run_experiment",),
    "experiment.reduce_s": ("experiment.correlations_from_events", "experiment.events_to_counts"),
    "experiment.log_write_s": ("experiment.write_event_log",),
    "experiment.log_read_s": ("experiment.read_event_log",),
    "experiment.table_s": ("experiment.table_from_counts",),
    "experiment.exact_s": ("experiment.exact_correlations",),
    "tomography.bootstrap_s": ("tomography.bootstrap_errors",),
    "tomography.bootstrap.estimator_s": (ESTIMATOR,),
    "tomography.two_pair_s": (
        "tomography.two_pair_output_state",
        "tomography.correlations_4party",
        "tomography.reconstruct_two_qubit_device",
    ),
    "channels.propagate_s": ("channels.propagate",),
    "optics.compile_s": ("optics.compile_device",),
    "pipeline.parse_s": ("pipeline.load_config", "pipeline.load_preset", "pipeline.parse_config"),
    "pipeline.simulate_s": ("pipeline.run_simulate",),
    "pipeline.reconstruct_s": ("pipeline.run_reconstruct",),
    "pipeline.plotdata_s": ("pipeline.run_plotdata",),
}
# Top-level estimates: reconstructions not made inside a bootstrap.
ESTIMATE_NAMES = (
    "tomography.reconstruct_state",
    "tomography.reconstruct_unitary",
    "tomography.reconstruct_choi",
    "tomography.reconstruct_two_qubit_device",
)
LAYERS = ("bench", "cli", "pipeline", "experiment", "tomography", "channels", "optics", "algebra")

# Every per-layer metric the traced run reports, in BENCHMARK.json order.
PER_LAYER_METRICS = (
    ("experiment.sample_s", "s"),
    ("experiment.events", "count"),
    ("experiment.reduce_s", "s"),
    ("experiment.log_write_s", "s"),
    ("experiment.log_read_s", "s"),
    ("experiment.log_bytes", "bytes"),
    ("experiment.table_calls", "count"),
    ("experiment.table_s", "s"),
    ("experiment.exact_s", "s"),
    ("experiment.self_s", "s"),
    ("tomography.estimate_s", "s"),
    ("tomography.bootstrap_s", "s"),
    ("tomography.bootstrap.estimator_s", "s"),
    ("tomography.bootstrap.estimator_calls", "count"),
    ("tomography.bootstrap.self_s", "s"),
    ("tomography.bootstrap.accept_ratio", "ratio"),
    ("tomography.two_pair_s", "s"),
    ("tomography.self_s", "s"),
    ("channels.propagate_s", "s"),
    ("channels.self_s", "s"),
    ("optics.compile_s", "s"),
    ("optics.self_s", "s"),
    ("pipeline.parse_s", "s"),
    ("pipeline.simulate_s", "s"),
    ("pipeline.reconstruct_s", "s"),
    ("pipeline.plotdata_s", "s"),
    ("pipeline.self_s", "s"),
    ("cli.self_s", "s"),
    ("algebra.calls", "count"),
    ("algebra.s", "s"),
    ("bench.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
)


class Tracer:
    """Records spans while installed; one instance per benchmark process."""

    def __init__(self, api: types.SimpleNamespace):
        self.api = api
        self.spans: list[list] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self.counters = {"events": 0, "log_bytes": 0, "resamples": 0}
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, nid: int, fn, args, kwargs):
        stack = self._stack
        if not stack:
            return fn(*args, **kwargs)
        rec = [nid, 0.0, 0.0, stack[-1]]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def op(self, fn):
        """Run one benchmark operation under a root span ``bench.op``."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._stack.append(-1)  # parent of the root span
        try:
            return self._call(self._name_id("bench.op"), fn, (), {})
        finally:
            self._stack.pop()

    def _wrap(self, fn, layer: str):
        key = id(fn)
        if key in self._wrapped:
            return self._wrapped[key]
        nid = self._name_id(f"{layer}.{fn.__name__}")
        call = self._call
        counters = self.counters

        if fn.__name__ == "run_experiment":
            def traced(*args, **kwargs):
                events = call(nid, fn, args, kwargs)
                if self._stack:
                    counters["events"] += len(events)
                return events
        elif fn.__name__ == "write_event_log":
            def traced(*args, **kwargs):
                call(nid, fn, args, kwargs)
                if self._stack:
                    counters["log_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])
        elif fn.__name__ == "bootstrap_errors":
            est_id = self._name_id(ESTIMATOR)

            def traced(events, estimator, *args, **kwargs):
                def traced_estimator(table):
                    return call(est_id, estimator, (table,), {})

                result = call(nid, fn, (events, traced_estimator) + args, kwargs)
                if self._stack:
                    counters["resamples"] += result.n_resamples
                return result
        else:
            def traced(*args, **kwargs):
                return call(nid, fn, args, kwargs)

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        self._wrapped[key] = traced
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every cross-module function binding of the package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for mod_name in IMPORTERS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            self._install_bindings(module, mod_name)
        self._install_bindings(self.api, "bench")
        pipeline = sys.modules[f"{PACKAGE}.pipeline"]
        for attr in STAGES:
            self._patch(pipeline, attr, self._wrap(getattr(pipeline, attr), "pipeline"))
        # cli dispatches through a command table built at import time; those
        # references are the binding cli.main actually calls.
        cli = sys.modules[f"{PACKAGE}.cli"]
        table = cli._COMMANDS
        for key, fn in list(table.items()):
            self._patches.append((table, key, fn))
            table[key] = self._wrap(fn, _layer_of(fn))

    def _install_bindings(self, owner, owner_layer: str) -> None:
        for attr, fn in list(vars(owner).items()):
            if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                continue
            layer = _layer_of(fn)
            if layer is None or layer == owner_layer:
                continue
            self._patch(owner, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def take(self) -> tuple[list[list], dict]:
        """Hand over the spans and counters recorded so far and reset them."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, counters = self.spans, dict(self.counters)
        self.spans = []
        for key in self.counters:
            self.counters[key] = 0
        return spans, counters


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    if module.startswith(PACKAGE + "."):
        return module.split(".", 2)[1]
    return None


def layer_metrics(spans: list[list], names: list[str], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (spans of its operations)."""
    n = len(spans)
    child_time = [0.0] * n
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    group_of = {}
    for metric, members in SPAN_GROUPS.items():
        for member in members:
            group_of.setdefault(member, []).append(metric)
    for member in ESTIMATE_NAMES:
        group_of.setdefault(member, []).append("tomography.estimate_s")
    name_groups = [tuple(group_of.get(name, ())) for name in names]
    ids = {name: nid for nid, name in enumerate(names)}
    boot_id = ids.get("tomography.bootstrap_errors", -1)
    est_id = ids.get(ESTIMATOR, -1)
    table_id = ids.get("experiment.table_from_counts", -1)

    totals = {metric: 0.0 for metric in SPAN_GROUPS}
    totals["tomography.estimate_s"] = 0.0
    layer_self = {layer: 0.0 for layer in LAYERS}
    calls = {"table": 0, "estimator": 0, "algebra": 0}
    boot_self = 0.0
    wall = 0.0
    empty: frozenset = frozenset()
    inside: list[frozenset] = [empty] * n  # groups open among each span's ancestors

    for idx, (nid, start, end, parent) in enumerate(spans):
        dur = end - start
        name = names[nid]
        groups = name_groups[nid]
        if parent >= 0:
            parent_groups = name_groups[spans[parent][0]]
            inside[idx] = inside[parent].union(parent_groups) if parent_groups else inside[parent]
        else:
            wall += dur
        above = inside[idx]
        for metric in groups:
            if metric in above:
                continue
            if metric == "tomography.estimate_s" and "tomography.bootstrap_s" in above:
                continue
            totals[metric] += dur
        own = dur - child_time[idx]
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        if nid == boot_id:
            boot_self += own
        elif nid == est_id:
            calls["estimator"] += 1
        elif nid == table_id:
            calls["table"] += 1
        if layer == "algebra":
            calls["algebra"] += 1

    out = dict(totals)
    out.update({
        "experiment.events": counters["events"],
        "experiment.log_bytes": counters["log_bytes"],
        "experiment.table_calls": calls["table"],
        "tomography.bootstrap.estimator_calls": calls["estimator"],
        "tomography.bootstrap.self_s": boot_self,
        "tomography.bootstrap.accept_ratio": (
            counters["resamples"] / calls["estimator"] if calls["estimator"] else 0.0
        ),
        "algebra.calls": calls["algebra"],
        "algebra.s": layer_self["algebra"],
        "trace.spans": n,
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(layer_self.values()),
    })
    for layer in LAYERS:
        if layer != "algebra":
            out[f"{layer}.self_s"] = layer_self[layer]
    return out


def write_spans(path, spans: list[list], names: list[str]) -> None:
    """Write spans as CSV: id,name,start_s,end_s,parent (times relative to the first span)."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="ascii") as fh:
        fh.write("id,name,start_s,end_s,parent\n")
        for idx, (nid, start, end, parent) in enumerate(spans):
            fh.write(f"{idx},{names[nid]},{start - t0:.9f},{end - t0:.9f},{parent}\n")
