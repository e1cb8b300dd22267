"""Benchmark of qptsim: one workload per invocation, one result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric.
Workloads, metrics and the layer map are documented in bench/README.md.

This launcher pins BLAS and OpenMP to one thread, times set-up in fresh
processes, runs the measured workload in one more fresh process
(worker.py), and writes a full report (environment, digests, sample
counts, raw and normalized times) and, for traced runs, the span file under
bench/out/.  End-to-end times are host-normalized (probe.py): each raw time
is divided by the host factor measured next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("fig3-1e6", "a3-sweep", "lossy-eta", "exact-presets")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Fresh set-up processes before and after the measuring one, so that set-up
# is sampled at several moments of the run.
SETUP_RUNS = (4, 3)
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_worker(args, extra: list[str], workdir: Path, result: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the benchmark process")
    subprocess.run(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
        timeout=remaining, check=True,
    )
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qptsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def fastest(iterations: list[dict]) -> int:
    """Index of the iteration with the least raw wall time."""
    return min(range(len(iterations)), key=lambda k: iterations[k]["wall_s"])


def op_times(untraced: list[dict]) -> tuple[list[float], list[list[float]]]:
    """Host-normalized latencies per iteration, and each operation's median."""
    runs = [
        [lat / f for lat, f in zip(it["latencies_s"], it["host_factors"])]
        for it in untraced
    ]
    return [statistics.median(samples) for samples in zip(*runs)], runs


def end_to_end(untraced: list[dict], setup: list[dict], peak_rss_mb: float) -> dict:
    """Host-normalized timings, peak RSS as measured."""
    from probe import host_factor

    per_op, runs = op_times(untraced)
    latencies = [lat for run in runs for lat in run]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    values = {
        "setup_s": statistics.median(s["setup_s"] / host_factor(s["probe_s"]) for s in setup),
        "wall_s": sum(per_op),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run: dict, iterations: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics of the fastest traced iteration."""
    from tracing import PER_LAYER_METRICS

    traced = [it for it in iterations if it["traced"]]
    values = dict(run["layers_per_iteration"][fastest(traced)])
    values["trace.untraced_wall_s"] = untraced[fastest(untraced)]["wall_s"]
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qptsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "qptsim" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC / 'qptsim'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup = []

        def set_up(count):
            for _ in range(0 if args.trace else count):
                k = len(setup)
                res = run_worker(args, ["--setup-only"], workdir / f"setup{k}",
                                 workdir / f"setup{k}.json", deadline)
                setup.append({"setup_s": res["setup_s"], "probe_s": res["probe_s"]})

        set_up(SETUP_RUNS[0])
        spans_path = OUT / f"{tag}.spans.csv"
        run = run_worker(args, ["--spans", str(spans_path)] if args.trace else [],
                         workdir / "measure", workdir / "measure.json", deadline)
        set_up(SETUP_RUNS[1])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError, OSError) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    iterations = run["iterations"]
    untraced = [it for it in iterations if not it["traced"]]
    attempted = sum(len(it["latencies_s"]) for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    messages = [m for it in iterations for m in it["messages"]]
    digests = [it["digests"] for it in iterations]
    if any(d != digests[0] for d in digests):
        messages.append("outputs differ between iterations with the same seed")
        failed = attempted
    if args.trace:
        metrics = per_layer(run, iterations, untraced)
    else:
        metrics = end_to_end(untraced, setup, run["peak_rss_mb"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    ops = [lat for it in untraced for lat in it["latencies_s"]]
    per_op, _ = op_times(untraced)
    ops_per_s = len(per_op) / sum(per_op)
    factors = [f for it in untraced for f in it["host_factors"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "size": run["size"],
        "measured_s": run["measured_s"],
        "iterations": len(iterations),
        "untraced_iterations": len(untraced),
        "op_samples": len(ops),
        "ops_per_iteration": len(per_op),
        "iteration_wall_s": [it["wall_s"] for it in iterations],
        "iteration_cpu_s": [it["cpu_s"] for it in iterations],
        "iteration_latencies_s": [it["latencies_s"] for it in untraced],
        "iteration_host_factors": [it["host_factors"] for it in untraced],
        "normalized_op_s": per_op,
        "fail_frac": failed / attempted,
        "events_per_s": run["events_per_op"] * ops_per_s,
        "fits_per_s": run["fits_per_op"] * ops_per_s,
        "setup_samples_s": setup,
        "digests": digests[0],
        "failures": messages[:50],
        "environment": {
            "python": platform.python_version(),
            "numpy": run["numpy"],
            "qptsim": run["qptsim"],
            "qptsim_path": run["qptsim_path"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "threads": {var: "1" for var in THREAD_VARS},
            "machine": platform.machine(),
        },
        "result": result,
    }
    if args.trace:
        report["layers_per_iteration"] = run["layers_per_iteration"]
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for message in messages[:10]:
        print(f"FAIL {message}")
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(iterations)} iterations, "
        f"{len(ops)} timed ops, {failed}/{attempted} failed, digests {digests[0]}, "
        f"events_per_s={report['events_per_s']:.6g}, fits_per_s={report['fits_per_s']:.6g}, "
        f"raw median iteration {statistics.median(it['wall_s'] for it in untraced):.4g} s, "
        f"median host factor {statistics.median(factors):.3f}"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
