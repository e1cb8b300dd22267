"""One measured benchmark process; started by run.py, never by hand.

The process imports the package, builds the workload's config and inputs
and warms the package's lazy caches; that span is its set-up time.  With
``--setup-only`` it then runs the host-speed probe (probe.py) and stops.
Otherwise it runs one untimed small-size iteration as warm-up, then timed
iterations until ``--seconds`` would be exceeded (at least two, so digests
can be compared).  During untraced iterations a timer signal runs the probe
every ``PROBE_PERIOD_S`` (``HostClock``); an operation's latency excludes the
probes that ran inside it, and its host factor is the mean of those probes,
or of the probes just before and after it when none ran inside.  With
``--trace`` the iterations alternate untraced and traced, so one process
yields both the traced wall time and the untraced one it is compared with.

The result goes as JSON to ``--result``; the package's own progress lines go
to this process's stdout, which run.py discards.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import host_factor, probe  # noqa: E402

PROBE_PERIOD_S = 0.05
# Probes in a set-up process; its host factor is their median.
SETUP_PROBES = 7


class HostClock:
    """Runs the probe from a SIGALRM handler every ``PROBE_PERIOD_S``.

    The handler runs between bytecodes of whatever is executing, so probes
    land inside long operations too; ``runs`` keeps when each one started
    and ended, so that their time is taken out of the operation they
    interrupted.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.runs: list[tuple[float, float]] = []
        self._busy = False

    def tick(self, *_):
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.probes.append(probe())
        self.runs.append((start, time.perf_counter()))
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, first: int, start: float, stop: float) -> float:
        """Time taken by the probes from index ``first`` on that began in ``[start, stop)``."""
        return sum(e - s for s, e in self.runs[first:] if start <= s < stop)

    def factor(self, first: int, end: int) -> float:
        """Host factor over probes ``[first, end)``, or of the two around them."""
        inside = self.probes[first:end] or self.probes[first - 1:first + 1]
        return host_factor(statistics.fmean(inside))


def run_iteration(workload, tracer=None) -> dict:
    """Time each operation, check it, and collect the iteration's digests.

    Untraced iterations run the host clock; traced ones do not, so that no
    probe lands inside a span.
    """
    latencies = []
    windows = []
    messages = []
    failed = 0
    ops = workload.ops()
    clock = HostClock()
    if tracer is None:
        clock.tick()
        clock.start()
    cpu_start = time.process_time()
    try:
        for index, op in enumerate(ops):
            first = len(clock.probes)
            start = time.perf_counter()
            error = None
            try:
                output = tracer.op(op) if tracer else op()
            except Exception as exc:  # a failing operation is counted, not fatal
                error = exc
            stop = time.perf_counter()
            latencies.append(stop - start - clock.spent(first, start, stop))
            windows.append((first, len(clock.probes)))
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
                failed += 1
                messages.append(f"op {index} raised {type(error).__name__}: {error}")
                continue
            problem = workload.check(index, output)
            if problem:
                failed += 1
                messages.append(f"op {index}: {problem}")
    finally:
        clock.stop()
    cpu_s = time.process_time() - cpu_start
    factors = []
    if tracer is None:
        clock.tick()
        factors = [clock.factor(first, end) for first, end in windows]
    aggregate, digests = workload.finish()
    if aggregate:
        failed = len(ops)
        messages.extend(aggregate)
    return {
        "wall_s": sum(latencies),
        "cpu_s": cpu_s,
        "latencies_s": latencies,
        "host_factors": factors,
        "probes": len(clock.probes),
        "failed": failed,
        "messages": messages,
        "digests": digests,
        "traced": tracer is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="CSV file for the first traced iteration's spans")
    args = parser.parse_args(argv)

    import numpy
    import qptsim
    from workloads import WORKLOADS, make_api, warm_caches

    workdir = Path(args.workdir)
    api = make_api()
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir / "run", api)
    warm_caches()
    setup_s = time.perf_counter() - T0
    out = {
        "setup_s": setup_s,
        "numpy": numpy.__version__,
        "qptsim": qptsim.__version__,
        "qptsim_path": str(Path(qptsim.__file__).resolve().parent),
    }
    if args.setup_only:
        probe()  # first run warms the probe's own code paths
        out["probe_s"] = statistics.median(probe() for _ in range(SETUP_PROBES))
    else:
        warmup = WORKLOADS[args.workload](args.seed, True, workdir / "warmup", api)
        for index, op in enumerate(warmup.ops()):
            warmup.check(index, op())
        warmup.finish()

        tracer = None
        if args.trace:
            from tracing import Tracer, layer_metrics, write_spans

            tracer = Tracer(api)
            per_iteration = []
        iterations = []
        begin = time.perf_counter()
        while True:
            if tracer is not None and len(iterations) % 2 == 1:
                tracer.install()
                try:
                    record = run_iteration(workload, tracer)
                finally:
                    tracer.uninstall()
                spans, counters = tracer.take()
                if not per_iteration:
                    write_spans(args.spans, spans, tracer.names)
                per_iteration.append(layer_metrics(spans, tracer.names, counters))
            else:
                record = run_iteration(workload)
            iterations.append(record)
            if len(iterations) >= 2:
                # Stop before an iteration like the next one would overrun.
                next_traced = tracer is not None and len(iterations) % 2 == 1
                alike = [it["wall_s"] for it in iterations if it["traced"] == next_traced]
                if time.perf_counter() - begin + statistics.median(alike) > args.seconds:
                    break
        out["iterations"] = iterations
        out["measured_s"] = time.perf_counter() - begin
        if tracer is not None:
            out["layers_per_iteration"] = per_iteration
        out["size"] = workload.size()
        out["events_per_op"] = workload.events_per_op
        out["fits_per_op"] = workload.fits_per_op
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
