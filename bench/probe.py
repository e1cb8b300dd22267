"""Host-speed probe: a fixed piece of work timed next to the measured one.

The benchmark was built on a shared cloud machine whose speed changes with
its other tenants: the same loop runs up to 2x slower for stretches of
seconds to minutes, on either core, and the process's CPU time slows with
its wall time, so neither a longer run nor CPU time removes it.  The slowdown
hits this probe and the package's code alike, so each measured time is
divided by the probe's slowdown at that moment.

``probe()`` times a fixed mix of the work the package does (small Python
objects, dict updates, 4x4 complex products, a short sort) and returns the
fastest of ``REPEATS`` back-to-back runs, which drops a run hit by an
interrupt.  The garbage collector is off while it runs, so the probe does
not pay for collecting the package's objects and its time does not depend
on how many the package keeps alive.  ``host_factor(t)`` is
``t / NOMINAL_S``: 1 on a host where the probe takes ``NOMINAL_S``, the
probe's time in the fast state of the machine this benchmark was built on.  A time divided by the factor is in
host-normalized seconds.  The probe touches nothing of the package, so a
change to the package cannot move it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

NOMINAL_S = 3.6e-4
REPEATS = 3

_RNG = np.random.default_rng(20240531)
_UNITARY = np.linalg.qr(_RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4)))[0]
_VALUES = _RNG.random(4096)


def _work() -> float:
    counts: dict[tuple[int, int], int] = {}
    records = []
    for i in range(960):
        key = (i % 3, i % 4)
        counts[key] = counts.get(key, 0) + 1
        records.append((key, i & 1))
    m = _UNITARY
    for _ in range(96):
        m = m @ _UNITARY
    return float(np.sort(_VALUES)[len(records) % 4096]) + abs(m[0, 0]) + len(counts)


def probe() -> float:
    """Fastest of ``REPEATS`` timed runs of the probe work, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def host_factor(probe_s: float) -> float:
    """How much slower than nominal the host ran when the probe took ``probe_s``."""
    return probe_s / NOMINAL_S
