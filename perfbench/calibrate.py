"""Machine-speed calibration for shared, drifting hosts.

The reference machine (2 virtual CPUs on a shared host) changes speed by
up to 1.5x over seconds to minutes, and CPU time drifts with wall time,
so the load comes from outside the process.  A fixed loop that never
touches eqszego is timed before every item and every set-up sample.
Dividing a run's median time by the run's median loop time removes most
of the drift between runs.  On the reference machine, the spread of
15 s window medians fell from 5-14% to 4-8% this way.

scale(t, samples, kind) = t * REFERENCE_S[kind] / median(samples) gives
seconds at the reference speed.  It equals the wall time when the loop
runs at its reference time.  There are two kinds of loop:

* "python": interpreter bound, like the harness and the weight sum;
* "numpy": memory bound, like the quadrature's passes over 2^20 nodes.
"""

from __future__ import annotations

import math
import statistics
import time

# loop time, in seconds, at the reference speed
REFERENCE_S = {"python": 0.0075, "numpy": 0.050}


def _python_loop() -> None:
    s = 0.0
    for i in range(50_000):
        s += math.sin(i * 0.001) * (i % 7)


def _numpy_loop() -> None:
    import numpy as np

    np.exp(1j * np.linspace(0.0, 1.0, 1 << 20))


_LOOPS = {"python": _python_loop, "numpy": _numpy_loop}


def sample(kind: str) -> float:
    """Seconds one run of the calibration loop takes now."""
    t0 = time.perf_counter()
    _LOOPS[kind]()
    return time.perf_counter() - t0


def scale(seconds: float, samples, kind: str) -> float:
    return seconds * REFERENCE_S[kind] / statistics.median(samples)
