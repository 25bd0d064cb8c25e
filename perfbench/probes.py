"""Once-per-run layer probes for the traced run.

These time single layers directly rather than through a workload pass:
index enumeration on the lattice workload's projective items, log_sum
over a seeded list of terms, and the weight-sum-against-quadrature
baselines for three cases.  Every probe checks its own output.
"""

from __future__ import annotations

import math
import time

import numpy as np

from eqszego import kernels, logcomplex
from eqszego.kernels import QuadratureError
from eqszego.logcomplex import LogComplex
from eqszego.torus import IrrepLabel

import workloads as wl

LOG_SUM_TERMS = 100_000
LOG_SUM_REPEATS = 3

PROBE_METRICS = {
    "kernels.enumerate.points": "count",
    "kernels.enumerate.points_per_s": "1/s",
    "logcomplex.log_sum.terms_per_s": "1/s",
}
for _case in wl.BASELINE_CASES:
    PROBE_METRICS[f"baseline.{_case.name}.weightsum_s"] = "s"
    PROBE_METRICS[f"baseline.{_case.name}.quadrature_s"] = "s"
    PROBE_METRICS[f"baseline.{_case.name}.quadrature_errors"] = "count"


def enumerate_probe() -> dict:
    """enumerate_indices on P^4 (irrep 0, k = 160) and all of P^2 at k = 100."""
    p4 = wl.P4_K160
    iso = wl.ISOTYPIC_CASE
    t0 = time.perf_counter()
    n_p4 = len(kernels.enumerate_indices(4, p4.k, constraint=(p4.weights, IrrepLabel(p4.irrep))))
    n_p2 = len(kernels.enumerate_indices(2, iso.k))
    elapsed = time.perf_counter() - t0
    if n_p4 != 119_205 or n_p2 != math.comb(iso.k + 2, 2):
        raise wl.WrongValue(f"enumerated {n_p4} and {n_p2} indices")
    points = n_p4 + n_p2
    return {"kernels.enumerate.points": points, "kernels.enumerate.points_per_s": points / elapsed}


def log_sum_probe(seed: int) -> dict:
    rng = wl.seeded_rng(seed)
    log_mods = rng.uniform(-30.0, 30.0, LOG_SUM_TERMS)
    phases = rng.uniform(-math.pi, math.pi, LOG_SUM_TERMS)
    terms = [LogComplex(float(a), float(b)) for a, b in zip(log_mods, phases)]
    top = float(log_mods.max())
    total = complex(np.sum(np.exp(log_mods - top + 1j * phases)))
    want = LogComplex(top + math.log(abs(total)), math.atan2(total.imag, total.real))
    times = []
    for _ in range(LOG_SUM_REPEATS):
        t0 = time.perf_counter()
        got = logcomplex.log_sum(terms)
        times.append(time.perf_counter() - t0)
        wl.expect_close(got, want, "log_sum against numpy")
    return {"logcomplex.log_sum.terms_per_s": LOG_SUM_TERMS / sorted(times)[len(times) // 2]}


def baseline_probe(seed: int) -> dict:
    """Weight sum and quadrature, each timed once, on the baseline cases."""
    rng = wl.seeded_rng(seed)
    out = {}
    for case in wl.BASELINE_CASES:
        irrep = IrrepLabel(case.irrep)
        x, y, _ = wl.seeded_points(case, rng)
        t0 = time.perf_counter()
        ws = kernels.equivariant_kernel_weightsum(case.weights, irrep, case.k, x, y, case.model)
        t1 = time.perf_counter()
        errors = 0
        try:
            quad = kernels.equivariant_kernel_quadrature(case.weights, irrep, case.k, x, y, case.model)
        except QuadratureError as exc:
            # the one pass the quadrature made is its best value
            errors = 1
            quad = exc.last_two[0]
        t2 = time.perf_counter()
        wl.expect_close(ws, quad, f"{case.name}: weight sum against quadrature")
        out[f"baseline.{case.name}.weightsum_s"] = t1 - t0
        out[f"baseline.{case.name}.quadrature_s"] = t2 - t1
        out[f"baseline.{case.name}.quadrature_errors"] = errors
    return out
