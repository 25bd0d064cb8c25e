"""Regenerate perfbench/reference.json, the expected values of the benchmark.

Each reference comes from the exact method the timed item does not use,
evaluated at the canonical (seed-free) points:

* quadrature items: the weight sum, except for the rank-one affine
  case at k = 4096, where the weight sum is 1.1e-10 off (round-off over
  its many terms) and the reference is the closed form
  (k/pi)^3 e^{ik(ta-tb)} e^{-k(|a|^2+|b|^2)/2} I_0(2 sqrt(c_0 c_1)) e^{c_2},
  c_l = k a_l conj(b_l), in 50-digit arithmetic;
* the P^4 weight sum: the quadrature;
* the P^2 isotypic sum: the full projective kernel (completeness);
* the rows of the rank-two stress sweep: the quadrature at each row's
  points.  Above k = 256 the quadrature raises a false QuadratureError
  after one pass of 1024^2 nodes; that pass is already exact to round-off
  (256 nodes per dimension reach 1e-13), so its value, carried by the
  error as ``last_two[0]``, is the reference.

For every item the script also prints the relative distance between the
reference and the timed method's own output.  Run from the repository
root (the weight sums take a few minutes):

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import sys

import mpmath
import numpy as np

from eqszego import charts, kernels
from eqszego.kernels import QuadratureError
from eqszego.logcomplex import LogComplex, log_diff_mod
from eqszego.torus import IrrepLabel

import workloads as wl


def _rel(a, b) -> float:
    return math.exp(log_diff_mod(a, b) - b.log_mod)


def _quadrature_or_last_pass(weights, irrep, k, x, y, model):
    try:
        return kernels.equivariant_kernel_quadrature(weights, irrep, k, x, y, model)
    except QuadratureError as exc:
        return exc.last_two[0]


def _affine_rank1_closed_form(case) -> LogComplex:
    """Weights (1, -1, 0), irrep 0: the constraint is j_0 = j_1, j_2 free."""
    if case.weights.matrix.tolist() != [[1, -1, 0]] or case.irrep != (0,):
        raise ValueError(f"no closed form for {case.name}")
    (a, ta), (b, tb), _ = wl.seeded_points(case, None)
    with mpmath.workdps(50):
        a = [mpmath.mpc(complex(z)) for z in a]
        b = [mpmath.mpc(complex(z)) for z in b]
        c = [case.k * al * mpmath.conj(bl) for al, bl in zip(a, b)]
        norms = sum(abs(z) ** 2 for z in a + b)
        log_value = (
            3 * (mpmath.log(case.k) - mpmath.log(mpmath.pi))
            + case.k * (1j * (ta - tb) - norms / 2)
            + mpmath.log(mpmath.besseli(0, 2 * mpmath.sqrt(c[0] * c[1])))
            + c[2]
        )
        return LogComplex(float(mpmath.re(log_value)), float(mpmath.im(log_value)))


def main() -> int:
    ref = {}
    for case in wl.QUADRATURE_CASES:
        x, y, _ = wl.seeded_points(case, None)
        irrep = IrrepLabel(case.irrep)
        value = kernels.equivariant_kernel_weightsum(case.weights, irrep, case.k, x, y, case.model)
        if case.name == "quad.affine_r1.k4096":
            closed = _affine_rank1_closed_form(case)
            print(f"{case.name}: weight sum vs closed form {_rel(value, closed):.2e}", flush=True)
            value = closed
        ref[case.name] = [float(value.log_mod), float(value.phase)]
        own = _quadrature_or_last_pass(case.weights, irrep, case.k, x, y, case.model)
        print(f"{case.name}: quadrature vs reference {_rel(own, value):.2e}", flush=True)

    case = wl.P4_CASE
    x, y, _ = wl.seeded_points(case, None)
    irrep = IrrepLabel(case.irrep)
    value = kernels.equivariant_kernel_quadrature(case.weights, irrep, case.k, x, y, case.model)
    ref[case.name] = [float(value.log_mod), float(value.phase)]
    own = kernels.equivariant_kernel_weightsum(case.weights, irrep, case.k, x, y, case.model)
    print(f"{case.name}: weight sum vs quadrature {_rel(own, value):.2e}", flush=True)

    case = wl.ISOTYPIC_CASE
    x, y, _ = wl.seeded_points(case, None)
    value = kernels.projective_kernel(case.k, case.weights.n_coords - 1, x, y)
    ref[case.name] = [float(value.log_mod), float(value.phase)]
    own = kernels.isotypic_sum(case.weights, case.k, x, y)
    print(f"{case.name}: isotypic sum vs full kernel {_rel(own, value):.2e}", flush=True)

    config = wl.stress_config(None)
    chart = charts.bargmann_chart(np.asarray(config.point), config.weights)
    w, v = config.displacements
    rows = []
    for k in wl.STRESS_K:
        pw = charts.chart_point(chart, k, w)
        pv = charts.chart_point(chart, k, v)
        value = _quadrature_or_last_pass(config.weights, config.irrep, k, pw, pv, "affine")
        own = kernels.equivariant_kernel_weightsum(config.weights, config.irrep, k, pw, pv, "affine")
        rows.append([float(value.log_mod), float(value.phase)])
        print(f"{wl.STRESS_NAME} k={k}: weight sum vs quadrature {_rel(own, value):.2e}", flush=True)
    ref[wl.STRESS_NAME] = rows

    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
