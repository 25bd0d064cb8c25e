"""Acceptance suite: one test per headline claim of the library.

Each criterion prints a single [PASS]/[FAIL] line (visible with -s) and
asserts the same condition, with tolerances written out literally so
the thresholds are auditable in one place.  Criteria 1-9 drive the
experiment harness end to end; 10 and 11 bundle the geometric property
checks the scaling claims rest on.
"""

import cmath
import math
from math import lgamma

import numpy as np
import pytest

from eqszego.asymptotics import a_factor
from eqszego.charts import bargmann_chart, p1_chart, verify_frame
from eqszego.geometry import build_split_frame, hermitian_data, model_phase, norm_sq, split
from eqszego.harness import make_config, run_experiment
from eqszego.kernels import equivariant_kernel_weightsum, isotypic_sum, projective_kernel
from eqszego.logcomplex import log_diff_mod
from eqszego.torus import (
    IrrepLabel,
    WeightMatrix,
    effective_volume,
    fiber_multiplier,
    generators_at,
    moment_map,
    stabilizer_of,
)

P1 = WeightMatrix(((-1, 1),))
BALANCED = np.array([1.0, 1.0]) / math.sqrt(2.0)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def test_criterion_01_diagonal_constant():
    # balanced projective-line diagonal: exact / (sqrt(2)/pi * sqrt(k/pi))
    # within 0.01 at k = 6400, fitted error slope <= -0.9
    rep = run_experiment(make_config("diagonal"))
    final = rep.rows[-1]
    assert final.k == 6400
    # independent factorial oracle at the final level
    k = 6400
    exact_log = lgamma(k + 2) - math.log(math.pi) - 2.0 * lgamma(k // 2 + 1) - k * math.log(2.0)
    pred_log = 0.5 * math.log(2.0) - math.log(math.pi) + 0.5 * (math.log(k) - math.log(math.pi))
    oracle_err = abs(math.exp(exact_log - pred_log) - 1.0)
    ok = (
        rep.passed
        and rep.fits["final_ratio_err"] < 0.01
        and rep.fits["slope"] <= -0.9
        and oracle_err < 0.01
        and abs(oracle_err - rep.fits["final_ratio_err"]) < 1e-12
    )
    _line(
        1,
        ok,
        f"|ratio-1| = {rep.fits['final_ratio_err']:.3e} at k=6400 (< 0.01), "
        f"slope {rep.fits['slope']:.3f} (<= -0.9), factorial oracle agrees",
    )
    assert ok


def test_criterion_02_selection_rule():
    # parity-mismatched isotypes vanish: weight sum exactly, quadrature
    # below 1e-12 relative to the full kernel, all k <= 200
    worst = 0.0
    for pi0 in (0, 1):
        rep = run_experiment(make_config("selection", irrep=(pi0,)))
        assert rep.passed
        worst = max(worst, rep.fits["max_quad_rel"])
        covered = {r.k for r in rep.rows}
        assert covered == {k for k in range(1, 201) if (k - pi0) % 2 != 0}
    ok = worst < 1e-12
    _line(2, ok, f"weight sums identically zero, quadrature leakage {worst:.3e} (< 1e-12)")
    assert ok


def test_criterion_03_effective_volume_and_stabilizer():
    v_eff = effective_volume(P1, BALANCED, "projective")
    stab = stabilizer_of(P1, BALANCED, "projective")
    angles = sorted(t.angles[0] for t in stab.elements)
    mults = {
        round(t.angles[0], 12): fiber_multiplier(P1, t, BALANCED) for t in stab.elements
    }
    h_minus = mults[round(math.pi, 12)]
    ok = (
        abs(v_eff - math.pi) < 1e-8
        and stab.order == 2
        and angles == pytest.approx([0.0, math.pi], abs=1e-12)
        and abs(h_minus + 1.0) < 1e-12
    )
    _line(
        3,
        ok,
        f"V_eff = {v_eff!r} (pi +- 1e-8), stabilizer angles {{0, pi}}, h(-1) = {h_minus:.6g}",
    )
    assert ok


def _offdiagonal_report(model: str):
    cfg = make_config("offdiagonal", model=model)
    rep = run_experiment(cfg)
    assert rep.rows[-1].k == 4096
    thresholds = (
        rep.passed and rep.fits["final_ratio_err"] < 0.05 and rep.fits["slope"] <= -0.4
    )
    return cfg, rep, thresholds


def test_criterion_04_bargmann_offdiagonal():
    # n=2 affine center, dual quadrature oracle at low levels, and
    # displacements carrying all three split components
    cfg, rep, thresholds = _offdiagonal_report("affine")
    z = np.asarray(cfg.point, dtype=np.complex128)
    chart = bargmann_chart(z, cfg.weights)
    frame = build_split_frame(generators_at(cfg.weights, z, "affine"))
    parts_ok = True
    for disp in cfg.displacements:
        s = split(frame, chart.chart_to_ambient(np.asarray(disp, dtype=np.complex128)))
        parts_ok = parts_ok and all(
            math.sqrt(norm_sq(part)) > 1e-3 for part in (s.v_part, s.h_part, s.t_part)
        )
    ok = thresholds and parts_ok
    _line(
        4,
        ok,
        f"affine: |ratio-1| = {rep.fits['final_ratio_err']:.3e} at k=4096 (< 0.05), "
        f"slope {rep.fits['slope']:.3f} (<= -0.4), v/h/t parts all nonzero",
    )
    assert ok


def test_criterion_05_projective_offdiagonal():
    # constructed chart on the projective line; displacements of norm <= 1
    cfg, rep, thresholds = _offdiagonal_report("projective")
    norm_ok = all(
        math.sqrt(norm_sq(np.asarray(d, dtype=np.complex128))) <= 1.0
        for d in cfg.displacements
    )
    ok = thresholds and norm_ok
    _line(
        5,
        ok,
        f"projective: |ratio-1| = {rep.fits['final_ratio_err']:.3e} at k=4096 (< 0.05), "
        f"slope {rep.fits['slope']:.3f} (<= -0.4), |w|, |v| <= 1",
    )
    assert ok


def test_criterion_06_translated_expansion():
    # first argument moved by the order-two stabilizer element and a
    # seeded random unit fiber rotation; same thresholds as criterion 4
    rep = run_experiment(make_config("translated", g0=(math.pi,)))
    ok = (
        rep.passed
        and rep.seed is not None
        and rep.rows[-1].k == 4096
        and rep.fits["final_ratio_err"] < 0.05
        and rep.fits["slope"] <= -0.4
    )
    _line(
        6,
        ok,
        f"|ratio-1| = {rep.fits['final_ratio_err']:.3e} at k=4096 (< 0.05), "
        f"slope {rep.fits['slope']:.3f} (<= -0.4), seed {rep.seed}",
    )
    assert ok


def test_criterion_07_dual_method_agreement():
    rep = run_experiment(make_config("crosscheck"))
    ok = rep.passed and len(rep.rows) >= 50 and rep.fits["max_rel"] < 1e-10
    _line(
        7,
        ok,
        f"{len(rep.rows)} randomized configurations, max discrepancy "
        f"{rep.fits['max_rel']:.3e} (< 1e-10)",
    )
    assert ok


def test_criterion_08_gaussian_orbit_integral():
    rep = run_experiment(make_config("gaussian"))
    ok = (
        rep.passed
        and len(rep.rows) == 120
        and rep.fits["max_rel_g1"] < 1e-8
        and rep.fits["max_rel_g2"] < 1e-8
    )
    _line(
        8,
        ok,
        f"closed form vs quadrature: g=1 {rep.fits['max_rel_g1']:.3e}, "
        f"g=2 {rep.fits['max_rel_g2']:.3e} over 100+20 trials (< 1e-8)",
    )
    assert ok


def test_criterion_09_rapid_decay():
    rep = run_experiment(make_config("decay"))
    rate_rel = abs(rep.fits["rate"] - 0.5108) / 0.5108
    # different group x circle orbits: moduli profiles differ, k even
    y = np.array([math.sqrt(0.95), math.sqrt(0.05)])
    off = equivariant_kernel_weightsum(P1, IrrepLabel((0,)), 2000, BALANCED, y, "projective")
    per_k = off.log_mod / 2000.0
    ok = rep.passed and rate_rel < 0.10 and per_k <= -0.1
    _line(
        9,
        ok,
        f"fitted rate {rep.fits['rate']:.4f} within 10% of 0.5108 "
        f"(rel {rate_rel:.3e}); off-orbit log|kernel|/k = {per_k:.3f} (<= -0.1) at k=2000",
    )
    assert ok


def test_criterion_10_geometry_property_suite():
    rng = np.random.default_rng(101)
    msgs = []

    # tangent split: orthogonality and reconstruction at 1e-12
    frame = build_split_frame(generators_at(P1, BALANCED.astype(complex), "affine"))
    worst_rec, worst_orth = 0.0, 0.0
    for _ in range(25):
        vec = rng.normal(size=2) + 1j * rng.normal(size=2)
        s = split(frame, vec)
        worst_rec = max(worst_rec, math.sqrt(norm_sq(s.total - vec)))
        for a, b in ((s.v_part, s.h_part), (s.v_part, s.t_part), (s.h_part, s.t_part)):
            worst_orth = max(worst_orth, abs(hermitian_data(a, b).g))
    split_ok = worst_rec < 1e-12 and worst_orth < 1e-12
    msgs.append(f"split rec {worst_rec:.1e} orth {worst_orth:.1e} (< 1e-12)")

    # moment-map differential: d(Phi . xi)(v) = 2 omega(v, xi_M) by
    # central differences, relative 1e-6
    h = 1e-6
    worst_md = 0.0
    cases = [
        ("affine", P1, BALANCED.astype(complex)),
        ("projective", P1, BALANCED.astype(complex)),
        ("affine", WeightMatrix(((1, -1, 0), (0, 1, -1))), np.ones(3) / math.sqrt(3.0)),
    ]
    for model, W, z in cases:
        gens = generators_at(W, z, model)
        for i, gen in enumerate(gens):
            for _ in range(3):
                v = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
                if model == "projective":
                    v = v - complex(np.vdot(z, v)) * z  # keep the step tangent
                zp = z + h * v
                zm = z - h * v
                if model == "projective":
                    zp = zp / math.sqrt(norm_sq(zp))
                    zm = zm / math.sqrt(norm_sq(zm))
                fd = (moment_map(W, zp, model)[i] - moment_map(W, zm, model)[i]) / (2 * h)
                an = 2.0 * hermitian_data(v, gen).omega
                worst_md = max(worst_md, abs(fd - an) / max(abs(an), 1e-12))
    md_ok = worst_md < 1e-6
    msgs.append(f"moment differential rel {worst_md:.1e} (< 1e-6)")

    # chart frame and equivariance residuals below module thresholds
    rb = verify_frame(bargmann_chart(np.array([0.3 + 0.2j, -0.4j]), P1))
    rp = verify_frame(p1_chart(BALANCED, P1))
    chart_ok = (
        max(rb.norm_residual, rb.gradient_residual, rb.hessian_residual) < 1e-10
        and rb.equivariance_residual < 1e-10
        and rp.norm_residual < 1e-8
        and rp.gradient_residual < 1e-8
        and rp.hessian_residual < 1e-6
        and rp.equivariance_residual < 1e-10
    )
    msgs.append(
        f"chart residuals affine {rb.hessian_residual:.1e}, "
        f"projective {rp.hessian_residual:.1e} (module thresholds)"
    )

    # isotypic completeness at 1e-10 up to k = 60
    worst_iso = 0.0
    for k in (20, 41, 60):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        x /= math.sqrt(norm_sq(x))
        y = x + 0.1 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        y /= math.sqrt(norm_sq(y))
        total = isotypic_sum(P1, k, x, y)
        full = projective_kernel(k, 1, x, y)
        worst_iso = max(worst_iso, math.exp(log_diff_mod(total, full) - full.log_mod))
    iso_ok = worst_iso < 1e-10
    msgs.append(f"isotypic completeness rel {worst_iso:.1e} (< 1e-10, k <= 60)")

    ok = split_ok and md_ok and chart_ok and iso_ok
    _line(10, ok, "; ".join(msgs))
    assert ok


def test_criterion_11_stationary_phase_data():
    val, grad, hess = model_phase(1.0, 0.0)
    grid_ok = True
    worst_im = 0.0
    for t in np.linspace(0.05, 4.0, 80):
        for th in np.linspace(-math.pi, math.pi, 161):
            im = model_phase(float(t), float(th))[0].imag
            worst_im = min(worst_im, im)
            grid_ok = grid_ok and im >= -1e-15
    expect_hess = np.array([[0.0, 1.0], [1.0, 1.0j]])
    stat_ok = val == 0.0 and np.all(grad == 0.0) and np.array_equal(hess, expect_hess)
    rep = run_experiment(make_config("phase"))
    ok = stat_ok and grid_ok and rep.passed
    _line(
        11,
        ok,
        f"gradient exactly zero, Hessian [[0,1],[1,i]] exact, "
        f"grid min Im = {worst_im:.1e} (>= 0)",
    )
    assert ok
