import cmath
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy import integrate

from eqszego.asymptotics import (
    LeadingPrediction,
    a_factor,
    a_factor_general,
    gaussian_orbit_integral,
    leading_term,
)
from eqszego.geometry import build_split_frame, hermitian_data, norm_sq, split
from eqszego.kernels import enumerate_indices
from eqszego.torus import (
    IrrepLabel,
    TorusElement,
    WeightMatrix,
    character,
    effective_volume,
    fiber_multiplier,
    generators_at,
    stabilizer_of,
)

P1 = WeightMatrix(((-1, 1),))
M22 = WeightMatrix(((-2, 2),))
BALANCED = np.array([1.0, 1.0]) / math.sqrt(2.0)


def _center_data(weights, x, model):
    stab = stabilizer_of(weights, x, model)
    mult = tuple(fiber_multiplier(weights, t, x) for t in stab.elements)
    v_eff = effective_volume(weights, x, model)
    return stab, mult, v_eff


def _affine_frame(weights=P1, x=None):
    if x is None:
        x = BALANCED.astype(complex)
    return build_split_frame(generators_at(weights, x, "affine"))


# -- amplitude ----------------------------------------------------------------


def test_a_factor_balanced_parity():
    stab, mult, v_eff = _center_data(P1, BALANCED, "projective")
    for k in (1, 2, 7, 100):
        for pi0 in (-2, -1, 0, 1, 2, 5):
            a = a_factor(IrrepLabel((pi0,)), k, stab, mult, v_eff)
            if (pi0 + k) % 2 == 0:
                assert a == pytest.approx(math.sqrt(2.0) / math.pi, rel=1e-12)
            else:
                assert a == 0.0


def test_a_factor_double_weight_dichotomy():
    """Order-4 stabilizer: the character average is exactly 0 or 1, and it
    is nonzero precisely when weight-k monomials carrying the irrep exist."""
    stab, mult, v_eff = _center_data(M22, BALANCED, "projective")
    bound = 2.0 ** 0.5 / v_eff
    for k in range(1, 9):
        for pi0 in range(-2 * k, 2 * k + 1):
            a = a_factor(IrrepLabel((pi0,)), k, stab, mult, v_eff)
            occurs = bool(enumerate_indices(1, k, constraint=(M22, IrrepLabel((pi0,)))))
            if occurs:
                assert abs(a) == pytest.approx(bound, rel=1e-12)
            else:
                assert a == 0.0


def test_a_factor_trivial_stabilizer():
    r = math.sqrt(0.26)
    x = np.array([0.5 + 0.1j, r * cmath.exp(0.7j)])
    stab, mult, v_eff = _center_data(P1, x, "affine")
    assert stab.order == 1
    a = a_factor(IrrepLabel((3,)), 11, stab, mult, v_eff)
    assert a == pytest.approx(math.sqrt(2.0) / v_eff, rel=1e-12)


def test_a_factor_general_twist_identity():
    stab, mult, v_eff = _center_data(P1, BALANCED, "projective")
    pi = IrrepLabel((2,))
    k = 6
    base = a_factor(pi, k, stab, mult, v_eff)
    assert base != 0.0
    g0 = TorusElement((0.83,))
    h0 = cmath.exp(0.41j)
    got = a_factor_general(pi, k, stab, mult, v_eff, g0, h0)
    expect = np.conj(character(pi, g0)) * h0**k * base
    assert got == pytest.approx(expect, rel=1e-12)


def test_a_factor_general_zero_stays_zero():
    stab, mult, v_eff = _center_data(P1, BALANCED, "projective")
    got = a_factor_general(IrrepLabel((1,)), 6, stab, mult, v_eff, TorusElement((0.5,)), 1.0 + 0.0j)
    assert got == 0.0


def test_a_factor_multiplier_count_guard():
    stab, mult, v_eff = _center_data(P1, BALANCED, "projective")
    with pytest.raises(ValueError):
        a_factor(IrrepLabel((0,)), 2, stab, mult[:1], v_eff)
    with pytest.raises(ValueError):
        a_factor(IrrepLabel((0,)), 2, stab, mult, 0.0)


# -- leading term -------------------------------------------------------------


def test_leading_term_log_assembly():
    frame = _affine_frame()
    rng = np.random.default_rng(3)
    for k in (4, 49, 2500):
        sw = split(frame, rng.normal(size=2) + 1j * rng.normal(size=2))
        sv = split(frame, rng.normal(size=2) + 1j * rng.normal(size=2))
        a = 0.3 - 0.4j
        pred = leading_term(IrrepLabel((0,)), k, 2, 1, a, sw, sv)
        assert isinstance(pred, LeadingPrediction)
        # exact log-domain assembly, no intermediate exponentials
        assert pred.value.log_mod == pred.prefactor.log_mod + pred.exponent.real
        direct = pred.prefactor.to_complex() * cmath.exp(pred.exponent)
        assert pred.value.to_complex() == pytest.approx(direct, rel=1e-12)
        # prefactor magnitude (k/pi)^{n - g/2} |a|
        expect_log = 1.5 * (math.log(k) - math.log(math.pi)) + math.log(abs(a))
        assert pred.prefactor.log_mod == pytest.approx(expect_log, rel=1e-14)


def test_leading_term_exponent_decomposition():
    from eqszego.geometry import psi2, q_form

    frame = _affine_frame()
    rng = np.random.default_rng(7)
    sw = split(frame, rng.normal(size=2) + 1j * rng.normal(size=2))
    sv = split(frame, rng.normal(size=2) + 1j * rng.normal(size=2))
    pred = leading_term(IrrepLabel((0,)), 10, 2, 1, 1.0 + 0.0j, sw, sv)
    assert pred.exponent == q_form(sw, sv) + psi2(sw.h_part, sv.h_part)
    assert pred.exponent.real <= 0.0


def test_leading_term_bounded_by_prefactor():
    frame = _affine_frame()
    rng = np.random.default_rng(9)
    for _ in range(20):
        sw = split(frame, rng.normal(size=2) + 1j * rng.normal(size=2))
        sv = split(frame, rng.normal(size=2) + 1j * rng.normal(size=2))
        pred = leading_term(IrrepLabel((1,)), 30, 2, 1, 0.5 + 0.0j, sw, sv)
        assert pred.value.log_mod <= pred.prefactor.log_mod + 1e-15


def test_leading_term_zero_amplitude():
    frame = _affine_frame()
    sw = split(frame, np.array([0.1, 0.2j]))
    pred = leading_term(IrrepLabel((0,)), 5, 2, 1, 0.0 + 0.0j, sw, sw)
    assert pred.prefactor.is_zero and pred.value.is_zero


def test_leading_term_frame_guards():
    fa = _affine_frame()
    fb = _affine_frame(x=np.array([0.6 + 0.0j, 0.8 + 0.0j]))
    sa = split(fa, np.array([0.1, 0.2]))
    sb = split(fb, np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="different frames"):
        leading_term(IrrepLabel((0,)), 5, 2, 1, 1.0 + 0.0j, sa, sb)
    with pytest.raises(ValueError, match="rank"):
        leading_term(IrrepLabel((0,)), 5, 2, 2, 1.0 + 0.0j, sa, sa)


# -- Gaussian orbit integral --------------------------------------------------


def _quad_oracle_rank_one(frame, sw, sv) -> complex:
    e0 = frame.on_vertical[0]
    c = sv.t_part + sw.t_part
    d = sw.v_part - sv.v_part

    def integrand(s: float) -> complex:
        vec = s * e0
        return cmath.exp(-1j * hermitian_data(vec, c).omega - 0.5 * norm_sq(vec - d))

    re, _ = integrate.quad(lambda s: integrand(s).real, -14.0, 14.0, epsabs=1e-13, epsrel=1e-13)
    im, _ = integrate.quad(lambda s: integrand(s).imag, -14.0, 14.0, epsabs=1e-13, epsrel=1e-13)
    return complex(re, im)


def _quad_oracle_rank_two(frame, sw, sv) -> complex:
    nodes, wts = hermgauss(60)
    e0, e1 = frame.on_vertical
    c = sv.t_part + sw.t_part
    d = sw.v_part - sv.v_part
    total = 0j
    for ui, wi in zip(nodes, wts):
        for uj, wj in zip(nodes, wts):
            vec = d + math.sqrt(2.0) * (ui * e0 + uj * e1)
            phase = -1j * hermitian_data(vec, c).omega
            total += wi * wj * cmath.exp(phase)
    return 2.0 * total


def test_gaussian_orbit_integral_rank_one():
    frame = _affine_frame()
    rng = np.random.default_rng(17)
    for _ in range(5):
        sw = split(frame, rng.normal(size=2) + 1j * rng.normal(size=2))
        sv = split(frame, rng.normal(size=2) + 1j * rng.normal(size=2))
        closed = gaussian_orbit_integral(frame, sw, sv, 1)
        oracle = _quad_oracle_rank_one(frame, sw, sv)
        assert abs(closed - oracle) / abs(closed) < 1e-8


def test_gaussian_orbit_integral_rank_two():
    W = WeightMatrix(((1, 0, 1), (0, 1, -1)))
    x = np.array([1.0, 1.0, 1.0], dtype=complex) / math.sqrt(3.0)
    frame = build_split_frame(generators_at(W, x, "affine"))
    rng = np.random.default_rng(19)
    for _ in range(3):
        sw = split(frame, rng.normal(size=3) + 1j * rng.normal(size=3))
        sv = split(frame, rng.normal(size=3) + 1j * rng.normal(size=3))
        closed = gaussian_orbit_integral(frame, sw, sv, 2)
        oracle = _quad_oracle_rank_two(frame, sw, sv)
        assert abs(closed - oracle) / abs(closed) < 1e-8


def test_gaussian_orbit_integral_closed_form():
    # (2 pi)^{g/2} e^{i omega(c, d) - |c|^2/2} with c = v_t + w_t, d = w_v - v_v
    frame = _affine_frame()
    rng = np.random.default_rng(21)
    sw = split(frame, rng.normal(size=2) + 1j * rng.normal(size=2))
    sv = split(frame, rng.normal(size=2) + 1j * rng.normal(size=2))
    c = sv.t_part + sw.t_part
    d = sw.v_part - sv.v_part
    expect = math.sqrt(2.0 * math.pi) * cmath.exp(
        1j * hermitian_data(c, d).omega - 0.5 * norm_sq(c)
    )
    assert gaussian_orbit_integral(frame, sw, sv, 1) == pytest.approx(expect, rel=1e-14)


def test_gaussian_orbit_integral_guards():
    fa = _affine_frame()
    fb = _affine_frame(x=np.array([0.6 + 0.0j, 0.8 + 0.0j]))
    sa = split(fa, np.array([0.1, 0.2]))
    sb = split(fb, np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="different frames"):
        gaussian_orbit_integral(fa, sa, sb, 1)
    with pytest.raises(ValueError, match="rank"):
        gaussian_orbit_integral(fa, sa, sa, 2)
