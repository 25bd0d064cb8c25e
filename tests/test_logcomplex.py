import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqszego.logcomplex import (
    NEG_INF,
    LogComplex,
    log_diff_mod,
    log_sum,
    log_sum_exp,
    ratio,
    wrap_phase,
)


def test_from_complex_unit_imaginary():
    lc = LogComplex.from_complex(1j)
    assert lc.log_mod == pytest.approx(0.0, abs=1e-15)
    assert lc.phase == pytest.approx(math.pi / 2.0)


def test_zero_representation():
    z = LogComplex.zero()
    assert z.is_zero
    assert z.log_mod == NEG_INF
    assert z.to_complex() == 0j
    assert LogComplex.from_complex(0.0).is_zero


def test_round_trip_relative_error():
    # exp(log(.)) loses about |log_mod| ulps, so the bound scales with it
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = complex(rng.normal(), rng.normal()) * 10.0 ** rng.integers(-8, 9)
        lc = LogComplex.from_complex(z)
        budget = (4.0 + abs(lc.log_mod)) * 2.3e-16
        assert abs(lc.to_complex() - z) <= budget * abs(z)


def test_multiplication_adds_logs_exactly():
    a = LogComplex(2.5, 0.3)
    b = LogComplex(-1.25, -0.8)
    p = a * b
    assert p.log_mod == 2.5 + (-1.25)
    assert p.phase == pytest.approx(wrap_phase(0.3 - 0.8))


def test_multiplication_by_zero_is_zero():
    assert (LogComplex.zero() * LogComplex(5.0, 1.0)).is_zero


def test_division_inverts_multiplication():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = LogComplex(rng.normal(), rng.uniform(-math.pi, math.pi))
        b = LogComplex(rng.normal(), rng.uniform(-math.pi, math.pi))
        q = (a * b) / b
        assert q.log_mod == pytest.approx(a.log_mod, abs=1e-12)
        assert wrap_phase(q.phase - a.phase) == pytest.approx(0.0, abs=1e-12)


def test_pow_int_matches_repeated_multiplication():
    base = LogComplex.from_complex(0.7 + 0.4j)
    acc = LogComplex.one()
    for _ in range(5):
        acc = acc * base
    p = base.pow_int(5)
    assert p.log_mod == pytest.approx(acc.log_mod, rel=1e-14)
    assert wrap_phase(p.phase - acc.phase) == pytest.approx(0.0, abs=1e-12)


def test_pow_int_handles_huge_exponents():
    # k ~ 1e4 at modulus ~ e^300 stays finite in log form
    big = LogComplex(300.0, 0.1).pow_int(10_000)
    assert big.log_mod == pytest.approx(3.0e6)
    assert -math.pi < big.phase <= math.pi


def test_conjugate_and_negate():
    a = LogComplex.from_complex(1.0 + 2.0j)
    assert a.conjugate().to_complex() == pytest.approx((1.0 - 2.0j), rel=1e-14)
    assert (-a).to_complex() == pytest.approx(-(1.0 + 2.0j), rel=1e-14)


def test_logsum_matches_direct_summation():
    rng = np.random.default_rng(3)
    for _ in range(30):
        zs = [complex(rng.normal(), rng.normal()) for _ in range(40)]
        got = log_sum(LogComplex.from_complex(z) for z in zs).to_complex()
        direct = sum(zs)
        assert abs(got - direct) <= 1e-12 * max(abs(z) for z in zs)


def test_logsum_cancellation_to_zero():
    total = log_sum([LogComplex.from_complex(1.0), LogComplex.from_complex(-1.0)])
    # exact cancellation of equal-magnitude terms
    assert total.is_zero or total.log_mod < -30.0


def test_logsum_widely_separated_scales():
    # adding e^900 and 1: the small term must not disturb the big one
    total = log_sum([LogComplex(900.0, 0.0), LogComplex.one()])
    assert total.log_mod == pytest.approx(900.0, abs=1e-12)


def test_log_sum_agrees_with_log_sum_exp():
    terms = [LogComplex.from_complex(z) for z in (1.0, 2.0j, -0.5, 0.25 - 0.25j, 0.0)]
    a = log_sum(terms)
    b = log_sum_exp(np.array([t.log_mod for t in terms]), np.array([t.phase for t in terms]))
    assert a == b
    assert a.to_complex() == pytest.approx(1.0 + 2.0j - 0.5 + (0.25 - 0.25j), rel=1e-14)


def test_log_sum_exp_empty_and_all_zero():
    assert log_sum([]).is_zero
    assert log_sum_exp(np.full(3, NEG_INF), np.zeros(3)).is_zero


def test_log_diff_mod_identical_values():
    a = LogComplex.from_complex(1.5 - 0.5j)
    assert log_diff_mod(a, a) == NEG_INF


def test_log_diff_mod_against_direct():
    a = LogComplex.from_complex(2.0 + 1.0j)
    b = LogComplex.from_complex(1.9 + 1.05j)
    expect = math.log(abs((2.0 + 1.0j) - (1.9 + 1.05j)))
    assert log_diff_mod(a, b) == pytest.approx(expect, rel=1e-12)


def test_log_diff_mod_huge_scale():
    # difference of values around e^1000, far beyond float range
    a = LogComplex(1000.0, 0.0)
    b = LogComplex(1000.0, 1e-3)
    got = log_diff_mod(a, b)
    expect = 1000.0 + math.log(abs(1.0 - cmath.exp(1e-3j)))
    assert got == pytest.approx(expect, rel=1e-9)


def test_ratio_of_close_values():
    a = LogComplex.from_complex(3.0 + 0.1j)
    b = LogComplex.from_complex(3.0)
    assert ratio(a, b) == pytest.approx((3.0 + 0.1j) / 3.0, rel=1e-13)


def test_ratio_zero_numerator():
    assert ratio(LogComplex.zero(), LogComplex.one()) == 0j


def test_phase_stays_in_principal_range():
    lc = LogComplex(0.0, 17.0)
    assert -math.pi < lc.phase <= math.pi
    assert cmath.exp(1j * lc.phase) == pytest.approx(cmath.exp(17.0j), rel=1e-12)


# -- properties ------------------------------------------------------------------

# moduli within e^{+-20}, where to_complex loses at most ~|log_mod| ulps
LOG_MODS = st.floats(-20.0, 20.0)
PHASES = st.floats(-50.0, 50.0)
NONZERO = st.builds(LogComplex, LOG_MODS, PHASES)
ANY = st.one_of(NONZERO, st.just(LogComplex.zero()))
TERMS = st.lists(st.tuples(st.one_of(st.floats(-8.0, 8.0), st.just(NEG_INF)), PHASES), max_size=40)


def _close(got: complex, expect: complex, scale: float, rel: float = 1e-12) -> bool:
    return abs(got - expect) <= rel * scale


def _in_range(a: LogComplex) -> bool:
    return -math.pi < a.phase <= math.pi


@settings(max_examples=200, deadline=None)
@given(a=NONZERO, b=NONZERO)
def test_mul_and_div_match_complex_arithmetic(a, b):
    za, zb = a.to_complex(), b.to_complex()
    prod, quot = a * b, a / b
    assert _close(prod.to_complex(), za * zb, abs(za * zb))
    assert _close(quot.to_complex(), za / zb, abs(za / zb))
    assert _in_range(prod) and _in_range(quot)


@settings(max_examples=200, deadline=None)
@given(a=st.builds(LogComplex, st.floats(-2.0, 2.0), PHASES), k=st.integers(-20, 20))
def test_pow_int_matches_complex_power(a, k):
    z = a.to_complex()
    p = a.pow_int(k)
    assert _close(p.to_complex(), z**k, abs(z) ** k)
    assert _in_range(p)


@settings(max_examples=200, deadline=None)
@given(terms=TERMS)
def test_log_sum_exp_matches_direct_sum(terms):
    log_mods = np.array([t[0] for t in terms], dtype=float)
    phases = np.array([t[1] for t in terms], dtype=float)
    direct = complex(np.sum(np.exp(log_mods + 1j * phases)))
    scale = float(np.sum(np.exp(log_mods)))
    got = log_sum_exp(log_mods, phases)
    assert _close(got.to_complex(), direct, scale)
    assert _in_range(got)


@settings(max_examples=200, deadline=None)
@given(terms=TERMS.filter(lambda ts: any(t[0] > NEG_INF for t in ts)), c=st.floats(-700.0, 700.0))
def test_log_sum_exp_shift_moves_log_modulus_by_the_shift(terms, c):
    log_mods = np.array([t[0] for t in terms], dtype=float)
    phases = np.array([t[1] for t in terms], dtype=float)
    base = log_sum_exp(log_mods, phases)
    shifted = log_sum_exp(log_mods + c, phases)
    # the shift rounds each log-modulus by about ulp(|c|); compare against the term scale
    scale = float(np.sum(np.exp(log_mods)))
    back = LogComplex(shifted.log_mod - c, shifted.phase) if not shifted.is_zero else shifted
    assert _close(back.to_complex(), base.to_complex(), scale, rel=1e-12 * (1.0 + abs(c)))


@settings(max_examples=200, deadline=None)
@given(log_mod=LOG_MODS, phase=st.one_of(PHASES, st.integers(-40, 40).map(lambda m: m * math.pi)))
def test_phase_lands_in_principal_range(log_mod, phase):
    a = LogComplex(log_mod, phase)
    assert _in_range(a)
    assert _in_range(-a) and _in_range(a.conjugate())
    assert _close(cmath.exp(1j * a.phase), cmath.exp(1j * phase), 1.0, rel=1e-13 * (1.0 + abs(phase)))


@settings(max_examples=200, deadline=None)
@given(a=ANY, k=st.integers(1, 50), n=st.integers(0, 10))
def test_exact_zeros_stay_exact(a, k, n):
    zero = LogComplex.zero()
    assert (zero * a).is_zero and (a * zero).is_zero
    assert zero.pow_int(k).is_zero
    assert (-zero).is_zero and zero.conjugate().is_zero
    if not a.is_zero:
        assert (zero / a).is_zero
    assert zero.phase == 0.0 and zero.to_complex() == 0j
    assert log_sum_exp(np.full(n, NEG_INF), np.zeros(n)).is_zero
    assert log_sum([zero] * n).is_zero
