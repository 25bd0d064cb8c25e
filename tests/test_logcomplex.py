import cmath
import math

import numpy as np
import pytest

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
