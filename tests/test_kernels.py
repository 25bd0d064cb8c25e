import cmath
import math
from math import factorial

import numpy as np
import pytest
from scipy import special

from eqszego.kernels import (
    bargmann_kernel,
    enumerate_indices,
    equivariant_kernel_quadrature,
    equivariant_kernel_weightsum,
    isotypic_sum,
    monomial_section,
    projective_kernel,
)
from eqszego.logcomplex import LogComplex, log_diff_mod, ratio
from eqszego.torus import IrrepLabel, TorusElement, WeightMatrix, act_affine, character

P1 = WeightMatrix(((-1, 1),))
BALANCED = np.array([1.0, 1.0]) / math.sqrt(2.0)


def _rel(a, b) -> float:
    if a.is_zero and b.is_zero:
        return 0.0
    return math.exp(log_diff_mod(a, b) - max(a.log_mod, b.log_mod))


# -- full kernels -------------------------------------------------------------


def test_bargmann_kernel_at_origin():
    for k, n in ((1, 1), (7, 2), (100, 3)):
        val = bargmann_kernel(k, n, (np.zeros(n), 0.0), (np.zeros(n), 0.0))
        assert val.to_complex() == pytest.approx((k / math.pi) ** n, rel=1e-12)


def test_bargmann_kernel_fiber_rotation():
    k = 9
    p = (np.array([0.3 + 0.1j, -0.2j]), 0.0)
    q = (np.array([0.1 - 0.4j, 0.25]), 0.0)
    base = bargmann_kernel(k, 2, p, q)
    dth = 0.37
    rotated = bargmann_kernel(k, 2, (p[0], dth), q)
    assert ratio(rotated, base) == pytest.approx(cmath.exp(1j * k * dth), rel=1e-12)


def test_bargmann_kernel_hermitian_symmetry():
    rng = np.random.default_rng(2)
    k = 13
    for _ in range(10):
        p = (rng.normal(size=2) + 1j * rng.normal(size=2), float(rng.uniform(0, 2 * math.pi)))
        q = (rng.normal(size=2) + 1j * rng.normal(size=2), float(rng.uniform(0, 2 * math.pi)))
        a = bargmann_kernel(k, 2, p, q)
        b = bargmann_kernel(k, 2, q, p).conjugate()
        assert _rel(a, b) < 1e-12


def test_monomial_section_normalization():
    # d=1, k=2, J=(1,1): sqrt(3!/(pi 1! 1!)) = sqrt(6/pi)
    val = monomial_section(2, 1, (1, 1), BALANCED)
    assert val.to_complex() == pytest.approx(math.sqrt(6.0 / math.pi) * 0.5, rel=1e-12)


def test_monomial_section_at_pole():
    for k, d in ((3, 1), (10, 2), (40, 3)):
        z = np.zeros(d + 1, dtype=complex)
        z[0] = 1.0
        J = (k,) + (0,) * d
        val = monomial_section(k, d, J, z)
        expect = math.sqrt(factorial(k + d) / (math.pi**d * factorial(k)))
        assert val.to_complex() == pytest.approx(expect, rel=1e-12)


def test_monomial_sections_resolve_identity():
    # sum over |J| = k of |s_J(z)|^2 = (k+d)!/(pi^d k!) on the unit sphere
    rng = np.random.default_rng(5)
    for d, k in ((1, 20), (2, 9), (3, 5)):
        z = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        z = z / math.sqrt(float(np.vdot(z, z).real))
        total = 0.0
        for J in enumerate_indices(d, k):
            total += abs(monomial_section(k, d, J, z).to_complex()) ** 2
        expect = factorial(k + d) / (math.pi**d * factorial(k))
        assert total == pytest.approx(expect, rel=1e-11)


def test_monomial_section_degree_mismatch():
    with pytest.raises(ValueError):
        monomial_section(3, 1, (1, 1), BALANCED)


def test_projective_kernel_diagonal():
    for k, d in ((4, 1), (60, 2)):
        z = np.zeros(d + 1, dtype=complex)
        z[-1] = 1.0
        val = projective_kernel(k, d, z, z)
        expect = factorial(k + d) / (math.pi**d * factorial(k))
        assert val.to_complex() == pytest.approx(expect, rel=1e-12)


def test_projective_kernel_orthogonal_points():
    assert projective_kernel(5, 1, (1.0, 0.0), (0.0, 1.0)).is_zero


def test_projective_kernel_against_basis_summation():
    # d=1, k=3, x=(1,0), y=(1,1)/sqrt(2): (4/pi) (1/sqrt 2)^3
    x = np.array([1.0, 0.0], dtype=complex)
    val = projective_kernel(3, 1, x, BALANCED)
    expect = (factorial(4) / (math.pi * factorial(3))) * (1.0 / math.sqrt(2.0)) ** 3
    assert val.to_complex() == pytest.approx(expect, rel=1e-12)
    # direct oracle: sum s_J(x) conj(s_J(y)) over the basis.  Points are kept
    # close so the monomial sum is well conditioned.
    rng = np.random.default_rng(11)
    for d, k in ((1, 12), (2, 7)):
        x = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        x /= math.sqrt(float(np.vdot(x, x).real))
        y = x + 0.2 * (rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
        y /= math.sqrt(float(np.vdot(y, y).real))
        direct = 0j
        for J in enumerate_indices(d, k):
            direct += (monomial_section(k, d, J, x) * monomial_section(k, d, J, y).conjugate()).to_complex()
        assert projective_kernel(k, d, x, y).to_complex() == pytest.approx(direct, rel=1e-11)


# -- index enumeration --------------------------------------------------------


def test_enumerate_indices_plain():
    assert enumerate_indices(1, 3) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_enumerate_indices_selection_rule_pick():
    got = enumerate_indices(1, 5, constraint=(P1, IrrepLabel((1,))))
    assert got == [(3, 2)]


def test_enumerate_indices_counts():
    for d, k in ((1, 10), (2, 8), (3, 6)):
        got = enumerate_indices(d, k)
        assert len(got) == math.comb(k + d, d)
        assert len(set(got)) == len(got)
        assert got == sorted(got)


def test_enumerate_indices_dimension_guard():
    with pytest.raises(ValueError):
        enumerate_indices(5, 3)


def test_enumerate_indices_rank_two_constraint():
    W = WeightMatrix(((1, 0, -1), (0, 1, 1)))
    pi = IrrepLabel((-1, -3))
    got = enumerate_indices(2, 5, constraint=(W, pi))
    for J in got:
        assert sum(J) == 5
        np.testing.assert_array_equal(-(W.matrix @ np.array(J)), np.array(pi.weights))
    # oracle: filter the plain enumeration
    brute = [
        J
        for J in enumerate_indices(2, 5)
        if tuple(-(W.matrix @ np.array(J))) == pi.weights
    ]
    assert got == brute


# -- equivariant kernels: weight sum ------------------------------------------


def test_selection_rule_exact_zero():
    for k in (1, 2, 3, 10, 41, 200):
        for pi0 in (-3, 0, 1, 4):
            if (k - pi0) % 2 == 0:
                continue
            val = equivariant_kernel_weightsum(P1, IrrepLabel((pi0,)), k, BALANCED, BALANCED, "projective")
            assert val.is_zero


def test_p1_single_monomial_value():
    # k=2, irrep 0 at the balanced point: (3!/pi) (1/2)(1/2) = 3/(2 pi)
    val = equivariant_kernel_weightsum(P1, IrrepLabel((0,)), 2, BALANCED, BALANCED, "projective")
    assert val.to_complex() == pytest.approx(3.0 / (2.0 * math.pi), rel=1e-12)


def test_p1_diagonal_closed_form():
    # k = pi + 2s: (pi+2s+1)!/(pi (pi+s)! s!) |z0|^{2(pi+s)} |z1|^{2s}
    z = np.array([math.sqrt(0.7), math.sqrt(0.3)])
    for pi0, s in ((1, 2), (0, 5), (3, 0), (-2, 4)):
        k = abs(pi0) + 2 * s if pi0 >= 0 else -pi0 + 2 * s
        j0 = (k + pi0) // 2
        j1 = (k - pi0) // 2
        expect = (
            factorial(k + 1)
            / (math.pi * factorial(j0) * factorial(j1))
            * abs(z[0]) ** (2 * j0)
            * abs(z[1]) ** (2 * j1)
        )
        val = equivariant_kernel_weightsum(P1, IrrepLabel((pi0,)), k, z, z, "projective")
        assert val.to_complex() == pytest.approx(expect, rel=1e-12)


def test_affine_weightsum_bessel_oracle():
    """Balanced n=2 diagonal at irrep 0: the constrained series sums to
    I_0(k), so the kernel is (k/pi)^2 e^{-k} I_0(k)."""
    x = (BALANCED.astype(complex), 0.0)
    for k in (5, 50, 300):
        val = equivariant_kernel_weightsum(P1, IrrepLabel((0,)), k, x, x, "affine")
        expect_log = 2.0 * math.log(k / math.pi) + math.log(special.ive(0, k))
        assert val.phase == pytest.approx(0.0, abs=1e-12)
        assert val.log_mod == pytest.approx(expect_log, rel=1e-12)


def test_affine_weightsum_fiber_phase():
    k = 12
    pi = IrrepLabel((2,))
    a = np.array([0.5 + 0.2j, 0.4 - 0.1j])
    base = equivariant_kernel_weightsum(P1, pi, k, (a, 0.0), (a, 0.0), "affine")
    shifted = equivariant_kernel_weightsum(P1, pi, k, (a, 0.25), (a, 0.0), "affine")
    assert ratio(shifted, base) == pytest.approx(cmath.exp(1j * k * 0.25), rel=1e-12)


def test_weightsum_diagonal_positivity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z /= math.sqrt(float(np.vdot(z, z).real))
        k = int(rng.integers(1, 40))
        pi0 = 2 * int(rng.integers(0, k // 2 + 1)) - k
        val = equivariant_kernel_weightsum(P1, IrrepLabel((pi0,)), k, z, z, "projective")
        if not val.is_zero:
            assert val.phase == pytest.approx(0.0, abs=1e-10)


def test_weightsum_character_twist():
    """Moving x by the group twists the isotype by the inverse character."""
    rng = np.random.default_rng(31)
    for k in (7, 24, 50):
        pi0 = k - 2 * int(rng.integers(0, k + 1))
        pi = IrrepLabel((pi0,))
        t = TorusElement((float(rng.uniform(0, 2 * math.pi)),))
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        y = rng.normal(size=2) + 1j * rng.normal(size=2)
        x /= math.sqrt(float(np.vdot(x, x).real))
        y /= math.sqrt(float(np.vdot(y, y).real))
        plain = equivariant_kernel_weightsum(P1, pi, k, x, y, "projective")
        moved = equivariant_kernel_weightsum(P1, pi, k, act_affine(P1, t, x), y, "projective")
        expect = plain * LogComplex.from_complex(np.conj(character(pi, t)))
        assert _rel(moved, expect) < 1e-12


def test_full_kernel_invariance():
    rng = np.random.default_rng(37)
    k = 31
    t = TorusElement((1.234,))
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    y = rng.normal(size=2) + 1j * rng.normal(size=2)
    x /= math.sqrt(float(np.vdot(x, x).real))
    y /= math.sqrt(float(np.vdot(y, y).real))
    a = projective_kernel(k, 1, x, y)
    b = projective_kernel(k, 1, act_affine(P1, t, x), act_affine(P1, t, y))
    assert _rel(a, b) < 1e-12


# -- isotypic completeness ----------------------------------------------------


def test_isotypic_completeness_projective():
    # y stays near x: for nearly orthogonal pairs the isotype sum cancels
    # and the relative comparison loses meaning in double precision
    rng = np.random.default_rng(41)
    for k in (6, 19, 40):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        x /= math.sqrt(float(np.vdot(x, x).real))
        y = x + 0.15 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        y /= math.sqrt(float(np.vdot(y, y).real))
        total = isotypic_sum(P1, k, x, y)
        full = projective_kernel(k, 1, x, y)
        assert _rel(total, full) < 1e-10


def test_isotypic_completeness_affine_window():
    """Summing isotypes over a window of irreps around the occupation mode
    recovers the full kernel on the diagonal."""
    k = 30
    x = (BALANCED.astype(complex), 0.0)
    full = bargmann_kernel(k, 2, x, x)
    acc = 0j
    half = 40
    for pi0 in range(-half, half + 1):
        acc += equivariant_kernel_weightsum(P1, IrrepLabel((pi0,)), k, x, x, "affine").to_complex()
    assert acc == pytest.approx(full.to_complex(), rel=1e-10)


# -- quadrature ---------------------------------------------------------------


def test_quadrature_matches_weightsum_projective():
    rng = np.random.default_rng(43)
    for k in (3, 17, 60, 200):
        p = rng.uniform(0.3, 0.7)
        x = np.array([math.sqrt(p), math.sqrt(1 - p) * cmath.exp(0.4j)])
        j0 = int(round(k * p))
        pi = IrrepLabel((2 * j0 - k,))
        ws = equivariant_kernel_weightsum(P1, pi, k, x, x, "projective")
        quad = equivariant_kernel_quadrature(P1, pi, k, x, x, "projective")
        assert _rel(ws, quad) < 1e-10


def test_quadrature_vanishes_outside_weight_range():
    # |irrep| > k: no monomial carries it
    quad = equivariant_kernel_quadrature(P1, IrrepLabel((8,)), 4, BALANCED, BALANCED, "projective")
    assert quad.is_zero or quad.log_mod < math.log(1e-12)


def test_quadrature_matches_weightsum_affine():
    x = (BALANCED.astype(complex), 0.0)
    for pi0, k in ((0, 50), (3, 21)):
        ws = equivariant_kernel_weightsum(P1, IrrepLabel((pi0,)), k, x, x, "affine")
        quad = equivariant_kernel_quadrature(P1, IrrepLabel((pi0,)), k, x, x, "affine")
        assert _rel(ws, quad) < 1e-9


def test_quadrature_rank_two_affine():
    W = WeightMatrix(((-1, 1), (0, 1)))
    a = np.array([0.55, 0.45 * cmath.exp(0.3j)])
    k = 20
    jj = np.round(k * np.abs(a) ** 2).astype(int)
    pi = IrrepLabel(tuple(int(t) for t in -(W.matrix @ jj)))
    ws = equivariant_kernel_weightsum(W, pi, k, (a, 0.0), (a, 0.0), "affine")
    quad = equivariant_kernel_quadrature(W, pi, k, (a, 0.0), (a, 0.0), "affine")
    assert _rel(ws, quad) < 1e-10


def test_quadrature_deterministic():
    x = np.array([math.sqrt(0.6), math.sqrt(0.4)])
    pi = IrrepLabel((2,))
    a = equivariant_kernel_quadrature(P1, pi, 30, x, x, "projective")
    b = equivariant_kernel_quadrature(P1, pi, 30, x, x, "projective")
    assert a.log_mod == b.log_mod and a.phase == b.phase
