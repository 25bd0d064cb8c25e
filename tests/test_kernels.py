import cmath
import itertools
import math
import time
from math import factorial, lgamma

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy import special

from eqszego import kernels
from eqszego.kernels import (
    QuadratureError,
    bargmann_kernel,
    enumerate_indices,
    equivariant_kernel_quadrature,
    equivariant_kernel_weightsum,
    isotypic_sum,
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


def _monomial_section(k: int, d: int, J, z) -> LogComplex:
    """Direct-basis oracle: the normalized monomial sqrt((k+d)!/(pi^d J!)) z^J."""
    z = np.asarray(z, dtype=np.complex128)
    J = tuple(int(j) for j in J)
    if len(J) != d + 1 or len(z) != d + 1:
        raise ValueError("index and point must have d+1 coordinates")
    if any(j < 0 for j in J) or sum(J) != k:
        raise ValueError("index must be nonnegative with total degree k")
    log_mod = 0.5 * (lgamma(k + d + 1) - d * math.log(math.pi) - sum(lgamma(j + 1) for j in J))
    phase = 0.0
    for j, zl in zip(J, z):
        if j == 0:
            continue
        if zl == 0:
            return LogComplex.zero()
        log_mod += j * math.log(abs(zl))
        phase += j * math.atan2(zl.imag, zl.real)
    return LogComplex(log_mod, phase)


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
    val = _monomial_section(2, 1, (1, 1), BALANCED)
    assert val.to_complex() == pytest.approx(math.sqrt(6.0 / math.pi) * 0.5, rel=1e-12)


def test_monomial_section_at_pole():
    for k, d in ((3, 1), (10, 2), (40, 3)):
        z = np.zeros(d + 1, dtype=complex)
        z[0] = 1.0
        J = (k,) + (0,) * d
        val = _monomial_section(k, d, J, z)
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
            total += abs(_monomial_section(k, d, J, z).to_complex()) ** 2
        expect = factorial(k + d) / (math.pi**d * factorial(k))
        assert total == pytest.approx(expect, rel=1e-11)


def test_monomial_section_degree_mismatch():
    with pytest.raises(ValueError):
        _monomial_section(3, 1, (1, 1), BALANCED)


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
            direct += (_monomial_section(k, d, J, x) * _monomial_section(k, d, J, y).conjugate()).to_complex()
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
    # C(1004, 4) ~ 4e10 points: the row budget stops it before the big step
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="rows"):
        enumerate_indices(4, 1000)
    assert time.perf_counter() - t0 < 1.0
    # small enumerations in higher dimension are fine
    assert len(enumerate_indices(5, 3)) == math.comb(8, 5)


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
    with pytest.raises(ValueError, match="rank"):
        enumerate_indices(2, 5, constraint=(W, IrrepLabel((-1,))))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_enumerate_indices_matches_brute_force(data):
    n = data.draw(st.integers(1, 5), label="n")
    g = data.draw(st.integers(0, 2), label="rank")
    k = data.draw(st.integers(0, 6), label="k")
    plain = [J for J in itertools.product(range(k + 1), repeat=n) if sum(J) == k]
    if g == 0:
        assert enumerate_indices(n - 1, k) == plain
        return
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    mat = np.array(data.draw(st.lists(row, min_size=g, max_size=g), label="weights"))
    zero_col = data.draw(st.integers(-1, n - 1), label="zero column")
    if zero_col >= 0:
        mat[:, zero_col] = 0
    W = WeightMatrix(mat)
    if data.draw(st.booleans(), label="hit"):
        target = -(W.matrix @ np.array(data.draw(st.sampled_from(plain))))
    else:
        target = data.draw(st.lists(st.integers(-2 * k - 1, 2 * k + 1), min_size=g, max_size=g))
    irrep = IrrepLabel(target)
    want = [J for J in plain if tuple(-(W.matrix @ np.array(J))) == irrep.weights]
    assert enumerate_indices(n - 1, k, constraint=(W, irrep)) == want


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


def test_projective_weightsum_zero_coordinates():
    """x_l = 0 or y_l = 0 drops every index with j_l > 0."""
    W = WeightMatrix(((-1, 1, 0),))
    k = 7
    full = np.array([0.5, 0.6 * cmath.exp(0.4j), 0.0])
    full[2] = math.sqrt(1.0 - float(np.vdot(full, full).real))
    other = np.array([0.3 * cmath.exp(-0.2j), 0.7, 0.5j])
    other /= math.sqrt(float(np.vdot(other, other).real))
    dead_x = np.array([0.0, 0.8, 0.6 * cmath.exp(1.1j)])
    dead_y = np.array([0.6, 0.0, 0.8j])
    for x, y in ((dead_x, other), (full, dead_y), (dead_x, dead_y)):
        for pi0 in range(-k, k + 1):
            pi = IrrepLabel((pi0,))
            terms = [
                (_monomial_section(k, 2, J, x) * _monomial_section(k, 2, J, y).conjugate()).to_complex()
                for J in enumerate_indices(2, k, constraint=(W, pi))
            ]
            val = equivariant_kernel_weightsum(W, pi, k, x, y, "projective")
            if not any(terms):
                assert val.is_zero
            else:
                assert abs(val.to_complex() - sum(terms)) <= 1e-12 * sum(abs(t) for t in terms)


def test_affine_weightsum_zero_coordinate_rank_two():
    """a_0 = 0 leaves the j0 = 0 terms only; the quadrature agrees."""
    W = WeightMatrix(((1, -1, 0), (0, 1, -1)))
    a = np.array([0.0, 0.6, 0.5 * cmath.exp(0.3j)])
    b = np.array([0.4, 0.5, 0.55 * cmath.exp(-0.2j)])
    k = 20
    for pi in ((2, 1), (0, 3), (3, -1), (4, 2)):
        ws = equivariant_kernel_weightsum(W, IrrepLabel(pi), k, (a, 0.0), (b, 0.0), "affine")
        quad = equivariant_kernel_quadrature(W, IrrepLabel(pi), k, (a, 0.0), (b, 0.0), "affine")
        assert _rel(ws, quad) < 1e-10
    # j1 = pi0 = -1 is impossible once j0 = 0
    assert equivariant_kernel_weightsum(W, IrrepLabel((-1, 0)), k, (a, 0.0), (b, 0.0), "affine").is_zero


def test_affine_weightsum_refuses_cancelled_series():
    """Terms up to e^93 summing to ~e^-3 would leave rounding only: it must raise."""
    a = (0.9 * BALANCED.astype(complex), 0.3)
    b = (1.1j * BALANCED, 0.0)
    pi = IrrepLabel((2,))
    quad = equivariant_kernel_quadrature(P1, pi, 100, a, b, "affine")
    assert quad.log_mod == pytest.approx(-97.01, abs=0.01)
    with pytest.raises(ValueError, match="cancels by a factor.*quadrature"):
        equivariant_kernel_weightsum(P1, pi, 100, a, b, "affine")
    # the same points at k = 10 cancel mildly and still agree with the quadrature
    ws = equivariant_kernel_weightsum(P1, pi, 10, a, b, "affine")
    assert _rel(ws, equivariant_kernel_quadrature(P1, pi, 10, a, b, "affine")) < 1e-10


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


W_AFF_R2 = WeightMatrix(((1, -1, 0), (0, 1, -1)))
W_P2_R2 = WeightMatrix(((-1, 1, 0), (0, -1, 1)))
UNIT3 = np.full(3, 1.0 / math.sqrt(3.0), dtype=complex)
UNIT3_TILTED = UNIT3 * np.exp(1j * np.array([0.3, -0.2, 0.1]))


@pytest.mark.parametrize(
    "W, model, y, k",
    [
        pytest.param(W_AFF_R2, "affine", UNIT3, 1024, id="affine-k1024"),
        pytest.param(W_AFF_R2, "affine", UNIT3, 4096, id="affine-k4096"),
        pytest.param(W_P2_R2, "projective", UNIT3_TILTED, 600, id="p2-k600"),
        pytest.param(W_P2_R2, "projective", UNIT3_TILTED, 2400, id="p2-k2400"),
    ],
)
def test_quadrature_rank_two_large_k(W, model, y, k):
    """Rank two at large k: no false QuadratureError, and the weight sum agrees."""
    pi = IrrepLabel((0, 0))
    ws = equivariant_kernel_weightsum(W, pi, k, UNIT3, y, model)
    quad = equivariant_kernel_quadrature(W, pi, k, UNIT3, y, model)
    assert _rel(ws, quad) < 1e-10


@pytest.mark.parametrize(
    "W, model, x, pi0",
    [
        pytest.param(P1, "projective", np.array([math.sqrt(0.6), math.sqrt(0.4) * 1j]), 2, id="p1"),
        pytest.param(P1, "projective", BALANCED, 0, id="p1-balanced"),
        pytest.param(WeightMatrix(((1, -1),)), "affine", (BALANCED * cmath.exp(0.3j), 0.7), 0, id="affine"),
        pytest.param(WeightMatrix(((1, -1),)), "affine", (np.array([0.8, 0.5j]), 0.0), 3, id="affine-off"),
    ],
)
def test_quadrature_rank_one_average_is_double_rule(monkeypatch, W, model, x, pi0):
    """At rank one the unshifted and half-step shifted N-rules interleave, so
    their average is the 2N-point rule."""
    real_pass = kernels._quadrature_pass
    seen = []

    def spy(*args):
        seen.append(args)
        return real_pass(*args)

    monkeypatch.setattr(kernels, "_quadrature_pass", spy)
    k, irrep = 30, IrrepLabel((pi0,))
    quad = equivariant_kernel_quadrature(W, irrep, k, x, x, model)
    first_args, shifted_args = seen[-2:]
    n = first_args[6]
    assert shifted_args[6:] == (n, 0.5)
    double, _ = real_pass(*first_args[:6], 2 * n)
    assert _rel(quad, double) < 1e-14


@pytest.mark.parametrize(
    "W, model, k, pi",
    [
        pytest.param(W_AFF_R2, "affine", 64, (0, 0), id="affine-k64"),
        pytest.param(W_AFF_R2, "affine", 256, (1, -1), id="affine-k256"),
        pytest.param(W_P2_R2, "projective", 150, (0, 0), id="p2-k150"),
        pytest.param(W_P2_R2, "projective", 256, (2, 1), id="p2-k256"),
    ],
)
def test_quadrature_rank_two_checkerboard_matches_weightsum(W, model, k, pi):
    """At rank two the returned average is a checkerboard rule; it agrees
    with the independent weight sum to 1e-12."""
    ws = equivariant_kernel_weightsum(W, IrrepLabel(pi), k, UNIT3, UNIT3_TILTED, model)
    quad = equivariant_kernel_quadrature(W, IrrepLabel(pi), k, UNIT3, UNIT3_TILTED, model)
    assert not ws.is_zero
    assert _rel(ws, quad) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    p=st.floats(0.0, 1.0),
    phases=st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi)),
    k=st.integers(1, 200),
    j=st.integers(0, 201),
)
def test_selection_rule_on_p1(p, phases, k, j):
    """Parity-mismatched isotypes of P^1 vanish: the weight sum exactly, the
    quadrature below 1e-12 of the full kernel (its confirmation sits at the
    round-off floor, since every alias vanishes too)."""
    pi0 = -k - 1 + 2 * min(j, k + 1)  # k - pi0 is odd
    z = np.array([math.sqrt(p) * cmath.exp(1j * phases[0]), math.sqrt(1.0 - p) * cmath.exp(1j * phases[1])])
    irrep = IrrepLabel((pi0,))
    assert equivariant_kernel_weightsum(P1, irrep, k, z, z, "projective").is_zero
    quad = equivariant_kernel_quadrature(P1, irrep, k, z, z, "projective")
    assert quad.log_mod - projective_kernel(k, 1, z, z).log_mod < math.log(1e-12)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the weight sum loses 9.1 nats to cancellation, under its 1e6 guard, and is 2e-9 off",
)
def test_affine_weightsum_rank_two_tilted_k4096():
    pi = IrrepLabel((0, 0))
    ws = equivariant_kernel_weightsum(W_AFF_R2, pi, 4096, UNIT3, UNIT3_TILTED, "affine")
    quad = equivariant_kernel_quadrature(W_AFF_R2, pi, 4096, UNIT3, UNIT3_TILTED, "affine")
    assert _rel(ws, quad) < 1e-10


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the weight sum loses 13.2 nats to cancellation, under its 13.8-nat guard, and is 3.4e-10 off",
)
def test_affine_weightsum_cancellation_guard_k14():
    """The weight sum must refuse the series or stay within criterion 7's 1e-10.

    At k = 10 and 12 the same inputs agree to 7e-12 and 3e-11; k = 16 raises.
    """
    pi = IrrepLabel((2,))
    a, b = (0.9 * BALANCED, 0.3), 1.1j * BALANCED
    quad = equivariant_kernel_quadrature(P1, pi, 14, a, b, "affine")
    try:
        ws = equivariant_kernel_weightsum(P1, pi, 14, a, b, "affine")
    except ValueError:
        return
    assert _rel(ws, quad) < 1e-10


def test_quadrature_fails_fast_past_node_cap(monkeypatch):
    """A certified count past the cap raises at once, naming it; no pass runs."""

    def no_pass(*args):
        raise AssertionError("a quadrature pass ran")

    monkeypatch.setattr(kernels, "_quadrature_pass", no_pass)
    t0 = time.perf_counter()
    with pytest.raises(QuadratureError, match=r"needs 8192\^2 nodes .* cap is 1048576") as info:
        equivariant_kernel_quadrature(W_AFF_R2, IrrepLabel((0, 0)), 10**6, UNIT3, UNIT3, "affine")
    assert time.perf_counter() - t0 < 1.0
    assert info.value.last_two == (None, None)
    assert info.value.n_per_dim == (8192, 16384)


def test_quadrature_error_carries_both_passes(monkeypatch):
    """A confirmation that disagrees raises with the first pass, the average
    with the shifted pass, and their node counts."""
    real_pass = kernels._quadrature_pass
    seen = []

    def drifting_pass(W, irrep, k, cvals, pref, model, n_per_dim, shift=0.0):
        value, scale = real_pass(W, irrep, k, cvals, pref, model, n_per_dim, shift)
        seen.append((n_per_dim, shift))
        return value * LogComplex(1e-6 * n_per_dim * (1.0 + 2.0 * shift), 0.0), scale

    monkeypatch.setattr(kernels, "_quadrature_pass", drifting_pass)
    x = np.array([math.sqrt(0.6), math.sqrt(0.4)])
    with pytest.raises(QuadratureError, match="disagrees") as info:
        equivariant_kernel_quadrature(P1, IrrepLabel((2,)), 30, x, x, "projective")
    first, confirmation = info.value.last_two
    n = seen[0][0]
    assert seen == [(n, 0.0), (n, 0.5)] and info.value.n_per_dim == (n, n)
    assert isinstance(first, LogComplex) and isinstance(confirmation, LogComplex)
    ws = equivariant_kernel_weightsum(P1, IrrepLabel((2,)), 30, x, x, "projective")
    assert first.log_mod - ws.log_mod == pytest.approx(1e-6 * n, abs=1e-12)
    average = math.log(0.5 * (math.exp(1e-6 * n) + math.exp(2e-6 * n)))
    assert confirmation.log_mod - ws.log_mod == pytest.approx(average, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_alias_bound_dominates_observed_aliasing(data):
    """|I_N - I| <= |pref| B(N) plus round-off, at every N <= 256.

    The N-point rule's error is the aliasing the bound dominates.  The
    round-off floor is 3e-13 of the larger of the largest node and the
    Cauchy scale, which bounds every weight-sum term as well.
    """
    g = data.draw(st.integers(1, 2), label="rank")
    n = data.draw(st.integers(1, 3), label="n")
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    W = WeightMatrix(data.draw(st.lists(row, min_size=g, max_size=g), label="weights"))
    k = data.draw(st.integers(1, 40), label="k")
    model = data.draw(st.sampled_from(["projective", "affine"]), label="model")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x, y = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    if model == "affine":
        x = (x * rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0 * math.pi))
        y = (y * rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0 * math.pi))
    if data.draw(st.booleans(), label="hit"):
        J = rng.multinomial(k, np.ones(n) / n)
    else:
        J = rng.integers(-3, 4, n)
    irrep = IrrepLabel(-(W.matrix @ J))
    try:
        ref = equivariant_kernel_weightsum(W, irrep, k, x, y, model)
    except ValueError:  # a cancelled series gives no reference
        reject()
    cvals, pref = kernels._integrand(W, k, x, y, model)
    log_scale, log_bound = kernels._log_alias_bound(W, irrep, k, cvals, model)
    for n_per_dim, log_b in zip(kernels._N_CANDIDATES.tolist(), log_bound):
        if n_per_dim > 256:
            break
        value, node_scale = kernels._quadrature_pass(W, irrep, k, cvals, pref, model, n_per_dim)
        floor = max(node_scale, pref.log_mod + log_scale) + math.log(3e-13)
        assert log_diff_mod(value, ref) <= np.logaddexp(pref.log_mod + log_b, floor)


def test_quadrature_affine_at_origin():
    """a = 0 zeroes every coefficient: the integrand is the character alone."""
    W = WeightMatrix(((1, -1),))
    b = np.array([0.3, 0.4])
    ws = equivariant_kernel_weightsum(W, IrrepLabel((0,)), 5, np.zeros(2), b, "affine")
    quad = equivariant_kernel_quadrature(W, IrrepLabel((0,)), 5, np.zeros(2), b, "affine")
    assert _rel(ws, quad) < 1e-12
    for pi0 in (1, 3):
        quad = equivariant_kernel_quadrature(W, IrrepLabel((pi0,)), 5, np.zeros(2), b, "affine")
        assert quad.log_mod < ws.log_mod + math.log(1e-12)


def test_quadrature_rejects_point_dimension_mismatch():
    W = WeightMatrix(((-1, 1, 0),))
    for model in ("projective", "affine"):
        with pytest.raises(ValueError, match="point dimension"):
            equivariant_kernel_quadrature(W, IrrepLabel((0,)), 4, BALANCED, BALANCED, model)


def test_quadrature_deterministic():
    x = np.array([math.sqrt(0.6), math.sqrt(0.4)])
    pi = IrrepLabel((2,))
    a = equivariant_kernel_quadrature(P1, pi, 30, x, x, "projective")
    b = equivariant_kernel_quadrature(P1, pi, 30, x, x, "projective")
    assert a.log_mod == b.log_mod and a.phase == b.phase
