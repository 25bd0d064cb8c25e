import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from eqszego.geometry import build_split_frame, hermitian_data, norm_sq
from eqszego.kernels import equivariant_kernel_weightsum
from eqszego.torus import (
    IrrepLabel,
    TorusElement,
    WeightMatrix,
    act_affine,
    character,
    effective_volume,
    fiber_multiplier,
    generators_at,
    moment_map,
    smith_normal_form,
    stabilizer_of,
)

P1 = WeightMatrix(((-1, 1),))
BALANCED = np.array([1.0, 1.0]) / math.sqrt(2.0)


# -- characters ----------------------------------------------------------


def test_character_trivial_irrep():
    pi0 = IrrepLabel((0,))
    for ang in (0.0, 1.0, 2.5, 6.0):
        assert character(pi0, TorusElement((ang,))) == pytest.approx(1.0 + 0.0j)


def test_character_forced_value():
    assert character(IrrepLabel((3,)), TorusElement((math.pi,))) == pytest.approx(-1.0 + 0.0j, abs=1e-12)


def test_character_orthogonality_by_trapezoid():
    """Trapezoid quadrature is exact on trigonometric polynomials, so the
    Haar pairing of two characters is computed exactly at N > |pi| + |pi'|."""
    for p, q in ((0, 0), (2, 2), (3, -1), (5, 2), (-4, -4)):
        n = abs(p) + abs(q) + 3
        thetas = 2.0 * math.pi * np.arange(n) / n
        vals = [
            character(IrrepLabel((p,)), TorusElement((t,)))
            * np.conj(character(IrrepLabel((q,)), TorusElement((t,))))
            for t in thetas
        ]
        avg = sum(vals) / n
        expect = 1.0 if p == q else 0.0
        assert avg == pytest.approx(expect, abs=1e-12)


def test_character_is_multiplicative():
    pi = IrrepLabel((2, -3))
    s = TorusElement((0.7, 1.9))
    t = TorusElement((2.2, 0.4))
    assert character(pi, s.compose(t)) == pytest.approx(
        character(pi, s) * character(pi, t), rel=1e-12
    )


# -- the action ----------------------------------------------------------


def test_act_affine_identity():
    z = np.array([0.3 + 0.1j, -0.2 + 0.5j])
    out = act_affine(P1, TorusElement.identity(1), z)
    np.testing.assert_allclose(out, z, rtol=0, atol=0)


def test_act_affine_antipodal_rotation():
    # weights (-1, 1) at angle pi negate both coordinates
    z = np.array([0.4 + 0.2j, 0.1 - 0.7j])
    out = act_affine(P1, TorusElement((math.pi,)), z)
    np.testing.assert_allclose(out, -z, atol=1e-15)


def test_act_affine_is_unitary_and_a_group_action():
    rng = np.random.default_rng(21)
    W = WeightMatrix(((1, 0, -2), (0, 3, 1)))
    for _ in range(20):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        s = TorusElement(tuple(rng.uniform(0, 2 * math.pi, 2)))
        t = TorusElement(tuple(rng.uniform(0, 2 * math.pi, 2)))
        assert norm_sq(act_affine(W, t, z)) == pytest.approx(norm_sq(z), rel=1e-12)
        one = act_affine(W, s, act_affine(W, t, z))
        two = act_affine(W, s.compose(t), z)
        np.testing.assert_allclose(one, two, atol=1e-12)


# -- moment map ----------------------------------------------------------


def test_moment_map_projective_poles_and_balance():
    assert moment_map(P1, (1.0, 0.0), "projective")[0] == pytest.approx(-1.0)
    assert moment_map(P1, (0.0, 1.0), "projective")[0] == pytest.approx(1.0)
    assert moment_map(P1, BALANCED, "projective")[0] == pytest.approx(0.0, abs=1e-15)


def test_moment_map_affine_balanced():
    a = 0.37 - 0.21j
    assert moment_map(P1, (a, a), "affine")[0] == pytest.approx(0.0, abs=1e-15)


def test_moment_map_projective_scale_invariance():
    z = np.array([0.5 + 0.1j, -0.3 + 0.8j, 0.2j])
    W = WeightMatrix(((1, -1, 2),))
    a = moment_map(W, z, "projective")
    b = moment_map(W, 3.7 * z, "projective")
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_moment_map_rejects_zero_projective_point():
    with pytest.raises(ValueError):
        moment_map(P1, (0.0, 0.0), "projective")


# -- generators ----------------------------------------------------------


def test_generator_at_fixed_point_vanishes():
    # (1, 0) is fixed by the projective (-1,1) action
    gen = generators_at(P1, (1.0, 0.0), "projective")[0]
    assert math.sqrt(norm_sq(gen)) < 1e-14


def test_projective_generator_of_scalar_factor_is_zero():
    # the second factor acts on [z] by a scalar: its projected vector is
    # rounding noise (norm ~1e-16), which must not pass for a direction
    W = WeightMatrix(((0, 0, 1), (1, 0, 1)))
    gens = generators_at(W, np.array([0.09375 + 1j, 0.0, 1.0]), "projective")
    assert not gens[1].any()
    with pytest.raises(ValueError, match="dependent"):
        build_split_frame(gens)


def test_affine_generator_forced_by_definition():
    gen = generators_at(P1, BALANCED, "affine")[0]
    expect = np.array([-1j, 1j]) / math.sqrt(2.0)
    np.testing.assert_allclose(gen, expect, atol=1e-15)


def test_projective_generator_is_tangent():
    rng = np.random.default_rng(17)
    W = WeightMatrix(((2, -1, 1),))
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    z = z / math.sqrt(norm_sq(z))
    gen = generators_at(W, z, "projective")[0]
    assert abs(np.vdot(z, gen)) < 1e-12


def test_generators_reject_unknown_model_first():
    # the point's length is wrong too; the model is checked before any work
    with pytest.raises(ValueError, match="unknown model 'sphere'"):
        generators_at(P1, (1.0, 0.0, 0.0), "sphere")


def test_moment_map_invariant_along_flow():
    # d/ds Phi(flow) = 0: the moment map is constant on orbits
    W = WeightMatrix(((1, -2),))
    z = np.array([0.8 + 0.1j, 0.3 - 0.4j])
    h = 1e-6
    up = moment_map(W, act_affine(W, TorusElement((h,)), z), "affine")
    dn = moment_map(W, act_affine(W, TorusElement((-h,)), z), "affine")
    assert abs(up[0] - dn[0]) / (2 * h) < 1e-8


def test_moment_map_differential_identity():
    """dPhi^xi(v) = 2 omega(v, xi_M(z)): finite differences against the
    symplectic pairing, on zero-level points of both models."""
    cases = [
        ("affine", P1, BALANCED),
        ("projective", P1, BALANCED),
        ("affine", WeightMatrix(((1, -1, 0), (0, 1, -1))), np.full(3, 1.0 / math.sqrt(3.0))),
    ]
    rng = np.random.default_rng(33)
    for model, W, z in cases:
        z = np.asarray(z, dtype=complex)
        gens = generators_at(W, z, model)
        h = 1e-6
        for i, xi in enumerate(gens):
            for _ in range(5):
                v = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
                if model == "projective":
                    v = v - np.vdot(z, v) * z  # tangent representative
                    up = moment_map(W, (z + h * v) / math.sqrt(norm_sq(z + h * v)), model)
                    dn = moment_map(W, (z - h * v) / math.sqrt(norm_sq(z - h * v)), model)
                else:
                    up = moment_map(W, z + h * v, model)
                    dn = moment_map(W, z - h * v, model)
                fd = (up[i] - dn[i]) / (2 * h)
                expect = 2.0 * hermitian_data(v, xi).omega
                assert fd == pytest.approx(expect, rel=1e-6, abs=1e-8)


# -- Smith normal form ---------------------------------------------------


def test_smith_normal_form_properties():
    rng = np.random.default_rng(40)
    for _ in range(40):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        mat = rng.integers(-6, 7, size=(rows, cols))
        U, A, V = (np.asarray(x) for x in smith_normal_form(mat))
        np.testing.assert_array_equal(U @ mat @ V, A)
        assert abs(round(np.linalg.det(U))) == 1
        assert abs(round(np.linalg.det(V))) == 1
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert A[i, j] == 0
        diag = [int(A[i, i]) for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a != 0:
                assert b % a == 0


# -- stabilizers ---------------------------------------------------------


def test_p1_balanced_stabilizer_is_plus_minus_one():
    stab = stabilizer_of(P1, BALANCED, "projective")
    assert stab.order == 2
    angles = sorted(t.angles[0] for t in stab.elements)
    assert angles[0] == pytest.approx(0.0, abs=1e-12)
    assert angles[1] == pytest.approx(math.pi, rel=1e-12)


def test_affine_balanced_stabilizer_is_trivial():
    stab = stabilizer_of(P1, (0.4, 0.4), "affine")
    assert stab.order == 1
    assert stab.elements[0].angles[0] == pytest.approx(0.0, abs=1e-12)


def test_double_weight_stabilizer_is_cyclic_of_order_four():
    W = WeightMatrix(((-2, 2),))
    z = np.array([0.6, 0.8])
    stab = stabilizer_of(W, z, "projective")
    assert stab.order == 4


@st.composite
def torus_cases(draw):
    """Rank-one or rank-two weights in [-3, 3] on n <= 3 coordinates, a
    model, and a nonzero point; a vanishing coordinate takes its column
    out of the support."""
    g = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=g, max_size=g))
    coord = st.builds(cmath.rect, st.floats(0.3, 1.2), st.floats(-math.pi, math.pi))
    z = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    z[list(draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))] = 0.0
    return WeightMatrix(rows), z, draw(st.sampled_from(("affine", "projective")))


def _fixed(W, angles, z, model):
    """Which rows of the (N, g) angle array fix z (affine) or [z] (projective)."""
    moved = np.exp(1j * (angles @ W.matrix)) * z
    if model == "projective":
        moved = moved - np.outer(moved @ z.conj(), z) / norm_sq(z)
    else:
        moved = moved - z
    return np.linalg.norm(moved, axis=1) < 1e-9


def _grid_denominator(W, z, model):
    """|det| of the first nonsingular g x g minor of the constraint rows.

    Every stabilizer angle vector theta = 2 pi x solves M x in Z^g for
    such a minor M, so x lies in (1/|det M|) Z^g by Cramer's rule.
    """
    cols = [W.column(l) for l in range(len(z)) if z[l] != 0]
    rows = cols if model == "affine" else [c - cols[0] for c in cols[1:]]
    for minor in itertools.combinations(rows, W.g):
        det = round(abs(np.linalg.det(np.array(minor, dtype=float))))
        if det:
            return det
    raise AssertionError("finite stabilizer without a nonsingular minor")


@settings(max_examples=100, deadline=None)
@given(case=torus_cases())
@example(case=(P1, BALANCED.astype(complex), "projective"))
@example(case=(WeightMatrix(((-2, 2),)), np.array([0.6, 0.8], dtype=complex), "projective"))
@example(case=(P1, np.array([0.5, 0.5], dtype=complex), "affine"))
@example(case=(WeightMatrix(((3,),)), np.array([1.0 + 0j]), "affine"))
def test_stabilizer_brute_force_scan(case):
    """Every listed element fixes the point, the list is a group, and a
    scan of the grid 2 pi m / Delta finds exactly the listed elements."""
    W, z, model = case
    try:
        stab = stabilizer_of(W, z, model)
    except ValueError as exc:
        assert "infinite" in str(exc)
        reject()
    delta = _grid_denominator(W, z, model)
    angles = np.array([t.angles for t in stab.elements])
    assert _fixed(W, angles, z, model).all()
    scaled = angles * (delta / (2 * math.pi))
    assert np.max(np.abs(scaled - np.round(scaled))) < 1e-9

    def key(t):
        return tuple(int(m) % delta for m in np.round(np.asarray(t.angles) * (delta / (2 * math.pi))))

    listed = {key(t) for t in stab.elements}
    assert stab.order == len(stab.elements)
    assert len(listed) == len(stab.elements)
    for t in stab.elements:
        assert key(t.inverse()) in listed
        assert all(key(t.compose(s)) in listed for s in stab.elements)
    grid = np.array(list(itertools.product(range(delta), repeat=W.g)))
    found = {tuple(int(m) for m in row) for row in grid[_fixed(W, grid * (2 * math.pi / delta), z, model)]}
    assert found == listed


def test_stabilizer_infinite_detected():
    # a torus factor acting trivially on the support never exits
    W = WeightMatrix(((0, 0), (1, -1)))
    with pytest.raises(ValueError):
        stabilizer_of(W, (0.5, 0.5), "affine")


# -- fiber multipliers ------------------------------------------------------


def test_fiber_multiplier_identity_and_antipode():
    stab = stabilizer_of(P1, BALANCED, "projective")
    mults = {round(t.angles[0], 6): fiber_multiplier(P1, t, BALANCED) for t in stab.elements}
    assert mults[0.0] == pytest.approx(1.0 + 0.0j)
    assert mults[round(math.pi, 6)] == pytest.approx(-1.0 + 0.0j, abs=1e-12)


def test_fiber_multiplier_order_four_roots():
    W = WeightMatrix(((-2, 2),))
    z = np.array([0.6, 0.8])
    stab = stabilizer_of(W, z, "projective")
    mults = [fiber_multiplier(W, t, z) for t in stab.elements]
    for h in mults:
        assert abs(h) == pytest.approx(1.0, rel=1e-12)
        assert abs(h**4 - 1.0) < 1e-10


def test_fiber_multiplier_is_a_character():
    W = WeightMatrix(((-2, 2),))
    z = np.array([0.6, 0.8])
    stab = stabilizer_of(W, z, "projective")
    for s in stab.elements:
        for t in stab.elements:
            hs = fiber_multiplier(W, s, z)
            ht = fiber_multiplier(W, t, z)
            hst = fiber_multiplier(W, s.compose(t), z)
            assert hst == pytest.approx(hs * ht, rel=1e-10)


def test_fiber_multiplier_rejects_non_stabilizer():
    with pytest.raises(ValueError):
        fiber_multiplier(P1, TorusElement((0.3,)), BALANCED)


# -- which levels carry an isotype --------------------------------------------


@st.composite
def zero_level_cases(draw):
    """Integer weight rows orthogonal to a positive integer vector q and a
    point with |z_l|^2 proportional to q, so the point is on the zero
    level and every coordinate is nonzero."""
    model = draw(st.sampled_from(("affine", "projective")))
    n = draw(st.integers(2, 3))
    g = draw(st.integers(1, n - 1))
    q = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    # q_j e_i - q_i e_j is orthogonal to q
    gens = [q[j] * np.eye(n, dtype=int)[i] - q[i] * np.eye(n, dtype=int)[j]
            for i, j in itertools.combinations(range(n), 2)]
    coef = st.integers(-3, 3) if n == 2 else st.integers(-1, 1)
    mat = np.array([sum(draw(coef) * v for v in gens) for _ in range(g)])
    if np.linalg.matrix_rank(mat) < g:
        reject()
    phases = np.array(draw(st.lists(st.floats(-math.pi, math.pi), min_size=n, max_size=n)))
    z = np.sqrt(q / q.sum()) * np.exp(1j * phases)
    k = draw(st.integers(40, 45))
    irrep = IrrepLabel(draw(st.lists(st.integers(-2, 2), min_size=g, max_size=g)))
    return WeightMatrix(mat), z, model, k, irrep


@settings(max_examples=100, deadline=None)
@given(case=zero_level_cases())
@example(case=(WeightMatrix(((-1, 2),)), np.sqrt([2 / 3, 1 / 3]) + 0j, "projective", 40, IrrepLabel((0,))))
def test_carries_is_the_character_average_and_the_weight_sum(case):
    """The integer rule agrees with the float average of chi(t) h_t^k over
    the listed elements and with a nonzero weight sum."""
    W, z, model, k, irrep = case
    stab = stabilizer_of(W, z, model)
    terms = [character(irrep, t) * fiber_multiplier(W, t, z) ** k for t in stab.elements]
    x = (z, 0.0) if model == "affine" else z
    weight_sum = equivariant_kernel_weightsum(W, irrep, k, x, x, model)
    assert stab.carries(irrep, k) == (abs(sum(terms) / stab.order) > 0.5) == (not weight_sum.is_zero)


# -- effective volume -------------------------------------------------------


def _orbit_length(W, z, model, order):
    """Arc-length quadrature over the orbit circle, divided by the covering
    multiplicity, for rank-one actions."""
    n = 4096
    thetas = 2.0 * math.pi * np.arange(n) / n
    total = 0.0
    for th in thetas:
        zt = act_affine(W, TorusElement((th,)), z)
        gen = generators_at(W, zt, model)[0]
        total += math.sqrt(norm_sq(gen))
    return (2.0 * math.pi / n) * total / order


def test_effective_volume_p1_balanced():
    assert effective_volume(P1, BALANCED, "projective") == pytest.approx(math.pi, abs=1e-8)


def test_effective_volume_affine_balanced():
    for a in (0.25, 0.5, 1.0):
        z = np.array([a, a], dtype=complex)
        got = effective_volume(P1, z, "affine")
        assert got == pytest.approx(2.0 * math.pi * math.sqrt(2.0) * a, rel=1e-12)


def test_effective_volume_scaling_law():
    z = np.array([0.3, 0.3], dtype=complex)
    v1 = effective_volume(P1, z, "affine")
    v2 = effective_volume(P1, 2.0 * z, "affine")
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_effective_volume_matches_arc_length_oracle():
    cases = [
        (P1, BALANCED, "projective"),
        (P1, np.array([0.5, 0.5], dtype=complex), "affine"),
        (WeightMatrix(((-2, 2),)), BALANCED, "projective"),
    ]
    for W, z, model in cases:
        stab = stabilizer_of(W, z, model)
        got = effective_volume(W, z, model)
        oracle = _orbit_length(W, z, model, stab.order)
        assert got == pytest.approx(oracle, rel=1e-8)


def test_effective_volume_requires_zero_level():
    with pytest.raises(ValueError):
        effective_volume(P1, (1.0, 0.0), "projective")
