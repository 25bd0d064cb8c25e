import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from eqszego.geometry import (
    build_split_frame,
    hermitian_data,
    model_phase,
    norm_sq,
    psi2,
    q_form,
    split,
)
from eqszego.torus import generators_at
from test_torus import BALANCED, P1, torus_cases


def _rand_cvec(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# -- hermitian_data -----------------------------------------------------------


def test_hermitian_data_unit_vector():
    h, g, om = hermitian_data((1.0, 0.0), (1.0, 0.0))
    assert h == 1.0 + 0.0j
    assert g == 1.0
    assert om == 0.0


def test_hermitian_data_forced_by_definition():
    h, g, om = hermitian_data((1.0,), (1j,))
    assert h == pytest.approx(-1j)
    assert g == pytest.approx(0.0)
    assert om == pytest.approx(1.0)


def test_kaehler_compatibility():
    # omega(a, i a) = g(a, a) = |a|^2
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = _rand_cvec(rng, 3)
        d = hermitian_data(a, 1j * a)
        assert d.omega == pytest.approx(norm_sq(a), rel=1e-12)
        assert hermitian_data(a, a).g == pytest.approx(norm_sq(a), rel=1e-12)


def test_hermitian_data_symmetries():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = _rand_cvec(rng, 4)
        b = _rand_cvec(rng, 4)
        ab = hermitian_data(a, b)
        ba = hermitian_data(b, a)
        assert ab.omega == pytest.approx(-ba.omega, rel=1e-12, abs=1e-12)
        assert ab.g == pytest.approx(ba.g, rel=1e-12, abs=1e-12)
        assert hermitian_data(a, 1j * b).omega == pytest.approx(ab.g, rel=1e-12, abs=1e-12)


def test_hermitian_data_dimension_mismatch():
    with pytest.raises(ValueError):
        hermitian_data((1.0, 0.0), (1.0,))


# -- psi2 ---------------------------------------------------------------------


def test_psi2_vanishes_on_diagonal():
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = _rand_cvec(rng, 3)
        assert psi2(w, w) == pytest.approx(0.0, abs=1e-12)


def test_psi2_single_nonzero_argument():
    assert psi2((1.0, 0.0), (0.0, 0.0)) == pytest.approx(-0.5)


def test_psi2_real_part_identity():
    # Re psi2(w, v) = -|w - v|^2 / 2
    assert psi2((1.0,), (1j,)).real == pytest.approx(-1.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        w = _rand_cvec(rng, 2)
        v = _rand_cvec(rng, 2)
        assert psi2(w, v).real == pytest.approx(-0.5 * norm_sq(w - v), rel=1e-12, abs=1e-12)
        assert psi2(w, v) == pytest.approx(np.conj(psi2(v, w)), rel=1e-12, abs=1e-12)


# -- frames and splits --------------------------------------------------------


def test_frame_with_no_horizontal_space():
    frame = build_split_frame([(1j,)])
    assert frame.rank == 1
    assert len(frame.horizontal_basis) == 0


def test_frame_dimension_count():
    rows_by_case = {
        (2, 1): [(-1, 1)],
        (3, 1): [(1, 0, -1)],
        (3, 2): [(1, 0, -1), (0, 1, 2)],
        (4, 2): [(1, 0, -1, 2), (0, 1, 1, -1)],
    }
    rng = np.random.default_rng(3)
    for (n, g), rows in rows_by_case.items():
        z = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
        gens = [1j * np.asarray(row) * z for row in rows]
        frame = build_split_frame(gens)
        assert len(frame.horizontal_basis) == 2 * (n - g)


def test_balanced_frame_horizontal_is_diagonal_line():
    """Weights (-1,1) at (1,1)/sqrt(2): the orthocomplement of the orbit
    directions is the complex line through (1,1)."""
    gen = np.array([-1j, 1j]) / math.sqrt(2.0)
    frame = build_split_frame([gen])
    diag = np.array([1.0, 1.0]) / math.sqrt(2.0)
    for h in frame.horizontal_basis:
        # h lies in span_C{(1,1)}: projecting out that line leaves nothing
        resid = h - np.vdot(diag, h) * diag
        assert math.sqrt(norm_sq(resid)) < 1e-12


def test_brute_force_orthocomplement_oracle():
    """horizontal_basis spans the same real subspace as a dense null-space
    computation on the real Gram system."""
    rng = np.random.default_rng(8)
    z = _rand_cvec(rng, 3)
    gens = [1j * np.array([1, 0, -1]) * z, 1j * np.array([0, 1, 2]) * z]
    frame = build_split_frame(gens)

    def realify(vec):
        return np.concatenate([vec.real, vec.imag])

    pinned = [realify(u) for u in list(frame.generators) + [1j * u for u in frame.generators]]
    A = np.array(pinned)
    # dense oracle: null space of A acting on R^{2n}
    _, s, vt = np.linalg.svd(A)
    null = vt[len(pinned):]
    assert null.shape[0] == len(frame.horizontal_basis)
    for h in frame.horizontal_basis:
        hr = realify(h)
        coeffs = null @ hr
        assert np.linalg.norm(null.T @ coeffs - hr) < 1e-10


def test_dependent_generators_rejected():
    with pytest.raises(ValueError):
        build_split_frame([(1j, 0.0), (2j, 0.0)])


def test_split_of_pure_components():
    gen = np.array([-1j, 1j]) / math.sqrt(2.0)
    frame = build_split_frame([gen])
    sv = split(frame, gen)
    assert math.sqrt(norm_sq(sv.v_part - gen)) < 1e-12
    assert math.sqrt(norm_sq(sv.h_part)) < 1e-12
    assert math.sqrt(norm_sq(sv.t_part)) < 1e-12
    st = split(frame, 1j * gen)
    assert math.sqrt(norm_sq(st.t_part - 1j * gen)) < 1e-12
    assert math.sqrt(norm_sq(st.v_part)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(case=torus_cases(), coords=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=3, max_size=3))
@example(case=(P1, BALANCED.astype(complex), "projective"), coords=[0.3 - 1.1j, -0.7 + 0.2j, 0.0])
def test_split_reconstructs_and_is_orthogonal(case, coords):
    """On the frames of torus_cases and any vector, the three parts add
    back up and are pairwise orthogonal."""
    W, z, model = case
    try:
        frame = build_split_frame(generators_at(W, z, model))
    except ValueError as exc:
        assert "dependent" in str(exc) or "isotropic" in str(exc)
        reject()
    w = np.array(coords[: len(z)])
    s = split(frame, w)
    assert math.sqrt(norm_sq(s.total - w)) <= 1e-12 * max(1.0, math.sqrt(norm_sq(w)))
    for a, b in ((s.v_part, s.h_part), (s.v_part, s.t_part), (s.h_part, s.t_part)):
        assert abs(hermitian_data(a, b).g) < 1e-12


def test_split_matches_least_squares_oracle():
    gen = np.array([-1j, 1j]) / math.sqrt(2.0)
    frame = build_split_frame([gen])
    w = np.array([1.0 + 0.0j, 0.0 + 0.0j])
    s = split(frame, w)

    def realify(vec):
        return np.concatenate([vec.real, vec.imag])

    basis = [realify(gen)]
    A = np.array(basis).T
    coef, *_ = np.linalg.lstsq(A, realify(w), rcond=None)
    v_oracle = (A @ coef)
    assert np.linalg.norm(realify(s.v_part) - v_oracle) < 1e-12
    assert math.sqrt(norm_sq(s.total - w)) < 1e-12


def test_split_idempotent():
    rng = np.random.default_rng(6)
    gen = 1j * np.array([1, -1, 2]) * _rand_cvec(rng, 3)
    frame = build_split_frame([gen])
    w = _rand_cvec(rng, 3)
    s = split(frame, w)
    for part, name in ((s.v_part, "v_part"), (s.h_part, "h_part"), (s.t_part, "t_part")):
        again = split(frame, part)
        assert math.sqrt(norm_sq(getattr(again, name) - part)) < 1e-12


def test_horizontal_space_is_i_invariant():
    rng = np.random.default_rng(10)
    z = _rand_cvec(rng, 3)
    frame = build_split_frame([1j * np.array([-1, 1, 0]) * z])
    for h in frame.horizontal_basis:
        s = split(frame, 1j * h)
        assert math.sqrt(norm_sq(1j * h - s.h_part)) < 1e-10


# -- q_form ---------------------------------------------------------------


def test_q_form_zero_cases():
    gen = np.array([-1j, 1j]) / math.sqrt(2.0)
    frame = build_split_frame([gen])
    z = split(frame, np.zeros(2, dtype=complex))
    assert q_form(z, z) == 0.0
    # vertical-only displacements: every term carries a transverse factor
    sv = split(frame, 0.3 * gen)
    sw = split(frame, -0.7 * gen)
    assert q_form(sw, sv) == pytest.approx(0.0, abs=1e-12)


def test_q_form_unit_convention():
    # n=1, unit u: w_v = u, w_t = i u, v = 0 gives Q = -1 + i
    frame = build_split_frame([(1j,)])
    u = frame.generators[0]
    sw = split(frame, u + 1j * u)
    sv = split(frame, np.zeros(1, dtype=complex))
    assert q_form(sw, sv) == pytest.approx(-1.0 + 1.0j, rel=1e-12)


def test_q_form_frame_mismatch():
    f1 = build_split_frame([(1j,)])
    f2 = build_split_frame([(2j,)])
    with pytest.raises(ValueError):
        q_form(split(f1, (0.1,)), split(f2, (0.1,)))


def test_q_form_real_part_nonpositive():
    rng = np.random.default_rng(12)
    gen = np.array([-1j, 1j]) / math.sqrt(2.0)
    frame = build_split_frame([gen])
    for _ in range(50):
        sw = split(frame, _rand_cvec(rng, 2))
        sv = split(frame, _rand_cvec(rng, 2))
        assert q_form(sw, sv).real <= 1e-15


# -- model phase --------------------------------------------------------------


def test_model_phase_stationary_point():
    val, grad, hess = model_phase(1.0, 0.0)
    assert val == 0.0
    assert grad[0] == 0.0 and grad[1] == 0.0
    np.testing.assert_array_equal(hess, np.array([[0.0, 1.0], [1.0, 1j]]))


def test_model_phase_nonnegative_imaginary_part():
    for t in np.linspace(0.05, 2.0, 40):
        for th in np.linspace(-math.pi + 1e-9, math.pi - 1e-9, 81):
            val, _, _ = model_phase(float(t), float(th))
            assert val.imag >= -1e-15


def test_model_phase_derivatives_match_finite_differences():
    h = 1e-5
    for t0, th0 in ((0.8, 0.3), (1.3, -0.9), (2.0, 1.7)):
        val, grad, hess = model_phase(t0, th0)

        def f(t, th):
            return model_phase(t, th)[0]

        d_t = (f(t0 + h, th0) - f(t0 - h, th0)) / (2 * h)
        d_th = (f(t0, th0 + h) - f(t0, th0 - h)) / (2 * h)
        assert d_t == pytest.approx(grad[0], rel=1e-6, abs=1e-8)
        assert d_th == pytest.approx(grad[1], rel=1e-6, abs=1e-8)
        d_tt = (f(t0 + h, th0) - 2 * f(t0, th0) + f(t0 - h, th0)) / h**2
        d_hh = (f(t0, th0 + h) - 2 * f(t0, th0) + f(t0, th0 - h)) / h**2
        d_th2 = (
            f(t0 + h, th0 + h) - f(t0 + h, th0 - h) - f(t0 - h, th0 + h) + f(t0 - h, th0 - h)
        ) / (4 * h**2)
        assert d_tt == pytest.approx(hess[0, 0], rel=1e-4, abs=1e-5)
        assert d_hh == pytest.approx(hess[1, 1], rel=1e-4, abs=1e-5)
        assert d_th2 == pytest.approx(hess[0, 1], rel=1e-4, abs=1e-5)


def _phase_by_hand(t: float, theta: float):
    """The model phase in Python complex arithmetic, as a bitwise reference."""
    eith = complex(math.cos(theta), math.sin(theta))
    value = 1.0j * t * (1.0 - eith) - theta
    grad = [1.0j * (1.0 - eith), t * eith - 1.0]
    hess = [[0.0, eith], [eith, 1.0j * t * eith]]
    return value, grad, hess


def _bits(x) -> np.ndarray:
    """The raw words of a complex array, in C order, so signed zeros count."""
    return np.ascontiguousarray(x, dtype=np.complex128).reshape(-1).view(np.uint64)


def test_model_phase_grid_call_matches_scalar_calls_bitwise():
    """One array call over the phase experiment's 80 x 161 grid gives the
    bits of 12,880 scalar calls, and those of the by-hand reference."""
    ts, ths = np.linspace(0.05, 4.0, 80), np.linspace(-math.pi, math.pi, 161)
    t, th = np.meshgrid(ts, ths, indexing="ij")
    value, grad, hess = model_phase(t, th)
    one = model_phase(0.7, -2.1)
    assert np.ndim(one[0]) == 0 and one[1].shape == (2,) and one[2].shape == (2, 2)
    assert value.shape == (80, 161) and grad.shape == (2, 80, 161) and hess.shape == (2, 2, 80, 161)
    for phase in (model_phase, _phase_by_hand):
        calls = [phase(float(a), float(b)) for a, b in zip(t.ravel(), th.ravel())]
        values = np.array([c[0] for c in calls]).reshape(80, 161)
        grads = np.moveaxis(np.array([c[1] for c in calls]).reshape(80, 161, 2), -1, 0)
        hessians = np.moveaxis(np.array([c[2] for c in calls]).reshape(80, 161, 2, 2), (-2, -1), (0, 1))
        np.testing.assert_array_equal(_bits(values), _bits(value))
        np.testing.assert_array_equal(_bits(grads), _bits(grad))
        np.testing.assert_array_equal(_bits(hessians), _bits(hess))
    outer = model_phase(ts[:, None], ths[None, :])
    for got, want in zip(outer, (value, grad, hess)):
        np.testing.assert_array_equal(_bits(got), _bits(want))

