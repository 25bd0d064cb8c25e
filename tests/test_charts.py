import cmath
import math

import numpy as np
import pytest

from eqszego.charts import bargmann_chart, chart_point, p1_chart, verify_frame
from eqszego.geometry import hermitian_data
from eqszego.torus import WeightMatrix

P1 = WeightMatrix(((-1, 1),))
M22 = WeightMatrix(((-2, 2),))
BALANCED = np.array([1.0, 1.0]) / math.sqrt(2.0)


def _balanced_p1():
    return p1_chart(BALANCED, P1)


# -- construction and basic mapping -------------------------------------------


def test_bargmann_center_and_eval_zero():
    z1 = np.array([0.4 + 0.1j, -0.3j])
    ch = bargmann_chart(z1, P1)
    np.testing.assert_array_equal(ch.center_base, z1)
    vec, ang = ch.eval(np.zeros(2), 0.0)
    np.testing.assert_array_equal(vec, z1)
    assert ang == 0.0


def test_bargmann_eval_angle_convention():
    # the chart twists the fiber angle by omega(w, z1)
    z1 = np.array([0.5, 0.2 - 0.4j])
    ch = bargmann_chart(z1, P1)
    w = np.array([0.1 + 0.3j, -0.2])
    vec, ang = ch.eval(w, 0.7)
    np.testing.assert_allclose(vec, z1 + w, atol=1e-15)
    assert ang == pytest.approx(hermitian_data(w, z1).omega + 0.7, abs=1e-15)


def test_p1_center_and_eval_zero():
    ch = _balanced_p1()
    np.testing.assert_allclose(ch.center_base, BALANCED, atol=1e-15)
    got = ch.eval(np.array([0.0]), 0.0)
    np.testing.assert_allclose(got, BALANCED, atol=1e-12)


def test_p1_eval_stays_on_sphere():
    ch = _balanced_p1()
    for u, th in ((0.2, 0.0), (0.3j, 1.1), (-0.25 + 0.15j, -2.0)):
        got = ch.eval(np.array([u]), th)
        assert np.vdot(got, got).real == pytest.approx(1.0, abs=1e-12)


def test_p1_eval_fiber_phase():
    ch = _balanced_p1()
    a = ch.eval(np.array([0.2 - 0.1j]), 0.0)
    b = ch.eval(np.array([0.2 - 0.1j]), 0.9)
    np.testing.assert_allclose(b, cmath.exp(0.9j) * a, atol=1e-14)


def test_p1_rejects_center_off_zero_level():
    with pytest.raises(ValueError, match="zero level"):
        p1_chart(np.array([math.sqrt(0.9), math.sqrt(0.1)]), P1)


def test_p1_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        p1_chart(np.array([1.0, 0.0, 0.0]), P1)


def test_p1_rejects_non_unit_center():
    with pytest.raises(ValueError, match="unit"):
        p1_chart(np.array([1.0, 1.0]), P1)


def test_stabilizer_recorded():
    ch = _balanced_p1()
    assert ch.stabilizer.order == 2
    assert p1_chart(BALANCED, M22).stabilizer.order == 4
    assert bargmann_chart(BALANCED.astype(complex), P1).stabilizer.order == 1


# -- tangent identification ---------------------------------------------------


def test_bargmann_tangent_identity():
    ch = bargmann_chart(np.array([0.3, 0.4j]), P1)
    w = np.array([1.0 - 2.0j, 0.5])
    np.testing.assert_array_equal(ch.chart_to_ambient(w), w)


def test_p1_tangent_unitary():
    # chart_to_ambient preserves the Hermitian product, hence is injective
    ch = _balanced_p1()
    for a, b in ((0.3 + 0.1j, -0.2j), (1.0, 0.5 - 0.5j)):
        va = ch.chart_to_ambient(np.array([a]))
        vb = ch.chart_to_ambient(np.array([b]))
        assert complex(np.vdot(vb, va)) == pytest.approx(a * np.conj(b), abs=1e-14)


def test_p1_tangent_is_tangent():
    # ambient image is Hermitian-orthogonal to the center direction
    for ch in (_balanced_p1(), p1_chart(BALANCED, M22)):
        v = ch.chart_to_ambient(np.array([0.7 - 0.2j]))
        assert abs(complex(np.vdot(ch.center_base, v))) < 1e-14


# -- preferred-frame residuals ------------------------------------------------


def test_bargmann_frame_report():
    rep = verify_frame(bargmann_chart(np.array([0.4 + 0.1j, -0.3j]), P1))
    assert rep.norm_residual < 1e-10
    assert rep.gradient_residual < 1e-10
    assert rep.hessian_residual < 1e-10
    assert rep.equivariance_residual < 1e-10


def test_p1_frame_report_balanced():
    rep = verify_frame(_balanced_p1())
    assert rep.norm_residual < 1e-10
    assert rep.gradient_residual < 1e-8
    # finite differences of log(1+|u|^2) at step 1e-4 leave an O(h^2) tail
    assert rep.hessian_residual < 1e-6
    assert rep.equivariance_residual < 1e-10


def test_p1_frame_report_double_weights():
    rep = verify_frame(p1_chart(BALANCED, M22))
    assert rep.norm_residual < 1e-10
    assert rep.gradient_residual < 1e-8
    assert rep.hessian_residual < 1e-6
    assert rep.equivariance_residual < 1e-10


def test_p1_averaging_fixes_tautological_frame():
    # at a balanced center every stabilizer element acts by a scalar, so
    # averaging leaves (1, u) untouched; the identity is exact
    ch = _balanced_p1()
    for u in (0.0, 0.2, -0.1 + 0.3j):
        np.testing.assert_allclose(ch._sigma(u), np.array([1.0, u]), atol=1e-14)


def test_bargmann_log_a_exact():
    ch = bargmann_chart(np.array([0.2, 0.5j]), P1)
    w = np.array([0.3 - 0.1j, 0.25j])
    assert ch.log_a(w) == pytest.approx(float(np.vdot(w, w).real), abs=1e-15)


def test_p1_log_a_second_order():
    # log a(u) = |u|^2 + O(|u|^4) near the center
    ch = _balanced_p1()
    for r in (1e-2, 1e-3):
        got = ch.log_a(np.array([r * cmath.exp(0.4j)]))
        assert abs(got - r * r) < r**4


# -- scaled displacements -----------------------------------------------------


def test_chart_point_at_zero_is_center():
    ch = _balanced_p1()
    np.testing.assert_allclose(chart_point(ch, 5, np.array([0.0])), BALANCED, atol=1e-12)
    bch = bargmann_chart(np.array([0.1, 0.2]), P1)
    vec, ang = chart_point(bch, 5, np.zeros(2))
    np.testing.assert_array_equal(vec, bch.center_base)
    assert ang == 0.0


def test_chart_point_bargmann_formula():
    z1 = np.array([0.3, -0.2 + 0.4j])
    ch = bargmann_chart(z1, P1)
    w = np.array([0.8 - 0.3j, 0.5j])
    k = 7
    vec, ang = chart_point(ch, k, w)
    np.testing.assert_allclose(vec, z1 + w / math.sqrt(k), atol=1e-15)
    assert ang == pytest.approx(hermitian_data(w / math.sqrt(k), z1).omega, abs=1e-15)


def test_chart_point_rejects_radius_violation():
    ch = _balanced_p1()
    with pytest.raises(ValueError, match="chart radius"):
        chart_point(ch, 4, np.array([1.1]))


def test_chart_point_rejects_bad_level():
    ch = _balanced_p1()
    with pytest.raises(ValueError):
        chart_point(ch, 0, np.array([0.1]))


def test_chart_point_distance_projective():
    """Geodesic distance to the displaced point is |w|/sqrt(k) up to O(1/k).

    With vol(P^1) = pi the distance is arccos |<x, y>|.
    """
    ch = _balanced_p1()
    w = np.array([0.3 * cmath.exp(0.25j)])
    for k in (4, 16, 64, 256):
        y = chart_point(ch, k, w)
        dist = math.acos(min(1.0, abs(complex(np.vdot(y, BALANCED.astype(complex))))))
        t = abs(w[0]) / math.sqrt(k)
        assert abs(dist / t - 1.0) < 0.04 / k


def test_chart_point_distance_affine():
    ch = bargmann_chart(np.array([0.5, -0.1j]), P1)
    w = np.array([0.4, 0.3j])
    for k in (3, 50):
        vec, _ = chart_point(ch, k, w)
        dist = float(np.linalg.norm(vec - ch.center_base))
        assert dist == pytest.approx(float(np.linalg.norm(w)) / math.sqrt(k), rel=1e-14)
