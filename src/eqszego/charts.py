"""Heisenberg charts: adapted bundle coordinates around a center point.

A chart trivializes the circle bundle near a center x as
rho(w, theta) = e^{i theta} a(w)^{-1/2} sigma(w), where sigma is a
holomorphic frame satisfying the preferred-frame normalizations at the
center (unit norm, vanishing first covariant derivative, second-order
jet of log a equal to |w|^2) and w runs over an adapted holomorphic
coordinate in which the metric is standard at the center.  Every
element of the center's finite stabilizer pulls sigma back to its fiber
multiplier times sigma; displacement asymptotics of the equivariant
kernels are stated in exactly these coordinates.

Two constructions are provided: the global chart of the affine
(Bargmann) model, whose frame data is exact (log a(w) = |w|^2), and a
chart on the projective line built by moving the center to (1, 0) with
a special unitary, taking the tautological frame (1, w) in the affine
coordinate, and transporting back.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_cvec, hermitian_data, norm_sq
from .torus import (
    ZERO_LEVEL_TOL,
    TorusElement,
    WeightMatrix,
    fiber_multiplier,
    moment_map,
    stabilizer_of,
)

_FD_STEP = 1e-4


@dataclass(frozen=True)
class FrameReport:
    """Residuals of the preferred-frame and equivariance conditions."""

    norm_residual: float
    gradient_residual: float
    hessian_residual: float
    equivariance_residual: float


class BargmannChart:
    """Global chart of the affine model centered at z1.

    eval(w, theta) = (z1 + w, omega0(w, z1) + theta) in the coordinates
    of the trivializing chart; the tangent identification is the
    identity and the underlying preferred frame has log a(w) = |w|^2
    exactly.  The equivariance report needs the stabilizer of z1 under
    the acting weight matrix to be finite.
    """

    def __init__(self, z1, weights: WeightMatrix):
        self.center_base = as_cvec(z1)
        self.n = len(self.center_base)
        self.radius = math.inf
        self.weights = weights

    def eval(self, w, theta: float = 0.0):
        w = as_cvec(w)
        if len(w) != self.n:
            raise ValueError("chart vector has wrong dimension")
        ang = hermitian_data(w, self.center_base).omega + theta
        return (self.center_base + w, ang)

    def chart_to_ambient(self, w) -> np.ndarray:
        return as_cvec(w)

    def log_a(self, w) -> float:
        return norm_sq(w)

    # frame section in the trivializing chart, as a fiber value over z1 + w
    def _sigma_fiber(self, w: np.ndarray) -> complex:
        expo = -complex(np.vdot(self.center_base, w)) - 0.5 * norm_sq(self.center_base)
        return cmath.exp(expo)

    def _sigma_pullback(self, t: TorusElement, w: np.ndarray) -> complex:
        phases = self.weights.matrix.T @ np.asarray(t.angles)
        moved = np.exp(-1j * phases) * (self.center_base + w) - self.center_base
        return self._sigma_fiber(moved)

    def _equivariance_residual(self) -> float:
        worst = 0.0
        samples = _sample_vectors(self.n, 0.3)
        for t in stabilizer_of(self.weights, self.center_base, "affine").elements:
            h = fiber_multiplier(self.weights, t, self.center_base)
            for w in samples:
                ref = self._sigma_fiber(w)
                res = abs(self._sigma_pullback(t, w) - h * ref) / abs(ref)
                worst = max(worst, res)
        return worst


class P1Chart:
    """Heisenberg chart on the projective line around a zero-level point.

    Construction: (a) a special unitary U moves the center x to (1, 0);
    (b) in the affine coordinate w of the chart around [1:0] the
    tautological frame is sigma(w) = (1, w) with a(w) = 1 + |w|^2, and
    the coordinate is already adapted for the Fubini-Study metric
    normalized to vol(P^1) = pi; (c) points and tangent vectors are
    transported back by U^{-1}.  Both coordinates of a center are
    nonzero, so every stabilizer element acts on C^2 as the scalar h_t
    and sigma is equivariant as it stands.  The chart radius 0.5 stays
    well inside the affine chart's range of validity.
    """

    def __init__(self, x, weights: WeightMatrix):
        x = as_cvec(x)
        if len(x) != 2:
            raise ValueError("projective-line chart needs points in C^2")
        nx = math.sqrt(norm_sq(x))
        if abs(nx - 1.0) > 1e-9:
            raise ValueError("center must be a unit vector")
        phi = moment_map(weights, x, "projective")
        if float(np.max(np.abs(phi))) > ZERO_LEVEL_TOL:
            raise ValueError(f"center is not on the zero level: Phi = {phi}")
        if min(abs(x)) <= 1e-12:
            raise ValueError("center has a zero coordinate: its stabilizer is infinite")
        self.center_base = x
        self.weights = weights
        self.n = 1
        self.radius = 0.5
        self.unitary = np.array(
            [[np.conj(x[0]), np.conj(x[1])], [-x[1], x[0]]], dtype=np.complex128
        )

    def eval(self, w, theta: float = 0.0) -> np.ndarray:
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        if w.shape != (1,):
            raise ValueError("chart vector must be one-dimensional")
        s = np.array([1.0, w[0]])
        s = s / math.sqrt(norm_sq(s))
        return self.unitary.conj().T @ (cmath.exp(1j * theta) * s)

    def chart_to_ambient(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        frame_vec = self.unitary.conj().T @ np.array([0.0, 1.0], dtype=np.complex128)
        return w[0] * frame_vec

    def log_a(self, w) -> float:
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        return math.log(norm_sq(np.array([1.0, w[0]])))

    def _equivariance_residual(self) -> float:
        """Largest |e^{i w_l . theta_t} - h_t|: how far each stabilizer
        element is from acting on C^2 as its fiber multiplier."""
        worst = 0.0
        for t in stabilizer_of(self.weights, self.center_base, "projective").elements:
            h = fiber_multiplier(self.weights, t, self.center_base)
            phases = self.weights.matrix.T @ np.asarray(t.angles)
            worst = max(worst, float(np.max(np.abs(np.exp(1j * phases) - h))))
        return worst


def _sample_vectors(n: int, r: float):
    out = []
    for j in range(7):
        v = np.zeros(n, dtype=np.complex128)
        for l in range(n):
            v[l] = r * cmath.exp(2j * math.pi * (j + 2 * l + 1) / 9) / math.sqrt(n)
        out.append(v)
    return out


def bargmann_chart(z1, weights: WeightMatrix) -> BargmannChart:
    """Global affine chart centered at z1."""
    return BargmannChart(z1, weights)


def p1_chart(x, weights: WeightMatrix) -> P1Chart:
    """Projective-line chart centered at the unit vector x."""
    return P1Chart(x, weights)


def verify_frame(chart) -> FrameReport:
    """Finite-difference residuals of the preferred-frame conditions.

    Checks at the chart center: |sigma| = 1; the gradient of log a
    vanishes; the real Hessian of log a equals twice the identity (the
    second-order jet |w|^2 that encodes the curvature normalization);
    and every stabilizer element pulls the frame back to its fiber
    multiplier times the frame, sampled near the center.
    """
    n = chart.n
    h = _FD_STEP

    def f(vec_real) -> float:
        w = vec_real[:n] + 1j * vec_real[n:]
        return chart.log_a(w)

    zero = np.zeros(2 * n)
    f0 = f(zero)
    norm_res = abs(math.exp(0.5 * f0) - 1.0)

    grad = np.zeros(2 * n)
    for i in range(2 * n):
        e = np.zeros(2 * n)
        e[i] = h
        grad[i] = (f(e) - f(-e)) / (2 * h)
    grad_res = float(np.linalg.norm(grad))

    hess = np.zeros((2 * n, 2 * n))
    for i in range(2 * n):
        ei = np.zeros(2 * n)
        ei[i] = h
        hess[i, i] = (f(ei) - 2.0 * f0 + f(-ei)) / (h * h)
        for j in range(i + 1, 2 * n):
            ej = np.zeros(2 * n)
            ej[j] = h
            val = (f(ei + ej) - f(ei - ej) - f(-ei + ej) + f(-ei - ej)) / (4 * h * h)
            hess[i, j] = val
            hess[j, i] = val
    hess_res = float(np.linalg.norm(hess - 2.0 * np.eye(2 * n)))

    return FrameReport(
        norm_residual=norm_res,
        gradient_residual=grad_res,
        hessian_residual=hess_res,
        equivariance_residual=chart._equivariance_residual(),
    )


def chart_point(chart, k: int, w):
    """Bundle point at displacement w/sqrt(k) from the chart center.

    The rescaled displacement must stay strictly inside the chart
    radius.
    """
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    if k <= 0:
        raise ValueError("level k must be positive")
    step = float(np.linalg.norm(w)) / math.sqrt(k)
    if step >= chart.radius:
        raise ValueError(
            f"displacement {step:.4g} exceeds the chart radius {chart.radius:.4g}"
        )
    return chart.eval(w / math.sqrt(k), 0.0)
