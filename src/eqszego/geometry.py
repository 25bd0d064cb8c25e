"""Hermitian linear algebra on the model tangent space C^n.

Conventions, fixed once and used everywhere:

  * Hermitian product   H(a, b) = sum_l a_l * conj(b_l)
  * Riemannian metric   g = Re H
  * symplectic form     omega = -Im H,   so omega(a, i*a) = g(a, a)

At a point on the zero level of the moment map the tangent space splits
into three mutually g-orthogonal pieces:

  vertical    = span_R of the torus generators,
  transverse  = i * vertical,
  horizontal  = g-orthocomplement of (vertical + transverse),

and the horizontal piece is a complex subspace.  SplitFrame holds
orthonormal bases for all three; split() projects a vector onto them.
psi2 and q_form are the quadratic exponents appearing in the
leading-order kernel asymptotics, and model_phase is the phase function
whose unique stationary point drives them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

_DEPENDENCE_TOL = 1e-10


class HermitianData(NamedTuple):
    h: complex
    g: float
    omega: float


def as_cvec(a) -> np.ndarray:
    v = np.asarray(a, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError("expected a one-dimensional complex vector")
    return v


def hermitian_data(a, b) -> HermitianData:
    """H(a,b) together with its real part g and symplectic part -Im."""
    a = as_cvec(a)
    b = as_cvec(b)
    if a.shape != b.shape:
        raise ValueError("vectors have different lengths")
    h = complex(np.vdot(b, a))  # vdot conjugates its first argument
    return HermitianData(h, h.real, -h.imag)


def norm_sq(a) -> float:
    a = as_cvec(a)
    return float(np.vdot(a, a).real)


def psi2(w, v) -> complex:
    """w . conj(v) - (|w|^2 + |v|^2)/2; Re psi2 = -|w - v|^2 / 2."""
    w = as_cvec(w)
    v = as_cvec(v)
    if w.shape != v.shape:
        raise ValueError("vectors have different lengths")
    return complex(np.vdot(v, w)) - 0.5 * (norm_sq(w) + norm_sq(v))


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(b, a).real)


def _mgs(vectors: Sequence[np.ndarray]):
    """Modified Gram-Schmidt over R with one re-orthogonalization pass.

    Returns (basis, dependent_index); dependent_index is None when all
    inputs were independent, else the index of the first vector whose
    residual fell below _DEPENDENCE_TOL relative to its input norm.
    """
    basis: list[np.ndarray] = []
    for idx, v in enumerate(vectors):
        v = as_cvec(v)
        scale = math.sqrt(norm_sq(v))
        if scale == 0.0:
            return basis, idx
        u = v.copy()
        for _ in range(2):
            for e in basis:
                u = u - _real_dot(u, e) * e
        r = math.sqrt(norm_sq(u))
        if r <= _DEPENDENCE_TOL * scale:
            return basis, idx
        basis.append(u / r)
    return basis, None


def _complete_basis(partial: Sequence[np.ndarray], n: int) -> list[np.ndarray]:
    """Extend a real-orthonormal family to a real basis of C^n ~ R^{2n}."""
    basis = list(partial)
    extra: list[np.ndarray] = []
    for j in range(n):
        for unit in (1.0, 1.0j):
            cand = np.zeros(n, dtype=np.complex128)
            cand[j] = unit
            u = cand
            for _ in range(2):
                for e in basis:
                    u = u - _real_dot(u, e) * e
            r = math.sqrt(norm_sq(u))
            if r > 1e-6:
                u = u / r
                basis.append(u)
                extra.append(u)
            if len(basis) == 2 * n:
                return extra
    if len(basis) != 2 * n:
        raise RuntimeError("failed to complete orthonormal basis")
    return extra


@dataclass(frozen=True)
class SplitFrame:
    """Orthonormal frames for the vertical/horizontal/transverse splitting."""

    generators: tuple
    horizontal_basis: tuple
    on_vertical: tuple = field(repr=False)
    on_transverse: tuple = field(repr=False)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return len(self.generators[0])


@dataclass(frozen=True)
class TangentSplit:
    """Projections of one tangent vector onto the three frame subspaces."""

    v_part: np.ndarray
    h_part: np.ndarray
    t_part: np.ndarray
    frame: SplitFrame = field(repr=False)

    @property
    def total(self) -> np.ndarray:
        return self.v_part + self.h_part + self.t_part


def build_split_frame(generators: Sequence) -> SplitFrame:
    """Orthonormal splitting frame from a real basis of the generator span.

    The horizontal basis is the g-orthocomplement of
    span(generators) + span(i*generators), computed by Gram-Schmidt.
    Errors: dependent generators, or generators that do not span an
    isotropic subspace (their span meets its i-image).
    """
    gens = tuple(as_cvec(v) for v in generators)
    if not gens:
        raise ValueError("at least one generator required")
    n = len(gens[0])
    g = len(gens)
    if any(len(v) != n for v in gens):
        raise ValueError("generators have inconsistent lengths")

    on_v, bad = _mgs(gens)
    if bad is not None:
        raise ValueError(f"generators are linearly dependent (index {bad})")
    on_t = tuple(1.0j * e for e in on_v)

    combined, bad = _mgs(list(gens) + [1.0j * v for v in gens])
    if bad is not None:
        raise ValueError("generators do not span an isotropic subspace: their span meets its i-image")
    horiz = _complete_basis(combined, n)
    if len(horiz) != 2 * (n - g):
        raise RuntimeError("horizontal dimension mismatch")

    return SplitFrame(
        generators=gens,
        horizontal_basis=tuple(horiz),
        on_vertical=tuple(on_v),
        on_transverse=on_t,
    )


def _project(w: np.ndarray, basis: Sequence[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(w)
    for e in basis:
        out = out + _real_dot(w, e) * e
    return out


def split(frame: SplitFrame, w) -> TangentSplit:
    """Orthogonal projections of w onto the three frame subspaces."""
    w = as_cvec(w)
    if len(w) != frame.dim:
        raise ValueError("vector dimension does not match frame")
    return TangentSplit(
        v_part=_project(w, frame.on_vertical),
        h_part=_project(w, frame.horizontal_basis),
        t_part=_project(w, frame.on_transverse),
        frame=frame,
    )


def q_form(sw: TangentSplit, sv: TangentSplit) -> complex:
    """-|v_t|^2 - |w_t|^2 + i*(omega(w_v, w_t) - omega(v_v, v_t))."""
    if sw.frame is not sv.frame:
        raise ValueError("splits come from different frames")
    re = -norm_sq(sv.t_part) - norm_sq(sw.t_part)
    im = hermitian_data(sw.v_part, sw.t_part).omega
    im -= hermitian_data(sv.v_part, sv.t_part).omega
    return complex(re, im)


def model_phase(t, theta):
    """Phase i*t*(1 - e^{i*theta}) - theta with gradient and Hessian.

    Stationary exactly at (t, theta) = (1, 0), where the Hessian is
    [[0, 1], [1, i]]; the imaginary part t*(1 - cos theta) is
    nonnegative for t >= 0.  t and theta broadcast to a common shape S;
    the value has shape S, the gradient (2, *S) and the Hessian
    (2, 2, *S), so scalars give a scalar, a 2-vector and a 2x2 matrix.
    """
    t, theta = np.broadcast_arrays(t, theta)
    eith = np.empty(theta.shape, dtype=np.complex128)
    eith.real, eith.imag = np.cos(theta), np.sin(theta)
    value = 1.0j * t * (1.0 - eith) - theta
    grad = np.array([1.0j * (1.0 - eith), t * eith - 1.0])
    hess = np.array([[np.zeros_like(eith), eith], [eith, 1.0j * t * eith]])
    return value, grad, hess
