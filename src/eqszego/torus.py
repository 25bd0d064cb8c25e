"""Diagonal torus actions on C^{d+1} and on projective space.

A rank-g torus acts through an integer weight matrix W of shape
(g, d+1): the element with angle vector theta multiplies coordinate l
by exp(i <w_l, theta>), where w_l is the l-th column.  The same map
descends to projective space on homogeneous coordinates.

The moment map of the action (normalized for the doubled symplectic
form, see effective_volume and the kernel asymptotics) is
Phi_i(z) = sum_l W[i,l] |z_l|^2, divided by |z|^2 in the projective
model.  Stabilizers of points are computed exactly as finite subgroups
of the torus via the Smith normal form of the integer constraint
lattice; points whose constraint lattice has deficient rank have
positive-dimensional stabilizer and are rejected.

Projective tangent vectors at [z] are represented in the Hermitian
orthocomplement of C*z for a unit representative z, which carries the
Fubini-Study metric normalized so a projective line has volume pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from .geometry import as_cvec, norm_sq

_TWO_PI = 2.0 * math.pi
_SUPPORT_TOL = 1e-12
_FIBER_TOL = 1e-10
_SCALAR_ACTION_TOL = 1e-10
ZERO_LEVEL_TOL = 1e-10  # max |Phi| accepted as the zero level, by every module


class WeightMatrix:
    """Integer weight matrix, one row per torus factor, one column per coordinate."""

    def __init__(self, rows):
        mat = np.asarray(rows)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("weight matrix must be two-dimensional and nonempty")
        if not np.all(mat == np.round(mat)):
            raise ValueError("weight matrix entries must be integers")
        self._mat = mat.astype(np.int64)

    @property
    def matrix(self) -> np.ndarray:
        return self._mat.copy()

    @property
    def g(self) -> int:
        return self._mat.shape[0]

    @property
    def n_coords(self) -> int:
        return self._mat.shape[1]

    def column(self, l: int) -> np.ndarray:
        return self._mat[:, l].copy()

    def __repr__(self) -> str:
        return f"WeightMatrix({self._mat.tolist()})"


@dataclass(frozen=True)
class TorusElement:
    """Torus element given by its angle vector, one angle per factor."""

    angles: tuple

    def __init__(self, angles):
        norm = tuple(float(a) % _TWO_PI for a in np.atleast_1d(np.asarray(angles, dtype=float)))
        object.__setattr__(self, "angles", norm)

    @property
    def g(self) -> int:
        return len(self.angles)

    def compose(self, other: "TorusElement") -> "TorusElement":
        if other.g != self.g:
            raise ValueError("rank mismatch")
        return TorusElement(tuple(a + b for a, b in zip(self.angles, other.angles)))

    def inverse(self) -> "TorusElement":
        return TorusElement(tuple(-a for a in self.angles))

    @staticmethod
    def identity(g: int) -> "TorusElement":
        return TorusElement((0.0,) * g)


@dataclass(frozen=True)
class IrrepLabel:
    """Character label of the torus: an integer vector, one entry per factor."""

    weights: tuple

    def __init__(self, weights):
        w = np.atleast_1d(np.asarray(weights))
        if not np.all(w == np.round(w)):
            raise ValueError("irrep label entries must be integers")
        object.__setattr__(self, "weights", tuple(int(x) for x in w))

    @property
    def g(self) -> int:
        return len(self.weights)


def character(irrep: IrrepLabel, t: TorusElement) -> complex:
    """Character value exp(i <irrep, theta>)."""
    if irrep.g != t.g:
        raise ValueError("rank mismatch between irrep label and torus element")
    phase = sum(w * a for w, a in zip(irrep.weights, t.angles))
    return complex(math.cos(phase), math.sin(phase))


def act_affine(W: WeightMatrix, t: TorusElement, z) -> np.ndarray:
    """(e^{i <w_l, theta>} z_l)_l; also the projective action on representatives."""
    z = as_cvec(z)
    _check_shapes(W, z, t=t)
    phases = W.matrix.T @ np.asarray(t.angles)
    return np.exp(1j * phases) * z


def moment_map(W: WeightMatrix, z, model: str) -> np.ndarray:
    """Phi_i(z) = sum_l W[i,l] |z_l|^2, divided by |z|^2 in the projective model."""
    z = as_cvec(z)
    _check_shapes(W, z)
    mods = np.abs(z) ** 2
    phi = W.matrix @ mods
    if model == "affine":
        return phi.astype(float)
    if model == "projective":
        total = mods.sum()
        if total == 0.0:
            raise ValueError("projective moment map undefined at z = 0")
        return (phi / total).astype(float)
    raise ValueError(f"unknown model {model!r}")


def generators_at(W: WeightMatrix, z, model: str) -> list:
    """Infinitesimal action vectors at z, one per torus factor.

    Affine: (i W[i,l] z_l)_l.  Projective: the same vector projected
    orthogonally to C*z after normalizing z to the unit sphere; a factor
    that acts on [z] by a scalar gets the zero vector, not rounding noise.
    """
    if model not in ("affine", "projective"):
        raise ValueError(f"unknown model {model!r}")
    z = as_cvec(z)
    _check_shapes(W, z)
    if model == "projective":
        nz = math.sqrt(norm_sq(z))
        if nz == 0.0:
            raise ValueError("projective point needs a nonzero representative")
        z = z / nz
    gens = []
    for i in range(W.g):
        v = 1j * W.matrix[i, :] * z
        if model == "projective":
            u = v - complex(np.vdot(z, v)) * z
            scalar = norm_sq(u) <= _SCALAR_ACTION_TOL**2 * norm_sq(v)
            v = np.zeros_like(u) if scalar else u
        gens.append(v)
    return gens


# -- integer Smith normal form ----------------------------------------------


def smith_normal_form(mat):
    """Decompose an integer matrix as D = U @ mat @ V.

    U and V are unimodular, D is diagonal with nonnegative entries
    d_1 | d_2 | ... .  Plain Python integers throughout, so there is no
    overflow for the small constraint lattices handled here.
    """
    A = [[int(x) for x in row] for row in np.atleast_2d(np.asarray(mat))]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, q):  # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, q):  # col_i -= q * col_j
        for r in A:
            r[i] -= q * r[j]
        for r in V:
            r[i] -= q * r[j]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    def reduce_all():
        t = 0
        while t < min(m, n):
            piv = None
            for i in range(t, m):
                for j in range(t, n):
                    if A[i][j] != 0 and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                return
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            while True:
                clean = True
                for i in range(t + 1, m):
                    if A[i][t] != 0:
                        add_row(i, t, A[i][t] // A[t][t])
                        if A[i][t] != 0:
                            swap_rows(t, i)
                            clean = False
                for j in range(t + 1, n):
                    if A[t][j] != 0:
                        add_col(j, t, A[t][j] // A[t][t])
                        if A[t][j] != 0:
                            swap_cols(t, j)
                            clean = False
                if clean:
                    break
            t += 1

    reduce_all()
    while True:
        for i in range(min(m, n)):
            if A[i][i] < 0:
                negate_row(i)
        violation = None
        for i in range(min(m, n) - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a != 0 and b != 0 and b % a != 0:
                violation = i
                break
        if violation is None:
            break
        add_col(violation, violation + 1, -1)
        reduce_all()
    return U, A, V


# -- stabilizers -------------------------------------------------------------


@dataclass(frozen=True)
class Stabilizer:
    """Finite stabilizer subgroup, elements sorted by angle vector."""

    elements: tuple

    def __post_init__(self):
        _check_group_axioms(self.elements, self.order)

    @property
    def order(self) -> int:
        return len(self.elements)


def _angle_key(t: TorusElement, order: int):
    key = []
    for a in t.angles:
        q = int(round((a / _TWO_PI) * order)) % order
        key.append(q)
    return tuple(key)


def _check_group_axioms(elements, order):
    keys = {_angle_key(t, order) for t in elements}
    if len(keys) != order:
        raise ValueError("stabilizer elements are not distinct")
    if _angle_key(TorusElement.identity(elements[0].g), order) not in keys:
        raise ValueError("stabilizer lacks the identity")
    for t in elements:
        if _angle_key(t.inverse(), order) not in keys:
            raise ValueError("stabilizer not closed under inverse")
    for t in elements:
        for s in elements:
            if _angle_key(t.compose(s), order) not in keys:
                raise ValueError("stabilizer not closed under composition")


def _support(z: np.ndarray):
    return [l for l in range(len(z)) if abs(z[l]) > _SUPPORT_TOL]


def stabilizer_of(W: WeightMatrix, z, model: str) -> Stabilizer:
    """All torus elements fixing z (affine) or [z] (projective).

    Writing theta = 2*pi*x, the fixing condition is B x in Z^s for an
    integer matrix B: the supported weight columns in the affine model,
    their differences against the first supported column in the
    projective one.  The Smith normal form D = U B V turns this into
    independent congruences d_i y_i in Z on y = V^{-1} x, so the
    stabilizer is finite exactly when rank B = g, with order d_1...d_g
    and elements x = V y, y_i in {0, 1/d_i, ..., (d_i-1)/d_i}.
    """
    z = as_cvec(z)
    _check_shapes(W, z)
    support = _support(z)
    if not support:
        raise ValueError("point is zero; stabilizer is the whole torus")
    if model == "affine":
        rows = [W.column(l) for l in support]
    elif model == "projective":
        base = W.column(support[0])
        rows = [W.column(l) - base for l in support[1:]]
    else:
        raise ValueError(f"unknown model {model!r}")

    g = W.g
    if not rows:
        raise ValueError("stabilizer is infinite: no constraints on the support")
    _, D, V = smith_normal_form(rows)
    divisors = [D[i][i] for i in range(min(len(D), g))]
    rank = sum(1 for d in divisors if d != 0)
    if rank < g:
        raise ValueError(
            f"stabilizer is infinite: constraint lattice has rank {rank} < {g}"
        )
    divisors = divisors[:g]
    Vmat = np.asarray(V, dtype=float)

    elements = []
    for combo in _iproduct(*(range(d) for d in divisors)):
        y = np.array([c / d for c, d in zip(combo, divisors)])
        x = (Vmat @ y) % 1.0
        elements.append(TorusElement(tuple(_TWO_PI * xi for xi in x)))
    elements.sort(key=lambda t: t.angles)
    return Stabilizer(elements=tuple(elements))


def fiber_multiplier(W: WeightMatrix, t: TorusElement, z) -> complex:
    """Common value of e^{i <w_l, theta>} over the support of z.

    For a stabilizer element this is the unit scalar by which the lifted
    action moves the fiber over the fixed point.  Inconsistent values on
    the support mean t does not stabilize [z].
    """
    z = as_cvec(z)
    _check_shapes(W, z, t=t)
    support = _support(z)
    if not support:
        raise ValueError("point is zero; no fiber multiplier")
    phases = W.matrix.T @ np.asarray(t.angles)
    values = [complex(math.cos(phases[l]), math.sin(phases[l])) for l in support]
    for v in values[1:]:
        if abs(v - values[0]) > _FIBER_TOL:
            raise ValueError("element does not act by a common scalar on the support")
    return values[0]


def effective_volume(W: WeightMatrix, z, model: str) -> float:
    """Riemannian volume of the torus orbit of the base point.

    (2*pi)^g * sqrt(det Gram) / |stabilizer|, with the Gram matrix of
    the generators in the flat metric (affine) or the Fubini-Study
    metric normalized to vol(P^1) = pi (projective).  Requires the point
    to lie on the zero level of the moment map.
    """
    z = as_cvec(z)
    phi = moment_map(W, z, model)
    if float(np.max(np.abs(phi))) > ZERO_LEVEL_TOL:
        raise ValueError(f"point is not on the zero level: Phi = {phi}")
    gens = generators_at(W, z, model)
    g = W.g
    gram = np.empty((g, g))
    for i in range(g):
        for j in range(g):
            gram[i, j] = float(np.vdot(gens[j], gens[i]).real)
    det = float(np.linalg.det(gram))
    if det <= 0.0:
        raise ValueError("degenerate orbit: generator Gram matrix is singular")
    stab = stabilizer_of(W, z, model)
    return (_TWO_PI**g) * math.sqrt(det) / stab.order


def _check_shapes(W: WeightMatrix, z: np.ndarray, t: TorusElement | None = None):
    if len(z) != W.n_coords:
        raise ValueError(
            f"point has {len(z)} coordinates, weight matrix expects {W.n_coords}"
        )
    if t is not None and t.g != W.g:
        raise ValueError(f"torus element has rank {t.g}, weight matrix has {W.g}")
