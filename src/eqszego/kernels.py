"""Exact level-k kernels for the two model geometries, in log arithmetic.

Affine (Bargmann) model: bundle points are chart pairs (z, theta) for
the global trivializing chart, and the full kernel is
(k/pi)^n * exp(k*(i*(theta - theta') + psi2(z, z'))).  Projective model:
bundle points are unit vectors in C^{d+1}; the monomials
sqrt((k+d)!/(pi^d J!)) z^J are an orthonormal basis of the level-k
space and the full kernel is ((k+d)!/(pi^d k!)) <x, y>^k.

The equivariant kernel for a torus character is the character-weighted
group average of the full kernel.  It is computed two independent ways:

  * weight-sum: one series, sum of c^J / J! over the lattice points
    J >= 0 with -W.J = irrep, enumerated as one int64 block and added by
    one log-sum-exp.  Projective: c = x conj(y), |J| = k, times
    (k+d)!/pi^d, exact.  Affine: c = k a conj(b), every degree up to a
    truncation whose tail is provably below e^-40 of the largest term;
  * quadrature: tensor-product trapezoid rule over the torus at a node
    count N certified by a Cauchy bound on its aliasing, then one
    confirmation pass on the same grid shifted by half a step in every
    angle; the average of the two must agree with the first to 1e-12
    relative.  The quadrature enumerates no lattice points.

Values are LogComplex throughout; k up to ~10^4 stays exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from math import lgamma

import numpy as np

from .geometry import as_cvec, norm_sq, psi2
from .logcomplex import NEG_INF, LogComplex, log_diff_mod, log_sum, log_sum_exp
from .torus import IrrepLabel, WeightMatrix

_LOG_PI = math.log(math.pi)
# Rows per enumeration step.  The peak is ~120 bytes a row (53 MiB for the
# 459,684 rows of affine n = 3, rank one, k = 1024), so ~130 MiB at most.
_MAX_ROWS = 1 << 20
_NODE_CAP_TOTAL = 2**20
# Candidate per-dimension node counts N, and the fixed grid of Cauchy radii
# log r = t that the aliasing bound minimises over (any t > 0 gives a valid
# bound).  _LOG_GEOM[t, N] = log(e^{-tN} / (1 - e^{-tN})).
_N_CANDIDATES = 2 ** np.arange(3, 21)
_T_GRID = np.geomspace(1e-4, 30.0, 40)[:, None]
_LOG_GEOM = -_T_GRID * _N_CANDIDATES - np.log(-np.expm1(-_T_GRID * _N_CANDIDATES))
_UNIT_TOL = 1e-9
_MAX_CANCEL_NATS = math.log(1e6)  # a series cancelled past this keeps no digits
_TAIL_NATS = 40.0


class QuadratureError(RuntimeError):
    """The quadrature could not certify a value.

    last_two holds the first pass and its confirmation (the average of
    the first and the shifted pass), and n_per_dim their per-dimension
    node counts.  When the certified count needs more than
    _NODE_CAP_TOTAL nodes no pass runs: last_two is (None, None) and
    n_per_dim holds the count required (None past the largest candidate).
    """

    def __init__(self, message: str, last_two=(None, None), n_per_dim=(None, None)):
        super().__init__(message)
        self.last_two = last_two
        self.n_per_dim = n_per_dim


# -- points -------------------------------------------------------------------


def affine_point(p):
    """Coerce to a chart pair (vector, angle); bare vectors get angle 0."""
    if isinstance(p, tuple) and len(p) == 2 and np.ndim(p[0]) == 1:
        return as_cvec(p[0]), float(p[1])
    return as_cvec(p), 0.0


def _unit_point(z) -> np.ndarray:
    z = as_cvec(z)
    if abs(math.sqrt(norm_sq(z)) - 1.0) > _UNIT_TOL:
        raise ValueError("projective bundle points must be unit vectors")
    return z


# -- full kernels -------------------------------------------------------------


def bargmann_kernel(k: int, n: int, p, q) -> LogComplex:
    """(k/pi)^n * exp(k*(i*(theta_p - theta_q) + psi2(z_p, z_q)))."""
    zp, tp = affine_point(p)
    zq, tq = affine_point(q)
    if len(zp) != n or len(zq) != n:
        raise ValueError("point dimension does not match n")
    expo = k * (1j * (tp - tq) + psi2(zp, zq))
    return LogComplex(n * (math.log(k) - _LOG_PI) + expo.real, expo.imag)


def projective_kernel(k: int, d: int, x, y) -> LogComplex:
    """((k+d)!/(pi^d k!)) <x, y>^k for unit vectors x, y in C^{d+1}."""
    x = _unit_point(x)
    y = _unit_point(y)
    inner = complex(np.vdot(y, x))
    pref = lgamma(k + d + 1) - lgamma(k + 1) - d * _LOG_PI
    return LogComplex(pref, 0.0) * LogComplex.from_complex(inner).pow_int(k)


# -- index enumeration --------------------------------------------------------


def _lattice_points(m: int, C, target) -> np.ndarray:
    """The J >= 0 with |J| = m and C.J = target, as lexicographic int64 rows.

    Fixes one coordinate per step.  A row's next coordinate j is limited
    to the interval on which the remaining columns, each between their
    per-component min and max, can still reach the target with the
    remaining degree (each bound solved for j as a*j <= b).  The last
    coordinate takes the degree left over, and an exact filter drops the
    misses.  A C with zero rows gives every composition of m.  Raises
    ValueError before a step would hold more than _MAX_ROWS rows.
    """
    C = np.asarray(C, dtype=np.int64)
    n = C.shape[1]
    J = np.zeros((1, n), dtype=np.int64)
    res = np.asarray(target, dtype=np.int64).reshape(1, -1)
    rem = np.array([m], dtype=np.int64)
    for p in range(n - 1):
        col = C[:, p]
        lo = C[:, p + 1 :].min(axis=1)
        hi = C[:, p + 1 :].max(axis=1)
        # (rem - j) * lo <= res - j * col <= (rem - j) * hi, per component
        a = np.concatenate([col - lo, hi - col])
        b = np.concatenate([res - rem[:, None] * lo, rem[:, None] * hi - res], axis=1)
        j_hi = np.minimum(rem, (b[:, a > 0] // a[a > 0]).min(axis=1, initial=m))
        j_lo = (-(-b[:, a < 0] // a[a < 0])).max(axis=1, initial=0)
        j_hi[(b[:, a == 0] < 0).any(axis=1)] = -1
        counts = np.maximum(j_hi - j_lo + 1, 0)
        total = int(counts.sum())
        if total > _MAX_ROWS:
            raise ValueError(
                f"lattice enumeration needs {total} rows at coordinate {p} "
                f"(budget {_MAX_ROWS}); use the quadrature kernel"
            )
        parent = np.repeat(np.arange(len(counts)), counts)
        j = j_lo[parent] + np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        J = np.take(J, parent, axis=0)
        J[:, p] = j
        res = np.take(res, parent, axis=0) - j[:, None] * col
        rem = rem[parent] - j
    J[:, n - 1] = rem
    return np.compress((res == rem[:, None] * C[:, n - 1]).all(axis=1), J, axis=0)


def enumerate_indices(d: int, k: int, constraint=None) -> list:
    """Multi-indices of total degree k in d+1 variables, lexicographic.

    With constraint = (W, irrep), keeps only J with -W.J = irrep.
    Raises ValueError when the enumeration would exceed the row budget;
    use the quadrature kernel there instead.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if constraint is None:
        C, target = np.zeros((0, d + 1), dtype=np.int64), ()
    else:
        W, irrep = constraint
        if W.n_coords != d + 1:
            raise ValueError("weight matrix does not match d+1 coordinates")
        if irrep.g != W.g:
            raise ValueError("irrep label rank does not match weight matrix")
        C, target = -W.matrix, irrep.weights
    return [tuple(J) for J in _lattice_points(k, C, target).tolist()]


# -- equivariant kernels ------------------------------------------------------


def _occurring_irreps(W: WeightMatrix, k: int) -> list:
    """All irrep labels -W.J over |J| = k, sorted."""
    J = _lattice_points(k, np.zeros((0, W.n_coords), dtype=np.int64), ())
    labels = np.unique(-(J @ W.matrix.T), axis=0)
    return [IrrepLabel(row) for row in labels]


def _log_abs(z) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(z))


def _series_terms(J: np.ndarray, log_pref: float, log_c: np.ndarray, arg_c: np.ndarray):
    """Log-moduli and phases of e^log_pref c^J / J! over the rows of J.

    A zero c_l (log_c = -inf) zeroes every row with j_l > 0.  The
    prefactor goes in before the powers: that order keeps the P^1
    diagonal at k = 6400 within 1e-12 of its factorial closed form.
    """
    dead = np.isneginf(log_c)
    lo, hi = (int(J.min()), int(J.max())) if J.size else (0, 0)
    lgam = np.array([lgamma(j + 1) for j in range(lo, hi + 1)])
    cols = J.T
    log_fact = sum(lgam[j - lo] for j in cols)
    log_pow = sum(j * lc for j, lc in zip(cols, np.where(dead, 0.0, log_c)))
    log_mods = (log_pref - log_fact) + log_pow
    log_mods[(J[:, dead] > 0).any(axis=1)] = NEG_INF
    return log_mods, sum(j * ac for j, ac in zip(cols, arg_c))


def _series_sum(log_mods: np.ndarray, phases: np.ndarray) -> LogComplex:
    """log_sum_exp of a series; raises if it cancels by more than 1e6.

    Past that loss, log sum|t_i| - log|sum t_i|, float64 rounding of the
    largest term swamps the sum.  No live terms is an exact zero and passes.
    """
    total = log_sum_exp(log_mods, phases)
    moduli = log_sum_exp(log_mods, np.zeros_like(log_mods))
    lost = moduli.log_mod - total.log_mod
    if not moduli.is_zero and lost > _MAX_CANCEL_NATS:
        raise ValueError(
            f"weight-sum series cancels by a factor of e^{lost:.1f} (limit 1e6); "
            "use the quadrature kernel"
        )
    return total


def _truncation_degree(S: float, level: float) -> int:
    """First degree m > S with sum_{j > m} S^j/j! below e^level.

    The tail bound is the first omitted term over 1 - S/(m+2).
    """
    m = math.floor(S) + 1
    while S > 0.0 and (m + 1) * math.log(S) - lgamma(m + 2) - math.log1p(-S / (m + 2)) >= level:
        m += 1
    return m


def equivariant_kernel_weightsum(
    W: WeightMatrix,
    irrep: IrrepLabel,
    k: int,
    x,
    y,
    model: str,
) -> LogComplex:
    """Isotypic kernel by direct summation over the weight lattice.

    Both models sum one series, sum_{-W.J = irrep} c^J / J!.  Projective:
    c = x conj(y) over the finite set |J| = k, times (k+d)!/pi^d; an
    empty set gives an exact zero (the selection rule).  Affine: c =
    k a conj(b) over every degree, times
    (k/pi)^n e^{i k (theta_x - theta_y)} e^{-k(|a|^2+|b|^2)/2}, which
    is the character-weighted group average of the full kernel.  The
    affine series stops at the first degree M > S = k sum|a_l b_l| whose
    unconstrained envelope tail sum_{m > M} S^m/m! lies below
    e^{-_TAIL_NATS} = e^{-40} of the largest term kept (or of e^S, when
    no index matches); a zero slack coordinate turns |J| <= M into one
    block |(J, s)| = M.  Raises
    ValueError when the series cancels by more than a factor 1e6 (the
    quadrature kernel still applies there).
    """
    if irrep.g != W.g:
        raise ValueError("irrep label rank does not match weight matrix")
    n = W.n_coords
    C = -W.matrix
    if model == "projective":
        x = _unit_point(x)
        y = _unit_point(y)
        if len(x) != n or len(y) != n:
            raise ValueError("point dimension does not match the weight matrix")
        J = _lattice_points(k, C, irrep.weights)
        log_pref = lgamma(k + n) - (n - 1) * _LOG_PI
        log_c = _log_abs(x) + _log_abs(y)
        return _series_sum(*_series_terms(J, log_pref, log_c, np.angle(x) - np.angle(y)))
    if model != "affine":
        raise ValueError(f"unknown model {model!r}")

    a, ta = affine_point(x)
    b, tb = affine_point(y)
    if len(a) != n or len(b) != n:
        raise ValueError("point dimension does not match the weight matrix")
    log_c = math.log(k) + _log_abs(a) + _log_abs(b)
    arg_c = np.angle(a) - np.angle(b)
    S = float(np.abs(k * a * np.conj(b)).sum())
    C_slack = np.column_stack([C, np.zeros(W.g, dtype=np.int64)])

    def terms(M: int):
        J = _lattice_points(M, C_slack, irrep.weights)[:, :n]
        return _series_terms(J, 0.0, log_c, arg_c)

    # every term is at most S^m/m! <= e^S, so this degree is at most the final one
    M = _truncation_degree(S, S - _TAIL_NATS)
    log_mods, phases = terms(M)
    top = log_mods.max(initial=NEG_INF)
    M_final = _truncation_degree(S, top - _TAIL_NATS if top > NEG_INF else S - 2.0 * _TAIL_NATS)
    if M_final > M:
        log_mods, phases = terms(M_final)

    pref_expo = k * (1j * (ta - tb) - 0.5 * (norm_sq(a) + norm_sq(b)))
    pref = LogComplex(n * (math.log(k) - _LOG_PI) + pref_expo.real, pref_expo.imag)
    return pref * _series_sum(log_mods, phases)


def _theta_grid(g: int, n_per_dim: int, shift: float) -> list:
    """The g angles 2 pi (j + shift) / n_per_dim of the n_per_dim^g trapezoid
    nodes, the last one varying fastest."""
    grid = np.indices((n_per_dim,) * g, dtype=float).reshape(g, -1)
    grid += shift
    grid *= 2.0 * math.pi / n_per_dim
    return list(grid)


def _integrand(W: WeightMatrix, k: int, x, y, model: str):
    """Coefficients c_l and prefactor of the integrand pref * f(theta).

    f = (sum_l c_l e^{-i w_l.theta})^k (projective) or
    exp(k sum_l c_l e^{-i w_l.theta}) (affine).
    """
    if model == "projective":
        x, y = _unit_point(x), _unit_point(y)
        d = W.n_coords - 1
        pref = LogComplex(lgamma(k + d + 1) - lgamma(k + 1) - d * _LOG_PI, 0.0)
    elif model == "affine":
        (x, tx), (y, ty) = affine_point(x), affine_point(y)
        expo = k * (1j * (tx - ty) - 0.5 * (norm_sq(x) + norm_sq(y)))
        pref = LogComplex(W.n_coords * (math.log(k) - _LOG_PI) + expo.real, expo.imag)
    else:
        raise ValueError(f"unknown model {model!r}")
    if len(x) != W.n_coords or len(y) != W.n_coords:
        raise ValueError("point dimension does not match the weight matrix")
    return (x * np.conj(y)).astype(np.complex128), pref


@functools.lru_cache(maxsize=8)
def _sign_patterns(g: int):
    """The 3^g - 1 nonzero sign patterns sigma, and |sigma| * _LOG_GEOM as (t, sigma, N)."""
    signs = np.array([s for s in itertools.product((-1.0, 0.0, 1.0), repeat=g) if any(s)])
    geom = np.count_nonzero(signs, axis=1)[:, None] * _LOG_GEOM[:, None, :]
    signs.flags.writeable = geom.flags.writeable = False
    return signs, geom


def _log_alias_bound(W: WeightMatrix, irrep: IrrepLabel, k: int, cvals, model: str):
    """Log Cauchy scale and log aliasing bound for every count in _N_CANDIDATES.

    The N-point trapezoid mean of f e^{-i irrep.theta}, f = sum_m a_m e^{i m.theta},
    is the sum of a_m over m = irrep + jN.  On the polyradius e^r Cauchy's
    inequality gives |a_m| <= exp(k F(r) - r.m), with v_l = -w_l and
    F(r) = log sum_l |c_l| e^{r.v_l} (projective) or sum_l |c_l| e^{r.v_l}
    (affine).  With r = t sigma, the aliases j != 0 of sign pattern sigma
    in {-1, 0, 1}^g sum to at most
        exp(k F(t sigma) - t sigma.irrep) (e^{-tN} / (1 - e^{-tN}))^{|sigma|}
    for every t > 0.  Each pattern takes its least value over _T_GRID, and
    the 3^g - 1 patterns together at most that many times the largest.
    Returns (k F(0), log B) without the integrand's prefactor.
    """
    live = cvals != 0.0
    if model == "projective" and not live.any():
        return NEG_INF, np.full(len(_N_CANDIDATES), NEG_INF)
    abs_c = np.abs(cvals[live])
    signs, geom = _sign_patterns(W.g)
    slopes = -W.matrix[:, live].T @ signs.T  # (l, sigma): sigma.v_l
    top = slopes.max(axis=0) if model == "projective" else 0.0
    with np.errstate(over="ignore"):
        terms = np.exp((slopes - top)[:, None, :] * _T_GRID)  # (l, t, sigma)
    sums = (abs_c[:, None, None] * terms).sum(axis=0)  # (t, sigma)
    if model == "projective":
        kF, kF0 = k * (np.log(sums) + _T_GRID * top), k * math.log(abs_c.sum())
    else:
        kF, kF0 = k * sums, k * float(abs_c.sum())
    per_sign = (kF - _T_GRID * (signs @ irrep.weights))[:, :, None] + geom  # (t, sigma, N)
    # non-increasing in N, so the count chosen only grows and the search ends
    return kF0, np.minimum.accumulate(per_sign.min(axis=0).max(axis=0)) + math.log(len(signs))


def _quadrature_pass(W, irrep, k, cvals, pref: LogComplex, model: str, n_per_dim: int, shift: float = 0.0):
    """One trapezoid evaluation, its nodes shifted by shift steps in every
    angle; returns (value, max node log-modulus)."""
    thetas = _theta_grid(W.g, n_per_dim, shift)

    def phase(weights):
        """-weights.theta at every node."""
        return -sum(w * t for w, t in zip(weights, thetas))

    if cvals.any():
        s = sum(c * np.exp(1j * phase(W.column(l))) for l, c in enumerate(cvals) if c != 0.0)
    else:  # f is 0 (projective) or 1 (affine) at every node
        s = np.zeros_like(thetas[0], dtype=np.complex128)
    char_phase = phase(irrep.weights)

    if model == "projective":
        with np.errstate(divide="ignore"):  # log 0 = -inf, a node of weight 0
            expo_re = k * np.log(np.abs(s))
        expo_im = k * np.angle(s) + char_phase
    else:
        expo_re = k * s.real
        expo_im = k * s.imag + char_phase

    m = float(expo_re.max())
    if m == NEG_INF:
        return pref * LogComplex.zero(), NEG_INF
    mean = np.exp(expo_re - m + 1j * expo_im).sum() / len(expo_re)
    node_scale = pref.log_mod + m
    if mean == 0.0:
        return pref * LogComplex.zero(), node_scale
    return pref * LogComplex(m + math.log(abs(mean)), float(np.angle(mean))), node_scale


def equivariant_kernel_quadrature(
    W: WeightMatrix,
    irrep: IrrepLabel,
    k: int,
    x,
    y,
    model: str,
) -> LogComplex:
    """Isotypic kernel by trapezoid quadrature of the character average.

    Integrates chi_irrep(t)^{-1} * Pi_k(t^{-1}.x, y) over the torus with
    a tensor-product trapezoid rule.  The per-dimension node count N is
    the smallest power of two whose Cauchy bound on the aliased Fourier
    coefficients (_log_alias_bound) lies below 3e-13 of the Cauchy scale;
    after the pass it must also lie below 1e-13 of the value or 3e-13 of
    the largest node, or N moves straight to the smallest count that
    does.  A confirmation pass on the N^g grid shifted by pi/N in every
    angle follows, and the average of the two passes is returned.  The
    average sees only the aliases irrep + jN with j_1 + ... + j_g even, a
    subset of the first pass's, so the same bound certifies it; it must
    agree with the first pass to 1e-12 relative (or both sit at the
    round-off floor of the node scale, which is the selection-rule zero).
    At rank one the average is the 2N-point rule.  At rank two it is a
    checkerboard rule, so the check no longer sees the aliases with even
    j_1 + j_2, such as (1, 1) and (1, -1), and leaves them to the bound alone.
    Raises QuadratureError at once, before any pass, when (2N)^g passes
    the 2^20 total node cap (from rank 6 on even the smallest N does, so
    it raises before building the bound), and after the passes when the
    confirmation disagrees.
    """
    if irrep.g != W.g:
        raise ValueError("irrep label rank does not match weight matrix")
    g = W.g

    def check_cap(n: int) -> None:
        if (2 * n) ** g > _NODE_CAP_TOTAL:
            raise QuadratureError(
                f"quadrature needs {n}^{g} nodes and a {2 * n}^{g}-node confirmation; "
                f"the cap is {_NODE_CAP_TOTAL} nodes",
                n_per_dim=(n, 2 * n),
            )

    cvals, pref = _integrand(W, k, x, y, model)
    check_cap(int(_N_CANDIDATES[0]))
    log_scale, log_bound = _log_alias_bound(W, irrep, k, cvals, model)

    def certified(target: float) -> int:
        """Index of the smallest candidate count whose bound meets target."""
        hits = np.flatnonzero(log_bound <= target)
        if not hits.size:
            raise QuadratureError(
                f"quadrature needs more than {_N_CANDIDATES[-1]}^{g} nodes; "
                f"the cap is {_NODE_CAP_TOTAL} nodes"
            )
        check_cap(int(_N_CANDIDATES[hits[0]]))
        return int(hits[0])

    i = certified(log_scale + math.log(3e-13))
    while True:
        n = int(_N_CANDIDATES[i])
        first, scale_first = _quadrature_pass(W, irrep, k, cvals, pref, model, n)
        target = max(first.log_mod + math.log(1e-13), scale_first + math.log(3e-13))
        if log_bound[i] <= target - pref.log_mod:
            break
        i = certified(target - pref.log_mod)

    shifted, scale = _quadrature_pass(W, irrep, k, cvals, pref, model, n, 0.5)
    cur = log_sum((first, shifted)) * LogComplex(-math.log(2.0), 0.0)
    diff = log_diff_mod(cur, first)
    floor = max(scale, scale_first) + math.log(3e-13)
    if diff <= cur.log_mod + math.log(1e-12) or diff <= floor or diff == NEG_INF:
        return cur
    raise QuadratureError(
        f"quadrature confirmation on the half-step shifted {n}^{g} grid disagrees with {n}^{g} nodes",
        (first, cur),
        (n, n),
    )


def isotypic_sum(W: WeightMatrix, k: int, x, y) -> LogComplex:
    """Sum of the projective isotypic kernels over every occurring irrep."""
    return log_sum(
        equivariant_kernel_weightsum(W, irrep, k, x, y, "projective") for irrep in _occurring_irreps(W, k)
    )
