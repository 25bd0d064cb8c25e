"""Leading-order predictions for rescaled equivariant kernel values.

The exact kernels concentrate along the orbit of the center point; in
adapted chart coordinates, displacing both arguments by 1/sqrt(k)
yields a universal limit shape: a power of k/pi, an amplitude built
from a character sum over the finite stabilizer, a Gaussian coupling of
the vertical and transverse displacement components, and the standard
Bargmann off-diagonal factor in the horizontal components.  This module
evaluates that prediction so convergence experiments can divide exact
kernel values by it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .geometry import SplitFrame, TangentSplit, hermitian_data, norm_sq, psi2, q_form
from .logcomplex import LogComplex
from .torus import IrrepLabel, Stabilizer, TorusElement, character

_LOG_PI = math.log(math.pi)

# |sum| below order * this counts as an exact zero of the character
# average (orthogonality makes the average exactly 0 or a unit phase)
_CHARACTER_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class LeadingPrediction:
    """Assembled leading term for one (irrep, k, displacement) choice.

    prefactor carries (k/pi)^{n - g/2} times the amplitude, exponent
    carries Q + psi2 evaluated on the splits, and value is their
    product, formed exactly in log arithmetic.
    """

    prefactor: LogComplex
    exponent: complex
    value: LogComplex


def a_factor(
    pi: IrrepLabel,
    k: int,
    stab: Stabilizer,
    multipliers,
    v_eff: float,
) -> complex:
    """Amplitude 2^{g/2} / V_eff times the stabilizer character average.

    The average of chi_pi(t) h_t^k over the finite stabilizer is 1 when
    the weight-k twisted character is trivial and 0 otherwise; the zero
    case is the leading-order shadow of the selection rule.
    """
    return a_factor_general(pi, k, stab, multipliers, v_eff, None, 1.0 + 0.0j)


def a_factor_general(
    pi: IrrepLabel,
    k: int,
    stab: Stabilizer,
    multipliers,
    v_eff: float,
    g0: TorusElement | None,
    h0: complex,
) -> complex:
    """Amplitude for a first argument translated by (g0, h0).

    Moving the first kernel argument by the torus element g0 and the
    fiber rotation h0 multiplies each character term by
    chi_pi(g0^{-1}) h0^k, so the average runs over chi_pi(t g0^{-1})
    (h0 h_t)^k instead.  g0 = None means no translation.
    """
    multipliers = tuple(multipliers)
    if len(multipliers) != stab.order:
        raise ValueError("need one fiber multiplier per stabilizer element")
    g = len(stab.elements[0].angles)
    if v_eff <= 0.0:
        raise ValueError("effective volume must be positive")
    twist = 1.0 + 0.0j
    if g0 is not None:
        twist = np.conj(character(pi, g0)) * complex(h0) ** k
    acc = 0.0 + 0.0j
    for t, h in zip(stab.elements, multipliers):
        acc += character(pi, t) * complex(h) ** k
    avg = twist * acc / stab.order
    if abs(avg) < _CHARACTER_ZERO_TOL:
        avg = 0.0 + 0.0j
    return (2.0 ** (0.5 * g) / v_eff) * avg


def leading_term(
    pi: IrrepLabel,
    k: int,
    n: int,
    g: int,
    a: complex,
    split_w: TangentSplit,
    split_v: TangentSplit,
) -> LeadingPrediction:
    """Leading value at displacements w/sqrt(k), v/sqrt(k) from the center.

    (k/pi)^{n - g/2} * a * exp(Q(w, v)) * exp(psi2(w_h, v_h)) with n the
    complex dimension of the base, g the orbit rank, Q the
    vertical-transverse Gaussian coupling, and psi2 acting on the
    horizontal components.  a comes from a_factor or a_factor_general.
    """
    if split_w.frame is not split_v.frame:
        raise ValueError("splits come from different frames")
    if g != split_w.frame.rank:
        raise ValueError("rank g does not match the split frame")
    exponent = q_form(split_w, split_v) + psi2(split_w.h_part, split_v.h_part)
    power = (n - 0.5 * g) * (math.log(k) - _LOG_PI)
    if a == 0.0:
        prefactor = LogComplex.zero()
        value = LogComplex.zero()
    else:
        prefactor = LogComplex(power + math.log(abs(a)), cmath.phase(a))
        value = LogComplex(prefactor.log_mod + exponent.real, prefactor.phase + exponent.imag)
    return LeadingPrediction(prefactor=prefactor, exponent=exponent, value=value)


def gaussian_orbit_integral(
    frame: SplitFrame,
    split_w: TangentSplit,
    split_v: TangentSplit,
    g: int,
) -> complex:
    """Closed form of the vertical orbit integral.

    With c = v_t + w_t and d = w_v - v_v, the integral of
    exp(-i omega(s, c) - |s - d|^2 / 2) over the vertical space of the
    frame equals (2 pi)^{g/2} exp(i omega(c, d) - |c|^2 / 2).  This is
    the Gaussian that collapses the stabilized directions and produces
    the Q coupling of the leading term; the 1/(V_eff |G_m|) divisor
    belongs to a_factor, not here.
    """
    if split_w.frame is not frame or split_v.frame is not frame:
        raise ValueError("splits come from different frames")
    if g != frame.rank:
        raise ValueError("rank g does not match the split frame")
    c = split_v.t_part + split_w.t_part
    d = split_w.v_part - split_v.v_part
    coupling = hermitian_data(c, d).omega
    return (2.0 * math.pi) ** (0.5 * g) * cmath.exp(1j * coupling - 0.5 * norm_sq(c))
