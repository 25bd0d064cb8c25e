"""Complex numbers stored as (log-modulus, phase).

Kernel values at large level k involve factors like (k+d)!/pi^d or
exp(k * psi2) whose moduli overflow float64 long before k reaches the
ranges we sweep.  Everything downstream therefore carries values as a
pair (log_mod, phase): the represented number is exp(log_mod + i*phase).
log_mod = -inf encodes an exact zero (phase is then meaningless and
pinned to 0.0).  Phases are normalized to (-pi, pi].

Sums of many such values go through log_sum_exp, which takes the terms
as arrays and adds them relative to the largest log-modulus, so no
intermediate overflows and relative accuracy tracks the dominant terms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")


def wrap_phase(phase: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    r = math.remainder(phase, 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    return r


@dataclass(frozen=True)
class LogComplex:
    """A complex value exp(log_mod + i*phase); log_mod = -inf is exact zero."""

    log_mod: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        # a numpy scalar would reach CSV reports as "np.float64(...)"
        object.__setattr__(self, "log_mod", float(self.log_mod))
        if math.isnan(self.log_mod):
            raise ValueError("log_mod is NaN")
        if self.log_mod == NEG_INF:
            object.__setattr__(self, "phase", 0.0)
        else:
            object.__setattr__(self, "phase", wrap_phase(self.phase))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LogComplex":
        return LogComplex(NEG_INF, 0.0)

    @staticmethod
    def one() -> "LogComplex":
        return LogComplex(0.0, 0.0)

    @staticmethod
    def from_complex(z: complex) -> "LogComplex":
        z = complex(z)
        if z == 0:
            return LogComplex.zero()
        return LogComplex(math.log(abs(z)), cmath.phase(z))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.log_mod == NEG_INF

    def to_complex(self) -> complex:
        """Exact complex value; overflows for log_mod above ~709."""
        if self.is_zero:
            return 0.0 + 0.0j
        return cmath.exp(complex(self.log_mod, self.phase))

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero or other.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log_mod + other.log_mod, self.phase + other.phase)

    def __truediv__(self, other: "LogComplex") -> "LogComplex":
        if other.is_zero:
            raise ZeroDivisionError("division by exact-zero LogComplex")
        if self.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log_mod - other.log_mod, self.phase - other.phase)

    def __neg__(self) -> "LogComplex":
        if self.is_zero:
            return self
        return LogComplex(self.log_mod, self.phase + math.pi)

    def conjugate(self) -> "LogComplex":
        if self.is_zero:
            return self
        return LogComplex(self.log_mod, -self.phase)

    def pow_int(self, k: int) -> "LogComplex":
        if self.is_zero:
            if k == 0:
                return LogComplex.one()
            if k < 0:
                raise ZeroDivisionError("negative power of exact zero")
            return LogComplex.zero()
        return LogComplex(k * self.log_mod, k * self.phase)


def log_diff_mod(a: LogComplex, b: LogComplex) -> float:
    """log|a - b|, computed without leaving the log domain."""
    if a.is_zero and b.is_zero:
        return NEG_INF
    m = max(a.log_mod, b.log_mod)
    za = cmath.exp(complex(a.log_mod - m, a.phase)) if not a.is_zero else 0.0
    zb = cmath.exp(complex(b.log_mod - m, b.phase)) if not b.is_zero else 0.0
    d = abs(za - zb)
    if d == 0.0:
        return NEG_INF
    return m + math.log(d)


def ratio(a: LogComplex, b: LogComplex) -> complex:
    """a / b as an ordinary complex number (b must be nonzero)."""
    return (a / b).to_complex()


def log_sum_exp(log_mods, phases) -> LogComplex:
    """Sum of exp(log_mods + i*phases) over arrays, relative to the largest term."""
    log_mods = np.asarray(log_mods, dtype=float)
    top = log_mods.max(initial=NEG_INF)
    if top == NEG_INF:
        return LogComplex.zero()
    total = complex(np.sum(np.exp((log_mods - top) + 1j * np.asarray(phases, dtype=float))))
    if total == 0.0:
        return LogComplex.zero()
    return LogComplex(top + math.log(abs(total)), cmath.phase(total))


def log_sum(terms) -> LogComplex:
    """Sum an iterable of LogComplex values."""
    terms = list(terms)
    return log_sum_exp([t.log_mod for t in terms], [t.phase for t in terms])
