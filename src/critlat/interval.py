"""Closed real intervals: the value type of boxes, witnesses and scalar
enclosures.

Every enclosure guarantee downstream reduces to the outward-rounded ops of
critlat.vints, the one interval kernel.  An Interval's arithmetic (+, -, *,
/, neg, exp, log, pow and sqrt) runs the VI op on a one-lane VI (_lane) and
takes its bounds back as Python floats, so an Interval bound is the bound of
the same op on the VI lane, bit for bit.  Where a VI lane turns NaN an
Interval op raises instead: DivisionByZeroInterval for a divisor that
contains 0, DomainError for a log or pow of a base reaching 0 or below and
for a sqrt of a negative one, and IntervalOverflow for a bound that leaves
the finite range (the Interval constructor refuses a non-finite bound).
sqrt, which the VI lane does not have, steps the correctly rounded np.sqrt
one float outward with the same steps.  width is hi - lo rounded up: exact
differences stay exact.

Trusted base: math.exp, math.log, math.pow, np.exp, np.log, np.power and
cmath.exp (each real part) return values within 2 ulp of the exact result.
The VI lane, whose steps give every Interval bound, widens by that much,
and the q-series error model of
elliptic.weierstrass_curve counts it as 4u per part.
tests/test_interval.py::test_trusted_libm_within_2_ulp checks it against
mpmath at 120 bits on seeded samples, and skips where mpmath is missing.
The VI lane steps its bounds to the neighbouring float with the
predecessor/successor of Rump, Zimmermann, Boldo & Melquiond ("Computing
predecessor and successor in rounding to nearest", BIT 49, 2009), which
trusts numpy's float64 + and * to round to nearest with gradual underflow
(no flush of subnormals to zero);
tests/test_interval.py::test_numpy_keeps_subnormals checks the underflow
part.

All values are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .vints import VI, _dn, _up

__all__ = [
    "Interval",
    "Box",
    "EMPTY",
    "IntervalError",
    "IntervalOverflow",
    "DivisionByZeroInterval",
    "DomainError",
    "intersect",
    "hull",
]


class IntervalError(Exception):
    """Base class for interval failures."""


class IntervalOverflow(IntervalError):
    """A bound left the finite double range."""


class DivisionByZeroInterval(IntervalError):
    """Division by an interval containing zero."""


class DomainError(IntervalError):
    """Input outside the mathematical domain of the operation."""


class _EmptyInterval:
    """Explicit empty-set sentinel (never encoded as reversed bounds)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "EMPTY"


EMPTY = _EmptyInterval()


def _vi(x) -> VI:
    """x, an Interval or a number, as a one-lane VI."""
    if isinstance(x, Interval):
        return VI._of(np.array([x.lo]), np.array([x.hi]))
    return VI.point(np.array([float(x)]))


def _lane(op, *args) -> "Interval":
    """op on one-lane VIs of args, as an Interval; a non-finite bound (a NaN
    lane or an overflow) raises IntervalOverflow."""
    with np.errstate(all="ignore"):
        r = op(*map(_vi, args))
    return Interval(r.lo[0], r.hi[0])


def _positive(x: "Interval", what: str) -> None:
    if not x.lo > 0.0:
        raise DomainError(f"{what} of {x!r} with non-positive lower bound")


class Interval:
    """Closed real interval [lo, hi] with finite bounds."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise IntervalOverflow(f"non-finite bound in [{lo}, {hi}]")
        if lo > hi:
            raise IntervalError(f"reversed bounds [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x: float) -> "Interval":
        return cls(x, x)

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- queries ------------------------------------------------------------

    @property
    def width(self) -> float:
        w = self.hi - self.lo
        if math.isfinite(w) and Fraction(w) < Fraction(self.hi) - Fraction(self.lo):
            w = math.nextafter(w, math.inf)
        return w

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        # clamp so the midpoint is always a member
        return min(max(m, self.lo), self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    # -- arithmetic on the VI lane ---------------------------------------------

    def __neg__(self) -> "Interval":
        return _lane(VI.__neg__, self)

    def __add__(self, other) -> "Interval":
        return _lane(VI.__add__, self, other)

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        return _lane(VI.__sub__, self, other)

    def __rsub__(self, other) -> "Interval":
        return _lane(VI.__sub__, other, self)

    def __mul__(self, other) -> "Interval":
        return _lane(VI.__mul__, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        return _div(self, other)

    def __rtruediv__(self, other) -> "Interval":
        return _div(other, self)

    def exp(self) -> "Interval":
        return _lane(VI.exp, self)

    def log(self) -> "Interval":
        _positive(self, "log")
        return _lane(VI.log, self)

    def pow(self, other) -> "Interval":
        """self**other for self > 0, from VI.pow's corners."""
        _positive(self, "pow")
        return _lane(VI.pow, self, other)

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise DomainError(f"sqrt of {self!r} with negative lower bound")
        r = np.sqrt(np.array([self.lo, self.hi]))
        return Interval(max(0.0, _dn(r[0])), _up(r[1]))


def _div(x, y) -> Interval:
    d = _vi(y)
    if d.lo[0] <= 0.0 <= d.hi[0]:
        raise DivisionByZeroInterval(f"divisor {y!r} contains zero")
    return _lane(VI.__truediv__, x, y)


def intersect(a: Interval, b: Interval):
    """Exact intersection, or EMPTY."""
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return EMPTY
    return Interval(lo, hi)


def hull(a: Interval, b: Interval) -> Interval:
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


@dataclass(frozen=True)
class Box:
    """Axis-aligned (p, sigma) rectangle in the parameter plane."""

    p: Interval
    sigma: Interval

    def __post_init__(self):
        if self.p.lo <= 1.0:
            raise DomainError(f"box requires p > 1, got p.lo = {self.p.lo}")
        if self.sigma.lo < 1.0:
            raise DomainError(
                f"box requires sigma >= 1, got sigma.lo = {self.sigma.lo}"
            )

    @classmethod
    def of(cls, p_lo: float, p_hi: float, s_lo: float, s_hi: float) -> "Box":
        return cls(Interval(p_lo, p_hi), Interval(s_lo, s_hi))

    @property
    def mid(self) -> tuple[float, float]:
        return self.p.mid, self.sigma.mid

    def contains_point(self, p: float, sigma: float) -> bool:
        return self.p.contains(p) and self.sigma.contains(sigma)

    def contains_box(self, other: "Box") -> bool:
        return self.p.contains_interval(other.p) and self.sigma.contains_interval(
            other.sigma
        )
