"""Outward-rounded interval arithmetic kernel.

Every enclosure guarantee downstream reduces to this module: all operations
return intervals that contain the exact real result, with lower bounds never
rounded up and upper bounds never rounded down.

Rounding realization: next-representable-value nudging (math.nextafter), not
hardware rounding-mode switches.  Core arithmetic (+, -, *, /) uses error-free
transformations (TwoSum / Dekker's product) to detect exact results, so exact
endpoint arithmetic stays exact and inexact results are nudged one step in the
correct direction only.  Where those transforms fail, a product or quotient
is nudged one step both ways instead: beyond 1e290 they may overflow, and
below 2**-960 (a nonzero product, or a quotient or dividend) the rounding
error may underflow, which once let [0, 0.5] * [0, 5e-324] return [0, 0].  Elementary functions (exp, log, pow) trust libm to
2 ulp and nudge accordingly.

Trusted base: math.exp, math.log, math.pow, np.exp, np.log, np.power and
cmath.exp (each real part) return values within 2 ulp of the exact result.
The Interval and VI lanes widen by that much, and the q-series error model of
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

__all__ = [
    "Interval",
    "Box",
    "EMPTY",
    "IntervalError",
    "IntervalOverflow",
    "DivisionByZeroInterval",
    "DomainError",
    "ipow",
    "intersect",
    "hull",
]

_INF = math.inf
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant
_LIBM_ULPS = 2  # safety margin for non-correctly-rounded libm calls
_HUGE = 1e290  # beyond this, error-free transforms may overflow; nudge blindly
# below this, the rounding error of a product or quotient may underflow, so
# the error-free transforms cannot tell its sign; nudge blindly
_TINY = 2.0**-960


class IntervalError(Exception):
    """Base class for interval kernel failures."""


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


def _two_sum(a: float, b: float) -> tuple[float, float]:
    # Knuth TwoSum: s + e == a + b exactly.
    s = a + b
    t = s - b
    e = (a - t) + (b - (s - t))
    return s, e


def _split(x: float) -> tuple[float, float]:
    c = _SPLITTER * x
    hi = c - (c - x)
    return hi, x - hi


def _two_prod(a: float, b: float) -> tuple[float, float]:
    # Dekker product: p + e == a * b exactly (for p finite, |a|,|b| < ~1e150).
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _down_n(x: float, n: int) -> float:
    for _ in range(n):
        x = math.nextafter(x, -_INF)
    return x


def _up_n(x: float, n: int) -> float:
    for _ in range(n):
        x = math.nextafter(x, _INF)
    return x


def _lo_from(v: float, e: float) -> float:
    # v + e is the exact value; return a float <= it.
    return v if e >= 0.0 else _down(v)


def _hi_from(v: float, e: float) -> float:
    return v if e <= 0.0 else _up(v)


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
        w, e = _two_sum(self.hi, -self.lo)
        return _hi_from(w, e)

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

    def is_point(self) -> bool:
        return self.lo == self.hi

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval(float(other), float(other))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        o = self._coerce(other)
        slo, elo = _two_sum(self.lo, o.lo)
        shi, ehi = _two_sum(self.hi, o.hi)
        return Interval(_lo_from(slo, elo), _hi_from(shi, ehi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = self._coerce(other)
        slo, elo = _two_sum(self.lo, -o.hi)
        shi, ehi = _two_sum(self.hi, -o.lo)
        return Interval(_lo_from(slo, elo), _hi_from(shi, ehi))

    def __rsub__(self, other) -> "Interval":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Interval":
        o = self._coerce(other)
        pairs = (
            (self.lo, o.lo),
            (self.lo, o.hi),
            (self.hi, o.lo),
            (self.hi, o.hi),
        )
        lo = _INF
        hi = -_INF
        for a, b in pairs:
            if abs(a) > _HUGE or abs(b) > _HUGE:
                p = a * b
                if not math.isfinite(p):
                    raise IntervalOverflow("product overflow")
                plo, phi = _down(p), _up(p)
            else:
                p, e = _two_prod(a, b)
                if abs(p) < _TINY and a and b:
                    plo, phi = _down(p), _up(p)
                else:
                    plo, phi = _lo_from(p, e), _hi_from(p, e)
            if plo < lo:
                lo = plo
            if phi > hi:
                hi = phi
        return Interval(lo, hi)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = self._coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise DivisionByZeroInterval(f"divisor {o!r} contains zero")
        pairs = (
            (self.lo, o.lo),
            (self.lo, o.hi),
            (self.hi, o.lo),
            (self.hi, o.hi),
        )
        lo = _INF
        hi = -_INF
        for x, y in pairs:
            q = x / y
            if not math.isfinite(q):
                raise IntervalOverflow("quotient overflow")
            qlo, qhi = _div_bounds(x, y, q)
            if qlo < lo:
                lo = qlo
            if qhi > hi:
                hi = qhi
        return Interval(lo, hi)

    def __rtruediv__(self, other) -> "Interval":
        return self._coerce(other).__truediv__(self)

    # -- elementary functions -------------------------------------------------

    def exp(self) -> "Interval":
        try:
            lo = math.exp(self.lo)
            hi = math.exp(self.hi)
        except OverflowError:
            raise IntervalOverflow("exp overflow") from None
        if not math.isfinite(hi):
            raise IntervalOverflow("exp overflow")
        return Interval(max(0.0, _down_n(lo, _LIBM_ULPS)), _up_n(hi, _LIBM_ULPS))

    def log(self) -> "Interval":
        if self.lo <= 0.0:
            raise DomainError(f"log of {self!r} with non-positive lower bound")
        return Interval(
            _down_n(math.log(self.lo), _LIBM_ULPS),
            _up_n(math.log(self.hi), _LIBM_ULPS),
        )

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise DomainError(f"sqrt of {self!r} with negative lower bound")
        return Interval(
            max(0.0, _down(math.sqrt(self.lo))), _up(math.sqrt(self.hi))
        )


def _div_bounds(x: float, y: float, q: float) -> tuple[float, float]:
    # Directed bounds for the endpoint quotient x/y given the rounded q.
    if abs(q) > _HUGE or abs(y) > _HUGE or abs(q) < _TINY or abs(x) < _TINY:
        return _down(q), _up(q)
    qy, e2 = _two_prod(q, y)
    n1 = x - qy  # exact by Sterbenz (qy within one ulp factor of x)
    n = n1 - e2
    if n == 0.0:
        return _down(q), _up(q)  # ambiguous at subnormal scale: be safe
    # true quotient = q + n/y
    if (n > 0.0) == (y > 0.0):
        return q, _up(q)
    return _down(q), q


def ipow(x: Interval, y) -> Interval:
    """Enclosure of {a**b : a in x, b in y}; requires x.lo > 0.

    Point exponents take the monotone endpoint route through math.pow,
    interval exponents go through exp(y * log x).
    """
    if x.lo <= 0.0:
        raise DomainError(f"pow of {x!r} with non-positive lower bound")
    yi = Interval._coerce(y)
    if yi.is_point():
        e = yi.lo
        if e == 0.0:
            return Interval(1.0, 1.0)
        try:
            plo = math.pow(x.lo, e)
            phi = math.pow(x.hi, e)
        except OverflowError:
            raise IntervalOverflow("pow overflow") from None
        if e < 0.0:
            plo, phi = phi, plo
        if not (math.isfinite(plo) and math.isfinite(phi)):
            raise IntervalOverflow("pow overflow")
        return Interval(
            max(0.0, _down_n(plo, _LIBM_ULPS)), _up_n(phi, _LIBM_ULPS)
        )
    return (yi * x.log()).exp()


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
