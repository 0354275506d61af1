"""Vectorized interval arrays: critlat's one interval kernel.

A VI holds parallel lo/hi arrays of outward-rounded bounds, one interval per
lane.  Every bound an op computes is moved outward unconditionally, with no
test for an exact result, and domain violations poison the lane with NaN
instead of raising, so one bad subcell cannot abort a batch.  NaN lanes fail
every sign test, which is the safe direction for certification.  The scalar
critlat.interval.Interval runs these ops on a one-lane VI and raises where
the lane would be NaN.

The outward steps take no np.nextafter call:

- add, sub, mul, div (and log, twice) move a bound to its neighbouring float
  by the predecessor/successor of Rump, Zimmermann, Boldo & Melquiond,
  "Computing predecessor and successor in rounding to nearest", BIT 49
  (2009): x -/+ (|x| * phi + eta), phi = 2**-53 (1 + 2**-52), eta = 2**-1074,
  every op rounded to nearest.  This rests on numpy's + and * rounding to
  nearest with gradual underflow (the trusted base in critlat.interval).
  It equals np.nextafter bit for bit except in three places, all outward or
  poisoning: for |x| in [2**-1022, 2**-1020], where their theorem does not
  hold, it moves two steps; an infinity stepped toward the finite floats is
  NaN; and the step up from -5e-324 is +0, not -0.
- exp and pow, whose results are never negative, move their bounds 2 steps
  as one integer add on the float64 bit pattern, which counts the
  non-negative floats in order.  The lower bound is clamped at 0 (0 and
  5e-324 step into NaN patterns), and a lane whose upper bound would step
  past the largest float is NaN.

The ops set no np.errstate: numpy's floating-point warnings are left to the
caller, and the batch.py entry points run under np.errstate(all="ignore"),
once per call instead of once per op.  Results are built without conversion
(VI._of), and poisoned lanes are written in place (_poison).

exp, log and pow trust numpy to 2 ulp (the trusted base in critlat.interval)
and move their bounds 2 steps outward.  pow takes its range from the four
corners np.power(x.lo|x.hi, y.lo|y.hi): for x > 0, x**y is monotone in x at
fixed y and in y at fixed x, so over a box it lies between the corner min
and max, for every sign of y and for x on either side of 1 (Moore, Interval
Analysis, 1966; Tucker, Validated Numerics, 2011, ch. 5).  When the whole
call lies on one side of each boundary (every lane x.hi <= 1, or every lane
x.lo >= 1; and every lane y.lo >= 0, or every lane y.hi <= 0), the direction
of each monotonicity is known, and pow computes only the two corners where
the min and the max sit, with no min/max (_two_corners).  Those corners are
among the four, so the bounds are those of the four-corner form whenever
np.power keeps the corners' order; an empty call, a mixed one and one with a
NaN bound take the four corners.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VI"]

_PHI = 2.0**-53 * (1.0 + 2.0**-52)
_ETA = 2.0**-1074  # the smallest subnormal
# the float below the largest: x + 2 steps is finite exactly when
# x < _BELOW_MAX, NaN x failing the test
_BELOW_MAX = float.fromhex("0x1.ffffffffffffep+1023")


def _gap(x):
    """|x| * phi + eta: x -/+ it is the float below/above x (Rump et al.;
    see the module docstring)."""
    e = np.abs(x)
    e *= _PHI
    e += _ETA
    return e


def _dn(x):
    return x - _gap(x)


def _up(x):
    return x + _gap(x)


def _dn2_nonneg(x):
    """Two floats below x >= 0, clamped at 0 (fmax drops the NaN patterns
    that 0 and 5e-324 step into)."""
    return np.fmax((x.view(np.int64) - 2).view(np.float64), 0.0)


def _up2_nonneg(x):
    """Two floats above 0 <= x < _BELOW_MAX; callers poison the other lanes."""
    return (x.view(np.int64) + 2).view(np.float64)


def _two_corners(xl, xh, yl, yh):
    """The corners ((x, y) of the least, (x, y) of the greatest) of x**y over
    every lane of a call, or None where the four corners are needed.

    For x > 0, x**y rises in x when y >= 0 and falls when y <= 0, and falls
    in y when x <= 1 and rises when x >= 1.  So when every lane has
    x.hi <= 1 (or every lane x.lo >= 1), and every lane y.lo >= 0 (or every
    lane y.hi <= 0), the exact least and greatest values over each lane's box
    sit at the same two corners in every lane.  An empty call, a mixed one
    and one with a NaN bound take the four corners; the one exception is a
    NaN x.lo under x.hi <= 1, whose lane pow poisons on either path.  The two
    are among the four, so a bound is never wider, and it is the same
    whenever np.power keeps the corners' order."""
    if not (xl.size and yl.size):
        return None
    x_top = xh.max()  # NaN fails every test below
    if x_top <= 1.0:
        y_least, y_greatest = yh, yl
    elif x_top >= 1.0 and xl.min() >= 1.0:
        y_least, y_greatest = yl, yh
    else:
        return None
    y_bot, y_top = yl.min(), yh.max()
    if y_bot >= 0.0 and y_top >= 0.0:
        x_least, x_greatest = xl, xh
    elif y_top <= 0.0 and y_bot <= 0.0:
        x_least, x_greatest = xh, xl
    else:
        return None
    return (x_least, y_least), (x_greatest, y_greatest)


def _poison(bad, x):
    """x with NaN in the lanes of bad: in place on a fresh array, and through
    np.where on the numpy scalar that a ufunc returns for a 0-d VI."""
    if type(x) is np.ndarray:
        np.copyto(x, np.nan, where=bad)
        return x
    return np.where(bad, np.nan, x)


class VI:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    @classmethod
    def _of(cls, lo, hi) -> "VI":
        """A VI of the float64 bounds that the ops compute, as they are."""
        v = object.__new__(cls)
        v.lo = lo
        v.hi = hi
        return v

    @classmethod
    def point(cls, x) -> "VI":
        x = np.asarray(x, dtype=float)
        return cls._of(x, x.copy())

    @classmethod
    def full_like(cls, other: "VI", lo: float, hi: float) -> "VI":
        shape = other.lo.shape
        return cls._of(np.full(shape, lo), np.full(shape, hi))

    @property
    def width(self):
        return self.hi - self.lo

    def copy(self) -> "VI":
        return VI._of(self.lo.copy(), self.hi.copy())

    def invalid(self):
        return ~(np.isfinite(self.lo) & np.isfinite(self.hi))

    @staticmethod
    def _coerce(other) -> "VI":
        if isinstance(other, VI):
            return other
        return VI.point(other)

    def __add__(self, other) -> "VI":
        o = self._coerce(other)
        return VI._of(_dn(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self) -> "VI":
        return VI._of(-self.hi, -self.lo)

    def __sub__(self, other) -> "VI":
        o = self._coerce(other)
        return VI._of(_dn(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other) -> "VI":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "VI":
        o = self._coerce(other)
        p1 = self.lo * o.lo
        p2 = self.lo * o.hi
        p3 = self.hi * o.lo
        p4 = self.hi * o.hi
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
        return VI._of(_dn(lo), _up(hi))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "VI":
        o = self._coerce(other)
        bad = (o.lo <= 0.0) & (o.hi >= 0.0)
        q1 = self.lo / o.lo
        q2 = self.lo / o.hi
        q3 = self.hi / o.lo
        q4 = self.hi / o.hi
        lo = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
        hi = np.maximum(np.maximum(q1, q2), np.maximum(q3, q4))
        return VI._of(_poison(bad, _dn(lo)), _poison(bad, _up(hi)))

    def __rtruediv__(self, other) -> "VI":
        return self._coerce(other).__truediv__(self)

    def exp(self) -> "VI":
        lo = np.exp(self.lo)
        hi = np.exp(self.hi)
        bad = ~(hi < _BELOW_MAX)
        return VI._of(
            _poison(bad | np.isnan(lo), _dn2_nonneg(lo)), _poison(bad, _up2_nonneg(hi))
        )

    def log(self) -> "VI":
        bad = ~(self.lo > 0.0)
        lo = _dn(_dn(np.log(self.lo)))
        hi = _up(_up(np.log(self.hi)))
        return VI._of(_poison(bad, lo), _poison(bad, hi))

    def pow(self, other) -> "VI":
        """self**other for positive self: the min and max of the four corners
        np.power(self.lo|self.hi, other.lo|other.hi), nudged 2 ulp outward,
        the lower bound clamped at 0.  Lanes with self.lo <= 0, or whose upper
        bound overflows, are NaN.  When every lane of the call lies in one
        monotone class (_two_corners), only the min and max corners are
        computed."""
        o = self._coerce(other)
        corners = _two_corners(self.lo, self.hi, o.lo, o.hi)
        if corners is None:
            c1 = np.power(self.lo, o.lo)
            c2 = np.power(self.lo, o.hi)
            c3 = np.power(self.hi, o.lo)
            c4 = np.power(self.hi, o.hi)
            lo = np.minimum(np.minimum(c1, c2), np.minimum(c3, c4))
            hi = np.maximum(np.maximum(c1, c2), np.maximum(c3, c4))
        else:
            (x_lo, y_lo), (x_hi, y_hi) = corners
            lo = np.power(x_lo, y_lo)
            hi = np.power(x_hi, y_hi)
        bad = ~((self.lo > 0.0) & (hi < _BELOW_MAX))
        return VI._of(_poison(bad, _dn2_nonneg(lo)), _poison(bad, _up2_nonneg(hi)))

    def pow_nonneg(self, other) -> "VI":
        """self**other for self >= 0 and positive exponents: the zero-touching
        lower bound maps to 0 instead of poisoning the lane.  One pow serves
        both: zero-touching lanes take it on the point [hi, hi] (1 if hi <= 0,
        then discarded) for their upper bound."""
        o = self._coerce(other)
        touches = self.lo <= 0.0
        pos = self.hi > 0.0
        top = np.where(pos, self.hi, 1.0)
        r = VI._of(np.where(touches, top, self.lo), np.where(touches, top, self.hi)).pow(o)
        bad = (self.lo < 0.0) | ~(o.lo > 0.0)
        lo = _poison(bad, np.where(touches, 0.0, r.lo))
        hi = _poison(bad, np.where(touches & ~pos, 0.0, r.hi))
        return VI._of(lo, hi)

    def intersect(self, other: "VI"):
        """(intersection VI, empty mask); empty lanes become NaN.

        NaN (invalid) input lanes stay NaN and are not marked empty."""
        o = self._coerce(other)
        lo = np.maximum(self.lo, o.lo)
        hi = np.minimum(self.hi, o.hi)
        empty = lo > hi  # False on NaN lanes
        return VI._of(_poison(empty, lo), _poison(empty, hi)), empty

    def contains_zero(self):
        return (self.lo <= 0.0) & (self.hi >= 0.0)

    def __repr__(self) -> str:
        return f"VI({self.lo!r}, {self.hi!r})"
