"""Vectorized interval arrays: the batch evaluation engine.

A VI holds parallel lo/hi arrays of outward-rounded bounds, one interval per
lane.  Semantics match the scalar kernel with two deliberate differences:
every inexact bound is nudged one step outward unconditionally (cheaper than
exactness detection, never tighter than the scalar kernel), and domain
violations poison the lane with NaN instead of raising, so one bad subcell
cannot abort a batch.  NaN lanes fail every sign test, which is the safe
direction for certification.

exp, log and pow trust numpy to 2 ulp (the trusted base in critlat.interval)
and nudge their bounds 2 steps outward.  pow takes its range from the four
corners np.power(x.lo|x.hi, y.lo|y.hi): for x > 0, x**y is monotone in x at
fixed y and in y at fixed x, so over a box it lies between the corner min
and max, for every sign of y and for x on either side of 1 (Moore, Interval
Analysis, 1966; Tucker, Validated Numerics, 2011, ch. 5).
"""

from __future__ import annotations

import numpy as np

__all__ = ["VI"]

_INF = np.inf


def _dn(x):
    return np.nextafter(x, -_INF)


def _up(x):
    return np.nextafter(x, _INF)


def _dn2(x):
    return np.nextafter(np.nextafter(x, -_INF), -_INF)


def _up2(x):
    return np.nextafter(np.nextafter(x, _INF), _INF)


class VI:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    @classmethod
    def point(cls, x) -> "VI":
        x = np.asarray(x, dtype=float)
        return cls(x, x.copy())

    @classmethod
    def full_like(cls, other: "VI", lo: float, hi: float) -> "VI":
        shape = other.lo.shape
        return cls(np.full(shape, lo), np.full(shape, hi))

    @property
    def width(self):
        return self.hi - self.lo

    def copy(self) -> "VI":
        return VI(self.lo.copy(), self.hi.copy())

    def invalid(self):
        return ~(np.isfinite(self.lo) & np.isfinite(self.hi))

    @staticmethod
    def _coerce(other) -> "VI":
        if isinstance(other, VI):
            return other
        return VI.point(np.asarray(other, dtype=float))

    def __add__(self, other) -> "VI":
        o = self._coerce(other)
        return VI(_dn(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self) -> "VI":
        return VI(-self.hi, -self.lo)

    def __sub__(self, other) -> "VI":
        o = self._coerce(other)
        return VI(_dn(self.lo - o.hi), _up(self.hi - o.lo))

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
        return VI(_dn(lo), _up(hi))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "VI":
        o = self._coerce(other)
        with np.errstate(divide="ignore", invalid="ignore"):
            bad = (o.lo <= 0.0) & (o.hi >= 0.0)
            q1 = self.lo / o.lo
            q2 = self.lo / o.hi
            q3 = self.hi / o.lo
            q4 = self.hi / o.hi
            lo = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
            hi = np.maximum(np.maximum(q1, q2), np.maximum(q3, q4))
        lo = np.where(bad, np.nan, lo)
        hi = np.where(bad, np.nan, hi)
        return VI(_dn(lo), _up(hi))

    def __rtruediv__(self, other) -> "VI":
        return self._coerce(other).__truediv__(self)

    def exp(self) -> "VI":
        with np.errstate(over="ignore"):
            lo = _dn2(np.exp(self.lo))
            hi = _up2(np.exp(self.hi))
        hi = np.where(np.isinf(hi), np.nan, hi)
        lo = np.where(np.isnan(hi), np.nan, np.maximum(lo, 0.0))
        return VI(lo, hi)

    def log(self) -> "VI":
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = _dn2(np.log(self.lo))
            hi = _up2(np.log(self.hi))
        bad = ~(self.lo > 0.0)
        lo = np.where(bad, np.nan, lo)
        hi = np.where(bad, np.nan, hi)
        return VI(lo, hi)

    def pow(self, other) -> "VI":
        """self**other for positive self: the min and max of the four corners
        np.power(self.lo|self.hi, other.lo|other.hi), nudged 2 ulp outward,
        the lower bound clamped at 0.  Lanes with self.lo <= 0, or whose upper
        bound overflows, are NaN."""
        o = self._coerce(other)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            c1 = np.power(self.lo, o.lo)
            c2 = np.power(self.lo, o.hi)
            c3 = np.power(self.hi, o.lo)
            c4 = np.power(self.hi, o.hi)
        lo = _dn2(np.minimum(np.minimum(c1, c2), np.minimum(c3, c4)))
        hi = _up2(np.maximum(np.maximum(c1, c2), np.maximum(c3, c4)))
        bad = ~(self.lo > 0.0) | np.isinf(hi)
        lo = np.where(bad, np.nan, np.maximum(lo, 0.0))
        hi = np.where(bad, np.nan, hi)
        return VI(lo, hi)

    def pow_nonneg(self, other) -> "VI":
        """self**other for self >= 0 and positive exponents: the zero-touching
        lower bound maps to 0 instead of poisoning the lane.  One pow serves
        both: zero-touching lanes take it on the point [hi, hi] (1 if hi <= 0,
        then discarded) for their upper bound."""
        o = self._coerce(other)
        touches = self.lo <= 0.0
        pos = self.hi > 0.0
        top = np.where(pos, self.hi, 1.0)
        r = VI(np.where(touches, top, self.lo), np.where(touches, top, self.hi)).pow(o)
        lo = np.where(touches, 0.0, r.lo)
        hi = np.where(touches & ~pos, 0.0, r.hi)
        bad = (self.lo < 0.0) | ~(o.lo > 0.0)
        return VI(np.where(bad, np.nan, lo), np.where(bad, np.nan, hi))

    def intersect(self, other: "VI"):
        """(intersection VI, empty mask); empty lanes become NaN.

        NaN (invalid) input lanes stay NaN and are not marked empty."""
        o = self._coerce(other)
        lo = np.maximum(self.lo, o.lo)
        hi = np.minimum(self.hi, o.hi)
        with np.errstate(invalid="ignore"):
            empty = lo > hi  # False on NaN lanes
        lo = np.where(empty, np.nan, lo)
        hi = np.where(empty, np.nan, hi)
        return VI(lo, hi), empty

    def contains_zero(self):
        return (self.lo <= 0.0) & (self.hi >= 0.0)

    def __repr__(self) -> str:
        return f"VI({self.lo!r}, {self.hi!r})"
