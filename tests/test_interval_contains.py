"""Interval ops: each result contains the exact value at every sampled point
of its input intervals, and an operation raises only where it is undefined
(a divisor containing 0, log or pow of a non-positive base) or a bound leaves
the finite range.  Exact values come from Fraction (add, sub, mul, div) and
from mpmath at 200 bits (exp, log, pow); the examples cover subnormal,
overflowing and zero-touching edges."""

import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import example, given, strategies as st  # noqa: E402

from critlat.interval import (  # noqa: E402
    DivisionByZeroInterval,
    DomainError,
    Interval,
    IntervalOverflow,
)

MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal
# an exact value this close to MAX may round to it, and MAX nudges to inf
OVERFLOWS = MAX * (1.0 - 2.0**-40)

finite = st.one_of(
    st.floats(-1e300, 1e300), st.floats(-8 * TINY, 8 * TINY), st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, MAX, -MAX, 2.0**-1022, -(2.0**-1022)]),
)
positive = st.one_of(
    st.floats(TINY, 1e-300),  # near 0, subnormals included
    st.integers(-64, 64).map(lambda k: 1.0 + k * 2.0**-52),  # near 1
    st.floats(0.01, 3.0),
    st.floats(TINY, 1e300),
)
nonpositive = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, -TINY))
exponent = st.one_of(st.floats(-4.5, 4.5), st.floats(-400.0, 400.0), st.just(0.0))


def interval(draw_lo, draw_hi=None):
    """An Interval from two sorted draws."""
    pair = st.tuples(draw_lo, draw_hi if draw_hi is not None else draw_lo)
    return pair.map(lambda ab: tuple(sorted(ab)))


def points(lo, hi, t):
    """The endpoints and one interior point of [lo, hi]."""
    mid = min(max(lo * (1.0 - t) + hi * t, lo), hi)
    return {lo, mid, hi}


def run(op, *args):
    """op(*args), or the kernel exception it raised."""
    try:
        return op(*args)
    except (IntervalOverflow, DivisionByZeroInterval, DomainError) as exc:
        return exc


def check_rational(r, exacts, huge=Fraction(OVERFLOWS)):
    if isinstance(r, IntervalOverflow):
        assert max(abs(e) for e in exacts) >= huge, r
        return
    assert isinstance(r, Interval), r
    for e in exacts:
        assert Fraction(r.lo) <= e <= Fraction(r.hi), (r, e)


def check_mp(r, exacts, huge=OVERFLOWS):
    if isinstance(r, IntervalOverflow):
        assert max(exacts) >= huge, r
        return
    assert isinstance(r, Interval), r
    for e in exacts:
        assert mpmath.mpf(r.lo) <= e <= mpmath.mpf(r.hi), (r, e)


@given(interval(finite), interval(finite), st.floats(0.0, 1.0))
@example((TINY, 2 * TINY), (-3 * TINY, TINY), 0.5)  # subnormal sums
@example((2.0**-1022, 2.0**-1020), (-(2.0**-1021), 0.0), 0.5)  # near underflow
@example((1e300, 1e300), (MAX, MAX), 0.5)  # overflow
@example((-MAX, -1e300), (-MAX, 0.0), 0.5)
@example((0.1, 0.1), (0.2, 0.2), 0.0)  # inexact at a point
def test_add_and_sub_contain_exact(x, y, t):
    X, Y = Interval(*x), Interval(*y)
    for op, exact in ((Interval.__add__, Fraction.__add__), (Interval.__sub__, Fraction.__sub__)):
        exacts = [exact(Fraction(a), Fraction(b)) for a in points(*x, t) for b in points(*y, t)]
        check_rational(run(op, X, Y), exacts)


@given(interval(finite), interval(finite), st.floats(0.0, 1.0))
@example((TINY, 2 * TINY), (0.5, 3.0), 0.5)  # subnormal products
@example((-1e300, 1e300), (1e300, 1e300), 0.5)  # overflow
@example((1e150, 1e155), (1e140, 1e150), 0.5)  # past the Dekker product's range
@example((-0.0, 0.0), (-MAX, MAX), 0.5)  # zero times anything
@example((0.1, 0.3), (-0.7, 0.1), 0.5)
@example((0.0, 0.5), (0.0, TINY), 0.0)  # a product rounding to 0
@example((3 * TINY, 3 * TINY), (2.0**70, 2.0**70), 0.0)  # subnormal factor
@example((1e-160, 3e-160), (1e-160, 1e-160), 0.5)  # underflowing product
def test_mul_contains_exact(x, y, t):
    exacts = [Fraction(a) * Fraction(b) for a in points(*x, t) for b in points(*y, t)]
    check_rational(run(Interval.__mul__, Interval(*x), Interval(*y)), exacts)


nonzero = st.one_of(
    st.floats(1e-300, 1e300), st.floats(TINY, 8 * TINY), st.floats(0.25, 4.0)
).flatmap(lambda a: st.sampled_from([a, -a]))


@given(interval(finite), interval(st.one_of(nonzero, finite)), st.floats(0.0, 1.0))
@example((1.0, 3.0), (-1.0, 2.0), 0.5)  # divisor across 0
@example((1.0, 3.0), (0.0, 2.0), 0.5)  # divisor touching 0
@example((TINY, 3 * TINY), (3.0, 7.0), 0.5)  # subnormal quotients
@example((2.0**-1021, 2.0**-1020), (1.5, 3.0), 0.5)  # near underflow
@example((1e300, 1e300), (1e-300, 2e-300), 0.5)  # overflow
@example((-1e300, 1e300), (TINY, TINY), 0.5)
@example((1.0, 1.0), (3.0, 3.0), 0.0)  # inexact at a point
@example((1e-300, 3e-300), (7e-301, 7e-301), 0.0)  # tiny dividend, normal quotient
@example((4.0153906355662307e-308, 4.0153906355662307e-308),
         (-8.835808627950198e-06, -8.835808627950198e-06), 0.0)  # an underflowing residual
@example((1e-200, 1e-200), (3e200, 3e200), 0.0)  # subnormal quotient
def test_div_contains_exact(x, y, t):
    r = run(Interval.__truediv__, Interval(*x), Interval(*y))
    if y[0] <= 0.0 <= y[1]:
        assert isinstance(r, DivisionByZeroInterval), r
        return
    exacts = [Fraction(a) / Fraction(b) for a in points(*x, t) for b in points(*y, t)]
    check_rational(r, exacts)


@given(interval(st.one_of(st.floats(-800.0, 800.0), st.floats(-8 * TINY, 8 * TINY))),
       st.floats(0.0, 1.0))
@example((709.0, 710.0), 0.5)  # overflow
@example((-800.0, -745.5), 0.5)  # underflow
@example((-TINY, TINY), 0.5)  # subnormal
def test_exp_contains_exact(x, t):
    with mpmath.workprec(200):
        r = run(Interval.exp, Interval(*x))
        if isinstance(r, Interval):
            assert r.lo >= 0.0
        check_mp(r, [mpmath.exp(mpmath.mpf(a)) for a in points(*x, t)])


@given(interval(st.one_of(positive, nonpositive), positive), st.floats(0.0, 1.0))
@example((TINY, 4 * TINY), 0.5)  # subnormal
@example((1.0 - 2.0**-52, 1.0 + 2.0**-52), 0.5)  # log's zero at 1
@example((0.0, 2.0), 0.5)  # touching 0
@example((-1.0, 2.0), 0.5)
def test_log_contains_exact(x, t):
    with mpmath.workprec(200):
        r = run(Interval.log, Interval(*x))
        if not x[0] > 0.0:
            assert isinstance(r, DomainError), r
            return
        check_mp(r, [mpmath.log(mpmath.mpf(a)) for a in points(*x, t)], huge=mpmath.inf)


# exp(y log x) widens the exponent by a few ulps of |y log x| <= 710 before it
# overflows, so an interval exponent may overflow this far below MAX
POW_OVERFLOWS = MAX * 2.0**-20


@given(interval(st.one_of(positive, nonpositive), positive), interval(exponent),
       st.booleans(), st.floats(0.0, 1.0))
@example((0.5, 2.0), (-1.5, 2.5), False, 0.5)  # base across 1, exponent across 0
@example((1.0 - 2.0**-52, 1.0 + 2.0**-52), (-4.5, 4.5), False, 0.3)
@example((TINY, 2.0 * TINY), (0.5, 0.5), True, 0.0)  # subnormal base
@example((1e300, 1e300), (2.0, 2.0), True, 0.0)  # overflow
@example((1e-300, 1e-300), (2.0, 2.0), True, 0.0)  # underflow
@example((1e-300, 1e-300), (1.5, 2.5), False, 0.5)
@example((0.0, 1.0), (1.0, 2.0), False, 0.5)  # base touching 0
@example((2.0, 3.0), (0.0, 0.0), True, 0.5)  # exponent 0
def test_pow_contains_exact(x, y, point_exponent, t):
    if point_exponent:
        y = (y[0], y[0])
    with mpmath.workprec(200):
        r = run(Interval.pow, Interval(*x), y[0] if point_exponent else Interval(*y))
        if not x[0] > 0.0:
            assert isinstance(r, DomainError), r
            return
        if isinstance(r, Interval):
            assert r.lo >= 0.0
        exacts = [mpmath.power(mpmath.mpf(a), mpmath.mpf(b))
                  for a in points(*x, t) for b in points(*y, t)]
        check_mp(r, exacts, huge=OVERFLOWS if point_exponent else POW_OVERFLOWS)
