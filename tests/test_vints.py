"""VI lane: each result lane contains the exact value at every sampled point
of its input box, and turns NaN only where the operation is undefined or its
upper bound overflows.  Exact values come from Fraction (products) and from
mpmath at 200 bits (exp, log, pow)."""

import sys
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import example, given, strategies as st  # noqa: E402

from critlat.vints import VI  # noqa: E402

MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal
# an exact range this close to MAX may round to it, and MAX nudges to inf
OVERFLOWS = MAX * (1.0 - 2.0**-40)

near_one = st.integers(-64, 64).map(lambda k: 1.0 + k * 2.0**-52)
positive = st.one_of(
    st.floats(TINY, 1e-300),  # near 0, subnormals included
    near_one,
    st.floats(0.01, 3.0),
    st.floats(TINY, 1e300),
)
nonpositive = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, -TINY))
exponent = st.one_of(st.floats(-4.5, 4.5), st.floats(-400.0, 400.0), st.just(0.0))


def lanes_of(lo, hi=None):
    """Lists of 1-6 lanes, each the sorted pair of one draw from `lo` and
    one from `hi` (default `lo`)."""
    pair = st.tuples(lo, hi if hi is not None else lo).map(lambda ab: tuple(sorted(ab)))
    return st.lists(pair, min_size=1, max_size=6)


def vi(lanes) -> VI:
    return VI(np.array([a for a, _ in lanes]), np.array([b for _, b in lanes]))


def points(lo, hi, t):
    """The endpoints and one interior point of [lo, hi]."""
    mid = min(max(lo * (1.0 - t) + hi * t, lo), hi)
    return {lo, mid, hi}


def mp(x):
    return mpmath.mpf(float(x))


def check(r, i, exacts, may_overflow=True):
    """Lane i of r is NaN only if the exact range reaches MAX, and otherwise
    contains every exact value."""
    lo, hi = float(r.lo[i]), float(r.hi[i])
    if np.isnan(lo) or np.isnan(hi):
        assert may_overflow and max(exacts) >= OVERFLOWS, (i, lo, hi)
        return
    for e in exacts:
        assert mp(lo) <= e <= mp(hi), (i, lo, hi, e)


def power(x, y):
    return mpmath.power(mp(x), mp(y))


@given(lanes_of(st.one_of(positive, nonpositive), positive), lanes_of(exponent),
       st.floats(0.0, 1.0))
@example([(0.5, 2.0)], [(-1.5, 2.5)], 0.5)  # base across 1, exponent across 0
@example([(1.0 - 2.0**-52, 1.0 + 2.0**-52)], [(-4.5, 4.5)], 0.3)
@example([(TINY, 2.0 * TINY)], [(0.5, 0.5)], 0.0)  # subnormal base
@example([(1e300, 1e300)], [(2.0, 2.0)], 0.0)  # overflow
@example([(1e-300, 1e-300)], [(2.0, 2.0)], 0.0)  # underflow
@example([(0.0, 1.0), (-1.0, 1.0)], [(1.0, 2.0), (1.0, 2.0)], 0.5)
def test_pow_contains_exact(xs, ys, t):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    with mpmath.workprec(200):
        r = vi(xs).pow(vi(ys))
        for i, ((xl, xh), (yl, yh)) in enumerate(zip(xs, ys)):
            if not xl > 0.0:
                assert np.isnan(r.lo[i]) and np.isnan(r.hi[i])
                continue
            assert np.isnan(r.lo[i]) or r.lo[i] >= 0.0
            check(r, i, [power(x, y) for x in points(xl, xh, t) for y in points(yl, yh, t)])


@given(lanes_of(st.one_of(positive, st.just(0.0)), positive),
       lanes_of(st.one_of(exponent, positive)), st.floats(0.0, 1.0))
@example([(0.0, 0.36)], [(2.5, 2.7)], 0.5)  # tau touching 0
@example([(0.0, 0.0)], [(1.5, 1.5)], 0.0)
@example([(0.0, 1.0)], [(-0.5, 2.0)], 0.5)  # exponent not positive
@example([(0.0, 1e300)], [(2.0, 3.0)], 0.5)  # overflow
@example([(0.0, TINY)], [(0.5, 3.0)], 0.5)  # subnormal top
def test_pow_nonneg_contains_exact(xs, ys, t):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    with mpmath.workprec(200):
        r = vi(xs).pow_nonneg(vi(ys))
        for i, ((xl, xh), (yl, yh)) in enumerate(zip(xs, ys)):
            if not yl > 0.0:
                assert np.isnan(r.lo[i]) and np.isnan(r.hi[i])
                continue
            assert np.isnan(r.lo[i]) or r.lo[i] >= 0.0
            check(r, i, [power(x, y) for x in points(xl, xh, t) for y in points(yl, yh, t)])


@given(lanes_of(st.one_of(st.floats(-800.0, 800.0), st.floats(-TINY * 8, TINY * 8))),
       st.floats(0.0, 1.0))
@example([(709.0, 710.0)], 0.5)  # overflow
@example([(-800.0, -745.5)], 0.5)  # underflow
@example([(-TINY, TINY)], 0.5)  # subnormal
def test_exp_contains_exact(xs, t):
    with mpmath.workprec(200):
        r = vi(xs).exp()
        for i, (xl, xh) in enumerate(xs):
            assert np.isnan(r.lo[i]) or r.lo[i] >= 0.0
            check(r, i, [mpmath.exp(mp(x)) for x in points(xl, xh, t)])


@given(lanes_of(st.one_of(positive, nonpositive), positive), st.floats(0.0, 1.0))
@example([(TINY, 4 * TINY)], 0.5)  # subnormal
@example([(1.0 - 2.0**-52, 1.0 + 2.0**-52)], 0.5)  # log's zero at 1
@example([(0.0, 2.0), (-1.0, 2.0)], 0.5)
def test_log_contains_exact(xs, t):
    with mpmath.workprec(200):
        r = vi(xs).log()
        for i, (xl, xh) in enumerate(xs):
            if not xl > 0.0:
                assert np.isnan(r.lo[i]) and np.isnan(r.hi[i])
                continue
            check(r, i, [mpmath.log(mp(x)) for x in points(xl, xh, t)], may_overflow=False)


finite = st.one_of(
    st.floats(-1e300, 1e300), st.floats(-8 * TINY, 8 * TINY), st.floats(-4.0, 4.0)
)


def bounded(lo, hi, exact):
    """lo <= exact <= hi for float bounds that may be infinite."""
    return (lo == -np.inf or Fraction(lo) <= exact) and (hi == np.inf or exact <= Fraction(hi))


@given(lanes_of(finite), lanes_of(finite), st.floats(0.0, 1.0))
@example([(TINY, 2 * TINY)], [(0.5, 3.0)], 0.5)  # subnormal products
@example([(-1e300, 1e300)], [(1e300, 1e300)], 0.5)  # overflow to inf
def test_mul_contains_exact(xs, ys, t):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    with np.errstate(over="ignore"):
        r = vi(xs) * vi(ys)
    for i, ((xl, xh), (yl, yh)) in enumerate(zip(xs, ys)):
        lo, hi = float(r.lo[i]), float(r.hi[i])
        assert not (np.isnan(lo) or np.isnan(hi))
        for x in points(xl, xh, t):
            for y in points(yl, yh, t):
                assert bounded(lo, hi, Fraction(x) * Fraction(y)), (i, lo, hi, x, y)


@pytest.mark.parametrize(
    "x, y, expect",
    [
        ((1e300, 1e300), (2.0, 2.0), "nan"),  # overflow
        ((0.5, 2.0), (-1100.0, 1.0), "nan"),  # overflow from a negative exponent
        ((0.0, 2.0), (1.0, 2.0), "nan"),  # non-positive base
        ((-1.0, 2.0), (1.0, 2.0), "nan"),
        ((1e-300, 1e-300), (2.0, 2.0), "zero"),  # underflow
        ((1e300, 1e300), (-2.0, -2.0), "zero"),
        ((TINY, TINY), (0.5, 0.5), "positive"),  # subnormal base
        ((709.0, 710.0), None, "nan"),  # exp overflow
        ((-800.0, -800.0), None, "zero"),  # exp underflow
    ],
)
def test_pow_and_exp_edges(x, y, expect):
    with np.errstate(all="ignore"):
        x = VI([x[0]], [x[1]])
        r = x.exp() if y is None else x.pow(VI([y[0]], [y[1]]))
    lo, hi = float(r.lo[0]), float(r.hi[0])
    if expect == "nan":
        assert np.isnan(lo) and np.isnan(hi)
    elif expect == "zero":
        assert lo == 0.0 and 0.0 < hi < 1e-300
    else:
        assert 0.0 < lo < hi < 1e-161
