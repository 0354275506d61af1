"""VI lane: each result lane contains the exact value at every sampled point
of its input box, and turns NaN only where the operation is undefined or its
upper bound overflows.  Exact values come from Fraction (add, sub, mul, div)
and from mpmath at 200 bits (exp, log, pow).  The outward steps equal
np.nextafter bit for bit outside their documented edges, and pow and exp
equal their np.nextafter forms."""

import sys
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import example, given, strategies as st  # noqa: E402

from critlat import vints  # noqa: E402
from critlat.jets import tpow  # noqa: E402
from critlat.vints import VI  # noqa: E402


@pytest.fixture(autouse=True, scope="module")
def _quiet_numpy():
    # VI ops leave numpy's floating-point warnings to their caller, and the
    # batch.py entry points silence them; these tests call the ops directly
    with np.errstate(all="ignore"):
        yield


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
# every lane in one monotone class: pow takes two corners
@example([(0.25, 0.5), (TINY, 1.0)], [(1.5, 2.5), (0.0, 0.5)], 0.5)  # x <= 1, y >= 0
@example([(0.25, 0.5), (0.5, 1.0)], [(-2.5, -1.5), (-0.5, 0.0)], 0.5)  # x <= 1, y <= 0
@example([(1.5, 3.0), (1.0, 1e300)], [(0.5, 2.0), (0.0, 0.0)], 0.5)  # x >= 1, y >= 0
@example([(1.5, 3.0), (1.0, 1.0)], [(-2.0, -0.5), (-400.0, -0.0)], 0.5)  # x >= 1, y <= 0
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
@example([(0.0, 0.5)], [(0.0, TINY)], 0.0)  # a product rounding to 0
@example([(3 * TINY, 3 * TINY)], [(2.0**70, 2.0**70)], 0.0)  # subnormal factor
@example([(1e-160, 3e-160)], [(1e-160, 1e-160)], 0.5)  # underflowing product
@example([(1e150, 1e155)], [(1e140, 1e150)], 0.5)
@example([(-0.0, 0.0)], [(-MAX, MAX)], 0.5)  # zero times anything
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


@given(lanes_of(finite), lanes_of(finite), st.floats(0.0, 1.0))
@example([(TINY, 2 * TINY)], [(-3 * TINY, TINY)], 0.5)  # subnormal sums
@example([(2.0**-1022, 2.0**-1020)], [(-(2.0**-1021), 0.0)], 0.5)  # near underflow
@example([(1e300, 1e300)], [(MAX, MAX)], 0.5)  # overflow to inf
@example([(-MAX, -1e300)], [(-MAX, 0.0)], 0.5)
@example([(0.1, 0.1)], [(0.2, 0.2)], 0.0)  # inexact at a point
def test_add_and_sub_contain_exact(xs, ys, t):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = vi(xs), vi(ys)
        results = {"add": (x + y, lambda a, b: a + b), "sub": (x - y, lambda a, b: a - b)}
    for r, op in results.values():
        for i, ((xl, xh), (yl, yh)) in enumerate(zip(xs, ys)):
            exacts = [op(Fraction(a), Fraction(b))
                      for a in points(xl, xh, t) for b in points(yl, yh, t)]
            lo, hi = float(r.lo[i]), float(r.hi[i])
            if np.isnan(lo) or np.isnan(hi):  # a bound overflowed to inf
                assert max(abs(e) for e in exacts) >= Fraction(OVERFLOWS), (i, lo, hi)
                continue
            assert all(bounded(lo, hi, e) for e in exacts), (i, lo, hi)


nonzero = st.one_of(
    st.floats(1e-300, 1e300), st.floats(TINY, 8 * TINY), st.floats(0.25, 4.0)
).flatmap(lambda a: st.sampled_from([a, -a]))


@given(lanes_of(finite), lanes_of(st.one_of(nonzero, finite)), st.floats(0.0, 1.0))
@example([(1.0, 3.0)], [(-1.0, 2.0)], 0.5)  # divisor across 0
@example([(1.0, 3.0)], [(0.0, 2.0)], 0.5)  # divisor touching 0
@example([(-1.0, 1.0)], [(-0.0, -0.0)], 0.5)
@example([(TINY, 3 * TINY)], [(3.0, 7.0)], 0.5)  # subnormal quotients
@example([(2.0**-1021, 2.0**-1020)], [(1.5, 3.0)], 0.5)  # near underflow
@example([(1e300, 1e300)], [(1e-300, 2e-300)], 0.5)  # overflow to inf
@example([(-1e300, 1e300)], [(TINY, TINY)], 0.5)
@example([(1e-300, 3e-300)], [(7e-301, 7e-301)], 0.0)  # tiny dividend, normal quotient
@example([(4.0153906355662307e-308, 4.0153906355662307e-308)],
         [(-8.835808627950198e-06, -8.835808627950198e-06)], 0.0)  # underflowing residual
@example([(1e-200, 1e-200)], [(3e200, 3e200)], 0.0)  # subnormal quotient
def test_div_contains_exact(xs, ys, t):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    with np.errstate(over="ignore", invalid="ignore"):
        r = vi(xs) / vi(ys)
    for i, ((xl, xh), (yl, yh)) in enumerate(zip(xs, ys)):
        lo, hi = float(r.lo[i]), float(r.hi[i])
        if yl <= 0.0 <= yh:
            assert np.isnan(lo) and np.isnan(hi)
            continue
        exacts = [Fraction(a) / Fraction(b)
                  for a in points(xl, xh, t) for b in points(yl, yh, t)]
        if np.isnan(lo) or np.isnan(hi):  # a bound overflowed to inf
            assert max(abs(e) for e in exacts) >= Fraction(OVERFLOWS), (i, lo, hi)
            continue
        assert all(bounded(lo, hi, e) for e in exacts), (i, lo, hi)


# The outward steps against np.nextafter, and the 2-step forms of pow and
# exp against the np.nextafter forms they replaced.

BAND = (2.0**-1022, 2.0**-1020)  # outside Rump et al.'s theorem


def _same_bits(a, b):
    """Per lane: equal bits, or both NaN."""
    return (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))


def _edge_floats():
    """Signed zeros, subnormals, both ends of the band, the largest float,
    the infinities, NaN, and every power of two with its neighbours."""
    p2 = np.ldexp(1.0, np.arange(-1074, 1024))
    nb = np.concatenate([p2, np.nextafter(p2, 0.0), np.nextafter(p2, np.inf)])
    special = np.array([0.0, TINY, 2 * TINY, 2.0**-1022 - TINY, *BAND, MAX, np.inf])
    x = np.concatenate([nb, special])
    return np.concatenate([x, -x, [np.nan]])


def test_steps_equal_nextafter():
    rng = np.random.default_rng(9)
    n = 2_000_000
    bits = rng.integers(-(2**63), 2**63 - 1, n // 2, dtype=np.int64)  # all floats
    x = np.concatenate([
        bits.view(np.float64),
        rng.uniform(-4.0, 4.0, n // 4),
        rng.uniform(-1.0, 1.0, n // 4) * 2.0**-1020,  # subnormals and the band
        _edge_floats(),
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        for step, to in ((vints._dn, -np.inf), (vints._up, np.inf)):
            got, ref = step(x), np.nextafter(x, to)
            diff = ~_same_bits(got, ref)
            band = (np.abs(x) >= BAND[0]) & (np.abs(x) <= BAND[1])
            # in the band: one step or two, outward
            two = np.nextafter(ref, to)
            assert np.all(_same_bits(got, ref) | _same_bits(got, two) | ~band)
            assert np.count_nonzero(diff & band) > 0
            # elsewhere: an infinity stepped inward is NaN; up(-5e-324) is +0
            odd = x[diff & ~band]
            inward = -np.inf if to > 0 else np.inf
            if to > 0:
                assert set(odd.tolist()) == {inward, -TINY}
                assert step(np.array([-TINY]))[0] == 0.0
            else:
                assert set(odd.tolist()) == {inward}
            assert np.isnan(step(np.array([inward]))[0])


def _old_dn2(x):
    return np.nextafter(np.nextafter(x, -np.inf), -np.inf)


def _old_up2(x):
    return np.nextafter(np.nextafter(x, np.inf), np.inf)


def _old_pow(x, y):
    """VI.pow with np.nextafter steps, as it was written."""
    c = [np.power(a, b) for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    lo = _old_dn2(np.minimum(np.minimum(c[0], c[1]), np.minimum(c[2], c[3])))
    hi = _old_up2(np.maximum(np.maximum(c[0], c[1]), np.maximum(c[2], c[3])))
    bad = ~(x.lo > 0.0) | np.isinf(hi)
    return VI(np.where(bad, np.nan, np.maximum(lo, 0.0)), np.where(bad, np.nan, hi))


def _old_pow_nonneg(x, y):
    """VI.pow_nonneg over _old_pow."""
    touches = x.lo <= 0.0
    pos = x.hi > 0.0
    top = np.where(pos, x.hi, 1.0)
    r = _old_pow(VI(np.where(touches, top, x.lo), np.where(touches, top, x.hi)), y)
    lo = np.where(touches, 0.0, r.lo)
    hi = np.where(touches & ~pos, 0.0, r.hi)
    bad = (x.lo < 0.0) | ~(y.lo > 0.0)
    return VI(np.where(bad, np.nan, lo), np.where(bad, np.nan, hi))


def _old_exp(x):
    """VI.exp with np.nextafter steps, as it was written."""
    lo = _old_dn2(np.exp(x.lo))
    hi = _old_up2(np.exp(x.hi))
    hi = np.where(np.isinf(hi), np.nan, hi)
    return VI(np.where(np.isnan(hi), np.nan, np.maximum(lo, 0.0)), hi)


def _sorted_lanes(a, b):
    return VI(np.minimum(a, b), np.maximum(a, b))


def _random_lanes(rng, n, draw, edges):
    """n lanes of sorted pairs from draw(), every pair of edges, and lanes
    with one NaN bound."""
    a, b = np.meshgrid(edges, edges)
    lanes = _sorted_lanes(np.concatenate([draw(n), a.ravel()]),
                          np.concatenate([draw(n), b.ravel()]))
    half = np.where(np.arange(edges.size) % 2, np.nan, edges)
    return VI(np.concatenate([lanes.lo, half, edges]), np.concatenate([lanes.hi, edges, half]))


def test_pow_and_exp_steps_equal_nextafter_forms():
    rng = np.random.default_rng(10)
    n = 200_000
    specials = [0.0, -0.0, TINY, 3 * TINY, 2.0**-1022, MAX, np.nextafter(MAX, 0.0),
                np.inf, -np.inf, np.nan, 1.0, -1.0]
    base_edges = np.array(specials + [np.exp(-745.0), np.exp(709.0)])
    expo_edges = np.array(specials + [-4.5, 4.5, 0.5])
    x = _random_lanes(rng, n, lambda k: np.exp(rng.uniform(-745.0, 709.0, k)), base_edges)
    m = x.lo.size
    y = _random_lanes(rng, n, lambda k: rng.uniform(-4.5, 4.5, k), expo_edges)
    y = VI(np.resize(y.lo, m), np.resize(y.hi, m))
    e = _random_lanes(rng, n, lambda k: rng.uniform(-760.0, 720.0, k), base_edges)
    with np.errstate(all="ignore"):
        pairs = [
            (x.pow(y), _old_pow(x, y)),
            (x.pow_nonneg(y), _old_pow_nonneg(x, y)),
            (e.exp(), _old_exp(e)),
        ]
    for new, old in pairs:
        assert np.all(_same_bits(new.lo, old.lo) & _same_bits(new.hi, old.hi))


def _one_class_lanes(rng, n, lo, hi, edge):
    """n sorted lanes drawn from [lo, hi], a sixth of them points, a sixth
    with `edge` (the class boundary, 1 or 0) as an end and a sixth at it."""
    a, b = rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)
    b[::6] = a[::6]
    a[1::6] = edge
    a[2::6] = b[2::6] = edge
    return _sorted_lanes(a, b)


@pytest.mark.parametrize("x_side", ["below 1", "above 1"])
@pytest.mark.parametrize("y_side", ["nonnegative", "nonpositive"])
def test_two_corner_pow_equals_four_corners(x_side, y_side):
    # a call whose lanes all lie in one monotone class takes two np.power
    # corners; its bits are those of the four-corner form, on wide arrays,
    # bases at exactly 1, exponents at exactly 0, point exponents, 0-d lanes
    # and an empty call
    rng = np.random.default_rng(12)
    n = 120_000
    ln_x = (-745.0, 0.0) if x_side == "below 1" else (0.0, 709.0)
    y_range = (0.0, 4.5) if y_side == "nonnegative" else (-4.5, 0.0)
    x = _one_class_lanes(rng, n, *ln_x, 0.0)
    x = VI(np.exp(x.lo), np.exp(x.hi))
    y = _one_class_lanes(rng, n, *y_range, 0.0)
    calls = [
        (x, y),
        (x, VI(y.lo, y.lo)),  # point exponents
        (x, VI(y.lo[:1], y.lo[:1])),  # one exponent for every lane
        (VI(x.lo[0], x.hi[0]), VI(y.lo[0], y.hi[0])),  # 0-d
        (VI(x.lo[:0], x.hi[:0]), VI(y.lo[:0], y.hi[:0])),  # empty
    ]
    if x_side == "below 1":  # a NaN x.lo poisons its lane on either path
        calls.append((VI(np.where(np.arange(n) % 5, x.lo, np.nan), x.hi), y))
    for xs, ys in calls:
        assert (vints._two_corners(xs.lo, xs.hi, ys.lo, ys.hi) is None) == (xs.lo.size == 0)
        new, old = xs.pow(ys), _old_pow(xs, ys)
        assert np.shape(new.lo) == np.shape(old.lo)
        assert np.all(_same_bits(new.lo, old.lo) & _same_bits(new.hi, old.hi))
        nn = xs.pow_nonneg(ys)
        old_nn = _old_pow_nonneg(xs, ys)
        assert np.all(_same_bits(nn.lo, old_nn.lo) & _same_bits(nn.hi, old_nn.hi))
    # a NaN anywhere else, or one lane across a class boundary: four corners
    for xs, ys in [(VI(x.lo, np.where(np.arange(n) % 7, x.hi, np.nan)), y),
                   (x, VI(y.lo, np.where(np.arange(n) % 7, y.hi, np.nan))),
                   (x, VI(np.where(np.arange(n) % 7, y.lo, np.nan), y.hi)),
                   (x, VI(np.append(y.lo[1:], -1.0), np.append(y.hi[1:], 1.0))),
                   (VI(np.append(x.lo[1:], 0.5), np.append(x.hi[1:], 2.0)), y)]:
        assert vints._two_corners(xs.lo, xs.hi, ys.lo, ys.hi) is None


@pytest.mark.parametrize("expo_lo", [TINY, -1.0])
def test_tpow_equals_two_pow_form(expo_lo):
    # with every exponent lane positive (expo_lo > 0) tpow takes one
    # pow_nonneg; either way its lanes are those of the two-pow form
    rng = np.random.default_rng(11)
    n = 200_000
    lo = rng.uniform(-0.05, 0.36, n)
    lo[::7] = 0.0
    lo[::11] = -0.0
    tau = _sorted_lanes(lo, rng.uniform(0.0, 0.36, n))
    e = _sorted_lanes(rng.uniform(expo_lo, 4.5, n), rng.uniform(0.5, 4.5, n))
    with np.errstate(all="ignore"):
        got = tpow(tau, e)
        touches = tau.lo <= 0.0
        assert touches.any() and (~touches).any()
        reg, nn = tau.pow(e), tau.pow_nonneg(e)
        assert np.all(_same_bits(got.lo, np.where(touches, nn.lo, reg.lo)))
        assert np.all(_same_bits(got.hi, np.where(touches, nn.hi, reg.hi)))


def test_0d_vi_computes_what_a_1_lane_vi_does():
    # ufuncs return numpy scalars on 0-d arrays, and the ops keep working on them
    ops = [
        lambda x, y, z: x + y, lambda x, y, z: x - y, lambda x, y, z: x * y,
        lambda x, y, z: x / y, lambda x, y, z: x / z, lambda x, y, z: 2.0 / x,
        lambda x, y, z: 1.0 - x, lambda x, y, z: -x, lambda x, y, z: x.pow(y),
        lambda x, y, z: z.pow_nonneg(y), lambda x, y, z: x.exp(), lambda x, y, z: x.log(),
        lambda x, y, z: z.log(), lambda x, y, z: x.intersect(z)[0],
        lambda x, y, z: x.intersect(y)[0],
    ]
    bounds = ((0.2, 0.3), (1.5, 2.5), (-1.0, 1.0))
    zero_d = [VI(lo, hi) for lo, hi in bounds]
    one_lane = [VI([lo], [hi]) for lo, hi in bounds]
    for op in ops:
        r0, r1 = op(*zero_d), op(*one_lane)
        assert np.shape(r0.lo) == np.shape(r0.hi) == ()
        assert _same_bits(np.atleast_1d(r0.lo), r1.lo).all()
        assert _same_bits(np.atleast_1d(r0.hi), r1.hi).all()
