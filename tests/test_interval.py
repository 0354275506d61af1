"""Interval value type: anchor examples, containment, isotonicity, rounding
direction, and its ops as one-lane VI ops."""

import cmath
import math
import operator
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from critlat.interval import (
    EMPTY,
    Box,
    DivisionByZeroInterval,
    DomainError,
    Interval,
    IntervalOverflow,
    hull,
    intersect,
)
from critlat.vints import VI

OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}


def ulps_wide(iv: Interval) -> int:
    """Width of iv measured in steps of math.nextafter from lo."""
    x = iv.lo
    n = 0
    while x < iv.hi and n < 64:
        x = math.nextafter(x, math.inf)
        n += 1
    return n


class TestArith:
    def test_mul_sign_cases(self):
        r = Interval(1, 2) * Interval(-1, 1)
        assert r.contains_interval(Interval(-2, 2))
        assert ulps_wide(Interval(r.lo, -2.0)) <= 1 and ulps_wide(Interval(2.0, r.hi)) <= 1

    def test_div_third_tight(self):
        r = Interval(1, 1) / Interval(3, 3)
        third = Fraction(1, 3)
        assert Fraction(r.lo) <= third <= Fraction(r.hi)
        assert ulps_wide(r) <= 2

    def test_div_by_zero_interval(self):
        with pytest.raises(DivisionByZeroInterval):
            Interval(1, 1) / Interval(-1, 2)

    def test_overflow_is_explicit(self):
        big = Interval(1e308, 1e308)
        with pytest.raises(IntervalOverflow):
            big + big

    def test_directed_rounding_add(self):
        # 0.1 + 0.2 rounds; bounds must bracket the exact rational sum.
        r = Interval(0.1, 0.1) + Interval(0.2, 0.2)
        exact = Fraction(0.1) + Fraction(0.2)
        assert Fraction(r.lo) <= exact <= Fraction(r.hi)
        assert ulps_wide(r) <= 2

    def test_mul_directed(self):
        r = Interval(0.1, 0.1) * Interval(0.3, 0.3)
        exact = Fraction(0.1) * Fraction(0.3)
        assert Fraction(r.lo) <= exact <= Fraction(r.hi)
        assert ulps_wide(r) <= 2


class TestElem:
    def test_pow_sqrt4(self):
        r = Interval(4, 4).pow(Interval(0.5, 0.5))
        assert r.contains(2.0)
        assert ulps_wide(r) <= 4

    def test_ln_one_contains_zero(self):
        r = Interval(1, 1).log()
        assert r.lo < 0.0 < r.hi

    def test_pow_interval_base(self):
        getcontext().prec = 40
        lo_exact = Decimal(2) ** Decimal("1.5")
        hi_exact = Decimal(3) ** Decimal("1.5")
        r = Interval(2, 3).pow(Interval(1.5, 1.5))
        assert Decimal(r.lo) <= lo_exact
        assert Decimal(r.hi) >= hi_exact
        # stays reasonably tight
        assert float(hi_exact) - r.hi > -1e-12
        assert r.hi - float(hi_exact) < 1e-12

    def test_pow_rejects_zero_base(self):
        with pytest.raises(DomainError):
            Interval(0.0, 2.0).pow(Interval(1.5, 1.5))

    def test_ln_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            Interval(0.0, 1.0).log()

    def test_exp_log_roundtrip_contains(self):
        x = Interval(0.3, 0.7)
        r = x.exp().log()
        assert r.lo <= 0.3 and r.hi >= 0.7


class TestSetOps:
    def test_intersect_overlap(self):
        assert intersect(Interval(0, 0.36), Interval(0.2, 0.5)) == Interval(0.2, 0.36)

    def test_intersect_disjoint_empty(self):
        assert intersect(Interval(0, 1), Interval(2, 3)) is EMPTY

    def test_hull(self):
        assert hull(Interval(0, 1), Interval(2, 3)) == Interval(0, 3)

    def test_commutative_idempotent(self):
        a, b = Interval(0.1, 0.9), Interval(0.5, 1.7)
        assert intersect(a, b) == intersect(b, a)
        assert hull(a, b) == hull(b, a)
        assert intersect(a, a) == a
        assert hull(a, a) == a


class TestMetrics:
    def test_simple(self):
        iv = Interval(1, 3)
        assert (iv.width, iv.mid) == (2.0, 2.0)

    def test_iteration_seed_interval(self):
        iv = Interval(0, 0.36)
        assert iv.width == 0.36
        assert iv.mid == 0.18

    def test_degenerate(self):
        iv = Interval(0.7, 0.7)
        assert iv.width == 0.0
        assert iv.mid == 0.7

    def test_midpoint_always_member(self):
        rng = random.Random(7)
        for _ in range(200):
            lo = rng.uniform(-10, 10)
            hi = lo + abs(rng.gauss(0, 1e-13))
            iv = Interval(lo, hi)
            assert iv.contains(iv.mid)


def _sample_intervals(rng, n):
    los = rng.uniform(-5, 5, size=n)
    his = los + rng.uniform(0, 3, size=n)
    return los, his


class TestContainment:
    """Point results never escape interval results (10^6 samples over all ops)."""

    N = 250_000  # per operation; 10^6 total

    def test_containment_all_ops(self):
        rng = np.random.default_rng(20240811)
        for op in ("add", "sub", "mul", "div"):
            alo, ahi = _sample_intervals(rng, self.N)
            blo, bhi = _sample_intervals(rng, self.N)
            if op == "div":
                blo = np.abs(blo) + 0.1
                bhi = blo + rng.uniform(0, 3, size=self.N)
            xs = rng.uniform(alo, ahi)
            ys = rng.uniform(blo, bhi)
            pts = {
                "add": xs + ys,
                "sub": xs - ys,
                "mul": xs * ys,
                "div": xs / ys,
            }[op]
            # spot-build intervals on a subsample (interval op is scalar code)
            idx = rng.choice(self.N, size=400, replace=False)
            for i in idx:
                a = Interval(alo[i], ahi[i])
                b = Interval(blo[i], bhi[i])
                r = OPS[op](a, b)
                assert r.lo <= pts[i] <= r.hi, (op, i)
            # full-vector check against a single hull interval
            a = Interval(float(alo.min()), float(ahi.max()))
            b = Interval(float(blo.min()), float(bhi.max()))
            r = OPS[op](a, b)
            assert r.lo <= pts.min() and pts.max() <= r.hi

    def test_containment_elem(self):
        rng = np.random.default_rng(99)
        los = rng.uniform(0.05, 4, size=100)
        his = los + rng.uniform(0, 2, size=100)
        for lo, hi in zip(los, his):
            x = Interval(lo, hi)
            pts = rng.uniform(lo, hi, size=1000)
            e = x.exp()
            assert np.all((np.exp(pts) >= e.lo) & (np.exp(pts) <= e.hi))
            l = x.log()
            assert np.all((np.log(pts) >= l.lo) & (np.log(pts) <= l.hi))
            pw = x.pow(Interval(1.3, 1.7))
            ys = rng.uniform(1.3, 1.7, size=1000)
            vals = pts**ys
            assert np.all((vals >= pw.lo) & (vals <= pw.hi))


class TestDirectedBoundsExact:
    """Every arithmetic bound brackets the exact rational result."""

    def test_arith_vs_fractions(self):
        rng = random.Random(20260808)
        for _ in range(1500):
            a = rng.uniform(-50, 50) * rng.choice((1e-8, 1.0, 1e6))
            b = rng.uniform(-50, 50) * rng.choice((1e-8, 1.0, 1e6))
            fa, fb = Fraction(a), Fraction(b)
            ia, ib = Interval.point(a), Interval.point(b)
            cases = [
                (ia + ib, fa + fb),
                (ia - ib, fa - fb),
                (ia * ib, fa * fb),
            ]
            if b != 0.0:
                cases.append((ia / ib, fa / fb))
            for iv, exact in cases:
                assert Fraction(iv.lo) <= exact <= Fraction(iv.hi)


class TestIsotonicity:
    def test_inclusion_isotone(self):
        rng = random.Random(3)
        for _ in range(300):
            lo = rng.uniform(-3, 3)
            hi = lo + rng.uniform(0.01, 2)
            a = Interval(lo, hi)
            shrink = rng.uniform(0, 0.4) * (hi - lo)
            a_sub = Interval(lo + shrink / 2, hi - shrink / 2)
            blo = rng.uniform(0.1, 2)
            b = Interval(blo, blo + rng.uniform(0.01, 1))
            b_sub = Interval(b.lo + 0.003, b.hi - 0.003)
            for op in ("add", "sub", "mul", "div"):
                outer = OPS[op](a, b)
                inner = OPS[op](a_sub, b_sub)
                assert outer.contains_interval(inner), op
            if a_sub.lo > 0:
                assert a.exp().contains_interval(a_sub.exp())
                pos = Interval(a_sub.lo, a_sub.hi)
                outer_pos = Interval(min(a.lo, pos.lo), max(a.hi, pos.hi))
                assert outer_pos.exp().contains_interval(pos.exp())

    def test_composed_outward_vs_decimal(self):
        # exp(x * ln x) - x/3 at point intervals vs 40-digit decimal
        getcontext().prec = 40
        rng = random.Random(11)
        for _ in range(50):
            x = rng.uniform(0.2, 3.0)
            xi = Interval(x, x)
            r = (xi * xi.log()).exp() - xi / Interval(3, 3)
            d = Decimal(x)
            exact = (d * d.ln()).exp() - d / 3
            assert Decimal(r.lo) <= exact <= Decimal(r.hi)


class TestBox:
    def test_guards(self):
        with pytest.raises(DomainError):
            Box.of(0.9, 2.0, 1.0, 1.5)
        with pytest.raises(DomainError):
            Box.of(2.0, 2.5, 0.5, 1.5)

    def test_mid_and_contains(self):
        b = Box.of(2.0, 3.0, 1.0, 1.5)
        pm, sm = b.mid
        assert b.contains_point(pm, sm)
        assert b.contains_box(Box.of(2.2, 2.8, 1.1, 1.4))
        assert not b.contains_box(Box.of(2.2, 3.2, 1.1, 1.4))


def _bits(*xs):
    return np.array(xs, dtype=float).view(np.int64).tolist()


def _one_lane(x):
    if isinstance(x, Interval):
        return VI(np.array([x.lo]), np.array([x.hi]))
    return VI(np.array([float(x)]), np.array([float(x)]))


class TestOneLaneVI:
    """Every Interval op is the VI op on a one-lane VI, bit for bit, and
    raises the documented exception where that lane is NaN."""

    def test_ops_equal_one_lane_vi_ops(self):
        rng = np.random.default_rng(20261019)
        binary = {
            "add": (operator.add, VI.__add__),
            "sub": (operator.sub, VI.__sub__),
            "mul": (operator.mul, VI.__mul__),
            "div": (operator.truediv, VI.__truediv__),
            "pow": (Interval.pow, VI.pow),
        }
        unary = {"neg": (Interval.__neg__, VI.__neg__), "exp": (Interval.exp, VI.exp),
                 "log": (Interval.log, VI.log)}
        for _ in range(400):
            lo = rng.uniform(0.01, 5.0, 2) * rng.choice([1e-8, 1.0, 1e6])
            x = Interval(lo[0], lo[0] + rng.choice([0.0, 1e-9, 0.5]) * lo[0])
            y = Interval(lo[1], lo[1] * (1.0 + rng.choice([0.0, 1e-6, 2.0])))
            if rng.random() < 0.5:
                x = -x if rng.random() < 0.5 else x
            others = (y, float(y.lo), -y)
            e = rng.uniform(-4.5, 4.5)
            exponents = (Interval(e, e + rng.choice([0.0, 1e-9, 1.0])), e)
            with np.errstate(all="ignore"):
                for name, (op, vop) in binary.items():
                    for o in exponents if name == "pow" else others:
                        if name == "pow" and not x.lo > 0.0:
                            continue
                        r, v = op(x, o), vop(_one_lane(x), _one_lane(o))
                        assert _bits(r.lo, r.hi) == _bits(v.lo[0], v.hi[0]), (name, x, o)
                    if name != "pow":  # the reflected ops, a float on the left
                        r, v = op(float(y.hi), x), vop(_one_lane(y.hi), _one_lane(x))
                        assert _bits(r.lo, r.hi) == _bits(v.lo[0], v.hi[0]), (name, x)
                for name, (op, vop) in unary.items():
                    if name == "log" and not x.lo > 0.0 or name == "exp" and x.hi > 700.0:
                        continue
                    r, v = op(x), vop(_one_lane(x))
                    assert _bits(r.lo, r.hi) == _bits(v.lo[0], v.hi[0]), (name, x)
            if x.lo >= 0.0:  # sqrt: np.sqrt stepped one float outward
                r = x.sqrt()
                want = Fraction(x.lo), Fraction(x.hi)
                assert Fraction(r.lo) ** 2 <= want[0] and want[1] <= Fraction(r.hi) ** 2
                assert ulps_wide(Interval(r.lo, math.sqrt(x.lo))) <= 1
                assert ulps_wide(Interval(math.sqrt(x.hi), r.hi)) <= 1

    @pytest.mark.parametrize(
        "call, exc",
        [
            (lambda: Interval(0.0, 1.0).log(), DomainError),
            (lambda: Interval(-1.0, 2.0).log(), DomainError),
            (lambda: Interval(0.0, 2.0).pow(1.5), DomainError),
            (lambda: Interval(-1.0, -0.5).pow(Interval(1.0, 2.0)), DomainError),
            (lambda: Interval(-1.0, 4.0).sqrt(), DomainError),
            (lambda: Interval(1.0, 2.0) / Interval(-1.0, 1.0), DivisionByZeroInterval),
            (lambda: Interval(1.0, 2.0) / Interval(0.0, 1.0), DivisionByZeroInterval),
            (lambda: Interval(1.0, 2.0) / 0.0, DivisionByZeroInterval),
            (lambda: 1.0 / Interval(-2.0, 0.0), DivisionByZeroInterval),
            (lambda: Interval(1e308, 1e308) + 1e308, IntervalOverflow),
            (lambda: -1e308 - Interval(1e308, 1e308), IntervalOverflow),
            (lambda: Interval(1e200, 1e200) * 1e200, IntervalOverflow),
            (lambda: Interval(1e300, 1e300) / 1e-300, IntervalOverflow),
            (lambda: Interval(709.0, 710.0).exp(), IntervalOverflow),
            (lambda: Interval(1e300, 1e300).pow(2.0), IntervalOverflow),
        ],
    )
    def test_nan_lanes_raise(self, call, exc):
        with pytest.raises(exc):
            call()


def test_trusted_libm_within_2_ulp():
    # The trusted base (module docstring of critlat.interval): each libm and
    # numpy elementary function the enclosures and the q-series error model
    # call is within 2 ulp of the exact value, per real part for cmath.exp.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20260)
    n = 5000

    def ulps(got, exact):
        return abs(mpmath.mpf(got) - exact) / math.ulp(float(exact))

    wide = rng.uniform(-700.0, 700.0, n // 2)
    near = rng.uniform(-2.0, 2.0, n - n // 2)
    xs = np.concatenate([wide, near])
    pos = np.exp(rng.uniform(-700.0, 700.0, n))
    pos[: n // 4] = rng.uniform(0.5, 1.5, n // 4)  # near log's zero at 1
    bases = rng.uniform(0.01, 3.0, n)
    expos = rng.uniform(-4.0, 4.0, n)
    ys = rng.uniform(-100.0, 100.0, n)
    # VI.pow's corners: bases in (0, 3] and across the range, exponents
    # covering p, 1/p and -1/p
    pbases = np.concatenate([3.0 - rng.uniform(0.0, 3.0, n // 2),
                             np.exp(rng.uniform(-700.0, 700.0, n - n // 2))])
    pexpos = rng.uniform(-4.5, 4.5, n)
    worst = {}
    with mpmath.workprec(120):
        np_exp, np_log = np.exp(xs), np.log(pos)
        with np.errstate(over="ignore", under="ignore"):
            np_pow = np.power(pbases, pexpos)
        for i in range(n):
            x, y, r = float(xs[i]), float(ys[i]), float(pos[i])
            ex = mpmath.exp(x)
            lr = mpmath.log(r)
            cz = mpmath.exp(mpmath.mpc(x, y))
            got = cmath.exp(complex(x, y))
            errs = {
                "np.exp": ulps(float(np_exp[i]), ex),
                "math.exp": ulps(math.exp(x), ex),
                "np.log": ulps(float(np_log[i]), lr) if r != 1.0 else 0.0,
                "math.log": ulps(math.log(r), lr) if r != 1.0 else 0.0,
                "math.pow": ulps(
                    math.pow(float(bases[i]), float(expos[i])),
                    mpmath.power(float(bases[i]), float(expos[i])),
                ),
                "cmath.exp.real": ulps(got.real, cz.real),
                "cmath.exp.imag": ulps(got.imag, cz.imag),
            }
            if np.isfinite(np_pow[i]):  # VI.pow turns an overflowed lane NaN
                errs["np.power"] = ulps(
                    float(np_pow[i]), mpmath.power(float(pbases[i]), float(pexpos[i]))
                )
            for k, e in errs.items():
                worst[k] = max(worst.get(k, 0.0), float(e))
    assert all(e <= 2.0 for e in worst.values()), worst


def test_numpy_keeps_subnormals():
    # The trusted base of the VI lane's float predecessor/successor (module
    # docstring of critlat.interval): numpy's float64 + and * round to
    # nearest and underflow gradually, without flushing subnormals to zero.
    assert (np.array([5e-324]) + 0.0)[0] == 5e-324
    assert (np.array([2.0**-1022]) * 0.5)[0] == 2.0**-1023
    # round to nearest: a tie goes to even, past the tie goes up
    assert (np.array([1.0]) + 2.0**-53)[0] == 1.0
    assert (np.array([1.0]) + (2.0**-53 + 2.0**-105))[0] == 1.0 + 2.0**-52
    assert (np.array([1.0]) * (1.0 + 2.0**-52))[0] == 1.0 + 2.0**-52
