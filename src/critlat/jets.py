"""Truncated bivariate Taylor jets over a generic scalar type.

A jet carries Taylor coefficients of a function of (sigma, p) up to sigma-degree
`mi` and p-degree `mj`, with mi + mj <= 3 because the series of recip, exp
and log stop at the cubic term (a larger order raises ValueError).
Coefficients may be floats, Intervals, numpy arrays or anything else with
ring operators plus exp/log, so the identical formulas produce machine-double
derivatives, rigorous interval enclosures of derivatives, or vectorized
derivative samples.

The implicit function tau(sigma, p) defined by F(tau, sigma, p) = A^p + B^p - 1
is transported order by order: each new Taylor coefficient of tau equals
-(residual coefficient of F)/F_tau, i.e. implicit differentiation mechanized.

The same generic-scalar style carries every other formula the enclosures
need, each written once: the atom formulas for the sigma-derivatives and
d/dp, the tau fixed-point map, and the boundary values sigma_p, tau_p,
Delta(p, 1) and their p-slopes.  enclosure.py evaluates them on the Interval
lane and batch.py on the VI lane.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .interval import DomainError, Interval, ipow
from .vints import VI

__all__ = [
    "Jet",
    "sexp",
    "slog",
    "spow",
    "spow_nonneg",
    "tpow",
    "f_tau_scalar",
    "atoms_f",
    "delta_scalar",
    "lift",
    "TAU_SEED",
    "TAU_STEPS",
    "phi_consts",
    "phi_scalar",
    "phi_prime",
    "sigma_p_scalar",
    "d_sigma_p_scalar",
    "tau_p_resid_scalar",
    "tau_p_scalar",
    "delta_edge_low_scalar",
    "d_delta_edge_low_scalar",
    "delta_sigma_derivs",
    "delta_p_deriv",
    "tau_pow_log",
    "solve_tau_jet",
    "delta_jet",
    "SingularConstraint",
]


class SingularConstraint(Exception):
    """F_tau vanishes (or its enclosure contains zero): implicit function
    theorem unavailable at this point/box."""


# -- generic scalar helpers ----------------------------------------------------


def sexp(x):
    if type(x) is float:
        return math.exp(x)
    if isinstance(x, np.ndarray):
        return np.exp(x)
    return x.exp()  # Interval, Decimal


def slog(x):
    if type(x) is float:
        return math.log(x)
    if isinstance(x, np.ndarray):
        return np.log(x)
    if isinstance(x, (Interval, VI)):
        return x.log()
    return x.ln()  # Decimal


def spow(x, y):
    """x**y for positive x, generic scalar."""
    if isinstance(x, Interval):
        return ipow(x, y)
    if isinstance(x, VI):
        return x.pow(y)
    return x**y


def spow_nonneg(x, y):
    """x**y for x >= 0 and exponent y with positive lower range.

    The strict kernel pow rejects zero-containing bases; here x = 0 is allowed
    (tau intervals are clamped into [0, 0.36] and may touch zero).
    """
    if isinstance(x, Interval):
        ylo = y.lo if isinstance(y, Interval) else float(y)
        if ylo <= 0.0:
            raise DomainError("spow_nonneg needs a positive exponent")
        if x.lo > 0.0:
            return ipow(x, y)
        if x.lo < 0.0:
            raise DomainError(f"negative base {x!r}")
        if x.hi == 0.0:
            return Interval(0.0, 0.0)
        return Interval(0.0, ipow(Interval(x.hi, x.hi), y).hi)
    if isinstance(x, VI):
        return x.pow_nonneg(y)
    return x**y


def lift(p, lo, hi=None):
    """The constant [lo, hi] (the point lo when hi is None) in the lane of p.

    lo and hi are floats, or per-lane float arrays on the VI lane."""
    if hi is None:
        hi = lo
    if isinstance(p, VI):
        shape = p.lo.shape
        return VI(np.full(shape, lo), np.full(shape, hi))
    return Interval(lo, hi)


# -- moduli atoms in generic scalars -------------------------------------------


def atoms_f(p, sigma, tau):
    """(a0, a1, b0, b1, A, B) for F and F_tau; tau may touch zero."""
    one = 1
    inv_p = one / p
    sp = spow(sigma, p)
    tp = spow_nonneg(tau, p)
    a0 = spow(one + sp, -inv_p)
    b0 = spow(one + tp, -inv_p)
    a1 = spow(one + sp, -one - inv_p)
    b1 = spow(one + tp, -one - inv_p)
    A = b0 - a0
    B = tau * b0 + sigma * a0
    return a0, a1, b0, b1, A, B


def f_tau_scalar(p, sigma, tau):
    """dF/dtau = p * b1 * (B^(p-1) - tau^(p-1) * A^(p-1)), generic scalar."""
    _, _, _, b1, A, B = atoms_f(p, sigma, tau)
    one = 1
    t1 = spow_nonneg(tau, p - one)
    alpha1 = spow(A, p - one)
    beta1 = spow(B, p - one)
    return p * b1 * (beta1 - t1 * alpha1)


# -- jets ----------------------------------------------------------------------

_MUL_TABLES: dict[tuple[int, int], list[list[tuple[int, int]]]] = {}
_SHAPES: dict[tuple[int, int], list[tuple[int, int]]] = {}


def _indices(mi: int, mj: int) -> list[tuple[int, int]]:
    key = (mi, mj)
    if key not in _SHAPES:
        _SHAPES[key] = [(i, j) for j in range(mj + 1) for i in range(mi + 1)]
    return _SHAPES[key]


def _mul_table(mi: int, mj: int):
    key = (mi, mj)
    tab = _MUL_TABLES.get(key)
    if tab is None:
        idx = _indices(mi, mj)
        pos = {ij: k for k, ij in enumerate(idx)}
        tab = [[] for _ in idx]
        for (i1, j1) in idx:
            for (i2, j2) in idx:
                out = (i1 + i2, j1 + j2)
                if out in pos:
                    tab[pos[out]].append((pos[(i1, j1)], pos[(i2, j2)]))
        _MUL_TABLES[key] = tab
    return tab


class Jet:
    __slots__ = ("c", "mi", "mj")

    def __init__(self, coeffs: list, mi: int, mj: int):
        if mi + mj > 3:
            raise ValueError(f"jet order ({mi}, {mj}) exceeds total degree 3")
        self.c = coeffs
        self.mi = mi
        self.mj = mj

    @classmethod
    def const(cls, value, mi: int, mj: int) -> "Jet":
        c = [0.0] * len(_indices(mi, mj))
        c[0] = value
        return cls(c, mi, mj)

    @classmethod
    def var_sigma(cls, value, mi: int, mj: int) -> "Jet":
        j = cls.const(value, mi, mj)
        j.c[_indices(mi, mj).index((1, 0))] = 1.0
        return j

    @classmethod
    def var_p(cls, value, mi: int, mj: int) -> "Jet":
        j = cls.const(value, mi, mj)
        j.c[_indices(mi, mj).index((0, 1))] = 1.0
        return j

    def coeff(self, i: int, j: int):
        return self.c[_indices(self.mi, self.mj).index((i, j))]

    def deriv(self, i: int, j: int):
        """Partial derivative d^{i+j} / dsigma^i dp^j from the Taylor coefficient."""
        return self.coeff(i, j) * float(math.factorial(i) * math.factorial(j))

    def _like(self, coeffs) -> "Jet":
        return Jet(coeffs, self.mi, self.mj)

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return self._like([a + b for a, b in zip(self.c, other.c)])
        c = list(self.c)
        c[0] = c[0] + other
        return self._like(c)

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return self._like([-a for a in self.c])

    def __sub__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return self._like([a - b for a, b in zip(self.c, other.c)])
        c = list(self.c)
        c[0] = c[0] - other
        return self._like(c)

    def __rsub__(self, other) -> "Jet":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return self._like([a * other for a in self.c])
        a, b = self.c, other.c
        out = []
        for pairs in _mul_table(self.mi, self.mj):
            (ka, kb) = pairs[0]
            acc = a[ka] * b[kb]
            for ka, kb in pairs[1:]:
                acc = acc + a[ka] * b[kb]
            out.append(acc)
        return self._like(out)

    __rmul__ = __mul__

    def _tilde(self) -> "Jet":
        c = list(self.c)
        c[0] = 0.0
        return self._like(c)

    def _poly123(self, k1, k2, d3, scale=None) -> "Jet":
        # k1*t + k2*t^2 + t^3/d3 truncated, t = self without its constant
        # term; with a scale, (1 + that) * scale.  The cubic coefficient is a
        # divisor applied after the scale: 1/6 and 1/3 are not floats, and a
        # lane-typed coefficient divided by the exact 6.0 or 3.0 rounds
        # outward on the interval lanes.
        t = self._tilde()
        total = self.mi + self.mj
        acc = t * k1
        if total >= 2:
            t2 = t * t
            acc = acc + t2 * k2
        if scale is not None:
            acc.c[0] = acc.c[0] + 1.0
            acc = acc * scale
        if total >= 3:
            t3 = t2 * t
            if scale is not None:
                t3 = t3 * scale
            acc = acc + t3._like([a / d3 for a in t3.c])
        return acc

    def recip(self) -> "Jet":
        u0 = self.c[0]
        inv = 1 / u0
        w = self * inv  # constant becomes 1
        return w._poly123(-1.0, 1.0, -1.0, inv)

    def __truediv__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return self * other.recip()
        return self * (1 / other)

    def __rtruediv__(self, other) -> "Jet":
        return self.recip() * other

    def exp(self) -> "Jet":
        return self._poly123(1.0, 0.5, 6.0, sexp(self.c[0]))

    def log(self) -> "Jet":
        u0 = self.c[0]
        w = self * (1 / u0)
        series = w._poly123(1.0, -0.5, 3.0)
        series.c[0] = slog(u0)
        return series

    def pow(self, expo) -> "Jet":
        """self**expo for positive constant term; expo is a Jet or scalar."""
        lg = self.log()
        if isinstance(expo, Jet):
            return (expo * lg).exp()
        return (lg * expo).exp()


# -- implicit tau jet and the delta jet ----------------------------------------


def tpow(tau, e):
    """tau**e; a zero-touching tau interval is only valid for e > 0.  On a
    VI tau, pow_nonneg equals pow on the lanes off zero when e > 0 there."""
    if isinstance(tau, Interval) and tau.lo <= 0.0:
        return spow_nonneg(tau, e)
    if isinstance(tau, VI):
        touches = tau.lo <= 0.0
        if not np.any(touches):
            return tau.pow(e)
        if np.all(VI._coerce(e).lo > 0.0):
            return tau.pow_nonneg(e)
        reg = tau.pow(e)
        nn = tau.pow_nonneg(e)
        return VI(
            np.where(touches, nn.lo, reg.lo), np.where(touches, nn.hi, reg.hi)
        )
    return spow(tau, e)


def delta_scalar(p, sigma, tau):
    """Delta = (tau + sigma)(1 + tau^p)^(-1/p)(1 + sigma^p)^(-1/p), generic."""
    one = 1
    inv_p = one / p
    a0 = spow(one + spow(sigma, p), -inv_p)
    b0 = spow(one + spow_nonneg(tau, p), -inv_p)
    return (tau + sigma) * a0 * b0


# The tau fixed point T <- phi(T) ∩ T on both lanes: the seed (every
# in-domain tau lies in [0, tau_p], and tau_p < 0.36 for every p > 1) and the
# step cap.  The iterates are nested, so each one encloses tau; a step that
# returns its iterate unchanged has reached an exact fixed point.
TAU_SEED = (0.0, 0.36)
TAU_STEPS = 64


def phi_consts(p, sigma):
    """(1/p, a0, sigma*a0), a0 = (1 + sigma^p)^(-1/p): the tau-free part of
    the fixed-point map, computed once before the iteration."""
    inv_p = 1 / p
    a0 = spow(1 + spow(sigma, p), -inv_p)
    return inv_p, a0, sigma * a0


def phi_scalar(p, inv_p, a0, sa0, tau):
    """Fixed-point map for tau: (1+tau^p)^(1/p) * ((1 - A^p)^(1/p) - sigma*a0)
    with A = (1+tau^p)^(-1/p) - a0 and (inv_p, a0, sa0) from phi_consts.

    On the Interval lane a box too wide for A > 0 or 1 - A^p > 0 raises the
    DomainError of the kernel pow; on the VI lane such lanes turn NaN."""
    u = 1 + spow_nonneg(tau, p)
    A = spow(u, -inv_p) - a0
    return spow(u, inv_p) * (spow(1 - spow(A, p), inv_p) - sa0)


def phi_prime(p, sigma, tau):
    """d/dtau of the fixed-point map (for the convergence precheck)."""
    one = 1
    inv_p = one / p
    a0 = spow(one + spow(sigma, p), -inv_p)
    u = one + spow_nonneg(tau, p)
    t1 = tpow(tau, p - one)
    A = spow(u, -inv_p) - a0
    Ap = spow(A, p)
    inner = one - Ap
    g = spow(inner, inv_p) - sigma * a0
    d_prefix = t1 * spow(u, inv_p - one)
    d_g = t1 * spow(u, -inv_p - one) * spow(A, p - one) * spow(inner, inv_p - one)
    return d_prefix * g + spow(u, inv_p) * d_g


def tau_pow_log(tau, p):
    """Enclosure of tau^p * ln(tau) for tau in [0, 0.36] and p > 1.

    The product extends continuously by 0 at tau = 0; it is decreasing in tau
    on [0, 0.36] (p ln tau + 1 < 0 there for p > 1) and increasing in p, so
    monotone endpoint evaluation is tight.  Scalar types: float, Interval, VI.
    """
    if isinstance(tau, Interval):
        P = p if isinstance(p, Interval) else Interval.point(float(p))
        if tau.hi == 0.0:
            return Interval(0.0, 0.0)
        th = Interval.point(tau.hi)
        lo = (ipow(th, Interval.point(P.lo)) * th.log()).lo
        if tau.lo > 0.0:
            tl = Interval.point(tau.lo)
            hi = (ipow(tl, Interval.point(P.hi)) * tl.log()).hi
        else:
            hi = 0.0
        return Interval(lo, hi)
    if isinstance(tau, VI):
        P = p if isinstance(p, VI) else VI.point(np.asarray(p, dtype=float))
        th = VI.point(np.where(tau.hi > 0.0, tau.hi, 0.5))
        plo = VI.point(P.lo)
        lo = (th.pow(plo) * th.log()).lo
        lo = np.where(tau.hi > 0.0, lo, 0.0)
        tl = VI.point(np.where(tau.lo > 0.0, tau.lo, 0.5))
        phi = VI.point(P.hi)
        hi = (tl.pow(phi) * tl.log()).hi
        hi = np.where(tau.lo > 0.0, hi, 0.0)
        bad = (tau.lo < 0.0) | np.isnan(tau.lo)
        return VI(np.where(bad, np.nan, lo), np.where(bad, np.nan, hi))
    if tau <= 0.0:
        return 0.0
    return tau**p * math.log(tau)


def delta_p_deriv(p, sigma, tau):
    """dDelta/dp along the constraint surface, atom form.

    Valid on zero-touching tau enclosures: every ln(tau) occurrence is folded
    into the bounded product tau^p ln(tau).
    """
    one = 1
    inv_p = one / p
    sp = spow(sigma, p)
    tp_ = spow_nonneg(tau, p)
    t1 = spow_nonneg(tau, p - one)
    s1 = spow(sigma, p - one)
    us = one + sp
    ut = one + tp_
    a0 = spow(us, -inv_p)
    a1 = spow(us, -one - inv_p)
    b0 = spow(ut, -inv_p)
    b1 = spow(ut, -one - inv_p)
    A = b0 - a0
    B = tau * b0 + sigma * a0
    if isinstance(A, Interval) and A.lo <= 0.0:
        raise DomainError(f"A enclosure {A!r} not positive (box too wide)")
    alpha1 = spow(A, p - one)
    beta1 = spow(B, p - one)
    alpha0 = spow(A, p)
    beta0 = spow(B, p)

    La = slog(us)
    Lb = slog(ut)
    tpl = tau_pow_log(tau, p)  # tau^p ln tau
    a0_p = a0 * (La / (p * p) - sp * slog(sigma) / (p * us))
    b0_p = b0 * (Lb / (p * p) - tpl / (p * ut))
    A_p = b0_p - a0_p
    B_p = tau * b0_p + sigma * a0_p

    f_p = alpha0 * slog(A) + p * alpha1 * A_p + beta0 * slog(B) + p * beta1 * B_p
    f_tau = p * b1 * (beta1 - t1 * alpha1)
    if isinstance(f_tau, Interval):
        if f_tau.contains_zero():
            raise SingularConstraint(f"F_tau enclosure {f_tau!r} contains zero")
    tau_p_slope = -f_p / f_tau

    G = tau + sigma
    H = a0 * b0
    dDelta_dp = G * (a0_p * b0 + a0 * b0_p)
    dDelta_dtau = H - G * t1 * b1 * a0
    return dDelta_dp + dDelta_dtau * tau_p_slope


def delta_sigma_derivs(p, sigma, tau):
    """(dDelta/dsigma, d2Delta/dsigma2) along the constraint surface.

    Assembled from the power atoms only, so it stays valid on zero-touching
    tau intervals whenever every tau exponent is positive (p > 2 covers the
    curve-adjacent columns where this matters; elsewhere tau is bounded away
    from zero and any p > 1 works).  Implicit differentiation throughout:
    tau' = -F_sigma/F_tau, tau'' = -(F_ss + 2 F_st tau' + F_tt tau'^2)/F_tau.
    """
    one = 1
    inv_p = one / p
    sp = spow(sigma, p)
    s1 = spow(sigma, p - one)
    s2 = spow(sigma, p - 2)
    tp_ = spow_nonneg(tau, p)
    t1 = spow_nonneg(tau, p - one)
    t2 = tpow(tau, p - 2)
    us = one + sp
    ut = one + tp_
    a0 = spow(us, -inv_p)
    a1 = spow(us, -one - inv_p)
    a2 = spow(us, -2 - inv_p)
    b0 = spow(ut, -inv_p)
    b1 = spow(ut, -one - inv_p)
    b2 = spow(ut, -2 - inv_p)
    A = b0 - a0
    B = tau * b0 + sigma * a0
    if isinstance(A, Interval) and A.lo <= 0.0:
        raise DomainError(f"A enclosure {A!r} not positive (box too wide)")
    alpha1 = spow(A, p - one)
    alpha2 = spow(A, p - 2)
    beta1 = spow(B, p - one)
    beta2 = spow(B, p - 2)

    f_sigma = p * a1 * (s1 * alpha1 + beta1)
    f_tau = p * b1 * (beta1 - t1 * alpha1)
    if isinstance(f_tau, Interval):
        if f_tau.contains_zero():
            raise SingularConstraint(f"F_tau enclosure {f_tau!r} contains zero")
    tau1 = -f_sigma / f_tau

    A_s = s1 * a1
    A_t = -t1 * b1
    B_s = a1
    B_t = b1
    A_ss = (p - one) * s2 * a1 - (p + one) * s1 * s1 * a2
    A_tt = -(p - one) * t2 * b1 + (p + one) * t1 * t1 * b2
    B_ss = -(p + one) * s1 * a2
    B_tt = -(p + one) * t1 * b2

    f_ss = p * (
        (p - one) * alpha2 * A_s * A_s
        + alpha1 * A_ss
        + (p - one) * beta2 * B_s * B_s
        + beta1 * B_ss
    )
    f_st = p * (p - one) * a1 * b1 * (beta2 - alpha2 * s1 * t1)
    f_tt = p * (
        (p - one) * alpha2 * A_t * A_t
        + alpha1 * A_tt
        + (p - one) * beta2 * B_t * B_t
        + beta1 * B_tt
    )
    tau2 = -(f_ss + 2 * f_st * tau1 + f_tt * tau1 * tau1) / f_tau

    G = tau + sigma
    H = a0 * b0
    H_s = -s1 * a1 * b0
    H_t = -t1 * b1 * a0
    H_ss = -A_ss * b0
    H_st = s1 * t1 * a1 * b1
    H_tt = A_tt * a0
    dH = H_s + H_t * tau1
    dds = (one + tau1) * H + G * dH
    dds2 = (
        tau2 * H
        + 2 * (one + tau1) * dH
        + G * (H_ss + 2 * H_st * tau1 + H_tt * tau1 * tau1 + H_t * tau2)
    )
    return dds, dds2


# -- boundary values on the p-axis ---------------------------------------------
#
# Functions of p alone, for the two edges of the parameter domain: sigma = 1,
# where Delta(p, 1) is fixed by tau_p, and the curve sigma = sigma_p(p), where
# Delta = sigma_p/2.  p is an Interval or a VI.

_LN2 = (math.nextafter(math.log(2.0), 0.0), math.nextafter(math.log(2.0), 1.0))
_LN4 = (math.nextafter(math.log(4.0), 0.0), math.nextafter(math.log(4.0), 4.0))


def sigma_p_scalar(p):
    """sigma_p = (2^p - 1)^(1/p)."""
    return spow(spow(lift(p, 2.0), p) - 1, 1 / p)


def d_sigma_p_scalar(p):
    """d sigma_p/dp = sigma_p [2^p ln2/(p(2^p-1)) - ln(2^p-1)/p^2]."""
    two_p = spow(lift(p, 2.0), p)
    u = two_p - 1
    return sigma_p_scalar(p) * (two_p * lift(p, *_LN2) / (p * u) - slog(u) / (p * p))


def tau_p_resid_scalar(p, t):
    """h(t) = 2(1-t)^p - (1 + t^p) at the float t > 0 (per-lane floats on
    the VI lane); tau_p is its root in (0, 1/2)."""
    T = lift(p, t)
    return 2 * spow(1 - T, p) - (1 + spow(T, p))


def tau_p_scalar(p):
    """Bracket of {tau_p(q) : q in p} from the verified signs of the residual h.

    h decreases in t, h(0) = 1 and h(1/2) = 2^-p - 1 < 0, so tau_p(q) lies in
    (0, 1/2) for every q > 0: above every float t with h(p, t).lo > 0 and
    below every one with h(p, t).hi < 0.  lo is the float whose h.lo > 0 is
    verified while the next float's is not, hi the float whose h.hi < 0 is
    verified while the previous float's is not; a lane where no float
    verifies keeps 0, resp. 1/2.  These are the ends at which a sign
    bisection of [0, 1/2] stops, one end moving only to verified midpoints:
    the verified signs change once near tau_p wherever measured, so the
    transition each side has is the one the bisection finds
    (tests/test_enclosure.py keeps the bisection and compares the bits).

    A search finds them directly (_last_true): from a float estimate of each
    end (_tau_p_guess), it gallops outward on the float bit pattern until the
    sign flips and bisects the gap down to adjacent floats, the lo and hi
    probes of all lanes in one residual call per step.  Every end is verified;
    the estimate only chooses where to start.  A lane's probes depend on its
    own p alone, so its bracket does not depend on the other lanes of its
    call.  The two lanes round differently: on the same p the VI bracket sits
    some ulps off the Interval one, each end on its own lane's transition.
    """
    if isinstance(p, VI):
        plo, phi = np.ravel(p.lo), np.ravel(p.hi)
    else:
        plo, phi = np.array([p.lo]), np.array([p.hi])
    n = plo.size
    # search lanes: the lo end of p lane i is lane i, its hi end lane n + i.
    # The estimates pair the p ends as the interval residual does:
    # h.lo = 2(1-t)^{p hi} - (1 + t^{p lo}), h.hi = 2(1-t)^{p lo} - (1 + t^{p hi})
    start, step = _tau_p_guess(np.concatenate([phi, plo]), np.concatenate([plo, phi]))

    def verified(t, lanes):
        # lo ends: h.lo > 0 verified; hi ends: h.hi < 0 not verified
        if isinstance(p, VI):
            i = lanes % n
            r = tau_p_resid_scalar(VI(plo[i], phi[i]), t)
            r_lo, r_hi = r.lo, r.hi
        else:
            rs = [tau_p_resid_scalar(p, float(x)) for x in t]
            r_lo, r_hi = np.array([r.lo for r in rs]), np.array([r.hi for r in rs])
        return np.where(lanes < n, r_lo > 0.0, ~(r_hi < 0.0))

    k = _last_true(verified, start, step)
    lo = k[:n].view(np.float64)
    hi = (k[n:] + 1).view(np.float64)
    if isinstance(p, VI):
        return VI(lo.reshape(p.lo.shape), hi.reshape(p.lo.shape))
    return Interval(float(lo[0]), float(hi[0]))


_HALF_BITS = int(np.float64(0.5).view(np.int64))
_GALLOP_STEPS = 6  # see _last_true
_EPS = 2.0**-52


def _tau_p_guess(a, b):
    """Per lane, where _last_true starts and its first step, for the root in
    [0, 1/2] of g(t) = 2(1-t)^a - (1 + t^b), lo ends first, then hi ends.

    The float root comes from Newton's method from the root of 2(1-t)^a = 1
    (exact as a grows), each step kept inside the bracket of the signs of g
    seen so far and bisecting it where a step leaves it.  Rounding moves the
    transition of the interval residual off that root, below it for lo ends
    and above it for hi ends, by up to about d = eps (2(1-t)^a (a/(1-t) + 4)
    + 4) / |g'(t)| counted in floats spacing(t) apart (on 3,000 VI
    p-intervals with p in [1.001, 1e6], 0.26 to 1.0 d); the search starts
    d/2 off the root on that side with step d/4.
    """
    with np.errstate(all="ignore"):
        t = np.clip(-np.expm1(-math.log(2.0) / a), 0.0, 0.5)
        t_lo, t_hi = np.zeros_like(t), np.full_like(t, 0.5)
        for _ in range(40):
            u = 1.0 - t
            ua = u**a
            tb = t**b
            g = 2.0 * ua - 1.0 - tb
            slope = -(2.0 * a * ua / u + b * tb / t)
            above = g > 0.0
            t_lo = np.where(above, t, t_lo)
            t_hi = np.where(above, t_hi, t)
            tn = t - g / slope
            tn = np.where((t_lo <= tn) & (tn <= t_hi), tn, 0.5 * (t_lo + t_hi))
            # a step this small leaves t at the noise of g: converged
            moved = np.abs(tn - t) > 2.0**-46 * t
            t = tn
            if not moved.any():
                break
        d = _EPS * (2.0 * ua * (a / u + 4.0) + 4.0) / np.abs(slope) / np.spacing(t)
        d = np.clip(np.nan_to_num(d, nan=1.0), 1.0, _HALF_BITS).astype(np.int64)
    k = np.abs(t).view(np.int64)  # -0.0 has the sign bit set
    n = k.size // 2
    start = np.concatenate([k[:n] - d[:n] // 2, k[n:] + d[n:] // 2])
    return start, np.maximum(d // 4, 1)


def _last_true(pred, start, step):
    """Per lane, the k in [0, K) with pred(k) true and pred(k + 1) false,
    K = the bit pattern of 1/2, taking pred(0) true and pred(K) false; the
    patterns of the floats in [0, 1/2] count them in order.

    pred(t, lanes) gives one bool per float t, lanes[i] naming the lane of
    t[i].  Each lane probes `start` (clipped into (0, K)), then gallops away
    from it in the direction of that probe's outcome by step, 2 step, 4 step,
    ... until the outcome flips, probing next to a known end instead of past
    it, and then bisects the integer gap down to adjacent patterns.  A lane
    still galloping after _GALLOP_STEPS probes probes next to its far end
    once: a lane that never verifies (NaN p) ends there, any other bisects
    from there.  A lane stops once its gap is 1 and leaves the working
    arrays.
    """
    lanes = np.arange(start.size)
    x = np.clip(start, 1, _HALF_BITS - 1)
    up = pred(x.view(np.float64), lanes)  # the gallop's direction
    lo = np.where(up, x, 0)
    hi = np.where(up, _HALF_BITS, x)
    s = step
    gallop = np.ones(x.shape, dtype=bool)
    out = np.empty_like(start)
    for probe in itertools.count(1):
        done = hi - lo <= 1
        if done.any():
            out[lanes[done]] = lo[done]
            keep = ~done
            if not keep.any():
                return out
            lanes, lo, hi, s, up, gallop = (
                v[keep] for v in (lanes, lo, hi, s, up, gallop)
            )
        x = np.where(gallop, np.where(up, lo + s, hi - s), (lo + hi) >> 1)
        if probe == _GALLOP_STEPS:
            x = np.where(gallop, np.where(up, hi - 1, lo + 1), x)
        x = np.clip(x, lo + 1, hi - 1)
        s = np.minimum(s << 1, _HALF_BITS)
        ok = pred(x.view(np.float64), lanes)
        lo = np.where(ok, x, lo)
        hi = np.where(ok, hi, x)
        gallop &= ok == up


def delta_edge_low_scalar(p, tp):
    """Delta(p, 1) = 4^(-1/p) (1 + tau_p)/(1 - tau_p); tp encloses tau_p."""
    return spow(lift(p, 4.0), -(1 / p)) * (1 + tp) / (1 - tp)


def d_delta_edge_low_scalar(p, tp):
    """d/dp of Delta(p, 1) with tau_p'(p) = -h_p/h_t; tp encloses tau_p."""
    one_m = 1 - tp
    h_p = 2 * spow(one_m, p) * slog(one_m) - spow(tp, p) * slog(tp)
    h_t = -2 * p * spow(one_m, p - 1) - p * spow(tp, p - 1)
    tp_prime = -(h_p / h_t)
    return delta_edge_low_scalar(p, tp) * (
        lift(p, *_LN4) / (p * p) + 2 * tp_prime / (1 - tp * tp)
    )


def _f_jet(t: Jet, s: Jet, pj: Jet) -> Jet:
    inv_p = pj.recip()
    neg_inv = -inv_p
    a0 = (s.pow(pj) + 1.0).pow(neg_inv)
    b0 = (t.pow(pj) + 1.0).pow(neg_inv)
    A = b0 - a0
    B = t * b0 + s * a0
    return A.pow(pj) + B.pow(pj) - 1.0


def solve_tau_jet(p_val, s_val, tau0, mi: int, mj: int):
    """Jets (tau, sigma, p) at the point/box, tau transported through F = 0.

    tau0 must enclose (or equal) the root of F(., s_val, p_val); its scalar
    type dictates the arithmetic.  Raises SingularConstraint when F_tau is
    zero or its enclosure contains zero.
    """
    ftau = f_tau_scalar(p_val, s_val, tau0)
    if isinstance(ftau, Interval):
        if ftau.contains_zero():
            raise SingularConstraint(f"F_tau enclosure {ftau!r} contains zero")
    elif isinstance(ftau, np.ndarray):
        if np.any(np.abs(ftau) < 1e-12):
            raise SingularConstraint("F_tau vanishes in sample")
    elif abs(ftau) < 1e-12:
        raise SingularConstraint(f"F_tau = {ftau} below tolerance")

    s = Jet.var_sigma(s_val, mi, mj)
    pj = Jet.var_p(p_val, mi, mj)
    t = Jet.const(tau0, mi, mj)
    idx = _indices(mi, mj)
    for degree in range(1, mi + mj + 1):
        level = [ij for ij in idx if sum(ij) == degree]
        if not level:
            continue
        F = _f_jet(t, s, pj)
        for ij in level:
            k = idx.index(ij)
            t.c[k] = -F.c[k] / ftau
    return t, s, pj


def delta_jet(t: Jet, s: Jet, pj: Jet) -> Jet:
    """(tau + sigma)(1 + tau^p)^(-1/p)(1 + sigma^p)^(-1/p) as a jet."""
    neg_inv = -pj.recip()
    a0 = (s.pow(pj) + 1.0).pow(neg_inv)
    b0 = (t.pow(pj) + 1.0).pow(neg_inv)
    return (t + s) * a0 * b0
