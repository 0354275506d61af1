"""The formulas of the moduli surface, each written once over a generic scalar.

Arguments may be floats (numpy float scalars too), float arrays or VIs, so
the same code gives machine-double values, vectorized samples, or rigorous
enclosures: batch.py evaluates the formulas on the VI lane, and the scalar
Interval entry points of enclosure.py run them on one VI lane.  On the VI
lane a lane whose box leaves an atom's domain, or whose enclosure of F_tau
contains zero, turns NaN instead of raising.  The formulas are the power
atoms of
F(tau, sigma, p) = A^p + B^p - 1 and Delta, the tau fixed-point map, the
derivatives of Delta along the surface F = 0, and the boundary values sigma_p,
tau_p, Delta(p, 1) and their p-slopes.

The surface derivatives are implicit differentiation written out in the atoms:
tau' = -F_sigma/F_tau and tau'' = -(F_ss + 2 F_st tau' + F_tt tau'^2)/F_tau in
sigma, tau_p = -F_p/F_tau in p, and on to tau''' and the mixed tau_sp and
tau_ssp for the slopes of d2Delta/dsigma2 in sigma and p with its atom
tau^(p-2) held (delta_held_slopes).  The
atoms that several derivatives share are computed once per call
(_power_atoms, _sigma_terms, _p_slope), so each formula is written once.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .vints import VI

__all__ = [
    "slog",
    "spow",
    "spow_nonneg",
    "tpow",
    "f_tau_scalar",
    "delta_scalar",
    "lift",
    "TAU_SEED",
    "TAU_STEPS",
    "phi_consts",
    "phi_scalar",
    "sigma_p_scalar",
    "d_sigma_p_scalar",
    "tau_p_resid_scalar",
    "tau_p_scalar",
    "delta_edge_low_scalar",
    "d_delta_edge_low_scalar",
    "delta_sigma_terms",
    "delta_sigma_derivs",
    "delta_p_deriv",
    "delta_gradient",
    "delta_held_slopes",
    "tau_pow_log",
    "SingularConstraint",
]


class SingularConstraint(Exception):
    """F_tau vanishes (or its enclosure contains zero): implicit function
    theorem unavailable at this point/box."""


# -- generic scalar helpers ----------------------------------------------------


def slog(x):
    """ln x on every lane: float, float array, VI."""
    if isinstance(x, VI):
        return x.log()
    if isinstance(x, np.ndarray):
        return np.log(x)
    return math.log(x)


def spow(x, y):
    """x**y for positive x, generic scalar."""
    if isinstance(x, VI):
        return x.pow(y)
    return x**y


def spow_nonneg(x, y):
    """x**y for x >= 0 and exponent y with positive lower range.

    VI.pow poisons zero-touching bases; here x = 0 is allowed (tau
    intervals are clamped into [0, 0.36] and may touch zero).
    """
    if isinstance(x, VI):
        return x.pow_nonneg(y)
    return x**y


def lift(p, lo, hi=None):
    """The constant [lo, hi] (the point lo when hi is None) in the lanes of
    the VI p; lo and hi are floats or per-lane float arrays."""
    return VI.full_like(p, lo, lo if hi is None else hi)


# -- Delta, the tau fixed point and the surface derivatives --------------------


def tpow(tau, e):
    """tau**e; a zero-touching tau lane is only valid for e > 0.  On a VI
    tau, pow_nonneg equals pow on the lanes off zero when e > 0 there."""
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


# The tau fixed point T <- phi(T) ∩ T: the seed (every
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

    On the VI lane a box too wide for A > 0 or 1 - A^p > 0 turns its lane
    NaN."""
    u = 1 + spow_nonneg(tau, p)
    A = spow(u, -inv_p) - a0
    return spow(u, inv_p) * (spow(1 - spow(A, p), inv_p) - sa0)


_E = (math.nextafter(math.e, 0.0), math.nextafter(math.e, 4.0))  # e, rounded outward


def tau_pow_log(tau, p):
    """Enclosure of tau^p * ln(tau) for tau in [0, 1), any exponent p.

    For p > 0 the product extends continuously by 0 at tau = 0; it falls
    until tau* = exp(-1/p), where it takes its least value -1/(e p), and
    rises after.  It is increasing in p (its p-slope is tau^p ln(tau)^2), so
    the lower bound is taken at p lo and the upper at p hi, each at a tau end
    or at tau*.  Below tau* (every tau <= 0.36 when p > 1) it is decreasing,
    and monotone endpoint evaluation is tight.  A lane whose p reaches 0 or
    below takes the natural product, which needs tau > 0.  Scalar types:
    float, float array, VI.
    """
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
        positive = P.lo > 0.0
        turn = np.exp(-1.0 / np.where(positive, P.lo, 1.0))
        past = positive & (tau.hi > turn * (1.0 - 1e-9))
        if past.any():  # tau* may lie in tau: past the fall
            at_lo = np.where(tau.lo > 0.0, (tl.pow(plo) * tl.log()).lo, 0.0)
            least = (-1.0 / (VI.point(np.where(positive, P.lo, 1.0)) * VI(*_E))).lo
            least = np.where(tau.lo <= turn * (1.0 + 1e-9), least, np.inf)
            lo = np.where(past, np.minimum(np.minimum(lo, at_lo), least), lo)
            hi = np.where(past, np.maximum(hi, (th.pow(phi) * th.log()).hi), hi)
        if not positive.all():
            natural = tau.pow(P) * tau.log()
            lo = np.where(positive, lo, natural.lo)
            hi = np.where(positive, hi, natural.hi)
        bad = (tau.lo < 0.0) | np.isnan(tau.lo)
        return VI(np.where(bad, np.nan, lo), np.where(bad, np.nan, hi))
    if isinstance(tau, np.ndarray):
        pos = tau > 0.0
        t = np.where(pos, tau, 1.0)
        return np.where(pos, t**p * np.log(t), 0.0)
    if tau <= 0.0:
        return 0.0
    return tau**p * math.log(tau)


class _Atoms(NamedTuple):
    """The power atoms of the first surface derivatives at (p, sigma, tau),
    with s_i = sigma^(p-i), t_i = tau^(p-i), us = 1 + sigma^p,
    ut = 1 + tau^p, a_i = us^(-i-1/p), b_i = ut^(-i-1/p), alpha_i = A^(p-i),
    beta_i = B^(p-i), and F_tau."""

    inv_p: object
    sp: object
    s1: object
    t1: object
    us: object
    ut: object
    a0: object
    a1: object
    b0: object
    b1: object
    A: object
    B: object
    alpha1: object
    beta1: object
    f_tau: object


def _power_atoms(p, sigma, tau) -> _Atoms:
    """The atoms that dDelta/dsigma, dDelta/dp and the higher derivatives
    share, computed once; on the VI lane a lane whose A is not positive
    turns NaN."""
    one = 1
    inv_p = one / p
    sp = spow(sigma, p)
    s1 = spow(sigma, p - one)
    tp_ = spow_nonneg(tau, p)
    t1 = spow_nonneg(tau, p - one)
    us = one + sp
    ut = one + tp_
    a0 = spow(us, -inv_p)
    a1 = spow(us, -one - inv_p)
    b0 = spow(ut, -inv_p)
    b1 = spow(ut, -one - inv_p)
    A = b0 - a0
    B = tau * b0 + sigma * a0
    alpha1 = spow(A, p - one)
    beta1 = spow(B, p - one)
    f_tau = p * b1 * (beta1 - t1 * alpha1)
    return _Atoms(inv_p, sp, s1, t1, us, ut, a0, a1, b0, b1, A, B, alpha1, beta1, f_tau)


def f_tau_scalar(p, sigma, tau):
    """dF/dtau = p * b1 * (B^(p-1) - tau^(p-1) * A^(p-1)), generic scalar."""
    return _power_atoms(p, sigma, tau).f_tau


def _sigma_slope(p, sigma, tau, at: _Atoms):
    """(tau', H, H_t, dH/dsigma, dDelta/dsigma) along the surface, with
    tau' = -F_sigma/F_tau, G = tau + sigma and H = a0 b0, so Delta = G H."""
    one = 1
    f_sigma = p * at.a1 * (at.s1 * at.alpha1 + at.beta1)
    tau1 = -f_sigma / at.f_tau
    H = at.a0 * at.b0
    H_s = -at.s1 * at.a1 * at.b0
    H_t = -at.t1 * at.b1 * at.a0
    dH = H_s + H_t * tau1
    dds = (one + tau1) * H + (tau + sigma) * dH
    return tau1, H, H_t, dH, dds


class _PSlope(NamedTuple):
    """The p-derivatives (sigma and tau held) of the atoms at (p, sigma, tau):
    ls = ln sigma, tpl = tau^p ln tau, lA = ln A, lB = ln B, ra = d ln a0/dp,
    rb = d ln b0/dp, the p-slopes of a0, b0, A and B, and
    tau_p = -F_p/F_tau."""

    ls: object
    tpl: object
    lA: object
    lB: object
    ra: object
    rb: object
    a0_p: object
    b0_p: object
    A_p: object
    B_p: object
    tau_p: object


def _p_slope(p, sigma, tau, at: _Atoms) -> _PSlope:
    """_PSlope at (p, sigma, tau); every ln tau is folded into the bounded
    tau^p ln tau (tau_pow_log)."""
    ls = slog(sigma)
    tpl = tau_pow_log(tau, p)
    ra = slog(at.us) / (p * p) - at.sp * ls / (p * at.us)
    rb = slog(at.ut) / (p * p) - tpl / (p * at.ut)
    a0_p = at.a0 * ra
    b0_p = at.b0 * rb
    A_p = b0_p - a0_p
    B_p = tau * b0_p + sigma * a0_p
    lA = slog(at.A)
    lB = slog(at.B)
    alpha0 = spow(at.A, p)
    beta0 = spow(at.B, p)
    f_p = alpha0 * lA + p * at.alpha1 * A_p + beta0 * lB + p * at.beta1 * B_p
    return _PSlope(ls, tpl, lA, lB, ra, rb, a0_p, b0_p, A_p, B_p, -f_p / at.f_tau)


def _delta_p(p, sigma, tau, at: _Atoms, ps: _PSlope):
    """dDelta/dp along the surface from the atoms and their p-slopes."""
    G = tau + sigma
    H = at.a0 * at.b0
    dDelta_dp = G * (ps.a0_p * at.b0 + at.a0 * ps.b0_p)
    dDelta_dtau = H - G * at.t1 * at.b1 * at.a0
    return dDelta_dp + dDelta_dtau * ps.tau_p


def delta_p_deriv(p, sigma, tau):
    """dDelta/dp along the constraint surface, atom form.

    Valid on zero-touching tau enclosures: every ln(tau) occurrence is folded
    into the bounded product tau^p ln(tau).
    """
    at = _power_atoms(p, sigma, tau)
    return _delta_p(p, sigma, tau, at, _p_slope(p, sigma, tau, at))


def delta_gradient(p, sigma, tau):
    """(dDelta/dsigma, dDelta/dp) along the constraint surface: the values of
    delta_sigma_derivs and delta_p_deriv, bit for bit, from one set of power
    atoms."""
    at = _power_atoms(p, sigma, tau)
    dds = _sigma_slope(p, sigma, tau, at)[-1]
    return dds, _delta_p(p, sigma, tau, at, _p_slope(p, sigma, tau, at))


class _SigmaTerms(NamedTuple):
    """The second-order sigma atoms: s2, t2, a2, b2, alpha2, beta2, the
    partials of A, B (A_s = s1 a1, A_t = -t1 b1, B_s = a1, B_t = b1; every
    mixed partial of A and B vanishes), F_sigma sigma = p q_ss,
    F_sigma tau, F_tau tau = p q_tt, tau' and tau'', and H with its
    partials and its sigma-derivatives dH, d2H along the surface."""

    s2: object
    t2: object
    a2: object
    b2: object
    alpha2: object
    beta2: object
    A_s: object
    A_t: object
    A_ss: object
    A_tt: object
    B_ss: object
    B_tt: object
    q_ss: object
    q_tt: object
    f_st: object
    f_tt: object
    tau1: object
    tau2: object
    H: object
    H_t: object
    H_st: object
    H_tt: object
    dH: object
    d2H: object
    dds: object
    dds2: object


def _sigma_terms(p, sigma, tau, at: _Atoms) -> _SigmaTerms:
    """_SigmaTerms by implicit differentiation:
    tau'' = -(F_ss + 2 F_st tau' + F_tt tau'^2)/F_tau."""
    one = 1
    inv_p, s1, t1, a1, b1 = at.inv_p, at.s1, at.t1, at.a1, at.b1
    alpha1, beta1 = at.alpha1, at.beta1
    s2 = spow(sigma, p - 2)
    t2 = tpow(tau, p - 2)
    a2 = spow(at.us, -2 - inv_p)
    b2 = spow(at.ut, -2 - inv_p)
    alpha2 = spow(at.A, p - 2)
    beta2 = spow(at.B, p - 2)
    tau1, H, H_t, dH, dds = _sigma_slope(p, sigma, tau, at)

    A_s = s1 * a1
    A_t = -t1 * b1
    B_s = a1
    B_t = b1
    A_ss = (p - one) * s2 * a1 - (p + one) * s1 * s1 * a2
    A_tt = -(p - one) * t2 * b1 + (p + one) * t1 * t1 * b2
    B_ss = -(p + one) * s1 * a2
    B_tt = -(p + one) * t1 * b2

    q_ss = (
        (p - one) * alpha2 * A_s * A_s
        + alpha1 * A_ss
        + (p - one) * beta2 * B_s * B_s
        + beta1 * B_ss
    )
    f_ss = p * q_ss
    f_st = p * (p - one) * a1 * b1 * (beta2 - alpha2 * s1 * t1)
    q_tt = (
        (p - one) * alpha2 * A_t * A_t
        + alpha1 * A_tt
        + (p - one) * beta2 * B_t * B_t
        + beta1 * B_tt
    )
    f_tt = p * q_tt
    tau2 = -(f_ss + 2 * f_st * tau1 + f_tt * tau1 * tau1) / at.f_tau

    G = tau + sigma
    H_ss = -A_ss * at.b0
    H_st = s1 * t1 * a1 * b1
    H_tt = A_tt * at.a0
    d2H = H_ss + 2 * H_st * tau1 + H_tt * tau1 * tau1 + H_t * tau2
    dds2 = tau2 * H + 2 * (one + tau1) * dH + G * d2H
    return _SigmaTerms(
        s2, t2, a2, b2, alpha2, beta2, A_s, A_t, A_ss, A_tt, B_ss, B_tt,
        q_ss, q_tt, f_st, f_tt, tau1, tau2, H, H_t, H_st, H_tt, dH, d2H, dds, dds2,
    )


def delta_sigma_terms(p, sigma, tau):
    """(_Atoms, _SigmaTerms) at (p, sigma, tau): the power atoms and the
    second-order sigma terms, which d2Delta/dsigma2 and the third
    derivatives share.  On the VI lane every field is a VI of the same lanes,
    and each lane depends on that lane's (p, sigma, tau) alone."""
    at = _power_atoms(p, sigma, tau)
    return at, _sigma_terms(p, sigma, tau, at)


def delta_sigma_derivs(p, sigma, tau):
    """(dDelta/dsigma, d2Delta/dsigma2) along the constraint surface.

    Assembled from the power atoms only, so it stays valid on zero-touching
    tau intervals whenever every tau exponent is positive (p > 2 covers the
    curve-adjacent columns where this matters; elsewhere tau is bounded away
    from zero and any p > 1 works).  Implicit differentiation throughout:
    tau' = -F_sigma/F_tau, tau'' = -(F_ss + 2 F_st tau' + F_tt tau'^2)/F_tau.
    """
    st = delta_sigma_terms(p, sigma, tau)[1]
    return st.dds, st.dds2


def delta_held_slopes(p, sigma, tau, terms=None):
    """(h_s, h_p, C1): the slopes in sigma and p of d2Delta/dsigma2 along the
    constraint surface with its one atom u = tau^(p-2) held, and C1, its
    coefficient; the terms of the mean-value form of d2Delta/dsigma2 over a
    box.  `terms` is delta_sigma_terms(p, sigma, tau), computed here when
    None; a caller that has them already, on these lanes or (VI lane) on a
    wider call of which these lanes are a selection, passes them on.

    u is t2 of _sigma_terms and enters d2Delta/dsigma2 through A_tt only, so
    d2Delta/dsigma2 = C0 + C1 u with
    C1 = -(p-1) b1 tau'^2 [G a0 - p alpha1 (H + G H_t)/F_tau], and
    d3Delta/dsigma3 = h_s + C1 (p-2) tau^(p-3) tau',
    d3Delta/dsigma2dp = h_p + C1 (tau^(p-2) ln tau + (p-2) tau^(p-3) tau_p).
    Holding u drops the -(p-1)(p-2) tau^(p-3) b1 term of A_ttt and the
    -(p-1) tau^(p-2) ln(tau) b1 term of A_ttp, which carry its derivatives;
    what is left stays finite where tau reaches 0 (the curve sigma =
    sigma_p(p)) when p >= 2, so one form serves boxes inside the domain and
    boxes that straddle the curve (batch.subpave_convex_positive).

    Implicit differentiation once more, with D = d/dsigma and E = d/dp along
    the surface (E K = K_p + K_tau tau_p for a function K of p, sigma and
    tau).  D3 F = 0 gives
    tau''' = -(F_sss + 3 F_sst tau' + 3 F_stt tau'^2 + F_ttt tau'^3
               + 3 (F_st + F_tt tau') tau'')/F_tau,
    E D F = 0 gives tau_sp = -(E F_s + E F_t tau')/F_tau and E D2 F = 0
    gives tau_ssp alike; then, with Delta = G H and G = tau + sigma,
    D3 Delta = tau''' H + 3 tau'' DH + 3 (1 + tau') D2H + G D3H and
    E D2 Delta = tau_ssp H + tau'' EH + 2 tau_sp DH + 2 (1 + tau') E DH
    + tau_p D2H + G E D2H.  The partials of A = b0 - a0 and B = tau b0 +
    sigma a0 are those of a0(sigma) and b0(tau), every mixed one zero, and
    their p-partials follow from d ln a_i/dp = ra - i sigma^p ln(sigma)/us
    and d ln b_i/dp = rb - i tau^p ln(tau)/ut.  Every ln tau is folded into a
    bounded tau^e ln tau (tau_pow_log).
    """
    one = 1
    at, st = delta_sigma_terms(p, sigma, tau) if terms is None else terms
    ps = _p_slope(p, sigma, tau, at)
    s1, t1, a0, a1, b0, b1 = at.s1, at.t1, at.a0, at.a1, at.b0, at.b1
    alpha1, beta1, f_tau = at.alpha1, at.beta1, at.f_tau
    s2, t2, a2, b2, alpha2, beta2 = st.s2, st.t2, st.a2, st.b2, st.alpha2, st.beta2
    A_s, A_t, A_ss, A_tt, B_ss, B_tt = st.A_s, st.A_t, st.A_ss, st.A_tt, st.B_ss, st.B_tt
    B_s, B_t = a1, b1
    f_st, f_tt, tau1, tau2, tau_p = st.f_st, st.f_tt, st.tau1, st.tau2, ps.tau_p
    H, H_t, H_st, H_tt = st.H, st.H_t, st.H_st, st.H_tt
    pm1, pm2, pp1 = p - one, p - 2, p + one
    k3 = pm1 * pm2
    m3 = 3 * pm1
    pq = pp1 * (2 * p + one)
    pp = p * pm1
    s11 = s1 * s1
    t11 = t1 * t1
    As2, At2, Ast = A_s * A_s, A_t * A_t, A_s * A_t
    Bs2, Bt2, Bst = B_s * B_s, B_t * B_t, B_s * B_t

    # third partials in (sigma, tau), and tau''' and D3 Delta, u held
    s3 = s2 / sigma
    a3 = a2 / at.us
    b3 = b2 / at.ut
    alpha3 = alpha2 / at.A
    beta3 = beta2 / at.B
    A_sss = k3 * s3 * a1 - m3 * pp1 * s1 * s2 * a2 + pq * s11 * s1 * a3
    A_ttt = m3 * pp1 * t1 * t2 * b2 - pq * t11 * t1 * b3  # u held
    B_sss = pq * s11 * a3 - pp1 * pm1 * s2 * a2
    B_ttt = pq * t11 * b3 - pp1 * pm1 * t2 * b2
    u, v = alpha3 * A_s, alpha3 * A_t
    x, y = beta3 * B_s, beta3 * B_t
    f_sss = p * (
        k3 * (u * As2 + x * Bs2) + m3 * (alpha2 * A_s * A_ss + beta2 * B_s * B_ss)
        + alpha1 * A_sss + beta1 * B_sss
    )
    f_sst = pp * (pm2 * (u * Ast + x * Bst) + alpha2 * A_ss * A_t + beta2 * B_ss * B_t)
    f_stt = pp * (pm2 * (v * Ast + y * Bst) + alpha2 * A_s * A_tt + beta2 * B_s * B_tt)
    f_ttt = p * (
        k3 * (v * At2 + y * Bt2) + m3 * (alpha2 * A_t * A_tt + beta2 * B_t * B_tt)
        + alpha1 * A_ttt + beta1 * B_ttt
    )
    Df_t = f_st + f_tt * tau1  # D F_tau
    tau3 = -(
        f_sss + tau1 * (3 * f_sst + tau1 * (3 * f_stt + tau1 * f_ttt)) + 3 * Df_t * tau2
    ) / f_tau
    H_sss = -(A_sss * b0)
    H_sst = -(A_ss * A_t)
    H_stt = -(A_s * A_tt)
    H_ttt = A_ttt * a0
    DH_t = H_st + H_tt * tau1
    d3H = (
        H_sss + tau1 * (3 * H_sst + tau1 * (3 * H_stt + tau1 * H_ttt))
        + 3 * DH_t * tau2 + H_t * tau3
    )
    G = tau + sigma
    h_s = tau3 * H + 3 * (tau2 * st.dH + (one + tau1) * st.d2H) + G * d3H

    # p-partials (sigma and tau held), and tau_sp, tau_ssp and E D2 Delta
    ls = ps.ls
    ka = at.sp * ls / at.us
    kb = ps.tpl / at.ut
    ga1 = ps.ra - ka  # d ln a1/dp
    ga2 = ga1 - ka
    gb1 = ps.rb - kb
    gb2 = gb1 - kb
    tl1 = tau_pow_log(tau, pm1)  # tau^(p-1) ln tau
    alpha1_p = alpha1 * ps.lA + pm1 * alpha2 * ps.A_p
    alpha2_p = alpha2 * ps.lA + pm2 * alpha3 * ps.A_p
    beta1_p = beta1 * ps.lB + pm1 * beta2 * ps.B_p
    beta2_p = beta2 * ps.lB + pm2 * beta3 * ps.B_p
    X1 = s2 * a1  # A_ss = pm1 X1 - pp1 X2
    X2 = s11 * a2
    Y1 = t2 * b1  # A_tt = pp1 Y2 - pm1 Y1
    Y2 = t11 * b2
    A_sp = A_s * (ls + ga1)
    A_tp = A_t * gb1 - tl1 * b1
    B_sp = B_s * ga1
    B_tp = B_t * gb1
    A_ssp = X1 * (one + pm1 * (ls + ga1)) - X2 * (one + pp1 * (2 * ls + ga2))
    A_ttp = Y2 + pp1 * (2 * t1 * tl1 * b2 + Y2 * gb2) - Y1 - pm1 * Y1 * gb1  # u held
    B_ssp = -(s1 * a2 * (one + pp1 * (ls + ga2)))
    B_ttp = -(t1 * b2 * (one + pp1 * gb2) + pp1 * tl1 * b2)
    m2 = 2 * pm1
    f_sp = alpha1 * A_s + beta1 * B_s + p * (
        alpha1_p * A_s + alpha1 * A_sp + beta1_p * B_s + beta1 * B_sp
    )
    f_tp = alpha1 * A_t + beta1 * B_t + p * (
        alpha1_p * A_t + alpha1 * A_tp + beta1_p * B_t + beta1 * B_tp
    )
    g_a = alpha2 + pm1 * alpha2_p
    g_b = beta2 + pm1 * beta2_p
    f_ssp = st.q_ss + p * (
        g_a * As2 + m2 * alpha2 * A_s * A_sp + alpha1_p * A_ss + alpha1 * A_ssp
        + g_b * Bs2 + m2 * beta2 * B_s * B_sp + beta1_p * B_ss + beta1 * B_ssp
    )
    f_ttp = st.q_tt + p * (
        g_a * At2 + m2 * alpha2 * A_t * A_tp + alpha1_p * A_tt + alpha1 * A_ttp
        + g_b * Bt2 + m2 * beta2 * B_t * B_tp + beta1_p * B_tt + beta1 * B_ttp
    )
    f_stp = (2 * p - one) * (alpha2 * Ast + beta2 * Bst) + pp * (
        alpha2_p * Ast + alpha2 * (A_sp * A_t + A_s * A_tp)
        + beta2_p * Bst + beta2 * (B_sp * B_t + B_s * B_tp)
    )
    Ef_t = f_tp + f_tt * tau_p
    tau_sp = -(f_sp + f_st * tau_p + Ef_t * tau1) / f_tau
    tau_ssp = -(
        f_ssp + f_sst * tau_p
        + tau1 * (2 * (f_stp + f_stt * tau_p) + tau1 * (f_ttp + f_ttt * tau_p))
        + 2 * tau_sp * Df_t + Ef_t * tau2
    ) / f_tau
    H_sp = -(A_s * b0 * (ls + ga1 + ps.rb))
    H_tp = a0 * (A_tp + A_t * ps.ra)
    H_ssp = -(b0 * (A_ssp + A_ss * ps.rb))
    H_stp = -(A_sp * A_t + A_s * A_tp)
    H_ttp = a0 * (A_ttp + A_tt * ps.ra)
    EH_t = H_tp + H_tt * tau_p
    EdH = H_sp + H_st * tau_p + EH_t * tau1 + H_t * tau_sp
    Ed2H = (
        H_ssp + H_sst * tau_p
        + tau1 * (2 * (H_stp + H_stt * tau_p) + tau1 * (H_ttp + H_ttt * tau_p))
        + 2 * tau_sp * DH_t + EH_t * tau2 + H_t * tau_ssp
    )
    EH = H * (ps.ra + ps.rb) + H_t * tau_p
    h_p = (
        tau_ssp * H + tau2 * EH + 2 * (tau_sp * st.dH + (one + tau1) * EdH)
        + tau_p * st.d2H + G * Ed2H
    )
    c1 = -(pm1 * b1 * tau1 * tau1 * (G * a0 - p * alpha1 * (H + G * H_t) / f_tau))
    return h_s, h_p, c1


# -- boundary values on the p-axis ---------------------------------------------
#
# Functions of p alone, for the two edges of the parameter domain: sigma = 1,
# where Delta(p, 1) is fixed by tau_p, and the curve sigma = sigma_p(p), where
# Delta = sigma_p/2.  p is a VI.

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
    call.
    """
    plo, phi = np.ravel(p.lo), np.ravel(p.hi)
    n = plo.size
    # search lanes: the lo end of p lane i is lane i, its hi end lane n + i.
    # The estimates pair the p ends as the interval residual does:
    # h.lo = 2(1-t)^{p hi} - (1 + t^{p lo}), h.hi = 2(1-t)^{p lo} - (1 + t^{p hi})
    start, step = _tau_p_guess(np.concatenate([phi, plo]), np.concatenate([plo, phi]))

    def verified(t, lanes):
        # lo ends: h.lo > 0 verified; hi ends: h.hi < 0 not verified
        i = lanes % n
        r = tau_p_resid_scalar(VI(plo[i], phi[i]), t)
        return np.where(lanes < n, r.lo > 0.0, ~(r.hi < 0.0))

    k = _last_true(verified, start, step)
    lo = k[:n].view(np.float64)
    hi = (k[n:] + 1).view(np.float64)
    return VI(lo.reshape(p.lo.shape), hi.reshape(p.lo.shape))


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
