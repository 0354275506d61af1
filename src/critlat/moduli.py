"""Point-valued evaluation on the Minkowski moduli surface.

For an exponent p > 1 and a parameter sigma in [1, sigma_p], the surface point
carries the companion root tau(p, sigma) in [0, tau_p] of A^p + B^p = 1 with

    a_i = (1 + sigma^p)^(-i-1/p),   b_i = (1 + tau^p)^(-i-1/p),
    A = b_0 - a_0,                  B = tau*b_0 + sigma*a_0,

and the determinant value Delta(p, sigma) = (tau + sigma) * b_0 * a_0.
Boundary anchors: tau(p, sigma_p) = 0, tau(p, 1) = tau_p,
Delta(p, sigma_p) = sigma_p / 2, Delta(p, 1) = 4^(-1/p)(1+tau_p)/(1-tau_p).

Everything here is floating point (plus a decimal high-precision mode for
oracle generation); rigorous enclosures live in the enclosure module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .interval import DomainError
from .jets import (
    SingularConstraint,
    delta_p_deriv,
    delta_sigma_derivs,
    f_tau_scalar,
)

__all__ = [
    "ParamDomain",
    "ModuliPoint",
    "Lattice2",
    "BoundaryMin",
    "DeltaDerivatives",
    "NoRootInRange",
    "SingularConstraint",
    "sigma_p",
    "tau_p",
    "tau_point",
    "delta_point",
    "boundary_min",
    "derivatives",
    "lattice_basis",
    "lattice_det",
    "tau_p_vec",
    "tau_point_vec",
    "delta_point_vec",
    "sigma_p_hp",
    "tau_p_hp",
    "tau_point_hp",
    "delta_point_hp",
]

_ENDPOINT_TOL = 1e-12
# bisection steps of tau_p: enough to bracket a root near the least normal float
TAU_P_STEPS = 1100


class NoRootInRange(Exception):
    """A^p + B^p - 1 has no sign change on [0, tau_p]: the point is outside
    the parameter domain."""


@dataclass(frozen=True)
class ParamDomain:
    """A validated (p, sigma) parameter point."""

    p: float
    sigma: float

    def __post_init__(self):
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise DomainError(f"p must exceed 1, got {self.p}")
        sp = sigma_p(self.p)
        if not (1.0 - _ENDPOINT_TOL <= self.sigma <= sp * (1.0 + _ENDPOINT_TOL)):
            raise DomainError(
                f"sigma = {self.sigma} outside [1, sigma_p = {sp}] at p = {self.p}"
            )


@dataclass(frozen=True)
class ModuliPoint:
    p: float
    sigma: float
    tau: float
    delta: float


@dataclass(frozen=True)
class Lattice2:
    """Plane lattice given by a real basis."""

    omega1: tuple[float, float]
    omega2: tuple[float, float]
    kind: str = "custom"


@dataclass(frozen=True)
class BoundaryMin:
    value: float
    side: str  # "sigma=1" | "sigma=sigma_p" | "tie"
    delta_low: float  # Delta(p, 1)
    delta_high: float  # Delta(p, sigma_p)


@dataclass(frozen=True)
class DeltaDerivatives:
    d_sigma: float
    d_sigma2: float
    d_p: float
    d_sigma_p: float
    d_sigma2_p: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.d_sigma, self.d_sigma2, self.d_p, self.d_sigma_p, self.d_sigma2_p)


# -- boundary parameters ---------------------------------------------------------


def sigma_p(p: float) -> float:
    """(2^p - 1)^(1/p), the right edge of the sigma range."""
    if p <= 1.0:
        raise DomainError(f"sigma_p requires p > 1, got {p}")
    return (2.0**p - 1.0) ** (1.0 / p)


def _tau_p_resid(tau: float, p: float) -> float:
    # (1 - tau)^p through log1p: tau_p ~ ln2/p, and for large p rounding
    # 1 - tau would keep few of tau's digits
    return 2.0 * math.exp(p * math.log1p(-tau)) - 1.0 - tau**p


def tau_p(p: float, newton: bool = True) -> float:
    """Unique root of 2(1-tau)^p = 1 + tau^p in [0, 1].

    The left side falls from 2 to 0 and the right rises from 1 to 2, so
    bisection on [0, 1] cannot miss.  It stops once the bracket's width is
    1e-13 of its lower end, and Newton steps then polish the root inside
    the bracket; the root is found to about 1e-15 relative for every float
    p > 1 (its float residual has the root's own relative accuracy, as the
    power goes through log1p).  A bracket that is not that tight after
    TAU_P_STEPS steps raises ArithmeticError naming p.  newton=False is the
    oracle-of-record mode (pure bisection to float exhaustion).
    """
    if p <= 1.0:
        raise DomainError(f"tau_p requires p > 1, got {p}")
    lo, hi = 0.0, 1.0
    for _ in range(TAU_P_STEPS):
        if hi - lo <= (1e-13 * lo if newton else 0.0):
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _tau_p_resid(mid, p) > 0.0:
            lo = mid
        else:
            hi = mid
    if not hi - lo <= 1e-13 * lo:
        raise ArithmeticError(
            f"tau_p({p!r}): the root is not bracketed to 1e-13 relative in "
            f"{TAU_P_STEPS} bisection steps"
        )
    t = 0.5 * (lo + hi)
    if newton:
        for _ in range(4):
            d = -2.0 * p * math.exp((p - 1.0) * math.log1p(-t)) - p * t ** (p - 1.0)
            t = min(max(t - _tau_p_resid(t, p) / d, lo), hi)
    return t


# -- the implicit tau and Delta ---------------------------------------------------


def _f_resid(p: float, sigma: float, tau: float) -> float:
    a0 = (1.0 + sigma**p) ** (-1.0 / p)
    b0 = (1.0 + tau**p) ** (-1.0 / p)
    A = b0 - a0
    B = tau * b0 + sigma * a0
    return A**p + B**p - 1.0


def tau_point(p: float, sigma: float, newton: bool = True) -> float:
    """Root of A^p + B^p = 1 in [0, tau_p]; residual <= 1e-13.

    Bisection brackets the root (F is increasing in both tau and sigma, with
    F(0) <= 0 <= F(tau_p) inside the domain), Newton polishes.  newton=False
    is the bisection-only oracle mode.  A missing sign change (sigma outside
    [1, sigma_p]) raises NoRootInRange.
    """
    if not (p > 1.0 and math.isfinite(p)):
        raise DomainError(f"p must exceed 1, got {p}")
    if sigma < 1.0 - _ENDPOINT_TOL:
        raise DomainError(f"sigma must be >= 1, got {sigma}")
    tp = tau_p(p)
    f0 = _f_resid(p, sigma, 0.0)
    if f0 > 1e-11:
        raise NoRootInRange(f"F(0) = {f0} > 0 at (p={p}, sigma={sigma})")
    if f0 >= 0.0:
        return 0.0
    f1 = _f_resid(p, sigma, tp)
    if f1 < -1e-11:
        raise NoRootInRange(f"F(tau_p) = {f1} < 0 at (p={p}, sigma={sigma})")
    if f1 <= 0.0:
        return tp
    lo, hi = 0.0, tp
    for _ in range(48 if newton else 120):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _f_resid(p, sigma, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    if newton:
        for _ in range(3):
            ft = f_tau_scalar(p, sigma, t)
            t -= _f_resid(p, sigma, t) / ft
            t = min(max(t, 0.0), tp)
    return t


def delta_point(p: float, sigma: float) -> ModuliPoint:
    """Solve tau and assemble the full moduli point with Delta."""
    tau = tau_point(p, sigma)
    a0 = (1.0 + sigma**p) ** (-1.0 / p)
    b0 = (1.0 + tau**p) ** (-1.0 / p)
    return ModuliPoint(p=p, sigma=sigma, tau=tau, delta=(tau + sigma) * b0 * a0)


def delta_edge_low(p: float) -> float:
    """Closed form Delta(p, 1) = 4^(-1/p) (1 + tau_p) / (1 - tau_p)."""
    tp = tau_p(p)
    return 4.0 ** (-1.0 / p) * (1.0 + tp) / (1.0 - tp)


def delta_edge_high(p: float) -> float:
    """Closed form Delta(p, sigma_p) = sigma_p / 2."""
    return 0.5 * sigma_p(p)


def boundary_min(p: float, tie_tol: float = 1e-10) -> BoundaryMin:
    """min(Delta(p,1), Delta(p,sigma_p)) and which edge attains it."""
    dl = delta_edge_low(p)
    dh = delta_edge_high(p)
    if abs(dl - dh) <= tie_tol:
        side = "tie"
    elif dl < dh:
        side = "sigma=1"
    else:
        side = "sigma=sigma_p"
    return BoundaryMin(value=min(dl, dh), side=side, delta_low=dl, delta_high=dh)


# -- derivatives along the constraint surface -------------------------------------


# the imaginary step in p: far below every real part, so h^2 terms vanish in
# floating point, yet far above the smallest normal double
_COMPLEX_STEP = 1e-30


def derivatives(p: float, sigma: float) -> DeltaDerivatives:
    """The five constraint-surface derivatives of Delta at (p, sigma).

    d_sigma, d_sigma2 and d_p are the atom formulas of jets.py on floats at
    the point's tau.  The mixed d_sigma_p and d_sigma2_p are a complex step in
    p (Squire & Trapp, SIAM Review 40, 1998): for f analytic and real on the
    reals, f(p + ih) = f(p) + ih f'(p) + O(h^2), so f'(p) = Im f(p + ih)/h up
    to O(h^2), here far below rounding.  Nothing is subtracted, so nothing
    cancels, and the result is exact to rounding for any small h.  f is
    delta_sigma_derivs with tau following the surface: one Newton step from
    the real root tau0, tc = tau0 - F(p + ih, sigma, tau0)/F_tau(p, sigma,
    tau0), gives tau(p + ih) to first order in h.  F(p, sigma, tau0) = 0, so
    the step moves tau0 by ih (-F_p/F_tau), that is by ih tau_p; the errors
    of F_tau taken at p instead of p + ih and of the dropped Newton
    remainder are O(h^2).

    Needs the interior in the sense tau > 0 (at sigma = sigma_p the powers
    tau^(p-2) degenerate for p < 2), else DomainError; a vanishing F_tau
    raises SingularConstraint.
    """
    p, sigma = float(p), float(sigma)
    tau0 = tau_point(p, sigma)
    if tau0 < 1e-7:
        raise DomainError(
            f"derivatives need tau bounded away from 0 (sigma too close to "
            f"sigma_p at p={p}, sigma={sigma})"
        )
    ftau = f_tau_scalar(p, sigma, tau0)
    if abs(ftau) < 1e-12:
        raise SingularConstraint(f"F_tau = {ftau} below tolerance")
    d_sigma, d_sigma2 = delta_sigma_derivs(p, sigma, tau0)
    h = _COMPLEX_STEP
    pc = complex(p, h)
    tc = tau0 - _f_resid(pc, sigma, tau0) / ftau
    d_sigma_c, d_sigma2_c = delta_sigma_derivs(pc, sigma, tc)
    return DeltaDerivatives(
        d_sigma=d_sigma,
        d_sigma2=d_sigma2,
        d_p=delta_p_deriv(p, sigma, tau0),
        d_sigma_p=d_sigma_c.imag / h,
        d_sigma2_p=d_sigma2_c.imag / h,
    )


# -- critical lattice bases --------------------------------------------------------


def lattice_basis(kind: str, p: float) -> Lattice2:
    """Critical-lattice basis.

    L0: omega1 = (1, 0), omega2 = (1/2, sigma_p/2)   (contains (0, 1)).
    L1: omega1 = (-2^(-1/p), 2^(-1/p)), omega2 = (b0, tau_p*b0) with
        b0 = (1 + tau_p^p)^(-1/p); all of omega1, omega2, omega1+omega2 lie
        on |x|^p + |y|^p = 1.
    """
    if p <= 1.0:
        raise DomainError(f"lattice basis requires p > 1, got {p}")
    if kind in ("L0", "lambda0"):
        return Lattice2(omega1=(1.0, 0.0), omega2=(0.5, 0.5 * sigma_p(p)), kind="L0")
    if kind in ("L1", "lambda1"):
        tp = tau_p(p)
        h = 2.0 ** (-1.0 / p)
        b0 = (1.0 + tp**p) ** (-1.0 / p)
        return Lattice2(omega1=(-h, h), omega2=(b0, tp * b0), kind="L1")
    raise DomainError(f"unknown lattice kind {kind!r}")


def lattice_det(L: Lattice2) -> float:
    """|omega1 x omega2|."""
    (x1, y1), (x2, y2) = L.omega1, L.omega2
    return abs(x1 * y2 - y1 * x2)


# -- vectorized oracles (numpy) -----------------------------------------------------


def tau_p_vec(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    lo = np.zeros_like(p)
    hi = np.ones_like(p)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        pos = 2.0 * (1.0 - mid) ** p - 1.0 - mid**p > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 0.5 * (lo + hi)


def _f_resid_vec(p, sigma, tau):
    a0 = (1.0 + sigma**p) ** (-1.0 / p)
    b0 = (1.0 + tau**p) ** (-1.0 / p)
    A = b0 - a0
    B = tau * b0 + sigma * a0
    return np.abs(A) ** p + np.abs(B) ** p - 1.0


def tau_point_vec(p: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Vectorized bisection for tau(p, sigma); inputs must lie in the domain."""
    p = np.asarray(p, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    lo = np.zeros(np.broadcast(p, sigma).shape)
    hi = np.broadcast_to(tau_p_vec(p), lo.shape).copy()
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        neg = _f_resid_vec(p, sigma, mid) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


def delta_point_vec(p: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    tau = tau_point_vec(p, sigma)
    a0 = (1.0 + sigma**p) ** (-1.0 / p)
    b0 = (1.0 + tau**p) ** (-1.0 / p)
    return (tau + sigma) * a0 * b0


# -- decimal high-precision mode (oracle generation) ---------------------------------


def _dec(x) -> Decimal:
    # exact conversion for floats (str(x) would give the shortest repr, whose
    # decimal value differs from the double by up to half an ulp -- fatal for
    # finite-difference stencils that rely on exactly spaced abscissae)
    return Decimal(x) if isinstance(x, float) else Decimal(str(x))


def _dpow(x: Decimal, y: Decimal) -> Decimal:
    if x == 0:
        return Decimal(0)
    return (y * x.ln()).exp()


def sigma_p_hp(p, prec: int = 40) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = prec
        pd = _dec(p)
        return _dpow(_dpow(Decimal(2), pd) - 1, 1 / pd)


def tau_p_hp(p, prec: int = 40) -> Decimal:
    """Newton in decimal, seeded from the float root."""
    with localcontext() as ctx:
        ctx.prec = prec
        pd = _dec(p)
        t = Decimal(repr(tau_p(float(p))))
        one = Decimal(1)
        for _ in range(prec // 8 + 4):
            r = 2 * _dpow(one - t, pd) - 1 - _dpow(t, pd)
            d = -2 * pd * _dpow(one - t, pd - 1) - pd * _dpow(t, pd - 1)
            t -= r / d
        return +t


def _f_resid_hp(pd: Decimal, sd: Decimal, t: Decimal) -> tuple[Decimal, Decimal]:
    one = Decimal(1)
    inv = one / pd
    a0 = _dpow(one + _dpow(sd, pd), -inv)
    b0 = _dpow(one + _dpow(t, pd), -inv)
    b1 = _dpow(one + _dpow(t, pd), -one - inv)
    A = b0 - a0
    B = t * b0 + sd * a0
    resid = _dpow(A, pd) + _dpow(B, pd) - one
    t1 = _dpow(t, pd - 1)
    ftau = pd * b1 * (_dpow(B, pd - 1) - t1 * _dpow(A, pd - 1))
    return resid, ftau


def tau_point_hp(p, sigma, prec: int = 40) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = prec
        pd = _dec(p)
        sd = _dec(sigma)
        t = Decimal(repr(tau_point(float(p), float(sigma))))
        if t == 0:
            return t
        for _ in range(prec // 8 + 4):
            r, ft = _f_resid_hp(pd, sd, t)
            t -= r / ft
        return +t


def delta_point_hp(p, sigma, prec: int = 40) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = prec
        pd = _dec(p)
        sd = _dec(sigma)
        t = tau_point_hp(p, sigma, prec)
        one = Decimal(1)
        inv = one / pd
        a0 = _dpow(one + _dpow(sd, pd), -inv)
        b0 = _dpow(one + _dpow(t, pd), -inv)
        return +((t + sd) * a0 * b0)
