"""Scalar Interval entry points: rigorous enclosures on one (p, sigma) box or
one p-interval.

Each one evaluates its whole formula on a one-lane VI and returns lane 0 as
an Interval, so there is one interval kernel (critlat.vints).  The boundary
values (sigma_p, tau_p, Delta(p, 1), Delta(p, sigma_p) = sigma_p/2 and the
p-slopes) go through the batch.py entry points that the certification
engine calls, and equal lane 0 of them bit for bit; the functions here add
the p > 1 domain checks.  With p > 1 only an overflow turns a boundary lane
NaN, and that raises IntervalOverflow.

tau_interval runs the fixed-point iteration of batch.tau_enclose_batch on
one lane with its own loop, which counts the steps:
tau <- (1 + tau^p)^(1/p) * ((1 - A^p)^(1/p) - sigma*a0), seeded at
jets.TAU_SEED = [0, 0.36] and intersected with the previous iterate after
every step.  The iterates are nested, so every one encloses tau; the
iteration stops when a step returns its iterate unchanged, bit for bit (an
exact fixed point), or at the jets.TAU_STEPS cap.  An emptied iterate raises
EmptyEnclosure; a NaN one (a box too wide for the map's atoms) DomainError.

delta_eif encloses Delta on a box, optionally refined by a mean-value form
whose gradient comes from the same atom formulas (jets.delta_gradient) that
the VI lane certifies with.

The certification engine subpaves on the VI lane (batch.py) and calls only
the boundary values of the p0 bracket here (verifier._g_enclosure).
tau_interval and delta_eif have no caller in a verify run; the tests and the
benchmark's scalar workload use them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import (
    d_edge_low_batch,
    d_sigma_p_batch,
    edge_low_batch,
    sigma_p_batch,
    tau_p_enclose_batch,
)
from .interval import Box, DomainError, Interval, _vi as _lane
from .jets import (
    TAU_SEED,
    TAU_STEPS,
    SingularConstraint,
    delta_gradient,
    delta_scalar,
    phi_consts,
    phi_scalar,
    tau_p_resid_scalar,
)
from .moduli import sigma_p
from .vints import VI

__all__ = [
    "EifElement",
    "TauEnclosure",
    "EmptyEnclosure",
    "SingularConstraint",
    "DEFAULT_SEED",
    "tau_interval",
    "delta_eif",
    "sigma_p_enclosure",
    "tau_p_enclosure",
    "delta_edge_low_enclosure",
    "delta_edge_high_enclosure",
    "d_sigma_p_enclosure",
    "d_delta_edge_low_enclosure",
]

DEFAULT_SEED = Interval(*TAU_SEED)


class EmptyEnclosure(Exception):
    """The iteration intersected away to nothing: the box has no surface
    points (domain violation) or the map diverged."""


@dataclass(frozen=True)
class EifElement:
    """Interval functional element: an enclosure of a tagged function's range
    on a box."""

    box: Box
    value: Interval
    fid: str


@dataclass(frozen=True)
class TauEnclosure:
    tau: Interval
    iterations: int


def _lane0(v: VI) -> Interval:
    """Lane 0 of v; a NaN bound raises IntervalOverflow (Interval refuses
    a non-finite bound)."""
    return Interval(v.lo[0], v.hi[0])


# -- closed-form boundary enclosures ------------------------------------------


def _p_lane(P: Interval, what: str) -> VI:
    if P.lo <= 1.0:
        raise DomainError(f"{what} needs p > 1, got {P!r}")
    return _lane(P)


def sigma_p_enclosure(P: Interval) -> Interval:
    """(2^P - 1)^(1/P)."""
    return _lane0(sigma_p_batch(_p_lane(P, "sigma_p")))


def tau_p_enclosure(P: Interval) -> Interval:
    """Bracket of {tau_p(p) : p in P} (see jets.tau_p_scalar)."""
    return _lane0(tau_p_enclose_batch(_p_lane(P, "tau_p")))


def delta_edge_low_enclosure(P: Interval) -> Interval:
    """Delta(P, 1) = 4^(-1/P) (1 + tau_p)/(1 - tau_p)."""
    K = _p_lane(P, "Delta(p, 1)")
    return _lane0(edge_low_batch(K, tau_p_enclose_batch(K)))


def delta_edge_high_enclosure(P: Interval) -> Interval:
    """Delta(P, sigma_p) = sigma_p / 2, as batch.subpave_delta_above takes it."""
    return _lane0(sigma_p_batch(_p_lane(P, "sigma_p")) * 0.5)


def d_sigma_p_enclosure(P: Interval) -> Interval:
    """d sigma_p / dp = sigma_p * [2^p ln2 / (p(2^p-1)) - ln(2^p-1)/p^2]."""
    return _lane0(d_sigma_p_batch(_p_lane(P, "d sigma_p/dp")))


def d_delta_edge_low_enclosure(P: Interval) -> Interval:
    """d/dp of Delta(p, 1), via implicit tau_p'(p) = -h_p/h_tau."""
    K = _p_lane(P, "d Delta(p, 1)/dp")
    return _lane0(d_edge_low_batch(K, tau_p_enclose_batch(K)))


# -- the interval fixed-point iteration ------------------------------------------


def _check_seed_clamp(P: VI) -> None:
    # tau_p(p) < seed.hi for all p in P iff the residual at seed.hi is negative.
    r = tau_p_resid_scalar(P, DEFAULT_SEED.hi)
    if not r.hi[0] < 0.0:
        raise DomainError(
            f"cannot verify tau_p < {DEFAULT_SEED.hi} over p in "
            f"[{P.lo[0]!r}, {P.hi[0]!r}]: residual [{r.lo[0]!r}, {r.hi[0]!r}]"
        )


def tau_interval(X: Box) -> TauEnclosure:
    """Enclosure of {tau(p, sigma) : (p, sigma) in X within the domain}.

    The interval image of the fixed-point map is intersected with the current
    iterate every step, so every true fixed point present in the seed is
    present in every iterate.  The iteration stops when a step returns its
    iterate unchanged, an exact fixed point that every later step keeps, or
    after TAU_STEPS steps; either way the iterate is the enclosure, and
    `iterations` counts the steps taken.  EmptyEnclosure means the box holds
    no surface point.
    """
    P, S, T = _lane(X.p), _lane(X.sigma), _lane(DEFAULT_SEED)
    with np.errstate(all="ignore"):
        _check_seed_clamp(P)
        consts = phi_consts(P, S)
        for n in range(1, TAU_STEPS + 1):
            Tn, empty = phi_scalar(P, *consts, T).intersect(T)
            if empty[0]:
                raise EmptyEnclosure(f"iteration emptied on {X!r} at step {n}")
            if Tn.invalid()[0]:
                raise DomainError(f"{X!r} leaves the domain of the map at step {n}")
            if Tn.lo.tobytes() + Tn.hi.tobytes() == T.lo.tobytes() + T.hi.tobytes():
                break
            T = Tn
    return TauEnclosure(tau=_lane0(T), iterations=n)


# -- eif-elements ------------------------------------------------------------------


def _mid_point_delta(X: Box) -> tuple[float, float, VI]:
    pm, sm = X.mid
    sm = min(max(sm, 1.0), sigma_p(pm) * (1.0 - 1e-12))
    mid_box = Box(Interval.point(pm), Interval.point(sm))
    t_mid = tau_interval(mid_box)
    return pm, sm, delta_scalar(_lane(mid_box.p), _lane(mid_box.sigma), _lane(t_mid.tau))


def delta_eif(X: Box, tau: TauEnclosure, refine: bool = False) -> EifElement:
    """Interval extension of (tau+sigma)(1+tau^p)^(-1/p)(1+sigma^p)^(-1/p).

    refine=True intersects the natural extension with a mean-value form
    centered at the box midpoint, its gradient enclosed by the atom formulas
    over the box.  It needs the tau enclosure bounded away from zero: tau = 0
    exactly on the curve sigma = sigma_p, so then the box misses the curve
    and every mean-value segment stays on the domain side of it.  Elsewhere,
    or where the midpoint's tau or the gradient enclosure fails (a NaN
    bound), the natural value is returned.
    """
    P, S, T = _lane(X.p), _lane(X.sigma), _lane(tau.tau)
    with np.errstate(all="ignore"):
        value = delta_scalar(P, S, T)
        if refine and tau.tau.lo > 0.0:
            try:
                pm, sm, dm = _mid_point_delta(X)
            except (DomainError, EmptyEnclosure):
                pass
            else:
                dds, ddp = delta_gradient(P, S, T)
                mvf = dm + dds * (S - sm) + ddp * (P - pm)
                lo, hi = np.fmax(value.lo, mvf.lo), np.fmin(value.hi, mvf.hi)
                if lo[0] <= hi[0]:
                    value = VI._of(lo, hi)
    return EifElement(box=X, value=_lane0(value), fid="delta")
