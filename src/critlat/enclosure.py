"""Rigorous interval enclosures on (p, sigma) boxes.

The tau enclosure comes from the interval fixed-point iteration
tau <- (1 + tau^p)^(1/p) * ((1 - A^p)^(1/p) - sigma*a0), seeded at
jets.TAU_SEED = [0, 0.36] and intersected with the previous iterate after
every step.  The iterates are nested, so every one encloses tau; the
iteration stops when a step returns its iterate unchanged (an exact fixed
point) or at the jets.TAU_STEPS cap, the same rule as the VI lane.  The map
and the boundary formulas (sigma_p, tau_p, Delta(p, 1) and the p-slopes) are
written once over the generic scalar in jets.py; the functions here are the
scalar-Interval entry points and add the p > 1 domain checks.

delta_eif encloses Delta on a box, optionally refined by a mean-value form
whose gradient comes from the same atom formulas (jets.delta_gradient) that
the VI lane certifies with.

The certification engine subpaves on the VI lane (batch.py) and calls only
the p-only boundary enclosures here (enclose_p0, the sigma_p range of a
strip).  tau_interval and delta_eif, the scalar (p, sigma) lane, have no
caller in a verify run; the tests and the benchmark's scalar workload use
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .interval import EMPTY, Box, DomainError, Interval, intersect
from .jets import (
    TAU_SEED,
    TAU_STEPS,
    SingularConstraint,
    d_delta_edge_low_scalar,
    d_sigma_p_scalar,
    delta_edge_low_scalar,
    delta_gradient,
    delta_scalar,
    phi_consts,
    phi_scalar,
    sigma_p_scalar,
    tau_p_resid_scalar,
    tau_p_scalar,
)
from .moduli import sigma_p

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


# -- closed-form boundary enclosures ------------------------------------------


def _require_p_above_1(P: Interval, what: str) -> None:
    if P.lo <= 1.0:
        raise DomainError(f"{what} needs p > 1, got {P!r}")


def sigma_p_enclosure(P: Interval) -> Interval:
    """(2^P - 1)^(1/P)."""
    _require_p_above_1(P, "sigma_p")
    return sigma_p_scalar(P)


def tau_p_enclosure(P: Interval) -> Interval:
    """Bracket of {tau_p(p) : p in P} (see jets.tau_p_scalar)."""
    _require_p_above_1(P, "tau_p")
    return tau_p_scalar(P)


def delta_edge_low_enclosure(P: Interval) -> Interval:
    """Delta(P, 1) = 4^(-1/P) (1 + tau_p)/(1 - tau_p)."""
    return delta_edge_low_scalar(P, tau_p_enclosure(P))


def delta_edge_high_enclosure(P: Interval) -> Interval:
    """Delta(P, sigma_p) = sigma_p / 2."""
    return sigma_p_enclosure(P) / 2


def d_sigma_p_enclosure(P: Interval) -> Interval:
    """d sigma_p / dp = sigma_p * [2^p ln2 / (p(2^p-1)) - ln(2^p-1)/p^2]."""
    _require_p_above_1(P, "d sigma_p/dp")
    return d_sigma_p_scalar(P)


def d_delta_edge_low_enclosure(P: Interval) -> Interval:
    """d/dp of Delta(p, 1), via implicit tau_p'(p) = -h_p/h_tau."""
    return d_delta_edge_low_scalar(P, tau_p_enclosure(P))


# -- the interval fixed-point iteration ------------------------------------------


def _check_seed_clamp(P: Interval) -> None:
    # tau_p(p) < seed.hi for all p in P iff the residual at seed.hi is negative.
    r = tau_p_resid_scalar(P, DEFAULT_SEED.hi)
    if r.hi >= 0.0:
        raise DomainError(
            f"cannot verify tau_p < {DEFAULT_SEED.hi} over {P!r}: residual {r!r}"
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
    _check_seed_clamp(X.p)
    P = X.p
    consts = phi_consts(P, X.sigma)
    T = DEFAULT_SEED
    for n in range(1, TAU_STEPS + 1):
        Tn = intersect(phi_scalar(P, *consts, T), T)
        if Tn is EMPTY:
            raise EmptyEnclosure(f"iteration emptied on {X!r} at step {n}")
        if Tn == T:
            break
        T = Tn
    return TauEnclosure(tau=T, iterations=n)


# -- eif-elements ------------------------------------------------------------------


def _mid_point_delta(X: Box) -> tuple[float, float, Interval]:
    pm, sm = X.mid
    sm = min(max(sm, 1.0), sigma_p(pm) * (1.0 - 1e-12))
    mid_box = Box(Interval.point(pm), Interval.point(sm))
    t_mid = tau_interval(mid_box)
    dm = delta_scalar(mid_box.p, mid_box.sigma, t_mid.tau)
    return pm, sm, dm


def delta_eif(X: Box, tau: TauEnclosure, refine: bool = False) -> EifElement:
    """Interval extension of (tau+sigma)(1+tau^p)^(-1/p)(1+sigma^p)^(-1/p).

    refine=True intersects the natural extension with a mean-value form
    centered at the box midpoint, its gradient enclosed by the atom formulas
    over the box.  It needs the tau enclosure bounded away from zero: tau = 0
    exactly on the curve sigma = sigma_p, so then the box misses the curve
    and every mean-value segment stays on the domain side of it.  Elsewhere,
    or where the gradient enclosure fails, the natural value is returned.
    """
    value = delta_scalar(X.p, X.sigma, tau.tau)
    if refine and tau.tau.lo > 0.0:
        try:
            dds, ddp = delta_gradient(X.p, X.sigma, tau.tau)
            pm, sm, dm = _mid_point_delta(X)
            mvf = dm + dds * (X.sigma - sm) + ddp * (X.p - pm)
            tight = intersect(value, mvf)
            if tight is not EMPTY:
                value = tight
        except (DomainError, SingularConstraint, EmptyEnclosure):
            pass
    return EifElement(box=X, value=value, fid="delta")
