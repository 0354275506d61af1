"""Vectorized batch enclosures: the evaluation engine behind certification.

Whole waves of subcells are enclosed at once through the VI lane.  Lanes that
intersect to nothing are vacuous (no surface points: the subcell lies beyond
the sigma_p curve); lanes that poison to NaN are undecided and get split.
The fixed-point map and the boundary formulas are the generic-scalar ones of
jets.py, evaluated on the VI lane, so soundness per lane is the scalar
argument verbatim; the functions here are the VI-lane entry points.

tau_p depends on p alone, and its bisection is lane-independent: every op is
elementwise and a finished lane's bracket stays put while the others iterate
(jets.tau_p_scalar).  So the low-side subpaving bisects each distinct
p-interval of a wave once, box lanes and midpoints together, and hands the
brackets of the previous wave on to the next, whose sigma-split children
carry their parent's p-interval; the boundary functions take the bracket as
an argument.
"""

from __future__ import annotations

import numpy as np

from .jets import (
    d_delta_edge_low_scalar,
    d_sigma_p_scalar,
    delta_edge_low_scalar,
    delta_p_deriv,
    delta_scalar,
    delta_sigma_derivs,
    phi_consts,
    phi_scalar,
    sigma_p_scalar,
    tau_p_scalar,
)
from .vints import VI

__all__ = [
    "tau_enclose_batch",
    "tau_p_enclose_batch",
    "sigma_p_batch",
    "edge_low_batch",
    "d_sigma_p_batch",
    "d_edge_low_batch",
    "subpave_convex_positive",
    "subpave_delta_above",
]

SEED = (0.0, 0.36)


def tau_enclose_batch(P: VI, S: VI, iters: int = 48) -> tuple[VI, np.ndarray]:
    """Natural-extension fixed-point iteration, one lane per subcell.

    Returns (tau VI, vacuous mask).  Vacuous lanes intersected to nothing:
    no (p, sigma) in the subcell carries a surface point."""
    consts = phi_consts(P, S)
    T = VI.full_like(P, *SEED)
    vacuous = np.zeros(P.lo.shape, dtype=bool)
    prev_w = None
    for k in range(iters):
        T, empty = phi_scalar(P, *consts, T).intersect(T)
        vacuous |= empty
        if k % 8 == 7:
            w = T.width
            if prev_w is not None:
                with np.errstate(invalid="ignore"):
                    moving = np.any(prev_w - w > 1e-15)
                if not moving:
                    break
            prev_w = w
    return T, vacuous


def tau_p_enclose_batch(P: VI, iters: int = 80) -> VI:
    """Per-lane bracket of tau_p over the lane's p-interval (see
    jets.tau_p_scalar)."""
    return tau_p_scalar(P, iters)


def sigma_p_batch(P: VI) -> VI:
    """(2^P - 1)^(1/P) per lane."""
    return sigma_p_scalar(P)


def edge_low_batch(P: VI, tp: VI) -> VI:
    """Delta(P, 1) = 4^(-1/P)(1 + tau_p)/(1 - tau_p) per lane; tp encloses
    tau_p over the lane's p-interval."""
    return delta_edge_low_scalar(P, tp)


def d_sigma_p_batch(P: VI) -> VI:
    """d sigma_p/dp = sigma_p [2^p ln2/(p(2^p-1)) - ln(2^p-1)/p^2] per lane."""
    return d_sigma_p_scalar(P)


def d_edge_low_batch(P: VI, tp: VI) -> VI:
    """d/dp of Delta(p, 1) via tau_p'(p) = -h_p/h_tau per lane; tp encloses
    tau_p over the lane's p-interval."""
    return d_delta_edge_low_scalar(P, tp)


def _tau_p_wave(P: VI, pm: np.ndarray, known: dict) -> tuple[VI, VI, dict]:
    """tau_p brackets for the box lanes P and the midpoints pm of one wave,
    and this wave's (p lo, p hi) -> (tau lo, tau hi) dict for the next one.

    Only the distinct p-intervals absent from `known`, the previous wave's
    dict, are bisected: in one tau_p_enclose_batch call, or none.
    """
    lanes = list(
        zip(np.concatenate([P.lo, pm]).tolist(), np.concatenate([P.hi, pm]).tolist())
    )
    new = [k for k in dict.fromkeys(lanes) if k not in known]
    if new:
        lo, hi = np.array(new).T.copy()
        T = tau_p_enclose_batch(VI(lo, hi))
        known = {**known, **dict(zip(new, zip(T.lo.tolist(), T.hi.tolist())))}
    tlo, thi = np.array([known[k] for k in lanes]).T.copy()
    n = len(pm)
    return VI(tlo[:n], thi[:n]), VI(tlo[n:], thi[n:]), {k: known[k] for k in lanes}


def _mid_delta_batch(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray, VI]:
    """Rigorous Delta enclosures at box midpoints (point-lane iteration)."""
    pm = 0.5 * (boxes[:, 0] + boxes[:, 1])
    sm = 0.5 * (boxes[:, 2] + boxes[:, 3])
    Pm = VI.point(pm)
    Sm = VI.point(sm)
    Tm, vac = tau_enclose_batch(Pm, Sm, iters=64)
    dm = delta_scalar(Pm, Sm, Tm)
    bad = vac | Tm.invalid()
    dm = VI(np.where(bad, np.nan, dm.lo), np.where(bad, np.nan, dm.hi))
    return pm, sm, dm


def _split_boxes(boxes: np.ndarray, scale_p: float, scale_s: float) -> np.ndarray:
    """Bisect each box on its relatively widest axis."""
    pw = (boxes[:, 1] - boxes[:, 0]) / scale_p
    sw = (boxes[:, 3] - boxes[:, 2]) / scale_s
    split_p = pw >= sw
    out = np.empty((2 * len(boxes), 4))
    pm = 0.5 * (boxes[:, 0] + boxes[:, 1])
    sm = 0.5 * (boxes[:, 2] + boxes[:, 3])
    a = boxes.copy()
    b = boxes.copy()
    a[split_p, 1] = pm[split_p]
    b[split_p, 0] = pm[split_p]
    a[~split_p, 3] = sm[~split_p]
    b[~split_p, 2] = sm[~split_p]
    out[0::2] = a
    out[1::2] = b
    return out


def subpave_convex_positive(
    p_lo: float,
    p_hi: float,
    s_lo: float,
    s_hi: float,
    max_nodes: int = 60000,
    min_width: float = 1e-6,
    sigma_bias: float = 8.0,
) -> tuple[float, float] | None:
    """Certify d2Delta/dsigma2 > 0 over the box (within the domain) by
    adaptive subpaving; returns the hull (lo, hi) of the subcell enclosures,
    with hull lo > 0, or None when the budget or width floor is hit.

    sigma_bias > 1 refines sigma ahead of p: the second-derivative enclosure
    is far more sensitive to the sigma/tau spread than to p.
    """
    boxes = np.array([[p_lo, p_hi, s_lo, s_hi]], dtype=float)
    scale_p = max(p_hi - p_lo, 1e-12)
    scale_s = max(s_hi - s_lo, 1e-12) / sigma_bias
    nodes = 0
    wlo, whi = np.inf, -np.inf
    while len(boxes):
        nodes += len(boxes)
        if nodes > max_nodes:
            return None
        P = VI(boxes[:, 0], boxes[:, 1])
        S = VI(boxes[:, 2], boxes[:, 3])
        T, vac = tau_enclose_batch(P, S)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            _, dds2 = delta_sigma_derivs(P, S, T)
            ok = dds2.lo > 0.0
        good = vac | ok
        live = ok & ~vac
        if np.any(live):
            wlo = min(wlo, float(dds2.lo[live].min()))
            whi = max(whi, float(dds2.hi[live].max()))
        fails = boxes[~good]
        if not len(fails):
            if not np.isfinite(wlo):
                return None  # entire column vacuous: nothing to witness
            return (wlo, whi)
        too_thin = np.minimum(
            fails[:, 1] - fails[:, 0], fails[:, 3] - fails[:, 2]
        ) < min_width
        if np.any(too_thin):
            return None
        boxes = _split_boxes(fails, scale_p, scale_s)
    return None


def subpave_delta_above(
    p_lo: float,
    p_hi: float,
    s_lo: float,
    s_hi: float,
    side: str,
    max_nodes: int = 40000,
    min_width: float = 1e-7,
) -> tuple[float, float] | None:
    """Certify Delta(p, sigma) > boundary(p) over the box by adaptive
    subpaving of the correlated difference.

    side "high": boundary = sigma_p(p)/2;  side "low": boundary = Delta(p, 1).
    Each subcell is tested with the natural difference and, when the subcell
    is verified fully inside the domain (so the mean-value segment stays
    there), with a midpoint-centered mean-value form whose gradient comes
    from the atom-formula enclosures; the boundary slope is subtracted inside
    the p-gradient, which is where the two terms cancel.  Returns the hull of
    the per-subcell difference enclosures (hull lo > 0), or None.  Vacuous
    subcells (beyond the curve) pass.

    Splitting is by absolute width: the mean-value error is roughly isotropic
    in (p, sigma), so thin initial cells must not starve the other axis.

    On side "low" each wave makes at most one tau_p_enclose_batch call
    (_tau_p_wave) and keeps its brackets for the next wave only; as tau_p
    lanes are independent, the result is bit for bit that of bisecting every
    lane afresh.
    """
    boxes = np.array([[p_lo, p_hi, s_lo, s_hi]], dtype=float)
    scale_p = 1.0
    scale_s = 1.0
    nodes = 0
    wlo, whi = np.inf, -np.inf
    known: dict = {}  # side "low": the previous wave's tau_p brackets
    while len(boxes):
        nodes += len(boxes)
        if nodes > max_nodes:
            return None
        P = VI(boxes[:, 0], boxes[:, 1])
        S = VI(boxes[:, 2], boxes[:, 3])
        T, vac = tau_enclose_batch(P, S)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            delta = delta_scalar(P, S, T)
            sp_box = sigma_p_batch(P)
            pm, sm, dm = _mid_delta_batch(boxes)
            if side == "high":
                bound = sp_box * 0.5
                bound_slope = d_sigma_p_batch(P) * 0.5
                bm = sigma_p_batch(VI.point(pm)) * 0.5
            else:
                tp, tp_mid, known = _tau_p_wave(P, pm, known)
                bound = edge_low_batch(P, tp)
                bound_slope = d_edge_low_batch(P, tp)
                bm = edge_low_batch(VI.point(pm), tp_mid)
            diff_lo = np.nextafter(delta.lo - bound.hi, -np.inf)
            diff_hi = np.nextafter(delta.hi - bound.lo, np.inf)

            in_domain = ~vac & (S.hi <= sp_box.lo)
            dds, _ = delta_sigma_derivs(P, S, T)
            ddp = delta_p_deriv(P, S, T)
            mvf = (
                (dm - bm)
                + dds * VI(S.lo - sm, S.hi - sm)
                + (ddp - bound_slope) * VI(P.lo - pm, P.hi - pm)
            )
            mlo = np.where(in_domain, mvf.lo, np.nan)
            mhi = np.where(in_domain, mvf.hi, np.nan)
            best_lo = np.fmax(diff_lo, mlo)
            best_hi = np.fmin(diff_hi, mhi)
            ok = best_lo > 0.0
        good = vac | ok
        live = ok & ~vac
        if np.any(live):
            wlo = min(wlo, float(best_lo[live].min()))
            whi = max(whi, float(best_hi[live].max()))
        fails = boxes[~good]
        if not len(fails):
            if not np.isfinite(wlo):
                return None
            return (wlo, whi)
        too_thin = np.minimum(
            fails[:, 1] - fails[:, 0], fails[:, 3] - fails[:, 2]
        ) < min_width
        if np.any(too_thin):
            return None
        boxes = _split_boxes(fails, scale_p, scale_s)
    return None
