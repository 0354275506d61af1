"""Vectorized batch enclosures: the evaluation engine behind certification.

Whole waves of subcells are enclosed at once through the VI lane.  Lanes that
intersect to nothing are vacuous (no surface points: the subcell lies beyond
the sigma_p curve); lanes that poison to NaN are undecided and get split.
The fixed-point map and the boundary formulas are the generic-scalar ones of
jets.py, evaluated on the VI lane, so soundness per lane is the scalar
argument verbatim; the functions here are the VI-lane entry points.

tau_p depends on p alone, and its search is lane-independent: a lane's
probes depend on its own p-interval alone (jets.tau_p_scalar).  So the
low-side subpaving searches each distinct p-interval of a wave once, box
lanes and midpoints together, and hands the brackets of the previous wave on
to the next, whose sigma-split children carry their parent's p-interval; the
boundary functions take the bracket as an argument.

The tau fixed point stops each lane on its own, once a step returns the
lane's iterate unchanged bit for bit: the step depends on that lane alone,
so the lane sits on an exact fixed point and the result is that of the full
step count (tau_enclose_batch).  A subpaving child starts from its parent
box's enclosure, which ends at the same fixed point in fewer steps.  Both
subpavings run each box's midpoint through the same call as the box, seeded
alike: the parent box contains the midpoint too.

Every entry point runs under np.errstate(all="ignore") (_quiet): the VI ops
leave numpy's floating-point warnings to their caller, and a lane that
overflows or leaves its domain is poisoned or stepped outward instead.

The two subpavings take a list of jobs (Job: a box and a node budget) and
run them as one merged subpaving: every wave concatenates the boxes of all
running jobs into one VI array, which keeps numpy busy on wide arrays
instead of many narrow ones.  Every op in a wave is elementwise and each job
keeps its own budget, split scales and hull, so every job ends (Subpaving)
as it would alone.

A wave also carries each job's next split levels, every box of each, while
the job's lanes stay within SPECULATE_LANES and its nodes within its budget
(_speculate); the levels are then replayed one at a time, as a run without
them would evaluate them.  A wave costs a few milliseconds of numpy calls
whatever its width, so a narrow job ends in fewer waves; the lanes whose
parent passed are wasted, and the `nodes` that the benchmark counts include
them.

Both subpavings pair a natural enclosure with a midpoint mean-value form on
subcells inside the domain and keep the tighter bound of each: Delta minus
its boundary value in subpave_delta_above, d2Delta/dsigma2 in
subpave_convex_positive, whose slopes are the third derivatives of Delta.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .jets import (
    TAU_SEED,
    TAU_STEPS,
    d_delta_edge_low_scalar,
    d_sigma_p_scalar,
    delta_edge_low_scalar,
    delta_gradient,
    delta_scalar,
    delta_sigma_derivs,
    delta_third_derivs,
    phi_consts,
    phi_scalar,
    sigma_p_scalar,
    tau_p_scalar,
)
from .vints import VI, _dn, _up

__all__ = [
    "Job",
    "Subpaving",
    "tau_enclose_batch",
    "tau_p_enclose_batch",
    "sigma_p_batch",
    "edge_low_batch",
    "d_sigma_p_batch",
    "d_edge_low_batch",
    "subpave_convex_positive",
    "subpave_delta_above",
]


def _quiet(entry):
    """Run a VI-lane entry point under np.errstate(all="ignore"), once for all
    its ops: a lane that overflows or leaves its domain turns NaN or steps
    outward to inf, which the VI ops handle, so numpy's warnings would only
    repeat that."""

    @functools.wraps(entry)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return entry(*args, **kwargs)

    return quiet


def _unchanged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per lane: a and b have the same bits, or are both NaN."""
    return (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))


@_quiet
def tau_enclose_batch(
    P: VI, S: VI, iters: int = TAU_STEPS, seed: VI | None = None
) -> tuple[VI, np.ndarray]:
    """Natural-extension fixed-point iteration, one lane per subcell.

    Returns (tau VI, vacuous mask).  Vacuous lanes intersected to nothing:
    no (p, sigma) in the subcell carries a surface point.

    Each lane starts from its lane of `seed`, or from TAU_SEED where `seed`
    is None or the lane is not finite.  A lane seeded with the enclosure of a
    box that contains it (its parent box, for a subpaving child and for the
    child's midpoint) still encloses tau, and ends bit for bit as from
    TAU_SEED in fewer steps: the step T -> phi(T) ∩ T is inclusion-isotone,
    in the lane's T and in its (P, S), so the lane's fixed point from
    TAU_SEED lies inside the seed, and the iteration ends at the same
    greatest fixed point below it.  A lane capped at `iters` steps ends
    inside its unseeded result.  Exact isotonicity needs the rounded float
    ops to be monotone; tests/test_batch.py checks the bits on subpaving
    lanes.  Soundness needs only that the seed contains the lane's tau.

    A lane stops as soon as one step returns its iterate unchanged, bit for
    bit (a NaN bound staying NaN counts as unchanged), or after `iters`
    steps; it is written out and compacted out of the working arrays.  A step
    is a function of the lane's own iterate and constants only, so an
    unchanged iterate is an exact fixed point that every later step keeps (an
    emptied lane is NaN and stays so, and is marked vacuous on the step that
    emptied it): the result is bit for bit that of `iters` plain steps.
    """
    n = P.lo.size
    inv_p, a0, sa0 = phi_consts(P, S)
    if seed is None:
        T = VI.full_like(P, *TAU_SEED)
    else:
        cold = seed.invalid()
        T = VI(np.where(cold, TAU_SEED[0], seed.lo), np.where(cold, TAU_SEED[1], seed.hi))
    out = VI(np.empty(n), np.empty(n))
    vacuous = np.zeros(n, dtype=bool)
    lanes = np.arange(n)  # the output lane of each working lane
    for _ in range(iters):
        Tn, empty = phi_scalar(P, inv_p, a0, sa0, T).intersect(T)
        vacuous[lanes[empty]] = True
        stop = _unchanged(Tn.lo, T.lo) & _unchanged(Tn.hi, T.hi)
        T = Tn
        if stop.any():
            out.lo[lanes[stop]] = T.lo[stop]
            out.hi[lanes[stop]] = T.hi[stop]
            keep = ~stop
            if not keep.any():
                return out, vacuous
            P, inv_p, a0, sa0, T = (
                VI(x.lo[keep], x.hi[keep]) for x in (P, inv_p, a0, sa0, T)
            )
            lanes = lanes[keep]
    out.lo[lanes] = T.lo
    out.hi[lanes] = T.hi
    return out, vacuous


@_quiet
def tau_p_enclose_batch(P: VI) -> VI:
    """Per-lane bracket of tau_p over the lane's p-interval (see
    jets.tau_p_scalar)."""
    return tau_p_scalar(P)


@_quiet
def sigma_p_batch(P: VI) -> VI:
    """(2^P - 1)^(1/P) per lane."""
    return sigma_p_scalar(P)


@_quiet
def edge_low_batch(P: VI, tp: VI) -> VI:
    """Delta(P, 1) = 4^(-1/P)(1 + tau_p)/(1 - tau_p) per lane; tp encloses
    tau_p over the lane's p-interval."""
    return delta_edge_low_scalar(P, tp)


@_quiet
def d_sigma_p_batch(P: VI) -> VI:
    """d sigma_p/dp = sigma_p [2^p ln2/(p(2^p-1)) - ln(2^p-1)/p^2] per lane."""
    return d_sigma_p_scalar(P)


@_quiet
def d_edge_low_batch(P: VI, tp: VI) -> VI:
    """d/dp of Delta(p, 1) via tau_p'(p) = -h_p/h_tau per lane; tp encloses
    tau_p over the lane's p-interval."""
    return d_delta_edge_low_scalar(P, tp)


def _keys(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """One complex128 per lane holding the bits of (lo, hi), so that numpy
    sorts and compares p-intervals as single values."""
    return np.stack([lo, hi], axis=-1).view(np.complex128).ravel()


_NO_KEYS = (_keys(np.empty(0), np.empty(0)), np.empty(0), np.empty(0))


def _merge_keys(*tables):
    """One sorted table of the keys of several; equal keys hold equal brackets."""
    keys, first = np.unique(np.concatenate([t[0] for t in tables]), return_index=True)
    return (keys, *(np.concatenate([t[i] for t in tables])[first] for i in (1, 2)))


def _tau_p_wave(P: VI, pm: np.ndarray, known: tuple) -> tuple[VI, VI, tuple]:
    """tau_p brackets for the box lanes P and the midpoints pm of one wave,
    and this wave's table for the next one: (keys, tau lo, tau hi) per
    distinct (p lo, p hi), the keys (_keys) sorted.

    Only the distinct p-intervals absent from `known`, the previous wave's
    table, are searched: in one tau_p_enclose_batch call, or none.
    """
    keys, lane_key = np.unique(
        _keys(np.concatenate([P.lo, pm]), np.concatenate([P.hi, pm])), return_inverse=True
    )
    ref, ref_lo, ref_hi = known
    at = np.searchsorted(ref, keys)
    found = at < ref.size
    found[found] = ref[at[found]] == keys[found]
    lo, hi = np.empty(keys.size), np.empty(keys.size)
    lo[found], hi[found] = ref_lo[at[found]], ref_hi[at[found]]
    new = ~found
    if new.any():
        T = tau_p_enclose_batch(VI(keys.real[new], keys.imag[new]))
        lo[new], hi[new] = T.lo, T.hi
    tlo, thi = lo[lane_key], hi[lane_key]
    n = pm.size
    return VI(tlo[:n], thi[:n]), VI(tlo[n:], thi[n:]), (keys, lo, hi)


def _split_boxes(boxes: np.ndarray, scale_p: float, scale_s: float) -> np.ndarray:
    """Bisect each box on its relatively widest axis; the children inherit
    the other columns (the tau seed)."""
    pw = (boxes[:, 1] - boxes[:, 0]) / scale_p
    sw = (boxes[:, 3] - boxes[:, 2]) / scale_s
    split_p = pw >= sw
    out = np.repeat(boxes, 2, axis=0)
    pm = 0.5 * (boxes[:, 0] + boxes[:, 1])
    sm = 0.5 * (boxes[:, 2] + boxes[:, 3])
    a = out[0::2]  # views: the assignments below write into out
    b = out[1::2]
    a[split_p, 1] = pm[split_p]
    b[split_p, 0] = pm[split_p]
    a[~split_p, 3] = sm[~split_p]
    b[~split_p, 2] = sm[~split_p]
    return out


class Job(NamedTuple):
    """One box to subpave, with its own node budget."""

    p_lo: float
    p_hi: float
    s_lo: float
    s_hi: float
    max_nodes: int


CERTIFIED = "certified"
BUDGET_HIT = "node budget hit"
FLOOR_HIT = "width floor hit"
VACUOUS = "no in-domain subcell"


class Subpaving(NamedTuple):
    """How a job ended: hull (lo, hi) of its subcell enclosures when
    certified (hull lo > 0), else None; end is one of CERTIFIED, BUDGET_HIT,
    FLOOR_HIT or VACUOUS; nodes counts its boxes so far."""

    hull: tuple[float, float] | None
    end: str
    nodes: int


def _speculate(boxes: np.ndarray, scale, room: int) -> list[np.ndarray]:
    """boxes, then as many levels of speculative children as fit: every box
    of the deepest level split on `scale`, while the job's lanes in the wave
    stay within SPECULATE_LANES and its nodes grow by at most `room`.  A
    child keeps the seed columns of the level it was split from."""
    levels = [boxes]
    lanes = len(boxes)
    while lanes + 2 * len(levels[-1]) <= SPECULATE_LANES and 2 * len(levels[-1]) <= room:
        room -= 2 * len(levels[-1])
        lanes += 2 * len(levels[-1])
        levels.append(_split_boxes(levels[-1], *scale))
    return levels


def _subpave(jobs, scales, min_width: float, wave) -> list[Subpaving]:
    """Adaptive subpaving of all jobs at once, one merged VI array per wave.

    A box is a row (p lo, p hi, sigma lo, sigma hi, tau lo, tau hi), the tau
    columns seeding its fixed point (tau_enclose_batch): TAU_SEED for a
    job's first box, then the enclosure of an evaluated ancestor.
    wave(boxes) evaluates the concatenated boxes of the running jobs,
    overwrites their tau columns with their enclosures and returns per-lane
    (vacuous, ok, lo, hi), ok meaning the enclosure [lo, hi] is positive.  A
    job passes when every box is vacuous or ok; otherwise its failing boxes
    are split on the job's scales.  A job whose node count would exceed its
    budget stops before the boxes are evaluated, and one with a failing box
    thinner than min_width stops after it.

    A wave evaluates a job's boxes together with its next split levels
    (_speculate), every box of each, and then replays the levels one at a
    time, in the order of a run without them: the budget check on the
    boxes the level needs (the children, rows 2r and 2r + 1, of the
    failing boxes r of the level above), the hull over their live lanes,
    the certified or vacuous end, and the width floor on their failing
    boxes.  The deepest level's failing boxes, with their enclosures, are
    split for the next wave.  A box's result does not depend on its seed
    (tau_enclose_batch) nor on the other lanes of its wave, and
    speculation depends on the job alone, so each job ends as it would in a
    run of its own, with or without speculation.
    """
    boxes = {
        j: np.array([(*job[:4], *TAU_SEED)], dtype=float) for j, job in enumerate(jobs)
    }
    nodes = [0] * len(jobs)
    hull = [(np.inf, -np.inf)] * len(jobs)
    result: list = [None] * len(jobs)
    running = list(range(len(jobs)))
    while running:
        batch, levels = [], []
        for j in running:
            nodes[j] += len(boxes[j])
            if nodes[j] > jobs[j].max_nodes:
                result[j] = Subpaving(None, BUDGET_HIT, nodes[j])
            else:
                batch.append(j)
                levels.append(_speculate(boxes[j], scales[j], jobs[j].max_nodes - nodes[j]))
        if not batch:
            break
        evaluated = np.concatenate([level for lv in levels for level in lv])
        boxes = {}  # the next wave's: the children of the deepest failing boxes
        vac, ok, lo, hi = wave(evaluated)
        good = vac | ok
        live = ok & ~vac
        running = []
        end = 0
        for j, lv in zip(batch, levels):
            b, end = end, end + sum(len(level) for level in lv)
            need = np.ones(len(lv[0]), dtype=bool)
            for depth, level in enumerate(lv):
                a, b = b, b + len(level)
                if depth:
                    nodes[j] += int(np.count_nonzero(need))
                    if nodes[j] > jobs[j].max_nodes:
                        result[j] = Subpaving(None, BUDGET_HIT, nodes[j])
                        break
                seen = live[a:b] & need
                if seen.any():
                    wlo, whi = hull[j]
                    hull[j] = (
                        min(wlo, float(lo[a:b][seen].min())),
                        max(whi, float(hi[a:b][seen].max())),
                    )
                fails = need & ~good[a:b]
                if not fails.any():
                    if np.isfinite(hull[j][0]):
                        result[j] = Subpaving(hull[j], CERTIFIED, nodes[j])
                    else:  # every box vacuous: nothing to witness
                        result[j] = Subpaving(None, VACUOUS, nodes[j])
                    break
                failing = evaluated[a:b][fails]
                too_thin = np.minimum(
                    failing[:, 1] - failing[:, 0], failing[:, 3] - failing[:, 2]
                ) < min_width
                if too_thin.any():
                    result[j] = Subpaving(None, FLOOR_HIT, nodes[j])
                    break
                if depth + 1 == len(lv):
                    boxes[j] = _split_boxes(failing, *scales[j])
                    running.append(j)
                else:
                    need = np.repeat(fails, 2)
    return result


def _with_midpoints(boxes: np.ndarray):
    """The midpoints (pm, sm) of the boxes, and (P, S, T, vacuous) of the box
    lanes, then of their midpoints, from one tau fixed point: a midpoint
    starts from its box's seed, which encloses the midpoint's tau too."""
    n = len(boxes)
    pm = 0.5 * (boxes[:, 0] + boxes[:, 1])
    sm = 0.5 * (boxes[:, 2] + boxes[:, 3])
    lanes = np.concatenate([boxes, boxes])
    lanes[n:, 0] = lanes[n:, 1] = pm
    lanes[n:, 2] = lanes[n:, 3] = sm
    P2 = VI(lanes[:, 0], lanes[:, 1])
    S2 = VI(lanes[:, 2], lanes[:, 3])
    T2, vac2 = tau_enclose_batch(P2, S2, seed=VI(lanes[:, 4], lanes[:, 5]))
    return pm, sm, P2, S2, T2, vac2


MAX_LANES = 4096  # lanes evaluated at once; wider waves only cost memory
SPECULATE_LANES = 128  # a job's lanes in one wave, its speculative levels included


def _in_chunks(boxes: np.ndarray, evaluate) -> tuple:
    """evaluate(boxes) on consecutive slices (views) of at most MAX_LANES
    lanes, its per-lane outputs concatenated.  Past a few thousand lanes numpy's cost
    per lane is flat, while a wave's temporaries grow with its lanes."""
    parts = [evaluate(boxes[a : a + MAX_LANES]) for a in range(0, len(boxes), MAX_LANES)]
    return tuple(np.concatenate(out) for out in zip(*parts))


@_quiet
def subpave_convex_positive(jobs, sigma_bias: float = 8.0) -> list[Subpaving]:
    """Certify d2Delta/dsigma2 > 0 over each job's box (within the domain) by
    adaptive subpaving; all jobs run as one merged subpaving (_subpave).  A
    certified job's hull is that of its subcell enclosures, hull lo > 0.
    The width floor is 1e-6.

    Each subcell is tested with the natural extension of d2Delta/dsigma2
    and, where that fails on a subcell verified inside the domain (so the
    mean-value segment stays there), with the midpoint-centered mean-value
    form d2Delta/dsigma2(m) + d3Delta/dsigma3(X)(S - sm)
    + d3Delta/dsigma2dp(X)(P - pm) (jets.delta_third_derivs); a subcell's
    enclosure is the intersection of the two, a NaN form leaving the natural
    one.  The natural enclosure of d2Delta/dsigma2 is hundreds of times
    wider than its range; the form's excess over the range shrinks with the
    square of the subcell's width (Moore, Interval Analysis, 1966, centered
    forms).  The form is skipped where it cannot pass: on subcells the
    natural form certifies, and where the midpoint's value is not positive
    (the form's lower bound lies below it).  Each chunk of a wave runs its
    box lanes and their midpoints through one tau_enclose_batch call and one
    delta_sigma_derivs call (_with_midpoints).

    sigma_bias > 1 refines sigma ahead of p: the second-derivative enclosure
    is far more sensitive to the sigma/tau spread than to p.
    """
    scales = [
        (max(j.p_hi - j.p_lo, 1e-12), max(j.s_hi - j.s_lo, 1e-12) / sigma_bias)
        for j in jobs
    ]

    def chunk(boxes):
        n = len(boxes)
        pm, sm, P2, S2, T2, vac2 = _with_midpoints(boxes)
        _, d2 = delta_sigma_derivs(P2, S2, T2)
        P, S = VI(P2.lo[:n], P2.hi[:n]), VI(S2.lo[:n], S2.hi[:n])
        T, vac = VI(T2.lo[:n], T2.hi[:n]), vac2[:n]
        lo, hi = d2.lo[:n], d2.hi[:n]
        # the mean-value form, on the lanes it can certify: in the domain,
        # failing the natural form, with a midpoint value above zero (the
        # form's lower bound lies below the midpoint's)
        mid_ok = ~(vac2[n:] | T2.invalid()[n:]) & (d2.lo[n:] > 0.0)
        mv = np.flatnonzero(~vac & ~(lo > 0.0) & mid_ok)
        if mv.size:
            mv = mv[S.hi[mv] <= sigma_p_batch(VI(P.lo[mv], P.hi[mv])).lo]
        if mv.size:
            Pq, Sq, Tq = (VI(x.lo[mv], x.hi[mv]) for x in (P, S, T))
            d3s, d2sp = delta_third_derivs(Pq, Sq, Tq)
            form = (
                VI(d2.lo[mv + n], d2.hi[mv + n])
                + d3s * VI(Sq.lo - sm[mv], Sq.hi - sm[mv])
                + d2sp * VI(Pq.lo - pm[mv], Pq.hi - pm[mv])
            )
            lo[mv] = np.fmax(lo[mv], form.lo)
            hi[mv] = np.fmin(hi[mv], form.hi)
        boxes[:, 4], boxes[:, 5] = T.lo, T.hi
        return vac, lo > 0.0, lo, hi

    return _subpave(jobs, scales, 1e-6, lambda boxes: _in_chunks(boxes, chunk))


@_quiet
def subpave_delta_above(jobs, side: str) -> list[Subpaving]:
    """Certify Delta(p, sigma) > boundary(p) over each job's box by adaptive
    subpaving of the correlated difference; all jobs run as one merged
    subpaving (_subpave).  The width floor is 1e-7.

    side "high": boundary = sigma_p(p)/2;  side "low": boundary = Delta(p, 1).
    Each subcell is tested with the natural difference and, when the subcell
    is verified fully inside the domain (so the mean-value segment stays
    there), with a midpoint-centered mean-value form whose gradient comes
    from the atom-formula enclosures; the boundary slope is subtracted inside
    the p-gradient, which is where the two terms cancel.  A certified job's
    hull is that of its per-subcell difference enclosures (hull lo > 0).
    Vacuous subcells (beyond the curve) pass.

    Splitting is by absolute width: the mean-value error is roughly isotropic
    in (p, sigma), so thin initial cells must not starve the other axis.

    Each chunk of a wave (_in_chunks) runs its box lanes and their midpoints
    through one tau_enclose_batch call.  On side "low" it makes at most one
    tau_p_enclose_batch call (_tau_p_wave), and the brackets of all chunks
    of a wave go on to the next wave only; as tau_p lanes are independent,
    the result is bit for bit that of searching every lane afresh.
    """
    known = _NO_KEYS  # side "low": the previous wave's tau_p table
    fresh: list = []  # and those of the current wave's chunks so far

    def chunk(boxes):
        n = len(boxes)
        pm, sm, P2, S2, T2, vac2 = _with_midpoints(boxes)
        P, S = VI(P2.lo[:n], P2.hi[:n]), VI(S2.lo[:n], S2.hi[:n])
        T, vac = VI(T2.lo[:n], T2.hi[:n]), vac2[:n]
        d2 = delta_scalar(P2, S2, T2)
        delta = VI(d2.lo[:n], d2.hi[:n])
        bad = vac2[n:] | T2.invalid()[n:]  # midpoints without a surface point
        dm = VI(np.where(bad, np.nan, d2.lo[n:]), np.where(bad, np.nan, d2.hi[n:]))
        sp_box = sigma_p_batch(P)
        if side == "high":
            bound = sp_box * 0.5
            bound_slope = d_sigma_p_batch(P) * 0.5
            bm = sigma_p_batch(VI.point(pm)) * 0.5
        else:
            tp, tp_mid, seen = _tau_p_wave(P, pm, _merge_keys(known, *fresh))
            fresh.append(seen)
            bound = edge_low_batch(P, tp)
            bound_slope = d_edge_low_batch(P, tp)
            bm = edge_low_batch(VI.point(pm), tp_mid)
        diff_lo = _dn(delta.lo - bound.hi)
        diff_hi = _up(delta.hi - bound.lo)

        in_domain = ~vac & (S.hi <= sp_box.lo)
        dds, ddp = delta_gradient(P, S, T)
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
        boxes[:, 4], boxes[:, 5] = T.lo, T.hi
        return vac, ok, best_lo, best_hi

    def wave(boxes):
        nonlocal known
        out = _in_chunks(boxes, chunk)
        if fresh:  # side "low"
            known = _merge_keys(*fresh)
            fresh.clear()
        return out

    return _subpave(jobs, [(1.0, 1.0)] * len(jobs), 1e-7, wave)
