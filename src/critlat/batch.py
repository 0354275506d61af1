"""Vectorized batch enclosures: the evaluation engine behind certification.

Whole waves of subcells are enclosed at once through the VI lane.  Lanes that
intersect to nothing are vacuous (no surface points: the subcell lies beyond
the sigma_p curve); lanes that poison to NaN are undecided and get split.
The fixed-point map and the boundary formulas are the generic-scalar ones of
jets.py, evaluated on the VI lane, so soundness per lane is the scalar
argument verbatim; the functions here are the VI-lane entry points.

The boundary values sigma_p, tau_p, Delta(p, 1) and their p-slopes depend on
the p-interval alone, and a wave has far fewer distinct p-intervals than
boxes (sigma-split children carry their parent's).  So a Delta-wave chunk
keys its box lanes and centers by p-interval (_p_keys), evaluates each
boundary function once on the key table and gathers the values to the
lanes; the table lives as long as the chunk.  Each lane of these functions
depends on its own p-interval alone (the tau_p search too:
jets.tau_p_scalar), so a lane's value is that of evaluating it alone.

The tau fixed point stops each lane on its own, once a step returns the
lane's iterate unchanged bit for bit: the step depends on that lane alone,
so the lane sits on an exact fixed point and the result is that of the full
step count (tau_enclose_batch).  A subpaving child starts from its parent
box's enclosure, which ends at the same fixed point in fewer steps.  Both
subpavings run a box's center through the same call as the box, seeded
alike: the parent box contains the center too.

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

Both subpavings pair a natural enclosure with a mean-value form and keep
the tighter bound of each: Delta minus its boundary value in
subpave_delta_above, d2Delta/dsigma2 in subpave_convex_positive.  The form
is centered at a point c of the box whose path to every in-domain point of
the box stays in the domain (_centers): the midpoint of a box inside the
domain, S.hi <= sigma_p(P).lo, else (P.hi, min(sm, sigma_p(P.hi))), the
path running first in sigma at P.hi and then in p.  Whether a box lies
inside is known before the fixed point, so each box's center lane joins the
same tau_enclose_batch call (_with_centers).  The column waves compute the
power atoms and second-order terms of d2Delta/dsigma2 once on box and center
lanes, and the form's slopes (jets.delta_held_slopes) take those of its
lanes.  Each value is computed once, on the lanes that read it, and every
lane's value is that of computing it alone.
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
    delta_sigma_terms,
    delta_held_slopes,
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
    child's center) still encloses tau, and ends bit for bit as from
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


def _p_keys(P: VI, *points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct p-intervals of the box lanes P and of the points of each
    array in `points`, as sorted keys (_keys), and each lane's index into
    them: the box lanes first, then the points in their order."""
    return np.unique(
        _keys(np.concatenate([P.lo, *points]), np.concatenate([P.hi, *points])),
        return_inverse=True,
    )


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


MAX_LANES = 4096  # lanes evaluated at once; wider waves only cost memory
# a column wave's slice: a column lane's temporaries (the second- and
# third-derivative atoms of a box and its center) take several times a Delta
# lane's, and the widest column slice sets a verify pass's peak memory
COLUMN_LANES = 768
SPECULATE_LANES = 128  # a job's lanes in one wave, its speculative levels included


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
    FLOOR_HIT or VACUOUS; nodes counts its boxes so far, and never the
    boxes that would take it over its budget (nodes <= max_nodes)."""

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


def _subpave(jobs, scales, min_width: float, chunk, lanes: int) -> list[Subpaving]:
    """Adaptive subpaving of all jobs at once, one merged VI array per wave.

    A box is a row (p lo, p hi, sigma lo, sigma hi, tau lo, tau hi), the tau
    columns seeding its fixed point (tau_enclose_batch): TAU_SEED for a
    job's first box, then the enclosure of an evaluated ancestor.
    A wave concatenates the boxes of the running jobs and evaluates them in
    slices of at most `lanes` lanes (_in_chunks): chunk(boxes) overwrites
    the tau columns of a slice with their enclosures and returns per-lane
    (vacuous, ok, lo, hi), ok meaning the enclosure [lo, hi] is positive; it
    keeps nothing from one slice to the next.  A job passes when every box
    is vacuous or ok; otherwise its failing boxes are split on the job's
    scales.  A job whose node count would exceed its budget stops before
    the boxes are evaluated, and reports its count without them; one with a
    failing box thinner than min_width stops after it.

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
            if nodes[j] + len(boxes[j]) > jobs[j].max_nodes:
                result[j] = Subpaving(None, BUDGET_HIT, nodes[j])
            else:
                nodes[j] += len(boxes[j])
                batch.append(j)
                levels.append(_speculate(boxes[j], scales[j], jobs[j].max_nodes - nodes[j]))
        if not batch:
            break
        evaluated = np.concatenate([level for lv in levels for level in lv])
        boxes = {}  # the next wave's: the children of the deepest failing boxes
        vac, ok, lo, hi = _in_chunks(evaluated, chunk, lanes)
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
                    n = int(np.count_nonzero(need))
                    if nodes[j] + n > jobs[j].max_nodes:
                        result[j] = Subpaving(None, BUDGET_HIT, nodes[j])
                        break
                    nodes[j] += n
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


def _lanes(x, idx):
    """Lanes idx of a VI, or of every VI of a NamedTuple of them."""
    if isinstance(x, VI):
        return VI._of(x.lo[idx], x.hi[idx])
    return type(x)(*(_lanes(v, idx) for v in x))


def _centers(boxes: np.ndarray, inside: np.ndarray, curve: np.ndarray):
    """The centers of the boxes' mean-value forms: (idx, pc, sc), the boxes
    idx that get one and their centers (pc, sc).  A box inside the domain
    (the mask `inside`) is centered at its midpoint (pm, sm); any other at
    (P.hi, min(sm, curve)), curve the VI lower bound of sigma_p([P.hi]) per
    box, where that lies in the box (sc >= S.lo).  The second center lies in
    the domain, and so does the path from it to any in-domain point (p,
    sigma) of the box, first in sigma at P.hi, then in p at sigma: sigma_p
    increases (tests/test_sigma_p_increasing.py), so sigma <= sigma_p(p) <=
    sigma_p(q) for every q in [p, P.hi]."""
    pm = 0.5 * (boxes[:, 0] + boxes[:, 1])
    sm = 0.5 * (boxes[:, 2] + boxes[:, 3])
    pc = np.where(inside, pm, boxes[:, 1])
    sc = np.where(inside, sm, np.minimum(sm, curve))
    idx = np.flatnonzero(inside | (sc >= boxes[:, 2]))
    return idx, pc[idx], sc[idx]


def _with_centers(boxes: np.ndarray, idx: np.ndarray, pc: np.ndarray, sc: np.ndarray):
    """(P, S, T, vacuous) of all box lanes, then of the centers (pc, sc) of
    the boxes idx, from one tau fixed point: a center starts from its box's
    seed, which encloses the center's tau too."""
    P2 = VI(np.concatenate([boxes[:, 0], pc]), np.concatenate([boxes[:, 1], pc]))
    S2 = VI(np.concatenate([boxes[:, 2], sc]), np.concatenate([boxes[:, 3], sc]))
    seed = np.concatenate([boxes[:, 4:], boxes[idx, 4:]])
    T2, vac2 = tau_enclose_batch(P2, S2, seed=VI(seed[:, 0], seed[:, 1]))
    return P2, S2, T2, vac2


def _in_chunks(boxes: np.ndarray, evaluate, lanes: int) -> tuple:
    """evaluate(boxes) on consecutive slices (views) of at most `lanes`
    lanes, its per-lane outputs concatenated.  Past a few thousand lanes numpy's cost
    per lane is flat, while a wave's temporaries grow with its lanes."""
    parts = [evaluate(boxes[a : a + lanes]) for a in range(0, len(boxes), lanes)]
    return tuple(np.concatenate(out) for out in zip(*parts))


@_quiet
def subpave_convex_positive(jobs) -> list[Subpaving]:
    """Certify d2Delta/dsigma2 > 0 over each job's box (within the domain) by
    adaptive subpaving; all jobs run as one merged subpaving (_subpave).  A
    certified job's hull is that of its subcell enclosures, hull lo > 0.
    The width floor is 1e-6.

    Each subcell X is tested with the natural extension of d2Delta/dsigma2
    and, where that fails, with the mean-value form centered at c = (pc, sc)
    (_centers) that holds the atom u = tau^(p-2) apart:
    f(c) + h_s(X)(S - sc) + h_p(X)(P - pc) + C1(X)(u(X) - u(c)), with h_s,
    h_p the slopes of f = d2Delta/dsigma2 with u held and C1 = df/du
    (jets.delta_held_slopes).  f is affine in u, so f(x) - f(c) =
    [f(x, u(x)) - f(c, u(x))] + C1(c)(u(x) - u(c)), and the first bracket is
    the held slopes' integral along the path from c to x, in the domain.  u
    is not smooth where tau reaches 0, on the curve, but the held slopes and
    C1 stay finite there (p >= 2), so subcells across the curve get the form
    too.  A subcell's enclosure is the intersection of the two, a NaN form
    leaving the natural one.  The natural enclosure of d2Delta/dsigma2 is
    hundreds of times wider than its range; the form's excess over the range
    shrinks with the square of the subcell's width (Moore, Interval
    Analysis, 1966, centered forms).  The form is skipped where it cannot
    pass: on subcells the natural form certifies, and where the center's
    value is not positive (the form's lower bound lies below it).  Each
    chunk of a wave runs its box lanes and their centers (sigma_p_batch on
    the box lanes and on their P.hi) through one tau_enclose_batch call
    (_with_centers) and one jets.delta_sigma_terms call, whose atoms and
    second-order terms on the form's lanes the held slopes take over instead
    of computing them again.

    The split axis weighs sigma's relative width eight times p's, refining
    sigma ahead of p: the second-derivative enclosure is far more sensitive
    to the sigma/tau spread than to p.  A wave is evaluated in slices of
    COLUMN_LANES lanes.
    """
    scales = [
        (max(j.p_hi - j.p_lo, 1e-12), max(j.s_hi - j.s_lo, 1e-12) / 8.0)
        for j in jobs
    ]

    def chunk(boxes):
        n = len(boxes)
        P, S = VI(boxes[:, 0], boxes[:, 1]), VI(boxes[:, 2], boxes[:, 3])
        sp = sigma_p_batch(VI(np.concatenate([P.lo, P.hi]), np.concatenate([P.hi, P.hi])))
        idx, pc, sc = _centers(boxes, S.hi <= sp.lo[:n], sp.lo[n:])
        P2, S2, T2, vac2 = _with_centers(boxes, idx, pc, sc)
        at, st = delta_sigma_terms(P2, S2, T2)
        d2 = st.dds2
        T, vac = _lanes(T2, slice(n)), vac2[:n]
        lo, hi = d2.lo[:n], d2.hi[:n]
        # the mean-value form, on the lanes it can certify: failing the
        # natural form, with a center value above zero (the form's lower
        # bound lies below the center's)
        c_ok = ~(vac2[n:] | T2.invalid()[n:]) & (d2.lo[n:] > 0.0)
        use = ~vac[idx] & ~(lo[idx] > 0.0) & c_ok
        mv = idx[use]
        if mv.size:
            cq = n + np.flatnonzero(use)  # their centers' lanes
            Pq, Sq, Tq = (_lanes(x, mv) for x in (P, S, T))
            h_s, h_p, c1 = delta_held_slopes(Pq, Sq, Tq, (_lanes(at, mv), _lanes(st, mv)))
            pcq, scq = pc[use], sc[use]
            form = (
                _lanes(d2, cq)
                + h_s * VI(Sq.lo - scq, Sq.hi - scq)
                + h_p * VI(Pq.lo - pcq, Pq.hi - pcq)
                + c1 * (_lanes(st.t2, mv) - _lanes(st.t2, cq))
            )
            lo[mv] = np.fmax(lo[mv], form.lo)
            hi[mv] = np.fmin(hi[mv], form.hi)
        boxes[:, 4], boxes[:, 5] = T.lo, T.hi
        return vac, lo > 0.0, lo, hi

    return _subpave(jobs, scales, 1e-6, chunk, COLUMN_LANES)


@_quiet
def subpave_delta_above(jobs, side: str) -> list[Subpaving]:
    """Certify Delta(p, sigma) > boundary(p) over each job's box by adaptive
    subpaving of the correlated difference; all jobs run as one merged
    subpaving (_subpave).  The width floor is 1e-7.

    side "high": boundary = sigma_p(p)/2;  side "low": boundary = Delta(p, 1).
    Each subcell is tested with the natural difference and with a mean-value
    form centered at c = (pc, sc) (_centers, whose path from c stays in the
    domain), f(c) + dDelta/dsigma(X)(S - sc) + (dDelta/dp(X) - boundary'(P))
    (P - pc) for f = Delta - boundary, the gradient from the atom-formula
    enclosures; the boundary slope is subtracted inside the p-gradient,
    which is where the two terms cancel.  A certified job's
    hull is that of its per-subcell difference enclosures (hull lo > 0).
    Vacuous subcells (beyond the curve) pass.

    Splitting is by absolute width: the mean-value error is roughly isotropic
    in (p, sigma), so thin initial cells must not starve the other axis.

    Each chunk of a wave (_in_chunks) makes one call of each boundary
    function it needs on the distinct p-intervals of its box lanes, their
    midpoints and their P.hi (_p_keys): sigma_p_batch on side "high";
    sigma_p_batch, tau_p_enclose_batch and edge_low_batch on side "low".
    Then it runs its box lanes and their centers through one
    tau_enclose_batch call, and takes the gradient (delta_gradient) on the
    lanes with a surface point and a center only; the boundary's p-slope
    (d_sigma_p_batch, d_edge_low_batch) runs on the distinct p-intervals of
    those lanes alone.
    No value passes from one chunk or wave to the next; as every lane of
    these functions is independent of the others, the result is bit for bit
    that of evaluating every lane afresh.
    """

    def chunk(boxes):
        n = len(boxes)
        P, S = VI(boxes[:, 0], boxes[:, 1]), VI(boxes[:, 2], boxes[:, 3])
        # the boundary values on the chunk's distinct p-intervals, box lanes',
        # midpoints' and upper ends', gathered to the lanes
        pm = 0.5 * (boxes[:, 0] + boxes[:, 1])
        keys, key = _p_keys(P, pm, P.hi)
        K = VI._of(keys.real, keys.imag)
        sp = sigma_p_batch(K)
        if side == "high":
            edge = sp * 0.5
        else:
            tp = tau_p_enclose_batch(K)
            edge = edge_low_batch(K, tp)
        bound = _lanes(edge, key[:n])
        inside = S.hi <= sp.lo[key[:n]]
        idx, pc, sc = _centers(boxes, inside, sp.lo[key[2 * n :]])
        ckey = np.where(inside, key[n : 2 * n], key[2 * n :])[idx]  # the centers' p
        P2, S2, T2, vac2 = _with_centers(boxes, idx, pc, sc)
        T, vac = _lanes(T2, slice(n)), vac2[:n]
        d2 = delta_scalar(P2, S2, T2)
        best_lo = _dn(d2.lo[:n] - bound.hi)
        best_hi = _up(d2.hi[:n] - bound.lo)

        use = ~vac[idx]
        q = idx[use]
        if q.size:
            cq = n + np.flatnonzero(use)  # their centers' lanes
            bad = vac2[cq] | T2.invalid()[cq]  # centers without a surface point
            dc = VI(np.where(bad, np.nan, d2.lo[cq]), np.where(bad, np.nan, d2.hi[cq]))
            Pq, Sq, Tq = (_lanes(x, q) for x in (P, S, T))
            dds, ddp = delta_gradient(Pq, Sq, Tq)
            # the boundary's p-slope, on the distinct box keys the form reads
            sk, at = np.unique(key[q], return_inverse=True)
            Ks = _lanes(K, sk)
            if side == "high":
                slope = d_sigma_p_batch(Ks) * 0.5
            else:
                slope = d_edge_low_batch(Ks, _lanes(tp, sk))
            pcq, scq = pc[use], sc[use]
            mvf = (
                (dc - _lanes(edge, ckey[use]))
                + dds * VI(Sq.lo - scq, Sq.hi - scq)
                + (ddp - _lanes(slope, at)) * VI(Pq.lo - pcq, Pq.hi - pcq)
            )
            best_lo[q] = np.fmax(best_lo[q], mvf.lo)
            best_hi[q] = np.fmin(best_hi[q], mvf.hi)
        boxes[:, 4], boxes[:, 5] = T.lo, T.hi
        return vac, best_lo > 0.0, best_lo, best_hi

    return _subpave(jobs, [(1.0, 1.0)] * len(jobs), 1e-7, chunk, MAX_LANES)
