"""Vectorized batch enclosures: the evaluation engine behind certification.

Whole waves of subcells are enclosed at once through the VI lane.  Lanes that
intersect to nothing are vacuous (no surface points: the subcell lies beyond
the sigma_p curve); lanes that poison to NaN are undecided and get split.
The fixed-point map and the boundary formulas are the generic-scalar ones of
jets.py, evaluated on the VI lane, so soundness per lane is the scalar
argument verbatim; the functions here are the VI-lane entry points.  Every
entry point runs under np.errstate(all="ignore") (_quiet): the VI ops leave
numpy's floating-point warnings to their caller, and a lane that overflows
or leaves its domain is poisoned or stepped outward instead.

FORMS is one table from fid to the form that a subpaving certifies
positive, with its split scales and width floor: Delta minus each boundary
value, and d2Delta/dsigma2 for the columns up from sigma = 1 and down from
the curve (one row for both).  _subpave runs (fid, Job) jobs of any fids as
one merged subpaving: every wave concatenates the boxes of all running
jobs, with their next split levels (_speculate), into one VI array, which
keeps numpy busy on wide arrays instead of many narrow ones.  A wave costs
a few milliseconds of numpy calls whatever its width, so a narrow job ends
in fewer waves; the lanes whose parent passed are wasted, and the `nodes`
that the benchmark counts include them.  In a verify run an undecided
cell's halves join the round after it, so many jobs share each wave, and
a job speculates only up to SPECULATE_LANES lanes; a pool's workers run
contiguous chunks of a round's jobs, one _subpave call each.

A slice of a wave (_evaluate) runs each boundary function once on the
distinct p-intervals that its lanes read (_p_keys): the boundary values
depend on the p-interval alone, and a wave has far fewer distinct
p-intervals than boxes (sigma-split children carry their parent's).  Its
boxes and their centers share one tau fixed point, which stops each lane on
an exact fixed point, started from the enclosure of the box's parent
(tau_enclose_batch).  Every lane of these functions depends on its own
inputs alone (the tau_p search too: jets.tau_p_scalar), and speculation on
the job alone, so every job ends (Subpaving) as it would alone.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

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
    "FORMS",
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
# a column lane's share of a slice: its temporaries (the second- and
# third-derivative atoms of a box and its center) take several times a Delta
# lane's, and the widest column slice sets a verify pass's peak memory
COLUMN_LANES = 768
# a job's lanes in one wave, its speculative levels included.  Speculation
# trades lanes that the level replay never reads for waves: with early splits
# (verifier.verify_strip) a verify run's jobs fill its waves, and on
# strip_one 64 reads 6,867 box lanes in 11 slices against 8,985 in 10 at 128;
# 32 and 48 save little more and add a slice to the 2.3-2.4 strip
SPECULATE_LANES = 64


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


class Lanes(NamedTuple):
    """A form's lanes of one slice: its n boxes, then the centers of its boxes
    idx (point lanes), as P, S, tau enclosure T and vacuous mask; key indexes
    each lane's p-interval in the slice's keys K, and sp = sigma_p_batch(K)."""

    n: int
    P: VI
    S: VI
    T: VI
    vac: np.ndarray
    idx: np.ndarray
    key: np.ndarray
    K: VI
    sp: VI


def _column(L: Lanes):
    """d2Delta/dsigma2 per box X: the natural extension, narrowed where it
    fails by the mean-value form that holds the atom u = tau^(p-2) apart,
    f(c) + h_s(X)(S - sc) + h_p(X)(P - pc) + C1(X)(u(X) - u(c)), with h_s,
    h_p the slopes of f = d2Delta/dsigma2 with u held and C1 = df/du
    (jets.delta_held_slopes).  f is affine in u, so f(x) - f(c) =
    [f(x, u(x)) - f(c, u(x))] + C1(c)(u(x) - u(c)), and the first bracket is
    the held slopes' integral along the path from c to x, in the domain.  u
    is not smooth where tau reaches 0, on the curve, but the held slopes and
    C1 stay finite there (p >= 2), so subcells across the curve get the form
    too.  A NaN form leaves the natural enclosure, which is hundreds of
    times wider than the range; the form's excess over the range shrinks
    with the square of the subcell's width (Moore, Interval Analysis, 1966,
    centered forms).  The form is skipped where it cannot pass: where the
    natural form certifies, and where the center's value is not positive.
    The held slopes reuse the terms of one delta_sigma_terms call."""
    n, idx = L.n, L.idx
    at, st = delta_sigma_terms(L.P, L.S, L.T)
    d2, t2 = st.dds2, st.t2
    vac, lo, hi = L.vac[:n], d2.lo[:n], d2.hi[:n]
    c_ok = ~(L.vac[n:] | L.T.invalid()[n:]) & (d2.lo[n:] > 0.0)
    use = ~vac[idx] & ~(lo[idx] > 0.0) & c_ok
    mv = idx[use]
    if mv.size:
        cq = n + np.flatnonzero(use)  # their centers' lanes
        Pq, Sq, Tq = (_lanes(x, mv) for x in (L.P, L.S, L.T))
        terms = (_lanes(at, mv), _lanes(st, mv))
        del at, st  # only these lanes live through the held slopes: a pass's memory peak
        h_s, h_p, c1 = delta_held_slopes(Pq, Sq, Tq, terms)
        pcq, scq = L.P.lo[cq], L.S.lo[cq]
        form = (
            _lanes(d2, cq)
            + h_s * VI(Sq.lo - scq, Sq.hi - scq)
            + h_p * VI(Pq.lo - pcq, Pq.hi - pcq)
            + c1 * (_lanes(t2, mv) - _lanes(t2, cq))
        )
        lo[mv] = np.fmax(lo[mv], form.lo)
        hi[mv] = np.fmin(hi[mv], form.hi)
    return vac, lo, hi


def _delta_minus(boundary):
    """The form of f = Delta(p, sigma) - boundary(p) per box X: the natural
    difference, intersected on the boxes with a surface point and a center
    with the mean-value form f(c) + dDelta/dsigma(X)(S - sc) +
    (dDelta/dp(X) - boundary'(P))(P - pc), the gradient from the
    atom-formula enclosures (delta_gradient); the boundary slope is
    subtracted inside the p-gradient, which is where the two terms cancel.
    boundary(K, sp) gives the boundary and its p-slope on the distinct
    p-intervals K of the form's lanes, sp being sigma_p on them."""

    def form(L: Lanes):
        n, idx = L.n, L.idx
        u, k = np.unique(L.key, return_inverse=True)  # each lane's key in u
        edge, slope = boundary(_lanes(L.K, u), _lanes(L.sp, u))
        bound = _lanes(edge, k[:n])
        d2 = delta_scalar(L.P, L.S, L.T)
        best_lo = _dn(d2.lo[:n] - bound.hi)
        best_hi = _up(d2.hi[:n] - bound.lo)
        use = ~L.vac[idx]
        q = idx[use]
        if q.size:
            cq = n + np.flatnonzero(use)  # their centers' lanes
            bad = L.vac[cq] | L.T.invalid()[cq]  # centers without a surface point
            dc = VI(np.where(bad, np.nan, d2.lo[cq]), np.where(bad, np.nan, d2.hi[cq]))
            Pq, Sq, Tq = (_lanes(x, q) for x in (L.P, L.S, L.T))
            dds, ddp = delta_gradient(Pq, Sq, Tq)
            pcq, scq = L.P.lo[cq], L.S.lo[cq]
            mvf = (
                (dc - _lanes(edge, k[cq]))
                + dds * VI(Sq.lo - scq, Sq.hi - scq)
                + (ddp - _lanes(slope, k[q])) * VI(Pq.lo - pcq, Pq.hi - pcq)
            )
            best_lo[q] = np.fmax(best_lo[q], mvf.lo)
            best_hi[q] = np.fmin(best_hi[q], mvf.hi)
        return L.vac[:n], best_lo, best_hi

    return form


def _half_sigma_p(K: VI, sp: VI):
    """Delta(p, sigma_p) = sigma_p/2 and its p-slope."""
    return sp * 0.5, d_sigma_p_batch(K) * 0.5


def _delta_at_one(K: VI, sp: VI):
    """Delta(p, 1) and its p-slope, from one tau_p bracket per key."""
    tp = tau_p_enclose_batch(K)
    return edge_low_batch(K, tp), d_edge_low_batch(K, tp)


class Form(NamedTuple):
    """form(Lanes) -> per-box (vacuous, lo, hi); scale(job) -> split scales; floor."""

    form: Callable
    scale: Callable
    floor: float


# columns split on relative widths, sigma's weighing eight times p's: the
# second-derivative enclosure is far more sensitive to the sigma/tau spread
# than to p.  Differences split on absolute widths: their mean-value error
# is roughly isotropic in (p, sigma), so thin cells must not starve an axis.
_COLUMN = Form(
    _column,
    lambda job: (max(job.p_hi - job.p_lo, 1e-12), max(job.s_hi - job.s_lo, 1e-12) / 8.0),
    1e-6,
)
FORMS = {
    "delta_minus_edge_high": Form(_delta_minus(_half_sigma_p), lambda job: (1.0, 1.0), 1e-7),
    "delta_minus_edge_low": Form(_delta_minus(_delta_at_one), lambda job: (1.0, 1.0), 1e-7),
    "d_sigma2_column_low": _COLUMN,
    "d_sigma2_column_high": _COLUMN,
}
_ROWS = tuple(dict.fromkeys(FORMS.values()))  # each distinct row once


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


@_quiet
def _subpave(jobs) -> list[Subpaving]:
    """Adaptive subpaving of all (fid, Job) jobs at once, one merged VI
    array per wave: a job certifies its fid's form (FORMS) positive over
    its box (within the domain).

    A box is a row (p lo, p hi, sigma lo, sigma hi, tau lo, tau hi), the tau
    columns seeding its fixed point: TAU_SEED for a job's first box, then
    the enclosure of an evaluated ancestor.  A wave evaluates the boxes of
    the running jobs in slices (_in_chunks).  A job passes when every box is
    vacuous or its enclosure [lo, hi] positive; otherwise its failing boxes
    are split on its scales.  A job whose node count would exceed its budget
    stops before the boxes are evaluated, and reports its count without
    them; one with a failing box thinner than its floor stops after it.

    A wave evaluates a job's boxes with its next split levels (_speculate),
    then replays the levels one at a time, as a run without them would: the
    budget check on the boxes the level needs (rows 2r and 2r + 1, the
    children of the failing boxes r of the level above), the hull over their
    live lanes, the certified or vacuous end, and the width floor on their
    failing boxes.  The deepest level's failing boxes are split next.
    """
    kind = [_ROWS.index(FORMS[fid]) for fid, _ in jobs]
    jobs = [job for _, job in jobs]
    scales = [_ROWS[k].scale(job) for k, job in zip(kind, jobs)]
    boxes = {
        j: np.array([(*job[:4], *TAU_SEED)], dtype=float) for j, job in enumerate(jobs)
    }
    nodes = [0] * len(jobs)
    hull = [(np.inf, -np.inf)] * len(jobs)
    result: list = [None] * len(jobs)
    # the jobs of one row side by side: most slices then hold one form
    running = sorted(range(len(jobs)), key=kind.__getitem__)
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
        levels = [[len(level) for level in lv] for lv in levels]  # only sizes from here
        kinds = np.repeat([kind[j] for j in batch], list(map(sum, levels)))
        boxes = {}  # the next wave's: the children of the deepest failing boxes
        vac, lo, hi = _in_chunks(evaluated, kinds)
        good = vac | (lo > 0.0)
        live = (lo > 0.0) & ~vac
        running = []
        end = 0
        for j, lv in zip(batch, levels):
            b, end = end, end + sum(lv)
            need = np.ones(lv[0], dtype=bool)
            for depth, size in enumerate(lv):
                a, b = b, b + size
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
                ) < _ROWS[kind[j]].floor
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


def _evaluate(boxes: np.ndarray, kinds: np.ndarray) -> tuple:
    """One slice of a wave, box i evaluated with the form of _ROWS[kinds[i]]:
    per-box (vacuous, lo, hi), the boxes' tau columns overwritten with their
    enclosures.  One sigma_p_batch call on the distinct p-intervals (_p_keys)
    of the boxes, their midpoints and their P.hi places their centers
    (_centers); one tau_enclose_batch call runs the boxes, then the centers,
    each center seeded with its box's seed.  Each form then runs on its own
    boxes and their centers."""
    n = len(boxes)
    P, S = VI(boxes[:, 0], boxes[:, 1]), VI(boxes[:, 2], boxes[:, 3])
    keys, key = _p_keys(P, 0.5 * (boxes[:, 0] + boxes[:, 1]), P.hi)
    K = VI._of(keys.real, keys.imag)
    sp = sigma_p_batch(K)
    inside = S.hi <= sp.lo[key[:n]]
    idx, pc, sc = _centers(boxes, inside, sp.lo[key[2 * n :]])
    # each lane's p-interval: the boxes', then their centers'
    key = np.concatenate([key[:n], np.where(inside, key[n : 2 * n], key[2 * n :])[idx]])
    P2 = VI(np.concatenate([P.lo, pc]), np.concatenate([P.hi, pc]))
    S2 = VI(np.concatenate([S.lo, sc]), np.concatenate([S.hi, sc]))
    seed = np.concatenate([boxes[:, 4:], boxes[idx, 4:]])
    T2, vac2 = tau_enclose_batch(P2, S2, seed=VI(seed[:, 0], seed[:, 1]))
    boxes[:, 4], boxes[:, 5] = T2.lo[:n], T2.hi[:n]
    vac, lo, hi = np.empty(n, dtype=bool), np.empty(n), np.empty(n)
    for r in np.flatnonzero(np.bincount(kinds)):  # the rows present
        mine = kinds == r
        has = mine[idx]  # the centers of its boxes
        lanes = np.concatenate([np.flatnonzero(mine), n + np.flatnonzero(has)])
        L = Lanes(
            int(np.count_nonzero(mine)),
            *(_lanes(x, lanes) for x in (P2, S2, T2)),
            vac2[lanes],
            (np.cumsum(mine) - 1)[idx[has]],  # those boxes among the form's
            key[lanes],
            K,
            sp,
        )
        vac[mine], lo[mine], hi[mine] = _ROWS[r].form(L)
    return vac, lo, hi


def _in_chunks(boxes: np.ndarray, kinds: np.ndarray) -> tuple:
    """_evaluate on consecutive slices (views) of boxes, its outputs
    concatenated.  A slice's column lanes times MAX_LANES/COLUMN_LANES plus
    its other lanes stay within MAX_LANES, as temporaries grow with lanes; a
    run of one form's lanes that starts inside a slice and does not fit goes
    whole to the next, so each form runs on as few slices as alone, and runs
    that fit together share one tau fixed point."""
    # in integers: MAX_LANES per column lane, COLUMN_LANES per other one
    ends = np.cumsum(np.where(kinds == _ROWS.index(_COLUMN), MAX_LANES, COLUMN_LANES))
    first = np.maximum.accumulate(np.where(np.diff(kinds, prepend=-1), np.arange(len(kinds)), 0))
    parts, a = [], 0
    while a < len(boxes):
        room = (ends[a - 1] if a else 0) + MAX_LANES * COLUMN_LANES
        b = int(np.searchsorted(ends, room, side="right"))
        if b < len(boxes) and first[b] > a:
            b = int(first[b])
        parts.append(_evaluate(boxes[a:b], kinds[a:b]))
        a = b
    return tuple(np.concatenate(out) for out in zip(*parts))


def subpave_convex_positive(jobs) -> list[Subpaving]:
    """Certify d2Delta/dsigma2 > 0 over each job's box: the column form."""
    return _subpave([("d_sigma2_column_low", job) for job in jobs])


def subpave_delta_above(jobs, side: str) -> list[Subpaving]:
    """Certify Delta(p, sigma) > boundary(p) over each job's box, side "high" or "low"."""
    return _subpave([(f"delta_minus_edge_{side}", job) for job in jobs])
