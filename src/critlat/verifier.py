"""Certification engine for the critical-determinant inequality.

Certifies Delta(p, sigma) > min(Delta(p, 1), Delta(p, sigma_p)) on strips of
the parameter domain by adaptive covering.  Three certificate kinds per leaf:

  CertifiedInterior      Delta exceeds one boundary value outright: the
                         correlated difference Delta - boundary(p) is
                         subpaved (natural + mean-value forms).  A mid-band
                         cell's difference from Delta(p, 1) may be split at
                         a cut s*: on [1, s*] a convexity column gives
                         Delta > Delta(p, 1) as for CertifiedMonotoneLow,
                         and the difference is subpaved on [s*, s_hi] only.
  CertifiedMonotoneLow   d2Delta/dsigma2 > 0 on the column from the cell down
                         to sigma = 1; with the exact stationarity
                         dDelta/dsigma(p, 1) = 0 this gives strict growth away
                         from the low edge, so Delta > Delta(p, 1) there.
  CertifiedMonotoneHigh  the symmetric convexity column up to the sigma_p
                         curve; with dDelta/dsigma(p, sigma_p) = 0 it gives
                         strict growth away from the curve, so
                         Delta > Delta(p, sigma_p).

dDelta/dsigma itself vanishes identically on both boundary lines (both edges
are stationary branches of critical lattices; the identities reduce to
b1(1+tau^p) = b0 and s1*alpha1 = beta1 at tau = 0), so a first-derivative
sign witness on a boundary-touching strip cannot exist; the convexity witness
carries the monotone certificates instead.  For the same reason Delta -
Delta(p, 1) is O((sigma - 1)^2) near sigma = 1, where a difference subpaving
needs many nodes; the split interior-low attempt hands that part to a
column.  All claims are restricted to the parameter domain 1 < sigma <
sigma_p(p); evaluation boxes may straddle the curved upper boundary, where
enclosures remain valid for in-domain points by inclusion isotonicity.

A witness's value is the hull of its subpaving's per-sub-box enclosures,
each from the form that its fid names in batch.FORMS.  A Monotone witness
(fid d_sigma2_column_low or d_sigma2_column_high) takes on each sub-box the
tighter bound of two forms of d2Delta/dsigma2: the natural extension and a
mean-value form whose slopes hold its atom tau^(p-2) fixed, plus that atom's
own term; an Interior witness (delta_minus_edge_high or
delta_minus_edge_low) takes the natural difference and a mean-value form
with the gradient of Delta as slopes.  A mean-value form is centered at the sub-box's midpoint
when the sub-box lies inside the domain, else at (P.hi, min(sm,
sigma_p(P.hi))); a checker of a witness evaluates the same pair (SCHEME).  A
split leaf's column is an element of the same kind as a MonotoneLow witness,
on P x [1, s*], with s* < sigma_p(P.lo) verified on the VI lane so that the
column lies in the domain; its witness is the difference on P x [s*, s_hi].

A leaf is a Box plus its id, the bisection path from its initial cell (the
parent id plus "0" or "1").  Every certificate comes from subpaving jobs:
each generation of leaves is certified in rounds (_certify_rounds).  A leaf's
attempts are a generator (_certify_leaf) over one table of attempts
(interior-high, interior-low, mono-low, mono-high) in an order set by the
leaf's band and its sampled margins.  It runs each attempt's float prescreen
and its cost rule lazily, estimating area*(c/margin)^2 nodes against a
multiple of the node budget, and yields the (fid, job) subpaving jobs of
each attempt that gets past them: one job, or two for a split attempt.
Only a curve-straddling interior attempt or a convexity column can be
skipped by cost.  Round r gathers the jobs of the next attempt of every leaf
still undecided, whatever their fids, and runs them as one merged subpaving
(batch._subpave), whose jobs end as they would alone; so each leaf gets the
status, and the certificate the bytes, of certifying it on its own.
certify_box is the one-leaf case.  With several workers one process pool
serves the run, and each worker certifies one contiguous chunk of the
generation (sorted by leaf id) the same way.  A leaf record holds only what
its verdict rests on: its id, band, box and status.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import __version__ as _version
from .batch import Job, _subpave, sigma_p_batch

# unused here: bound for perfbench/test_perfbench.py::test_uninstall_restores_the_program,
# which reads verifier.subpave_delta_above
from .batch import subpave_delta_above
from .enclosure import (
    DEFAULT_SEED,
    EifElement,
    delta_edge_high_enclosure,
    delta_edge_low_enclosure,
)
from .interval import Box, DomainError, Interval, IntervalError, IntervalOverflow
from .jets import SingularConstraint, delta_sigma_derivs
from .moduli import NoRootInRange, delta_edge_low, delta_point, sigma_p, tau_point
from .vints import VI

__all__ = [
    "CertStatus",
    "LeafRecord",
    "Certificate",
    "BudgetExhausted",
    "NoSignChange",
    "VerifyError",
    "certify_box",
    "verify_strip",
    "enclose_p0",
    "emit_certificate",
    "parse_certificate",
    "replay_leaf",
]

SCHEME = "convex-column-2"
SPLIT_STEPS = 6  # bisection steps locating a split attempt's cut (_split_cut)

VERDICT_INTERIOR = "CertifiedInterior"
VERDICT_MONO_LOW = "CertifiedMonotoneLow"
VERDICT_MONO_HIGH = "CertifiedMonotoneHigh"
VERDICT_UNDECIDED = "Undecided"


class VerifyError(Exception):
    pass


class BudgetExhausted(VerifyError):
    """Raised when the leaf budget runs out; carries the partial certificate."""

    def __init__(self, certificate: "Certificate"):
        super().__init__(
            f"budget exhausted with {certificate.totals.get(VERDICT_UNDECIDED, 0)} "
            "undecided leaves"
        )
        self.certificate = certificate


class NoSignChange(VerifyError):
    """The boundary-difference enclosures fail to be sign-definite at the
    bracket ends."""


@dataclass(frozen=True)
class CertStatus:
    verdict: str
    witness: EifElement | None = None
    reason: str = ""
    column: EifElement | None = None  # a split interior-low attempt's column


@dataclass(frozen=True)
class LeafRecord:
    id: str  # bisection path: the parent id plus "0" or "1"
    box: Box
    band: str  # "low" | "mid" | "high"
    status: CertStatus


@dataclass
class Certificate:
    region: Box
    policy: dict
    leaves: list[LeafRecord]
    totals: dict[str, int]
    complete: bool
    version: str
    scheme: str
    timing: float = 0.0

    @property
    def undecided(self) -> list[LeafRecord]:
        return [r for r in self.leaves if r.status.verdict == VERDICT_UNDECIDED]


def _sigma_p_range(p_lo: float, p_hi: float) -> tuple[float, float]:
    """Verified (lower, upper) bounds for sigma_p over [p_lo, p_hi], from 16
    slices (so no monotonicity assumption) in one sigma_p_batch call.  A
    slice whose sigma_p overflows is NaN, and raises IntervalOverflow."""
    cuts = np.linspace(p_lo, p_hi, 17)
    sp = sigma_p_batch(VI(cuts[:-1], cuts[1:]))
    lo, hi = float(sp.lo.min()), float(sp.hi.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise IntervalOverflow(f"sigma_p overflows over p in [{p_lo}, {p_hi}]")
    return lo, hi


def _float_margins(pm: float, sm: float) -> tuple[float, float]:
    """Point margins (vs high bound, vs low bound); heuristics only."""
    sm = min(max(sm, 1.0), sigma_p(pm) * (1.0 - 1e-12))
    d = delta_point(pm, sm).delta
    return d - 0.5 * sigma_p(pm), d - delta_edge_low(pm)


def _float_dds2(pm: float, sm: float) -> float:
    """Point second sigma-derivative; heuristics only (NaN on failure)."""
    try:
        sm = min(max(sm, 1.0), sigma_p(pm) * (1.0 - 1e-9))
        _, dds2 = delta_sigma_derivs(pm, sm, tau_point(pm, sm))
        return dds2
    except (ArithmeticError, ValueError, IntervalError, NoRootInRange, SingularConstraint):
        return float("nan")


def certify_box(
    X: Box,
    band: str = "mid",
    sigma_top: float | None = None,
    node_budget: int = 24000,
) -> CertStatus:
    """Attempt interior, then monotone certificates for one cell.

    sigma_top is a verified upper bound for sigma_p over the cell's p-range
    (needed for the monotone-high column).  This is the one-cell case of
    _certify_rounds.
    """
    return _certify_rounds([_certify_leaf(X, band, sigma_top, node_budget)])[0]


def _split_cut(p_lo: float, p_hi: float, s_lo: float, s_hi: float) -> float | None:
    """Where a mid-band cell's interior-low attempt splits: s* = 1 + (z - 1)/2,
    z the first sign change of the float d2Delta/dsigma2 on [1, s_hi] at the
    cell's p midpoint, from SPLIT_STEPS bisection steps that keep a positive
    value at their lower end (z is that end; s_hi's own sign is not read,
    since d2Delta/dsigma2 turns positive again near the curve).  None when
    d2Delta/dsigma2 <= 0 at sigma = 1, when s* misses (s_lo, s_hi), when the
    column's 3 x 3 float samples do not all exceed 1e-8, or when s* <
    sigma_p(p_lo) cannot be verified on the VI lane.  All but that check
    only tune cost, and everything here depends on the cell alone."""
    pm = 0.5 * (p_lo + p_hi)
    a, b = 1.0, s_hi
    if not _float_dds2(pm, a) > 0.0:
        return None
    for _ in range(SPLIT_STEPS):
        m = 0.5 * (a + b)
        a, b = (m, b) if _float_dds2(pm, m) > 0.0 else (a, m)
    cut = 1.0 + 0.5 * (a - 1.0)
    if not s_lo < cut < s_hi:
        return None
    sigmas = (1.0 + 1e-9, 1.0 + 0.5 * (cut - 1.0), cut)
    if not all(_float_dds2(pp, ss) > 1e-8 for pp in (p_lo, pm, p_hi) for ss in sigmas):
        return None
    # the column must lie in the domain for every p of the cell: sigma_p
    # increases (tests/test_sigma_p_increasing.py), so sigma_p(p_lo) bounds it
    if not cut < float(sigma_p_batch(VI.point(np.array([p_lo]))).lo[0]):
        return None
    return cut


def _certify_leaf(X, band, sigma_top, node_budget):
    """certify_box for one cell as a generator: for each attempt that needs
    subpavings it yields the list of its (fid, batch.Job), fid naming the
    form of batch.FORMS that the job subpaves, is sent the list of the jobs'
    batch.Subpaving, and returns the CertStatus.  An Undecided status's
    reason lists how each attempt ended, in order, the last one last.

    The attempts form one table: each plan returns why it is skipped, or
    (verdict, parts) with parts a list of (fid, c_lo, c_hi), one subpaving
    each of the cell's p-range times [c_lo, c_hi].  The attempt certifies
    when every part does; each part's hull becomes an element of the status,
    the last one its witness.  Every attempt has one part but a split
    interior-low attempt (_split_cut), whose column comes first.
    """
    p_lo, p_hi = X.p.lo, X.p.hi
    s_lo, s_hi = X.sigma.lo, X.sigma.hi

    # float prescreens at corners and midpoint: a sampled point with a
    # non-positive margin rules the corresponding certificate out for this
    # cell entirely, so the expensive subpaving is skipped (prescreens gate
    # attempts, never certify anything).
    pm, sm = X.mid
    margins = []
    for ps, ss in [(pm, sm), (p_lo, s_lo), (p_lo, s_hi), (p_hi, s_lo), (p_hi, s_hi)]:
        try:
            margins.append(_float_margins(ps, ss))
        except (ArithmeticError, ValueError, IntervalError, NoRootInRange, SingularConstraint):
            margins.append((float("nan"), float("nan")))
    # each side's least sampled margin; a failed (NaN) sample rules out like
    # a non-positive one
    mh, ml = (-1.0 if any(m != m for m in side) else min(side) for side in zip(*margins))

    straddles = s_hi > sigma_p(pm)

    # cost model: a subpaving of [c_lo, c_hi] needs ~area*(c/margin)^2 nodes.
    # Inside the domain the mean-value form keeps an interior attempt cheap
    # (c = 0); a curve-straddling cell falls back to natural extensions along
    # the curve edge (c = 2.5), and the second-derivative columns carry a
    # heavier dependency constant: 30 for the sigma = 1 anchor (tau ~ 0.27
    # fattens every atom), 12 for curve columns where tau is pinned near
    # zero.  An attempt whose estimate exceeds cap * node_budget is skipped
    # (the leaf splits instead; estimates tune cost, never soundness); every
    # job that runs gets node_budget.
    def skip(margin, floor, c, cap, c_lo, c_hi):
        if not margin > floor:
            return f"skipped by prescreen (margin {margin:.3g} <= {floor:g})"
        est = (p_hi - p_lo) * (c_hi - c_lo) * (c / margin) ** 2
        limit = cap * node_budget
        if est > limit:
            return f"skipped by cost model (estimate {est:.3g} > {limit:.0f} nodes)"
        return None

    def interior(side, margin):
        fid = f"delta_minus_edge_{side}"
        skipped = skip(margin, 1e-7, 2.5 if straddles else 0.0, 3.0, s_lo, s_hi)
        if skipped:
            return skipped
        cut = _split_cut(p_lo, p_hi, s_lo, s_hi) if side == "low" and band == "mid" else None
        if cut is None:
            return VERDICT_INTERIOR, [(fid, s_lo, s_hi)]
        # Delta > Delta(p, 1) on (1, cut] by the MonotoneLow argument (a
        # convex column from the stationary edge), on [cut, s_hi] by the
        # difference
        return VERDICT_INTERIOR, [("d_sigma2_column_low", 1.0, cut), (fid, cut, s_hi)]

    def column(verdict, fid, c_lo, c_hi, sigmas, c):
        # least second sigma-derivative over a 3 x 3 grid of the column
        m = min([_float_dds2(pp, ss) for pp in (p_lo, pm, p_hi) for ss in sigmas])
        return skip(m, 1e-8, c, 4.0, c_lo, c_hi) or (verdict, [(fid, c_lo, c_hi)])

    def mono_low():
        sigmas = (1.0 + 1e-9, 1.0 + 0.5 * (s_hi - 1.0), s_hi)
        return column(VERDICT_MONO_LOW, "d_sigma2_column_low", 1.0, s_hi, sigmas, 30.0)

    def mono_high():
        if p_lo <= 2.0:
            # tau^(p-2) atoms degenerate at the curve for p <= 2
            return "skipped, p <= 2"
        top = sigma_top if sigma_top is not None else _sigma_p_range(p_lo, p_hi)[1]
        top = max(top, s_hi)  # high-band cells already cover the curve
        sp = sigma_p(pm)
        sigmas = (s_lo, 0.5 * (s_lo + sp), sp * (1.0 - 1e-9))
        return column(VERDICT_MONO_HIGH, "d_sigma2_column_high", s_lo, top, sigmas, 12.0)

    plans = {
        "interior-high": lambda: interior("high", mh),
        "interior-low": lambda: interior("low", ml),
        "mono-low": mono_low,
        "mono-high": mono_high,
    }
    if band == "high":
        order = ["mono-high", "interior-low", "interior-high"]
    elif band == "low":
        order = (
            ["interior-high", "mono-low", "interior-low"]
            if mh >= ml
            else ["mono-low", "interior-low", "interior-high"]
        )
    else:
        order = (
            ["interior-high", "interior-low", "mono-high"]
            if mh >= ml
            else ["interior-low", "interior-high", "mono-low"]
        )
    ends = []
    for name in order:
        plan = plans[name]()
        if isinstance(plan, str):
            ends.append(f"{name}: {plan}")
            continue
        verdict, parts = plan
        done = yield [(fid, Job(p_lo, p_hi, c_lo, c_hi, node_budget)) for fid, c_lo, c_hi in parts]
        if all(d.hull is not None for d in done):
            elements = [
                EifElement(box=Box(X.p, Interval(c_lo, c_hi)), value=Interval(*d.hull), fid=fid)
                for (fid, c_lo, c_hi), d in zip(parts, done)
            ]
            *split, witness = elements
            return CertStatus(verdict, witness, column=split[0] if split else None)
        how = [f"{d.end} ({d.nodes} nodes)" for d in done]
        if len(parts) > 1:  # a split attempt, column first: name each part's end
            how = [
                f"{part} [{c_lo:.6g}, {c_hi:.6g}] {end}"
                for part, (_, c_lo, c_hi), end in zip(("column", "difference"), parts, how)
            ]
        ends.append(f"{name}: " + ", ".join(how))
    return CertStatus(verdict=VERDICT_UNDECIDED, reason="; ".join(ends))


def _certify_rounds(steps: list) -> list[CertStatus]:
    """Run the _certify_leaf generators of many cells in rounds.

    A round gathers the jobs of the next attempt of every cell still
    undecided (each cell's prescreens and cost-model skips run lazily, in
    its own attempt order, when the cell reaches them) and runs them in one
    batch._subpave call, whichever cell, attempt and fid they come from.
    Subpaving jobs are independent of each other, so every cell gets the
    status it gets alone.
    """
    status: list = [None] * len(steps)
    pending: dict = {}

    def advance(i: int, sent) -> None:
        try:
            pending[i] = steps[i].send(sent)
        except StopIteration as done:
            status[i] = done.value

    for i in range(len(steps)):
        advance(i, None)
    while pending:
        round_ = sorted(pending.items())
        pending.clear()
        ends = iter(_subpave([job for _, jobs in round_ for job in jobs]))
        for i, jobs in round_:
            advance(i, [next(ends) for _ in jobs])
    return status


def _certify_chunk(tasks) -> list[CertStatus]:
    """The status of each (X, band, sigma_top, node_budget) task, all leaves
    certified together in rounds of merged subpavings."""
    return _certify_rounds([_certify_leaf(*t) for t in tasks])


def verify_strip(
    p_range: Interval,
    sigma_policy: str = "full",
    strip: float = 0.02,
    budget: int = 10000,
    workers: int = 1,
    node_budget: int = 24000,
) -> Certificate:
    """Adaptive certification over {p in p_range, 1 <= sigma <= sigma_p(p)}.

    sigma_policy "full" covers the whole domain with boundary bands of width
    `strip`; "interior" covers only [1 + strip, sigma_p - strip].  Leaves are
    certified generation by generation (a work queue; `workers` only shards
    the generation into contiguous chunks, results merge by leaf id, so
    output is worker-count independent), undecided leaves split on their
    widest relative axis until certification or `budget` total leaves.

    Raises BudgetExhausted (carrying the partial certificate) when the budget
    runs out with undecided leaves.
    """
    t0 = time.perf_counter()
    if not (1.0 < p_range.lo < p_range.hi):
        raise DomainError(f"invalid p range {p_range!r}")
    if not strip > 0.0:  # NaN too
        raise DomainError("strip width must be positive")
    if sigma_policy not in ("full", "interior"):
        raise DomainError(f"unknown sigma policy {sigma_policy!r}")
    p_lo, p_hi = p_range.lo, p_range.hi
    s_inf, s_sup = _sigma_p_range(p_lo, p_hi)
    if 1.0 + strip >= s_inf - strip:
        raise DomainError(
            f"strip {strip} leaves no interior band (sigma_p as low as {s_inf})"
        )

    if sigma_policy == "full":
        bands = [
            ("low", 1.0, 1.0 + strip),
            ("mid", 1.0 + strip, s_inf - strip),
            ("high", s_inf - strip, s_sup),
        ]
        region = Box(p_range, Interval(1.0, s_sup))
    else:
        bands = [("mid", 1.0 + strip, s_inf - strip)]
        region = Box(p_range, Interval(1.0 + strip, s_inf - strip))

    p_slices = max(1, min(8, round((p_hi - p_lo) / 0.025)))
    p_cuts = [p_lo + (p_hi - p_lo) * k / p_slices for k in range(p_slices + 1)]
    p_cuts[0], p_cuts[-1] = p_lo, p_hi

    frontier = []  # (id, box, band) per leaf to certify
    for band, a, b in bands:
        for k in range(p_slices):
            box = Box(Interval(p_cuts[k], p_cuts[k + 1]), Interval(a, b))
            frontier.append((f"c{len(frontier)}", box, band))

    leaves: dict[str, LeafRecord] = {}
    n_leaves = len(frontier)
    scale_p = p_hi - p_lo
    scale_s = region.sigma.hi - region.sigma.lo

    # one pool for the run (spawned workers: fork is unsafe once threads
    # exist); each generation is cut into one contiguous chunk per worker,
    # certified there in merged rounds like the serial path
    pool = None
    if workers > 1:
        import multiprocessing  # imported here: ~1.5 MB a serial run need not pay
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    with pool or nullcontext():
        while frontier:
            frontier.sort(key=lambda w: w[0])
            tasks = [(X, band, s_sup, node_budget) for _, X, band in frontier]
            if pool is None or len(tasks) < 2:
                results = _certify_chunk(tasks)
            else:
                size = -(-len(tasks) // workers)
                chunks = [tasks[k : k + size] for k in range(0, len(tasks), size)]
                results = [r for part in pool.map(_certify_chunk, chunks) for r in part]

            next_frontier = []
            for (cid, X, band), status in zip(frontier, results):
                leaves[cid] = LeafRecord(id=cid, box=X, band=band, status=status)
                if status.verdict != VERDICT_UNDECIDED:
                    continue
                if n_leaves + 1 > budget:
                    continue  # cannot split further: stays undecided
                # split: high band keeps covering the curve, so p only there
                on_p = band == "high" or X.p.width / scale_p >= X.sigma.width / scale_s
                iv = X.p if on_p else X.sigma
                mid = iv.mid
                if mid == iv.lo or mid == iv.hi:
                    continue  # cannot split thinner than floats allow
                del leaves[cid]
                n_leaves += 1
                for tag, piece in (("0", Interval(iv.lo, mid)), ("1", Interval(mid, iv.hi))):
                    child = Box(piece, X.sigma) if on_p else Box(X.p, piece)
                    next_frontier.append((cid + tag, child, band))
            frontier = next_frontier

    ordered = [leaves[k] for k in sorted(leaves)]
    totals: dict[str, int] = {}
    for r in ordered:
        totals[r.status.verdict] = totals.get(r.status.verdict, 0) + 1
    complete = totals.get(VERDICT_UNDECIDED, 0) == 0
    cert = Certificate(
        region=region,
        policy={
            "p_lo": p_lo,
            "p_hi": p_hi,
            "sigma_policy": sigma_policy,
            "strip": strip,
            "budget": budget,
            "node_budget": node_budget,
            "initial_p_slices": p_slices,
            "seed": [DEFAULT_SEED.lo, DEFAULT_SEED.hi],
        },
        leaves=ordered,
        totals=totals,
        complete=complete,
        version=_version,
        scheme=SCHEME,
        timing=time.perf_counter() - t0,
    )
    if not complete:
        raise BudgetExhausted(cert)
    return cert


# -- p0 enclosure -------------------------------------------------------------------


def _g_enclosure(p: float) -> Interval:
    """Rigorous enclosure of Delta(p,1) - Delta(p,sigma_p) at a point."""
    P = Interval.point(p)
    return delta_edge_low_enclosure(P) - delta_edge_high_enclosure(P)


def enclose_p0(tolerance: float, bracket: tuple[float, float] = (2.5, 2.65)) -> Interval:
    """Interval bisection for the crossover p0 of the two boundary values.

    Requires sign-definite difference enclosures at the bracket ends; result
    has width <= tolerance and contains the crossover.
    """
    if not tolerance > 0.0:  # NaN too
        raise DomainError("tolerance must be positive")
    lo, hi = bracket
    g_lo = _g_enclosure(lo)
    g_hi = _g_enclosure(hi)
    if g_lo.contains_zero() or g_hi.contains_zero():
        raise NoSignChange(f"bracket enclosures {g_lo!r}, {g_hi!r} not sign-definite")
    if (g_lo.lo > 0.0) == (g_hi.lo > 0.0):
        raise NoSignChange("bracket endpoints have the same verified sign")
    lo_pos = g_lo.lo > 0.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = _g_enclosure(mid)
        if g_mid.contains_zero():
            raise NoSignChange(
                f"indecisive enclosure {g_mid!r} at p = {mid}; tolerance too small"
            )
        if (g_mid.lo > 0.0) == lo_pos:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


# -- certificate documents ------------------------------------------------------------

_FORMAT_VERSION = 3


def _iv(iv: Interval) -> list[str]:
    return [repr(iv.lo), repr(iv.hi)]


def _element(e: EifElement | None) -> dict | None:
    if e is None:
        return None
    return {"fid": e.fid, "value": _iv(e.value), "box_p": _iv(e.box.p),
            "box_sigma": _iv(e.box.sigma)}


def emit_certificate(cert: Certificate, format: str = "structured") -> str:
    """Serialize a certificate.

    structured: complete machine-checkable JSON, format_version 3; bounds
    are shortest round-trip decimal strings (exact, no rounding), so parsing
    reproduces every float bit-for-bit.  A leaf holds its id, band, box (p,
    sigma), verdict, reason, witness and column: the elements (fid, value,
    box_p, box_sigma) of a certified leaf, the column only for a split
    interior-low attempt and null otherwise.  Timing is deliberately
    excluded: documents are byte-identical across runs and worker counts.
    tabular: comma-separated summary (verdict counts, worst margins).
    """
    if format == "structured":
        doc = {
            "format": "critlat-certificate",
            "format_version": _FORMAT_VERSION,
            "toolkit_version": cert.version,
            "scheme": cert.scheme,
            "bounds_encoding": "decimal strings, exact shortest round-trip (no rounding)",
            "claims": "Delta(p,sigma) > min(Delta(p,1), Delta(p,sigma_p)) on certified "
            "leaves, restricted to 1 < sigma < sigma_p(p)",
            "region": {"p": _iv(cert.region.p), "sigma": _iv(cert.region.sigma)},
            "policy": cert.policy,
            "totals": cert.totals,
            "complete": cert.complete,
            "leaves": [
                {
                    "id": r.id,
                    "band": r.band,
                    "p": _iv(r.box.p),
                    "sigma": _iv(r.box.sigma),
                    "verdict": r.status.verdict,
                    "reason": r.status.reason,
                    "witness": _element(r.status.witness),
                    "column": _element(r.status.column),
                }
                for r in cert.leaves
            ],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if format == "tabular":
        lines = ["metric,value"]
        lines.append(f"leaves,{len(cert.leaves)}")
        for k in sorted(cert.totals):
            lines.append(f"count_{k},{cert.totals[k]}")
        lines.append(f"complete,{int(cert.complete)}")
        margins = [
            r.status.witness.value.lo
            for r in cert.leaves
            if r.status.witness is not None
        ]
        if margins:
            lines.append(f"worst_witness_margin,{min(margins)!r}")
        lines.append(f"scheme,{cert.scheme}")
        lines.append(f"toolkit_version,{cert.version}")
        lines.append(f"timing_seconds,{cert.timing:.3f}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown certificate format {format!r}")


def parse_certificate(text: str) -> dict:
    doc = json.loads(text)
    if doc.get("format") != "critlat-certificate":
        raise ValueError("not a certificate document")
    return doc


def replay_leaf(leaf: dict, node_budget: int = 24000) -> str:
    """Rerun the certification search on one parsed leaf's recorded box;
    returns the fresh verdict.  This repeats the search, it checks nothing
    independently."""
    X = Box(
        Interval(float(leaf["p"][0]), float(leaf["p"][1])),
        Interval(float(leaf["sigma"][0]), float(leaf["sigma"][1])),
    )
    return certify_box(X, band=leaf["band"], node_budget=node_budget).verdict
