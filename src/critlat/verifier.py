"""Certification engine for the critical-determinant inequality.

Certifies Delta(p, sigma) > min(Delta(p, 1), Delta(p, sigma_p)) on strips of
the parameter domain by adaptive covering.  Three certificate kinds per leaf:

  CertifiedInterior      Delta exceeds one boundary value outright: the
                         correlated difference Delta - boundary(p) is
                         subpaved (natural + mean-value forms).
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
carries the monotone certificates instead.  All claims are restricted to the
parameter domain 1 < sigma < sigma_p(p); evaluation boxes may straddle the
curved upper boundary, where enclosures remain valid for in-domain points by
inclusion isotonicity.

A witness's value is the hull of its subpaving's per-sub-box enclosures.  A
Monotone witness (fid d_sigma2_column_low or d_sigma2_column_high) takes on
each sub-box the tighter bound of two forms of d2Delta/dsigma2: the natural
extension and, on sub-boxes inside the domain, the midpoint mean-value form
with the third derivatives of Delta as slopes (batch.subpave_convex_positive);
a checker of the column evaluates the same pair.

A leaf is a Box plus its id, the bisection path from its initial cell (the
parent id plus "0" or "1").  Every certificate comes from a subpaving job:
each generation of leaves is certified in rounds (_certify_rounds).  A leaf's
attempts are a generator (_certify_steps) that runs its prescreens and cost
models lazily and yields one subpaving job per attempt that gets past them.
Round r gathers the next job of every leaf still undecided and runs all jobs
of one kind (convex column, delta above sigma_p/2, delta above Delta(p, 1))
as one merged subpaving in batch.py, whose jobs end as they would alone; so
each leaf gets the status, and the certificate the bytes, of certifying it
on its own.  certify_box is the one-leaf case.  With several workers one
process pool serves the run, and each worker certifies one contiguous chunk
of the generation (sorted by leaf id) the same way.  A leaf record also
carries the boundary bounds over its p-range, its tau enclosure and the
precheck; no verdict reads them.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import __version__ as _version
from .batch import (
    Job,
    subpave_convex_positive,
    subpave_delta_above,
)
from .enclosure import (
    DEFAULT_SEED,
    EifElement,
    EmptyEnclosure,
    SingularConstraint,
    delta_edge_high_enclosure,
    delta_edge_low_enclosure,
    precheck_clamped,
    sigma_p_enclosure,
    tau_interval,
)
from .interval import Box, DomainError, Interval
from .jets import delta_sigma_derivs
from .moduli import delta_edge_low, delta_point, sigma_p, tau_point

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

SCHEME = "convex-column-1"

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


@dataclass(frozen=True)
class LeafRecord:
    id: str  # bisection path: the parent id plus "0" or "1"
    box: Box
    band: str  # "low" | "mid" | "high"
    status: CertStatus
    bound_low: Interval  # enclosure of Delta(p, 1) over the leaf p-range
    bound_high: Interval  # enclosure of Delta(p, sigma_p) over the leaf p-range
    tau: Interval | None = None
    precheck: bool | None = None


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


def _sigma_p_inf(p_lo: float, p_hi: float, m: int = 16) -> float:
    """Verified lower bound for sigma_p over [p_lo, p_hi] (sliced, so no
    monotonicity assumption)."""
    cuts = np.linspace(p_lo, p_hi, m + 1)
    return min(
        sigma_p_enclosure(Interval(float(cuts[i]), float(cuts[i + 1]))).lo
        for i in range(m)
    )


def _sigma_p_sup(p_lo: float, p_hi: float, m: int = 16) -> float:
    cuts = np.linspace(p_lo, p_hi, m + 1)
    return max(
        sigma_p_enclosure(Interval(float(cuts[i]), float(cuts[i + 1]))).hi
        for i in range(m)
    )


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
    except Exception:
        return float("nan")


_ENCLOSURE_ERRORS = (DomainError, SingularConstraint, EmptyEnclosure)


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
    return _certify_rounds([_certify_steps(X, band, sigma_top, node_budget)])[0]


def _certify_steps(X, band, sigma_top, node_budget):
    """certify_box for one cell as a generator: it yields (kind, batch.Job)
    for each attempt that needs a subpaving, with kind "convex" (a column
    for subpave_convex_positive) or the side "high"/"low" of
    subpave_delta_above, is sent the job's batch.Subpaving, and returns the
    CertStatus.  An Undecided status's reason lists how each attempt ended,
    in order, the last one last.
    """
    p_lo, p_hi = X.p.lo, X.p.hi
    s_lo, s_hi = X.sigma.lo, X.sigma.hi

    # float prescreens at corners and midpoint: a sampled point with a
    # non-positive margin rules the corresponding certificate out for this
    # cell entirely, so the expensive subpaving is skipped (prescreens gate
    # attempts, never certify anything).
    pm, sm = X.mid
    samples = [(pm, sm), (p_lo, s_lo), (p_lo, s_hi), (p_hi, s_lo), (p_hi, s_hi)]
    mh_list, ml_list = [], []
    for ps, ss in samples:
        try:
            a, b = _float_margins(ps, ss)
        except Exception:
            a, b = float("nan"), float("nan")
        mh_list.append(a)
        ml_list.append(b)
    mh = min(mh_list)
    ml = min(ml_list)
    mh, ml = (mh if mh == mh else -1.0), (ml if ml == ml else -1.0)
    mh_mean = sum(mh_list) / len(mh_list) if mh == mh else -1.0
    ml_mean = sum(ml_list) / len(ml_list) if ml == ml else -1.0

    straddles = s_hi > sigma_p(pm)

    # cost models: subpaving with the mean-value form needs ~area*C/margin
    # nodes inside the domain; curve-straddling regions fall back to natural
    # extensions, ~area*(C/margin)^2, and the second-derivative columns carry
    # a heavier dependency constant.  Attempts whose estimate dwarfs the node
    # budget are skipped and attempts get cost-proportional budgets (the leaf
    # splits instead; estimates tune cost, never soundness).  An attempt
    # returns (kind, job, witness builder) or why it was skipped.
    def _interior_est(margin_min: float, margin_mean: float, area: float) -> float:
        # straddling cells pay the quadratic natural-extension price along the
        # whole curve edge, where the minimum margin binds; in-domain cells
        # pay the mean-value price, which tracks the average margin
        if margin_mean <= 1e-13 or margin_min <= 1e-13:
            return float("inf")
        if straddles:
            return area * (2.5 / margin_min) ** 2
        return area * 24.0 / margin_mean

    def _attempt_nodes(est: float) -> int:
        return int(min(3.0 * node_budget, max(float(node_budget), 6.0 * est)))

    area = (p_hi - p_lo) * (s_hi - s_lo)

    def _skip(margin: float, floor: float, est: float, cap: float) -> str | None:
        if not margin > floor:
            return f"skipped by prescreen (margin {margin:.3g} <= {floor:g})"
        if est > cap:
            return f"skipped by cost model (estimate {est:.3g} > {cap:.0f} nodes)"
        return None

    def interior(side: str, margin: float, margin_mean: float):
        est = _interior_est(margin, margin_mean, area)
        skip = _skip(margin, 1e-7, est, 3.0 * node_budget)
        if skip:
            return skip
        job = Job(p_lo, p_hi, s_lo, s_hi, _attempt_nodes(est))
        fid = f"delta_minus_edge_{side}"
        return side, job, lambda w: CertStatus(
            verdict=VERDICT_INTERIOR,
            witness=EifElement(box=X, value=Interval(*w), fid=fid),
        )

    def try_interior_high():
        return interior("high", mh, mh_mean)

    def try_interior_low():
        return interior("low", ml, ml_mean)

    def _column_est(margin: float, col_area: float, dep: float) -> float:
        # dep ~ 30 for the sigma=1 anchor (tau ~ 0.27 fattens every atom),
        # ~ 12 for curve columns where tau is pinned near zero
        if margin <= 1e-13:
            return float("inf")
        return col_area * (dep / margin) ** 2

    def _column_nodes(est: float) -> int:
        return int(min(6.0 * node_budget, max(float(node_budget), 4.0 * est)))

    def column(verdict: str, fid: str, c_lo: float, c_hi: float, probes, dep):
        m = min(probes) if probes else 0.0
        est = _column_est(m, (p_hi - p_lo) * (c_hi - c_lo), dep)
        skip = _skip(m, 1e-8, est, 4.0 * node_budget)
        if skip:
            return skip
        job = Job(p_lo, p_hi, c_lo, c_hi, _column_nodes(est))
        col = Box(X.p, Interval(c_lo, c_hi))
        return "convex", job, lambda w: CertStatus(
            verdict=verdict,
            witness=EifElement(box=col, value=Interval(*w), fid=fid),
        )

    def try_mono_low():
        probes = [
            _float_dds2(pp, ss)
            for pp in (p_lo, pm, p_hi)
            for ss in (1.0 + 1e-9, 1.0 + 0.5 * (s_hi - 1.0), s_hi)
        ]
        return column(VERDICT_MONO_LOW, "d_sigma2_column_low", 1.0, s_hi, probes, 30.0)

    def try_mono_high():
        top = sigma_top if sigma_top is not None else _sigma_p_sup(p_lo, p_hi)
        if s_hi >= top:
            top = s_hi  # high-band cells already cover the curve
        if p_lo <= 2.0:
            # tau^(p-2) atoms degenerate at the curve for p <= 2
            return "skipped, p <= 2"
        probes = [
            _float_dds2(pp, ss)
            for pp in (p_lo, pm, p_hi)
            for ss in (s_lo, 0.5 * (s_lo + sigma_p(pm)), sigma_p(pm) * (1.0 - 1e-9))
        ]
        return column(VERDICT_MONO_HIGH, "d_sigma2_column_high", s_lo, top, probes, 12.0)

    if band == "high":
        attempts = [try_mono_high, try_interior_low, try_interior_high]
    elif band == "low":
        attempts = (
            [try_interior_high, try_mono_low, try_interior_low]
            if mh >= ml
            else [try_mono_low, try_interior_low, try_interior_high]
        )
    else:
        attempts = (
            [try_interior_high, try_interior_low, try_mono_high]
            if mh >= ml
            else [try_interior_low, try_interior_high, try_mono_low]
        )
    ends = []
    for attempt in attempts:
        name = attempt.__name__[4:].replace("_", "-")
        try:
            plan = attempt()
        except _ENCLOSURE_ERRORS as e:
            ends.append(f"{name}: {type(e).__name__}")
            continue
        if isinstance(plan, str):
            ends.append(f"{name}: {plan}")
            continue
        kind, job, witness = plan
        done = yield kind, job
        if done.hull is not None:
            return witness(done.hull)
        ends.append(f"{name}: {done.end} ({done.nodes} nodes)")
    return CertStatus(verdict=VERDICT_UNDECIDED, reason="; ".join(ends))


def _certify_rounds(steps: list) -> list[CertStatus]:
    """Run the _certify_steps generators of many cells in rounds.

    A round gathers the next subpaving job of every cell still undecided
    (each cell's prescreens and cost-model skips run lazily, in its own
    attempt order, when the cell reaches them) and runs all jobs of one kind
    as one merged subpaving.  Subpaving jobs are independent of each other
    (batch._subpave), so every cell gets the status it gets alone.
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
        round_, done = sorted(pending.items()), {}
        pending.clear()
        for kind in ("convex", "high", "low"):
            cells = [i for i, (k, _) in round_ if k == kind]
            if not cells:
                continue
            jobs = [job for i, (k, job) in round_ if k == kind]
            if kind == "convex":
                ends = subpave_convex_positive(jobs)
            else:
                ends = subpave_delta_above(jobs, kind)
            done.update(zip(cells, ends))
        for i, _ in round_:
            advance(i, done[i])
    return status


def _leaf_bounds(p_lo: float, p_hi: float) -> tuple[Interval, Interval]:
    P = Interval(p_lo, p_hi)
    return delta_edge_low_enclosure(P), delta_edge_high_enclosure(P)


def _certify_leaf(args, bounds):
    """A leaf's record fields (bounds, tau, precheck) and its _certify_steps,
    not yet started; `bounds` is _leaf_bounds of the leaf's p-interval."""
    X, band, sigma_top, node_budget = args
    try:
        enc = tau_interval(X)
        tau_iv, pre = enc.tau, enc.precheck
    except _ENCLOSURE_ERRORS:
        tau_iv, pre = None, precheck_clamped(X)
    return (*bounds, tau_iv, pre), _certify_steps(X, band, sigma_top, node_budget)


def _certify_chunk(tasks) -> list[tuple]:
    """(status, bound_low, bound_high, tau, precheck) per task, all leaves
    certified together in rounds of merged subpavings.  The bounds depend on
    the p-interval alone, so each distinct one is enclosed once."""
    bounds = {}
    for X, *_ in tasks:
        key = (X.p.lo, X.p.hi)
        if key not in bounds:
            bounds[key] = _leaf_bounds(*key)
    leaves = [_certify_leaf(t, bounds[t[0].p.lo, t[0].p.hi]) for t in tasks]
    statuses = _certify_rounds([steps for _, steps in leaves])
    return [(st, *rec) for (rec, _), st in zip(leaves, statuses)]


def verify_strip(
    p_range: Interval,
    sigma_policy: str = "full",
    strip: float = 0.02,
    budget: int = 10000,
    workers: int = 1,
    node_budget: int = 24000,
    initial_p_slices: int | None = None,
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
    if strip <= 0.0:
        raise DomainError("strip width must be positive")
    if sigma_policy not in ("full", "interior"):
        raise DomainError(f"unknown sigma policy {sigma_policy!r}")
    p_lo, p_hi = p_range.lo, p_range.hi
    s_inf = _sigma_p_inf(p_lo, p_hi)
    s_sup = _sigma_p_sup(p_lo, p_hi)
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

    if initial_p_slices is None:
        initial_p_slices = max(1, min(8, round((p_hi - p_lo) / 0.025)))
    p_cuts = [p_lo + (p_hi - p_lo) * k / initial_p_slices for k in range(initial_p_slices + 1)]
    p_cuts[0], p_cuts[-1] = p_lo, p_hi

    frontier = []  # (id, box, band) per leaf to certify
    for band, a, b in bands:
        for k in range(initial_p_slices):
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
            for (cid, X, band), (status, bl, bh, tau_iv, pre) in zip(frontier, results):
                leaves[cid] = LeafRecord(
                    id=cid, box=X, band=band, status=status,
                    bound_low=bl, bound_high=bh, tau=tau_iv, precheck=pre,
                )
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
            "initial_p_slices": initial_p_slices,
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
    if tolerance <= 0.0:
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

_FORMAT_VERSION = 1


def _iv(iv: Interval | None):
    if iv is None:
        return None
    return [repr(iv.lo), repr(iv.hi)]


def emit_certificate(cert: Certificate, format: str = "structured") -> str:
    """Serialize a certificate.

    structured: complete machine-checkable JSON; bounds are shortest
    round-trip decimal strings (exact, no rounding), so parsing reproduces
    every float bit-for-bit.  Timing is deliberately excluded: documents are
    byte-identical across runs and worker counts.
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
                    "witness": None
                    if r.status.witness is None
                    else {
                        "fid": r.status.witness.fid,
                        "value": _iv(r.status.witness.value),
                        "box_p": _iv(r.status.witness.box.p),
                        "box_sigma": _iv(r.status.witness.box.sigma),
                    },
                    "bound_low": _iv(r.bound_low),
                    "bound_high": _iv(r.bound_high),
                    "tau": _iv(r.tau),
                    "precheck": r.precheck,
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
