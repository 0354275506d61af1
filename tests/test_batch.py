"""The VI-lane subpaving: each slice evaluates the boundary functions, the
tau_p search included, once per distinct p-interval of its lanes, and ends
bit for bit as evaluating every lane afresh; the tau fixed point stops each
lane at its exact fixed point; merged jobs, of one fid or of several, end
bit for bit as they would alone."""

from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest

from critlat import batch as B
from critlat import moduli as M
from critlat.jets import TAU_SEED, TAU_STEPS, delta_gradient, delta_scalar, delta_sigma_derivs
from critlat.vints import VI


def _own_keys(P, *points):
    # the reference: every lane its own key, so every lane is evaluated afresh
    keys = B._keys(np.concatenate([P.lo, *points]), np.concatenate([P.hi, *points]))
    return keys, np.arange(keys.size)


def _chunk_counter(monkeypatch):
    """Counts the slices that _in_chunks hands the slice evaluator."""
    chunks = [0]
    evaluate = B._evaluate

    def count(boxes, kinds):
        chunks[0] += 1
        return evaluate(boxes, kinds)

    monkeypatch.setattr(B, "_evaluate", count)
    return chunks


@pytest.mark.parametrize(
    "box, max_nodes",
    [
        ((2.6, 2.625, 1.0, 1.02), 3000),  # budget hit: None
        ((2.6, 2.625, 1.02, 1.1), 40000),  # certified: a witness pair
    ],
)
def test_low_side_bisects_each_p_interval_once(monkeypatch, box, max_nodes):
    with monkeypatch.context() as m:
        m.setattr(B, "_p_keys", _own_keys)
        expected = B.subpave_delta_above([B.Job(*box, max_nodes)], "low")

    tau_p_keys, calls = [], {"edge_low": 0, "d_edge_low": 0}
    tau_p, edge_low, d_edge_low = B.tau_p_enclose_batch, B.edge_low_batch, B.d_edge_low_batch

    def spy_tau_p(P):
        tau_p_keys.append(list(zip(P.lo.tolist(), P.hi.tolist())))
        return tau_p(P)

    def spy_edge_low(P, tp):
        calls["edge_low"] += 1
        return edge_low(P, tp)

    def spy_d_edge_low(P, tp):
        calls["d_edge_low"] += 1
        return d_edge_low(P, tp)

    monkeypatch.setattr(B, "tau_p_enclose_batch", spy_tau_p)
    monkeypatch.setattr(B, "edge_low_batch", spy_edge_low)
    monkeypatch.setattr(B, "d_edge_low_batch", spy_d_edge_low)
    chunks = _chunk_counter(monkeypatch)
    got = B.subpave_delta_above([B.Job(*box, max_nodes)], "low")

    assert got == expected
    assert all(len(keys) == len(set(keys)) for keys in tau_p_keys)
    # box lanes and centers in one call of each per slice
    assert chunks[0] > 1
    assert len(tau_p_keys) == calls["edge_low"] == calls["d_edge_low"] == chunks[0]


@pytest.fixture
def phi_lanes(monkeypatch):
    """Counts the lane-iterations of the VI-lane fixed point."""
    count = [0]
    phi = B.phi_scalar

    def counted(*a):
        count[0] += a[-1].lo.size
        return phi(*a)

    monkeypatch.setattr(B, "phi_scalar", counted)
    return count


def _tau_boxes(seed):
    """(P, S) lanes whose fixed points stop at different iterations: points,
    thin and wide boxes, some beyond the curve and some out of the domain."""
    rng = np.random.default_rng(seed)
    n = 400
    p = rng.uniform(1.5, 3.5, n)
    s = 1.0 + rng.uniform(0.0, 1.05, n) * ((2.0**p - 1.0) ** (1.0 / p) - 1.0)
    w = np.array([0.0, 1e-9, 1e-4, 0.02, 0.5])[np.arange(n) % 5]
    s = np.where(w == 0.5, s - 1.0, s)  # wide boxes reaching below sigma = 1 poison
    return VI(p, p + w), VI(s, s + w)


def _plain_tau(P, S, iters):
    """The fixed point without any stopping rule: `iters` intersected steps."""
    T = VI.full_like(P, *TAU_SEED)
    vacuous = np.zeros(P.lo.size, dtype=bool)
    with np.errstate(all="ignore"):  # as tau_enclose_batch runs it
        inv_p, a0, sa0 = B.phi_consts(P, S)
        for _ in range(iters):
            T, empty = B.phi_scalar(P, inv_p, a0, sa0, T).intersect(T)
            vacuous |= empty
    return T, vacuous


def _bits(*arrays):
    # NaN lanes compare as NaN, whatever their payload
    return tuple(
        np.where(np.isnan(a), np.nan, a).tobytes() if a.dtype.kind == "f" else a.tobytes()
        for a in map(np.asarray, arrays)
    )


@pytest.mark.parametrize("iters", [3, 48, 64])
def test_tau_equals_plain_iteration(iters):
    P, S = _tau_boxes(22)
    T, vac = B.tau_enclose_batch(P, S, iters=iters)
    T0, vac0 = _plain_tau(P, S, iters)
    assert _bits(T.lo, T.hi, vac) == _bits(T0.lo, T0.hi, vac0)
    if iters >= 48:  # the data covers vacuous, poisoned and finite lanes
        assert vac.any() and (T.invalid() & ~vac).any() and (~T.invalid()).any()


def test_tau_lanes_stop_early(phi_lanes):
    P, S = _tau_boxes(23)
    iters = 48
    B.tau_enclose_batch(P, S, iters=iters)
    assert phi_lanes[0] < iters * P.lo.size


# per kind (a column fid, and the difference fid of each side): a job that
# certifies, one over its node budget, one that splits down to the width
# floor and one wholly beyond the curve (vacuous)
_MIXED_JOBS = {
    "convex": [
        B.Job(2.7, 2.72, 1.0, 1.2, 30000),
        B.Job(2.7, 2.72, 1.0, 1.2, 50),
        B.Job(2.0 - 1.5e-6, 2.0 + 1.5e-6, 1.2, 1.2 + 3e-6, 30000),
        B.Job(2.0, 2.001, 1.9, 1.95, 1000),
    ],
    "high": [
        B.Job(2.31, 2.33, 1.1, 1.3, 30000),
        B.Job(2.6, 2.625, 1.0, 1.02, 3000),
        B.Job(2.6, 2.6 + 3e-7, 1.0, 1.0 + 3e-7, 30000),
        B.Job(2.0, 2.001, 1.9, 1.95, 1000),
    ],
    "low": [
        B.Job(2.6, 2.625, 1.02, 1.1, 40000),
        B.Job(2.6, 2.625, 1.0, 1.02, 3000),
        B.Job(2.6, 2.6 + 3e-7, 1.0, 1.0 + 3e-7, 30000),
        B.Job(2.0, 2.001, 1.9, 1.95, 1000),
    ],
}


_FIDS = {"convex": "d_sigma2_column_low", "high": "delta_minus_edge_high",
         "low": "delta_minus_edge_low"}


def _subpave(kind, jobs):
    if kind == "convex":
        return B.subpave_convex_positive(jobs)
    return B.subpave_delta_above(jobs, kind)


@pytest.mark.parametrize("kind", sorted(_MIXED_JOBS))
def test_merged_jobs_end_as_if_alone(kind, phi_lanes, monkeypatch):
    jobs = _MIXED_JOBS[kind]
    alone = [_subpave(kind, [job])[0] for job in jobs]
    assert [a.end for a in alone] == [B.CERTIFIED, B.BUDGET_HIT, B.FLOOR_HIT, B.VACUOUS]
    alone_lanes, phi_lanes[0] = phi_lanes[0], 0
    assert _subpave(kind, jobs) == alone
    assert phi_lanes[0] == alone_lanes  # merging adds no fixed-point work
    assert _subpave(kind, jobs[::-1]) == alone[::-1]
    # waves evaluated in many runs of whole jobs end the same
    monkeypatch.setattr(B, "MAX_LANES", 100)
    monkeypatch.setattr(B, "COLUMN_LANES", 100)
    assert _subpave(kind, jobs) == alone


@pytest.mark.parametrize("kind", sorted(_MIXED_JOBS))
def test_job_split_across_chunks_ends_as_if_alone(kind, monkeypatch):
    waves = []
    in_chunks = B._in_chunks

    def spy(boxes, kinds):
        waves.append(len(boxes))
        return in_chunks(boxes, kinds)

    monkeypatch.setattr(B, "_in_chunks", spy)
    jobs = _MIXED_JOBS[kind]
    alone = [_subpave(kind, [job])[0] for job in jobs]
    # some job alone has a wave wider than the cap, so a slice boundary falls
    # inside its run of lanes in the merged wave
    assert max(waves) > 37
    monkeypatch.setattr(B, "MAX_LANES", 37)
    monkeypatch.setattr(B, "COLUMN_LANES", 37)
    assert _subpave(kind, jobs) == alone


def test_mixed_fids_end_as_if_alone_within_the_weighted_cap(monkeypatch):
    # jobs of every fid in one merged subpaving, both column fids sharing a
    # form: each job ends as alone; no slice holds more than its column lanes
    # times MAX_LANES/COLUMN_LANES plus its difference lanes allow, and a
    # wave cuts a run of one kind's lanes only where it fills a slice alone
    jobs = [(_FIDS[kind], job) for kind in sorted(_MIXED_JOBS) for job in _MIXED_JOBS[kind]]
    jobs += [("d_sigma2_column_high", job) for job in _MIXED_JOBS["convex"]]
    alone = [B._subpave([job])[0] for job in jobs]
    monkeypatch.setattr(B, "MAX_LANES", 1600)
    monkeypatch.setattr(B, "COLUMN_LANES", 400)
    column = B._ROWS.index(B.FORMS["d_sigma2_column_high"])
    waves = []  # per wave, the kinds of each slice
    evaluate, in_chunks = B._evaluate, B._in_chunks

    def wave(boxes, kinds):
        waves.append([])
        return in_chunks(boxes, kinds)

    def spy(boxes, kinds):
        waves[-1].append(kinds.copy())
        return evaluate(boxes, kinds)

    monkeypatch.setattr(B, "_in_chunks", wave)
    monkeypatch.setattr(B, "_evaluate", spy)
    assert B._subpave(jobs) == alone
    weights = [4 * np.count_nonzero(k == column) + np.count_nonzero(k != column)
               for slices in waves for k in slices]
    assert max(weights) <= 1600 and max(weights) > 1596  # a slice filled to the cap
    assert any(len(set(k.tolist())) > 1 for slices in waves for k in slices)
    for slices in waves:
        for k, k_next in zip(slices, slices[1:]):
            assert k[-1] != k_next[0] or (k == k[0]).all()
    assert B._subpave(jobs[::-1]) == alone[::-1]


@pytest.mark.parametrize("kind", sorted(_MIXED_JOBS))
def test_warm_tau_seeds_change_no_bits(kind, phi_lanes, monkeypatch):
    # Children start from their parent box's tau enclosure and centers from
    # their own box's: each call ends bit for bit as from TAU_SEED, so the
    # jobs end the same, with fewer fixed-point lane-iterations.
    tau = B.tau_enclose_batch
    calls = []

    def spy(P, S, iters=TAU_STEPS, seed=None):
        out = tau(P, S, iters, seed)
        calls.append((P, S, seed.copy(), out))  # a box's seed columns get its T
        return out

    monkeypatch.setattr(B, "tau_enclose_batch", spy)
    jobs = _MIXED_JOBS[kind]
    warm = _subpave(kind, jobs)
    warm_lanes, phi_lanes[0] = phi_lanes[0], 0

    def cold(P, S, iters=TAU_STEPS, seed=None):
        return tau(P, S, iters)

    monkeypatch.setattr(B, "tau_enclose_batch", cold)
    assert _subpave(kind, jobs) == warm
    assert warm_lanes < phi_lanes[0]

    seeded = {"box": 0, "center": 0}
    for P, S, seed, (T, vac) in calls:
        warmed = ~(seed.invalid() | ((seed.lo == TAU_SEED[0]) & (seed.hi == TAU_SEED[1])))
        points = (P.lo == P.hi) & (S.lo == S.hi)
        seeded["center"] += np.count_nonzero(warmed & points)
        seeded["box"] += np.count_nonzero(warmed & ~points)
        T0, vac0 = tau(P, S)
        assert _bits(T.lo, T.hi, vac) == _bits(T0.lo, T0.hi, vac0)
    assert seeded["box"] > 0 and (seeded["center"] > 0 or kind == "convex")


def test_chunks_search_each_p_interval_once_per_call(monkeypatch):
    # waves split into slices of 37 lanes: each slice searches the distinct
    # p-intervals of its own lanes, none twice within one call, and the job
    # ends as in whole waves
    tau_p = B.tau_p_enclose_batch
    searched = []

    def spy(P):
        searched.append(list(zip(P.lo.tolist(), P.hi.tolist())))
        return tau_p(P)

    job = [B.Job(2.6, 2.625, 1.01, 1.1, 40000)]
    expected = B.subpave_delta_above(job, "low")
    monkeypatch.setattr(B, "MAX_LANES", 37)
    monkeypatch.setattr(B, "tau_p_enclose_batch", spy)
    chunks = _chunk_counter(monkeypatch)
    assert B.subpave_delta_above(job, "low") == expected
    assert chunks[0] > 2 * 17  # many waves span several slices
    assert len(searched) == chunks[0]
    assert all(len(keys) == len(set(keys)) for keys in searched)


@pytest.mark.parametrize("kind", sorted(_MIXED_JOBS))
def test_speculative_levels_change_no_end(kind, monkeypatch):
    # each job evaluates its next split levels in the same wave and replays
    # them one by one: hull, end and nodes are those of a run without them
    jobs = _MIXED_JOBS[kind]
    speculative = _subpave(kind, jobs)
    assert [s.end for s in speculative] == [B.CERTIFIED, B.BUDGET_HIT, B.FLOOR_HIT, B.VACUOUS]
    monkeypatch.setattr(B, "SPECULATE_LANES", 0)
    assert _subpave(kind, jobs) == speculative


@pytest.mark.parametrize("kind", sorted(_MIXED_JOBS))
def test_budget_hit_counts_only_evaluated_nodes(kind):
    # a job that stops at its node budget reports the boxes before the wave
    # or level that would exceed it, never more than its budget
    jobs = _MIXED_JOBS[kind]
    hits = [(s, job) for s, job in zip(_subpave(kind, jobs), jobs) if s.end == B.BUDGET_HIT]
    assert hits
    for s, job in hits:
        assert 0 < s.nodes <= job.max_nodes


@pytest.mark.parametrize("kind", sorted(_MIXED_JOBS))
def test_speculation_stays_within_the_node_budget(kind, monkeypatch):
    # the boxes a job evaluates at each depth, from a run without speculation,
    # give its node count when a wave starts there; the speculative levels of
    # that wave fit in what is left of the job's budget
    speculate = B._speculate
    calls = []

    def spy(boxes, scale, room):
        levels = speculate(boxes, scale, room)
        calls.append((boxes[:, :4].copy(), room, [len(level) for level in levels]))
        return levels

    monkeypatch.setattr(B, "_speculate", spy)
    speculated = 0
    for job in _MIXED_JOBS[kind]:
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(B, "SPECULATE_LANES", 0)
            _subpave(kind, [job])
        depths = [boxes for boxes, _, _ in calls]
        counted = np.cumsum([len(boxes) for boxes in depths])
        calls.clear()
        _subpave(kind, [job])
        for boxes, room, sizes in calls:
            d = next(i for i, b in enumerate(depths) if np.array_equal(b, boxes))
            assert room == job.max_nodes - counted[d]
            assert sum(sizes[1:]) <= room
            assert sum(sizes) <= max(B.SPECULATE_LANES, sizes[0])
            speculated += len(sizes) > 1
    assert speculated > 0


def _evaluate(kind, boxes):
    """(vacuous, lo, hi) of one wave's slice of boxes, all of `kind`."""
    return B._evaluate(boxes, np.full(len(boxes), B._ROWS.index(B.FORMS[_FIDS[kind]])))


def _straddling_boxes(seed, n=400):
    """n boxes across the curve sigma = sigma_p(p), in _subpave's rows with
    cold tau seeds: p lo in [2.02, 3.5], widths 1e-4 to 1e-2, and the curve's
    sigma at p lo inside the sigma-range, so that S.hi > sigma_p(P) > S.lo."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(2.02, 3.5, n)
    wp, ws = 10.0 ** rng.uniform(-4.0, -2.0, (2, n))
    s = (2.0**p - 1.0) ** (1.0 / p) - rng.uniform(0.05, 0.95, n) * ws
    return np.column_stack([p, p + wp, s, s + ws, np.full((n, 2), TAU_SEED)])


def _in_domain_samples(boxes, seed, k=24):
    """Per box up to k float points (p, sigma, box index) with sigma below
    sigma_p(p) by a relative 1e-12: uniform ones and ones next to the curve,
    where tau^(p-2) changes fastest."""
    rng = np.random.default_rng(seed)
    i = np.repeat(np.arange(len(boxes)), k)
    p = rng.uniform(boxes[i, 0], boxes[i, 1])
    curve = (2.0**p - 1.0) ** (1.0 / p) * (1.0 - 1e-12)
    s = np.where(np.arange(i.size) % 3 == 0, curve, rng.uniform(boxes[i, 2], boxes[i, 3]))
    keep = (boxes[i, 2] <= s) & (s <= np.minimum(curve, boxes[i, 3]))
    return p[keep], s[keep], i[keep]


def test_straddling_boxes_get_centers_in_the_domain():
    # a box across the curve is centered at p = P.hi and sigma at most the VI
    # lower bound of sigma_p(P.hi): inside both the box and the domain
    boxes = _straddling_boxes(61)
    P = VI(boxes[:, 0], boxes[:, 1])
    inside = boxes[:, 3] <= B.sigma_p_batch(P).lo
    curve = B.sigma_p_batch(VI(boxes[:, 1], boxes[:, 1])).lo
    idx, pc, sc = B._centers(boxes, inside, curve)
    assert not inside.any() and idx.size > 0.9 * len(boxes)
    assert np.array_equal(pc, boxes[idx, 1])
    assert np.all((boxes[idx, 2] <= sc) & (sc <= boxes[idx, 3]))
    for p, s in zip(pc.tolist(), sc.tolist()):
        assert M.sigma_p_hp(p) >= Decimal(s)


@pytest.mark.parametrize("kind", ["convex", "high", "low"])
def test_straddle_forms_contain_the_surface(kind):
    # every in-domain point's float value lies in its box's enclosure, the
    # natural one narrowed by the mean-value form centered in the domain
    boxes = _straddling_boxes(62)
    P, S = VI(boxes[:, 0], boxes[:, 1]), VI(boxes[:, 2], boxes[:, 3])
    with np.errstate(all="ignore"):
        T, _ = B.tau_enclose_batch(P, S)
        if kind == "convex":
            natural = delta_sigma_derivs(P, S, T)[1]
        else:
            natural = delta_scalar(P, S, T)
    vac, lo, hi = _evaluate(kind, boxes.copy())
    p, s, i = _in_domain_samples(boxes, 63)
    t = M.tau_point_vec(p, s)
    if kind == "convex":
        v = delta_sigma_derivs(p, s, t)[1]
        narrowed = (lo > natural.lo) | (hi < natural.hi)
    else:
        tp = M.tau_p_vec(p)
        edge = (2.0**p - 1.0) ** (1.0 / p) / 2 if kind == "high" else 4.0 ** (-1.0 / p) * (1.0 + tp) / (1.0 - tp)
        v = delta_scalar(p, s, t) - edge
        narrowed = hi - lo < natural.hi - natural.lo
    assert p.size > 4000 and not vac[i].any()
    tol = 1e-13 * np.maximum(1.0, np.abs(v))  # the float values' rounding
    outside = (v < lo[i] - tol) | (v > hi[i] + tol)
    assert not outside.any(), (boxes[i[outside]][:3], v[outside][:3])
    assert np.count_nonzero(narrowed) > len(boxes) // 5


def _inside_boxes(seed, below_two, n=400):
    """n boxes inside the domain as _evaluate tells it (S.hi at most the VI
    lower bound of sigma_p(P)), in _subpave's rows with cold tau seeds: p lo
    in [1.5, 1.98] or in [2.02, 3.5], p-widths 1e-7 to 1e-2 and sigma-widths
    1e-3 to 1e-1, so that on the thin ones the sigma part of a form is most
    of its width."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(1.5, 1.98, n) if below_two else rng.uniform(2.02, 3.5, n)
    wp = 10.0 ** rng.uniform(-7.0, -2.0, n)
    ws = 10.0 ** rng.uniform(-3.0, -1.0, n)
    top = B.sigma_p_batch(VI(p, p + wp)).lo
    s = 1.0 + rng.uniform(0.0, 1.0, n) * (top - 1.0 - ws)
    return np.column_stack([p, p + wp, s, np.minimum(s + ws, top), np.full((n, 2), TAU_SEED)])


@pytest.mark.parametrize("below_two", [True, False], ids=["p<2", "p>2"])
@pytest.mark.parametrize("kind", ["high", "low"])
def test_second_order_form_contains_the_surface_inside(kind, below_two, monkeypatch):
    # on boxes inside the domain the difference form contains float
    # Delta - boundary at sampled points, a third of them on each sigma edge,
    # where (sigma - sc)^2 = r^2; it is never wider than the natural and
    # first-order pair alone, narrows it on boxes that pair leaves
    # uncertified, and leaves the others as the pair has them
    boxes = _inside_boxes(64 + below_two, below_two)
    assert np.all(boxes[:, 3] <= B.sigma_p_batch(VI(boxes[:, 0], boxes[:, 1])).lo)
    with np.errstate(all="ignore"):  # as _subpave runs it
        vac, lo, hi = _evaluate(kind, boxes.copy())

    def nan_dds2(p, *terms):
        return SimpleNamespace(dds2=VI.full_like(p, np.nan, np.nan))

    with monkeypatch.context() as m, np.errstate(all="ignore"):
        m.setattr(B, "_sigma_terms", nan_dds2)  # a NaN second derivative drops the third form
        vac0, lo0, hi0 = _evaluate(kind, boxes.copy())
    assert not vac.any() and not vac0.any()
    rng = np.random.default_rng(66 + below_two)
    i = np.repeat(np.arange(len(boxes)), 24)
    p = rng.uniform(boxes[i, 0], boxes[i, 1])
    s = np.choose(
        np.arange(i.size) % 3, [rng.uniform(boxes[i, 2], boxes[i, 3]), boxes[i, 2], boxes[i, 3]]
    )
    t = M.tau_point_vec(p, s)
    tp = M.tau_p_vec(p)
    edge = (2.0**p - 1.0) ** (1.0 / p) / 2 if kind == "high" else 4.0 ** (-1.0 / p) * (1.0 + tp) / (1.0 - tp)
    v = delta_scalar(p, s, t) - edge
    outside = (v < lo[i] - 1e-12) | (v > hi[i] + 1e-12)
    assert not outside.any(), (boxes[i[outside]][:3], v[outside][:3])
    assert np.all(lo >= lo0) and np.all(hi <= hi0)
    passed = lo0 > 0.0
    assert _bits(lo[passed], hi[passed]) == _bits(lo0[passed], hi0[passed])
    narrowed = (lo > lo0) | (hi < hi0)
    assert np.count_nonzero(narrowed) > np.count_nonzero(~passed) // 2


def test_one_atoms_pass_gives_delta_and_its_gradient_bit_for_bit():
    # one atoms pass on boxes and then centers: Delta with the bits of
    # delta_scalar, and dDelta/dsigma on every lane and dDelta/dp on the
    # boxes with those of delta_gradient
    boxes = np.concatenate(
        [_inside_boxes(67, True), _inside_boxes(68, False), _straddling_boxes(69)]
    )
    n = len(boxes)
    pm, sm = 0.5 * (boxes[:, 0] + boxes[:, 1]), 0.5 * (boxes[:, 2] + boxes[:, 3])
    P = VI(np.concatenate([boxes[:, 0], pm]), np.concatenate([boxes[:, 1], pm]))
    S = VI(np.concatenate([boxes[:, 2], sm]), np.concatenate([boxes[:, 3], sm]))
    with np.errstate(all="ignore"):
        T, _ = B.tau_enclose_batch(P, S)
        delta, slope, ddp, _ = B._delta_slopes(P, S, T, np.arange(n))
        dds = slope[-1]
        natural = delta_scalar(P, S, T)
        box = delta_gradient(*(B._lanes(x, slice(n)) for x in (P, S, T)))
        center = delta_gradient(*(B._lanes(x, slice(n, None)) for x in (P, S, T)))
    assert (~ddp.invalid()).sum() > n // 2 and (~dds.invalid()[n:]).sum() > n // 2
    assert _bits(delta.lo, delta.hi) == _bits(natural.lo, natural.hi)
    assert _bits(ddp.lo, ddp.hi) == _bits(box[1].lo, box[1].hi)
    assert _bits(dds.lo, dds.hi) == _bits(
        np.concatenate([box[0].lo, center[0].lo]), np.concatenate([box[0].hi, center[0].hi])
    )
