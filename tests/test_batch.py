"""The VI-lane subpaving: tau_p brackets are reused across waves, never
recomputed for a p-interval the previous wave already bisected; the tau
fixed point stops each lane at its exact fixed point; merged jobs end bit
for bit as they would alone."""

import numpy as np
import pytest

from critlat import batch as B
from critlat.jets import TAU_SEED, TAU_STEPS
from critlat.vints import VI


def _no_reuse(P, pm, known):
    # the reference: every lane bisected afresh
    return B.tau_p_enclose_batch(P), B.tau_p_enclose_batch(VI.point(pm)), known


@pytest.mark.parametrize(
    "box, max_nodes",
    [
        ((2.6, 2.625, 1.0, 1.02), 3000),  # budget hit: None
        ((2.6, 2.625, 1.02, 1.1), 40000),  # certified: a witness pair
    ],
)
def test_low_side_bisects_each_p_interval_once(monkeypatch, box, max_nodes):
    with monkeypatch.context() as m:
        m.setattr(B, "_tau_p_wave", _no_reuse)
        expected = B.subpave_delta_above([B.Job(*box, max_nodes)], "low")

    tau_p_keys, calls = [], {"edge_low": 0, "d_edge_low": 0}
    tau_p, edge_low, d_edge_low = B.tau_p_enclose_batch, B.edge_low_batch, B.d_edge_low_batch

    def spy_tau_p(P, *a):
        tau_p_keys.append(list(zip(P.lo.tolist(), P.hi.tolist())))
        return tau_p(P, *a)

    def spy_edge_low(P, tp):
        calls["edge_low"] += 1
        return edge_low(P, tp)

    def spy_d_edge_low(P, tp):
        calls["d_edge_low"] += 1  # once per wave
        return d_edge_low(P, tp)

    monkeypatch.setattr(B, "tau_p_enclose_batch", spy_tau_p)
    monkeypatch.setattr(B, "edge_low_batch", spy_edge_low)
    monkeypatch.setattr(B, "d_edge_low_batch", spy_d_edge_low)
    got = B.subpave_delta_above([B.Job(*box, max_nodes)], "low")

    assert got == expected
    flat = [k for keys in tau_p_keys for k in keys]
    assert len(flat) == len(set(flat))
    waves = calls["d_edge_low"]
    assert waves > 1
    assert 1 <= len(tau_p_keys) <= waves
    assert calls["edge_low"] == 2 * waves


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


# per kind: a job that certifies, one over its node budget, one that splits
# down to the width floor and one wholly beyond the curve (vacuous)
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
    assert _subpave(kind, jobs) == alone


@pytest.mark.parametrize("kind", sorted(_MIXED_JOBS))
def test_job_split_across_chunks_ends_as_if_alone(kind, monkeypatch):
    waves = []
    in_chunks = B._in_chunks

    def spy(boxes, evaluate):
        waves.append(len(boxes))
        return in_chunks(boxes, evaluate)

    monkeypatch.setattr(B, "_in_chunks", spy)
    jobs = _MIXED_JOBS[kind]
    alone = [_subpave(kind, [job])[0] for job in jobs]
    # some job alone has a wave wider than the cap, so a slice boundary falls
    # inside its run of lanes in the merged wave
    assert max(waves) > 37
    monkeypatch.setattr(B, "MAX_LANES", 37)
    assert _subpave(kind, jobs) == alone


@pytest.mark.parametrize("kind", sorted(_MIXED_JOBS))
def test_warm_tau_seeds_change_no_bits(kind, phi_lanes, monkeypatch):
    # Children start from their parent box's tau enclosure and midpoints from
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

    seeded = {"box": 0, "midpoint": 0}
    for P, S, seed, (T, vac) in calls:
        warmed = ~(seed.invalid() | ((seed.lo == TAU_SEED[0]) & (seed.hi == TAU_SEED[1])))
        points = (P.lo == P.hi) & (S.lo == S.hi)
        seeded["midpoint"] += np.count_nonzero(warmed & points)
        seeded["box"] += np.count_nonzero(warmed & ~points)
        T0, vac0 = tau(P, S)
        assert _bits(T.lo, T.hi, vac) == _bits(T0.lo, T0.hi, vac0)
    assert seeded["box"] > 0 and (seeded["midpoint"] > 0 or kind == "convex")


def test_tau_p_tables_carry_across_chunks(monkeypatch):
    # waves split into chunks of 37 lanes: each chunk looks its p-intervals up
    # in the previous wave's table (all of its chunks) and in the current
    # wave's earlier chunks, so none is searched twice, as in whole waves
    tau_p = B.tau_p_enclose_batch
    searched, chunks = [], [0]

    def spy(P):
        searched.extend(zip(P.lo.tolist(), P.hi.tolist()))
        return tau_p(P)

    in_chunks = B._in_chunks

    def count(boxes, evaluate):
        chunks[0] += -(-len(boxes) // B.MAX_LANES)
        return in_chunks(boxes, evaluate)

    job = [B.Job(2.6, 2.625, 1.02, 1.1, 40000)]
    expected = B.subpave_delta_above(job, "low")
    monkeypatch.setattr(B, "MAX_LANES", 37)
    monkeypatch.setattr(B, "tau_p_enclose_batch", spy)
    monkeypatch.setattr(B, "_in_chunks", count)
    assert B.subpave_delta_above(job, "low") == expected
    assert chunks[0] > 2 * 17  # many waves span several chunks
    assert len(searched) == len(set(searched))


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
