"""The VI-lane subpaving: tau_p brackets are reused across waves, never
recomputed for a p-interval the previous wave already bisected; merged jobs
and lane groups end bit for bit as they would alone."""

import numpy as np
import pytest

from critlat import batch as B
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


def _tau_groups(rng):
    """Lane groups of (P, S) boxes whose fixed points stop at different
    iterations: points, thin and wide boxes, some beyond the curve."""
    groups = []
    for g in range(24):
        n = int(rng.integers(1, 25))
        p = rng.uniform(1.5, 3.5, n)
        s = 1.0 + rng.uniform(0.0, 1.05, n) * ((2.0**p - 1.0) ** (1.0 / p) - 1.0)
        w = [0.0, 1e-9, 1e-4, 0.02][g % 4]
        groups.append((p, p + w, s, s + w))
    return groups


def _bits(*arrays):
    return tuple(np.asarray(a).tobytes() for a in arrays)


def test_tau_groups_stop_as_if_alone(phi_lanes):
    # bit equality alone does not tell a shared stopping rule apart: a lane
    # that has stalled sits on its fixed point, so extra iterations keep its
    # bits; the lane-iteration count does
    rng = np.random.default_rng(22)
    groups = _tau_groups(rng)
    alone, iterations = [], []
    for p_lo, p_hi, s_lo, s_hi in groups:
        before = phi_lanes[0]
        T, vac = B.tau_enclose_batch(VI(p_lo, p_hi), VI(s_lo, s_hi))
        alone.append(_bits(T.lo, T.hi, vac))
        iterations.append((phi_lanes[0] - before) // len(p_lo))
    assert len(set(iterations)) >= 3  # the groups stop at different iterations
    assert any(np.any(np.frombuffer(v, bool)) for _, _, v in alone)
    alone_lanes, phi_lanes[0] = phi_lanes[0], 0

    order = rng.permutation(len(groups))
    cat = [np.concatenate([groups[i][k] for i in order]) for k in range(4)]
    sizes = [len(groups[i][0]) for i in order]
    T, vac = B.tau_enclose_batch(VI(cat[0], cat[1]), VI(cat[2], cat[3]), groups=sizes)
    for i, b, a in zip(order, np.cumsum(sizes), np.cumsum(sizes) - sizes):
        assert _bits(T.lo[a:b], T.hi[a:b], vac[a:b]) == alone[i]
    assert phi_lanes[0] == alone_lanes


# per kind: a job that certifies, one over its node budget, one that splits
# down to the width floor and one wholly beyond the curve (vacuous)
_MIXED_JOBS = {
    "convex": [
        B.Job(2.7, 2.72, 1.0, 1.02, 30000),
        B.Job(2.7, 2.72, 1.0, 1.02, 50),
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
