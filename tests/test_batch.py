"""The VI-lane subpaving: tau_p brackets are reused across waves, never
recomputed for a p-interval the previous wave already bisected."""

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
        expected = B.subpave_delta_above(*box, "low", max_nodes=max_nodes)

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
    got = B.subpave_delta_above(*box, "low", max_nodes=max_nodes)

    assert got == expected
    flat = [k for keys in tau_p_keys for k in keys]
    assert len(flat) == len(set(flat))
    waves = calls["d_edge_low"]
    assert waves > 1
    assert 1 <= len(tau_p_keys) <= waves
    assert calls["edge_low"] == 2 * waves
