"""Tests of the benchmark itself (not of critlat).

    python3 -m pytest -q perfbench/test_perfbench.py

Takes about two minutes: it runs an untraced and a traced pass of the three
quicker workloads twice each.
"""

from __future__ import annotations

import ast
import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from critlat import batch, cli, moduli, verifier  # noqa: E402
from critlat.vints import VI  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUICK = ("strip_sigp", "scalar_p0", "lattes")


def traced_pass(name: str, seed: int):
    wl = WORKLOADS[name]
    inputs = wl.inputs(seed)
    counter = spans.NodeCounter()
    counter.install()
    try:
        plain, traced, _ = run._passes(wl, inputs, 0, counter, calibrate.Gauge(wl.GAUGE), spans.Recorder())
    finally:
        counter.uninstall()
    assert (len(plain), len(traced)) == (1, 1)
    assert plain[0][2] == traced[0][2], "tracing must not change the node count"
    _, output, nodes, layer, _ = traced[0]
    return wl, inputs, output, nodes, layer


@pytest.fixture(scope="module")
def passes():
    return {name: [traced_pass(name, 7) for _ in range(2)] for name in QUICK}


@pytest.mark.parametrize("name", QUICK)
def test_counts_repeat_exactly(passes, name):
    (wl, inputs, out_a, nodes_a, layer_a), (_, _, out_b, nodes_b, layer_b) = passes[name]
    rng = np.random.default_rng(0)
    leaves_a = wl.leaves(inputs, out_a, wl.check(inputs, out_a, rng))
    assert leaves_a == wl.leaves(inputs, out_b, wl.check(inputs, out_b, rng)) > 0
    assert wl.nodes(inputs, out_a, nodes_a) == wl.nodes(inputs, out_b, nodes_b)
    assert wl.nodes(inputs, out_a, nodes_a) > 0
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    assert sum(k.endswith(".calls") for k in counts) == 7
    assert {k: layer_a[k] for k in counts} == {k: layer_b[k] for k in counts}


def test_traced_outputs_pass_their_checks(passes):
    rng = np.random.default_rng(0)
    for name in QUICK:
        wl, inputs, output, _, _ = passes[name][0]
        outcome = wl.check(inputs, output, rng)
        assert outcome.failed == 0, outcome.messages


def test_strip_sigp_profile(passes):
    _, _, output, nodes, layer = passes["strip_sigp"][0]
    doc = json.loads(output[1])
    assert doc["totals"] == {"CertifiedInterior": 8, "CertifiedMonotoneHigh": 4}
    assert layer["batch.tau_p.calls"] == 0
    assert layer["batch.tau.calls"] > 0 and nodes > 0


def test_uninstall_restores_the_program():
    originals = (verifier.subpave_delta_above, batch.tau_enclose_batch, VI.__add__, cli.main)
    rec = spans.Recorder()
    rec.install()
    assert verifier.subpave_delta_above is not originals[0]
    assert cli.main is not originals[3]
    rec.uninstall()
    assert (verifier.subpave_delta_above, batch.tau_enclose_batch, VI.__add__, cli.main) == originals
    assert verifier.subpave_delta_above is batch.subpave_delta_above


def test_seed_moves_scalar_and_lattes_inputs_only():
    for name, wl in WORKLOADS.items():
        a, b, a2 = (pickle.dumps(wl.inputs(seed)) for seed in (1, 2, 1))
        assert a == a2, name
        assert (a == b) == name.startswith("strip_"), name


@pytest.fixture(scope="module")
def small_cert():
    wl = WORKLOADS["strip_sigp"]
    argv = ["--workers", "1", "verify", "--p", "2.33", "2.35", "--budget", "600"]
    return wl, wl.run(argv)


def test_certificate_checks_accept_a_real_certificate(small_cert):
    wl, (code, text) = small_cert
    assert wl.check(None, (code, text), np.random.default_rng(1)).failed == 0


@pytest.mark.parametrize("corruption", ["drop_leaf", "undecided", "shift_bound", "duplicate"])
def test_corrupted_certificate_is_caught(small_cert, corruption):
    wl, (code, text) = small_cert
    doc = json.loads(text)
    leaves = doc["leaves"]
    if corruption == "drop_leaf":
        del leaves[len(leaves) // 2]
    elif corruption == "undecided":
        leaves[0]["verdict"] = "Undecided"
    elif corruption == "shift_bound":
        leaves[0]["p"][1] = repr(float(leaves[0]["p"][1]) + 1e-9)
    else:
        leaves.append(dict(leaves[0]))
    outcome = wl.check(None, (code, json.dumps(doc)), np.random.default_rng(1))
    assert outcome.attempted == 1 and outcome.failed == 1, corruption


def test_false_leaf_claim_is_caught(small_cert):
    wl, (code, text) = small_cert
    doc = json.loads(text)
    # a MonotoneHigh leaf lies beside the sigma_p curve, where Delta falls to
    # sigma_p / 2 < Delta(p, 1) for p < p0; relabelled MonotoneLow it claims
    # Delta > Delta(p, 1), which is false there
    leaf = next(l for l in doc["leaves"] if l["verdict"] == "CertifiedMonotoneHigh")
    leaf["verdict"] = "CertifiedMonotoneLow"
    leaf["witness"] = None
    fails = checks.check_leaf_samples(doc, moduli, np.random.default_rng(1))
    assert fails, "a Delta > Delta(p, 1) claim beside the sigma_p curve at p < p0 must fail"


def test_widened_p0_is_counted_in_fail_frac(monkeypatch, capsys):
    real = verifier.enclose_p0

    def widened(tol, *a, **k):
        iv = real(tol, *a, **k)
        return type(iv)(iv.lo - tol, iv.hi + tol)

    monkeypatch.setattr(verifier, "enclose_p0", widened)
    code = run.main(["--workload", "scalar_p0", "--seed", "3", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 301
    assert result["metrics"]["ok_frac"]["value"] == 300 / 301


def test_shifted_box_enclosure_and_bad_pair_are_caught():
    wl = WORKLOADS["scalar_p0"]
    inputs = wl.inputs(5)[:20]
    p0, rows, iters, errors = wl.run(inputs)
    rng = np.random.default_rng(0)
    assert wl.check(inputs, (p0, rows, iters, errors), rng).failed == 0
    rows = rows.copy()
    rows[4, 2:4] += rows[4, 3] - rows[4, 2] + 1e-3  # box 4's Delta enclosure moves off the surface
    outcome = wl.check(inputs, (p0, rows, iters, errors), rng)
    assert outcome.failed == 1 and "box 4" in outcome.messages[0]

    lat = WORKLOADS["lattes"]
    zs, starts = lat.inputs(5)
    inputs = (zs[:1], starts[:2])
    curves, pairs, lyaps = lat.run(inputs)
    assert lat.check(inputs, (curves, pairs, lyaps), rng).failed == 0
    bad = (curves, [pairs[0] + 1e-5], [lyaps[0], -0.1])
    outcome = lat.check(inputs, bad, rng)
    assert outcome.failed == 2
    assert lat.leaves(inputs, bad, outcome) == outcome.attempted - 2


def test_gauge_is_independent_of_the_program():
    imported = {n.split(".")[0] for node in ast.walk(ast.parse(Path(calibrate.__file__).read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for n in ([a.name for a in node.names] if isinstance(node, ast.Import) else [node.module])}
    assert imported <= {"__future__", "signal", "time", "numpy"}
    assert {wl.GAUGE for wl in WORKLOADS.values()} <= set(calibrate.UNITS)
    assert set(json.loads((HERE / "reference.json").read_text())["gauge_unit_s"]) == set(calibrate.UNITS)
    gauge = calibrate.Gauge("narrow")
    gauge.sample(0.0)
    assert gauge.units == 1 and gauge.unit_s > 0


def test_metric_names_agree():
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    computed = set(spans.Recorder().layer_metrics()) | {"trace.overhead_frac"}
    assert set(layer_names) == computed
    documented = json.loads((HERE / "layers.json").read_text())
    assert set(documented["per_layer"]) == set(layer_names)
    assert set(documented["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "strip_sigp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
